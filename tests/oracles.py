"""Slow explicit constructions kept as test oracles for the fast engines.

`elimination_terms` is the leading-term elimination engine for the universal
lambda polynomials: it expands e_k of the pairwise products x_i y_j (product
rule) or of the l-fold products of one family (composition rule) into
monomials, then rewrites the result in elementary symmetric polynomials by
leading-term elimination over exact integers, and checks it by integer
specialization.  Its cost grows with C(kl, l) monomials in k*l variables, so
it is only run where it finishes (k*l <= 9).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from f1gtheory.errors import InternalCheckError

# A polynomial is a dict from exponent tuples to nonzero int coefficients.
Poly = Dict[Tuple[int, ...], int]


def _p_const(nvars: int, c: int) -> Poly:
    return {(0,) * nvars: c} if c else {}


def _p_monomial(nvars: int, exps: Sequence[int], c: int = 1) -> Poly:
    return {tuple(exps): c} if c else {}


def _p_add_into(acc: Poly, other: Poly, scale: int = 1) -> None:
    for mono, c in other.items():
        v = acc.get(mono, 0) + c * scale
        if v:
            acc[mono] = v
        else:
            acc.pop(mono, None)


def _p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(mono, 0) + ca * cb
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def _elementary_of(items: Sequence[Poly], k: int, nvars: int) -> Poly:
    """e_k of a list of polynomials, by the one-item-at-a-time recurrence."""
    e: List[Poly] = [_p_const(nvars, 1)] + [{} for _ in range(k)]
    for item in items:
        for j in range(k, 0, -1):
            _p_add_into(e[j], _p_mul(e[j - 1], item))
    return e[k]


def _elementary_basis(nvars: int, block: Sequence[int], upto: int) -> List[Poly]:
    """e_1..e_upto of the plain variables in one block; index 0 holds 1."""
    items = [_p_monomial(nvars, [1 if v == i else 0 for v in range(nvars)])
             for i in block]
    e: List[Poly] = [_p_const(nvars, 1)] + [{} for _ in range(upto)]
    for item in items:
        for j in range(upto, 0, -1):
            _p_add_into(e[j], _p_mul(e[j - 1], item))
    return e


def _express_in_elementary(p: Poly, nvars: int,
                           blocks: Sequence[Sequence[int]]) -> Dict[Tuple[Tuple[int, ...], ...], int]:
    """Rewrite a per-block-symmetric polynomial in elementary symmetric terms.

    Result keys are one exponent tuple per block, position i holding the
    exponent of e_{i+1} of that block's variables.
    """
    bases = [_elementary_basis(nvars, b, len(b)) for b in blocks]
    work: Poly = dict(p)
    result: Dict[Tuple[Tuple[int, ...], ...], int] = {}
    while work:
        lead = max(work)
        coeff = work[lead]
        key_parts: List[Tuple[int, ...]] = []
        for b in blocks:
            exps = [lead[v] for v in b]
            for i in range(len(exps) - 1):
                if exps[i] < exps[i + 1]:
                    raise InternalCheckError("leading term violates per-block symmetry")
            key_parts.append(tuple(
                exps[i] - (exps[i + 1] if i + 1 < len(exps) else 0)
                for i in range(len(exps))
            ))
        key = tuple(key_parts)
        term = _p_const(nvars, 1)
        for base, degs in zip(bases, key_parts):
            for i, d in enumerate(degs):
                for _ in range(d):
                    term = _p_mul(term, base[i + 1])
        _p_add_into(work, term, -coeff)
        if max(work, default=None) == lead:
            raise InternalCheckError("leading-term elimination failed to make progress")
        result[key] = result.get(key, 0) + coeff
    return {k: v for k, v in result.items() if v}


def _eval_poly_at_ints(p: Poly, values: Sequence[int]) -> int:
    total = 0
    for mono, c in p.items():
        v = c
        for e, x in zip(mono, values):
            v *= x ** e
        total += v
    return total


def _elementary_values(values: Sequence[int]) -> List[int]:
    e = [1] + [0] * len(values)
    for x in values:
        for j in range(len(values), 0, -1):
            e[j] += e[j - 1] * x
    return e


def _verify_by_specialization(kind: str, k: int, l: Optional[int], nvars: int,
                              blocks: Sequence[Sequence[int]], target: Poly,
                              terms: Dict[Tuple[Tuple[int, ...], ...], int]) -> None:
    # a few fixed integer points; enough to catch any wiring slip
    samples = [
        [i + 2 for i in range(nvars)],
        [(i % 3) + 1 for i in range(nvars)],
        [((7 * i + 3) % 5) + 1 for i in range(nvars)],
    ]
    for values in samples:
        direct = _eval_poly_at_ints(target, values)
        evalues = [_elementary_values([values[v] for v in b]) for b in blocks]
        total = 0
        for key, coeff in terms.items():
            v = coeff
            for e_vals, degs in zip(evalues, key):
                for i, d in enumerate(degs):
                    v *= e_vals[i + 1] ** d
            total += v
        if total != direct:
            raise InternalCheckError("elementary-symmetric rewrite fails specialization")


def elimination_terms(kind: str, k: int, l: Optional[int] = None):
    """The sorted `terms` of P_k or P_{k,l}, by leading-term elimination."""
    if kind == "product":
        nvars = 2 * k
        blocks = [list(range(k)), list(range(k, 2 * k))]
        items = []
        for i in range(k):
            for j in range(k):
                exps = [0] * nvars
                exps[i] = 1
                exps[k + j] = 1
                items.append(_p_monomial(nvars, exps))
    elif kind == "composition":
        nvars = k * l
        blocks = [list(range(nvars))]
        items = []
        for subset in combinations(range(nvars), l):
            exps = [0] * nvars
            for v in subset:
                exps[v] = 1
            items.append(_p_monomial(nvars, exps))
    else:
        raise ValueError(f"unknown polynomial kind {kind!r}")

    target = _elementary_of(items, k, nvars)
    terms = _express_in_elementary(target, nvars, blocks)
    _verify_by_specialization(kind, k, l, nvars, blocks, target, terms)
    return tuple(sorted(terms.items()))
