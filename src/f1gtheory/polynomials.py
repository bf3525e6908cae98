"""Universal polynomials for the lambda-ring product and composition rules.

P_k rewrites e_k of the pairwise products x_i y_j in the elementary symmetric
polynomials of each variable family; P_{k,l} rewrites e_k of the l-fold
products of one family.  Both are plethysms e_k[f], computed in the
power-sum basis (Macdonald, Symmetric Functions and Hall Polynomials, 2nd
ed., I.2 and I.8): e_k = sum over partitions lam of k of eps_lam p_lam /
z_lam, p_n[f] is f with every p_m replaced by p_{nm}, and Newton's identity
writes each p_m in the elementary basis.  Every coefficient must come out
integral, and the result is verified by integer specialization.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import InternalCheckError
from .records import _Record

__all__ = ["UniversalPolynomial", "universal_polynomial", "MAX_PRODUCT_K",
           "MAX_COMPOSITION_K", "MAX_COMPOSITION_L"]

MAX_PRODUCT_K = 4
MAX_COMPOSITION_K = 4
MAX_COMPOSITION_L = 3

# A polynomial is a dict from exponent tuples to nonzero int coefficients.
Poly = Dict[Tuple[int, ...], int]


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


def _partitions(n: int, largest: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """Partitions of n as nonincreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _z(lam: Sequence[int]) -> int:
    """z_lam = prod over parts i of i^(m_i) m_i!, m_i the multiplicity of i."""
    return prod(i ** m * factorial(m) for i, m in Counter(lam).items())


def _power_sums_in_elementary(n: int) -> List[Poly]:
    """p_1..p_n in e_1..e_n (index 0 unused), by Newton's identity.

    p_m = sum_{i<m} (-1)^(i-1) e_i p_{m-i} + (-1)^(m-1) m e_m.
    """
    def e(i: int) -> Tuple[int, ...]:
        return tuple(int(v == i - 1) for v in range(n))

    p: List[Poly] = [{}]
    for m in range(1, n + 1):
        p_m: Poly = {e(m): (-1) ** (m - 1) * m}
        for i in range(1, m):
            _p_add_into(p_m, _p_mul({e(i): 1}, p[m - i]), (-1) ** (i - 1))
        p.append(p_m)
    return p


def _elementary_plethysm(k: int, power_plethysms: Mapping[int, Poly],
                         nvars: int) -> Poly:
    """e_k[f] = sum_{lam |- k} eps_lam / z_lam prod_i p_{lam_i}[f].

    power_plethysms[n] holds p_n[f] for n = 1..k.  k!/z_lam is the size of
    the class of cycle type lam, so the sum is taken times k! in integers
    and divided exactly; e_k[f] of an integral f is integral.
    """
    k_fact = factorial(k)
    total: Poly = {}
    for lam in _partitions(k):
        term: Poly = {(0,) * nvars: 1}
        for part in lam:
            term = _p_mul(term, power_plethysms[part])
        _p_add_into(total, term, (-1) ** (k - len(lam)) * (k_fact // _z(lam)))
    out: Poly = {}
    for mono, c in total.items():
        q, r = divmod(c, k_fact)
        if r:
            raise InternalCheckError("plethysm gave a non-integral coefficient")
        out[mono] = q
    return out


def _elementary_values(values: Sequence[int], upto: int) -> List[int]:
    e = [1] + [0] * upto
    for x in values:
        for j in range(upto, 0, -1):
            e[j] += e[j - 1] * x
    return e


class UniversalPolynomial(_Record):
    """An integer polynomial in formal lambda values.

    Product kind: terms are keyed by a pair of exponent tuples, one for the
    operations applied to x and one for y.  Composition kind: a single tuple
    for x.  Position i of a tuple holds the exponent of the (i+1)-st
    operation.
    """

    _fields = ("kind", "k", "l", "terms")

    def __init__(self, kind: str, k: int, l: Optional[int],
                 terms: Tuple[Tuple[Tuple[Tuple[int, ...], ...], int], ...]) -> None:
        self.__dict__.update(kind=kind, k=k, l=l, terms=terms)

    def value(self, *families: Sequence[int]) -> int:
        """The polynomial at integers; families[f][i] is the i-th operation's value."""
        arity = 1 if self.kind == "composition" else 2
        if len(families) != arity:
            raise ValueError(f"the {self.kind} rule takes one family of values per "
                             f"argument ({arity}), got {len(families)}")
        total = 0
        for key, coeff in self.terms:
            for fam, degs in zip(families, key):
                for i, d in enumerate(degs):
                    if d:
                        coeff *= fam[i + 1] ** d
            total += coeff
        return total


def _verify_by_specialization(poly: UniversalPolynomial, nvars: int,
                              blocks: Sequence[Sequence[int]]) -> None:
    # a few fixed integer points; enough to catch any wiring slip
    samples = [
        [i + 2 for i in range(nvars)],
        [(i % 3) + 1 for i in range(nvars)],
        [((7 * i + 3) % 5) + 1 for i in range(nvars)],
    ]
    k = poly.k
    for values in samples:
        if poly.kind == "product":
            args = [values[i] * values[k + j] for i in range(k) for j in range(k)]
        else:
            args = [prod(c) for c in combinations(values, poly.l)]
        direct = _elementary_values(args, k)[k]
        evalues = [_elementary_values([values[v] for v in b], len(b)) for b in blocks]
        if poly.value(*evalues) != direct:
            raise InternalCheckError("elementary-symmetric rewrite fails specialization")


@lru_cache(maxsize=None)
def universal_polynomial(kind: str, k: int, l: Optional[int] = None) -> UniversalPolynomial:
    """The product rule P_k or the composition rule P_{k,l}."""
    if kind == "product":
        if l is not None:
            raise ValueError("the product rule takes no second index")
        if not 1 <= k <= MAX_PRODUCT_K:
            raise ValueError(f"product rule supports 1 <= k <= {MAX_PRODUCT_K}")
        # p_n[XY] = p_n(x) p_n(y); x and y own the first and last k variables
        nvars = 2 * k
        blocks = [range(k), range(k, nvars)]
        p = _power_sums_in_elementary(k)
        power_plethysms = {
            n: {mx + my: cx * cy for mx, cx in p[n].items() for my, cy in p[n].items()}
            for n in range(1, k + 1)
        }
    elif kind == "composition":
        if l is None:
            raise ValueError("the composition rule needs both indices")
        if not 1 <= k <= MAX_COMPOSITION_K or not 1 <= l <= MAX_COMPOSITION_L:
            raise ValueError(
                f"composition rule supports k <= {MAX_COMPOSITION_K}, l <= {MAX_COMPOSITION_L}")
        # p_n[e_l] is e_l with every p_m replaced by p_{nm}
        nvars = k * l
        blocks = [range(nvars)]
        p = _power_sums_in_elementary(nvars)
        power_plethysms = {
            n: _elementary_plethysm(l, {m: p[n * m] for m in range(1, l + 1)}, nvars)
            for n in range(1, k + 1)
        }
    else:
        raise ValueError(f"unknown polynomial kind {kind!r}")

    terms = {tuple(tuple(mono[v] for v in b) for b in blocks): coeff
             for mono, coeff in _elementary_plethysm(k, power_plethysms, nvars).items()}
    poly = UniversalPolynomial(kind, k, l, tuple(sorted(terms.items())))
    _verify_by_specialization(poly, nvars, blocks)
    return poly
