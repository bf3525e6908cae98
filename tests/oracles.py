"""Slow explicit constructions kept as test oracles, and test-only builders.

`elimination_terms` is the leading-term elimination engine for the universal
lambda polynomials: it expands e_k of the pairwise products x_i y_j (product
rule) or of the l-fold products of one family (composition rule) into
monomials, then rewrites the result in elementary symmetric polynomials by
leading-term elimination over exact integers, and checks it by integer
specialization.  Its cost grows with C(kl, l) monomials in k*l variables, so
it is only run where it finishes (k*l <= 9).  `universal_polynomial` is the
plethysm engine for the same polynomials: e_k[f] summed over the partitions
of k in the power-sum basis and written back in elementary symmetric
functions, cached by degree.  `evaluate_in_ring` substitutes Burnside ring
elements into a universal polynomial and multiplies in the basis.  The
library writes no polynomial: it runs Newton's identities on the integers
of one ghost coordinate at a time.

`smith_normal_form_dense` is the dense Smith normal form: it rescans the
trailing block for a least pivot at every step and restarts its clearing
after every swap.  `cokernel_invariants_sparse` eliminates unit pivots in
rows taken in order and hands the rest to it.  Together they are the oracle
of the library's engine (unit pivots by fewest entries, then a remainder
reduced modulo a maximal minor) and of the linear certificate that computes
group-monoid degree-0 groups.

`peel_rows_by_dict` builds each group-monoid peel row as a dict over its
three terms and sorts it, and `in_peel_kernel` maps a row to count vectors
one rank-length list at a time; the library emits rows straight from their
three column indices and tests the kernel on one integer encoding.

`product_order_tables` and `enumerate_modules_pairwise` are the unpruned
general-monoid module enumeration: every table of the full product of free
action entries is tested whole, and classes are found by a pairwise
`are_isomorphic` scan over every representative of the same size.
`object_relation_rows` builds the general-monoid relation rows on module
objects (`submodule_inclusion`, `is_cofibration`, `quotient`); the library
builds the two action tables of each subset and decides the cofibration
collapse-first.

`all_subgroups_by_closure` enumerates subgroups by closing every candidate
<H, x> from the identity over all of its elements, and
`classify_by_all_conjugates` and `element_classes_by_all_conjugates`
conjugate by every element of the ambient subgroup; the library grows
<H, x> by cosets of H and walks each orbit under the conjugation maps of a
generating set.

`dense_marks` builds the table of marks by testing every representative
against every member of every class as frozensets, and `dense_marks_of`
and `dense_from_marks` walk full rows and the full lower triangle; the
library keeps only the nonzero marks of each row, found through one
bitset of representatives per element.

`orbit_lengths_by_cosets` walks the K-orbits on every coset module G/H;
the library counts them from |K cap H'| over the conjugates H' of H.

`normalizer_by_all_conjugates` conjugates the whole subgroup by every
element; the library tests the generators of H under one memoized
conjugation map per element.

`mult_by_regular` multiplies a Burnside ring element by the class of the
regular orbit, read off an explicit free module.

`double_coset_reps_by_products` covers each double coset KgH by every
product a·g·b, and `double_coset_plan_by_contexts` is the plan builder
that builds a context of K cap gHg^-1 inside K for each double coset and
maps classes through it; the library reads the classes of K directly.

`subgroup_as_group` re-indexes a subgroup as a standalone group,
`quotient_group` builds G/N on least coset representatives, checking
normality by conjugating N by every element, and `weyl_group` is N_G(H)/H
built from those two.  `abelianization_by_relations` reads G/[G, G] off
the Smith normal form of the |Q|^2 relations [a] + [b] - [ab] of
Q = G/[G, G].  Together they are the oracle of `groups.abelianization`,
which reads each W_G(H)^ab off the ambient group.

`reindexed_context` re-indexes a subgroup as a standalone group with its
own subgroup lattice and Burnside ring, and maps its classes into the outer
ring through the embedding; the library describes the same context in
ambient element ids.  `double_coset_sum_per_y` is the right-hand side of
the double coset formula rebuilt from scratch for one element over
re-indexed groups: representatives, inner contexts and the transport along
conjugation are all redone per y, where the library builds them once per
(H, K) pair.

`identity_hom`, `permute_module`, `induced_quotient_map` and
`extension_property_check` are module maps, and a check of the extension
property, that only the tests use.  `subset_module` builds the module of
k-subsets explicitly and `diamond_filtered` the diamond module of tuples
compatible with a chain of cofibrations; the library reads lambda
operations off orbit lengths in the ghost ring.

`action_law_everywhere`, `equivariant_everywhere`,
`multiplicative_everywhere` and `bimodule_laws_everywhere` test the module,
module-hom, monoid-hom and bimodule laws at every pair or triple; the
class constructors test them at the generators of the acting monoid.

The seeded random builders at the end (monoid pool, homomorphisms, modules,
maps and disguised split and extension instances) feed the module-category
acceptance criteria.  They are deterministic given a `random.Random`; the
pools are fixed and cached.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product as iter_product
from math import factorial, prod
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from f1gtheory.burnside import BurnsideElement, BurnsideRing, build_burnside
from f1gtheory.constructions import (MonoidHom, are_isomorphic, diamond,
                                     generating_set)
from f1gtheory.errors import InternalCheckError
from f1gtheory.groups import (FiniteGroup, Subgroup, _derived, _memo_on_group,
                              _right_cosets, _subgroup_elements, build_group,
                              closure_of, normalizer)
from f1gtheory.gtheory import _action_closed_subsets, _enumerate_modules
from f1gtheory.mackey import double_coset_reps, subgroup_context, transport
from f1gtheory.modules import (FiniteModule, ModuleHom, PointedMonoid,
                               free_module, group_monoid, is_cofibration,
                               quotient, quotient_with_projection,
                               submodule_inclusion, wedge_with_inclusions,
                               zero_module)
from f1gtheory.records import _Record
from f1gtheory.sampling import random_effective
from f1gtheory.snf import cokernel_invariants

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


Terms = Sequence[Tuple[Tuple[Tuple[int, ...], ...], int]]


def _terms_value(terms: Terms, families: Sequence[Sequence[int]]) -> int:
    """Elementary-basis terms at integers; families[f][i] is e_i of block f."""
    total = 0
    for key, coeff in terms:
        for fam, degs in zip(families, key):
            for i, d in enumerate(degs):
                if d:
                    coeff *= fam[i + 1] ** d
        total += coeff
    return total


def _verify_by_specialization(terms: Terms, nvars: int,
                              blocks: Sequence[Sequence[int]],
                              direct: Callable[[List[int]], int]) -> None:
    """Check terms against `direct`, the polynomial evaluated on plain variables."""
    # a few fixed integer points; enough to catch any wiring slip
    samples = [
        [i + 2 for i in range(nvars)],
        [(i % 3) + 1 for i in range(nvars)],
        [((7 * i + 3) % 5) + 1 for i in range(nvars)],
    ]
    for values in samples:
        evalues = [_elementary_values([values[v] for v in b]) for b in blocks]
        if _terms_value(terms, evalues) != direct(values):
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
    _verify_by_specialization(terms.items(), nvars, blocks,
                              lambda values: _eval_poly_at_ints(target, values))
    return tuple(sorted(terms.items()))


# --- the plethysm engine --------------------------------------------------

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


def _elementary_plethysm(k: int, power_plethysms: Dict[int, Poly],
                         nvars: int) -> Poly:
    """e_k[f] = sum_{lam |- k} eps_lam / z_lam prod_i p_{lam_i}[f].

    power_plethysms[n] holds p_n[f] for n = 1..k.  k!/z_lam is the size of
    the class of cycle type lam, so the sum is taken times k! in integers
    and divided exactly; e_k[f] of an integral f is integral.
    """
    k_fact = factorial(k)
    total: Poly = {}
    for lam in _partitions(k):
        term: Poly = _p_const(nvars, 1)
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


class UniversalPolynomial(_Record):
    """An integer polynomial in formal lambda values.

    Product kind: terms are keyed by a pair of exponent tuples, one for the
    operations applied to x and one for y.  Composition kind: a single tuple
    for x.  Position i of a tuple holds the exponent of the (i+1)-st
    operation.
    """

    _fields = ("kind", "k", "l", "terms")

    def __init__(self, kind: str, k: int, l: Optional[int], terms: Terms) -> None:
        self.__dict__.update(kind=kind, k=k, l=l, terms=terms)

    def value(self, *families: Sequence[int]) -> int:
        """The polynomial at integers; families[f][i] is the i-th operation's value."""
        arity = 1 if self.kind == "composition" else 2
        if len(families) != arity:
            raise ValueError(f"the {self.kind} rule takes one family of values per "
                             f"argument ({arity}), got {len(families)}")
        return _terms_value(self.terms, families)


@lru_cache(maxsize=None)
def universal_polynomial(kind: str, k: int, l: Optional[int] = None) -> UniversalPolynomial:
    """The product rule P_k or the composition rule P_{k,l}, as plethysms.

    e_k[f] in the power-sum basis, written back in elementary symmetric
    functions by Newton's identity, with p_n[XY] = p_n(x) p_n(y) and p_n[e_l]
    equal to e_l with every p_m replaced by p_{nm}.  Every coefficient must
    come out integral, and the result is checked at integer points.
    """
    if kind == "product":
        if l is not None:
            raise ValueError("the product rule takes no second index")
        if k < 1:
            raise ValueError("the product rule needs k >= 1")
        # x and y own the first and last k variables
        nvars = 2 * k
        blocks = [range(k), range(k, nvars)]
        p = _power_sums_in_elementary(k)
        power_plethysms = {
            n: {mx + my: cx * cy for mx, cx in p[n].items() for my, cy in p[n].items()}
            for n in range(1, k + 1)
        }

        def roots(values):
            return [values[i] * values[k + j] for i in range(k) for j in range(k)]
    elif kind == "composition":
        if l is None or k < 1 or l < 1:
            raise ValueError("the composition rule needs both indices, each >= 1")
        nvars = k * l
        blocks = [range(nvars)]
        p = _power_sums_in_elementary(nvars)
        power_plethysms = {
            n: _elementary_plethysm(l, {m: p[n * m] for m in range(1, l + 1)}, nvars)
            for n in range(1, k + 1)
        }

        def roots(values):
            return [prod(c) for c in combinations(values, l)]
    else:
        raise ValueError(f"unknown polynomial kind {kind!r}")

    terms = {tuple(tuple(mono[v] for v in b) for b in blocks): coeff
             for mono, coeff in _elementary_plethysm(k, power_plethysms, nvars).items()}
    poly = UniversalPolynomial(kind, k, l, tuple(sorted(terms.items())))
    _verify_by_specialization(poly.terms, nvars, blocks,
                              lambda values: _elementary_values(roots(values))[k])
    return poly


def evaluate_in_ring(poly: UniversalPolynomial, ring: BurnsideRing,
                     lam_x: Sequence[BurnsideElement],
                     lam_y: Optional[Sequence[BurnsideElement]] = None) -> BurnsideElement:
    """Substitute ring elements; lam[i] must hold the i-th operation's value."""
    families = [lam_x] if poly.kind == "composition" else [lam_x, lam_y]
    total = ring.zero()
    for key, coeff in poly.terms:
        term = ring.one()
        for fam, degs in zip(families, key):
            for i, d in enumerate(degs):
                for _ in range(d):
                    term = term * fam[i + 1]
        total = total + term * coeff
    return total


# --- Smith normal form ---------------------------------------------------

def smith_normal_form_dense(rows: Sequence[Sequence[int]],
                            ncols: Optional[int] = None) -> List[int]:
    """Diagonal of the Smith normal form, by dense elimination with restarts.

    Returns the full diagonal of length min(nrows, ncols), entries nonnegative
    and satisfying d[i] | d[i+1].
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    if ncols is None:
        n = len(a[0]) if a else 0
    else:
        n = ncols
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")
    diag: List[int] = []
    t = 0
    while t < min(m, n):
        # locate a pivot of smallest absolute value in the trailing block; a
        # unit is the least possible, so the scan ends with the row holding one
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            # clear the pivot column with row operations
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        # remainder is smaller than the pivot: promote it
                        a[t], a[i] = a[i], a[t]
                        restart = True
                        break
            if restart:
                continue
            # clear the pivot row with column operations
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot;
            # a unit pivot divides every entry
            if abs(a[t][t]) == 1:
                break
            witness = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            for j in range(t, n):
                a[t][j] += a[witness][j]
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


def cokernel_invariants_sparse(rows: Sequence, ncols: int) -> Tuple[int, List[int]]:
    """Like cokernel_invariants for sparse rows.

    A row is a {column: coefficient} dict or a sequence of (column,
    coefficient) pairs, the form of `GrothendieckPresentation.relations`.
    Unit-pivot elimination first: a +-1 pivot lets the row and column be
    removed without changing the cokernel.  Whatever remains is handed to
    `smith_normal_form_dense`.  It is quadratic with fill-in on the group-monoid
    presentations, whose degree-0 groups the library computes by a linear
    certificate instead.
    """
    live: Dict[int, Dict[int, int]] = {}
    col_rows: Dict[int, set] = {}
    for idx, row in enumerate(rows):
        cleaned = {c: v for c, v in dict(row).items() if v}
        if not cleaned:
            continue
        live[idx] = cleaned
        for c in cleaned:
            col_rows.setdefault(c, set()).add(idx)
    dead_cols: set = set()
    unit_rank = 0
    while True:
        pivot = None
        for rid in sorted(live):
            row = live[rid]
            units = [c for c, v in row.items() if abs(v) == 1]
            if units:
                pivot = (rid, min(units))
                break
        if pivot is None:
            break
        rid, c = pivot
        prow = live[rid]
        val = prow[c]
        for other in sorted(col_rows.get(c, ()) - {rid}):
            orow = live.get(other)
            if orow is None or c not in orow:
                continue
            factor = orow[c] * val  # val in {1, -1}
            for pc, pv in prow.items():
                nv = orow.get(pc, 0) - factor * pv
                if nv:
                    orow[pc] = nv
                    col_rows.setdefault(pc, set()).add(other)
                else:
                    orow.pop(pc, None)
                    col_rows.get(pc, set()).discard(other)
            if not orow:
                del live[other]
        for pc in prow:
            col_rows.get(pc, set()).discard(rid)
        del live[rid]
        dead_cols.add(c)
        unit_rank += 1
    if live:
        remaining = sorted(set(range(ncols)) - dead_cols)
        colmap = {c: i for i, c in enumerate(remaining)}
        dense = []
        for rid in sorted(live):
            row = [0] * len(remaining)
            for c, v in live[rid].items():
                row[colmap[c]] = v
            dense.append(tuple(row))
        # repeated rows span nothing new
        nonzero = [d for d in smith_normal_form_dense(list(dict.fromkeys(dense)),
                                                      len(remaining)) if d]
        free = len(remaining) - len(nonzero)
        torsion = [d for d in nonzero if d > 1]
    else:
        free, torsion = ncols - unit_rank, []
    return free, torsion


# --- degree-0 relation rows ----------------------------------------------

def peel_rows_by_dict(gens: Sequence[Tuple[int, ...]],
                      gen_index: Dict[Tuple[int, ...], int]
                      ) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """[0], then [c] - [c - e_i] - [e_i] per peel site, merged in a dict."""
    rank = len(gens[0])
    yield ((gen_index[(0,) * rank], -1),)
    for c in gens:
        for i, v in enumerate(c):
            if not v:
                continue
            row: Dict[int, int] = {}
            smaller = c[:i] + (v - 1,) + c[i + 1:]
            single = (0,) * i + (1,) + (0,) * (rank - i - 1)
            for key, delta in ((c, 1), (smaller, -1), (single, -1)):
                idx = gen_index[key]
                row[idx] = row.get(idx, 0) + delta
            yield tuple(sorted((k, v) for k, v in row.items() if v))


def in_peel_kernel(row: Sequence[Tuple[int, int]],
                   gens: Sequence[Tuple[int, ...]]) -> bool:
    """Whether sum v * c over the row's terms (idx, v), c = gens[idx], is zero."""
    image = [0] * len(gens[0])
    for idx, v in row:
        image = [x + v * y for x, y in zip(image, gens[idx])]
    return not any(image)


def object_relation_rows(m: PointedMonoid, size_bound: int
                         ) -> List[Tuple[Tuple[int, int], ...]]:
    """General-monoid relation rows from module objects and the full search.

    Every action-closed subset of every representative is included as a
    module, tested with `is_cofibration`, and its submodule and quotient
    are classified through the class memo.
    """
    index = _enumerate_modules(m, size_bound)
    rows = []
    for i, rep in enumerate(index.reps):
        for subset in _action_closed_subsets(rep):
            incl = submodule_inclusion(rep, subset)
            if is_cofibration(incl)[0]:
                row = [0] * len(index.reps)
                row[i] += 1
                row[index.lookup(incl.source.action)] -= 1
                row[index.lookup(quotient(incl).action)] -= 1
                if any(row):
                    rows.append(tuple((j, v) for j, v in enumerate(row) if v))
    return rows


def mult_by_regular(group: FiniteGroup, x: BurnsideElement) -> BurnsideElement:
    """Multiply by the class of the regular orbit (free rank-1 module)."""
    ring = build_burnside(group)
    regular = ring.decompose(free_module(group_monoid(group), 1))
    return x * regular


# --- subgroup lattice by closure from the identity ------------------------

def closure_from_identity(group: FiniteGroup, seed: Sequence[int]) -> Tuple[int, ...]:
    """<seed>, closed from the identity under right multiplication by the seed."""
    gens = set(seed)
    members = {group.identity}
    frontier = [group.identity]
    while frontier:
        row = group.cayley[frontier.pop()]
        for s in gens:
            if row[s] not in members:
                members.add(row[s])
                frontier.append(row[s])
    return tuple(sorted(members))


def all_subgroups_by_closure(group: FiniteGroup) -> Tuple[Tuple[int, ...], ...]:
    """Element tuples of all subgroups, sorted by (order, elements).

    Cyclic extension, one x per coset Hx, each <H, x> closed from scratch.
    """
    trivial = (group.identity,)
    found: Dict[Tuple[int, ...], Tuple[int, ...]] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        tried = set(h)
        for x in range(group.order):
            if x in tried:
                continue
            tried.update(group.cayley[a][x] for a in h)
            gens = found[h] + (x,)
            k = closure_from_identity(group, gens)
            if k not in found:
                found[k] = gens
                frontier.append(k)
    return tuple(sorted(found, key=lambda t: (len(t), t)))


def classify_by_all_conjugates(group: FiniteGroup, elements: Sequence[int],
                               subgroups: Sequence[Tuple[int, ...]]
                               ) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """H-classes of the subgroups inside H, in the order of `classify_subgroups`.

    `subgroups` lists the element tuples of all subgroups of the group,
    sorted by (order, elements).  Each class lists its members, sorted;
    every orbit is formed by conjugating with all of H.
    """
    inside = set(elements)
    remaining = [s for s in subgroups if inside.issuperset(s)]
    classes = []
    while remaining:
        s = remaining[0]
        orbit = {tuple(sorted(group.conj(g, x) for x in s)) for g in elements}
        classes.append(tuple(sorted(orbit)))
        remaining = [t for t in remaining if t not in orbit]
    return tuple(sorted(classes, key=lambda cls: (len(cls[0]), cls[0])))


def element_classes_by_all_conjugates(group: FiniteGroup) -> Tuple[Tuple[int, ...], ...]:
    """Conjugacy classes of elements, each formed by conjugating with all of G."""
    seen: set = set()
    classes = []
    for x in range(group.order):
        if x not in seen:
            orbit = sorted({group.conj(g, x) for g in range(group.order)})
            seen.update(orbit)
            classes.append(tuple(orbit))
    return tuple(classes)


# --- unpruned module enumeration ----------------------------------------

def product_order_tables(m: PointedMonoid, s: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Every action table on a carrier of size s, testing each full candidate."""
    mul = m.mul
    free_cols = list(range(2, m.size))
    nfree = (s - 1) * len(free_cols)
    for combo in iter_product(range(s), repeat=nfree):
        action = [[0] * m.size for _ in range(s)]
        for x in range(1, s):
            action[x][1] = x
        for pos, v in enumerate(combo):
            action[pos // len(free_cols) + 1][free_cols[pos % len(free_cols)]] = v
        if all(action[action[x][a]][b] == action[x][mul[a][b]]
               for x in range(1, s) for a in range(m.size) for b in range(m.size)):
            yield tuple(tuple(r) for r in action)


def enumerate_modules_pairwise(m: PointedMonoid, size_bound: int) -> List[FiniteModule]:
    """One module per isomorphism class, in order of first appearance."""
    found: List[FiniteModule] = []
    for s in range(1, size_bound + 1):
        for table in product_order_tables(m, s):
            module = FiniteModule(m, s, table)
            if not any(are_isomorphic(module, seen)[0] for seen in found
                       if seen.size == s):
                found.append(module)
    return found


def pairwise_class(reps: Sequence[FiniteModule], module: FiniteModule) -> int:
    """The index of the unique representative isomorphic to module."""
    hits = [i for i, rep in enumerate(reps)
            if rep.size == module.size and are_isomorphic(module, rep)[0]]
    if len(hits) != 1:
        raise InternalCheckError(f"{len(hits)} representatives match one module")
    return hits[0]


# --- re-indexed subgroups, quotients and Weyl groups ---------------------

def subgroup_as_group(group: FiniteGroup, elements: Sequence[int]) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """Reindex a subgroup as a standalone group: returns (group, embedding).

    embedding[i] is the parent element of index i, in ascending parent
    order, so the identity stays at index 0.  Raises ValueError unless the
    elements are one of `all_subgroups(group)`.
    """
    elems = _subgroup_elements(group, elements)
    pos = {x: i for i, x in enumerate(elems)}
    table = tuple(tuple([pos[group.cayley[a][b]] for b in elems]) for a in elems)
    sub_group = _derived(FiniteGroup, len(elems), table, None)
    return sub_group, elems


def quotient_group(group: FiniteGroup, normal_elements: Sequence[int]) -> FiniteGroup:
    """Quotient by a normal subgroup; cosets are labeled by their least element."""
    n_set = tuple(sorted(normal_elements))
    sub = Subgroup(group, n_set)
    for g in range(group.order):
        if tuple(sorted(group.conj(g, x) for x in n_set)) != n_set:
            raise ValueError("subgroup is not normal")
    reps, coset_of = _right_cosets(group, sub.elements)
    table = tuple(
        tuple(coset_of[group.mul(reps[i], reps[j])] for j in range(len(reps)))
        for i in range(len(reps))
    )
    return _derived(FiniteGroup, len(reps), table, None)


def weyl_group(group: FiniteGroup, sub: Subgroup) -> FiniteGroup:
    """N_G(H)/H for a subgroup H, as a standalone group."""
    norm = normalizer(group, sub)
    n_group, embedding = subgroup_as_group(group, norm.elements)
    pos = {x: i for i, x in enumerate(embedding)}
    inner = tuple(sorted(pos[x] for x in sub.elements))
    return quotient_group(n_group, inner)


def commutator_subgroup(group: FiniteGroup) -> Tuple[int, ...]:
    t, inv = group.cayley, group.inverse
    gens = {t[t[inv[a]][inv[b]]][t[a][b]]
            for a in range(group.order) for b in range(group.order)}
    # conjugation permutes the commutators, so they generate a normal subgroup
    return closure_of(group, gens)


def abelianization_by_relations(group: FiniteGroup) -> List[int]:
    """Invariant factors of G made abelian, smallest first; [] for perfect or trivial.

    The cokernel of the relations [a] + [b] - [ab] over every pair of
    elements of G/[G, G], one column per coset.
    """
    q = quotient_group(group, commutator_subgroup(group))
    rows = []
    for a in range(q.order):
        for b in range(q.order):
            row = [0] * q.order
            row[a] += 1
            row[b] += 1
            row[q.mul(a, b)] -= 1
            rows.append(row)
    free, torsion = cokernel_invariants(rows, q.order)
    if free:
        raise RuntimeError("finite group produced a free abelian quotient")
    return torsion


# --- re-indexed subgroup contexts ----------------------------------------

@dataclass(frozen=True)
class ReindexedContext:
    """A subgroup re-indexed as a standalone group, with the embedding kept.

    `ring` is the Burnside ring of the re-indexed group, built from its own
    subgroup lattice, and `class_map` sends its classes into the classes of
    `outer_ring` through the embedding.
    """

    group: FiniteGroup
    embedding: Tuple[int, ...]
    ring: BurnsideRing
    outer_ring: BurnsideRing
    class_map: Tuple[int, ...]


def reindexed_context(outer: FiniteGroup,
                      elements: Sequence[int]) -> ReindexedContext:
    """The subgroup of `outer` with these elements, re-indexed; memoized on
    `outer`, so nested contexts reuse one re-indexed group."""
    return _reindexed(outer, tuple(sorted(elements)))


@_memo_on_group
def _reindexed(outer: FiniteGroup, elements: Tuple[int, ...]) -> ReindexedContext:
    group, embedding = subgroup_as_group(outer, elements)
    ring, outer_ring = build_burnside(group), build_burnside(outer)
    class_map = class_correspondence(ring, embedding, outer_ring)
    return ReindexedContext(group, embedding, ring, outer_ring, class_map)


def class_correspondence(ring: BurnsideRing,
                         embedding: Dict[int, int] | Sequence[int],
                         target: BurnsideRing) -> Tuple[int, ...]:
    """Entry i: the class of `target` holding class i of `ring` mapped
    through `embedding`, found by the sorted element tuple."""
    class_of = {sub.elements: j for j, cls in enumerate(target.classification.classes)
                for sub in cls}
    return tuple(class_of[tuple(sorted(embedding[e] for e in rep.elements))]
                 for rep in ring.classification.representatives)


def carry(y: BurnsideElement, classes: Sequence[int],
          target: BurnsideRing) -> BurnsideElement:
    """Add each coefficient of y into its class of `target`."""
    out = [0] * target.rank
    for c, j in zip(y.coeffs, classes):
        out[j] += c
    return target.element(out)


def reindexed_restrict(ctx: ReindexedContext, x: BurnsideElement) -> BurnsideElement:
    ghost = x.marks()
    return ctx.ring.from_marks([ghost[j] for j in ctx.class_map])


def reindexed_induce(ctx: ReindexedContext, y: BurnsideElement) -> BurnsideElement:
    return carry(y, ctx.class_map, ctx.outer_ring)


# --- double coset formula, one element at a time ------------------------

def double_coset_sum_per_y(group: FiniteGroup, h_elements: Sequence[int],
                           k_elements: Sequence[int],
                           y: BurnsideElement) -> Tuple[int, ...]:
    """Sum over KgH of Ind Transport Res y, in the coefficients of A(K).

    y lives in the library's A(H), in ambient ids; the sum is formed over
    re-indexed copies of H, K and their intersections and read back into
    the library's A(K).
    """
    h = reindexed_context(group, h_elements)
    k = reindexed_context(group, k_elements)
    position = {e: i for i, e in enumerate(h.embedding)}
    y = carry(y, class_correspondence(y.ring, position, h.ring), h.ring)
    total = k.ring.zero()
    k_set = set(k.embedding)
    for g in double_coset_reps(group, k.embedding, h.embedding):
        lower_h = [e for e in h.embedding if group.conj(g, e) in k_set]
        # restrict y to H cap g^-1 K g, re-indexed inside the re-indexed H
        inner_h = reindexed_context(h.group, [h.embedding.index(e) for e in lower_h])
        part = reindexed_restrict(inner_h, y)
        # conjugate over to K cap g H g^-1, re-indexed inside the re-indexed K
        inner_k = reindexed_context(k.group, sorted(
            k.embedding.index(group.conj(g, e)) for e in lower_h))
        elem_map = []
        for i in range(inner_h.group.order):
            conj_e = group.conj(g, h.embedding[inner_h.embedding[i]])
            elem_map.append(inner_k.embedding.index(k.embedding.index(conj_e)))
        part = transport(inner_h.ring, inner_k.ring, elem_map, part)
        total = total + reindexed_induce(inner_k, part)
    k_ring = build_burnside(group, k_elements)
    return carry(total, class_correspondence(k.ring, k.embedding, k_ring),
                 k_ring).coeffs


# --- dense table of marks ----------------------------------------------

def dense_marks(ring: BurnsideRing) -> Tuple[Tuple[int, ...], ...]:
    """m[i][j] = |N(H_i)|/|H_i| * #{members of class i holding rep j}, by
    testing every pair as frozensets."""
    classes = ring.classification.classes
    reps = [frozenset(cls[0].elements) for cls in classes]
    table = [[0] * ring.rank for _ in range(ring.rank)]
    for i, cls in enumerate(classes):
        weight = ring.order // (cls[0].order * len(cls))
        for member in cls:
            h = frozenset(member.elements)
            for j in range(i + 1):
                if reps[j] <= h:
                    table[i][j] += weight
    return tuple(tuple(r) for r in table)


def dense_marks_of(marks: Sequence[Sequence[int]],
                   coeffs: Sequence[int]) -> Tuple[int, ...]:
    """The ghost vector of a coefficient vector, over full rows."""
    ghost = [0] * len(marks)
    for c, row in zip(coeffs, marks):
        for j, m in enumerate(row):
            ghost[j] += c * m
    return tuple(ghost)


def dense_from_marks(marks: Sequence[Sequence[int]],
                     ghost: Sequence[int]) -> Tuple[int, ...]:
    """Back-substitution over the full lower triangle; InternalCheckError
    for a vector outside the image."""
    rank = len(marks)
    coeffs = [0] * rank
    for i in range(rank - 1, -1, -1):
        residue = ghost[i] - sum(coeffs[k] * marks[k][i] for k in range(i + 1, rank))
        if residue % marks[i][i] != 0:
            raise InternalCheckError("ghost vector is not in the image of marks")
        coeffs[i] = residue // marks[i][i]
    return tuple(coeffs)


def orbit_lengths_by_cosets(ring: BurnsideRing) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Entry [i][j]: the K_j-orbit lengths on the nonzero points of G/H_i,
    sorted ascending, walked on the coset module of each class."""
    reps = ring.classification.representatives
    table = []
    for coset in map(ring._coset, range(ring.rank)):
        row = []
        for k_rep in reps:
            seen: set = set()
            lengths = []
            for x in range(1, coset.size):
                if x not in seen:
                    orbit = {coset.action[x][g + 1] for g in k_rep.elements}
                    seen |= orbit
                    lengths.append(len(orbit))
            row.append(tuple(sorted(lengths)))
        table.append(tuple(row))
    return tuple(table)


def normalizer_by_all_conjugates(group: FiniteGroup, sub: Subgroup) -> Tuple[int, ...]:
    """The elements g with gHg^-1 = H, each found by conjugating all of H."""
    target = set(sub.elements)
    return tuple(g for g in range(group.order)
                 if {group.conj(g, x) for x in sub.elements} == target)


# --- double coset plans through contexts of K cap gHg^-1 -------------------

def double_coset_reps_by_products(group: FiniteGroup, k_elements: Sequence[int],
                                  h_elements: Sequence[int]) -> List[int]:
    """Least-element representatives of the double cosets KgH, ascending."""
    covered = [False] * group.order
    reps = []
    for g in range(group.order):
        if not covered[g]:
            reps.append(g)
            for a in k_elements:
                for b in h_elements:
                    covered[group.mul(group.mul(a, g), b)] = True
    return reps


def double_coset_plan_by_contexts(group: FiniteGroup, h_elements: Sequence[int],
                                  k_elements: Sequence[int]):
    """(reps, terms) of the plan for (H, K): per double coset KgH, the context
    of H cap g^-1 K g inside H, and its classes carried by conjugation with
    g into the context of K cap gHg^-1 inside K and on into K."""
    h_ctx = subgroup_context(group, h_elements)
    k_ctx = subgroup_context(group, k_elements)
    h_elements, k_elements = h_ctx.ring.elements, k_ctx.ring.elements
    reps = tuple(double_coset_reps_by_products(group, k_elements, h_elements))
    terms = []
    for g in reps:
        conj = {e: group.conj(g, e) for e in h_elements}
        lower_h = tuple(e for e in h_elements if conj[e] in k_elements)
        inner_h = subgroup_context(group, lower_h, h_elements)
        inner_k = subgroup_context(group, [conj[e] for e in lower_h], k_elements)
        to_inner_k = class_correspondence(inner_h.ring, conj, inner_k.ring)
        assert sorted(to_inner_k) == list(range(inner_k.ring.rank))
        terms.append((inner_h, tuple(inner_k.class_map[t] for t in to_inner_k)))
    return reps, tuple(terms)


# --- module maps only the tests use --------------------------------------

def identity_hom(s: FiniteModule) -> ModuleHom:
    return _derived(ModuleHom, s, s, tuple(range(s.size)))


def permute_module(s: FiniteModule, perm: Sequence[int]) -> Tuple[FiniteModule, ModuleHom]:
    """Relabel the carrier along a permutation with perm[0] == 0."""
    if sorted(perm) != list(range(s.size)) or perm[0] != 0:
        raise ValueError("perm must be a basepoint-fixing permutation of the carrier")
    action = [[0] * s.monoid.size for _ in range(s.size)]
    for x in range(s.size):
        for m in range(s.monoid.size):
            action[perm[x]][m] = perm[s.action[x][m]]
    out = _derived(FiniteModule, s.monoid, s.size, tuple(tuple(r) for r in action))
    return out, _derived(ModuleHom, s, out, tuple(perm))


def induced_quotient_map(f1: ModuleHom, f2: ModuleHom, i: ModuleHom) -> ModuleHom:
    """The map of cofiber quotients induced by a commuting middle map."""
    q1, proj1 = quotient_with_projection(f1)
    q2, proj2 = quotient_with_projection(f2)
    qmap: List[Optional[int]] = [None] * q1.size
    for x in range(f1.target.size):
        src = proj1.map[x]
        dst = proj2.map[i.map[x]]
        if qmap[src] is None:
            qmap[src] = dst
        elif qmap[src] != dst:
            raise ValueError("middle map does not descend to the quotients")
    return ModuleHom(q1, q2, tuple(v if v is not None else 0 for v in qmap))


def extension_property_check(f1: ModuleHom, f2: ModuleHom, p: ModuleHom,
                             i: ModuleHom, q: ModuleHom) -> bool:
    """Middle maps of cofibration-sequence morphisms are cofibrations.

    Inputs: cofibrations f1: A -> B and f2: A2 -> B2, verticals p: A -> A2,
    i: B -> B2, and q between the canonical quotients, all commuting, with p
    and q cofibrations.  Only group monoids are supported; a false outcome on
    a valid diagram would be an internal error, not a result.
    """
    monoid = f1.source.monoid
    if not monoid.is_group_monoid:
        raise ValueError("the extension property check supports group monoids only")
    for name, hom in (("f1", f1), ("f2", f2), ("p", p), ("q", q)):
        ok, _ = is_cofibration(hom)
        if not ok:
            raise ValueError(f"{name} must be a cofibration")
    if p.source != f1.source or p.target != f2.source:
        raise ValueError("p must run between the sequence sources")
    if i.source != f1.target or i.target != f2.target:
        raise ValueError("i must run between the sequence middles")
    left1 = tuple(i.map[f1.map[x]] for x in range(f1.source.size))
    left2 = tuple(f2.map[p.map[x]] for x in range(f1.source.size))
    if left1 != left2:
        raise ValueError("the left square does not commute")
    q1, proj1 = quotient_with_projection(f1)
    q2, proj2 = quotient_with_projection(f2)
    if q.source != q1 or q.target != q2:
        raise ValueError("q must run between the canonical quotients")
    right1 = tuple(q.map[proj1.map[x]] for x in range(f1.target.size))
    right2 = tuple(proj2.map[i.map[x]] for x in range(f1.target.size))
    if right1 != right2:
        raise ValueError("the right square does not commute")
    ok, _ = is_cofibration(i)
    if not ok:
        raise InternalCheckError("valid cofibration-sequence morphism with a non-cofibration middle")
    return True


# --- explicit subset and filtered diamond modules ------------------------

def diamond_filtered(chain: Sequence[ModuleHom]) -> FiniteModule:
    """The submodule of diamond(S_k, k) of tuples compatible with a chain.

    `chain` holds the k-1 cofibrations of a string of k modules; the i-th
    tuple coordinate is constrained to the composite image of the i-th
    module in the last one.
    """
    if not chain:
        raise ValueError("diamond_filtered needs at least one chain map")
    k = len(chain) + 1
    for i, f in enumerate(chain):
        ok, _ = is_cofibration(f)
        if not ok:
            raise ValueError(f"chain step {i} is not a cofibration")
        if i + 1 < len(chain) and f.target != chain[i + 1].source:
            raise ValueError(f"chain steps {i} and {i + 1} do not compose")
    top = chain[-1].target
    images: List[set] = []
    for i in range(k - 1):
        img = set(range(chain[i].source.size))
        for f in chain[i:]:
            img = {f.map[x] for x in img}
        images.append(img - {0})
    images.append(set(range(1, top.size)))
    full = diamond(top, k)
    if full.size == 1:
        return full
    members = [
        1 + i for i, t in enumerate(permutations(range(1, top.size), k))
        if all(x in images[j] for j, x in enumerate(t))
    ]
    if not members:
        return zero_module(top.monoid)
    incl = submodule_inclusion(full, members)
    return incl.source


def subset_module(s: FiniteModule, k: int) -> FiniteModule:
    """Unordered k-subsets of nonzero elements; subsets that collapse die."""
    if k <= 0:
        raise ValueError("subset module needs k >= 1")
    subsets = [tuple(c) for c in combinations(range(1, s.size), k)]
    index = {c: 1 + i for i, c in enumerate(subsets)}
    action = [[0] * s.monoid.size]
    for c in subsets:
        row = [0]
        for m in range(1, s.monoid.size):
            image = {s.action[x][m] for x in c}
            if 0 in image or len(image) < k:
                row.append(0)
            else:
                row.append(index[tuple(sorted(image))])
        action.append(row)
    return _derived(FiniteModule, s.monoid, 1 + len(subsets), tuple(tuple(r) for r in action))


# --- the table laws at every pair and triple -----------------------------

def action_law_everywhere(monoid: PointedMonoid, action: Sequence[Sequence[int]]) -> bool:
    """(x·m)·n = x·mn for every point x and monoid elements m, n."""
    mul, elems = monoid.mul, range(monoid.size)
    return all(action[action[x][m]][n] == action[x][mul[m][n]]
               for x in range(len(action)) for m in elems for n in elems)


def equivariant_everywhere(source: FiniteModule, target: FiniteModule,
                           f: Sequence[int]) -> bool:
    """f(x·m) = f(x)·m for every point x and monoid element m."""
    return all(f[source.action[x][m]] == target.action[f[x]][m]
               for x in range(source.size) for m in range(source.monoid.size))


def multiplicative_everywhere(source: PointedMonoid, target: PointedMonoid,
                              f: Sequence[int]) -> bool:
    """f(ab) = f(a)f(b) for every a, b."""
    elems = range(source.size)
    return all(f[source.mul[a][b]] == target.mul[f[a]][f[b]] for a in elems for b in elems)


def bimodule_laws_everywhere(lm: PointedMonoid, rm: PointedMonoid,
                             left: Sequence[Sequence[int]],
                             right: Sequence[Sequence[int]]) -> bool:
    """Both action laws and their commutation at every triple; left[s][m] is m·s."""
    points, ls, rs = range(len(left)), range(lm.size), range(rm.size)
    return (all(left[s][lm.mul[a][m]] == left[left[s][m]][a]
                for s in points for m in ls for a in ls)
            and all(right[s][rm.mul[n][b]] == right[right[s][n]][b]
                    for s in points for n in rs for b in rs)
            and all(right[left[s][m]][n] == left[right[s][n]][m]
                    for s in points for m in ls for n in rs))


# --- seeded random builders ----------------------------------------------

def _monoid_from_rows(rows: List[List[int]]) -> PointedMonoid:
    return PointedMonoid(len(rows), tuple(tuple(r) for r in rows))


@lru_cache(maxsize=None)
def monoid_pool(max_size: int = 6) -> Tuple[PointedMonoid, ...]:
    """Deterministic pool: group monoids and a few genuinely non-group ones."""
    pool: List[PointedMonoid] = []
    for name in ("C1", "C2", "C3", "C4", "V4", "C5"):
        m = group_monoid(build_group(name=name))
        if m.size <= max_size:
            pool.append(m)
    # one nilpotent and one idempotent generator
    pool.append(_monoid_from_rows([[0, 0, 0], [0, 1, 2], [0, 2, 0]]))
    pool.append(_monoid_from_rows([[0, 0, 0], [0, 1, 2], [0, 2, 2]]))
    # truncated power monoid {0, 1, x, x^2} with x^3 = 0
    pool.append(_monoid_from_rows(
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 0], [0, 3, 0, 0]]))
    return tuple(m for m in pool if m.size <= max_size)


@lru_cache(maxsize=None)
def monoid_homs(src: PointedMonoid, dst: PointedMonoid) -> Tuple[MonoidHom, ...]:
    """Every pointed monoid homomorphism src -> dst, by exhaustive search."""
    free = src.size - 2
    homs: List[MonoidHom] = []
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        partial = stack.pop()
        if len(partial) == free:
            full = (0, 1) + partial
            ok = True
            for a in range(src.size):
                for b in range(src.size):
                    if full[src.mul[a][b]] != dst.mul[full[a]][full[b]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                homs.append(MonoidHom(src, dst, full))
            continue
        for v in range(dst.size - 1, -1, -1):
            stack.append(partial + (v,))
    homs.sort(key=lambda h: h.map)
    return tuple(homs)


@lru_cache(maxsize=None)
def _small_modules(m: PointedMonoid, max_size: int) -> Tuple[FiniteModule, ...]:
    return tuple(_enumerate_modules(m, max_size).reps)


def random_module(m: PointedMonoid, rng: random.Random,
                  max_size: int = 4) -> FiniteModule:
    """A random module with carrier size <= max_size over any pool monoid."""
    if m.is_group_monoid:
        ring = build_burnside(m.group)
        return ring.realize(random_effective(ring, rng, max_size=max_size - 1))
    choices = _small_modules(m, max_size)
    return choices[rng.randrange(len(choices))]


def random_hom(s: FiniteModule, t: FiniteModule,
               rng: random.Random, attempts: int = 30) -> Optional[ModuleHom]:
    """A random equivariant map, by propagating random generator images."""
    gens = generating_set(s)
    msize = s.monoid.size
    for _ in range(attempts):
        phi: List[Optional[int]] = [None] * s.size
        phi[0] = 0
        queue: List[int] = [0]
        ok = True
        for g in gens:
            if phi[g] is None:
                phi[g] = rng.randrange(t.size)
                queue.append(g)
        while queue and ok:
            x = queue.pop()
            for mm in range(msize):
                y = s.action[x][mm]
                v = t.action[phi[x]][mm]
                if phi[y] is None:
                    phi[y] = v
                    queue.append(y)
                elif phi[y] != v:
                    ok = False
                    break
        if ok and all(v is not None for v in phi):
            return ModuleHom(s, t, tuple(phi))
    return None


def random_permutation(size: int, rng: random.Random) -> Tuple[int, ...]:
    """A basepoint-fixing permutation of a carrier."""
    rest = list(range(1, size))
    rng.shuffle(rest)
    return (0,) + tuple(rest)


def random_wedge_cofibration(m: PointedMonoid, rng: random.Random,
                             max_part: int = 4) -> Tuple[ModuleHom, FiniteModule]:
    """A disguised wedge inclusion A -> B plus the complementary part.

    The inclusion is a cofibration by construction; the target is relabeled
    by a random permutation so the complement is not an index range.
    """
    a = random_module(m, rng, max_part)
    d = random_module(m, rng, max_part)
    b, incls = wedge_with_inclusions([a, d])
    perm = random_permutation(b.size, rng)
    b_disguised, relabel = permute_module(b, perm)
    return relabel.compose(incls[0]), d


class SplitInstance:
    """One random split-lemma scenario over a group monoid."""

    def __init__(self, inclusion: ModuleHom, complement: FiniteModule) -> None:
        self.inclusion = inclusion
        self.complement = complement


def random_split_instance(m: PointedMonoid, rng: random.Random) -> SplitInstance:
    incl, complement = random_wedge_cofibration(m, rng)
    return SplitInstance(incl, complement)


class ExtensionInstance:
    """A commuting morphism of split cofibration sequences, disguised."""

    def __init__(self, f1: ModuleHom, f2: ModuleHom, p: ModuleHom,
                 i: ModuleHom) -> None:
        self.f1 = f1
        self.f2 = f2
        self.p = p
        self.i = i


def random_extension_instance(m: PointedMonoid,
                              rng: random.Random) -> ExtensionInstance:
    """Build A -> B -> B/A mapping into an enlarged sequence, then relabel."""
    a = random_module(m, rng, 4)
    tail = random_module(m, rng, 4)
    extra_a = random_module(m, rng, 3)
    extra_tail = random_module(m, rng, 3)

    b, b_incls = wedge_with_inclusions([a, tail])
    a2, a2_incls = wedge_with_inclusions([a, extra_a])
    tail2, tail2_incls = wedge_with_inclusions([tail, extra_tail])
    b2, b2_incls = wedge_with_inclusions([a2, tail2])

    f1 = b_incls[0]                      # A -> B
    f2 = b2_incls[0]                     # A2 -> B2
    p = a2_incls[0]                      # A -> A2
    # B = A v tail -> B2 = A2 v tail2, matching blocks
    tail_in_b2 = b2_incls[1].compose(tail2_incls[0])
    i_map: List[int] = [0] * b.size
    for x in range(a.size):
        i_map[b_incls[0].map[x]] = f2.map[p.map[x]]
    for x in range(tail.size):
        i_map[b_incls[1].map[x]] = tail_in_b2.map[x]
    i = ModuleHom(b, b2, tuple(i_map))

    perm_b = random_permutation(b.size, rng)
    b_d, relabel_b = permute_module(b, perm_b)
    perm_b2 = random_permutation(b2.size, rng)
    b2_d, relabel_b2 = permute_module(b2, perm_b2)

    f1_d = relabel_b.compose(f1)
    f2_d = relabel_b2.compose(f2)
    inv_b = [0] * b.size
    for x in range(b.size):
        inv_b[relabel_b.map[x]] = x
    i_d = relabel_b2.compose(i.compose(ModuleHom(b_d, b, tuple(inv_b))))
    return ExtensionInstance(f1_d, f2_d, p, i_d)
