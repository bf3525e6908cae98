"""Lambda operations on Burnside rings via unordered subset modules.

The k-th operation sends an effective class to the decomposition of the
module of k-element subsets of any realization.  The operations are
evaluated in the ghost ring from the orbit counts that the subgroup lattice
gives (`BurnsideRing.orbit_counts`), for effective and virtual classes
alike, and the ring axioms are checked against Newton's identities at each
ghost coordinate.  The diamond module of ordered distinct tuples is built
explicitly; explicit subset modules are test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .burnside import BurnsideElement, BurnsideRing, linear_dimension
from .errors import ResourceLimitError
from .groups import _derived
from .modules import FiniteModule, zero_module
from .polynomials import composition_rule, product_rule
from .reports import CheckReport
from .sampling import random_effective, random_element

__all__ = [
    "DIAMOND_TUPLE_CAP", "check_diamond_size", "diamond", "lambda_k",
    "lambda_series", "verify_pre_lambda", "verify_lambda_ring",
]

# Most ordered tuples a diamond of an element may have; 91,080 (46 points
# at k = 3) over an order-64 group take about 8 s and 140 MB on 2 vCPUs.
DIAMOND_TUPLE_CAP = 100000


def _distinct_tuples(size: int, k: int) -> List[Tuple[int, ...]]:
    """Ordered k-tuples of distinct indices from 1..size-1, lexicographic."""
    tuples: List[Tuple[int, ...]] = []

    def grow(prefix: Tuple[int, ...]) -> None:
        if len(prefix) == k:
            tuples.append(prefix)
            return
        for x in range(1, size):
            if x not in prefix:
                grow(prefix + (x,))

    grow(())
    return tuples


def diamond(s: FiniteModule, k: int) -> FiniteModule:
    """Ordered k-tuples of distinct nonzero elements with the diagonal action."""
    if not s.monoid.is_group_monoid:
        raise ValueError("the diamond construction needs a group monoid")
    if k <= 0:
        raise ValueError("diamond needs k >= 1")
    n = s.size - 1
    if k > n:
        return zero_module(s.monoid)
    tuples = _distinct_tuples(s.size, k)
    index = {t: 1 + i for i, t in enumerate(tuples)}
    action = [[0] * s.monoid.size]
    for t in tuples:
        row = [0]
        for m in range(1, s.monoid.size):
            image = tuple(s.action[x][m] for x in t)
            if 0 in image or len(set(image)) < k:
                row.append(0)
            else:
                row.append(index[image])
        action.append(row)
    return _derived(FiniteModule, s.monoid, 1 + len(tuples), tuple(tuple(r) for r in action))


def check_diamond_size(x: BurnsideElement, k: int) -> None:
    """Refuse a diamond of the effective x past DIAMOND_TUPLE_CAP, before
    realizing x: its n points are read off the coefficients, and the count
    is perm(n, k) >= n, or n when k > n, so the cap bounds the realization.
    """
    n = linear_dimension(x)
    count, i = n, 1
    while count <= DIAMOND_TUPLE_CAP and i < k <= n:
        count *= n - i
        i += 1
    if count > DIAMOND_TUPLE_CAP:
        raise ResourceLimitError(
            f"diamond of {n} points at k = {k} passes the cap "
            f"{DIAMOND_TUPLE_CAP} on points and tuples; lower k or the element")


def _subset_decompose(ring: BurnsideRing, s: FiniteModule, k: int) -> BurnsideElement:
    """Decompose the k-subset module of a module over a group monoid directly.

    Group actions permute nonzero elements, so subsets never collapse and the
    orbit walk can run on the subsets without materializing the module.
    Orbits are walked under a generating set; stabilizers use every element.
    """
    perms = [[row[g + 1] for row in s.action] for g in range(ring.group.order)]
    gens = [perms[g] for g in ring.generators]
    coeffs = [0] * ring.rank
    seen: set = set()
    for c in map(frozenset, combinations(range(1, s.size), k)):
        if c in seen:
            continue
        seen.add(c)
        stack = [c]
        while stack:
            cur = stack.pop()
            for p in gens:
                nxt = frozenset(map(p.__getitem__, cur))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        stab = tuple(g for g, p in enumerate(perms)
                     if c.issuperset(map(p.__getitem__, c)))
        coeffs[ring.classification.class_index(stab)] += 1
    return ring.element(coeffs)


def _ghost_series(ring: BurnsideRing, x: BurnsideElement, cap: int) -> List[List[int]]:
    """Marks of the operations 0..cap applied to x, one column per ghost coordinate.

    Column j holds the marks at the j-th class for degrees 0..cap.  A
    K-fixed subset is a union of K-orbits, so at the ghost coordinate of K
    the series is the product of (1 + t^L)^e over orbit lengths L, where e
    counts the K-orbits of length L with the signs of x's coefficients.
    Negative e gives the exact inverse series; binomial coefficients stay
    integral.  The counts are summed class by class over the nonzero
    coefficients of x.
    """
    exponents: List[Dict[int, int]] = [{} for _ in range(ring.rank)]
    for c, row in zip(x.coeffs, ring.orbit_counts):
        if c:
            for acc, pairs in zip(exponents, row):
                for length, e in pairs:
                    if length <= cap:
                        acc[length] = acc.get(length, 0) + c * e
    columns = []
    for acc in exponents:
        poly = [1] + [0] * cap
        for length, e in sorted(acc.items()):
            # binomial series of (1 + t^length)^e, truncated at the cap
            factor = [1]
            while len(factor) * length <= cap and factor[-1]:
                m = len(factor)
                factor.append(factor[-1] * (e - m + 1) // m)
            product = poly[:]
            for m in range(1, len(factor)):
                b, shift = factor[m], m * length
                product[shift:] = [a + b * c for a, c in zip(product[shift:], poly)]
            poly = product
        columns.append(poly)
    return columns


def _carrier_cap(x: BurnsideElement, cap: int) -> int:
    """Operations above the carrier size of an effective class vanish."""
    if not x.is_effective:
        return cap
    return min(cap, linear_dimension(x))


def lambda_k(ring: BurnsideRing, x: BurnsideElement, k: int) -> BurnsideElement:
    """The k-th subset operation, evaluated in the ghost ring."""
    if k < 0:
        raise ValueError("lambda needs k >= 0")
    if k > _carrier_cap(x, k):
        return ring.zero()
    return ring.from_marks([col[k] for col in _ghost_series(ring, x, k)])


def lambda_series(ring: BurnsideRing, x: BurnsideElement,
                  cap: int) -> Tuple[BurnsideElement, ...]:
    """The operations 0..cap applied to x, evaluated in the ghost ring."""
    if cap < 0:
        raise ValueError("series cap must be >= 0")
    top = _carrier_cap(x, cap)
    columns = _ghost_series(ring, x, top)
    values = [ring.from_marks([col[n] for col in columns]) for n in range(top + 1)]
    return tuple(values) + (ring.zero(),) * (cap - top)


def _geometric_values(ring: BurnsideRing, x: BurnsideElement,
                      cap: int) -> List[BurnsideElement]:
    """Operations 0..cap computed directly on subsets of one realization."""
    realization = ring.realize(x)
    values = [ring.one()]
    for k in range(1, cap + 1):
        if k > realization.size - 1:
            values.append(ring.zero())
        else:
            values.append(_subset_decompose(ring, realization, k))
    return values


def verify_pre_lambda(ring: BurnsideRing, cap: int, trials: int,
                      rng: Optional[random.Random] = None) -> CheckReport:
    """Check the unit, identity, and addition axioms on random effective pairs.

    The left side of the addition axiom is computed on subsets of an actual
    realization of x + y, so the check is independent of the ghost-ring
    engine behind `lambda_k` and `lambda_series`.
    """
    rng = rng or random.Random(0)
    report = CheckReport("pre-lambda axioms")
    for _ in range(trials):
        x = random_effective(ring, rng, max_size=8)
        y = random_effective(ring, rng, max_size=8)
        gx = _geometric_values(ring, x, cap)
        gy = _geometric_values(ring, y, cap)
        gxy = _geometric_values(ring, x + y, cap)
        ok0 = gx[0] == ring.one()
        ok1 = cap < 1 or gx[1] == x
        okadd = all(
            gxy[k] == sum((ring.mul(gx[i], gy[k - i]) for i in range(k + 1)),
                          ring.zero())
            for k in range(cap + 1))
        report.record(ok0 and ok1 and okadd, lambda: {
            "x": list(x.coeffs), "y": list(y.coeffs),
            "unit": ok0, "identity": ok1, "addition": okadd,
        })
    return report


def verify_lambda_ring(ring: BurnsideRing, k_cap: int, l_cap: int, trials: int,
                       rng: Optional[random.Random] = None) -> List[CheckReport]:
    """Evaluate the three ring-axiom families; failures are reported, not raised.

    Families: vanishing on the unit, the product rule against P_k, and the
    composition rule against P_{k,l}.  The marks map is an injective ring
    homomorphism, so both sides of each identity are compared at every
    ghost coordinate as integers: the right sides come from Newton's
    identities on the ghost columns of x and y (`polynomials`), every degree
    of one rule in one call per column.  Only a failure is written in the
    basis.
    """
    rng = rng or random.Random(0)
    unit_report = CheckReport("lambda of the unit vanishes")
    product_report = CheckReport("product rule")
    composition_report = CheckReport("composition rule")

    for k in range(2, k_cap + 1):
        value = lambda_k(ring, ring.one(), k)
        unit_report.record(value.is_zero,
                           lambda: {"k": k, "value": list(value.coeffs)})

    def in_basis(ghost: List[int]) -> List[int]:
        return list(ring.from_marks(ghost).coeffs)

    for _ in range(trials):
        x = random_element(ring, rng)
        y = random_element(ring, rng)
        cols_x = _ghost_series(ring, x, k_cap)
        cols_y = _ghost_series(ring, y, k_cap)
        cols_xy = _ghost_series(ring, x * y, k_cap)
        rules = [product_rule(cx, cy, k_cap) for cx, cy in zip(cols_x, cols_y)]
        for k in range(2, k_cap + 1):
            lhs = [col[k] for col in cols_xy]
            rhs = [rule[k] for rule in rules]
            product_report.record(lhs == rhs, lambda: {
                "k": k, "x": list(x.coeffs), "y": list(y.coeffs),
                "lhs": in_basis(lhs), "rhs": in_basis(rhs),
            })
        if k_cap < 2 or l_cap < 2:
            continue
        # series prefixes do not depend on the cap, so one series serves every l
        cols_deep = _ghost_series(ring, x, k_cap * l_cap)
        for l in range(2, l_cap + 1):
            inner = ring.from_marks([col[l] for col in cols_deep])
            cols_inner = _ghost_series(ring, inner, k_cap)
            rules = [composition_rule(col, k_cap, l) for col in cols_deep]
            for k in range(2, k_cap + 1):
                lhs = [col[k] for col in cols_inner]
                rhs = [rule[k] for rule in rules]
                composition_report.record(lhs == rhs, lambda: {
                    "k": k, "l": l, "x": list(x.coeffs),
                    "lhs": in_basis(lhs), "rhs": in_basis(rhs),
                })
    return [unit_report, product_report, composition_report]
