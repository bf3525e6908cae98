"""Lambda and diamond operations on Burnside rings, read off the marks.

The k-th lambda operation sends an effective class to the decomposition of
the module of k-element subsets of any realization; the k-th diamond
operation sends it to the module of ordered k-tuples of distinct points.
Both are evaluated in the ghost ring, one column per subgroup class, with
no G-set built: lambda from the orbit counts that the subgroup lattice
gives (`BurnsideRing.orbit_counts`), for effective and virtual classes
alike, and diamond as a falling factorial of the marks.  Every column
builder is charged against `GHOST_WORK_CAP` before it starts, and
`lambda_k` and `diamond_class` refuse an answer too long for Python to
print.  The checkers read the same ghost values: the pre-lambda axioms
the series `lambda` prints, the ring axioms Newton's identities at each
ghost coordinate.  The explicit tuple module is `constructions.diamond`;
explicit subset modules and their orbit walk are test oracles
(`tests/oracles.py`).
"""

from __future__ import annotations

import math
import operator
import random
from itertools import accumulate
from typing import Dict, List, Tuple

from . import _layer
from .burnside import BurnsideElement, BurnsideRing, linear_dimension
from .errors import charge, charge_printable

__all__ = [
    "GHOST_WORK_CAP", "diamond_class", "lambda_k", "lambda_series",
    "verify_pre_lambda", "verify_lambda_ring",
]

# Most ghost work one column build may take, counted as rank x k^2: the
# binomial series products of lambda to degree k take about k^2
# big-integer steps a column, 11-50 ns a unit on 2 vCPUs, so about 1 s at
# the cap.  Diamond's falling factorials are charged by the same rule,
# though `math.perm` takes under 1 ns a unit.
GHOST_WORK_CAP = 20000000

# Only the checkers draw samples, evaluate the universal polynomials and
# report.
polynomials = _layer("polynomials")
reports = _layer("reports")
sampling = _layer("sampling")


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
    charge("lambda_ops.GHOST_WORK_CAP", ring.rank * cap * cap, GHOST_WORK_CAP,
           f"ghost work rank x k^2 at k = {cap}")
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
    return min(cap, linear_dimension(x)) if x.is_effective else cap


def lambda_k(ring: BurnsideRing, x: BurnsideElement, k: int) -> BurnsideElement:
    """The k-th subset operation, evaluated in the ghost ring."""
    if k < 0:
        raise ValueError("lambda needs k >= 0")
    if k > _carrier_cap(x, k):
        return ring.zero()
    if x.is_effective:
        # the answer's c_i satisfy sum c_i |G:H_i| = C(n, k), and C(n, j)
        # grows with j <= n / 2
        n = linear_dimension(x)
        charge_printable("digit count of the largest coefficient",
                         accumulate(range(1, min(k, n - k) + 1),
                                    lambda c, j: c * (n - j + 1) // j, initial=1),
                         sum(ring.coset_sizes))
    else:
        # a mark of the answer is [t^k] of a product of (1 + t^L)^e_L with
        # sum |e_L| <= n, so at most [t^k] (1 - t)^-n = C(n + k - 1, k)
        n = linear_dimension(ring.element([abs(c) for c in x.coeffs]))
        charge_printable("digit count of the mark bound C(n + k - 1, k)", accumulate(
            range(1, k + 1), lambda c, j: c * (n + j - 1) // j, initial=1))
    value = ring.from_marks([col[k] for col in _ghost_series(ring, x, k)])
    # back-substitution may still grow a coefficient past its marks
    charge_printable("digit count of the largest coefficient", [max(map(abs, value.coeffs))])
    return value


def lambda_series(ring: BurnsideRing, x: BurnsideElement,
                  cap: int) -> Tuple[BurnsideElement, ...]:
    """The operations 0..cap applied to x, evaluated in the ghost ring."""
    if cap < 0:
        raise ValueError("series cap must be >= 0")
    top = _carrier_cap(x, cap)
    columns = _ghost_series(ring, x, top)
    values = [ring.from_marks([col[n] for col in columns]) for n in range(top + 1)]
    return tuple(values) + (ring.zero(),) * (cap - top)


def diamond_class(ring: BurnsideRing, x: BurnsideElement,
                  k: int) -> Tuple[int, BurnsideElement]:
    """Carrier size and class of the ordered k-tuple module of an effective x.

    A K-fixed tuple of distinct points is a tuple of distinct K-fixed
    points, so the mark at K is the falling factorial (m)(m - 1)...(m - k + 1)
    of x's mark m at K; the n points of x give perm(n, k) tuples.
    """
    if not x.is_effective:
        raise ValueError("diamond needs an effective element")
    if k < 1:
        raise ValueError("diamond needs k >= 1")
    n = linear_dimension(x)
    if k > n:
        return 1, ring.zero()
    charge("lambda_ops.GHOST_WORK_CAP", ring.rank * k * k, GHOST_WORK_CAP,
           f"ghost work rank x k^2 at k = {k}")
    charge_printable("digit count of the carrier size", (
        1 + p for p in accumulate(range(n, n - k, -1), operator.mul, initial=1)))
    return 1 + math.perm(n, k), ring.from_marks([math.perm(m, k) for m in x.marks()])


def verify_pre_lambda(ring: BurnsideRing, cap: int, trials: int,
                      rng: random.Random) -> reports.CheckReport:
    """Check the unit, identity, and addition axioms on random effective pairs.

    The values come from `lambda_series`, the engine `lambda` prints from:
    lambda^1 x = x compares the fixed-point orbit counts with the marks, and
    the addition axiom exercises the binomial series and back-substitution.
    """
    report = reports.CheckReport("pre-lambda axioms")
    for _ in range(trials):
        x = sampling.random_effective(ring, rng, max_size=8)
        y = sampling.random_effective(ring, rng, max_size=8)
        gx = lambda_series(ring, x, cap)
        gy = lambda_series(ring, y, cap)
        gxy = lambda_series(ring, x + y, cap)
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
                       rng: random.Random) -> List[reports.CheckReport]:
    """Evaluate the three ring-axiom families; failures are reported, not raised.

    Families: vanishing on the unit, the product rule against P_k, and the
    composition rule against P_{k,l}.  The marks map is an injective ring
    homomorphism, so both sides of each identity are compared at every
    ghost coordinate as integers: the right sides come from Newton's
    identities on the ghost columns of x and y (`polynomials`), every degree
    of one rule in one call per column.  Only a failure is written in the
    basis.
    """
    unit_report = reports.CheckReport("lambda of the unit vanishes")
    product_report = reports.CheckReport("product rule")
    composition_report = reports.CheckReport("composition rule")

    for k in range(2, k_cap + 1):
        value = lambda_k(ring, ring.one(), k)
        unit_report.record(value.is_zero,
                           lambda: {"k": k, "value": list(value.coeffs)})

    def in_basis(ghost: List[int]) -> List[int]:
        return list(ring.from_marks(ghost).coeffs)

    for _ in range(trials):
        x = sampling.random_element(ring, rng)
        y = sampling.random_element(ring, rng)
        cols_x = _ghost_series(ring, x, k_cap)
        cols_y = _ghost_series(ring, y, k_cap)
        cols_xy = _ghost_series(ring, x * y, k_cap)
        rules = [polynomials.product_rule(cx, cy, k_cap) for cx, cy in zip(cols_x, cols_y)]
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
            rules = [polynomials.composition_rule(col, k_cap, l) for col in cols_deep]
            for k in range(2, k_cap + 1):
                lhs = [col[k] for col in cols_inner]
                rhs = [rule[k] for rule in rules]
                composition_report.record(lhs == rhs, lambda: {
                    "k": k, "l": l, "x": list(x.coeffs),
                    "lhs": in_basis(lhs), "rhs": in_basis(rhs),
                })
    return [unit_report, product_report, composition_report]
