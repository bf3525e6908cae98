from __future__ import annotations

import random
from math import factorial, perm

import pytest

from f1gtheory.burnside import BurnsideRing, build_burnside
from f1gtheory.constructions import diamond
from f1gtheory.groups import build_group, library_names
from f1gtheory.errors import InternalCheckError
from f1gtheory.lambda_ops import (_ghost_series, diamond_class, lambda_k,
                                  lambda_series, verify_lambda_ring,
                                  verify_pre_lambda)
from f1gtheory.modules import (free_module, group_monoid,
                               wedge_with_inclusions)
from f1gtheory.polynomials import (MAX_COMPOSITION_L, MAX_PRODUCT_K,
                                   composition_rule, product_rule)
from f1gtheory.sampling import random_effective, random_element

from conftest import group_of, ring_of
from oracles import (diamond_filtered, evaluate_in_ring, subset_module,
                     universal_polynomial)


def test_diamond_sizes_are_falling_factorials():
    m = group_monoid(build_group(name="C1"))
    for n in range(1, 7):
        s = free_module(m, n)
        for k in range(1, n + 1):
            assert diamond(s, k).size == perm(n, k) + 1
        assert diamond(s, n + 1).size == 1


def test_diamond_needs_group_monoid():
    from f1gtheory.modules import PointedMonoid
    nil = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
    s = free_module(nil, 1)
    with pytest.raises(ValueError):
        diamond(s, 1)
    with pytest.raises(ValueError):
        diamond(free_module(group_monoid(build_group(name="C2")), 1), 0)


def test_diamond_action_permutes_tuples():
    group = build_group(name="C3")
    s = free_module(group_monoid(group), 2)
    d = diamond(s, 2)
    ring = ring_of("C3")
    decomposed = ring.decompose(d)
    # 6*5 = 30 ordered pairs split into 10 free orbits
    assert d.size == 31
    assert decomposed.coeffs == (10, 0)


@pytest.mark.parametrize("name", [*library_names(), "S4xC2"])
def test_diamond_class_matches_the_tuple_module(name):
    # the falling factorials of the marks against the explicit module of
    # ordered tuples, decomposed by its orbits
    ring = build_burnside(group_of(name))
    rng = random.Random(26)
    for _ in range(4):
        x = random_effective(ring, rng)
        for k in (1, 2, 3):
            d = diamond(ring.realize(x), k)
            assert diamond_class(ring, x, k) == (d.size, ring.decompose(d)), \
                (x.coeffs, k)


def test_diamond_class_of_the_regular_order_64_set():
    # the 64! orderings of the 64 points form 63! free orbits
    ring = build_burnside(group_of("D4xC2^3"))
    size, value = diamond_class(ring, ring.basis_element(0), 64)
    assert size == 1 + factorial(64)
    assert value == factorial(63) * ring.basis_element(0)


def test_diamond_class_refuses_virtual_elements_and_k_below_one():
    ring = ring_of("C2")
    with pytest.raises(ValueError, match="effective"):
        diamond_class(ring, ring.element([1, -1]), 1)
    with pytest.raises(ValueError, match="k >= 1"):
        diamond_class(ring, ring.one(), 0)
    assert diamond_class(ring, ring.one(), 2) == (1, ring.zero())


def test_diamond_filtered_restricts_first_coordinates():
    m = group_monoid(build_group(name="C1"))
    a = free_module(m, 1)
    b, incls = wedge_with_inclusions([a, free_module(m, 1)])
    filtered = diamond_filtered([incls[0]])
    # pairs (x, y): x in the image of a, y any other nonzero element of b
    assert filtered.size == 2


def test_subset_module_matches_fast_decomposition():
    # the oracle (explicit subset modules decomposed by orbits) against the
    # ghost engine
    rng = random.Random(21)
    for name in ("C2", "C4", "S3", "Q8", "D4"):
        ring = ring_of(name)
        for _ in range(6):
            x = random_effective(ring, rng, max_size=7)
            s = ring.realize(x)
            for k in (1, 2, 3, 4):
                value = lambda_k(ring, x, k)
                if k > s.size - 1:
                    assert value.is_zero, (name, x.coeffs, k)
                    continue
                direct = ring.decompose(subset_module(s, k))
                assert direct == value, (name, x.coeffs, k)


def test_orbit_counts_are_lazy_and_count_marks():
    ring = BurnsideRing(build_group(name="D4"))
    assert "orbit_counts" not in vars(ring)
    lambda_k(ring, ring.basis_element(0), 2)
    assert "orbit_counts" in vars(ring)
    for i, row in enumerate(ring.orbit_counts):
        for j, pairs in enumerate(row):
            lengths = [length for length, _ in pairs]
            assert lengths == sorted(set(lengths))
            assert all(e > 0 for _, e in pairs)
            assert sum(length * e for length, e in pairs) == ring.coset_sizes[i]
            assert dict(pairs).get(1, 0) == ring.marks[i][j]


def test_lambda_of_regular_s4_at_degree_six():
    ring = ring_of("S4")
    x = ring.basis_element(0)
    assert list(lambda_k(ring, x, 6).coeffs) == [5523, 106, 55, 12, 0, 0, 0,
                                                 4, 0, 0, 0]


def test_lambda_frozen_values_on_c2():
    ring = ring_of("C2")
    u = ring.basis_element(0)
    assert lambda_k(ring, u, 2).coeffs == (0, 1)
    assert lambda_k(ring, u + u, 2).coeffs == (2, 2)
    assert lambda_k(ring, u, 0) == ring.one()
    assert lambda_k(ring, u, 1) == u
    assert lambda_k(ring, u, 3).is_zero


def test_lambda_vanishes_above_carrier():
    ring = ring_of("C3")
    x = ring.basis_element(1)  # one fixed point
    assert lambda_k(ring, x, 2).is_zero
    y = ring.basis_element(0)  # one free orbit, three elements
    assert not lambda_k(ring, y, 3).is_zero
    assert lambda_k(ring, y, 4).is_zero


def test_top_lambda_of_free_orbit():
    # the three-element free C3-orbit has a single 3-subset, fixed by all
    ring = ring_of("C3")
    y = ring.basis_element(0)
    assert lambda_k(ring, y, 3) == ring.one()


def test_series_constant_and_linear_coefficients():
    ring = ring_of("S3")
    x = ring.element([1, -2, 0, 1])
    series = lambda_series(ring, x, 3)
    assert len(series) == 4
    assert series[0] == ring.one()
    assert series[1] == x


def test_series_inverse_identity():
    # lambda_t(x) * lambda_t(-x) = 1
    ring = ring_of("C4")
    rng = random.Random(4)
    x = random_effective(ring, rng, max_size=8)
    series = lambda_series(ring, x, 4)
    inverse = lambda_series(ring, -x, 4)
    for n in range(1, 5):
        total = ring.zero()
        for i in range(n + 1):
            total = total + ring.mul(series[i], inverse[n - i])
        assert total.is_zero, n


def test_series_of_virtual_matches_negation():
    ring = ring_of("C2")
    u = ring.basis_element(0)
    series = lambda_series(ring, ring.zero() - u, 2)
    # 1/(1 + ut + [C2/C2]t^2) starts 1 - ut + (u^2 - [C2/C2])t^2
    assert series[1] == ring.zero() - u
    assert series[2] == u * u - ring.basis_element(1)


def _subset_values(ring, x, cap):
    """Operations 0..cap of an effective x on subsets of one realization."""
    s = ring.realize(x)
    return [ring.one()] + [ring.decompose(subset_module(s, k)) if k < s.size
                           else ring.zero() for k in range(1, cap + 1)]


def test_multiplicative_series_matches_geometric_values():
    # the ghost-ring series of x, y and x + y, the values the pre-lambda
    # check reads, against subset modules of one realization
    rng = random.Random(17)
    for name in library_names():
        ring = ring_of(name)
        if ring.order > 8:
            continue
        for _ in range(4):
            x = random_effective(ring, rng, max_size=8)
            y = random_effective(ring, rng, max_size=8)
            for z in (x, y, x + y):
                assert list(lambda_series(ring, z, 4)) == _subset_values(ring, z, 4), \
                    (name, z.coeffs)


def test_pre_lambda_report():
    ring = ring_of("C4")
    report = verify_pre_lambda(ring, 4, 25, random.Random(0))
    assert report.passed
    assert report.instances == 25


def test_pre_lambda_check_reads_the_orbit_counts():
    # the runtime check certifies the engine that `lambda` prints from, so
    # one wrong fixed-point count must not pass it
    ring = BurnsideRing(build_group(name="C2"))
    counts = [list(row) for row in ring.orbit_counts]
    (length, e), = counts[-1][-1]  # G/G at K = G: one fixed point
    assert length == 1
    counts[-1][-1] = ((1, e + 1),)
    vars(ring)["orbit_counts"] = tuple(map(tuple, counts))
    try:
        passed = verify_pre_lambda(ring, 3, 10, random.Random(0)).passed
    except InternalCheckError:
        passed = False
    assert not passed


def test_lambda_ring_families_on_odd_cyclic():
    ring = ring_of("C3")
    unit, product, composition = verify_lambda_ring(ring, 3, 3, 10,
                                                    random.Random(0))
    assert unit.passed and product.passed and composition.passed


def test_lambda_ring_product_family_fails_on_c2():
    # u = [C2/e]: lambda^2(u*u) = 2 + 2u but P_2 gives 4u - 2
    ring = ring_of("C2")
    _, product, _ = verify_lambda_ring(ring, 2, 2, 6, random.Random(0))
    assert not product.passed
    u = ring.basis_element(0)
    lhs = lambda_k(ring, u * u, 2)
    assert lhs.coeffs == (2, 2)


def test_composition_rule_takes_one_deep_series_per_trial(monkeypatch):
    caps = []

    def recording(ring, x, cap):
        caps.append(cap)
        return _ghost_series(ring, x, cap)

    monkeypatch.setattr("f1gtheory.lambda_ops._ghost_series", recording)
    ring = ring_of("S3")
    _, _, composition = verify_lambda_ring(ring, 1, 60, 2, random.Random(0))
    assert composition.instances == 0 and max(caps) == 1
    caps.clear()
    verify_lambda_ring(ring, 3, 3, 2, random.Random(0))
    # per trial: x, y and xy to k_cap, x to k_cap * l_cap, one inner per l
    assert caps == [3, 3, 3, 9, 3, 3] * 2


def test_lambda_ring_check_works_on_mark_vectors(monkeypatch):
    calls = {"from_marks": 0, "mul": 0}

    def counting(name):
        real = getattr(BurnsideRing, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(BurnsideRing, name, counting(name))
    reports = verify_lambda_ring(ring_of("C5"), 3, 3, 20, random.Random(1730))
    assert all(rep.passed for rep in reports)
    # per trial: x * y once, and one inner lambda^l(x) for l = 2, 3; the
    # polynomials are evaluated at integers, with no ring product
    assert calls == {"from_marks": 60, "mul": 20}


SMALL_GROUPS = [name for name in library_names() if build_group(name=name).order <= 12]


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_mark_vector_check_matches_basis_arithmetic(name):
    # both sides of every product rule k <= 4 and composition rule k <= 4,
    # l <= 3, as the check compares them, against the basis-arithmetic oracle
    ring = ring_of(name)
    rng = random.Random(1730)
    for _ in range(3):
        x, y = random_element(ring, rng), random_element(ring, rng)
        cols_x, cols_y = _ghost_series(ring, x, 12), _ghost_series(ring, y, 4)
        cols_xy = _ghost_series(ring, x * y, 4)
        lam_x, lam_y = lambda_series(ring, x, 12), lambda_series(ring, y, 4)
        lam_xy = lambda_series(ring, x * y, 4)
        rules = [product_rule(cx, cy, MAX_PRODUCT_K) for cx, cy in zip(cols_x, cols_y)]
        for k in range(1, MAX_PRODUCT_K + 1):
            p = universal_polynomial("product", k)
            assert ring.from_marks([col[k] for col in cols_xy]) == lam_xy[k]
            rhs = [rule[k] for rule in rules]
            assert ring.from_marks(rhs) == evaluate_in_ring(p, ring, lam_x, lam_y)
        for l in range(1, MAX_COMPOSITION_L + 1):
            inner = ring.from_marks([col[l] for col in cols_x])
            assert inner == lam_x[l]
            cols_inner = _ghost_series(ring, inner, 4)
            lam_inner = lambda_series(ring, inner, 4)
            rules = [composition_rule(col, MAX_PRODUCT_K, l) for col in cols_x]
            for k in range(1, MAX_PRODUCT_K + 1):
                p = universal_polynomial("composition", k, l)
                assert ring.from_marks([col[k] for col in cols_inner]) == lam_inner[k]
                rhs = [rule[k] for rule in rules]
                assert ring.from_marks(rhs) == evaluate_in_ring(p, ring, lam_x)


def test_series_shape_validation():
    ring = ring_of("C2")
    with pytest.raises(ValueError):
        lambda_series(ring, ring.one(), -1)
