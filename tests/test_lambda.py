from __future__ import annotations

import random
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1gtheory.burnside import BurnsideRing
from f1gtheory.groups import build_group
from f1gtheory.lambda_ops import (_geometric_values, _subset_decompose,
                                  diamond, diamond_filtered, lambda_k,
                                  lambda_series, subset_module,
                                  verify_lambda_ring, verify_pre_lambda)
from f1gtheory.modules import (free_module, group_monoid,
                               wedge_with_inclusions)
from f1gtheory.sampling import random_effective

from conftest import ring_of


def test_diamond_sizes_are_falling_factorials():
    m = group_monoid(build_group(name="C1"))
    for n in range(1, 7):
        s = free_module(m, n)
        for k in range(1, n + 1):
            assert diamond(s, k).size == perm(n, k) + 1
        assert diamond(s, n + 1).size == 1


def test_diamond_needs_group_monoid():
    from f1gtheory.modules import F1, PointedMonoid
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


def test_diamond_filtered_restricts_first_coordinates():
    m = group_monoid(build_group(name="C1"))
    a = free_module(m, 1)
    b, incls = wedge_with_inclusions([a, free_module(m, 1)])
    filtered = diamond_filtered([incls[0]])
    # pairs (x, y): x in the image of a, y any other nonzero element of b
    assert filtered.size == 2


def test_subset_module_matches_fast_decomposition():
    # the oracle (explicit subset modules decomposed by orbits, and the
    # direct orbit walk) against each other and against the ghost engine
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
                fast = _subset_decompose(ring, s, k)
                assert direct == fast == value, (name, x.coeffs, k)


def test_orbit_lengths_are_lazy_and_count_marks():
    ring = BurnsideRing(build_group(name="D4"))
    assert "orbit_lengths" not in vars(ring)
    lambda_k(ring, ring.basis_element(0), 2)
    assert "orbit_lengths" in vars(ring)
    for i, row in enumerate(ring.orbit_lengths):
        for j, lengths in enumerate(row):
            assert sum(lengths) == ring.cosets[i].size - 1
            assert lengths.count(1) == ring.marks[i][j]


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


def test_multiplicative_series_matches_geometric_values():
    # the ghost-ring series against subset modules of one realization
    rng = random.Random(17)
    for name in ("C2", "S3", "Q8"):
        ring = ring_of(name)
        for _ in range(8):
            x = random_effective(ring, rng, max_size=8)
            series = lambda_series(ring, x, 4)
            geometric = _geometric_values(ring, x, 4)
            assert list(series) == geometric, (name, x.coeffs)


def test_pre_lambda_report():
    ring = ring_of("C4")
    report = verify_pre_lambda(ring, 4, 25, random.Random(0))
    assert report.passed
    assert report.instances == 25


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
        return lambda_series(ring, x, cap)

    monkeypatch.setattr("f1gtheory.lambda_ops.lambda_series", recording)
    ring = ring_of("S3")
    _, _, composition = verify_lambda_ring(ring, 1, 60, 2, random.Random(0))
    assert composition.instances == 0 and max(caps) == 1
    caps.clear()
    verify_lambda_ring(ring, 3, 3, 2, random.Random(0))
    # per trial: x, y and xy to k_cap, x to k_cap * l_cap, one inner per l
    assert caps == [3, 3, 3, 9, 3, 3] * 2


def test_series_shape_validation():
    ring = ring_of("C2")
    with pytest.raises(ValueError):
        lambda_series(ring, ring.one(), -1)
