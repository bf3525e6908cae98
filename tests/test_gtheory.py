from __future__ import annotations

import time

import pytest

from f1gtheory import gtheory
from f1gtheory.errors import InternalCheckError, ResourceLimitError
from f1gtheory.groups import (build_group, conjugacy_classes_of_elements,
                              library_names)
from f1gtheory.gtheory import (AbelianGroupReport, cartan_zero,
                               count_simple_factors, g0_presentation,
                               g1_via_splitting, mult_by_regular)
from f1gtheory.modules import PointedMonoid, group_monoid

from conftest import ring_of
from oracles import cokernel_invariants_sparse


def test_g0_of_f1_is_z():
    m = group_monoid(build_group(name="C1"))
    p = g0_presentation(m, 4)
    assert p.result.free_rank == 1
    assert p.result.torsion == ()
    assert p.stability == "stable at bound"


def test_g0_of_c2_has_rank_two():
    m = group_monoid(build_group(name="C2"))
    p = g0_presentation(m, 5)
    assert p.result.free_rank == 2
    assert p.result.torsion == ()


def test_g0_at_tiny_bound_sees_nothing():
    m = group_monoid(build_group(name="C2"))
    p = g0_presentation(m, 1)
    assert p.result.free_rank == 0
    assert p.stability == "bounded approximation"


def test_g0_rank_monotone_in_bound():
    m = group_monoid(build_group(name="C3"))
    ranks = [g0_presentation(m, b).result.free_rank for b in (1, 3, 4, 7)]
    assert ranks == sorted(ranks)
    assert ranks[-1] == 2


def test_g0_generator_count_matches_multisets():
    # at bound 5 over C2: multisets of {free orbit (2), fixed point (1)}
    # with total size <= 4
    m = group_monoid(build_group(name="C2"))
    p = g0_presentation(m, 5)
    sizes = (2, 1)
    count = sum(1 for a in range(5) for b in range(5)
                if a * sizes[0] + b * sizes[1] <= 4)
    assert len(p.generators) == count


def test_g0_certificate_matches_sparse_snf_oracle():
    for name in library_names():
        group = build_group(name=name)
        if group.order > 8:
            continue
        m = group_monoid(group)
        for bound in range(1, group.order + 4):
            p = g0_presentation(m, bound)
            assert cokernel_invariants_sparse(
                list(p.relations), len(p.generators)) == \
                (p.result.free_rank, list(p.result.torsion)), (name, bound)


def test_g0_relations_view_is_sized_and_reiterable():
    p = g0_presentation(group_monoid(build_group(name="S3")), 9)
    rows = list(p.relations)
    assert len(p.relations) == len(rows) == 78
    assert list(p.relations) == rows
    assert rows[0] == ((0, -1),)
    assert all(list(r) == sorted(r) and all(v for _, v in r) for r in rows)


def test_g0_certificate_rejects_row_outside_kernel(monkeypatch):
    peel_rows = gtheory._peel_rows

    def with_bad_row(gens, gen_index):
        yield from peel_rows(gens, gen_index)
        yield ((gen_index[(1,) + (0,) * (len(gens[0]) - 1)], 1),)

    monkeypatch.setattr(gtheory, "_peel_rows", with_bad_row)
    with pytest.raises(InternalCheckError, match="kernel"):
        g0_presentation(group_monoid(build_group(name="C2")), 5)


def test_g0_generator_cap_refuses_before_enumerating(monkeypatch):
    def enumerate_nothing(sizes, budget):
        raise AssertionError("count vectors enumerated past the cap")

    monkeypatch.setattr(gtheory, "GROUP_GENERATOR_CAP", 10)
    monkeypatch.setattr(gtheory, "_count_vectors", enumerate_nothing)
    m = group_monoid(build_group(name="C2"))
    with pytest.raises(ResourceLimitError, match="cap 10"):
        g0_presentation(m, 6)  # 12 count vectors of total size <= 5
    with pytest.raises(ResourceLimitError, match="cap 10"):
        g0_presentation(m, 10 ** 12)  # refused without an O(bound) count


def test_g0_generator_count_is_exact_at_the_cap(monkeypatch):
    m = group_monoid(build_group(name="C2"))
    monkeypatch.setattr(gtheory, "GROUP_GENERATOR_CAP", 12)
    assert len(g0_presentation(m, 6).generators) == 12


def test_g0_nongroup_monoid_runs():
    nil = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
    p = g0_presentation(nil, 3)
    assert p.stability == "bounded approximation"
    assert p.result.free_rank >= 1


def test_g0_candidate_cap():
    nil = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
    with pytest.raises(ResourceLimitError):
        g0_presentation(nil, 9, candidate_cap=10)


def test_g0_candidate_cap_refuses_large_bound_at_once():
    idem = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 2)))
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="more than 20000 candidate tables"):
        g0_presentation(idem, 10 ** 5)
    assert time.perf_counter() - started < 1.0


def test_report_validation():
    with pytest.raises(ValueError):
        AbelianGroupReport(0, (4, 2), "snf")  # chain must divide upward
    rep = AbelianGroupReport(2, (2, 6), "snf")
    assert rep.pretty() == "Z^2 + Z/2 + Z/6"
    assert AbelianGroupReport(0, (), "snf").pretty() == "0"
    assert AbelianGroupReport(1, (), "snf").pretty() == "Z"


@pytest.mark.parametrize("name,rank", [
    ("C1", 0), ("C2", 1), ("S3", 3), ("C6", 3), ("D4", 7),
])
def test_cartan_cokernel_rank(name, rank):
    report = cartan_zero(build_group(name=name))
    assert report.wh0.free_rank == rank
    assert report.wh0.torsion == ()
    assert report.wh0.provenance == "snf"


def test_cartan_image_is_free_orbit():
    report = cartan_zero(build_group(name="S3"))
    assert report.image == (1, 0, 0, 0)


@pytest.mark.parametrize("name,torsion", [
    ("C1", (2,)),
    ("C2", (2, 2, 2)),
    ("S3", (2, 2, 2, 2, 2, 2)),
])
def test_g1_values(name, torsion):
    report = g1_via_splitting(build_group(name=name))
    assert report.free_rank == 0
    assert report.torsion == torsion
    assert report.provenance == "via splitting formula"
    assert report.basis_interpretation is not None


def test_g1_interpretation_lines_cover_classes():
    report = g1_via_splitting(build_group(name="D4"))
    ring = ring_of("D4")
    assert len(report.basis_interpretation) == ring.rank


def test_mult_by_regular():
    group = build_group(name="S3")
    ring = ring_of("S3")
    x = ring.basis_element(1)  # 3 cosets
    assert mult_by_regular(group, x).coeffs == (3, 0, 0, 0)


def test_simple_factor_counts():
    assert count_simple_factors(build_group(name="C3"), 2) == 2
    assert count_simple_factors(build_group(name="C3"), 4) == 3
    assert count_simple_factors(build_group(name="C4"), 5) == 4
    assert count_simple_factors(build_group(name="S3"), 7) == 3
    assert count_simple_factors(build_group(name="C6"), 5) == 4
    assert count_simple_factors(build_group(name="Q8"), 3) == 5


def test_simple_factor_count_equals_classes_at_one_mod_exponent():
    for name, q in (("C4", 5), ("S3", 7), ("C3", 4), ("V4", 3)):
        group = build_group(name=name)
        assert count_simple_factors(group, q) == \
            len(conjugacy_classes_of_elements(group))


def test_simple_factor_rejections():
    c4 = build_group(name="C4")
    with pytest.raises(ValueError):
        count_simple_factors(c4, 2)  # shares a factor with the order
    with pytest.raises(ValueError):
        count_simple_factors(c4, 15)  # not a prime power
    with pytest.raises(ValueError):
        count_simple_factors(c4, 1)
