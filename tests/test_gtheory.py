from __future__ import annotations

import random
import time
from itertools import permutations
from math import factorial

import pytest

from f1gtheory import gtheory, modules
from f1gtheory.errors import InternalCheckError, ResourceLimitError
from f1gtheory.groups import (build_group, conjugacy_classes_of_elements,
                              library_names)
from f1gtheory.gtheory import (AbelianGroupReport, cartan_zero,
                               count_simple_factors, g0_presentation,
                               g1_via_splitting, mult_by_regular)
from f1gtheory.modules import (FiniteModule, PointedMonoid, group_monoid,
                               permute_module)
from f1gtheory.snf import cokernel_invariants

from conftest import ring_of
from oracles import (cokernel_invariants_sparse, enumerate_modules_pairwise,
                     monoid_pool, pairwise_class, product_order_tables)

# the idempotent monoid {0, 1, e}, e*e = e (perfbench/monoid3.json)
IDEMPOTENT = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 2)))


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


def test_g0_work_budget():
    nil = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
    with pytest.raises(ResourceLimitError, match="work budget 10;"):
        g0_presentation(nil, 9, work_budget=10)


def test_g0_work_budget_refuses_large_bound_at_once():
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="past the work budget 1000000"):
        g0_presentation(IDEMPOTENT, 10 ** 5)
    assert time.perf_counter() - started < 1.0


def test_work_budget_stores_nothing_past_it(monkeypatch):
    made = []

    class Recording(gtheory._ClassIndex):
        def __init__(self, budget):
            super().__init__(budget)
            made.append(self)

    monkeypatch.setattr(gtheory, "_ClassIndex", Recording)
    full = gtheory._enumerate_modules(IDEMPOTENT, 6, 10 ** 6)
    assert gtheory._enumerate_modules(IDEMPOTENT, 6, full.spent).reps == full.reps
    with pytest.raises(ResourceLimitError, match="at least 154 relabellings"):
        gtheory._enumerate_modules(IDEMPOTENT, 6, 153)  # 0! + 1! + ... + 5!
    assert len(made) == 2
    for budget in (full.spent - 1, full.spent // 2, 200, 154):
        with pytest.raises(ResourceLimitError, match=f"work budget {budget};"):
            gtheory._enumerate_modules(IDEMPOTENT, 6, budget)
        cut = made[-1]
        # each stored class was charged its (s-1)! relabellings within the
        # budget, and holds exactly its orbit in the complete memo
        assert sum(factorial(r.size - 1) for r in cut.reps) <= budget
        assert cut.reps == full.reps[:len(cut.reps)]
        assert cut._known == {t: i for t, i in full._known.items()
                              if i < len(cut.reps)}


def test_pruned_enumeration_matches_product_order():
    for m in monoid_pool():
        if m.is_group_monoid:
            continue
        bound = 7 if m == IDEMPOTENT else 6 if m.size == 3 else 4
        for s in range(1, bound + 1):
            assert list(gtheory._action_tables(m, s)) == \
                list(product_order_tables(m, s)), (m.mul, s)
        reps = gtheory._enumerate_modules(m, bound, 10 ** 6).reps
        assert [r.action for r in reps] == \
            [r.action for r in enumerate_modules_pairwise(m, bound)], m.mul



def test_class_index_agrees_with_pairwise_scan():
    for m in monoid_pool(max_size=4):
        index = gtheory._enumerate_modules(m, 4, 10 ** 6)
        reps = index.reps
        fresh = gtheory._ClassIndex()
        for rep in reps:
            fresh.class_of(rep, new=True)
        # pairwise_class certifies each table isomorphic to its representative,
        # so two tables share a class only when they are isomorphic
        hit = set()
        for s in range(1, 5):
            for table in product_order_tables(m, s):
                module = FiniteModule(m, s, table)
                for rest in permutations(range(1, s)):
                    relabelled, _ = permute_module(module, (0,) + rest)
                    expected = pairwise_class(reps, relabelled)
                    assert index.class_of(relabelled) == expected
                    assert fresh.class_of(relabelled) == expected
                    hit.add(expected)
        assert sorted(hit) == list(range(len(reps)))


def test_class_index_refuses_an_unseen_class():
    index = gtheory._enumerate_modules(IDEMPOTENT, 2, 10 ** 6)
    big = gtheory._enumerate_modules(IDEMPOTENT, 3, 10 ** 6).reps[-1]
    with pytest.raises(InternalCheckError, match="missing from enumeration"):
        index.class_of(big)


def test_g0_monoid3_enumeration_makes_no_isomorphism_calls(monkeypatch):
    def refuse(s, t):
        raise AssertionError("are_isomorphic called")

    assert not hasattr(gtheory, "are_isomorphic")
    monkeypatch.setattr(modules, "are_isomorphic", refuse)
    index = gtheory._enumerate_modules(IDEMPOTENT, 6, 10 ** 6)
    # the memo holds every valid labelled table, and nothing else
    tables = [t for s in range(1, 7) for t in gtheory._action_tables(IDEMPOTENT, s)]
    assert len(index._known) == len(tables) == 673
    assert set(index._known) == set(tables)
    p = g0_presentation(IDEMPOTENT, 6)
    assert p.result.pretty() == "Z^2"
    assert len(p.generators) == 45
    assert len(p.relations) == 675
    assert cokernel_invariants_sparse(list(p.relations), 45) == (2, [])


def test_cokernel_ignores_repeated_and_reordered_rows():
    p = g0_presentation(IDEMPOTENT, 5)
    n = len(p.generators)
    rows = [[dict(r).get(j, 0) for j in range(n)] for r in p.relations]
    expected = cokernel_invariants_sparse(list(p.relations), n)
    rng = random.Random(11)
    for _ in range(5):
        shuffled = rows + rng.sample(rows, len(rows) // 2)
        rng.shuffle(shuffled)
        assert cokernel_invariants(shuffled, n) == expected
    for seed in range(20):
        rng = random.Random(seed)
        ncols = rng.randint(1, 6)
        base = [[rng.randint(-4, 4) for _ in range(ncols)]
                for _ in range(rng.randint(1, 6))]
        noisy = base + [list(rng.choice(base)) for _ in range(4)]
        rng.shuffle(noisy)
        assert cokernel_invariants(noisy, ncols) == \
            cokernel_invariants_sparse([dict(enumerate(r)) for r in base], ncols)


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
