from __future__ import annotations

import random
import time
from itertools import permutations
from math import factorial

import pytest

from f1gtheory import constructions, gtheory, modules
from f1gtheory.burnside import build_burnside
from f1gtheory.errors import InternalCheckError, ResourceLimitError
from f1gtheory.groups import (build_group, conjugacy_classes_of_elements,
                              library_names)
from f1gtheory.gtheory import (AbelianGroupReport, cartan_zero,
                               count_simple_factors, g0_presentation,
                               g1_via_splitting)
from f1gtheory.modules import (FiniteModule, PointedMonoid, free_module,
                               group_monoid, is_cofibration, quotient,
                               submodule_inclusion)
from f1gtheory.snf import cokernel_invariants

from conftest import RUNGS, group_of, ring_of
from oracles import (cokernel_invariants_sparse, enumerate_modules_pairwise,
                     in_peel_kernel, monoid_pool, mult_by_regular,
                     object_relation_rows, pairwise_class, peel_rows_by_dict,
                     permute_module, product_order_tables)

# the idempotent monoid {0, 1, e}, e*e = e (perfbench/monoid3.json)
IDEMPOTENT = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 2)))
# the monoids of the general-monoid CLI goldens, with their bounds
NILPOTENT = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
TRUNCATED_POWER = PointedMonoid(
    4, ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 0), (0, 3, 0, 0)))
GOLDEN_MONOIDS = ((NILPOTENT, 6), (TRUNCATED_POWER, 4))


def small_library_groups(max_order=8):
    groups = (build_group(name=name) for name in library_names())
    return [g for g in groups if g.order <= max_order]


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


def test_g0_audit_visits_a_bounded_sample_of_peel_sites(monkeypatch):
    audit = gtheory._audit_group_relation
    for group in small_library_groups():
        sites = []

        def record(ring, counts, cls):
            sites.append((counts, cls))
            audit(ring, counts, cls)

        monkeypatch.setattr(gtheory, "_audit_group_relation", record)
        g0_presentation(group_monoid(group), group.order + 3)
        assert 1 <= len(sites) <= gtheory.RELATION_AUDIT_SAMPLE + 1, group.name
        assert all(c[i] > 0 for c, i in sites), group.name


def test_g0_audit_catches_a_corrupted_quotient(monkeypatch):
    # the peel quotient should be one orbit; the whole module is returned
    monkeypatch.setattr(modules, "quotient", lambda incl: incl.target)
    with pytest.raises(InternalCheckError, match="peel quotient"):
        g0_presentation(group_monoid(build_group(name="S3")), 9)


def test_peel_rows_match_dict_oracle():
    for group in small_library_groups():
        sizes = ring_of(group.name).coset_sizes
        for bound in range(1, group.order + 4):
            gens = gtheory._count_vectors(sizes, bound - 1)
            gen_index = {c: i for i, c in enumerate(gens)}
            rows = list(gtheory._peel_rows(gens, gen_index))
            assert rows == list(peel_rows_by_dict(gens, gen_index)), \
                (group.name, bound)
            assert all(in_peel_kernel(row, gens) for row in rows)


def test_g0_certificate_rejects_heavy_row_the_encoding_misses(monkeypatch):
    # over C2 at bound 5, B = 6 * 4 + 1 = 25 and enc(e_1) = 25 enc(e_0):
    # the row 25 [e_0] - [e_1] has encoded image 0 but lies outside the
    # kernel, so only the bound on the absolute sum refuses it
    peel_rows = gtheory._peel_rows
    found = []

    def with_heavy_row(gens, gen_index):
        yield from peel_rows(gens, gen_index)
        row = tuple(sorted(((gen_index[(1, 0)], 25), (gen_index[(0, 1)], -1))))
        found.append((row, gens))
        yield row

    monkeypatch.setattr(gtheory, "_peel_rows", with_heavy_row)
    with pytest.raises(InternalCheckError, match="absolute sum 26"):
        g0_presentation(group_monoid(build_group(name="C2")), 5)
    (row, gens), = found
    assert not in_peel_kernel(row, gens)


def test_g0_certificate_rejects_heavy_row_in_kernel(monkeypatch):
    peel_rows = gtheory._peel_rows

    def with_doubled_row(gens, gen_index):
        rows = list(peel_rows(gens, gen_index))
        yield from rows
        yield tuple((idx, 2 * v) for idx, v in rows[-1])

    monkeypatch.setattr(gtheory, "_peel_rows", with_doubled_row)
    with pytest.raises(InternalCheckError, match="absolute sum 6"):
        g0_presentation(group_monoid(build_group(name="C2")), 5)


def test_g0_generator_labels_are_lazy_and_match_eager_tuple(monkeypatch):
    calls = []
    count_vectors = gtheory._count_vectors

    def counting(sizes, budget):
        calls.append(budget)
        return count_vectors(sizes, budget)

    monkeypatch.setattr(gtheory, "_count_vectors", counting)
    for group in small_library_groups():
        sizes = ring_of(group.name).coset_sizes
        for bound in range(1, group.order + 4):
            del calls[:]
            p = g0_presentation(group_monoid(group), bound)
            assert len(calls) == 1  # the certificate's own enumeration
            eager = tuple("[" + ",".join(str(v) for v in c) + "]"
                          for c in count_vectors(sizes, bound - 1))
            assert len(p.generators) == len(eager)
            assert len(calls) == 1
            assert list(p.generators) == list(eager), (group.name, bound)
            assert list(p.generators) == list(eager)  # re-iterable


def test_general_rows_match_object_oracle():
    for m, bound in ((IDEMPOTENT, 6),) + GOLDEN_MONOIDS:
        for b in range(1, bound + 1):
            assert list(g0_presentation(m, b).relations) == \
                object_relation_rows(m, b), (m.mul, b)


def test_collapse_first_matches_is_cofibration():
    for m, bound in ((IDEMPOTENT, 6),) + GOLDEN_MONOIDS:
        for rep in gtheory._enumerate_modules(m, bound).reps:
            for subset in gtheory._action_closed_subsets(rep):
                sub, quot, collapse = gtheory._split_tables(rep, subset)
                incl = submodule_inclusion(rep, subset)
                assert sub == incl.source.action
                assert quot == quotient(incl).action
                ok, witness = is_cofibration(incl)
                assert (collapse or ok) == ok
                if collapse:
                    # the search returns the collapse retraction first
                    kept = {0, *subset}
                    assert witness.map == tuple(
                        incl.map.index(x) if x in kept else 0
                        for x in range(rep.size))


def test_g0_generator_cap_refuses_before_enumerating(monkeypatch):
    def enumerate_nothing(sizes, budget):
        raise AssertionError("count vectors enumerated past the cap")

    monkeypatch.setattr(gtheory, "GROUP_GENERATOR_CAP", 10)
    monkeypatch.setattr(gtheory, "_count_vectors", enumerate_nothing)
    m = group_monoid(build_group(name="C2"))
    with pytest.raises(ResourceLimitError, match=r"^generator count at size bound 6 "
                       r"reaches 12, past gtheory\.GROUP_GENERATOR_CAP = 10$"):
        g0_presentation(m, 6)  # 12 count vectors of total size <= 5
    # refused without an O(bound) count: G/G alone gives 10^12 count vectors
    with pytest.raises(ResourceLimitError, match=r"bound 1000000000000 reaches "
                       r"1000000000000, past gtheory\.GROUP_GENERATOR_CAP = 10$"):
        g0_presentation(m, 10 ** 12)


def test_g0_generator_count_is_exact_at_the_cap(monkeypatch):
    m = group_monoid(build_group(name="C2"))
    monkeypatch.setattr(gtheory, "GROUP_GENERATOR_CAP", 12)
    assert len(g0_presentation(m, 6).generators) == 12


def test_g0_nongroup_monoid_runs():
    nil = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
    p = g0_presentation(nil, 3)
    assert p.stability == "bounded approximation"
    assert p.result.free_rank >= 1


def test_g0_work_budget(monkeypatch):
    monkeypatch.setattr(gtheory, "WORK_BUDGET", 10)
    nil = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
    with pytest.raises(ResourceLimitError, match=r"^relabelling count at size bound 9 "
                       r"reaches 34, past gtheory\.WORK_BUDGET = 10$"):
        g0_presentation(nil, 9)  # 0! + 1! + 2! + 3! + 4!


def test_g0_work_budget_refuses_large_bound_at_once():
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"reaches 4037914, "
                       r"past gtheory\.WORK_BUDGET = 1000000$"):  # 0! + ... + 10!
        g0_presentation(IDEMPOTENT, 10 ** 5)
    assert time.perf_counter() - started < 1.0


def test_work_budget_stores_nothing_past_it(monkeypatch):
    made = []

    class Recording(gtheory._ClassIndex):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(gtheory, "_ClassIndex", Recording)
    full = gtheory._enumerate_modules(IDEMPOTENT, 6)
    monkeypatch.setattr(gtheory, "WORK_BUDGET", full.spent)
    assert gtheory._enumerate_modules(IDEMPOTENT, 6).reps == full.reps
    monkeypatch.setattr(gtheory, "WORK_BUDGET", 153)
    with pytest.raises(ResourceLimitError, match=r"^relabelling count at size bound 6 "
                       r"reaches 154, past gtheory\.WORK_BUDGET = 153$"):
        gtheory._enumerate_modules(IDEMPOTENT, 6)  # 0! + 1! + ... + 5!
    assert len(made) == 2
    for budget in (full.spent - 1, full.spent // 2, 200, 154):
        monkeypatch.setattr(gtheory, "WORK_BUDGET", budget)
        with pytest.raises(ResourceLimitError, match=r"^module enumeration work "
                           rf"reaches \d+, past gtheory\.WORK_BUDGET = {budget}$"):
            gtheory._enumerate_modules(IDEMPOTENT, 6)
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
            assert list(gtheory._action_tables(m, s, lambda work: None)) == \
                list(product_order_tables(m, s)), (m.mul, s)
        reps = gtheory._enumerate_modules(m, bound).reps
        assert [r.action for r in reps] == \
            [r.action for r in enumerate_modules_pairwise(m, bound)], m.mul



def test_class_index_agrees_with_pairwise_scan():
    for m in monoid_pool(max_size=4):
        index = gtheory._enumerate_modules(m, 4)
        reps = index.reps
        fresh = gtheory._ClassIndex()
        for rep in reps:
            fresh.add(rep)
        # pairwise_class certifies each table isomorphic to its representative,
        # so two tables share a class only when they are isomorphic
        hit = set()
        for s in range(1, 5):
            for table in product_order_tables(m, s):
                module = FiniteModule(m, s, table)
                for rest in permutations(range(1, s)):
                    relabelled, _ = permute_module(module, (0,) + rest)
                    expected = pairwise_class(reps, relabelled)
                    assert index.lookup(relabelled.action) == expected
                    assert fresh.lookup(relabelled.action) == expected
                    hit.add(expected)
        assert sorted(hit) == list(range(len(reps)))


def test_class_index_refuses_an_unseen_class():
    index = gtheory._enumerate_modules(IDEMPOTENT, 2)
    big = gtheory._enumerate_modules(IDEMPOTENT, 3).reps[-1]
    with pytest.raises(InternalCheckError, match="missing from enumeration"):
        index.lookup(big.action)


def test_g0_monoid3_enumeration_makes_no_isomorphism_calls(monkeypatch):
    def refuse(s, t):
        raise AssertionError("are_isomorphic called")

    assert not hasattr(gtheory, "are_isomorphic")
    monkeypatch.setattr(constructions, "are_isomorphic", refuse)
    index = gtheory._enumerate_modules(IDEMPOTENT, 6)
    # the memo holds every valid labelled table, and nothing else
    tables = [t for s in range(1, 7)
              for t in gtheory._action_tables(IDEMPOTENT, s, lambda work: None)]
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


@pytest.mark.parametrize("name", library_names() + sorted(RUNGS))
def test_cartan_image_is_the_class_of_an_explicit_free_module(name):
    # the engine reads G/e as class 0; the oracle decomposes the free module
    group = group_of(name)
    free = build_burnside(group).decompose(free_module(group_monoid(group), 1))
    assert cartan_zero(group).image == free.coeffs


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
