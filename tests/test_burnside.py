from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1gtheory.burnside import (BurnsideRing, build_burnside, decompose,
                                marks_to_csv)
from f1gtheory.cli import main
from f1gtheory.errors import InternalCheckError
from f1gtheory.groups import (FiniteGroup, build_group, classify_subgroups,
                              library_names)
from f1gtheory.lambda_ops import lambda_k
from f1gtheory.modules import coset_module, diagonal_smash, free_module, \
    group_monoid, wedge
from f1gtheory.sampling import random_effective, random_element

from conftest import RUNGS, group_of, ring_of
from oracles import (carry, class_correspondence, dense_from_marks,
                     dense_marks, dense_marks_of, orbit_lengths_by_cosets,
                     reindexed_context, weyl_group)


def test_c2_marks():
    ring = ring_of("C2")
    assert [list(r) for r in ring.marks] == [[2, 0], [1, 1]]


def _explicit_marks(ring):
    """K-fixed points of each G/H, counted on the coset modules."""
    return [[sum(1 for x in range(1, coset.size)
                 if all(coset.action[x][g + 1] == x for g in k.elements))
             for k in ring.classification.representatives]
            for coset in map(ring._coset, range(ring.rank))]


# every library group has order <= 24
@pytest.mark.parametrize("name", library_names() + ["S4xC2"])
def test_marks_diagonal_is_weyl_order(name):
    if name == "S4xC2":
        group = build_group(generators=["(1 2 3 4)", "(1 2)", "(5 6)"], degree=6)
    else:
        group = build_group(name=name)
    ring = build_burnside(group)
    # the marks formula against the fixed points counted on G/H
    assert [list(r) for r in ring.marks] == _explicit_marks(ring)
    for i, rep in enumerate(ring.classification.representatives):
        assert ring.marks[i][i] == weyl_group(group, rep).order
        assert all(ring.marks[i][j] == 0 for j in range(i + 1, ring.rank))


def test_cosets_are_built_on_first_use():
    ring = BurnsideRing(build_group(name="S3"))
    assert ring._cosets == {}
    assert [ring._coset(i).size for i in range(ring.rank)] == [7, 4, 3, 2]
    assert ring._coset(0) is ring._cosets[0]


def test_marks_first_column_is_index():
    ring = ring_of("D4")
    for i in range(ring.rank):
        rep = ring.classification.representatives[i]
        assert ring.marks[i][0] == ring.group.order // rep.order


def test_free_orbit_square():
    ring = ring_of("C2")
    x = ring.basis_element(0)
    assert (x * x).coeffs == (2, 0)


def test_one_is_identity():
    ring = ring_of("S3")
    one = ring.one()
    for i in range(ring.rank):
        b = ring.basis_element(i)
        assert ring.mul(one, b) == b


def test_mul_matches_diagonal_smash():
    rng = random.Random(12)
    for name in ("C2", "C4", "S3", "Q8"):
        ring = ring_of(name)
        for _ in range(10):
            x = random_effective(ring, rng, max_size=8)
            y = random_effective(ring, rng, max_size=8)
            direct = x * y
            modeled = ring.decompose(
                diagonal_smash(ring.realize(x), ring.realize(y)))
            assert direct == modeled, (name, x.coeffs, y.coeffs)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["C4", "S3", "D4"]), st.integers(0, 10**6))
def test_ring_axioms(name, seed):
    ring = ring_of(name)
    rng = random.Random(seed)
    x = random_element(ring, rng)
    y = random_element(ring, rng)
    z = random_element(ring, rng)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x


def test_decompose_realize_roundtrip():
    rng = random.Random(3)
    for name in ("C3", "S3", "D4"):
        ring = ring_of(name)
        for _ in range(10):
            x = random_effective(ring, rng, max_size=10)
            assert ring.decompose(ring.realize(x)) == x


def test_decompose_wedge_of_cosets():
    group = build_group(name="S3")
    ring = build_burnside(group)
    reps = ring.classification.representatives
    module = wedge([coset_module(group, reps[1].elements),
                    coset_module(group, reps[1].elements),
                    coset_module(group, reps[2].elements)])
    assert ring.decompose(module).coeffs == (0, 2, 1, 0)


def test_module_level_decompose_helper():
    group = build_group(name="C2")
    module = free_module(group_monoid(group), 2)
    assert decompose(module).coeffs == (2, 0)


def test_marks_roundtrip():
    ring = ring_of("D4")
    rng = random.Random(9)
    for _ in range(10):
        x = random_element(ring, rng)
        assert ring.from_marks(x.marks()) == x


def test_regular_class_multiplication():
    # the free orbit class is an absorbing ideal up to scale
    ring = ring_of("S3")
    free_orbit = ring.basis_element(0)
    for i in range(ring.rank):
        b = ring.basis_element(i)
        size = ring.group.order // ring.classification.representatives[i].order
        assert b * free_orbit == free_orbit * size


def test_marks_csv_golden():
    ring = ring_of("C2")
    assert marks_to_csv(ring) == (
        "class,order1_rep0,order2_rep0-1\n"
        "order1_rep0,2,0\n"
        "order2_rep0-1,1,1\n"
    )


def test_element_pretty():
    ring = ring_of("C2")
    x = ring.basis_element(0) - ring.basis_element(1) * 2
    text = x.pretty()
    assert "order1_rep0" in text and "order2_rep0-1" in text


def test_effective_parts():
    ring = ring_of("C2")
    x = ring.element([3, -2])
    assert not x.is_effective
    assert ring.element([1, 0]).is_effective


def test_json_roundtrip():
    ring = ring_of("S3")
    x = ring.element([1, -1, 0, 2])
    blob = x.to_json()
    assert blob["coeffs"] == [1, -1, 0, 2]
    assert list(blob["basis"]) == list(ring.labels)


def test_ring_cache_keeps_group_names_apart():
    # group equality ignores the name, which the ring prints
    flip = build_burnside(FiniteGroup(2, ((0, 1), (1, 0)), name="flip"))
    c2 = build_burnside(build_group(name="C2"))
    assert flip.to_json()["group"] == "flip"
    assert c2.to_json()["group"] == "C2"


def test_ring_of_a_proper_subgroup_builds_no_g_set():
    group = build_group(name="S3")
    c3 = build_burnside(group, (0, 2, 5))
    assert (c3.order, c3.rank, c3.marks) == (3, 2, ((3, 0), (1, 1)))
    # cosets would be G/M, not H/M
    for build in (lambda: c3._coset(0), lambda: c3.realize(c3.one()),
                  lambda: c3.decompose(free_module(group_monoid(group), 1))):
        with pytest.raises(ValueError, match="whole group|different group"):
            build()
    # one group, two subgroups of one rank: their elements stay apart
    c2 = build_burnside(group, (0, 3))
    assert c2.rank == c3.rank and c2.one() != c3.one()
    with pytest.raises(ValueError, match="different"):
        c2.one() + c3.one()


@pytest.mark.parametrize("name", library_names() + sorted(RUNGS))
def test_orbit_counts_match_the_coset_walk(name):
    ring = build_burnside(group_of(name))
    walked = orbit_lengths_by_cosets(ring)
    assert ring.orbit_counts == tuple(
        tuple(tuple(sorted(Counter(lengths).items())) for lengths in row)
        for row in walked)


# (group, subgroup order): C3 <= S3, D4 <= S4 and S3 <= S4
PROPER_SUBGROUPS = [("S3", 3), ("S4", 8), ("S4", 6)]


@pytest.mark.parametrize("name,order", PROPER_SUBGROUPS)
def test_lambda_on_the_ring_of_a_proper_subgroup(name, order):
    # A(H) in ambient ids against H re-indexed as a group of its own
    group = build_group(name=name)
    [elements] = [rep.elements for rep in classify_subgroups(group).representatives
                  if rep.order == order]
    ring = build_burnside(group, elements)
    ctx = reindexed_context(group, elements)
    to_ring = class_correspondence(ctx.ring, ctx.embedding, ring)
    assert sorted(to_ring) == list(range(ring.rank))
    for a, row in enumerate(ctx.ring.orbit_counts):
        for b, pairs in enumerate(row):
            assert ring.orbit_counts[to_ring[a]][to_ring[b]] == pairs
    rng = random.Random(order)
    xs = [ctx.ring.basis_element(i) for i in range(ctx.ring.rank)]
    xs += [random_element(ctx.ring, rng) for _ in range(4)]
    for x in xs:
        for k in range(5):
            assert lambda_k(ring, carry(x, to_ring, ring), k) == \
                carry(lambda_k(ctx.ring, x, k), to_ring, ring), (x.coeffs, k)
    assert "cosets" not in vars(ring)


@pytest.mark.parametrize("name", library_names() + sorted(RUNGS))
def test_sparse_rows_match_the_dense_table(name):
    ring = build_burnside(group_of(name))
    dense = dense_marks(ring)
    assert ring.rows == tuple(tuple((j, m) for j, m in enumerate(row) if m)
                              for row in dense)
    assert all(row[-1][0] == i for i, row in enumerate(ring.rows))
    assert ring.marks == dense


@pytest.mark.parametrize("name", library_names() + sorted(RUNGS))
def test_marks_of_and_from_marks_match_the_dense_oracle(name):
    ring = build_burnside(group_of(name))
    dense = dense_marks(ring)
    rng = random.Random(f"ghost:{name}")
    for _ in range(6):
        coeffs = [0] * ring.rank
        for i in rng.sample(range(ring.rank), min(4, ring.rank)):
            coeffs[i] = rng.randint(-3, 3)
        x = ring.element(coeffs)
        ghost = ring.marks_of(x)
        assert ghost == dense_marks_of(dense, coeffs)
        assert ring.from_marks(ghost).coeffs == dense_from_marks(dense, ghost) \
            == x.coeffs
        if ring.order > 1:
            # G/1 is the only class with a nonzero mark at the trivial
            # subgroup, and that mark is |G|
            off = (ghost[0] + 1,) + ghost[1:]
            for solve in (ring.from_marks, lambda v: dense_from_marks(dense, v)):
                with pytest.raises(InternalCheckError, match="not in the image"):
                    solve(off)


def test_text_marks_build_no_dense_table(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the dense table was built")

    monkeypatch.setattr(BurnsideRing, "marks", property(refuse))
    assert main(["marks", "--group", "D6"]) == 0
    assert "table of marks for D6" in capsys.readouterr().out
