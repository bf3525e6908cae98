from __future__ import annotations

import random
from itertools import chain, combinations, product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1gtheory import groups
from f1gtheory.constructions import find_isomorphism, is_isomorphic
from f1gtheory.groups import (FiniteGroup, abelianization, all_subgroups,
                              build_group, classify_subgroups, closure_of,
                              conjugacy_classes_of_elements, group_from_json,
                              library_names, normalizer, parse_cycles)
from f1gtheory.errors import InternalCheckError, ResourceLimitError
from f1gtheory.modules import PointedMonoid

from conftest import RUNGS, group_of
from oracles import (abelianization_by_relations, all_subgroups_by_closure,
                     classify_by_all_conjugates, commutator_subgroup,
                     element_classes_by_all_conjugates, greedy_generators_by_closure,
                     normalizer_by_all_conjugates, quotient_group,
                     subgroup_as_group, weyl_group)


def brute_force_subgroups(group):
    """All subgroups by direct subset closure testing, as an oracle."""
    found = []
    elements = list(range(group.order))
    for r in range(1, group.order + 1):
        for subset in combinations(elements, r):
            if group.identity not in subset:
                continue
            s = set(subset)
            closed = all(group.mul(a, b) in s for a in s for b in s)
            if closed:
                found.append(tuple(sorted(s)))
    return sorted(found)


@pytest.mark.parametrize("name,count,classes", [
    ("S3", 6, 4),
    ("C6", 4, 4),
    ("Q8", 6, 6),
    ("D4", 10, 8),
    ("V4", 5, 5),
])
def test_subgroups_against_brute_force(name, count, classes):
    group = build_group(name=name)
    oracle = brute_force_subgroups(group)
    computed = sorted(s.elements for s in all_subgroups(group))
    assert computed == oracle
    assert len(computed) == count
    assert classify_subgroups(group).rank == classes


def test_subgroup_classes_sorted_and_conjugate():
    group = build_group(name="S3")
    classification = classify_subgroups(group)
    for cls in classification.classes:
        rep = cls[0]
        for other in cls:
            assert other.order == rep.order
            assert any(
                tuple(sorted(group.conj(g, x) for x in rep.elements)) == other.elements
                for g in range(group.order))
    orders = [cls[0].order for cls in classification.classes]
    assert orders == sorted(orders)


# abelianizations with summands Z/2^e of different exponents
MIXED_EXPONENTS = {
    "D4xC4": (["(1 2 3 4)", "(1 3)", "(5 6 7 8)"], 8),
    "C8xC4xC2": (["(1 2 3 4 5 6 7 8)", "(9 10 11 12)", "(13 14)"], 14),
}


@pytest.mark.parametrize("name,expected", [
    ("C1", []),
    ("C6", [6]),
    ("V4", [2, 2]),
    ("S3", [2]),
    ("Q8", [2, 2]),
    ("A4", [3]),
    ("D4", [2, 2]),
    ("D4xC4", [2, 2, 4]),
    ("C8xC4xC2", [2, 4, 8]),
])
def test_abelianization(name, expected):
    if name in MIXED_EXPONENTS:
        generators, degree = MIXED_EXPONENTS[name]
        group = build_group(generators=generators, degree=degree)
    else:
        group = build_group(name=name)
    assert abelianization(group) == expected


def test_commutator_subgroup_of_s3_is_a3():
    group = build_group(name="S3")
    comm = commutator_subgroup(group)
    assert len(comm) == 3
    assert all(group.element_order(g) in (1, 3) for g in comm)


def test_weyl_orders_match_marks_diagonal():
    group = build_group(name="D4")
    classification = classify_subgroups(group)
    for cls in classification.classes:
        rep = cls[0]
        w = weyl_group(group, rep)
        norm = normalizer(group, rep)
        assert w.order == norm.order // rep.order


def test_quotient_of_s3_by_a3():
    group = build_group(name="S3")
    a3 = next(s for s in all_subgroups(group) if s.order == 3)
    q = quotient_group(group, a3.elements)
    assert q.order == 2


def test_parse_cycles():
    perm = parse_cycles("(1 2 3)", 4)
    assert perm == (1, 2, 0, 3)
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 3)


def test_build_group_from_generators():
    group = build_group(generators=["(1 2)", "(1 2 3)"], degree=3)
    assert group.order == 6
    assert is_isomorphic(group, build_group(name="S3"))


def test_group_from_json_shapes():
    by_name = group_from_json({"name": "C4"})
    assert by_name.order == 4
    cayley = [[0, 1], [1, 0]]
    by_table = group_from_json({"cayley": cayley})
    assert by_table.order == 2
    by_gens = group_from_json({"generators": ["(1 2 3)"], "degree": 3})
    assert by_gens.order == 3


def test_order_cap_enforced(monkeypatch):
    monkeypatch.setattr(groups, "ORDER_CAP", 12)
    with pytest.raises(ResourceLimitError,
                       match=r"^group order reaches 24, past groups\.ORDER_CAP = 12$"):
        group_from_json({"cayley": [list(r) for r in build_group(name="C24").cayley]})
    with pytest.raises(ResourceLimitError,
                       match=r"^generated group order reaches 13, "
                             r"past groups\.ORDER_CAP = 12$"):
        group_from_json({"generators": ["(1 2 3 4)", "(1 2)"], "degree": 4})
    assert group_from_json({"generators": ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"],
                            "degree": 6}).order == 12


def _swapped_intercalate(n, i, j):
    """C_n's table with the intercalate on rows i, i + n/2 and columns
    j, j + n/2 swapped: still a Latin square with a two-sided identity
    when 0 < i, j < n/2."""
    h = n // 2
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    for a, b in ((i, j), (i + h, j + h), (i, j + h), (i + h, j)):
        table[a][b] = (table[a][b] + h) % n
    return table


@pytest.mark.parametrize("n", [256, 512])
def test_associativity_is_checked_at_every_order(n):
    # at order 256 at least 2,056 of the 256**3 triples fail, about one in 8,000
    with pytest.raises(ValueError, match="associativity fails"):
        group_from_json({"cayley": _swapped_intercalate(n, 1, 2)})


def _pointed_tables():
    """Every table on 3 and 4 elements where 0 absorbs and 1 is a two-sided
    unit, then 200 seeded random ones on each of 5 and 6 elements."""
    rng = random.Random(0)
    for n in (3, 4, 5, 6):
        free = (n - 2) ** 2
        fills = (iter_product(range(n), repeat=free) if n <= 4 else
                 ([rng.randrange(n) for _ in range(free)] for _ in range(200)))
        for fill in fills:
            values = iter(fill)
            yield tuple(tuple(0 if 0 in (a, b) else b if a == 1 else
                              a if b == 1 else next(values) for b in range(n))
                        for a in range(n))


def test_associativity_check_matches_every_triple():
    # group tables as lists of lists, monoid tables as tuples of tuples
    groups_ = ((FiniteGroup, n, _swapped_intercalate(n, i, j))
               for n in (4, 6, 8, 10, 12)
               for i in range(1, n // 2) for j in range(1, n // 2))
    monoids = ((PointedMonoid, len(t), t) for t in _pointed_tables())
    verdicts = set()
    for cls, n, t in chain(groups_, monoids):
        associative = all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n)
                          for b in range(n) for c in range(n))
        try:
            cls(n, t)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == associative, (cls.__name__, t)
        verdicts.add((cls, accepted))
    # both classes meet tables on both sides of the check
    assert len(verdicts) == 4


def brute_force_closure(group, seed):
    """Close {e} and the seed under products on both sides, as an oracle."""
    members = {group.identity, *seed}
    while True:
        grown = members | {group.mul(a, b) for a in members for b in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


def test_closure_of():
    group = build_group(name="S3")
    gens = [g for g in range(group.order) if group.element_order(g) == 3]
    closure = closure_of(group, gens[:1])
    assert len(closure) == 3
    for name in ("S4", "Q8", "D6"):
        group = build_group(name=name)
        for size in range(3):
            for seed in combinations(range(group.order), size):
                assert closure_of(group, seed) == brute_force_closure(group, seed)


LARGER_GROUPS = {
    "S4xC2": (["(1 2 3 4)", "(1 2)", "(5 6)"], 6),
    "C2^5": (["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"], 10),
    "D4xC2^3": (["(1 2 3 4)", "(1 3)", "(5 6)", "(7 8)", "(9 10)"], 10),
}


@pytest.mark.parametrize("name,count,classes", [
    ("S4xC2", 98, 33), ("C2^5", 374, 374), ("D4xC2^3", 937, 681),
], ids=["S4xC2", "C2^5", "D4xC2^3"])
def test_subgroup_counts_of_larger_groups(name, count, classes):
    generators, degree = LARGER_GROUPS[name]
    group = build_group(generators=generators, degree=degree)
    assert len(all_subgroups(group)) == count
    assert classify_subgroups(group).rank == classes


def _class_elements(classification):
    return tuple(tuple(sub.elements for sub in cls) for cls in classification.classes)


@pytest.mark.parametrize("name", library_names() + sorted(LARGER_GROUPS))
def test_lattice_matches_the_closure_oracle(name):
    """Canonical-parent extensions, their recorded generators and generator
    orbits against closures from the identity and conjugation by every
    element.

    Classifications relative to a subgroup H run for every H of a group of
    order <= 24, and for every 13th subgroup of the larger groups.
    """
    if name in LARGER_GROUPS:
        generators, degree = LARGER_GROUPS[name]
        group = build_group(generators=generators, degree=degree)
    else:
        group = build_group(name=name)
    subgroups = all_subgroups_by_closure(group)
    assert tuple(sub.elements for sub in all_subgroups(group)) == subgroups
    assert groups._lattice(group).generators == tuple(
        greedy_generators_by_closure(group, sub) for sub in subgroups)
    assert conjugacy_classes_of_elements(group) == \
        element_classes_by_all_conjugates(group)
    whole = tuple(range(group.order))
    assert _class_elements(classify_subgroups(group)) == \
        classify_by_all_conjugates(group, whole, subgroups)
    stride = 1 if group.order <= 24 else 13
    for h in subgroups[::stride]:
        assert _class_elements(classify_subgroups(group, h)) == \
            classify_by_all_conjugates(group, h, subgroups)


@pytest.mark.parametrize("name", library_names() + sorted(LARGER_GROUPS)
                         + sorted(MIXED_EXPONENTS))
def test_weyl_abelianization_matches_the_quotient_oracle(name):
    """W_G(H)^ab read off the ambient group against N_G(H)/H re-indexed as
    a quotient group and the Smith normal form of its |W|^2 relations, on
    every subgroup class."""
    generated = {**LARGER_GROUPS, **MIXED_EXPONENTS}
    if name in generated:
        generators, degree = generated[name]
        group = build_group(generators=generators, degree=degree)
    else:
        group = build_group(name=name)
    for rep in classify_subgroups(group).representatives:
        assert abelianization(group, rep) == \
            abelianization_by_relations(weyl_group(group, rep)), rep.elements
    assert abelianization(group) == abelianization_by_relations(group)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["C4", "S3", "D4", "Q8", "A4"]), st.data())
def test_inverse_antihomomorphism(name, data):
    group = build_group(name=name)
    g = data.draw(st.integers(0, group.order - 1))
    h = data.draw(st.integers(0, group.order - 1))
    assert group.inv(group.mul(g, h)) == group.mul(group.inv(h), group.inv(g))
    assert group.mul(g, group.inv(g)) == group.identity


def test_isomorphism_detection():
    d3 = build_group(name="D3")
    s3 = build_group(name="S3")
    assert is_isomorphic(d3, s3)
    phi = find_isomorphism(d3, s3)
    for a in range(6):
        for b in range(6):
            assert phi[d3.mul(a, b)] == s3.mul(phi[a], phi[b])
    assert not is_isomorphic(build_group(name="C4"), build_group(name="V4"))
    assert not is_isomorphic(build_group(name="D6"),
                             build_group(name="A4"))


def test_subgroup_as_group_embedding():
    group = build_group(name="D4")
    sub = next(s for s in all_subgroups(group) if s.order == 4)
    inner, embedding = subgroup_as_group(group, sub.elements)
    assert inner.order == 4
    for a in range(4):
        for b in range(4):
            assert embedding[inner.mul(a, b)] == group.mul(embedding[a],
                                                           embedding[b])


@pytest.mark.parametrize("elements,message", [
    ((0, 1, 2), "not closed"),
    ((), "at least one element"),
    ((0, 0, 1), "repeats"),
    ((0, 6), "outside"),
], ids=["not-closed", "empty", "repeated", "out-of-range"])
def test_subgroup_as_group_rejects_non_subgroups(elements, message):
    with pytest.raises(ValueError, match=message):
        subgroup_as_group(build_group(name="S3"), elements)


def test_library_names_build():
    names = library_names()
    assert "S3" in names and "Q8" in names and "C12" in names
    for name in names:
        group = build_group(name=name)
        assert group.order >= 1
        assert group.name == name
        # the library builds its tables trusted; the constructor validates
        assert FiniteGroup(group.order, group.cayley, group.name) == group


def test_classification_deterministic():
    a = classify_subgroups(build_group(name="D4"))
    b = classify_subgroups(build_group(name="D4"))
    assert [c[0].elements for c in a.classes] == [c[0].elements for c in b.classes]


@pytest.mark.parametrize("name", library_names() + sorted(RUNGS))
def test_normalizer_matches_conjugation_by_every_element(name):
    # every subgroup of a library group, every class representative of a rung
    group = group_of(name)
    assert all(group.conjugations[g][x] == group.conj(g, x)
               for g in range(group.order) for x in range(group.order))
    subgroups = (classify_subgroups(group).representatives if name in RUNGS
                 else all_subgroups(group))
    for sub in subgroups:
        assert normalizer(group, sub).elements == \
            normalizer_by_all_conjugates(group, sub), sub.elements


def test_normalizer_and_abelianization_refuse_a_subgroup_of_another_group():
    # <r^2> of C4 has the elements (0, 2), which D4 would read as its own
    d4, c4 = build_group(name="D4"), build_group(name="C4")
    r2 = next(s for s in all_subgroups(c4) if s.order == 2)
    for fn in (normalizer, abelianization):
        with pytest.raises(ValueError, match="another group"):
            fn(d4, r2)
    assert abelianization(c4, r2) == [2]


def test_normalizer_checks_the_orbit_count():
    group = build_group(name="S3")
    c2 = next(s for s in all_subgroups(group) if s.order == 2)
    assert len(classify_subgroups(group).classes[1]) == 3
    # identity maps in place of the conjugations: every g seems to fix C2,
    # against its class of three
    group.__dict__["conjugations"] = (tuple(range(6)),) * 6
    with pytest.raises(InternalCheckError, match="class size"):
        normalizer(group, c2)
