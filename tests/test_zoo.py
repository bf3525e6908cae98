"""A zoo of permutation groups outside the library, each engine against its oracle.

The library's groups are cyclic, dihedral, S2-S4, A4, V4 and Q8, and the
test rungs are products with elementary abelian 2-groups.  The groups
below add shapes no other test reaches: a non-solvable group (A5), the
2-groups Q16, SD16, M16 and C4 wr C2, a non-split metacyclic group
(C3 x| C4), a Frobenius group (F20) and GL(2,3) in its action on the 8
nonzero vectors of F_3^2, plus seeded random pairs of permutations.

Every group is checked on its subgroup lattice, its conjugacy
classification (whole and inside each class representative), its table
of marks, its orbit counts, the abelianization of every Weyl group and
the double coset plans of a grid of class pairs, each against the
explicit construction in `tests/oracles.py`.  The canonical-parent
enumeration of the lattice also runs, with the order limit lifted, on
S5, S4 x S3 and PSL(2,7).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from f1gtheory import groups
from f1gtheory.burnside import build_burnside
from f1gtheory.groups import (abelianization, all_subgroups, build_group,
                              classify_subgroups)
from f1gtheory.mackey import double_coset_plan, subgroup_context

from oracles import (abelianization_by_relations, all_subgroups_by_closure,
                     all_subgroups_by_cosets, classify_by_all_conjugates,
                     dense_marks, double_coset_plan_by_contexts,
                     double_coset_reps_by_products, greedy_generators_by_closure,
                     orbit_lengths_by_cosets, weyl_group)

# name: (generators in 1-based cycle notation, degree, order)
ZOO = {
    "A5": (["(1 2 3 4 5)", "(1 2 3)"], 5, 60),
    # <a, b | a^8 = 1, b^2 = a^4, b a b^-1 = a^-1>, right regular on a^i -> i + 1
    # and a^i b -> i + 9
    "Q16": (["(1 2 3 4 5 6 7 8)(9 16 15 14 13 12 11 10)",
             "(1 9 5 13)(2 10 6 14)(3 11 7 15)(4 12 8 16)"], 16, 16),
    # x -> x + 1 and x -> 3x (SD16), x -> 5x (M16) on Z/8, point i + 1 for i
    "SD16": (["(1 2 3 4 5 6 7 8)", "(2 4)(3 7)(6 8)"], 8, 16),
    "M16": (["(1 2 3 4 5 6 7 8)", "(2 6)(4 8)"], 8, 16),
    "C4xC4": (["(1 2 3 4)", "(5 6 7 8)"], 8, 16),
    # C3 x| C4: the 4-cycle's generator inverts the 3-cycle; times C3
    "(C3:C4)xC3": (["(1 2 3)", "(2 3)(4 5 6 7)", "(8 9 10)"], 10, 36),
    # x -> x + 1 and x -> 2x on F_5
    "F20": (["(1 2 3 4 5)", "(2 3 5 4)"], 5, 20),
    "S3xS3": (["(1 2 3)", "(1 2)", "(4 5 6)", "(4 5)"], 6, 36),
    "C2xA4": (["(1 2)(3 4)", "(1 2 3)", "(5 6)"], 6, 24),
    "C4wrC2": (["(1 2 3 4)", "(1 5)(2 6)(3 7)(4 8)"], 8, 32),
    # [[1,1],[0,1]], [[0,1],[2,0]] and [[2,0],[0,1]] on the vectors
    # (0,1), (0,2), (1,0), (1,1), (1,2), (2,0), (2,1), (2,2) as points 1..8
    "GL(2,3)": (["(1 4 7)(2 8 5)", "(1 3 2 6)(4 5 8 7)", "(3 6)(4 7)(5 8)"], 8, 48),
}

RANDOM_SEEDS = range(8)


def _cycles(perm):
    """1-based cycle notation of a 0-based image tuple; "()" for the identity."""
    seen, out = set(), ""
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = perm[x]
        out += "(" + " ".join(cycle) + ")"
    return out or "()"


def random_pair(seed):
    """Two seeded permutations on 4 to 6 points, neither the identity, whose
    closure has order 8..64.

    Each one permutes the two blocks of one random split of the points
    within themselves, so subdirect products turn up besides S_n and A_n.
    """
    rng = random.Random(f"zoo:{seed}")
    while True:
        degree = rng.randint(4, 6)
        points = list(range(degree))
        rng.shuffle(points)
        cut = rng.randint(1, degree - 1)
        gens = []
        for _ in range(2):
            image = list(range(degree))
            for block in (points[:cut], points[cut:]):
                for x, y in zip(block, rng.sample(block, len(block))):
                    image[x] = y
            gens.append(_cycles(image))
        group = build_group(generators=gens, degree=degree)
        if "()" not in gens and 8 <= group.order <= 64:
            return gens, degree


def zoo_group(name):
    if name.startswith("random"):
        gens, degree = random_pair(int(name[len("random"):]))
        return build_group(generators=gens, degree=degree)
    gens, degree, order = ZOO[name]
    group = build_group(generators=gens, degree=degree)
    assert group.order == order, name
    return group


NAMES = list(ZOO) + [f"random{seed}" for seed in RANDOM_SEEDS]


def _class_elements(classification):
    return tuple(tuple(sub.elements for sub in cls) for cls in classification.classes)


def test_a5_has_the_classical_subgroup_count():
    # A5, the rotation group of the icosahedron: the trivial group, 15 C2
    # (one per involution), 10 C3 and 6 C5 (two generators each of 20
    # elements of order 3 and 24 of order 5), 5 Klein groups (the Sylow
    # 2-subgroups), 10 S3 and 6 D5 (the normalizers of the C3 and C5),
    # 5 A4 (the normalizers of the Klein groups) and A5 itself: 59
    # subgroups in 9 classes, each type one class.  Source: the element
    # count of the icosahedral group and Sylow's theorems, as above; the
    # table of marks of A5 in GAP's table of marks library (TomLib,
    # `TableOfMarks("A5")`) has the same 9 rows.
    group = zoo_group("A5")
    classes = classify_subgroups(group).classes
    assert len(all_subgroups(group)) == 59 and len(classes) == 9
    assert [(cls[0].order, len(cls)) for cls in classes] == [
        (1, 1), (2, 15), (3, 10), (4, 5), (5, 6), (6, 10), (10, 6), (12, 5), (60, 1)]


@pytest.mark.parametrize("name", NAMES)
def test_lattice_and_classification_match_the_oracles(name):
    group = zoo_group(name)
    subgroups = all_subgroups_by_closure(group)
    assert tuple(sub.elements for sub in all_subgroups(group)) == subgroups
    assert _class_elements(classify_subgroups(group)) == \
        classify_by_all_conjugates(group, range(group.order), subgroups)
    for rep in classify_subgroups(group).representatives:
        assert _class_elements(classify_subgroups(group, rep.elements)) == \
            classify_by_all_conjugates(group, rep.elements, subgroups), rep.elements


# past groups.SUBGROUP_ENUMERATION_LIMIT: (generators, degree, order)
PAST_THE_LIMIT = {
    "S5": (["(1 2 3 4 5)", "(1 2)"], 5, 120),
    "S4xS3": (["(1 2 3 4)", "(1 2)", "(5 6 7)", "(5 6)"], 7, 144),
    "PSL(2,7)": (["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)", "(1 2)(3 6)"], 7, 168),
}


@pytest.mark.parametrize("name", NAMES + list(PAST_THE_LIMIT))
def test_canonical_parents_reach_each_subgroup_once(name, monkeypatch):
    """The lattice against the cyclic extension by every coset, its
    recorded generators against greedy closures, and one accepted
    extension per subgroup but the trivial one."""
    if name in PAST_THE_LIMIT:
        monkeypatch.setattr(groups, "SUBGROUP_ENUMERATION_LIMIT", 1024)
        gens, degree, order = PAST_THE_LIMIT[name]
        group = build_group(generators=gens, degree=degree)
        assert group.order == order
    else:
        group = zoo_group(name)
    real, extensions = groups._extend, []

    def extend(group, h, gens):
        extensions.append((tuple(gens), real(group, h, gens)))
        return extensions[-1][1]

    monkeypatch.setattr(groups, "_extend", extend)
    subgroups = tuple(sub.elements for sub in all_subgroups(group))
    assert subgroups == all_subgroups_by_cosets(group)
    recorded = dict(zip(subgroups, groups._lattice(group).generators))
    assert all(gens == greedy_generators_by_closure(group, sub)
               for sub, gens in recorded.items())
    # an extension is accepted exactly when it records its generators
    assert sum(recorded[k] == gens for gens, k in extensions) == len(subgroups) - 1
    assert group.generators == greedy_generators_by_closure(group, range(group.order))


@pytest.mark.parametrize("name", NAMES)
def test_marks_orbit_counts_and_weyl_groups_match_the_oracles(name):
    group = zoo_group(name)
    ring = build_burnside(group)
    assert ring.marks == dense_marks(ring)
    assert ring.orbit_counts == tuple(
        tuple(tuple(sorted(Counter(lengths).items())) for lengths in row)
        for row in orbit_lengths_by_cosets(ring))
    for rep in ring.classification.representatives:
        assert abelianization(group, rep) == \
            abelianization_by_relations(weyl_group(group, rep)), rep.elements


def _oracle_right_side(terms, i, rank):
    """The double coset sum of basis element i of A(H) in A(K), from oracle terms."""
    rhs = [0] * rank
    for inner, to_k in terms:
        for j, v in enumerate(inner.restriction[i]):
            rhs[to_k[j]] += v
    return tuple(rhs)


@pytest.mark.parametrize("name", NAMES)
def test_double_coset_plans_match_the_oracles(name):
    # every class representative H against a grid of representatives K
    group = zoo_group(name)
    reps = classify_subgroups(group).representatives
    grid = reps[::max(1, len(reps) // 6)] + reps[-1:]
    for h in reps:
        h_ring = subgroup_context(group, h.elements).ring
        for k in grid:
            plan = double_coset_plan(group, h.elements, k.elements)
            oracle_reps, terms = double_coset_plan_by_contexts(
                group, h.elements, k.elements)
            assert list(plan.reps) == list(oracle_reps) == \
                double_coset_reps_by_products(group, k.elements, h.elements)
            k_rank = build_burnside(group, k.elements).rank
            for i in range(h_ring.rank):
                report = plan.check(h_ring.basis_element(i))
                assert report.ok and report.rhs == _oracle_right_side(terms, i, k_rank), \
                    (h.elements, k.elements, i)
