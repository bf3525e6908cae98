from __future__ import annotations

import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1gtheory.groups import build_group
from f1gtheory.constructions import (F1, MonoidHom, are_isomorphic,
                                     base_change, base_change_hom,
                                     find_section, generating_set,
                                     identity_monoid_hom, pushout,
                                     restrict_scalars, smash)
from f1gtheory.modules import (FiniteModule, ModuleHom, PointedMonoid,
                               coset_module, detect_group, diagonal_smash,
                               free_module, group_monoid, is_cofibration,
                               module_from_json, monoid_from_json, quotient,
                               quotient_with_projection, submodule_inclusion,
                               wedge, wedge_with_inclusions)

from oracles import _small_modules, identity_hom, monoid_pool, permute_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def nilpotent_monoid():
    # 0, 1, x with x*x = 0
    return PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))


def test_monoid_validation():
    with pytest.raises(ValueError):
        # element 2 is not absorbed by zero
        PointedMonoid(3, ((0, 0, 1), (0, 1, 2), (1, 2, 0)))
    with pytest.raises(ValueError):
        # (x*x)*x = y*x = 1 but x*(x*x) = x*y = 0
        PointedMonoid(4, ((0, 0, 0, 0), (0, 1, 2, 3),
                          (0, 2, 3, 0), (0, 3, 1, 0)))


def test_group_monoid_roundtrip():
    group = build_group(name="S3")
    m = group_monoid(group)
    assert m.size == 7
    assert m.is_group_monoid
    for a in range(group.order):
        for b in range(group.order):
            assert m.mul[a + 1][b + 1] == group.mul(a, b) + 1
    again = detect_group(PointedMonoid(m.size, m.mul))
    assert again.group is not None
    assert again.group.order == 6


def test_detect_group_rejects_zero_divisors():
    with pytest.raises(ValueError):
        detect_group(nilpotent_monoid())


def test_detect_group_rejects_missing_inverses():
    # 0, 1, e with e*e = e: no zero divisors, but e has no inverse
    idem = PointedMonoid(3, ((0, 0, 0), (0, 1, 2), (0, 2, 2)))
    with pytest.raises(ValueError, match="inverses"):
        detect_group(idem)


def test_free_module_size_and_orbits():
    m = group_monoid(build_group(name="C4"))
    f = free_module(m, 3)
    assert f.size == 3 * 4 + 1
    assert len(f.orbits()) == 3
    gens = generating_set(f)
    assert len(gens) == 3


def test_coset_module_sizes():
    group = build_group(name="S3")
    trivial = coset_module(group, (0,))
    assert trivial.size == 7
    whole = coset_module(group, tuple(range(6)))
    assert whole.size == 2


@pytest.mark.parametrize("elements,message", [
    ((0, 1, 2), "is not closed under multiplication"),
    ((0, 7), "outside 0..5"),
], ids=["not-closed", "out-of-range"])
def test_coset_module_refuses_a_non_subgroup(elements, message):
    with pytest.raises(ValueError, match=message):
        coset_module(build_group(name="S3"), elements)


def test_smash_over_f1_counts():
    s = free_module(F1, 3)
    t = free_module(F1, 4)
    product = smash(s, t)
    assert product.size == 3 * 4 + 1


def test_diagonal_smash_size():
    m = group_monoid(build_group(name="C2"))
    s = free_module(m, 1)
    t = free_module(m, 2)
    d = diagonal_smash(s, t)
    assert d.size == (s.size - 1) * (t.size - 1) + 1


def test_wedge_inclusion_is_cofibration():
    m = group_monoid(build_group(name="C3"))
    a = free_module(m, 1)
    b = coset_module(build_group(name="C3"), (0, 1, 2))
    w, incls = wedge_with_inclusions([a, b])
    assert w.size == a.size + b.size - 1
    for incl in incls:
        ok, retraction = is_cofibration(incl)
        assert ok
        for x in range(incl.source.size):
            assert retraction.map[incl.map[x]] == x


def test_non_cofibration_detected():
    m = nilpotent_monoid()
    # a*x = b, b*x = 0: the submodule {0, b} has no retraction
    mod = FiniteModule(m, 3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
    incl = submodule_inclusion(mod, [2])
    ok, retraction = is_cofibration(incl)
    assert not ok and retraction is None


def test_quotient_collapses_submodule():
    group = build_group(name="C2")
    m = group_monoid(group)
    a = free_module(m, 1)
    w, incls = wedge_with_inclusions([a, free_module(m, 1)])
    q, proj = quotient_with_projection(incls[0])
    assert q.size == w.size - a.size + 1
    for x in range(a.size):
        assert proj.map[incls[0].map[x]] == 0
    assert quotient(incls[0]).size == q.size


def test_find_section_of_projection():
    m = group_monoid(build_group(name="C3"))
    a = free_module(m, 1)
    w, incls = wedge_with_inclusions([a, free_module(m, 2)])
    _, proj = quotient_with_projection(incls[0])
    section = find_section(proj)
    assert section is not None
    for x in range(section.source.size):
        assert proj.map[section.map[x]] == x


def test_pushout_of_wedge_legs():
    m = group_monoid(build_group(name="C2"))
    a = free_module(m, 1)
    b, b_incls = wedge_with_inclusions([a, free_module(m, 1)])
    c, c_incls = wedge_with_inclusions([a, free_module(m, 2)])
    p, leg1, leg2 = pushout(b_incls[0], c_incls[0])
    # gluing b and c along a leaves 1 + 1 + 2 free generators minus the shared one
    assert p.size == b.size + c.size - a.size
    for x in range(a.size):
        assert leg1.map[b_incls[0].map[x]] == leg2.map[c_incls[0].map[x]]


def test_pushout_needs_cofibration():
    m = nilpotent_monoid()
    mod = FiniteModule(m, 3, ((0, 0, 0), (0, 1, 2), (0, 2, 0)))
    incl = submodule_inclusion(mod, [2])
    other = free_module(m, 1)
    hom = ModuleHom(incl.source, other, (0, 0))
    with pytest.raises(ValueError):
        pushout(incl, hom)


def test_base_change_of_free_is_free():
    src = group_monoid(build_group(name="C2"))
    dst = group_monoid(build_group(name="C4"))
    # C2 -> C4 doubling embedding
    alpha = MonoidHom(src, dst, (0, 1, 3))
    moved = base_change(alpha, free_module(src, 2))
    ok, _ = are_isomorphic(moved, free_module(dst, 2))
    assert ok


def test_base_change_along_identity():
    m = group_monoid(build_group(name="S3"))
    s = coset_module(build_group(name="S3"), (0, 1))
    moved = base_change(identity_monoid_hom(m), s)
    ok, _ = are_isomorphic(moved, s)
    assert ok


def test_base_change_hom_preserves_composition():
    src = group_monoid(build_group(name="C2"))
    dst = group_monoid(build_group(name="C1"))
    alpha = MonoidHom(src, dst, (0, 1, 1))
    a = free_module(src, 1)
    w, incls = wedge_with_inclusions([a, free_module(src, 1)])
    moved = base_change_hom(alpha, incls[0])
    assert moved.source.monoid == dst
    ok, _ = is_cofibration(moved)
    assert ok


def test_restrict_scalars_carrier_is_preserved():
    src = group_monoid(build_group(name="C2"))
    dst = group_monoid(build_group(name="C4"))
    alpha = MonoidHom(src, dst, (0, 1, 3))
    s = free_module(dst, 1)
    restricted = restrict_scalars(alpha, s)
    assert restricted.size == s.size
    assert restricted.monoid == src


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["C2", "C3", "C4", "S3"]), st.integers(0, 10**6))
def test_permuted_module_is_isomorphic(name, seed):
    group = build_group(name=name)
    s = coset_module(group, (0,))
    rng = random.Random(seed)
    perm = [0] + rng.sample(range(1, s.size), s.size - 1)
    moved, relabel = permute_module(s, perm)
    ok, phi = are_isomorphic(s, moved)
    assert ok
    assert phi is not None
    for x in range(s.size):
        for m in range(s.monoid.size):
            assert phi[s.action[x][m]] == moved.action[phi[x]][m]


def test_non_isomorphic_modules():
    group = build_group(name="C2")
    free = coset_module(group, (0,))
    fixed = coset_module(group, (0, 1))
    two_fixed = wedge([fixed, fixed])
    ok, _ = are_isomorphic(free, two_fixed)
    assert not ok


# --- the searches against exhaustive enumeration ---------------------------

def _relabelings(s):
    """s under every basepoint-fixing permutation of its carrier."""
    return [permute_module(s, (0,) + rest)[0]
            for rest in itertools.permutations(range(1, s.size))]


def _all_homs(src, dst):
    """Every equivariant basepoint-fixing map src -> dst, in lex order."""
    homs = []
    for rest in itertools.product(range(dst.size), repeat=src.size - 1):
        phi = (0,) + rest
        if all(phi[src.action[x][m]] == dst.action[phi[x]][m]
               for x in range(src.size) for m in range(src.monoid.size)):
            homs.append(phi)
    return homs


def _closed_subsets(s):
    """Every action-closed set of nonzero points, the empty one included."""
    for r in range(s.size):
        for members in itertools.combinations(range(1, s.size), r):
            keep = set(members) | {0}
            if all(s.action[x][m] in keep
                   for x in keep for m in range(s.monoid.size)):
                yield members


SMALL_MODULES = [(m, _small_modules(m, 4)) for m in monoid_pool(4)]


def test_isomorphism_search_matches_exhaustive():
    pairs = non_isomorphic = 0
    for m, mods in SMALL_MODULES:
        relabeled = [t for s in mods for t in _relabelings(s)]
        for s in mods:
            gens = generating_set(s)
            for t in relabeled:
                if t.size != s.size:
                    continue
                isos = [phi for phi in _all_homs(s, t) if len(set(phi)) == s.size]
                ok, phi = are_isomorphic(s, t)
                assert ok == bool(isos)
                pairs += 1
                non_isomorphic += not ok
                if ok:
                    assert phi in isos
                    if not m.is_group_monoid:
                        # the first witness in the order of generator images
                        assert phi == min(isos, key=lambda f: [f[g] for g in gens])
    assert (pairs, non_isomorphic) == (573, 422)


def test_retraction_and_section_searches_match_exhaustive():
    cases = not_split = no_section = 0
    for _, mods in SMALL_MODULES:
        for s in (t for mod in mods for t in _relabelings(mod)):
            for members in _closed_subsets(s):
                incl = submodule_inclusion(s, members)
                retractions = [r for r in _all_homs(s, incl.source)
                               if all(r[y] == x for x, y in enumerate(incl.map))]
                ok, retraction = is_cofibration(incl)
                assert ok == bool(retractions)
                if ok:
                    assert retraction.map == retractions[0]
                q, proj = quotient_with_projection(incl)
                sections = [sg for sg in _all_homs(q, s)
                            if all(proj.map[y] == x for x, y in enumerate(sg))]
                section = find_section(proj)
                assert (section is not None) == bool(sections)
                if section is not None:
                    assert section.map == sections[0]
                cases += 1
                not_split += not ok
                no_section += section is None
    assert (cases, not_split, no_section) == (832, 52, 120)


def test_module_json_roundtrip():
    m = group_monoid(build_group(name="C2"))
    s = free_module(m, 2)
    again = module_from_json(s.to_json(), m)
    assert again == s


def test_monoid_json_roundtrip():
    m = nilpotent_monoid()
    again = monoid_from_json(m.to_json())
    assert again.mul == m.mul


def test_monoid_from_json_attaches_the_group():
    loaded = monoid_from_json(group_monoid(build_group(name="S3")).to_json())
    assert loaded.group is not None
    assert loaded.group.cayley == build_group(name="S3").cayley
    with open(os.path.join(ROOT, "perfbench", "monoid3.json")) as fh:
        assert monoid_from_json(json.load(fh)).group is None


def test_module_validation():
    m = group_monoid(build_group(name="C2"))
    with pytest.raises(ValueError):
        # unit column must act as the identity
        FiniteModule(m, 2, ((0, 0, 0), (0, 0, 1)))


def test_hom_validation():
    m = group_monoid(build_group(name="C2"))
    s = free_module(m, 1)
    with pytest.raises(ValueError):
        # swapping the orbit breaks equivariance with the basepoint
        ModuleHom(s, s, (1, 0, 2))
    ident = identity_hom(s)
    assert ident.compose(ident).map == ident.map
