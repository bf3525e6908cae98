from __future__ import annotations

import json
import random
import sys

import pytest

from f1gtheory.burnside import build_burnside, linear_dimension
from f1gtheory import cli, mackey
from f1gtheory.cli import main
from f1gtheory.errors import InternalCheckError
from f1gtheory import groups
from f1gtheory.groups import all_subgroups, build_group, library_names
from f1gtheory.mackey import (DoubleCosetPlan, SubgroupContext,
                              check_double_coset, check_frobenius, conjugate,
                              double_coset_plan, double_coset_reps,
                              green_morphism_check, induce, restrict,
                              subgroup_context, transport)
from f1gtheory.constructions import MonoidHom, base_change, restrict_scalars
from f1gtheory.modules import group_monoid
from f1gtheory.reports import CheckReport
from f1gtheory.sampling import random_element

from conftest import group_of, ring_of
from oracles import (carry, class_correspondence, double_coset_plan_by_contexts,
                     double_coset_reps_by_products, double_coset_sum_per_y,
                     reindexed_context)


def context_for(group, order, pick=0):
    matches = [s for s in all_subgroups(group) if s.order == order]
    return subgroup_context(group, matches[pick].elements)


def test_restrict_coset_to_its_own_subgroup():
    group = build_group(name="S3")
    ring = ring_of("S3")
    ctx = context_for(group, 2)
    # class index 1 is the order-2 class; S3/C2 restricted to C2 is a fixed
    # point plus a free orbit
    x = ring.basis_element(1)
    restricted = restrict(ctx, x)
    assert restricted.coeffs == (1, 1)


def test_restrict_free_orbit():
    group = build_group(name="C4")
    ring = ring_of("C4")
    ctx = context_for(group, 2)
    free = ring.basis_element(0)
    assert restrict(ctx, free).coeffs == (2, 0)


def test_induce_unit_gives_coset_class():
    group = build_group(name="S3")
    ring = ring_of("S3")
    for order, class_index in ((2, 1), (3, 2)):
        ctx = context_for(group, order)
        induced = induce(ctx, ctx.ring.one())
        assert induced == ring.basis_element(class_index)


def test_induce_free_orbit_gives_free_orbit():
    group = build_group(name="Q8")
    ring = ring_of("Q8")
    ctx = context_for(group, 4)
    sub_free = ctx.ring.basis_element(0)
    assert induce(ctx, sub_free) == ring.basis_element(0)


def test_restriction_is_linear():
    group = build_group(name="D4")
    ring = ring_of("D4")
    ctx = context_for(group, 4)
    rng = random.Random(2)
    for _ in range(10):
        x = random_element(ring, rng)
        y = random_element(ring, rng)
        assert restrict(ctx, x + y) == restrict(ctx, x) + restrict(ctx, y)
        assert restrict(ctx, ctx.outer_ring.one()) == ctx.ring.one()


def test_restriction_is_a_ring_map():
    group = build_group(name="D4")
    ctx = context_for(group, 4)
    ring = ring_of("D4")
    rng = random.Random(5)
    for _ in range(10):
        x = random_element(ring, rng)
        y = random_element(ring, rng)
        assert restrict(ctx, x * y) == ctx.ring.mul(restrict(ctx, x),
                                                    restrict(ctx, y))


def test_frobenius_c4_example():
    group = build_group(name="C4")
    ring = ring_of("C4")
    sub = next(s for s in all_subgroups(group) if s.order == 2)
    ctx = subgroup_context(group, sub.elements)
    x = ring.basis_element(0)
    y = ctx.ring.one()
    lhs = induce(ctx, ctx.ring.mul(restrict(ctx, x), y))
    rhs = ring.mul(x, induce(ctx, y))
    assert lhs == rhs
    assert lhs.coeffs == (2, 0, 0)


def test_frobenius_random_instances():
    rng = random.Random(31)
    for name in ("S3", "D4"):
        group = build_group(name=name)
        ring = ring_of(name)
        subs = all_subgroups(group)
        for _ in range(25):
            h = subs[rng.randrange(len(subs))]
            ctx = subgroup_context(group, h.elements)
            x = random_element(ring, rng)
            y = random_element(ctx.ring, rng)
            report = check_frobenius(group, h.elements, x, y)
            assert report.ok, (name, h.elements, x.coeffs, y.coeffs)


def test_double_coset_reps_count():
    group = build_group(name="S3")
    c2 = next(s for s in all_subgroups(group) if s.order == 2)
    reps = double_coset_reps(group, c2.elements, c2.elements)
    assert len(reps) == 2
    assert reps[0] == 0


def test_double_coset_formula_spot():
    group = build_group(name="D4")
    subs = all_subgroups(group)
    h = next(s for s in subs if s.order == 2)
    k = next(s for s in subs if s.order == 4)
    ctx = subgroup_context(group, h.elements)
    for i in range(ctx.ring.rank):
        report = check_double_coset(group, h.elements, k.elements,
                                    ctx.ring.basis_element(i))
        assert report.ok
        assert report.lhs == report.rhs


def test_double_coset_full_s3():
    group = build_group(name="S3")
    subs = all_subgroups(group)
    for h in subs:
        ctx = subgroup_context(group, h.elements)
        for k in subs:
            for i in range(ctx.ring.rank):
                report = check_double_coset(group, h.elements, k.elements,
                                            ctx.ring.basis_element(i))
                assert report.ok


def test_conjugate_preserves_dimension():
    group = build_group(name="D4")
    sub = next(s for s in all_subgroups(group) if s.order == 2 and 0 in s.elements)
    ctx = subgroup_context(group, sub.elements)
    rng = random.Random(8)
    for g in range(group.order):
        y = random_element(ctx.ring, rng)
        new_ctx, moved = conjugate(g, ctx, y)
        assert linear_dimension(moved) == linear_dimension(y)


def test_transport_requires_matching_rings():
    group = build_group(name="C4")
    sub = next(s for s in all_subgroups(group) if s.order == 2)
    ctx = subgroup_context(group, sub.elements)
    ident = tuple(range(group.order))
    y = ctx.ring.basis_element(0)
    assert transport(ctx.ring, ctx.ring, ident, y) == y


def test_transport_refuses_a_map_that_is_not_a_class_bijection():
    # V4 onto the normal Klein subgroup of S4: its three order-2 subgroups
    # land in one S4 class
    v4, s4 = build_group(name="V4"), build_group(name="S4")
    klein = next(s.elements for s in all_subgroups(s4) if s.order == 4
                 and all(s4.mul(x, x) == s4.identity for x in s.elements)
                 and all(s4.conj(g, x) in s.elements
                         for g in range(s4.order) for x in s.elements))
    assert v4.identity == s4.identity == 0
    with pytest.raises(InternalCheckError, match="class bijection"):
        transport(ring_of("V4"), ring_of("S4"), klein, ring_of("V4").one())


def test_double_coset_plan_matches_per_element_oracle():
    # every (H, K) class pair and basis y of every library group of order <= 24
    for name in library_names():
        group = build_group(name=name)
        if group.order > 24:
            continue
        reps = build_burnside(group).classification.representatives
        for h in reps:
            h_ring = subgroup_context(group, h.elements).ring
            for k in reps:
                plan = double_coset_plan(group, h.elements, k.elements)
                for i in range(h_ring.rank):
                    y = h_ring.basis_element(i)
                    report = plan.check(y)
                    assert report.ok, (name, h.elements, k.elements, i)
                    assert report.rhs == double_coset_sum_per_y(
                        group, h.elements, k.elements, y), \
                        (name, h.elements, k.elements, i)


def test_double_coset_plan_takes_any_element_linearly():
    group = build_group(name="D4")
    subs = all_subgroups(group)
    rng = random.Random(11)
    for _ in range(20):
        h = subs[rng.randrange(len(subs))]
        k = subs[rng.randrange(len(subs))]
        y = random_element(subgroup_context(group, h.elements).ring, rng)
        report = check_double_coset(group, h.elements, k.elements, y)
        assert report.ok
        assert report.rhs == double_coset_sum_per_y(group, h.elements,
                                                    k.elements, y)


def test_double_coset_check_fails_with_a_coset_dropped(monkeypatch):
    group = build_group(name="S3")
    c2 = next(s for s in all_subgroups(group) if s.order == 2)
    y = subgroup_context(group, c2.elements).ring.one()
    full = check_double_coset(group, c2.elements, c2.elements, y)
    assert full.ok and len(full.reps) == 2
    real = mackey.double_coset_plan

    def dropping(*args):
        return _without_last_coset(real(*args))

    monkeypatch.setattr(mackey, "double_coset_plan", dropping)
    report = check_double_coset(group, c2.elements, c2.elements, y)
    assert not report.ok
    assert (report.h_elements, report.k_elements, report.y_coeffs,
            report.lhs) == (full.h_elements, full.k_elements, full.y_coeffs,
                            full.lhs)
    assert report.reps == full.reps[:-1] and report.rhs != full.rhs
    blob = report.to_json()
    assert list(blob) == list(full.to_json())
    assert blob["status"] == "fail" and blob["coset_sum"] == list(report.rhs)


def _without_last_coset(plan):
    return DoubleCosetPlan(plan.h_ctx, plan.k_ctx, plan.reps[:-1], plan.terms[:-1])


def _dropping_last_coset(monkeypatch, module):
    """Make `module.double_coset_plan` drop the last double coset of a plan."""
    real = mackey.double_coset_plan

    def dropping(*args):
        return _without_last_coset(real(*args))

    monkeypatch.setattr(module, "double_coset_plan", dropping)
    return dropping


def test_failures_name_the_basis_elements_that_fail(monkeypatch):
    group = build_group(name="D4")
    dropping = _dropping_last_coset(monkeypatch, mackey)
    reps = build_burnside(group).classification.representatives
    seen_failure = False
    for h in reps:
        h_ring = subgroup_context(group, h.elements).ring
        for k in reps:
            full = double_coset_plan(group, h.elements, k.elements)
            plan = dropping(group, h.elements, k.elements)
            basis = [h_ring.basis_element(i) for i in range(h_ring.rank)]
            assert full.failures() == []
            assert plan.failures() == [i for i, y in enumerate(basis)
                                       if not plan.check(y).ok]
            seen_failure |= bool(plan.failures())
    assert seen_failure


def test_mackey_check_reports_each_failing_basis_element(capsys, monkeypatch):
    group = build_group(name="S3")
    real = mackey.double_coset_plans
    monkeypatch.setattr(mackey, "double_coset_plans",
                        lambda *args: map(_without_last_coset, real(*args)))
    expected = []
    reps = build_burnside(group).classification.representatives
    for h in reps:
        h_ring = subgroup_context(group, h.elements).ring
        for k in reps:
            plan = _without_last_coset(double_coset_plan(group, h.elements, k.elements))
            for i in range(h_ring.rank):
                report = plan.check(h_ring.basis_element(i))
                if not report.ok:
                    expected.append(report.to_json())
    assert main(["mackey-check", "--group", "S3", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[0]["check"] == "double coset formula"
    assert checks[0]["instances"] == 4 * (1 + 2 + 2 + 4)
    assert expected and checks[0]["failures"] == expected


@pytest.mark.parametrize("name", library_names() + ["S4xC2"])
def test_plans_match_the_context_plan_builder(name):
    # every (H, K) class pair of every library group (all of order <= 24)
    # and of the order-48 rung: the double coset sum of each basis element
    # of A(H), against the sum over the oracle's contexts
    group = group_of(name)
    reps = build_burnside(group).classification.representatives
    for h in reps:
        h_ring = subgroup_context(group, h.elements).ring
        for k in reps:
            plan = double_coset_plan(group, h.elements, k.elements)
            oracle_reps, terms = double_coset_plan_by_contexts(
                group, h.elements, k.elements)
            assert list(plan.reps) == list(oracle_reps) == \
                double_coset_reps_by_products(group, k.elements, h.elements)
            for i in range(h_ring.rank):
                rhs = [0] * plan.k_ctx.ring.rank
                for inner, to_k in terms:
                    for j, v in enumerate(inner.restriction[i]):
                        rhs[to_k[j]] += v
                assert plan.check(h_ring.basis_element(i)).rhs == tuple(rhs), \
                    (h.elements, k.elements, i)


def test_plan_refuses_a_conjugation_that_merges_classes(monkeypatch):
    # H = K = the normal Klein subgroup of S4; classes of K cap gHg^-1 read
    # in all of S4 merge its three order-2 subgroups
    s4 = build_group(name="S4")
    klein = next(s.elements for s in all_subgroups(s4) if s.order == 4
                 and all(s4.mul(x, x) == s4.identity for x in s.elements)
                 and all(s4.conj(g, x) in s.elements
                         for g in range(s4.order) for x in s.elements))
    assert double_coset_plan(s4, klein, klein).reps
    monkeypatch.setattr(mackey, "_classify",
                        lambda group, sub: groups._classify(group, groups._lattice(group).top))
    with pytest.raises(InternalCheckError, match="class bijection"):
        double_coset_plan(s4, klein, klein)


def test_mackey_check_plans_each_class_pair_once(capsys, monkeypatch):
    calls = []
    real = mackey._double_coset_reps

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(mackey, "_double_coset_reps", counting)
    assert main(["mackey-check", "--group", "D12"]) == 0
    assert len(calls) == 16 ** 2  # one call per basis element made 1,344
    assert "double coset formula: 1344 instances, pass" in capsys.readouterr().out


@pytest.mark.parametrize("name", library_names() + ["S4xC2"])
def test_restriction_table_rows_match_restrict(name):
    # row i of a context's table is built by one from_marks; it must equal
    # the marks round trip of `restrict` on outer basis element i, for every
    # representative context and every context inside H of every plan, on
    # every library group (all of order <= 24) and on the order-48 rung
    group = group_of(name)
    reps = build_burnside(group).classification.representatives
    contexts = {}
    for h in reps:
        for k in reps:
            plan = double_coset_plan(group, h.elements, k.elements)
            for ctx in [plan.h_ctx, plan.k_ctx] + [inner for inner, _ in plan.terms]:
                contexts[ctx.sub, ctx.outer] = ctx
    assert len(contexts) > len(reps) or len(reps) == 1
    for ctx in contexts.values():
        outer = ctx.outer_ring
        assert ctx.restriction == tuple(
            restrict(ctx, outer.basis_element(i)).coeffs
            for i in range(outer.rank)), (ctx.sub, ctx.outer)


def test_check_report_builds_counterexamples_only_for_failures():
    built = []

    def counterexample(n):
        def build():
            built.append(n)
            return {"n": n}
        return build

    report = CheckReport("demo")
    for n in range(4):
        report.record(n != 2, counterexample(n))
    assert built == [2]
    assert report.to_json() == {"check": "demo", "instances": 4,
                                "status": "fail", "failures": [{"n": 2}]}


def test_green_morphism_check():
    for name in ("C4", "S3", "D4"):
        report = green_morphism_check(build_group(name=name))
        assert report.passed, name


def test_green_morphism_check_reports_each_changed_row():
    # one row of the memoized restriction table changed in each of two
    # class contexts of D4; the later class holds the earlier basis index
    group = build_group(name="D4")
    ring = build_burnside(group)
    reps = ring.classification.representatives
    expected = []
    for cls, i in ((3, 6), (5, 1)):
        ctx = subgroup_context(group, reps[cls].elements)
        rows = list(ctx.restriction)
        rows[i] = (rows[i][0] + 1,) + rows[i][1:]
        ctx.__dict__["restriction"] = tuple(rows)
        # one more free orbit K/e, of |K| points
        expected.append({"subgroup": list(reps[cls].elements), "basis_index": i,
                         "ambient_dimension": ring.coset_sizes[i],
                         "restricted_dimension": ring.coset_sizes[i] + reps[cls].order})
    report = green_morphism_check(group)
    assert report.instances == ring.rank ** 2 == 64
    assert report.failures == expected


def test_induction_transitivity():
    # ind_G_H y = ind_G_K (ind_K_H y) for H <= K <= G inside C4
    group = build_group(name="C4")
    ring = ring_of("C4")
    k_sub = next(s for s in all_subgroups(group) if s.order == 2)
    k_ctx = subgroup_context(group, k_sub.elements)
    h_in_k = subgroup_context(group, (0,), k_sub.elements)
    full = subgroup_context(group, (0,))
    y = full.ring.one()
    via_k = induce(k_ctx, induce(h_in_k, h_in_k.ring.one()))
    direct = induce(full, y)
    assert via_k == direct


def test_restrict_and_induce_match_module_oracle():
    # restriction of scalars and base change along the monoid inclusion,
    # on every basis class of every library group of order <= 24
    for name in library_names():
        group = build_group(name=name)
        if group.order > 24:
            continue
        ring = build_burnside(group)
        for rep in ring.classification.representatives:
            ctx = subgroup_context(group, rep.elements)
            sub = reindexed_context(group, rep.elements)
            to_ctx = class_correspondence(sub.ring, sub.embedding, ctx.ring)
            incl = MonoidHom(group_monoid(sub.group), group_monoid(group),
                             (0,) + tuple(e + 1 for e in sub.embedding))
            for i in range(ring.rank):
                restricted = sub.ring.decompose(
                    restrict_scalars(incl, ring._coset(i)))
                assert restrict(ctx, ring.basis_element(i)) == \
                    carry(restricted, to_ctx, ctx.ring), (name, rep.elements, i)
            for i in range(ctx.ring.rank):
                induced = base_change(incl, sub.ring._coset(to_ctx.index(i)))
                assert induce(ctx, ctx.ring.basis_element(i)) == \
                    ring.decompose(induced), (name, rep.elements, i)



def test_context_builds_each_ring_once(monkeypatch):
    calls = []
    original = mackey._burnside

    def counting(group, sub):
        calls.append(group)
        return original(group, sub)

    monkeypatch.setattr(mackey, "_burnside", counting)
    ambient = build_group(name="S3")
    subgroups = all_subgroups(ambient)
    c2 = next(i for i, s in enumerate(subgroups) if s.order == 2)
    ctx = SubgroupContext(ambient, c2, len(subgroups) - 1)
    rings = [ctx.ring for _ in range(3)]
    assert len(calls) == 1 and rings[0] is rings[1] is rings[2]
    outer_rings = [ctx.outer_ring for _ in range(3)]
    assert len(calls) == 2 and outer_rings[0] is outer_rings[2]


def _assert_context_matches(ctx, oracle, embed):
    """ctx in ambient ids against a re-indexed oracle; embed: oracle ids ->
    ambient ids."""
    mapped = [tuple(tuple(sorted(embed[e] for e in member.elements))
                    for member in cls)
              for cls in oracle.ring.classification.classes]
    assert mapped == [tuple(member.elements for member in cls)
                      for cls in ctx.ring.classification.classes]
    assert ctx.ring.marks == oracle.ring.marks
    assert ctx.class_map == oracle.class_map


def test_contexts_match_reindexed_construction():
    # every representative H of every library group of order <= 24, and
    # every class representative L of A(H) as a context inside H
    for name in library_names():
        group = build_group(name=name)
        if group.order > 24:
            continue
        for h in build_burnside(group).classification.representatives:
            ctx = subgroup_context(group, h.elements)
            oracle = reindexed_context(group, h.elements)
            _assert_context_matches(ctx, oracle, oracle.embedding)
            for low in ctx.ring.classification.representatives:
                inner = subgroup_context(group, low.elements, h.elements)
                inner_oracle = reindexed_context(
                    oracle.group, [oracle.embedding.index(e) for e in low.elements])
                _assert_context_matches(
                    inner, inner_oracle,
                    [oracle.embedding[e] for e in inner_oracle.embedding])


def test_mackey_check_enumerates_one_lattice(capsys, monkeypatch):
    enumerated = []
    real = groups.all_subgroups.__wrapped__

    @groups._memo_on_group
    def counting(group):
        enumerated.append(group)
        return real(group)

    monkeypatch.setattr(groups, "all_subgroups", counting)
    assert main(["mackey-check", "--group", "D12"]) == 0
    assert len(enumerated) == 1 and enumerated[0].name == "D12"
    assert "double coset formula: 1344 instances, pass" in capsys.readouterr().out


@pytest.mark.parametrize("build", [
    subgroup_context, build_burnside,
    lambda group, elements: double_coset_reps(group, elements, (0,)),
    lambda group, elements: double_coset_reps(group, (0,), elements),
], ids=["subgroup_context", "build_burnside", "double_coset_reps-k",
        "double_coset_reps-h"])
@pytest.mark.parametrize("elements,message", [
    ((0, 1, 2), "not closed"),
    ((), "at least one element"),
    ((0, 0, 1), "repeats"),
    ((0, 6), "outside"),
], ids=["not-closed", "empty", "repeated", "out-of-range"])
def test_boundaries_reject_non_subgroups(build, elements, message):
    with pytest.raises(ValueError, match=message):
        build(build_group(name="S3"), elements)


def test_context_refuses_a_subgroup_outside_its_outer_one():
    group = build_group(name="S3")
    c2, c3 = (next(s.elements for s in all_subgroups(group) if s.order == n)
              for n in (2, 3))
    with pytest.raises(ValueError, match="does not lie in"):
        subgroup_context(group, c2, c3)
    with pytest.raises(ValueError, match="not closed"):
        subgroup_context(group, (0,), (0, 1, 2))
    assert subgroup_context(group, (0,), c3).outer_ring.elements == c3


def test_mackey_check_validates_only_at_public_entry_points(capsys, monkeypatch):
    # derived subgroups travel by lattice id: nothing inside the plans, the
    # contexts, the rings or the classifications re-validates one
    internal = {mackey._plan.__code__, mackey.BurnsideRing.__init__.__code__,
                groups._classify.__wrapped__.__code__} | {
        attr.func.__code__ for attr in vars(SubgroupContext).values()
        if hasattr(attr, "func")}
    callers, inside = [], []
    real = groups._subgroup_elements

    def watched(group, elements=None):
        frame = sys._getframe(1)
        callers.append(frame.f_back.f_code.co_name)
        while frame is not None:
            if frame.f_code in internal:
                inside.append(frame.f_code.co_name)
            frame = frame.f_back
        return real(group, elements)

    monkeypatch.setattr(groups, "_subgroup_elements", watched)
    assert main(["mackey-check", "--group", "D12"]) == 0
    assert "double coset formula: 1344 instances, pass" in capsys.readouterr().out
    assert callers and set(callers) <= {"build_burnside", "classify_subgroups",
                                        "subgroup_context", "double_coset_reps"}
    assert inside == []


def test_mackey_check_memoizes_by_lattice_id(capsys, monkeypatch):
    seen = []
    real = cli._group_from_args

    def keep(args):
        seen.append(real(args))
        return seen[-1]

    monkeypatch.setattr(cli, "_group_from_args", keep)
    assert main(["mackey-check", "--group", "D12"]) == 0
    capsys.readouterr()
    memos = {slot: memo for slot, memo in vars(seen[0]).items()
             if slot in ("f1gtheory.mackey._context", "f1gtheory.burnside._burnside",
                         "f1gtheory.groups._classify")}
    assert len(memos) == 3
    for slot, memo in memos.items():
        assert memo and all(type(arg) is int for key in memo for arg in key), slot
