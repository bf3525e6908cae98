"""Acceptance gate: one test per acceptance criterion, one verdict line each.

Each test prints exactly one [PASS]/[FAIL] line naming the criterion before
asserting, so a plain `pytest -v tests/test_acceptance.py -s` reads as a
checklist.  Seeds are fixed; nothing here depends on wall clock or host.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys

from f1gtheory.burnside import build_burnside
from f1gtheory.constructions import (are_isomorphic, base_change,
                                     base_change_hom, diamond, find_section,
                                     pushout)
from f1gtheory.groups import (all_subgroups, build_group,
                              conjugacy_classes_of_elements, library_names)
from f1gtheory.gtheory import (cartan_zero, count_simple_factors,
                               g0_presentation, g1_via_splitting)
from f1gtheory.lambda_ops import (lambda_k, verify_lambda_ring,
                                  verify_pre_lambda)
from f1gtheory.mackey import (check_double_coset, check_frobenius,
                              subgroup_context)
from f1gtheory.modules import (diagonal_smash, free_module, group_monoid,
                               is_cofibration, quotient_with_projection, wedge)
from f1gtheory.polynomials import product_rule
from f1gtheory.sampling import random_effective, random_element

from oracles import (extension_property_check, induced_quotient_map,
                     monoid_homs, monoid_pool, random_extension_instance,
                     random_hom, random_module, random_split_instance,
                     random_wedge_cofibration, weyl_group)


def _report(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _library_groups(max_order):
    out = []
    for name in library_names():
        group = build_group(name=name)
        if group.order <= max_order:
            out.append(group)
    return out


def test_criterion_01_grothendieck_group_matches_burnside_rank():
    ok = True
    for group in _library_groups(12):
        ring = build_burnside(group)
        p = g0_presentation(group_monoid(group), group.order + 3)
        if (p.result.free_rank != ring.rank or p.result.torsion
                or p.stability != "stable at bound"):
            ok = False
            break
    _report(1, "degree-0 presentation at bound |G|+3 recovers the Burnside "
               "rank with zero torsion for every library group of order <= 12",
            ok)


def test_criterion_02_table_of_marks():
    ring = build_burnside(build_group(name="C2"))
    ok = [list(r) for r in ring.marks] == [[2, 0], [1, 1]]
    for name in ("S3", "D4", "A4", "Q8"):
        group = build_group(name=name)
        ring = build_burnside(group)
        for i in range(ring.rank):
            rep = ring.classification.representatives[i]
            if ring.marks[i][i] != weyl_group(group, rep).order:
                ok = False
    _report(2, "marks of C2 equal [[2,0],[1,1]] and every marks diagonal "
               "entry is the Weyl group order for S3, D4, A4, Q8", ok)


def test_criterion_03_product_against_diagonal_smash():
    rng = random.Random(300)
    groups = _library_groups(8)
    ok = True
    for trial in range(200):
        ring = build_burnside(groups[trial % len(groups)])
        x = random_effective(ring, rng, max_size=8)
        y = random_effective(ring, rng, max_size=8)
        direct = x * y
        modeled = ring.decompose(
            diagonal_smash(ring.realize(x), ring.realize(y)))
        if direct != modeled:
            ok = False
            break
    _report(3, "ring product equals the decomposed diagonal smash on 200 "
               "seeded pairs of size <= 8 over groups of order <= 8", ok)


def test_criterion_04_lambda_values_and_addition():
    ring = build_burnside(build_group(name="C2"))
    u = ring.basis_element(0)
    ok = lambda_k(ring, u, 2).coeffs == (0, 1)
    ok = ok and lambda_k(ring, u + u, 2).coeffs == (2, 2)
    for i, group in enumerate(_library_groups(8)):
        report = verify_pre_lambda(build_burnside(group), 4, 200,
                                   random.Random(400 + i))
        if not report.passed:
            ok = False
            break
    _report(4, "frozen second-operation values on C2 hold and the addition "
               "identity passes 200 seeded pairs per group of order <= 8 "
               "for operations up to degree 4", ok)


def test_criterion_05_lambda_ring_for_odd_cyclic():
    # the anchor P_2 = x1^2 y2 + x2 y1^2 - 2 x2 y2 and the computed rule both
    # have degree <= 2 in each variable, so agreement on {0, 1, 2}^4 proves
    # that they are one polynomial
    def anchor(x1, x2, y1, y2):
        return x1 ** 2 * y2 + x2 * y1 ** 2 - 2 * x2 * y2

    ok = all(product_rule((1, x1, x2), (1, y1, y2), 2)[2] == anchor(x1, x2, y1, y2)
             for x1, x2, y1, y2 in itertools.product(range(3), repeat=4))
    for i, name in enumerate(("C3", "C5")):
        ring = build_burnside(build_group(name=name))
        reports = verify_lambda_ring(ring, 3, 3, 30, random.Random(500 + i))
        if not all(r.passed for r in reports):
            ok = False
    _report(5, "all three ring-axiom families pass for C3 and C5 with "
               "degrees up to 3 and the computed degree-2 product "
               "rule equals its regression anchor polynomial", ok)


def test_criterion_06_tuple_module_cardinalities():
    m = group_monoid(build_group(name="C1"))
    ok = True
    for n in range(1, 7):
        s = free_module(m, n)
        falling = 1
        for k in range(1, n + 1):
            falling *= n - k + 1
            if diamond(s, k).size != falling + 1:
                ok = False
        if diamond(s, n + 1).size != 1:
            ok = False
    _report(6, "ordered tuple modules have size (n)_k + 1 for "
               "1 <= k <= n <= 6 and collapse to the point above n", ok)


def test_criterion_07_double_coset_and_frobenius():
    ok = True
    for gi, name in enumerate(("S3", "D4", "A4", "Q8")):
        group = build_group(name=name)
        subs = all_subgroups(group)
        for h in subs:
            ctx = subgroup_context(group, h.elements)
            for k in subs:
                for i in range(ctx.ring.rank):
                    report = check_double_coset(group, h.elements, k.elements,
                                                ctx.ring.basis_element(i))
                    if not report.ok:
                        ok = False
        ring = build_burnside(group)
        rng = random.Random(700 + gi)
        for _ in range(200):
            h = subs[rng.randrange(len(subs))]
            ctx = subgroup_context(group, h.elements)
            report = check_frobenius(group, h.elements,
                                     random_element(ring, rng),
                                     random_element(ctx.ring, rng))
            if not report.ok:
                ok = False
    _report(7, "double coset formula holds for every subgroup pair and "
               "basis element of S3, D4, A4, Q8, and Frobenius reciprocity "
               "holds on 200 seeded instances per group", ok)


def test_criterion_08_base_change_preserves_pushouts():
    rng = random.Random(800)
    pool = monoid_pool(6)
    ok = True
    done = 0
    attempts = 0
    while done < 200 and attempts < 4000:
        attempts += 1
        m = pool[rng.randrange(len(pool))]
        f, _ = random_wedge_cofibration(m, rng)
        g = random_hom(f.source, random_module(m, rng), rng)
        if g is None:
            continue
        p, _, _ = pushout(f, g)
        targets = [n for n in pool if monoid_homs(m, n)]
        n = targets[rng.randrange(len(targets))]
        homs = monoid_homs(m, n)
        alpha = homs[rng.randrange(len(homs))]
        moved_whole = base_change(alpha, p)
        moved_legs, _, _ = pushout(base_change_hom(alpha, f),
                                   base_change_hom(alpha, g))
        iso, witness = are_isomorphic(moved_whole, moved_legs)
        if not iso or witness is None:
            ok = False
            break
        done += 1
    ok = ok and done == 200
    _report(8, "base change preserves pushouts up to a found isomorphism "
               "on 200 seeded instances over monoids of size <= 6", ok)


def _split_check(inst):
    okc, retraction = is_cofibration(inst.inclusion)
    if not okc or retraction is None:
        return False
    q, proj = quotient_with_projection(inst.inclusion)
    if find_section(proj) is None:
        return False
    glued = wedge([inst.inclusion.source, q])
    iso, _ = are_isomorphic(glued, inst.inclusion.target)
    return iso


def test_criterion_09_split_cofibrations_and_extensions():
    monoids = [group_monoid(build_group(name=n))
               for n in ("C1", "C2", "C3", "C4", "C5", "C6", "V4", "S3")]
    ok = True
    rng = random.Random(900)
    for _ in range(500):
        m = monoids[rng.randrange(len(monoids))]
        if not _split_check(random_split_instance(m, rng)):
            ok = False
            break
    rng = random.Random(901)
    for _ in range(500):
        m = monoids[rng.randrange(len(monoids))]
        inst = random_extension_instance(m, rng)
        q = induced_quotient_map(inst.f1, inst.f2, inst.i)
        if not extension_property_check(inst.f1, inst.f2, inst.p, inst.i, q):
            ok = False
            break
    _report(9, "split cofibration lemma and the extension property hold on "
               "500 seeded valid instances each over group monoids of "
               "order <= 6", ok)


def test_criterion_10_assembly_cokernel():
    values = {"C1": 0, "C2": 1, "S3": 3}
    ok = True
    for name, rank in values.items():
        report = cartan_zero(build_group(name=name))
        if report.wh0.free_rank != rank or report.wh0.torsion:
            ok = False
    for name in library_names():
        group = build_group(name=name)
        ring = build_burnside(group)
        report = cartan_zero(group)
        if report.wh0.free_rank != ring.rank - 1 or report.wh0.torsion:
            ok = False
    _report(10, "assembly cokernel is 0, Z, Z^3 for the trivial group, C2, "
                "S3 and free of rank r-1 for every library group", ok)


def test_criterion_11_degree_one_via_splitting():
    values = {"C1": (2,), "C2": (2, 2, 2), "S3": (2, 2, 2, 2, 2, 2)}
    ok = True
    for name, torsion in values.items():
        report = g1_via_splitting(build_group(name=name))
        if (report.free_rank != 0 or report.torsion != torsion
                or report.provenance != "via splitting formula"):
            ok = False
    _report(11, "degree-1 groups are Z/2, (Z/2)^3, (Z/2)^6 for the trivial "
                "group, C2, S3, labeled via splitting formula", ok)


def test_criterion_12_simple_factor_counts():
    ok = count_simple_factors(build_group(name="C3"), 2) == 2
    for name, q in (("C4", 5), ("S3", 7)):
        group = build_group(name=name)
        if count_simple_factors(group, q) != \
                len(conjugacy_classes_of_elements(group)):
            ok = False
    for name, q in (("C4", 2), ("C4", 15), ("S3", 3)):
        try:
            count_simple_factors(build_group(name=name), q)
            ok = False
        except ValueError:
            pass
    _report(12, "simple factor counts match the class count at q = 1 mod "
                "exponent, l(C3, 2) = 2, and coprimality violations are "
                "rejected", ok)


def test_criterion_13_suite_determinism():
    cmd = [sys.executable, "-m", "f1gtheory.cli", "suite", "--group", "S3"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    _report(13, "suite output is byte-identical across two runs with the "
                "same seed", ok)
