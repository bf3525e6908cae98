"""The seeded check runs: `lambda-verify`, `mackey-check` and `suite`."""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from . import (burnside, groups, gtheory, lambda_ops, mackey, modules, polynomials,
               sampling, snf)
from .errors import charge
from .reports import CheckReport


def _asserted(reports: List[CheckReport], ring_axioms: List[CheckReport],
              odd_cyclic: bool) -> List[Tuple[CheckReport, bool]]:
    """Each check paired with whether its failure fails the run.

    Vanishing on the unit, the first λ-ring family, is asserted for every
    group; the product and composition rules are guaranteed only for odd
    cyclic groups and are informational elsewhere.
    """
    return ([(rep, True) for rep in reports + ring_axioms[:1]]
            + [(rep, odd_cyclic) for rep in ring_axioms[1:]])


def _report_checks(args, cli, header: str, checks: List[Tuple[CheckReport, bool]],
                   payload: Dict) -> int:
    """Emit a check run as JSON or text; exit 1 if an asserted check failed."""
    ok = all(rep.passed for rep, asserted in checks if asserted)
    if args.format == "json":
        cli._emit_json({**payload, "status": "pass" if ok else "fail"})
    else:
        print(header)
        for rep, asserted in checks:
            print(f"  {rep.summary_line()}{'' if asserted else ' [informational]'}")
        print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_lambda_verify(args, cli) -> int:
    group = cli._group_from_args(args)
    # the degree caps are the command's input contract, charged before any
    # ring work; l is read only when a composition rule runs (k >= 2)
    if args.k_cap >= 2:
        charge("polynomials.MAX_COMPOSITION_L", args.l_cap,
               polynomials.MAX_COMPOSITION_L, "--l-cap")
    charge("polynomials.MAX_PRODUCT_K", args.k_cap, polynomials.MAX_PRODUCT_K, "--k-cap")
    ring = burnside.build_burnside(group)
    rng = random.Random(args.seed)
    pre = lambda_ops.verify_pre_lambda(ring, args.k_cap, args.trials, rng)
    families = lambda_ops.verify_lambda_ring(ring, args.k_cap, args.l_cap, args.trials,
                                             random.Random(args.seed + 1))
    odd_cyclic = groups.is_odd_cyclic(group)
    return _report_checks(
        args, cli, f"lambda verification for {group.name or 'custom'} "
              f"(seed {args.seed})",
        _asserted([pre], families, odd_cyclic), {
            "group": group.name or "custom",
            "seed": args.seed,
            "odd_cyclic": odd_cyclic,
            "pre_lambda": pre.to_json(),
            "ring_axioms": [rep.to_json() for rep in families],
        })


def _run_mackey_checks(group: groups.FiniteGroup, trials: int,
                       rng: random.Random) -> List[CheckReport]:
    ring = burnside.build_burnside(group)
    reps = ring.classification.representatives
    dc = CheckReport("double coset formula")
    for h in reps:
        for plan in mackey.double_coset_plans(group, h.elements):
            # a plan decides every basis element of A(H) in one pass
            basis = plan.h_ctx.ring.basis_element
            dc.instances += plan.h_ctx.ring.rank
            dc.failures += [plan.check(basis(i)).to_json() for i in plan.failures()]
    fr = CheckReport("Frobenius reciprocity")
    for _ in range(trials):
        h = reps[rng.randrange(len(reps))]
        x = sampling.random_element(ring, rng)
        y = sampling.random_element(mackey.subgroup_context(group, h.elements).ring, rng)
        report = mackey.check_frobenius(group, h.elements, x, y)
        fr.record(report.ok, report.to_json)
    green = mackey.green_morphism_check(group)
    return [dc, fr, green]


def _cmd_mackey_check(args, cli) -> int:
    group = cli._group_from_args(args)
    results = _run_mackey_checks(group, args.trials, random.Random(args.seed))
    return _report_checks(
        args, cli, f"Mackey checks for {group.name or 'custom'} (seed {args.seed})",
        [(rep, True) for rep in results], {
            "group": group.name or "custom",
            "seed": args.seed,
            "checks": [rep.to_json() for rep in results],
        })


def _suite_reports(group: groups.FiniteGroup, seed: int) -> List[CheckReport]:
    ring = burnside.build_burnside(group)
    # the presentation is charged against its cap before any other stage
    presentation = gtheory.g0_presentation(modules.group_monoid(group), group.order + 3)
    rng = random.Random(seed)
    results: List[CheckReport] = []

    structure = CheckReport("marks diagonal and triangularity")
    for i in range(ring.rank):
        ok = all(ring.marks[i][j] == 0 for j in range(i + 1, ring.rank))
        structure.record(ok and ring.marks[i][i] > 0,
                         lambda: {"row": i, "marks": list(ring.marks[i])})
    results.append(structure)

    oracle = CheckReport("product matches diagonal smash")
    for _ in range(20):
        x = sampling.random_effective(ring, rng, max_size=8)
        y = sampling.random_effective(ring, rng, max_size=8)
        direct = (x * y).coeffs
        modeled = ring.decompose(
            modules.diagonal_smash(ring.realize(x), ring.realize(y))).coeffs
        oracle.record(direct == modeled, lambda: {
            "x": list(x.coeffs), "y": list(y.coeffs),
            "mul": list(direct), "smash": list(modeled),
        })
    results.append(oracle)

    pre = lambda_ops.verify_pre_lambda(ring, 4, 20, random.Random(seed + 1))
    results.append(pre)

    mackey_reports = _run_mackey_checks(group, 20, random.Random(seed + 2))
    results.extend(mackey_reports)

    g0_check = CheckReport("degree-0 presentation stabilizes at Burnside rank")
    g0_check.record(
        presentation.stability == "stable at bound"
        and presentation.result.free_rank == ring.rank
        and not presentation.result.torsion,
        presentation.to_json)
    results.append(g0_check)

    wh0_check = CheckReport("assembly cokernel is free of rank r-1")
    cartan = gtheory.cartan_zero(group)
    wh0_check.record(
        cartan.wh0.free_rank == ring.rank - 1 and not cartan.wh0.torsion,
        cartan.to_json)
    results.append(wh0_check)

    g1_check = CheckReport("degree-1 splitting is well formed")
    g1 = gtheory.g1_via_splitting(group)
    chain_ok = all(
        g1.torsion[i] % g1.torsion[i - 1] == 0 for i in range(1, len(g1.torsion))
    ) and g1.free_rank == 0 and len(g1.torsion) >= ring.rank
    g1_check.record(chain_ok, g1.to_json)
    results.append(g1_check)

    factors_check = CheckReport("simple factor count at coprime prime powers")
    class_count = len(groups.conjugacy_classes_of_elements(group))
    for q in [q for q in range(2, 60)
              if math.gcd(q, group.order) == 1 and len(snf.factorize(q)) == 1][:2]:
        count = gtheory.count_simple_factors(group, q)
        factors_check.record(1 <= count <= class_count,
                             lambda: {"q": q, "count": count})
    results.append(factors_check)
    return results


def _cmd_suite(args, cli) -> int:
    group = cli._group_from_args(args)
    results = _suite_reports(group, args.seed)
    ring_axioms = lambda_ops.verify_lambda_ring(burnside.build_burnside(group), 3, 2, 5,
                                                random.Random(args.seed + 3))
    odd_cyclic = groups.is_odd_cyclic(group)
    return _report_checks(
        args, cli, f"invariant suite for {group.name or 'custom'} "
              f"(order {group.order}, seed {args.seed})",
        _asserted(results, ring_axioms, odd_cyclic), {
            "group": group.name or "custom",
            "order": group.order,
            "seed": args.seed,
            "checks": [rep.to_json() for rep in results],
            "ring_axioms": [rep.to_json() for rep in ring_axioms],
            "odd_cyclic": odd_cyclic,
        })
