"""Command line interface.

Every subcommand takes a group source (library name, JSON file, or
generators), emits text by default or JSON on request, and is deterministic;
the randomized checks (`lambda-verify`, `mackey-check`, `suite`) take a
`--seed`.  Exit status: 0 success, 1 mathematical check failure,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import _layer
from .errors import InternalCheckError, ResourceLimitError, charge, charge_printable
from .reports import CheckReport

# Each engine layer runs on first use, so a command compiles only the
# layers it calls.
burnside = _layer("burnside")
groups = _layer("groups")
gtheory = _layer("gtheory")
lambda_ops = _layer("lambda_ops")
mackey = _layer("mackey")
modules = _layer("modules")
polynomials = _layer("polynomials")
sampling = _layer("sampling")
snf = _layer("snf")

DEFAULT_SEED = 1729


def _count(text: str) -> int:
    """argparse type of a count flag: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common_args(sub: argparse.ArgumentParser, formats=("text", "json")) -> None:
    """The group source and output format every subcommand takes."""
    sub.add_argument("--group", help="library group name, e.g. S3 or C12")
    sub.add_argument("--group-json", help="path to a group JSON file")
    sub.add_argument("--generators",
                     help="permutation generators in cycle notation, "
                          "semicolon separated, e.g. '(1 2);(1 2 3)'")
    sub.add_argument("--degree", type=int,
                     help="number of permuted points for --generators")
    sub.add_argument("--format", choices=list(formats), default="text")


def _group_from_args(args: argparse.Namespace) -> groups.FiniteGroup:
    sources = [args.group is not None, args.group_json is not None,
               args.generators is not None]
    if sum(sources) != 1:
        raise ValueError("exactly one of --group, --group-json, --generators is required")
    if args.degree is not None and args.generators is None:
        raise ValueError("--degree is read only with --generators")
    if args.group is not None:
        return groups.build_group(name=args.group)
    if args.group_json is not None:
        return groups.load_group(args.group_json)
    if args.degree is None:
        raise ValueError("--generators requires --degree")
    gens = [g for g in args.generators.split(";") if g.strip()]
    return groups.build_group(generators=gens, degree=args.degree)


def _parse_coeffs(text: str, ring: burnside.BurnsideRing, what: str) -> List[int]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(f"{what} must be a JSON integer array, got {text!r}")
    if (not isinstance(data, list)
            or any(not isinstance(v, int) or isinstance(v, bool) for v in data)):
        raise ValueError(f"{what} must be a JSON integer array, got {text!r}")
    if len(data) != ring.rank:
        raise ValueError(
            f"{what} needs {ring.rank} coefficients for this group, got {len(data)}")
    return data


def _emit_json(payload: Dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _compact(vec: Sequence[int]) -> str:
    return json.dumps(list(vec), separators=(",", ":"))


def _asserted(reports: List[CheckReport], ring_axioms: List[CheckReport],
              odd_cyclic: bool) -> List[Tuple[CheckReport, bool]]:
    """Each check paired with whether its failure fails the run.

    Vanishing on the unit, the first λ-ring family, is asserted for every
    group; the product and composition rules are guaranteed only for odd
    cyclic groups and are informational elsewhere.
    """
    return ([(rep, True) for rep in reports + ring_axioms[:1]]
            + [(rep, odd_cyclic) for rep in ring_axioms[1:]])


def _report_checks(args, header: str, checks: List[Tuple[CheckReport, bool]],
                   payload: Dict) -> int:
    """Emit a check run as JSON or text; exit 1 if an asserted check failed."""
    ok = all(rep.passed for rep, asserted in checks if asserted)
    if args.format == "json":
        _emit_json({**payload, "status": "pass" if ok else "fail"})
    else:
        print(header)
        for rep, asserted in checks:
            print(f"  {rep.summary_line()}{'' if asserted else ' [informational]'}")
        print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


# --- subcommand bodies ---------------------------------------------------

def _cmd_subgroups(args) -> int:
    group = _group_from_args(args)
    ring = burnside.build_burnside(group)
    rows = []
    total = 0
    for i, cls in enumerate(ring.classification.classes):
        rep = cls[0]
        total += len(cls)
        rows.append({
            "index": i,
            "label": ring.labels[i],
            "order": rep.order,
            "representative": list(rep.elements),
            "class_size": len(cls),
        })
    if args.format == "json":
        _emit_json({
            "group": group.name or "custom",
            "order": group.order,
            "subgroup_count": total,
            "class_count": len(rows),
            "classes": rows,
        })
    else:
        print(f"group {group.name or 'custom'} of order {group.order}: "
              f"{total} subgroups in {len(rows)} conjugacy classes")
        for row in rows:
            print(f"  [{row['index']}] {row['label']} "
                  f"order={row['order']} class_size={row['class_size']} "
                  f"rep={row['representative']}")
    return 0


def _cmd_marks(args) -> int:
    group = _group_from_args(args)
    ring = burnside.build_burnside(group)
    if args.format == "csv":
        sys.stdout.write(burnside.marks_to_csv(ring))
    elif args.format == "json":
        _emit_json(ring.to_json())
    else:
        print(f"table of marks for {group.name or 'custom'} "
              f"({ring.rank} classes)")
        width = max(len(lab) for lab in ring.labels)
        blank = [f"{0:>4}"] * ring.rank
        for label, row in zip(ring.labels, ring.rows):
            cells = blank.copy()
            for j, m in row:
                cells[j] = f"{m:>4}"
            print(f"  {label:<{width}} {' '.join(cells)}")
    return 0


def _cmd_burnside_mul(args) -> int:
    group = _group_from_args(args)
    ring = burnside.build_burnside(group)
    x = ring.element(_parse_coeffs(args.x, ring, "--x"))
    y = ring.element(_parse_coeffs(args.y, ring, "--y"))
    product = x * y
    charge_printable("digit count of the largest coefficient", [max(map(abs, product.coeffs))])
    if args.format == "json":
        _emit_json({
            "basis": list(ring.labels),
            "x": list(x.coeffs), "y": list(y.coeffs),
            "product": list(product.coeffs),
        })
    else:
        print(f"x       = {x.pretty()}")
        print(f"y       = {y.pretty()}")
        print(f"product = {product.pretty()}")
    return 0


def _cmd_decompose(args) -> int:
    group = _group_from_args(args)
    ring = burnside.build_burnside(group)
    with open(args.module_json, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    module = modules.module_from_json(obj, modules.group_monoid(group))
    element = ring.decompose(module)
    if args.format == "json":
        _emit_json({
            "basis": list(ring.labels),
            "size": module.size,
            "coeffs": list(element.coeffs),
        })
    else:
        print(f"module with {module.size - 1} nonzero elements decomposes as "
              f"{element.pretty()}")
    return 0


def _cmd_lambda(args) -> int:
    group = _group_from_args(args)
    ring = burnside.build_burnside(group)
    x = ring.element(_parse_coeffs(args.element, ring, "--element"))
    value = lambda_ops.lambda_k(ring, x, args.k)
    if args.format == "json":
        _emit_json({
            "basis": list(ring.labels),
            "element": list(x.coeffs),
            "k": args.k,
            "result": list(value.coeffs),
        })
    else:
        print(_compact(value.coeffs))
    return 0


def _cmd_lambda_verify(args) -> int:
    group = _group_from_args(args)
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
        args, f"lambda verification for {group.name or 'custom'} "
              f"(seed {args.seed})",
        _asserted([pre], families, odd_cyclic), {
            "group": group.name or "custom",
            "seed": args.seed,
            "odd_cyclic": odd_cyclic,
            "pre_lambda": pre.to_json(),
            "ring_axioms": [rep.to_json() for rep in families],
        })


def _cmd_diamond(args) -> int:
    group = _group_from_args(args)
    ring = burnside.build_burnside(group)
    x = ring.element(_parse_coeffs(args.element, ring, "--element"))
    size, element = lambda_ops.diamond_class(ring, x, args.k)
    if args.format == "json":
        _emit_json({
            "basis": list(ring.labels),
            "element": list(x.coeffs),
            "k": args.k,
            "carrier_size": size,
            "decomposition": list(element.coeffs),
        })
    else:
        print(f"ordered {args.k}-tuple module has carrier size {size} "
              f"and decomposes as {element.pretty()}")
    return 0


def _run_mackey_checks(group: groups.FiniteGroup, trials: int,
                       rng: random.Random) -> List[CheckReport]:
    ring = burnside.build_burnside(group)
    reps = ring.classification.representatives
    dc = CheckReport("double coset formula")
    for h in reps:
        for plan in mackey.double_coset_plans(group, h.elements):
            failing = plan.failures()
            for i in range(plan.h_ctx.ring.rank):
                dc.record(i not in failing, lambda: plan.check(
                    plan.h_ctx.ring.basis_element(i)).to_json())
    fr = CheckReport("Frobenius reciprocity")
    for _ in range(trials):
        h = reps[rng.randrange(len(reps))]
        x = sampling.random_element(ring, rng)
        y = sampling.random_element(mackey.subgroup_context(group, h.elements).ring, rng)
        report = mackey.check_frobenius(group, h.elements, x, y)
        fr.record(report.ok, report.to_json)
    green = mackey.green_morphism_check(group)
    return [dc, fr, green]


def _cmd_mackey_check(args) -> int:
    group = _group_from_args(args)
    results = _run_mackey_checks(group, args.trials, random.Random(args.seed))
    return _report_checks(
        args, f"Mackey checks for {group.name or 'custom'} (seed {args.seed})",
        [(rep, True) for rep in results], {
            "group": group.name or "custom",
            "seed": args.seed,
            "checks": [rep.to_json() for rep in results],
        })


def _cmd_g0(args) -> int:
    if args.monoid_json is not None:
        for flag in ("group", "group_json", "generators", "degree"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--monoid-json takes no --{flag.replace('_', '-')}")
        with open(args.monoid_json, "r", encoding="utf-8") as fh:
            monoid = modules.monoid_from_json(json.load(fh))
        label = "monoid"
        default_bound = monoid.size + 2
    else:
        group = _group_from_args(args)
        monoid = modules.group_monoid(group)
        label = group.name or "custom"
        default_bound = group.order + 3
    bound = args.bound if args.bound is not None else default_bound
    presentation = gtheory.g0_presentation(monoid, bound)
    if args.format == "json":
        _emit_json({"input": label, **presentation.to_json()})
    else:
        result = presentation.result
        print(f"degree-0 group of {label} at size bound {bound}: "
              f"{result.pretty()} ({presentation.stability})")
        print(f"  generators: {len(presentation.generators)}, "
              f"relations: {len(presentation.relations)}")
    return 0


def _cmd_g1(args) -> int:
    group = _group_from_args(args)
    report = gtheory.g1_via_splitting(group)
    if args.format == "json":
        _emit_json({"group": group.name or "custom", **report.to_json()})
    else:
        print(f"degree-1 group of {group.name or 'custom'} ({report.provenance}): "
              f"{report.pretty()}")
        for line in report.basis_interpretation or ():
            print(f"  {line}")
    return 0


def _cmd_wh0(args) -> int:
    group = _group_from_args(args)
    report = gtheory.cartan_zero(group)
    if args.format == "json":
        _emit_json({
            "group": group.name or "custom",
            "image": list(report.image),
            "free_rank": report.wh0.free_rank,
            "torsion": list(report.wh0.torsion),
            "provenance": report.wh0.provenance,
        })
    else:
        print(f"assembly image vector: {_compact(report.image)}")
        print(f"cokernel: {report.wh0.pretty()}")
    return 0


def _cmd_simple_factors(args) -> int:
    group = _group_from_args(args)
    count = gtheory.count_simple_factors(group, args.q)
    if args.format == "json":
        _emit_json({"group": group.name or "custom", "q": args.q,
                    "simple_factors": count})
    else:
        print(f"group algebra over F_{args.q} splits into {count} simple factors")
    return 0


# --- the invariant suite -------------------------------------------------

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


def _cmd_suite(args) -> int:
    group = _group_from_args(args)
    results = _suite_reports(group, args.seed)
    ring_axioms = lambda_ops.verify_lambda_ring(burnside.build_burnside(group), 3, 2, 5,
                                     random.Random(args.seed + 3))
    odd_cyclic = groups.is_odd_cyclic(group)
    return _report_checks(
        args, f"invariant suite for {group.name or 'custom'} "
              f"(order {group.order}, seed {args.seed})",
        _asserted(results, ring_axioms, odd_cyclic), {
            "group": group.name or "custom",
            "order": group.order,
            "seed": args.seed,
            "checks": [rep.to_json() for rep in results],
            "ring_axioms": [rep.to_json() for rep in ring_axioms],
            "odd_cyclic": odd_cyclic,
        })


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `f1g` parser, with every subcommand registered under its help.

    Given the name of one subcommand, only that one gets its arguments; the
    others are registered with their summary alone, without a -h action,
    which is all that the top-level help and the "invalid choice" message
    read.
    """
    parser = argparse.ArgumentParser(
        prog="f1g",
        description="Burnside rings, modules over pointed monoids, lambda "
                    "operations, Mackey structure, and degree-0/1 invariants.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, func, formats=("text", "json")):
        filled = command in (None, name)
        sp = subs.add_parser(name, help=summary, add_help=filled)
        if not filled:
            return None
        _add_common_args(sp, formats)
        sp.set_defaults(func=func)
        return sp

    add("subgroups", "conjugacy classes of subgroups", _cmd_subgroups)

    add("marks", "table of marks", _cmd_marks, formats=("text", "json", "csv"))

    if sp := add("burnside-mul", "multiply two virtual classes", _cmd_burnside_mul):
        sp.add_argument("--x", required=True, help="JSON coefficient array")
        sp.add_argument("--y", required=True, help="JSON coefficient array")

    if sp := add("decompose", "decompose a module JSON file", _cmd_decompose):
        sp.add_argument("--module-json", required=True)

    if sp := add("lambda", "apply a lambda operation", _cmd_lambda):
        sp.add_argument("--element", required=True, help="JSON coefficient array")
        sp.add_argument("--k", type=_count, required=True)

    if sp := add("lambda-verify", "check lambda axioms", _cmd_lambda_verify):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--k-cap", type=_count, default=3)
        sp.add_argument("--l-cap", type=_count, default=2)
        sp.add_argument("--trials", type=_count, default=20)

    if sp := add("diamond", "ordered tuple module of an element", _cmd_diamond):
        sp.add_argument("--element", required=True, help="JSON coefficient array")
        sp.add_argument("--k", type=_count, required=True)

    if sp := add("mackey-check", "double coset, Frobenius, Green", _cmd_mackey_check):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--trials", type=_count, default=50)

    if sp := add("g0", "degree-0 presentation", _cmd_g0):
        sp.add_argument("--monoid-json", help="pointed monoid JSON instead of a group")
        sp.add_argument("--bound", type=int, help="carrier size bound")

    add("g1", "degree-1 group via the splitting formula", _cmd_g1)

    add("wh0", "degree-0 assembly cokernel", _cmd_wh0)

    if sp := add("simple-factors", "simple factors of F_q[G]", _cmd_simple_factors):
        sp.add_argument("--q", type=int, required=True, help="prime power, coprime to |G|")

    if sp := add("suite", "full invariant suite for one group", _cmd_suite):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a leading non-option names the subcommand: only its parser is filled
    command = argv[0] if argv and not argv[0].startswith("-") else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
