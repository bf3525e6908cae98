"""The degree-0 and degree-1 commands: `g0`, `g1`, `wh0`, `simple-factors`."""

from . import gtheory, modules


def _cmd_g0(args, cli) -> int:
    if args.monoid_json is not None:
        for flag in ("group", "group_json", "generators", "degree"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--monoid-json takes no --{flag.replace('_', '-')}")
        import json
        with open(args.monoid_json, "r", encoding="utf-8") as fh:
            monoid = modules.monoid_from_json(json.load(fh))
        label = "monoid"
        default_bound = monoid.size + 2
    else:
        group = cli._group_from_args(args)
        monoid = modules.group_monoid(group)
        label = group.name or "custom"
        default_bound = group.order + 3
    bound = args.bound if args.bound is not None else default_bound
    presentation = gtheory.g0_presentation(monoid, bound)
    if args.format == "json":
        cli._emit_json({"input": label, **presentation.to_json()})
    else:
        result = presentation.result
        print(f"degree-0 group of {label} at size bound {bound}: "
              f"{result.pretty()} ({presentation.stability})")
        print(f"  generators: {len(presentation.generators)}, "
              f"relations: {len(presentation.relations)}")
    return 0


def _cmd_g1(args, cli) -> int:
    group = cli._group_from_args(args)
    report = gtheory.g1_via_splitting(group)
    if args.format == "json":
        cli._emit_json({"group": group.name or "custom", **report.to_json()})
    else:
        print(f"degree-1 group of {group.name or 'custom'} ({report.provenance}): "
              f"{report.pretty()}")
        for line in report.basis_interpretation or ():
            print(f"  {line}")
    return 0


def _cmd_wh0(args, cli) -> int:
    group = cli._group_from_args(args)
    report = gtheory.cartan_zero(group)
    if args.format == "json":
        cli._emit_json({
            "group": group.name or "custom",
            "image": list(report.image),
            "free_rank": report.wh0.free_rank,
            "torsion": list(report.wh0.torsion),
            "provenance": report.wh0.provenance,
        })
    else:
        print(f"assembly image vector: {cli._compact(report.image)}")
        print(f"cokernel: {report.wh0.pretty()}")
    return 0


def _cmd_simple_factors(args, cli) -> int:
    group = cli._group_from_args(args)
    count = gtheory.count_simple_factors(group, args.q)
    if args.format == "json":
        cli._emit_json({"group": group.name or "custom", "q": args.q,
                        "simple_factors": count})
    else:
        print(f"group algebra over F_{args.q} splits into {count} simple factors")
    return 0
