"""The commands of one ghost-ring operation: `lambda` and `diamond`."""

from . import burnside, lambda_ops


def _cmd_lambda(args, cli) -> int:
    group = cli._group_from_args(args)
    ring = burnside.build_burnside(group)
    x = ring.element(cli._parse_coeffs(args.element, ring, "--element"))
    value = lambda_ops.lambda_k(ring, x, args.k)
    if args.format == "json":
        cli._emit_json({
            "basis": list(ring.labels),
            "element": list(x.coeffs),
            "k": args.k,
            "result": list(value.coeffs),
        })
    else:
        print(cli._compact(value.coeffs))
    return 0


def _cmd_diamond(args, cli) -> int:
    group = cli._group_from_args(args)
    ring = burnside.build_burnside(group)
    x = ring.element(cli._parse_coeffs(args.element, ring, "--element"))
    size, element = lambda_ops.diamond_class(ring, x, args.k)
    if args.format == "json":
        cli._emit_json({
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
