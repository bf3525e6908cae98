"""The Burnside ring commands: `subgroups`, `marks`, `burnside-mul`, `decompose`."""

import sys

from . import burnside, modules
from .errors import charge_printable


def _cmd_subgroups(args, cli) -> int:
    group = cli._group_from_args(args)
    ring = burnside.build_burnside(group)
    classes = ring.classification.classes
    rows = [{"index": i, "label": ring.labels[i], "order": cls[0].order,
             "representative": list(cls[0].elements), "class_size": len(cls)}
            for i, cls in enumerate(classes)]
    total = sum(map(len, classes))
    if args.format == "json":
        cli._emit_json({
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


def _cmd_marks(args, cli) -> int:
    group = cli._group_from_args(args)
    ring = burnside.build_burnside(group)
    if args.format == "csv":
        sys.stdout.write(burnside.marks_to_csv(ring))
    elif args.format == "json":
        cli._emit_json(ring.to_json())
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


def _cmd_burnside_mul(args, cli) -> int:
    group = cli._group_from_args(args)
    ring = burnside.build_burnside(group)
    x = ring.element(cli._parse_coeffs(args.x, ring, "--x"))
    y = ring.element(cli._parse_coeffs(args.y, ring, "--y"))
    product = x * y
    charge_printable("digit count of the largest coefficient", [max(map(abs, product.coeffs))])
    if args.format == "json":
        cli._emit_json({
            "basis": list(ring.labels),
            "x": list(x.coeffs), "y": list(y.coeffs),
            "product": list(product.coeffs),
        })
    else:
        print(f"x       = {x.pretty()}")
        print(f"y       = {y.pretty()}")
        print(f"product = {product.pretty()}")
    return 0


def _cmd_decompose(args, cli) -> int:
    group = cli._group_from_args(args)
    ring = burnside.build_burnside(group)
    import json
    with open(args.module_json, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    module = modules.module_from_json(obj, modules.group_monoid(group))
    element = ring.decompose(module)
    if args.format == "json":
        cli._emit_json({
            "basis": list(ring.labels),
            "size": module.size,
            "coeffs": list(element.coeffs),
        })
    else:
        print(f"module with {module.size - 1} nonzero elements decomposes as "
              f"{element.pretty()}")
    return 0
