"""Track the degree-0 presentation as the module size bound grows.

For a group monoid the reported free rank climbs and then stabilizes at the
number of subgroup conjugacy classes; the bound |G| + 3 used by the
acceptance checks sits past the stabilization point for every library group
of order at most 12.  For a non-group monoid (`--monoid-json`) the
presentation stays a bounded approximation and this script shows how it
evolves instead; the default top bound there is |M| + 2, as for `g0`.

The last column, "unchanged since", is the least bound from which the free
rank and torsion printed so far have not changed.  It is an observation over
the bounds run, not a proof that the group stays the same at larger bounds.

Usage: python3 scripts/g0_convergence.py [--group NAME | --monoid-json FILE]
                                         [--max-bound B]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from f1gtheory.burnside import build_burnside
from f1gtheory.groups import build_group
from f1gtheory.gtheory import g0_presentation
from f1gtheory.modules import group_monoid, monoid_from_json


def run(args: argparse.Namespace) -> int:
    if args.monoid_json is None:
        group = build_group(name=args.group)
        monoid = group_monoid(group)
        top = args.max_bound or group.order + 3
        print(f"group {args.group}, Burnside rank "
              f"{build_burnside(group).rank}, bounds 1..{top}")
    else:
        with open(args.monoid_json, "r", encoding="utf-8") as fh:
            monoid = monoid_from_json(json.load(fh))
        top = args.max_bound or monoid.size + 2
        print(f"monoid {args.monoid_json} of size {monoid.size}, "
              f"bounds 1..{top}")
    print(f"{'bound':>5} {'generators':>10} {'relations':>9} "
          f"{'free rank':>9} {'torsion':>8} {'stability':>22} {'time':>7} "
          f"{'unchanged since (observed)':>26}")
    last, since = None, 0
    for bound in range(1, top + 1):
        t0 = time.time()
        p = g0_presentation(monoid, bound)
        torsion = "+".join(str(d) for d in p.result.torsion) or "-"
        if (p.result.free_rank, torsion) != last:
            last, since = (p.result.free_rank, torsion), bound
        print(f"{bound:>5} {len(p.generators):>10} {len(p.relations):>9} "
              f"{p.result.free_rank:>9} {torsion:>8} {p.stability:>22} "
              f"{time.time() - t0:>6.2f}s {since:>26}")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--group", default="S3")
    source.add_argument("--monoid-json", help="pointed monoid JSON file")
    parser.add_argument("--max-bound", type=int, default=0,
                        help="top size bound; 0 means |G| + 3, or |M| + 2 for a monoid")
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
