"""Survey the lambda-ring axiom families across the group library.

The addition identity holds for every finite group; its column checks
`verify_pre_lambda`, which reads the ghost-ring values that `lambda` prints
(the explicit subset walk is a test oracle, not run here).  The product and
composition identities lambda^k(xy) = P_k and lambda^k(lambda^l x) = P_{k,l},
evaluated by Newton's identities at each ghost coordinate, are only
guaranteed for cyclic groups of odd order.  This script measures where they
actually hold and prints a pass/fail table, which makes the boundary visible.

Usage: python3 scripts/lambda_report.py [--max-order N] [--trials T] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import sys

from f1gtheory.burnside import build_burnside
from f1gtheory.groups import build_group, is_odd_cyclic, library_names
from f1gtheory.lambda_ops import verify_lambda_ring, verify_pre_lambda


# the degrees surveyed: lambda^k for k <= K_CAP, lambda^l inside for l <= L_CAP
K_CAP = 3
L_CAP = 2


def run(args: argparse.Namespace) -> int:
    rows = []
    for name in library_names():
        group = build_group(name=name)
        if group.order > args.max_order:
            continue
        ring = build_burnside(group)
        pre = verify_pre_lambda(ring, 4, args.trials, random.Random(args.seed))
        unit, product, composition = verify_lambda_ring(
            ring, K_CAP, L_CAP, args.trials, random.Random(args.seed + 1))
        rows.append((name, group.order, is_odd_cyclic(group), pre.passed,
                     unit.passed, product.passed, composition.passed))
    print(f"{'group':<6} {'order':>5} {'odd cyclic':>10} {'addition':>9} "
          f"{'unit':>5} {'product':>8} {'composition':>12}")
    surprise = False
    for name, order, predicted, pre_ok, unit_ok, prod_ok, comp_ok in rows:
        print(f"{name:<6} {order:>5} {str(predicted):>10} {str(pre_ok):>9} "
              f"{str(unit_ok):>5} {str(prod_ok):>8} {str(comp_ok):>12}")
        if not pre_ok or not unit_ok:
            surprise = True
        if predicted and not (prod_ok and comp_ok):
            surprise = True
    if surprise:
        print("unexpected failure in a guaranteed family")
        return 1
    print("guaranteed families all hold; product/composition beyond odd "
          "cyclic groups are observations, not guarantees")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=10)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
