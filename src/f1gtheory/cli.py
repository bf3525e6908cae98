"""Command line interface.

Every subcommand takes a group source (library name, JSON file, or
generators), emits text by default or JSON on request, and is deterministic;
the randomized checks (`lambda-verify`, `mackey-check`, `suite`) take a
`--seed`.  Exit status: 0 success, 1 mathematical check failure,
2 input error.

The command bodies live in `burnside_commands`, `lambda_commands`,
`check_commands` and `gtheory_commands`; `main` compiles the one it runs
and hands it this module, whose argument and output helpers it reads.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from . import _layer
from .errors import InternalCheckError, ResourceLimitError

# Every engine layer is registered here, to run on first use: the command
# modules' `from . import` binds these, so a command compiles what it calls.
burnside = _layer("burnside")
groups = _layer("groups")
for _name in ("gtheory", "lambda_ops", "mackey", "modules", "polynomials",
              "sampling", "snf"):
    _layer(_name)

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
    import json
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
    import json
    print(json.dumps(payload, sort_keys=True, indent=2))


def _compact(vec: Sequence[int]) -> str:
    return "[" + ",".join(map(str, vec)) + "]"


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

    def add(name, summary, module, formats=("text", "json")):
        filled = command in (None, name)
        sp = subs.add_parser(name, help=summary, add_help=filled)
        if not filled:
            return None
        _add_common_args(sp, formats)
        sp.set_defaults(handler=(module, "_cmd_" + name.replace("-", "_")))
        return sp

    add("subgroups", "conjugacy classes of subgroups", "burnside_commands")

    add("marks", "table of marks", "burnside_commands", formats=("text", "json", "csv"))

    if sp := add("burnside-mul", "multiply two virtual classes", "burnside_commands"):
        sp.add_argument("--x", required=True, help="JSON coefficient array")
        sp.add_argument("--y", required=True, help="JSON coefficient array")

    if sp := add("decompose", "decompose a module JSON file", "burnside_commands"):
        sp.add_argument("--module-json", required=True)

    if sp := add("lambda", "apply a lambda operation", "lambda_commands"):
        sp.add_argument("--element", required=True, help="JSON coefficient array")
        sp.add_argument("--k", type=_count, required=True)

    if sp := add("lambda-verify", "check lambda axioms", "check_commands"):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--k-cap", type=_count, default=3)
        sp.add_argument("--l-cap", type=_count, default=2)
        sp.add_argument("--trials", type=_count, default=20)

    if sp := add("diamond", "ordered tuple module of an element", "lambda_commands"):
        sp.add_argument("--element", required=True, help="JSON coefficient array")
        sp.add_argument("--k", type=_count, required=True)

    if sp := add("mackey-check", "double coset, Frobenius, Green", "check_commands"):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--trials", type=_count, default=50)

    if sp := add("g0", "degree-0 presentation", "gtheory_commands"):
        sp.add_argument("--monoid-json", help="pointed monoid JSON instead of a group")
        sp.add_argument("--bound", type=int, help="carrier size bound")

    add("g1", "degree-1 group via the splitting formula", "gtheory_commands")

    add("wh0", "degree-0 assembly cokernel", "gtheory_commands")

    if sp := add("simple-factors", "simple factors of F_q[G]", "gtheory_commands"):
        sp.add_argument("--q", type=int, required=True, help="prime power, coprime to |G|")

    if sp := add("suite", "full invariant suite for one group", "check_commands"):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a leading non-option names the subcommand: only its parser is filled
    command = argv[0] if argv and not argv[0].startswith("-") else None
    args = build_parser(command).parse_args(argv)
    # the command's module is compiled only now, and reads this module's helpers
    module, name = args.handler
    handler = getattr(_layer(module), name)
    try:
        return handler(args, sys.modules[__name__])
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
