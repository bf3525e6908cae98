"""The package's import contract, its public surface, and the CLI parser.

A CLI process imports every engine layer and nothing else; `import
f1gtheory` alone imports no submodule; every public name has a caller, is
a library construction, or is listed below with its reason; the parser
that `main` builds for one subcommand prints what the full parser prints;
and the README lists every resource limit with the value the code holds,
and only `errors.charge` raises `ResourceLimitError`.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import types
import typing
from importlib import import_module

import pytest

import f1gtheory
from f1gtheory.cli import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(f1gtheory.__file__)))

# The layers `perfbench/tracer.py` reads from `sys.modules` right after
# `import f1gtheory.cli`.
TRACED_LAYERS = ("cli", "groups", "modules", "burnside", "lambda_ops",
                 "polynomials", "mackey", "gtheory", "snf", "sampling")

IMPORTS_RUN = """
import json
import sys

def loaded():
    return {name: getattr(module, "__file__", None)
            for name, module in sys.modules.items()}

import f1gtheory
bare = loaded()
import f1gtheory.cli
print(json.dumps({"bare": bare, "cli": loaded()}))
"""


def test_imports_of_a_cli_process():
    run = subprocess.run([sys.executable, "-c", IMPORTS_RUN], cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert [name for name in seen["bare"] if name.startswith("f1gtheory.")] == []
    cli = seen["cli"]
    assert {f"f1gtheory.{layer}" for layer in TRACED_LAYERS} <= set(cli)
    assert "f1gtheory.constructions" not in cli
    # no class is generated at import: neither dataclasses nor the
    # inspect module it pulls in is loaded
    assert "dataclasses" not in cli and "inspect" not in cli
    tests_dir = os.path.join(ROOT, "tests") + os.sep
    assert [name for name, path in cli.items()
            if path and os.path.abspath(path).startswith(tests_dir)] == []


def test_every_public_name_resolves_and_is_listed():
    listed = set(dir(f1gtheory))
    for name in f1gtheory.__all__:
        value = getattr(f1gtheory, name)
        assert getattr(value, "__name__", name) == name
        assert name in listed
    assert f1gtheory.__all__ == sorted(set(f1gtheory.__all__))
    assert not hasattr(f1gtheory, "no_such_name")


# Public names without a caller in src/ or scripts/, each with its reason.
WITHOUT_CALLER = {
    "check_double_coset": "the double coset formula for one (H, K, y); "
                          "mackey-check runs the same plan per class pair",
    "closure_of": "the subgroup generated by a seed, the coset extension "
                  "of the trivial subgroup; the engine extends known "
                  "subgroups instead",
    "conjugate": "conjugation between subgroup rings, the Mackey map "
                 "next to restrict and induce",
    "lambda_series": "the operations 0..cap at once, the series form of "
                     "lambda_k",
    "wedge_with_inclusions": "the wedge with its block inclusions, the "
                             "coproduct's structure maps; the engine needs "
                             "only the module that `wedge` builds",
}


def _references() -> set:
    """Names read in src/ and scripts/, outside the package's export table.

    A name inside its own top-level definition does not count.
    """
    package = os.path.join(SRC, "f1gtheory")
    paths = [os.path.join(package, name) for name in sorted(os.listdir(package))
             if name.endswith(".py") and name != "__init__.py"]
    scripts = os.path.join(ROOT, "scripts")
    paths += [os.path.join(scripts, name) for name in sorted(os.listdir(scripts))
              if name.endswith(".py")]
    refs = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    refs.add(name)
    return refs


def test_every_public_name_has_a_caller_or_a_reason():
    refs = _references()
    orphans = sorted(name for name in f1gtheory.__all__
                     if name not in refs
                     and f1gtheory._EXPORTS[name] != "constructions"
                     and name not in WITHOUT_CALLER)
    assert orphans == []
    # an entry leaves the list once its name gains a caller or stops being public
    stale = sorted(name for name in WITHOUT_CALLER
                   if name not in f1gtheory.__all__ or name in refs)
    assert stale == []


def _annotated(module):
    """The functions and classes `module` defines, and the methods of each
    class, properties and cached properties included."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type):
            yield value
            for attr in vars(value).values():
                fn = (getattr(attr, "fget", None) or getattr(attr, "func", None)
                      or getattr(attr, "__func__", None) or attr)
                if isinstance(fn, types.FunctionType):
                    yield fn


def test_every_annotation_resolves():
    package = os.path.join(SRC, "f1gtheory")
    unresolved = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        module = import_module(f"f1gtheory.{name[:-3]}")
        for obj in _annotated(module):
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{obj.__qualname__}: {exc}")
    assert unresolved == []


COMMANDS = ("subgroups", "marks", "burnside-mul", "decompose", "lambda",
            "lambda-verify", "diamond", "mackey-check", "g0", "g1", "wh0",
            "simple-factors", "suite")


def test_every_parser_prints_the_full_top_level_help():
    full = build_parser().format_help()
    assert "{" + ",".join(COMMANDS) + "}" in full
    for command in COMMANDS:
        assert build_parser(command).format_help() == full


def _outcome(capsys, parse):
    try:
        parse()
        code = 0
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize("argv", [
    ["-h"], *([command, "--help"] for command in COMMANDS), [], ["frobnicate"],
    ["lambda", "--group", "S3"], ["marks", "--group", "S3", "--format", "xml"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_like_the_full_parser(capsys, argv):
    full = _outcome(capsys, lambda: build_parser().parse_args(argv))
    assert full[2] in (0, 2) and (full[0] or full[1])
    assert _outcome(capsys, lambda: main(argv)) == full


# Every resource limit, by the module that reads it.
LIMITS = {
    "groups": ("ORDER_CAP", "SUBGROUP_ENUMERATION_LIMIT"),
    "gtheory": ("GROUP_GENERATOR_CAP", "WORK_BUDGET"),
    "polynomials": ("MAX_PRODUCT_K", "MAX_COMPOSITION_L"),
    "lambda_ops": ("GHOST_WORK_CAP",),
}


def test_readme_lists_every_limit_with_its_value():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    # the table is the paragraph after the "Resource guards" one
    table = text[text.index("Resource guards"):].split("\n\n")[1].splitlines()
    assert table[0] == "| limit | constant | value | when it refuses |"
    listed = {}
    for line in table[2:]:
        _, constant, value, _ = (cell.strip() for cell in line.strip("|").split("|"))
        module, name = constant.strip("`").split(".")
        listed[module, name] = int(value)
    assert listed == {(module, name): getattr(import_module(f"f1gtheory.{module}"), name)
                      for module, names in LIMITS.items() for name in names}


def test_only_charge_raises_resource_limit_error():
    package = os.path.join(SRC, "f1gtheory")
    raising = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "ResourceLimitError":
                    raising.append(name)
    assert raising == ["errors.py"]
