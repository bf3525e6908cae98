"""The package's import contract, its public surface, and the CLI parser.

A CLI process registers every engine layer and nothing else, runs only
the modules its command reads, compiles `cli` once, and loads no `json`
for a text command that reads and writes none; `import f1gtheory` alone imports no
submodule; every public name, and every public method and property of an
exported class, has a caller, is a library construction, or is listed
below with its reason; the parser that `main` builds for one subcommand prints what the full parser prints;
the README lists every resource limit with the value the code holds, and
only `errors.charge` raises `ResourceLimitError`; and no module imports a
name it never reads.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import types
import typing
from functools import cached_property
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
    # reading __file__ runs a lazy layer, which may register more modules
    return {name: getattr(module, "__file__", None)
            for name, module in list(sys.modules.items())}

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


# Runs one command as `python -m f1gtheory.cli` does, then prints every
# module whose source ran: a layer bound with `f1gtheory._layer` and never
# read is still a lazy module.
MAIN_RUN = """
import os
import runpy
import sys
import types

out, sys.stdout = sys.stdout, open(os.devnull, "w")
try:
    runpy.run_module("f1gtheory.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if type(module) is types.ModuleType)), file=out)
sys.exit(status)
"""

ALWAYS_RUN = ("errors", "groups", "records")

# The modules each benchmark job runs beyond ALWAYS_RUN, by job name.
COMMAND_LAYERS = {
    "setup-marks-c1": (["marks", "--group", "C1"], ("burnside", "burnside_commands")),
    "marks-s4xc2": (["marks", "--generators", "(1 2 3 4);(1 2);(5 6)",
                     "--degree", "6"], ("burnside", "burnside_commands")),
    "mackey-check-d12": (["mackey-check", "--group", "D12"],
                         ("burnside", "check_commands", "mackey", "reports", "sampling")),
    "lambda-s4-regular-k6": (["lambda", "--group", "S4", "--element",
                              "[1,0,0,0,0,0,0,0,0,0,0]", "--k", "6"],
                             ("burnside", "lambda_commands", "lambda_ops")),
    "lambda-s4-virtual-k5": (["lambda", "--group", "S4", "--element",
                              "[1,-1,2,0,0,0,0,0,-2,1,0]", "--k", "5"],
                             ("burnside", "lambda_commands", "lambda_ops")),
    "lambda-verify-c5": (["lambda-verify", "--group", "C5", "--l-cap", "3"],
                         ("burnside", "check_commands", "lambda_ops", "polynomials",
                          "reports", "sampling")),
    "g0-d6": (["g0", "--group", "D6"],
              ("burnside", "g0_group", "gtheory", "gtheory_commands", "modules")),
    "g0-monoid3": (["g0", "--monoid-json", "perfbench/monoid3.json", "--bound", "6"],
                   ("g0_monoid", "gtheory", "gtheory_commands", "modules", "snf")),
    "g1-d12": (["g1", "--group", "D12"], ("gtheory", "gtheory_commands", "snf")),
    "wh0-d12": (["wh0", "--group", "D12"],
                ("burnside", "gtheory", "gtheory_commands", "snf")),
}


def _main_run(argv):
    """The modules whose source a `python -m f1gtheory.cli argv` process ran."""
    run = subprocess.run([sys.executable, "-c", MAIN_RUN, *argv], cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.mark.parametrize("argv,layers", COMMAND_LAYERS.values(), ids=COMMAND_LAYERS)
def test_each_command_runs_only_its_layers(argv, layers):
    ran = _main_run(argv)
    # the CLI runs as __main__ and its source is compiled once: a command
    # module that imported a helper from `f1gtheory.cli` would compile it again
    assert "f1gtheory.cli" not in ran
    assert [name.split(".", 1)[1] for name in ran if name.startswith("f1gtheory.")] \
        == sorted(ALWAYS_RUN + layers)


@pytest.mark.parametrize("argv", [["marks", "--group", "C1"], ["wh0", "--group", "D12"]],
                         ids=["marks-c1", "wh0-d12"])
def test_a_text_command_loads_no_json(argv):
    assert "json" not in _main_run(argv)


def test_every_public_name_resolves_and_is_listed():
    listed = set(dir(f1gtheory))
    for name in f1gtheory.__all__:
        value = getattr(f1gtheory, name)
        assert getattr(value, "__name__", name) == name
        assert name in listed
    assert f1gtheory.__all__ == sorted(set(f1gtheory.__all__))
    assert not hasattr(f1gtheory, "no_such_name")


# Public names and members without a caller in src/ or scripts/, each with
# its reason.
WITHOUT_CALLER = {
    "check_double_coset": "the double coset formula for one (H, K, y); "
                          "mackey-check runs the same plan per class pair",
    "conjugate": "conjugation between subgroup rings, the Mackey map "
                 "next to restrict and induce",
    "coset_module": "G/H as a module for a subgroup given by its elements, "
                    "checked; the ring builds its cosets from class "
                    "representatives it derived, through `_coset_module`",
    "double_coset_reps": "the double cosets of one (K, H) given as element "
                         "tuples; the plans read them by lattice id",
    "free_module": "the free module of rank r, whose class is r·G/e; `wh0` "
                   "reads that class off the lattice, the tests build the "
                   "module as its oracle",
    "ModuleHom.compose": "composition of module maps, the category's own "
                         "operation; the tests' oracles compose inclusions "
                         "and relabellings with it",
    "wedge_with_inclusions": "the wedge with its block inclusions, the "
                             "coproduct's structure maps; the engine needs "
                             "only the module that `wedge` builds",
}


def _references() -> typing.Tuple[set, set]:
    """The bare names and the attribute names read in src/ and scripts/,
    outside the package's export table.

    A name inside its own top-level definition does not count.
    """
    package = os.path.join(SRC, "f1gtheory")
    paths = [os.path.join(package, name) for name in sorted(os.listdir(package))
             if name.endswith(".py") and name != "__init__.py"]
    scripts = os.path.join(ROOT, "scripts")
    paths += [os.path.join(scripts, name) for name in sorted(os.listdir(scripts))
              if name.endswith(".py")]
    names, attributes = set(), set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    attributes.add(node.attr)
    return names, attributes


def _public_members():
    """(class.member, member) for each public method and property that an
    exported class outside `constructions` defines itself."""
    for name in f1gtheory.__all__:
        value = getattr(f1gtheory, name)
        if f1gtheory._EXPORTS[name] == "constructions" or not isinstance(value, type):
            continue
        for attr, member in vars(value).items():
            if not attr.startswith("_") and isinstance(
                    member, (types.FunctionType, property, cached_property)):
                yield f"{name}.{attr}", attr


def test_every_public_name_has_a_caller_or_a_reason():
    names, attributes = _references()
    # a name is used when it is read at all, a member when it is read as an
    # attribute
    used = {name: name in names or name in attributes for name in f1gtheory.__all__
            if f1gtheory._EXPORTS[name] != "constructions"}
    used.update((qualname, attr in attributes) for qualname, attr in _public_members())
    orphans = sorted(name for name, read in used.items()
                     if not read and name not in WITHOUT_CALLER)
    assert orphans == []
    # an entry leaves the list once its name gains a caller or stops being public
    stale = sorted(name for name in WITHOUT_CALLER if used.get(name, True))
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
    "gtheory": ("GROUP_GENERATOR_CAP", "WORK_BUDGET", "SIMPLE_FACTORS_Q_CAP"),
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


def _unread_imports(path: str) -> list:
    """Names that the module at `path` imports but never reads.

    A name counts as read when the module loads it anywhere, or lists it
    in its `__all__`; `from __future__` imports bind nothing.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{path}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for folder in (os.path.join(SRC, "f1gtheory"), os.path.join(ROOT, "tests"),
                   os.path.join(ROOT, "scripts")):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                unread += _unread_imports(os.path.join(folder, name))
    assert unread == []
