"""Per-layer tracing of one f1g CLI command, from outside the package.

Run as a child process: `python3 perfbench/tracer.py <cli args...>`.  It
times the import of each layer module, wraps every public function and
public class constructor of the layer modules in a span, runs
`f1gtheory.cli.main(argv)` in-process and exits with its status.  The CLI's
stdout is left untouched; the spans and counters go to stderr as one line
that starts with MARKER.

A layer is a module of `src/f1gtheory`.  A wrapper is installed in every
module namespace that binds the wrapped object, so `gtheory`'s own binding of
`cokernel_invariants_sparse` is traced like `snf`'s.  Methods are not
wrapped (`FiniteGroup.mul` alone runs millions of times per job), so a
method's time counts towards the layer of the span that called it.

The parent (run.py) turns the spans into per-layer numbers with `summarize`.
"""

from __future__ import annotations

import functools
import importlib.machinery
import inspect
import json
import math
import sys
import time
from typing import Callable, Dict, List, Optional

MARKER = "perfbench-trace:"
LAYERS = ("cli", "groups", "modules", "burnside", "lambda_ops", "polynomials",
          "mackey", "gtheory", "snf", "sampling")
# Constructors whose __post_init__ is structure validation.
VALIDATED = {"groups": ("FiniteGroup",),
             "modules": ("FiniteModule", "ModuleHom", "Bimodule")}
SNF_ENTRIES = ("cokernel_invariants_sparse", "cokernel_invariants",
               "smith_normal_form")


class Recorder:
    """Spans as [name id, start, end, parent index], kept in start order."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Dict[str, int] = {}
        self._seen: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def first_time(self, obj) -> bool:
        """True once per object; cached results are counted once."""
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        return True


class _ImportTimer:
    """Meta path finder that puts a span around each layer module's import."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.partition(".")
        if package != "f1gtheory" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader.exec_module = self.rec.wrap(
                f"{layer}.import", spec.loader.exec_module)
        return spec


def _counter_hooks(rec: Recorder) -> Dict[str, Callable]:
    def subgroups(args, kwargs, result):
        if rec.first_time(result):
            rec.add("groups.subgroups", len(result))

    def classes(args, kwargs, result):
        if rec.first_time(result):
            rec.add("groups.classes", result.rank)

    def presentation(args, kwargs, result):
        rec.add("gtheory.generators", len(result.generators))
        rec.add("gtheory.relations", len(result.relations))

    def snf_shape(args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if len(rows) * ncols > rec.counters.get("snf.rows", 0) * rec.counters.get("snf.cols", 0):
            rec.counters["snf.rows"] = len(rows)
            rec.counters["snf.cols"] = ncols

    hooks = {"groups.all_subgroups": subgroups,
             "groups.classify_subgroups": classes,
             "gtheory.g0_presentation": presentation}
    for name in SNF_ENTRIES:
        hooks[f"snf.{name}"] = snf_shape
    return hooks


def _count_subset_walks(rec: Recorder, fn: Callable) -> Callable:
    """lambda_ops.subsets: C(n, k) per subset-orbit walk, n = carrier size."""
    @functools.wraps(fn)
    def counted(ring, s, k):
        rec.add("lambda_ops.subsets", math.comb(s.size - 1, k))
        return fn(ring, s, k)
    return counted


def _defined_here(obj, module) -> bool:
    target = getattr(obj, "__wrapped__", obj)
    return callable(obj) and getattr(target, "__module__", None) == module.__name__


def install(rec: Recorder) -> Callable:
    """Import the package under the import timer, wrap it, return cli.main."""
    timer = _ImportTimer(rec)
    sys.meta_path.insert(0, timer)
    try:
        import f1gtheory.cli
    finally:
        sys.meta_path.remove(timer)

    hooks = _counter_hooks(rec)
    replace: Dict[int, tuple] = {}
    for layer in LAYERS[1:]:
        module = sys.modules[f"f1gtheory.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not _defined_here(obj, module):
                continue
            name = f"{layer}.{attr}"
            if inspect.isclass(obj):
                if "__init__" in vars(obj):
                    obj.__init__ = rec.wrap(name, obj.__init__)
                if attr in VALIDATED.get(layer, ()):
                    obj.__post_init__ = rec.wrap(f"{name}.validate",
                                                 obj.__post_init__)
            else:
                replace[id(obj)] = (obj, rec.wrap(name, obj, hooks.get(name)))
    lambda_ops = sys.modules["f1gtheory.lambda_ops"]
    walk = getattr(lambda_ops, "_subset_decompose", None)
    if walk is not None:
        replace[id(walk)] = (walk, _count_subset_walks(rec, walk))

    for modname, module in list(sys.modules.items()):
        if modname != "f1gtheory" and not modname.startswith("f1gtheory."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return rec.wrap("cli.main", f1gtheory.cli.main)


def summarize(trace: Dict) -> Dict[str, float]:
    """Per-layer self times, call counts and counters of one traced job.

    A span's self time is its duration minus the durations of its children;
    spans nest, so the children never overlap.
    """
    names = trace["names"]
    spans = trace["spans"]
    layer_of = [n.split(".", 1)[0] for n in names]
    child_time = [0.0] * len(spans)
    in_build = [False] * len(spans)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for key in ("groups.built", "groups.validate_s", "modules.built",
                "modules.validate_s", "burnside.build_s",
                "mackey.restrict_calls", "mackey.induce_calls"):
        out[key] = 0
    validate = {f"{layer}.{cls}.validate": f"{layer}.validate_s"
                for layer, classes in VALIDATED.items() for cls in classes}
    built = {f"{layer}.{cls}": f"{layer}.built"
             for layer, classes in VALIDATED.items() for cls in classes}
    counted = {"mackey.restrict": "mackey.restrict_calls",
               "mackey.induce": "mackey.induce_calls"}
    for i, (nid, start, end, parent) in enumerate(spans):
        if end < start or (parent >= 0 and not (spans[parent][1] <= start
                                                and end <= spans[parent][2])):
            raise ValueError(f"span {names[nid]} does not nest in its parent")
        if parent >= 0:
            child_time[parent] += end - start
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        duration = end - start
        out[f"{layer_of[nid]}.self_s"] += duration - child_time[i]
        if not name.endswith((".import", ".validate")):
            out[f"{layer_of[nid]}.calls"] += 1
        if name in validate:
            out[validate[name]] += duration
        if name in built:
            out[built[name]] += 1
        if name in counted:
            out[counted[name]] += 1
        in_build[i] = name == "burnside.build_burnside" or (
            parent >= 0 and in_build[parent])
        if name == "burnside.build_burnside" and not (parent >= 0 and in_build[parent]):
            out["burnside.build_s"] += duration
    for key in ("groups.subgroups", "groups.classes", "lambda_ops.subsets",
                "gtheory.generators", "gtheory.relations", "snf.rows", "snf.cols"):
        out[key] = trace["counters"].get(key, 0)
    return out


def main(argv: List[str]) -> int:
    started = time.perf_counter()
    rec = Recorder()
    cli_main = install(rec)
    try:
        status = cli_main(argv)
    finally:
        sys.stdout.flush()
        payload = {"names": rec.names, "spans": rec.spans,
                   "counters": rec.counters,
                   "in_process_s": time.perf_counter() - started}
        sys.stderr.write("\n" + MARKER + json.dumps(payload) + "\n")
        sys.stderr.flush()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
