"""Cache ownership: every memo lives on the group it describes.

Two groups with one Cayley table compare equal even when their names or
labels differ, so a cache keyed by the group would hand one group's results
to the other, and a module-level cache would keep every group alive.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import weakref

import f1gtheory
from f1gtheory.burnside import build_burnside, decompose
from f1gtheory.groups import (all_subgroups, build_group, classify_subgroups,
                              conjugacy_classes_of_elements)
from f1gtheory.mackey import subgroup_context
from f1gtheory.modules import free_module, group_monoid
from f1gtheory.polynomials import universal_polynomial


def _twins():
    """C3 from the library, then the same table with other labels and no name."""
    a = build_group(name="C3")
    b = build_group(cayley=a.cayley, labels=["1", "x", "y"])
    assert a == b and a.name != b.name and a.labels != b.labels
    return a, b


def test_equal_groups_that_print_differently_share_no_result():
    a, b = _twins()
    # the named group is used first, so a cache keyed by the table hands its
    # results to the unnamed one
    assert group_monoid(a).labels == ("0", "e", "g", "g^2")
    assert group_monoid(b).labels == ("0", "1", "x", "y")
    assert group_monoid(b).group is b
    assert all(sub.parent is b for sub in all_subgroups(b))
    assert classify_subgroups(b).group is b
    assert build_burnside(b).group is b
    assert decompose(free_module(group_monoid(a), 1)).ring.to_json()["group"] == "C3"
    assert decompose(free_module(group_monoid(b), 1)).ring.to_json()["group"] == "custom"
    elements = tuple(range(3))
    assert subgroup_context(a, elements).ambient is a
    assert subgroup_context(b, elements).ambient is b
    for fn in (all_subgroups, classify_subgroups, conjugacy_classes_of_elements,
               group_monoid, build_burnside):
        assert fn(b) is fn(b) and fn(b) is not fn(a), fn.__name__
    assert subgroup_context(b, elements) is subgroup_context(b, elements)


def _used_group():
    """A weak reference to a D6 whose every memoized structure was built."""
    group = build_group(name="D6")
    ring = build_burnside(group)
    ring.decompose(free_module(group_monoid(group), 1))
    all_subgroups(group)
    classify_subgroups(group)
    conjugacy_classes_of_elements(group)
    ctx = subgroup_context(group, ring.classification.representatives[2].elements)
    assert ctx.class_map and ctx.ring.rank
    return weakref.ref(group)


def test_used_group_is_collected():
    ref = _used_group()
    gc.collect()
    assert ref() is None


def test_no_module_level_lru_cache_but_universal_polynomial():
    """Caches keyed by value belong only where the key is small and bounded."""
    modules = [f1gtheory] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(f1gtheory.__path__, "f1gtheory.")
    ]
    found = []
    for module in modules:
        for attr, obj in vars(module).items():
            candidates = [(attr, obj)]
            if inspect.isclass(obj) and obj.__module__.startswith("f1gtheory"):
                candidates += [(f"{attr}.{k}", v) for k, v in vars(obj).items()]
            for name, value in candidates:
                if (isinstance(value, functools._lru_cache_wrapper)
                        and value is not universal_polynomial):
                    found.append(f"{module.__name__}.{name}")
    assert found == []
