"""Cache ownership: every memo lives on the object it describes.

Two groups with one Cayley table compare equal even when their names
differ, so a cache keyed by the group would hand one group's results to
the other, and a module-level cache would keep every group alive.  The
memos of a group's structure live on the group.  The subgroup contexts
inside H that the double coset plans of H use live in H's plan generator
and die with it once the Mackey check is done with H.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import random
import weakref

import pytest

import f1gtheory
from f1gtheory.burnside import build_burnside, decompose
from f1gtheory.cli import _run_mackey_checks
from f1gtheory.groups import (_memo_on_group, all_subgroups, build_group,
                              classify_subgroups, conjugacy_classes_of_elements)
from f1gtheory.mackey import SubgroupContext, subgroup_context
from f1gtheory.modules import free_module, group_monoid

from conftest import group_of


def _twins():
    """C3 from the library, then the same table with no name."""
    a = build_group(name="C3")
    b = build_group(cayley=a.cayley)
    assert a == b and a.name != b.name
    return a, b


def test_equal_groups_that_print_differently_share_no_result():
    a, b = _twins()
    # the named group is used first, so a cache keyed by the table hands its
    # results to the unnamed one
    assert group_monoid(a).group is a
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
    assert all(report.passed for report in _run_mackey_checks(group, 2, random.Random(0)))
    return weakref.ref(group)


def test_used_group_is_collected():
    ref = _used_group()
    gc.collect()
    assert ref() is None


def _reachable_contexts(group):
    """Every subgroup context reachable from the group through the package's data."""
    seen, stack, found = set(), [group], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, SubgroupContext):
            found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("f1gtheory."):
            stack.append(vars(obj))
    return found


@pytest.mark.parametrize("name", ["D12", "S4xC2"])
def test_mackey_check_drops_the_contexts_inside_each_subgroup(name):
    group = group_of(name)
    assert all(report.passed for report in _run_mackey_checks(group, 2, random.Random(0)))
    contexts = _reachable_contexts(group)
    # the top-level contexts of the class representatives stay on the group,
    # with their tables; no context inside a proper subgroup is left
    assert len(contexts) >= build_burnside(group).rank
    assert all(ctx.outer_ring is build_burnside(group) for ctx in contexts)


def test_no_module_level_lru_cache():
    """No cache keyed by value: the package holds no `lru_cache` at all."""
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
                if isinstance(value, functools._lru_cache_wrapper):
                    found.append(f"{module.__name__}.{name}")
    assert found == []


def test_memo_keys_every_call_by_its_arguments():
    # a call without extra arguments once took the slot that the keyed dict
    # of later calls needed
    @_memo_on_group
    def tagged(group, *args):
        return (group.name,) + args

    a, b = build_group(name="C2"), build_group(name="C3")
    assert tagged(a) == ("C2",) and tagged(a, 1) == ("C2", 1)
    assert tagged(b, 1) == ("C3", 1) and tagged(b) == ("C3",)
    assert tagged(a) is tagged(a) and tagged(b, 1) is tagged(b, 1)
    s3 = build_group(name="S3")
    whole, c3 = build_burnside(s3), build_burnside(s3, (5, 2, 0))
    assert whole is build_burnside(s3, range(6)) is build_burnside(s3)
    assert c3 is build_burnside(s3, (0, 2, 5)) and c3 is not whole
    assert classify_subgroups(s3, [2, 0, 5]) is c3.classification


def test_only_groups_reindexes_a_subgroup():
    """Subgroups are described in ambient ids; one lattice per group.

    No package module, `groups` included, re-indexes a subgroup as a group
    of its own: that construction is a test oracle.
    """
    modules = [f1gtheory] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(f1gtheory.__path__, "f1gtheory.")
    ]
    found = [module.__name__ for module in modules
             if "subgroup_as_group" in inspect.getsource(module)]
    assert found == []
