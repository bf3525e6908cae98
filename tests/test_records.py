"""The value-class contract of the package's records.

`UniversalPolynomial`, the record of the plethysm oracle in
`tests/oracles.py`, is built on the package's `_Record` base and held to
the same contract.

Every record takes its fields positionally in a fixed order or by keyword,
with the defaults below; compares and hashes by the fields it compares
(the hash is that of their tuple); refuses assignment unless it is the
mutable `CheckReport`; and, when its constructor validates, equals the
trusted instance `_derived` builds from the same values.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import pytest

from f1gtheory.burnside import BurnsideElement, build_burnside
from f1gtheory.groups import (FiniteGroup, Subgroup, SubgroupClassification,
                              _derived, build_group, classify_subgroups)
from f1gtheory.g0_group import _CountVectorLabels, _PeelRelations
from f1gtheory.gtheory import (AbelianGroupReport, CartanReport,
                               GrothendieckPresentation)
from f1gtheory.mackey import (DoubleCosetPlan, DoubleCosetReport,
                              FrobeniusReport, SubgroupContext,
                              subgroup_context)
from f1gtheory.modules import (FiniteModule, ModuleHom, PointedMonoid,
                               free_module, group_monoid)
from f1gtheory.reports import CheckReport

from oracles import UniversalPolynomial, universal_polynomial


class Case(NamedTuple):
    cls: type
    names: Tuple[str, ...]
    values: tuple
    defaults: tuple = ()  # values of the last len(defaults) fields when omitted
    excluded: Tuple[str, ...] = ()  # fields equality and the hash ignore
    validated: bool = False


S3 = build_group(name="S3")
MONOID = group_monoid(S3)
FREE = free_module(MONOID, 1)
RING = build_burnside(S3)
C2 = (0, 1)
CONTEXT = subgroup_context(S3, C2)
C2_ID, S3_ID = CONTEXT.sub, CONTEXT.outer
CLASSES = classify_subgroups(S3)
Z = AbelianGroupReport(1, (), "snf")
P1 = universal_polynomial("product", 1)

CASES = [
    Case(FiniteGroup, ("order", "cayley", "name"), (6, S3.cayley, "S3"),
         (None,), ("name",), True),
    Case(Subgroup, ("parent", "elements"), (S3, C2), validated=True),
    Case(SubgroupClassification, ("group", "sub", "members"),
         (S3, CLASSES.sub, CLASSES.members)),
    Case(PointedMonoid, ("size", "mul", "group"), (MONOID.size, MONOID.mul, S3),
         (None,), ("group",), True),
    Case(FiniteModule, ("monoid", "size", "action"),
         (MONOID, FREE.size, FREE.action), validated=True),
    Case(ModuleHom, ("source", "target", "map"),
         (FREE, FREE, tuple(range(FREE.size))), validated=True),
    Case(BurnsideElement, ("ring", "coeffs"), (RING, RING.one().coeffs)),
    Case(AbelianGroupReport,
         ("free_rank", "torsion", "provenance", "basis_interpretation"),
         (1, (2, 4), "snf", ("a", "b", "c")), (None,), validated=True),
    Case(GrothendieckPresentation,
         ("size_bound", "generators", "relations", "result", "stability"),
         (1, ("[1]",), (((0, 1),),), Z, "stable")),
    Case(_PeelRelations, ("sizes", "budget"), ((1, 2), 3)),
    Case(_CountVectorLabels, ("sizes", "budget", "count"), ((1, 2), 3, 6)),
    Case(CartanReport, ("image", "wh0"), ((1,), Z)),
    Case(SubgroupContext, ("ambient", "sub", "outer"), (S3, C2_ID, S3_ID)),
    Case(DoubleCosetReport,
         ("h_elements", "k_elements", "y_coeffs", "reps", "lhs", "rhs"),
         (C2, C2, (0, 1), (0, 2), (1, 1), (1, 1))),
    Case(DoubleCosetPlan, ("h_ctx", "k_ctx", "reps", "terms"),
         (CONTEXT, CONTEXT, (0,), ((CONTEXT, (0, 1)),))),
    Case(FrobeniusReport, ("h_elements", "x_coeffs", "y_coeffs", "lhs", "rhs"),
         (C2, (1, 0), (0, 1), (2, 0), (2, 0))),
    Case(UniversalPolynomial, ("kind", "k", "l", "terms"),
         (P1.kind, P1.k, P1.l, P1.terms)),
    Case(CheckReport, ("check", "instances", "failures"),
         ("check", 2, [{"x": 1}]), (0, [])),
]
FROZEN = [case for case in CASES if case.cls is not CheckReport]
# BurnsideElement compares its ring by `same_ring`, not by the field
PLAIN = [case for case in FROZEN if case.cls is not BurnsideElement]
ids = [case.cls.__name__ for case in CASES]


def fields(obj, case):
    return tuple(getattr(obj, name) for name in case.names)


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_positional_keyword_and_default_construction(case):
    positional = case.cls(*case.values)
    keyword = case.cls(**dict(zip(case.names, case.values)))
    assert fields(positional, case) == fields(keyword, case) == case.values
    assert positional == keyword
    required = len(case.names) - len(case.defaults)
    short = case.cls(*case.values[:required])
    assert fields(short, case) == case.values[:required] + case.defaults
    assert repr(positional).startswith(f"{case.cls.__name__}({case.names[0]}=")


@pytest.mark.parametrize("case", PLAIN, ids=lambda case: case.cls.__name__)
def test_equality_and_hash_read_the_compared_fields(case):
    obj = case.cls(*case.values)
    compared = tuple(getattr(obj, name) for name in case.names
                     if name not in case.excluded)
    assert hash(obj) == hash(compared)
    assert obj.__eq__(case.values) is NotImplemented
    for i, name in enumerate(case.names):
        other = _derived(case.cls, *case.values[:i], object(), *case.values[i + 1:])
        assert (other == obj) is (name in case.excluded), name
        assert (other != obj) is (name not in case.excluded), name
        if name in case.excluded:
            assert hash(other) == hash(obj)


def test_burnside_elements_compare_their_rings_as_rings():
    twin_group = FiniteGroup(6, S3.cayley, "another S3")
    twin = build_burnside(twin_group)
    assert twin is not RING and twin.same_ring(RING)
    x = BurnsideElement(RING, (1, 0, 2, 0))
    assert x == BurnsideElement(twin, (1, 0, 2, 0))
    assert hash(x) == hash(BurnsideElement(twin, (1, 0, 2, 0))) == hash((S3, x.coeffs))
    assert x != BurnsideElement(RING, (1, 0, 2, 1))
    c4 = build_burnside(build_group(name="C4"))
    assert x != BurnsideElement(c4, (1, 0, 2))


@pytest.mark.parametrize("case", FROZEN, ids=lambda case: case.cls.__name__)
def test_frozen_records_refuse_assignment(case):
    obj = case.cls(*case.values)
    for name in case.names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert fields(obj, case) == case.values


def test_frozen_records_keep_cached_properties():
    group = FiniteGroup(6, S3.cayley)
    assert group.inverse == S3.inverse and group.__dict__["inverse"] is group.inverse
    context = SubgroupContext(S3, C2_ID, S3_ID)
    assert context.ring is context.ring


def test_check_report_is_mutable_and_unhashable():
    first, second = CheckReport("a"), CheckReport("a")
    assert first.failures is not second.failures
    first.record(False, lambda: {"x": 1})
    assert (first.instances, first.failures) == (1, [{"x": 1}])
    assert second.failures == [] and first != second
    first.check = "b"
    assert first.check == "b"
    with pytest.raises(TypeError):
        hash(first)


@pytest.mark.parametrize("case", [case for case in CASES if case.validated],
                         ids=lambda case: case.cls.__name__)
def test_derived_equals_the_validating_constructor(case):
    trusted = _derived(case.cls, *case.values)
    assert type(trusted) is case.cls
    assert fields(trusted, case) == case.values
    assert trusted == case.cls(*case.values)


def test_derived_skips_validation():
    with pytest.raises(ValueError):
        FiniteGroup(0, ())
    assert _derived(FiniteGroup, 0, (), None).order == 0
