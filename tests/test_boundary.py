"""The table laws checked at generators refuse exactly what their all-pairs
forms refuse, and the one subgroup test agrees with pairwise closure.

The class constructors check the module action law, module-hom
equivariance, monoid-hom multiplicativity, the bimodule laws and
associativity only at the generators of the acting monoid; the oracles in
`tests/oracles.py` check every pair or triple.  The tables compared are
those of the monoid and module pools, every table one entry away from
them, every map between two modules of one pool, and seeded random tables
on 5 and 6 elements one entry away from a valid one.  Entries fixed by the
zero, the unit or the basepoint are left alone, so only the law decides.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, product
from typing import Iterator, Optional

import pytest

from f1gtheory.constructions import (Bimodule, MonoidHom, bimodule_from_module,
                                     bimodule_from_monoid_hom)
from f1gtheory.groups import Subgroup, _subgroup_elements, all_subgroups, build_group
from f1gtheory.modules import FiniteModule, ModuleHom, PointedMonoid

from oracles import (_small_modules, action_law_everywhere, bimodule_laws_everywhere,
                     equivariant_everywhere, monoid_homs, monoid_pool,
                     multiplicative_everywhere, random_hom, random_module)


def refusal(build, *args) -> Optional[str]:
    """The ValueError message of `build(*args)`, or None when it accepts."""
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


def agrees(law, expected: bool, build, *args) -> bool:
    """Assert that `build(*args)` accepts exactly when `expected`, and
    refuses with a message that starts with `law` (or one of a tuple)."""
    message = refusal(build, *args)
    assert (message is None) == expected, (message, args)
    assert message is None or message.startswith(law), message
    return expected


def changed(table, row: int, col: int, value: int):
    rows = [list(r) for r in table]
    rows[row][col] = value
    return tuple(map(tuple, rows))


def neighbours(table, bound: int, first_row: int, first_col: int) -> Iterator:
    """Every table one entry away from `table`, its entries in 0..bound-1,
    changed at a row >= first_row and a column >= first_col."""
    for r in range(first_row, len(table)):
        for c in range(first_col, len(table[r])):
            for v in range(bound):
                if v != table[r][c]:
                    yield changed(table, r, c, v)


def random_neighbour(table, bound: int, first_row: int, first_col: int,
                     rng: random.Random):
    r, c = rng.randrange(first_row, len(table)), rng.randrange(first_col, len(table[0]))
    return changed(table, r, c, rng.choice([v for v in range(bound) if v != table[r][c]]))


def associative_everywhere(mul) -> bool:
    elems = range(len(mul))
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
               for a in elems for b in elems for c in elems)


def module_verdict(m: PointedMonoid, action) -> bool:
    return agrees("action compatibility fails", action_law_everywhere(m, action),
                  FiniteModule, m, len(action), action)


def monoid_verdict(mul) -> bool:
    return agrees("associativity fails", associative_everywhere(mul),
                  PointedMonoid, len(mul), mul)


def hom_verdict(s: FiniteModule, t: FiniteModule, f) -> bool:
    return agrees("equivariance fails", equivariant_everywhere(s, t, f), ModuleHom, s, t, f)


def monoid_hom_verdict(src: PointedMonoid, dst: PointedMonoid, f) -> bool:
    return agrees("multiplicativity fails", multiplicative_everywhere(src, dst, f),
                  MonoidHom, src, dst, f)


def bimodule_verdict(b: Bimodule, left, right) -> bool:
    lm, rm = b.left_monoid, b.right_monoid
    return agrees(("left action: action compatibility fails",
                   "right action: action compatibility fails", "actions fail to commute"),
                  bimodule_laws_everywhere(lm, rm, left, right),
                  Bimodule, lm, rm, b.size, left, right)


def bimodule_cases(pool):
    return ([bimodule_from_monoid_hom(alpha) for src, dst in product(pool, repeat=2)
             for alpha in monoid_homs(src, dst)]
            + [bimodule_from_module(t) for m in pool for t in _small_modules(m, 3)])


def test_pool_monoids_and_modules_one_entry_away():
    verdicts = set()
    for m in monoid_pool(4):
        verdicts.update(monoid_verdict(mul) for mul in neighbours(m.mul, m.size, 2, 2))
        for s in _small_modules(m, 4):
            assert module_verdict(m, s.action)
            verdicts.update(module_verdict(m, action)
                            for action in neighbours(s.action, s.size, 1, 2))
    assert verdicts == {True, False}


def test_every_map_between_two_modules_of_one_pool():
    verdicts = set()
    for m in monoid_pool(4):
        modules = _small_modules(m, 4)
        for s, t in product(modules, repeat=2):
            verdicts.update(hom_verdict(s, t, (0,) + rest)
                            for rest in product(range(t.size), repeat=s.size - 1))
    assert verdicts == {True, False}


def test_every_map_between_two_pool_monoids():
    verdicts = set()
    for src, dst in product(monoid_pool(4), repeat=2):
        verdicts.update(monoid_hom_verdict(src, dst, (0, 1) + rest)
                        for rest in product(range(dst.size), repeat=src.size - 2))
    assert verdicts == {True, False}


def test_pool_bimodules_one_entry_away():
    verdicts = set()
    for b in bimodule_cases(monoid_pool(4)):
        assert bimodule_verdict(b, b.left, b.right)
        verdicts.update(chain(
            (bimodule_verdict(b, left, b.right) for left in neighbours(b.left, b.size, 1, 2)),
            (bimodule_verdict(b, b.left, right) for right in neighbours(b.right, b.size, 1, 2))))
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(4))
def test_random_tables_on_five_and_six_elements_one_entry_away(seed):
    rng = random.Random(seed)
    pool = monoid_pool(6)
    large = [m for m in pool if m.size >= 5]
    verdicts = set()
    for m in large:
        verdicts.add(monoid_verdict(random_neighbour(m.mul, m.size, 2, 2, rng)))
    modules = []
    while len(modules) < 40:
        m = rng.choice(pool)
        s = random_module(m, rng, max_size=6)
        if s.size >= 5:
            modules.append(s)
    for s in modules:
        verdicts.add(module_verdict(s.monoid, random_neighbour(s.action, s.size, 1, 2, rng)))
        t = rng.choice([t for t in modules if t.monoid == s.monoid])
        hom = random_hom(s, t, rng)
        for target, f in ((s, tuple(range(s.size))), (t, hom and hom.map)):
            if f:
                verdicts.add(hom_verdict(
                    s, target, random_neighbour((f,), target.size, 0, 1, rng)[0]))
    for src, dst in product(pool, large):
        alpha = rng.choice(monoid_homs(src, dst))
        if src.size > 2:
            verdicts.add(monoid_hom_verdict(src, dst, random_neighbour(
                (alpha.map,), dst.size, 0, 2, rng)[0]))
        b = bimodule_from_monoid_hom(alpha)
        if src.size > 2:
            verdicts.add(bimodule_verdict(b, random_neighbour(b.left, b.size, 1, 2, rng),
                                          b.right))
        verdicts.add(bimodule_verdict(b, b.left, random_neighbour(b.right, b.size, 1, 2, rng)))
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["S3", "Q8"])
def test_subgroup_test_matches_pairwise_closure(name):
    group = build_group(name=name)
    closed_sets = []
    for size in range(group.order + 1):
        for subset in combinations(range(group.order), size):
            closed = bool(subset) and all(group.mul(a, b) in subset
                                          for a in subset for b in subset)
            assert (refusal(Subgroup, group, subset) is None) == closed, subset
            assert (refusal(_subgroup_elements, group, subset) is None) == closed, subset
            closed_sets += [subset] * closed
    assert closed_sets == sorted((s.elements for s in all_subgroups(group)),
                                 key=lambda t: (len(t), t))
