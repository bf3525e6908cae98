"""Degree-0 presentations over general pointed monoids, by module enumeration."""

from __future__ import annotations

import math
from itertools import permutations, product as iter_product
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from . import groups, gtheory, modules, snf
from .errors import InternalCheckError, charge


def _action_tables(m: modules.PointedMonoid, s: int, spend: Callable[[int], None]
                   ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Action tables on a carrier of size s, in lex order of their free entries.

    Rows are filled top-down and a partial table is dropped as soon as
    action[action[y][a]][b] == action[y][mul[a][b]] fails among filled rows;
    the order is that of a product over all free entries.  Columns 0 and 1
    hold the law in every table, so only a, b >= 2 are checked.  Before a
    row is filled, `spend` is charged with its number of candidates.

    The law at (y, a) is decidable once rows y and action[y][a] are filled,
    so row x decides the pairs (x, a) with action[x][a] <= x, tested on each
    candidate, and the pairs (y, a) with y < x and action[y][a] == x, which
    fix action[x][b] to action[y][mul[a][b]] before the candidates are drawn.
    """
    mul = m.mul
    cols = range(2, m.size)
    action = [[0] * m.size] + [[0, x] + [0] * len(cols) for x in range(1, s)]

    def fill(x: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if x == s:
            yield tuple(map(tuple, action))
            return
        spend(s ** len(cols))
        row = action[x]
        choices: List[Sequence[int]] = [range(s)] * len(cols)
        for y in range(1, x):
            for a in cols:
                if action[y][a] == x:
                    for b in cols:
                        v = action[y][mul[a][b]]
                        choices[b - 2] = (v,) if v in choices[b - 2] else ()
        for values in iter_product(*choices):
            row[2:] = values
            if all(action[row[a]][b] == row[mul[a][b]]
                   for a in cols if row[a] <= x for b in cols):
                yield from fill(x + 1)

    return fill(1)


class _ClassIndex:
    """Isomorphism-class representatives of modules over one monoid.

    The isomorphism class of a module among labelled action tables is the
    orbit of its table under the (s-1)! relabellings that fix the basepoint,
    so a new class memoizes its whole orbit and every later table is one
    dict lookup.  Work (relabellings here, candidate rows in `_action_tables`)
    is charged against `gtheory.WORK_BUDGET` before anything is stored.
    """

    def __init__(self) -> None:
        self.reps: List[modules.FiniteModule] = []
        self._known: Dict[Tuple[Tuple[int, ...], ...], int] = {}
        self.spent = 0

    def spend(self, work: int) -> None:
        self.spent += work
        charge("gtheory.WORK_BUDGET", self.spent, gtheory.WORK_BUDGET,
               "module enumeration work")

    def lookup(self, table: Tuple[Tuple[int, ...], ...]) -> int:
        """Index of the class of the module with this action table."""
        i = self._known.get(table)
        if i is None:
            raise InternalCheckError("module of bounded size missing from enumeration")
        return i

    def add(self, module: modules.FiniteModule) -> None:
        """Open a class for a module whose table is in no known class."""
        self.spend(math.factorial(module.size - 1))
        i = len(self.reps)
        self.reps.append(module)
        rows = [itemgetter(*row) for row in module.action]
        for rest in permutations(range(1, module.size)):
            perm = (0,) + rest
            table: List[Tuple[int, ...]] = [()] * module.size
            for x, row in enumerate(rows):
                table[perm[x]] = row(perm)
            self._known[tuple(table)] = i


def _enumerate_modules(m: modules.PointedMonoid, size_bound: int) -> _ClassIndex:
    """The classes of all modules with carrier size <= bound, in table order.

    Every carrier size s has a class (units fix every point, non-units send
    it to the basepoint) whose (s-1)! relabellings are charged, so a bound
    whose sum of (s-1)! passes the budget is refused before enumerating.
    """
    floor = 0
    for s in range(1, size_bound + 1):
        floor += math.factorial(s - 1)
        charge("gtheory.WORK_BUDGET", floor, gtheory.WORK_BUDGET,
               f"relabelling count at size bound {size_bound}")
    index = _ClassIndex()
    for s in range(1, size_bound + 1):
        for table in _action_tables(m, s, index.spend):
            if table not in index._known:
                index.add(groups._derived(modules.FiniteModule, m, s, table))
    return index


def _action_closed_subsets(module: modules.FiniteModule) -> List[Tuple[int, ...]]:
    """Action-closed sets of nonzero points, in the order of their bit masks."""
    points = range(1, module.size)
    reach = [sum({1 << y for y in row if y}) for row in module.action]
    return [tuple(x for x in points if mask >> x & 1)
            for mask in range(0, 1 << module.size, 2)
            if all(reach[x] & ~mask == 0 for x in points if mask >> x & 1)]


def _split_tables(module: modules.FiniteModule, subset: Tuple[int, ...]
                  ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...], bool]:
    """Action tables of the submodule on an action-closed `subset` and of the
    quotient by it, laid out as `submodule_inclusion` and `quotient` lay them
    out, and whether the complement of `subset`, with 0, is action-closed.
    """
    action = module.action
    keep = (0,) + subset
    inside = [0] * module.size
    for i, x in enumerate(keep):
        inside[x] = i
    sub = tuple(tuple(inside[y] for y in action[x]) for x in keep)
    rest = [x for x in range(1, module.size) if not inside[x]]
    proj = [0] * module.size
    for i, x in enumerate(rest, 1):
        proj[x] = i
    quot = ((0,) * module.monoid.size,) + tuple(
        tuple(proj[y] for y in action[x]) for x in rest)
    collapse = all(proj[y] or not y for x in rest for y in action[x])
    return sub, quot, collapse


def presentation(m: modules.PointedMonoid, size_bound: int) -> gtheory.GrothendieckPresentation:
    """Presentation over a general monoid from enumerated module classes.

    Each action-closed subset of a representative gives the relation
    [M] - [sub] - [M/sub] when its inclusion is split.  Both terms are
    looked up by action table.  When the complement of the subset, with 0,
    is action-closed, the collapse retraction is equivariant, so the
    inclusion splits without a search (the search would return that
    retraction first); only the other subsets run `is_cofibration`, on an
    inclusion built from the submodule table already written.
    """
    index = _enumerate_modules(m, size_bound)
    reps = index.reps
    relations: List[Tuple[Tuple[int, int], ...]] = []
    for i, rep in enumerate(reps):
        for subset in _action_closed_subsets(rep):
            sub, quot, collapse = _split_tables(rep, subset)
            if not (collapse or modules.is_cofibration(groups._derived(
                    modules.ModuleHom, groups._derived(modules.FiniteModule, m, len(sub), sub),
                    rep, (0,) + subset))[0]):
                continue
            row = {i: 1}
            for j in (index.lookup(sub), index.lookup(quot)):
                row[j] = row.get(j, 0) - 1
            # the coefficients sum to -1, so the row is never empty
            relations.append(tuple(sorted((j, v) for j, v in row.items() if v)))
    dense = []
    for relation in dict.fromkeys(relations):
        row = [0] * len(reps)
        for j, v in relation:
            row[j] = v
        dense.append(row)
    free_rank, torsion = snf.cokernel_invariants(dense, len(reps))
    result = gtheory.AbelianGroupReport(free_rank, tuple(torsion),
                                        f"generators-relations bound={size_bound}")
    labels = tuple(f"size{rep.size}_idx{i}" for i, rep in enumerate(reps))
    return gtheory.GrothendieckPresentation(size_bound, labels, tuple(relations), result,
                                            "bounded approximation")
