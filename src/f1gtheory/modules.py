"""Finite pointed monoids and their finitely generated right modules.

Carriers are dense 0-based index sets.  Index 0 of a monoid is its absorbing
zero and index 1 its unit; index 0 of a module carrier is the basepoint.
The class constructors validate their tables exactly; objects the
functions here derive from validated ones are built with `_derived` and
trusted.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .groups import (FiniteGroup, _check_associativity, _check_table, _derived,
                     _generators, _int_table, _memo_on_group, _orbits, _right_cosets,
                     _subgroup_elements)
from .records import _Record

__all__ = [
    "PointedMonoid", "FiniteModule", "ModuleHom", "group_monoid",
    "detect_group", "monoid_from_json", "zero_module", "free_module",
    "wedge", "wedge_with_inclusions", "coset_module", "submodule_inclusion",
    "module_from_json", "is_cofibration", "quotient",
    "quotient_with_projection", "diagonal_smash",
]


def _check_on_generators(law: str, mul, points: int, sides: Callable) -> None:
    """Raise ValueError unless the rows `sides(x, g)` agree for every
    x < `points` and every generator g of the validated pointed monoid
    `mul`; `law` is the message, formatted with x, g and the first position
    i where the rows differ.

    Each law here holds for all x and m at a monoid element n, and the n
    where it does contain the unit (by the unit laws, checked first) and
    are closed under products, so generators suffice, as in Light's test
    (`groups._check_associativity`).  For a, b in that set, by the law at
    a or b and the laws already checked:
      (x·m)·n = x·mn:     (x·m)·ab = ((x·m)·a)·b = (x·ma)·b = x·(ma·b);
      (m·x)·n = m·(x·n):  (m·x)·ab = ((m·x)·a)·b = (m·(x·a))·b = m·((x·a)·b);
      f(x·n) = f(x)·n:    f(x·ab) = f((x·a)·b) = f(x·a)·b = (f(x)·a)·b;
      f(mn) = f(m)f(n):   f(m·ab) = f(ma·b) = f(ma)f(b) = (f(m)f(a))f(b);
    each chain ends at the law's right side at ab by an action or
    associativity law.
    """
    for g in _generators(mul, 1)[0]:
        for x in range(points):
            lhs, rhs = map(tuple, sides(x, g))
            if lhs != rhs:
                i = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                raise ValueError(law.format(x=x, i=i, g=g))


class PointedMonoid(_Record):
    """A finite monoid with absorbing zero at index 0 and unit at index 1.

    Equality and the hash ignore the attached group.
    """

    _fields = ("size", "mul", "group")
    _compared = ("size", "mul")

    def __init__(self, size: int, mul: Tuple[Tuple[int, ...], ...],
                 group: Optional[FiniteGroup] = None) -> None:
        self.__dict__.update(size=size, mul=mul, group=group)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = self.size
        if n < 2:
            raise ValueError(f"pointed monoid needs size >= 2, got {n}")
        _check_table("mul table", self.mul, n, n, n)
        for x in range(n):
            if self.mul[0][x] != 0 or self.mul[x][0] != 0:
                raise ValueError(f"index 0 fails to absorb at {x}")
            if self.mul[1][x] != x or self.mul[x][1] != x:
                raise ValueError(f"index 1 is not a unit at {x}")
        _check_associativity(self.mul, 1)

    @property
    def is_group_monoid(self) -> bool:
        return self.group is not None

    def to_json(self) -> Dict:
        return {"size": self.size, "mul": [list(r) for r in self.mul]}


@_memo_on_group
def group_monoid(group: FiniteGroup) -> PointedMonoid:
    """The group with an adjoined absorbing zero; element i sits at index i+1."""
    n = group.order + 1
    mul = ((0,) * n,) + tuple((0,) + tuple(v + 1 for v in row) for row in group.cayley)
    return _derived(PointedMonoid, n, mul, group)


def monoid_from_json(obj: Dict) -> PointedMonoid:
    """Monoid from {"size": n, "mul": [[...]]}.

    When the nonzero elements form a group, the group is attached.
    """
    if not isinstance(obj, dict) or "mul" not in obj:
        raise ValueError("monoid JSON must be an object with a mul table")
    mul = _int_table(obj["mul"], "mul table")
    if obj.get("size", len(mul)) != len(mul):
        raise ValueError("declared size disagrees with the mul table")
    monoid = PointedMonoid(len(mul), mul)
    try:
        return detect_group(monoid)
    except ValueError:
        return monoid


def detect_group(monoid: PointedMonoid) -> PointedMonoid:
    """Attach the underlying group to a monoid whose nonzero part is a group.

    Raises ValueError when the nonzero elements fail to form a group.  The
    monoid is validated, so they form one exactly when each row of their
    table is a permutation: no zero divisors and left cancellation.
    """
    if monoid.group is not None:
        return monoid
    n = monoid.size - 1
    table = tuple(tuple(v - 1 for v in row[1:]) for row in monoid.mul[1:])
    for row in table:
        if -1 in row:
            raise ValueError("monoid has zero divisors; not a group monoid")
        if len(set(row)) != n:
            raise ValueError("monoid elements lack inverses; not a group monoid")
    group = _derived(FiniteGroup, n, table, None)
    return _derived(PointedMonoid, monoid.size, monoid.mul, group)


class FiniteModule(_Record):
    """A finite pointed right module: carrier with action table carrier x monoid."""

    _fields = ("monoid", "size", "action")

    def __init__(self, monoid: PointedMonoid, size: int,
                 action: Tuple[Tuple[int, ...], ...]) -> None:
        self.__dict__.update(monoid=monoid, size=size, action=action)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("module carrier needs size >= 1")
        act, mul = self.action, self.monoid.mul
        _check_table("action table", act, self.size, self.monoid.size, self.size)
        if any(act[0]):
            raise ValueError("basepoint must be fixed by the action")
        for x, row in enumerate(act):
            if row[0] != 0:
                raise ValueError("the monoid zero must send everything to the basepoint")
            if row[1] != x:
                raise ValueError("the monoid unit must act as the identity")
        columns, mul_columns = tuple(zip(*act)), tuple(zip(*mul))
        _check_on_generators(
            "action compatibility fails at ({x}, {i}, {g})", mul, self.size,
            lambda x, n: (map(columns[n].__getitem__, act[x]),
                          map(act[x].__getitem__, mul_columns[n])))

    @cached_property
    def profile(self) -> Tuple[Tuple[int, int], ...]:
        """Per carrier element: how many monoid elements fix it and kill it."""
        return tuple((row.count(x), row.count(0)) for x, row in enumerate(self.action))

    def orbits(self) -> List[Tuple[int, ...]]:
        """Orbit partition of the nonzero carrier (group monoids only)."""
        if not self.monoid.is_group_monoid:
            raise ValueError("orbit decomposition needs a group monoid")
        gens = self.monoid.group.generators
        return list(_orbits(range(1, self.size),
                            [[row[g + 1] for row in self.action] for g in gens]))

    def stabilizer_elements(self, x: int) -> Tuple[int, ...]:
        """Group element indices fixing x (group monoids only)."""
        group = self.monoid.group
        if group is None:
            raise ValueError("stabilizers need a group monoid")
        return tuple(g for g in range(group.order) if self.action[x][g + 1] == x)

    def to_json(self) -> Dict:
        return {
            "monoid": self.monoid.to_json(),
            "size": self.size,
            "action": [list(r) for r in self.action],
        }


class ModuleHom(_Record):
    """A basepoint-preserving equivariant map between modules over one monoid."""

    _fields = ("source", "target", "map")

    def __init__(self, source: FiniteModule, target: FiniteModule,
                 map: Tuple[int, ...]) -> None:
        self.__dict__.update(source=source, target=target, map=map)
        self.__post_init__()

    def __post_init__(self) -> None:
        src, tgt, f = self.source, self.target, self.map
        if src.monoid != tgt.monoid:
            raise ValueError("source and target must share the monoid")
        _check_table("map", (f,), 1, src.size, tgt.size)
        if f[0] != 0:
            raise ValueError("module hom must preserve the basepoint")
        _check_on_generators(
            "equivariance fails at ({i}, {g})", src.monoid.mul, 1,
            lambda _, m: (map(f.__getitem__, [row[m] for row in src.action]),
                          [tgt.action[y][m] for y in f]))

    def __call__(self, x: int) -> int:
        return self.map[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.size

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other (other first)."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return _derived(ModuleHom, other.source, self.target,
                        tuple(self.map[v] for v in other.map))


# --- constructors --------------------------------------------------------

def zero_module(m: PointedMonoid) -> FiniteModule:
    return _derived(FiniteModule, m, 1, (tuple([0] * m.size),))


def free_module(m: PointedMonoid, rank: int) -> FiniteModule:
    """Wedge of `rank` copies of the monoid acting on itself."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    regular = _derived(FiniteModule, m, m.size, m.mul)
    return wedge([regular] * rank) if rank else zero_module(m)


def wedge(mods: Sequence[FiniteModule]) -> FiniteModule:
    """One-point union of modules over a common monoid, blocks in order."""
    if not mods:
        raise ValueError("wedge needs at least one module")
    monoid = mods[0].monoid
    for s in mods:
        if s.monoid != monoid:
            raise ValueError("wedge requires a common monoid")
    action = [(0,) * monoid.size]
    for s in mods:
        off = len(action) - 1
        for x in range(1, s.size):
            action.append(tuple([0 if v == 0 else v + off for v in s.action[x]]))
    return _derived(FiniteModule, monoid, len(action), tuple(action))


def wedge_with_inclusions(mods: Sequence[FiniteModule]) -> Tuple[FiniteModule, List[ModuleHom]]:
    """The wedge of `mods` with the inclusion of each block."""
    out = wedge(mods)
    offsets = accumulate([s.size - 1 for s in mods], initial=0)
    return out, [_derived(ModuleHom, s, out, (0,) + tuple(range(off + 1, off + s.size)))
                 for s, off in zip(mods, offsets)]


def coset_module(group: FiniteGroup, elements: Tuple[int, ...]) -> FiniteModule:
    """Right cosets Hx as a module over the group monoid, basepoint adjoined.

    Cosets are listed by ascending least element.  ValueError unless
    `elements` is a subgroup of `group`.
    """
    return _coset_module(group, _subgroup_elements(group, elements))


def _coset_module(group: FiniteGroup, elements: Tuple[int, ...]) -> FiniteModule:
    """`coset_module` of a subgroup the caller derived, not checked again."""
    monoid = group_monoid(group)
    reps, coset_of = _right_cosets(group, elements)
    action = ((0,) * monoid.size,) + tuple(
        (0,) + tuple(1 + coset_of[x] for x in group.cayley[rep]) for rep in reps)
    return _derived(FiniteModule, monoid, 1 + len(reps), action)


def submodule_inclusion(s: FiniteModule, members: Iterable[int]) -> ModuleHom:
    """Inclusion of the action-closed subset {0} | members as a module;
    ValueError for a member outside the carrier."""
    keep = sorted(set(members) | {0})
    for x in (keep[0], keep[-1]):
        if not 0 <= x < s.size:
            raise ValueError(f"member {x} outside 0..{s.size - 1}")
    pos = {x: i for i, x in enumerate(keep)}
    action = tuple(tuple(map(pos.get, s.action[x])) for x in keep)
    for x, row in zip(keep, action):
        if None in row:
            raise ValueError(f"subset not action-closed at ({x}, {row.index(None)})")
    sub = _derived(FiniteModule, s.monoid, len(keep), action)
    return _derived(ModuleHom, sub, s, tuple(keep))


def module_from_json(obj: Dict, monoid: Optional[PointedMonoid] = None) -> FiniteModule:
    """Module from {"monoid": <inline|"group">, "size": n, "action": [[...]]}.

    A monoid passed in programmatically (e.g. the group monoid of a CLI
    group) is used when the JSON says "group" or omits the monoid.
    """
    if not isinstance(obj, dict) or "action" not in obj:
        raise ValueError("module JSON must be an object with an action table")
    monoid_obj = obj.get("monoid")
    if monoid_obj is None or monoid_obj == "group":
        if monoid is None:
            raise ValueError("module JSON needs an inline monoid or a group context")
        m = monoid
    elif isinstance(monoid_obj, dict):
        m = monoid_from_json(monoid_obj)
    else:
        raise ValueError("module monoid must be inline or the string \"group\"")
    action = _int_table(obj["action"], "action table")
    if obj.get("size", len(action)) != len(action):
        raise ValueError("declared size disagrees with the action table")
    return FiniteModule(m, len(action), action)


# --- cofibrations and quotients ------------------------------------------

def _extend_equivariant(src: FiniteModule, dst: FiniteModule,
                        sigma: List[Optional[int]],
                        candidates: Callable[[int], Iterable[int]],
                        order: Sequence[int],
                        accept: Optional[Callable[[List[int]], bool]] = None,
                        ) -> Optional[Tuple[int, ...]]:
    """The first equivariant extension of the partial map `sigma`: src -> dst.

    Every assigned point is propagated along the action.  The search then
    branches on the first unassigned point u of `order`, trying each of
    `candidates(u)` in turn and undoing the trail on failure.  A map with
    every point of `order` assigned is complete; it is returned when
    `accept`, if given, takes it.  So the map returned is the least one in
    the order of the points and of their candidates.
    """
    msize = src.monoid.size

    def propagate(queue: List[int], trail: List[int]) -> bool:
        while queue:
            x = queue.pop()
            v = sigma[x]
            for m in range(msize):
                y = src.action[x][m]
                w = dst.action[v][m]
                if sigma[y] is None:
                    sigma[y] = w
                    trail.append(y)
                    queue.append(y)
                elif sigma[y] != w:
                    return False
        return True

    def backtrack() -> bool:
        u = next((x for x in order if sigma[x] is None), None)
        if u is None:
            return accept is None or accept(sigma)
        for v in candidates(u):
            sigma[u] = v
            trail = [u]
            if propagate([u], trail) and backtrack():
                return True
            for x in trail:
                sigma[x] = None
        return False

    seeds = [x for x, v in enumerate(sigma) if v is not None]
    if not (propagate(seeds, []) and backtrack()):
        return None
    return tuple(sigma)


def is_cofibration(f: ModuleHom) -> Tuple[bool, Optional[ModuleHom]]:
    """Whether f is a split injection of modules; returns the retraction witness.

    Over a group monoid the complement of the image is action-closed and the
    collapse retraction always works, which the search finds immediately.
    """
    if not f.is_injective:
        return False, None
    s, t = f.source, f.target
    seed: List[Optional[int]] = [None] * t.size
    for x, img in enumerate(f.map):
        seed[img] = x
    # the basepoint first: collapse is the common case
    sigma = _extend_equivariant(t, s, seed, lambda u: range(s.size), range(t.size))
    if sigma is None:
        return False, None
    return True, _derived(ModuleHom, t, s, sigma)


def quotient(f: ModuleHom) -> FiniteModule:
    return quotient_with_projection(f)[0]


def quotient_with_projection(f: ModuleHom) -> Tuple[FiniteModule, ModuleHom]:
    """Collapse the image of an injective hom to the basepoint."""
    if not f.is_injective:
        raise ValueError("quotient needs an injective hom")
    t = f.target
    image = set(f.map)
    keep = [x for x in range(t.size) if x not in image and x != 0]
    pos = {x: i for i, x in enumerate(keep, 1)}
    proj = tuple(pos.get(x, 0) for x in range(t.size))
    action = ((0,) * t.monoid.size,) + tuple(tuple(map(proj.__getitem__, t.action[x]))
                                              for x in keep)
    q = _derived(FiniteModule, t.monoid, 1 + len(keep), action)
    return q, _derived(ModuleHom, t, q, proj)


# --- monoidal structure --------------------------------------------------

def _pair_node(a: int, b: int, block: int) -> int:
    """Smash carrier index of the pair (a, b); 0 if either is the basepoint.

    `block` is the number of nonzero points of the right factor.
    """
    if a == 0 or b == 0:
        return 0
    return 1 + (a - 1) * block + (b - 1)


def diagonal_smash(s: FiniteModule, t: FiniteModule) -> FiniteModule:
    """Smash of the underlying pointed sets with the diagonal action."""
    if s.monoid != t.monoid:
        raise ValueError("diagonal smash needs a common monoid")
    block = t.size - 1
    total = 1 + (s.size - 1) * block
    action = [[0] * s.monoid.size]
    for a in range(1, s.size):
        for b in range(1, t.size):
            action.append([_pair_node(s.action[a][m], t.action[b][m], block)
                           for m in range(s.monoid.size)])
    return _derived(FiniteModule, s.monoid, total, tuple(tuple(r) for r in action))

