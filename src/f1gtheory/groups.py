"""Finite groups as dense Cayley tables: construction, subgroups, abelian invariants.

Elements are 0-based indices into the table; the identity is index 0.
"""

from __future__ import annotations

import json
import re
from functools import cached_property, wraps
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import _layer
from .errors import InternalCheckError, charge
from .records import _Record

# Only `abelianization` reads invariant factors.
snf = _layer("snf")

# Largest group a table, a generator closure or a JSON file may give, and
# the most points a permutation generator may act on: every group within
# the cap acts faithfully on its own elements, so on at most ORDER_CAP points.
ORDER_CAP = 1024
SUBGROUP_ENUMERATION_LIMIT = 64


def _check_table(what: str, table, rows: int, cols: int, bound: int) -> None:
    """Raise ValueError unless `table` is rows x cols (both >= 1), entries in 0..bound-1."""
    if len(table) != rows or any(len(row) != cols for row in table):
        raise ValueError(f"{what} must be {rows} x {cols}")
    low, high = min(map(min, table)), max(map(max, table))
    if low < 0 or high >= bound:
        raise ValueError(f"{what} entry {low if low < 0 else high} out of range 0..{bound - 1}")


def _generators(table, unit: int) -> List[int]:
    """Greedy generators of the monoid `table` with two-sided `unit`: an element
    joins unless a product ((unit·g1)·g2)·... of the earlier ones reaches it."""
    gens: List[int] = []
    reached = {unit}
    for g in range(len(table)):
        if g not in reached:
            gens.append(g)
            fresh = reached
            while fresh:
                fresh = {table[x][h] for x in fresh for h in gens} - reached
                reached |= fresh
    return gens


def _check_associativity(table: Tuple[Tuple[int, ...], ...], unit: int) -> None:
    """Raise ValueError unless the product `table` with two-sided `unit` is
    associative.

    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
    I, 1961), exact at every size: the g with (x·g)·y = x·(g·y) for all
    x, y contain the unit and are closed under the product, as
    (x·ab)·y = ((x·a)·b)·y = (x·a)·(b·y) = x·(a·(b·y)) = x·(ab·y).  No
    inverse is used, so it holds for monoids.  It suffices to check
    generators (`_generators`); `modules._check_on_generators` makes the
    same argument for the laws of modules and their maps.
    """
    n, t = len(table), table
    for g in _generators(t, unit):
        row_g = t[g]
        for x in range(n):
            row_xg, row_x = t[t[x][g]], t[x]
            # tuple() returns a tuple row itself, and makes a list row comparable
            if tuple(row_xg) != tuple(map(row_x.__getitem__, row_g)):
                y = next(y for y in range(n) if row_xg[y] != row_x[row_g[y]])
                raise ValueError(f"associativity fails at ({x}, {g}, {y})")


def _check_group_table(n: int, table: Tuple[Tuple[int, ...], ...], unit: int) -> None:
    """Raise ValueError unless `table` is an n x n group table whose
    two-sided identity is `unit`.

    Columns need no check: each permutation row x has a y with x·y = unit,
    and an associative table with a unit and right inverses is a group.
    """
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    _check_table("cayley table", table, n, n, n)
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise ValueError(f"row {i} is not a permutation")
    if (tuple(table[unit]) != tuple(range(n))
            or any(row[unit] != x for x, row in enumerate(table))):
        raise ValueError(f"index {unit} is not a two-sided identity")
    _check_associativity(table, unit)


class FiniteGroup(_Record):
    """A finite group given by its full multiplication table.

    The identity is index 0.  Equality and the hash ignore the name.
    """

    _fields = ("order", "cayley", "name")
    _compared = ("order", "cayley")
    identity = 0

    def __init__(self, order: int, cayley: Tuple[Tuple[int, ...], ...],
                 name: Optional[str] = None) -> None:
        self.__dict__.update(order=order, cayley=cayley, name=name)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_group_table(self.order, self.cayley, 0)

    @cached_property
    def inverse(self) -> Tuple[int, ...]:
        inv = [0] * self.order
        for a in range(self.order):
            inv[a] = self.cayley[a].index(self.identity)
        return tuple(inv)

    @cached_property
    def conjugations(self) -> Tuple[Tuple[int, ...], ...]:
        """Entry g: the map x -> g·x·g^-1, built for every g on first use."""
        t, inverse = self.cayley, self.inverse
        return tuple(tuple([t[y][inverse[g]] for y in t[g]]) for g in range(self.order))

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.cayley[self.cayley[g][x]][self.inverse[g]]

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = self.cayley[acc][x]
            k += 1
        return k

    def to_json(self) -> Dict:
        out: Dict = {"order": self.order, "cayley": [list(r) for r in self.cayley]}
        if self.name:
            out["name"] = self.name
        return out


class Subgroup(_Record):
    """A subgroup recorded as a sorted tuple of parent element indices."""

    _fields = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements: Tuple[int, ...]) -> None:
        self.__dict__.update(parent=parent, elements=elements)
        self.__post_init__()

    def __post_init__(self) -> None:
        if _subgroup_elements(self.parent, self.elements) != self.elements:
            raise ValueError(f"{self.elements} is not a sorted tuple")

    @property
    def order(self) -> int:
        return len(self.elements)


def _derived(cls, *values):
    """An instance of a validating record class whose field values are trusted.

    Objects the library derives from validated ones are built here and skip
    `__init__` with its `__post_init__`; `values` gives every field in the
    order of `cls._fields`.  Input from outside the library goes through the
    class constructor instead.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls._fields, values))
    return obj


def _int_table(raw, what: str) -> Tuple[Tuple[int, ...], ...]:
    """A table read from outside the library, as a tuple of int tuples.

    Raises ValueError unless `raw` is a list of lists of integers; bools,
    which Python counts as integers, are refused.
    """
    if (not isinstance(raw, (list, tuple))
            or not all(isinstance(row, (list, tuple)) for row in raw)
            or not all(type(v) is int for row in raw for v in row)):
        raise ValueError(f"{what} must be a list of integer lists")
    return tuple(map(tuple, raw))


def _memo_on_group(fn):
    """Memoize `fn(group, *args)` in the instance `__dict__` of `group`.

    That is where `functools.cached_property` stores its value, so frozen
    records allow it; every call is keyed by its extra arguments in one
    dict.  The memo is freed with the group, and two groups with one table
    but different names never share a result.
    """
    slot = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoized(group, *args):
        memo = group.__dict__.setdefault(slot, {})
        if args not in memo:
            memo[args] = fn(group, *args)
        return memo[args]

    return memoized


def _extend(group: FiniteGroup, h: Sequence[int], gens: Sequence[int]) -> Tuple[int, ...]:
    """The subgroup <gens>, grown from a subgroup `h` of it by cosets yH.

    When s·y leaves the set for a generator s and a coset representative
    y, the coset (sy)H joins.  The union is then closed under left
    multiplication by `gens` (s·y·h lies in (sy)H), so it is the subgroup.
    Cost: #cosets × #gens lookups plus |<gens>| to write the cosets down.
    """
    cayley = group.cayley
    rows = [cayley[s] for s in gens]
    members = set(h)
    frontier = [group.identity]
    while frontier:
        y = frontier.pop()
        for row in rows:
            z = row[y]
            if z not in members:
                members.update(map(cayley[z].__getitem__, h))
                frontier.append(z)
    return tuple(sorted(members))


def _span(group: FiniteGroup, seed: Iterable[int]) -> Tuple[List[int], Tuple[int, ...]]:
    """Greedy generators of the subgroup <seed>, and <seed> as a sorted tuple.

    A seed element outside the subgroup so far joins the generators, and
    the subgroup they generate is grown from the previous one by cosets
    (`_extend`): at most log2 of its order extensions, since each one at
    least doubles the order.
    """
    closure, gens = (group.identity,), []
    members = set(closure)
    for x in seed:
        if x not in members:
            gens.append(x)
            closure = _extend(group, closure, gens)
            members.update(closure)
    return gens, closure


def closure_of(group: FiniteGroup, seed: Iterable[int]) -> Tuple[int, ...]:
    """Smallest subgroup of `group` containing `seed`, as a sorted tuple."""
    return _span(group, seed)[1]


# --- permutation helpers -------------------------------------------------

def _check_degree(degree: int) -> None:
    if degree < 1:
        raise ValueError("degree must be >= 1")
    charge("groups.ORDER_CAP", degree, ORDER_CAP, "permutation degree")


def parse_cycles(text: str, degree: int) -> Tuple[int, ...]:
    """Parse cycle notation like "(1 2)(3 4)" into a 0-based image tuple.

    Points are written 1-based.  "()" and the empty string denote the
    identity permutation.  A degree past ORDER_CAP is refused before
    anything of that size is allocated.
    """
    _check_degree(degree)
    perm = list(range(degree))
    body = text.strip()
    if body in ("", "()"):
        return tuple(perm)
    if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", body):
        raise ValueError(f"malformed cycle notation: {text!r}")
    moved = set()
    for cyc in re.findall(r"\(([^()]*)\)", body):
        points = [int(p) for p in re.split(r"[\s,]+", cyc.strip()) if p]
        if not points:
            continue
        for p in points:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} outside 1..{degree}")
            if p - 1 in moved:
                raise ValueError(f"point {p} repeated in {text!r}")
            moved.add(p - 1)
        for i, p in enumerate(points):
            perm[p - 1] = points[(i + 1) % len(points)] - 1
    return tuple(perm)


def _compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    # (p * q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


def _perm_closure(perms: Sequence[Tuple[int, ...]], degree: int) -> List[Tuple[int, ...]]:
    identity = tuple(range(degree))
    seen = {identity}
    order_list = [identity]
    gens = sorted(set(perms))
    for x in order_list:  # breadth first: the list grows as it is walked
        for g in gens:
            y = _compose(x, g)
            if y not in seen:
                charge("groups.ORDER_CAP", len(seen) + 1, ORDER_CAP, "generated group order")
                seen.add(y)
                order_list.append(y)
    return order_list


def _group_from_perms(perms: Sequence[Tuple[int, ...]], degree: int,
                      name: Optional[str] = None) -> FiniteGroup:
    elems = _perm_closure(perms, degree)
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[_compose(a, b)] for b in elems) for a in elems
    )
    return _derived(FiniteGroup, len(elems), table, name)


# --- named library -------------------------------------------------------
# The library's tables are trusted; a test validates each of them once.

def _cyclic(n: int) -> FiniteGroup:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return _derived(FiniteGroup, n, table, f"C{n}")


def _dihedral(n: int) -> FiniteGroup:
    # indices 0..n-1 are rotations r^i, n..2n-1 are reflections s r^i
    def mul(a: int, b: int) -> int:
        (fa, ra), (fb, rb) = divmod(a, n), divmod(b, n)
        return n * (fa ^ fb) + (rb - ra if fb else ra + rb) % n

    size = 2 * n
    table = tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    return _derived(FiniteGroup, size, table, f"D{n}")


def _symmetric(n: int) -> FiniteGroup:
    if n == 1:
        return _derived(FiniteGroup, 1, ((0,),), "S1")
    gens = [parse_cycles("(1 2)", n)]
    if n >= 3:
        gens.append(parse_cycles("(" + " ".join(str(i) for i in range(1, n + 1)) + ")", n))
    return _group_from_perms(gens, n, name=f"S{n}")


def _alternating4() -> FiniteGroup:
    gens = [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 2 3)", 4)]
    return _group_from_perms(gens, 4, name="A4")


def _klein4() -> FiniteGroup:
    table = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    return _derived(FiniteGroup, 4, table, "V4")


def _quaternion8() -> FiniteGroup:
    # index 2u + s is the unit u of 1, i, j, k with the sign (-1)^s
    def mul(a: int, b: int) -> int:
        (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
        if u == 0 or v == 0:
            w, s = u + v, s + t
        else:  # i*i = -1, i*j = k and cyclically, j*i = -k
            w, s = (0, s + t + 1) if u == v else (6 - u - v, s + t + (v - u) % 3 - 1)
        return 2 * w + s % 2

    table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
    return _derived(FiniteGroup, 8, table, "Q8")


_NAME_RE = re.compile(r"^([A-Za-z])_?(\d+)$")
# each family's largest member and its builder; S1 builds but is not listed
_FAMILIES = {"C": (24, _cyclic), "D": (12, _dihedral), "S": (4, _symmetric)}
_SPECIAL = {"A4": _alternating4, "V4": _klein4, "Q8": _quaternion8}


def library_names() -> List[str]:
    return [f"{family}{n}" for family, (top, _) in _FAMILIES.items()
            for n in range(2 if family == "S" else 1, top + 1)] + list(_SPECIAL)


def _build_named(name: str) -> FiniteGroup:
    canon = name.strip()
    if canon.upper() in _SPECIAL:
        return _SPECIAL[canon.upper()]()
    m = _NAME_RE.match(canon)
    if not m:
        raise ValueError(f"unknown group name {name!r}")
    family, n = m.group(1).upper(), int(m.group(2))
    if family not in _FAMILIES:
        raise ValueError(f"unknown group family {family!r} in {name!r}")
    top, build = _FAMILIES[family]
    if n < 1 or n > top:
        raise ValueError(f"{family}{n} outside the library range (max {family}{top})")
    return build(n)


def build_group(*, name: Optional[str] = None,
                cayley: Optional[Sequence[Sequence[int]]] = None,
                generators: Optional[Sequence[str]] = None,
                degree: Optional[int] = None) -> FiniteGroup:
    """Build a group from a library name, an explicit table, or generators.

    Exactly one of `name`, `cayley`, `generators` must be given.  Generator
    strings use 1-based cycle notation and require `degree`.  The result of
    generator closure lists the identity at index 0 and the remaining
    elements in breadth-first discovery order.
    """
    sources = [s is not None for s in (name, cayley, generators)]
    if sum(sources) != 1:
        raise ValueError("exactly one of name, cayley, generators is required")
    if name is not None:
        return _build_named(name)
    if cayley is not None:
        table = _int_table(cayley, "cayley table")
        order = len(table)
        charge("groups.ORDER_CAP", order, ORDER_CAP, "group order")
        # the identity's row is the first one equal to range(order); with
        # none, index 0 lets the validation below name the fault
        full = tuple(range(order))
        e = next((i for i, row in enumerate(table) if row == full), 0)
        _check_group_table(order, table, e)
        if e:  # relabel so the identity sits at index 0
            perm = [e] + [x for x in range(order) if x != e]
            pos = {x: i for i, x in enumerate(perm)}
            table = tuple(tuple(pos[table[a][b]] for b in perm) for a in perm)
        return _derived(FiniteGroup, order, table, None)
    if degree is None:
        raise ValueError("generators require a degree")
    _check_degree(degree)
    perms = [parse_cycles(s, degree) for s in generators]
    return _group_from_perms(perms, degree)


def group_from_json(obj: Dict) -> FiniteGroup:
    """Build a group from its JSON object form.

    Accepted shapes: {"name": ...}, {"order": n, "cayley": [[...]]},
    {"generators": ["(1 2)", ...], "degree": n}.
    """
    if not isinstance(obj, dict):
        raise ValueError("group JSON must be an object")
    if "cayley" in obj:
        g = build_group(cayley=obj["cayley"])
        if "order" in obj and obj["order"] != g.order:
            raise ValueError("declared order disagrees with the table size")
        if obj.get("name"):
            g = _derived(FiniteGroup, g.order, g.cayley, str(obj["name"]))
        return g
    if "generators" in obj:
        gens, degree = obj["generators"], obj.get("degree")
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise ValueError("generators must be a list of cycle strings")
        if type(degree) is not int:
            raise ValueError("generators need an integer degree")
        return build_group(generators=gens, degree=degree)
    if "name" in obj:
        return build_group(name=str(obj["name"]))
    raise ValueError("group JSON needs one of cayley, generators, name")


def load_group(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh))


# --- subgroup structure --------------------------------------------------

@_memo_on_group
def all_subgroups(group: FiniteGroup) -> Tuple[Subgroup, ...]:
    """All subgroups, sorted by (order, element tuple); a subgroup's index
    here is its lattice id (`_Lattice`), the name the library uses for it.

    Cyclic extension: each known subgroup H grows by one extra element x,
    one x per coset xH (<H, xh> = <H, x>), until nothing new appears; each
    keeps the generators it was found with, and <H, x> is grown from H by
    cosets (`_extend`).  Exhaustive only up to order 64; larger groups are
    refused rather than silently truncated.
    """
    charge("groups.SUBGROUP_ENUMERATION_LIMIT", group.order,
           SUBGROUP_ENUMERATION_LIMIT, "group order for the subgroup lattice")
    primes = {p for p in range(2, group.order + 1) if all(p % d for d in range(2, p))}
    trivial = (group.identity,)
    found: Dict[Tuple[int, ...], Tuple[int, ...]] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        tried = set(h)
        for x in range(group.order):
            if x in tried:
                continue
            tried.update(map(group.cayley[x].__getitem__, h))
            gens = found[h] + (x,)
            k = _extend(group, h, gens)
            if len(k) // len(h) in primes:
                # by Lagrange no group lies strictly between H and K, so
                # every x in K outside H generates K with H
                tried.update(k)
            if k not in found:
                found[k] = gens
                frontier.append(k)
    ordered = sorted(found, key=lambda t: (len(t), t))
    return tuple(_derived(Subgroup, group, t) for t in ordered)


class _Lattice:
    """The subgroups of a group by id, their index in `all_subgroups`.

    Ids ascend with (order, elements): the trivial subgroup is 0, the group
    is `top`, and the subgroups of the subgroup with id h have ids <= h.
    With the bitmask of each, an intersection is one AND and one lookup.
    """

    def __init__(self, group: FiniteGroup) -> None:
        self.group = group
        self.subgroups = all_subgroups(group)
        self.masks = tuple(sum(1 << x for x in sub.elements) for sub in self.subgroups)
        self.ids = {mask: i for i, mask in enumerate(self.masks)}
        self.top = len(self.subgroups) - 1
        self._conjugations: Dict[int, Tuple[int, ...]] = {}

    def id_of(self, elements: Iterable[int]) -> Optional[int]:
        """The id of the subgroup with these elements; None for another set."""
        return self.ids.get(sum(1 << x for x in elements))

    def conjugation(self, g: int) -> Tuple[int, ...]:
        """Entry i: the id of gSg^-1, S the subgroup with id i; built on first use."""
        if g not in self._conjugations:
            c = self.group.conjugations[g]
            self._conjugations[g] = tuple(self.id_of(map(c.__getitem__, sub.elements))
                                          for sub in self.subgroups)
        return self._conjugations[g]


@_memo_on_group
def _lattice(group: FiniteGroup) -> _Lattice:
    return _Lattice(group)


class SubgroupClassification(_Record):
    """Conjugacy classes of the subgroups of H <= G, by lattice id.

    H has id `sub`; `members` lists the ids of each class, ascending, and
    the classes come in the order of their least member, the canonical
    representative.  `classes` gives the same subgroups as records.
    """

    _fields = ("group", "sub", "members")

    def __init__(self, group: FiniteGroup, sub: int,
                 members: Tuple[Tuple[int, ...], ...]) -> None:
        self.__dict__.update(group=group, sub=sub, members=members)

    @property
    def rank(self) -> int:
        return len(self.members)

    @cached_property
    def classes(self) -> Tuple[Tuple[Subgroup, ...], ...]:
        subgroups = _lattice(self.group).subgroups
        return tuple(tuple(map(subgroups.__getitem__, cls)) for cls in self.members)

    @cached_property
    def representatives(self) -> Tuple[Subgroup, ...]:
        return tuple(cls[0] for cls in self.classes)

    @cached_property
    def labels(self) -> Tuple[str, ...]:
        """One label per class: the order and the elements of its representative."""
        return tuple(f"order{rep.order}_rep{'-'.join(str(x) for x in rep.elements)}"
                     for rep in self.representatives)

    @cached_property
    def class_of(self) -> Dict[int, int]:
        """The class of each id below H."""
        return {sub: i for i, cls in enumerate(self.members) for sub in cls}

    def class_index(self, sub: Optional[int]) -> int:
        """The class of the subgroup with lattice id `sub`; ValueError unless it lies in H."""
        try:
            return self.class_of[sub]
        except KeyError:
            raise ValueError(f"subgroup {sub} is not a subgroup of the classified group") from None


def _subgroup_elements(group: FiniteGroup,
                       elements: Optional[Iterable[int]] = None) -> Tuple[int, ...]:
    """The sorted elements of a subgroup (all of `group` for None), or ValueError.

    Range first, then one closure: a finite subset of a group is a subgroup
    exactly when it is the subgroup it generates.
    """
    if elements is None:
        return tuple(range(group.order))
    elems = tuple(sorted(elements))
    if not all(0 <= x < group.order for x in elems):
        raise ValueError(f"{elems} has an element outside 0..{group.order - 1}")
    if closure_of(group, elems) != elems:
        raise ValueError(f"{elems} " + (
            "is empty; a subgroup needs at least one element" if not elems
            else "repeats an element" if len(set(elems)) != len(elems)
            else "is not closed under multiplication"))
    return elems


def _subgroup_id(group: FiniteGroup, elements: Optional[Iterable[int]] = None) -> int:
    """The lattice id of the subgroup `_subgroup_elements` validates."""
    elems = _subgroup_elements(group, elements)
    return _lattice(group).id_of(elems)


def classify_subgroups(group: FiniteGroup,
                       elements: Optional[Iterable[int]] = None) -> SubgroupClassification:
    """The H-orbits of the subgroups of G inside H = elements (default G)."""
    return _classify(group, _subgroup_id(group, elements))


@_memo_on_group
def _classify(group: FiniteGroup, sub: int) -> SubgroupClassification:
    """The H-conjugacy classes of the subgroups inside H, the subgroup with
    id `sub`: the orbits of H's generators, by conjugation, on the ids below H."""
    lattice = _lattice(group)
    top = lattice.masks[sub]
    # central generators fix every subgroup
    maps = [lattice.conjugation(g)
            for g in _generating_sequence(group, lattice.subgroups[sub].elements)
            if group.conjugations[g] != group.conjugations[group.identity]]
    below = [i for i in range(sub + 1) if lattice.masks[i] | top == top]
    return SubgroupClassification(group, sub, _orbits(below, maps))


def _orbits(points: Iterable[int], maps: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """The orbits through `points` of the group the permutations `maps`
    generate, each sorted, in the order of their first point in `points`."""
    seen: set = set()
    orbits = []
    for x in points:
        if x not in seen:
            orbit = [x]
            seen.add(x)
            for y in orbit:
                for c in maps:
                    if c[y] not in seen:
                        seen.add(c[y])
                        orbit.append(c[y])
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def normalizer(group: FiniteGroup, sub: Subgroup) -> Subgroup:
    """N_G(H): the g that conjugate the generators of H into H, checked
    against the orbit-stabilizer count |N_G(H)| = |G| / |class of H|.

    ValueError unless `sub` is a subgroup of `group`.
    """
    if sub.parent != group:
        raise ValueError("the subgroup belongs to another group")
    gens = _generating_sequence(group, sub.elements)
    inside = set(sub.elements)
    members = tuple(g for g, c in enumerate(group.conjugations)
                    if all(c[x] in inside for x in gens))
    lattice = _lattice(group)
    classification = _classify(group, lattice.top)
    orbit = classification.members[classification.class_index(lattice.id_of(sub.elements))]
    if len(members) * len(orbit) != group.order:
        raise InternalCheckError("normalizer order disagrees with the class size")
    return _derived(Subgroup, group, members)


def _right_cosets(group: FiniteGroup, elements: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Right cosets Hx by ascending least element.

    Returns the least element of each coset and, per group element, the
    index of its coset.  The first element no earlier coset covers is the
    least of its own.
    """
    h = tuple(elements)
    coset_of = [-1] * group.order
    reps: List[int] = []
    for x in range(group.order):
        if coset_of[x] < 0:
            for a in h:
                coset_of[group.cayley[a][x]] = len(reps)
            reps.append(x)
    return reps, coset_of


# --- abelian invariants -------------------------------------------------

def _power(group: FiniteGroup, x: int, e: int) -> int:
    """x^e for e >= 0, by square-and-multiply."""
    t, out = group.cayley, group.identity
    while e:
        if e & 1:
            out = t[out][x]
        x = t[x][x]
        e >>= 1
    return out


def abelianization(group: FiniteGroup, sub: Optional[Subgroup] = None) -> List[int]:
    """Invariant factors of W^ab for W = N_G(H)/H, smallest first; [] if trivial.

    H is `sub`, by default the trivial subgroup, which gives G^ab; a
    subgroup of another group is refused (`normalizer`).  W^ab is
    N/K for N = N_G(H) and K = H·[N, N], and both are read off in the ids
    of `group`: no quotient group is built.  K is normal in N, since H is
    (N normalizes it), [N, N] is (it is characteristic), and a product of
    normal subgroups is normal.  [N, N] is the normal closure of the
    commutators of a generating set of N, so K is grown from H by their
    orbits under conjugation by N (`_extend`; <S>·H is a subgroup for every
    S inside N, H being normal).

    A = N/K is finite abelian; its p-primary part is a sum of cyclic groups
    Z/p^e_i, so the p^j-torsion A[p^j] has p^(sum_i min(e_i, j)) elements.
    xK lies in A[p^j] exactly when x^(p^j) lies in K, so
    |A[p^j]| = #{x in N : x^(p^j) in K} / |K|, and p^r_j = |A[p^j]| / |A[p^(j-1)]|
    counts the r_j summands with e_i >= j.  The primary orders p^e_i merge
    into invariant factors (`merge_cyclic_factors`).
    """
    if sub is None:
        h, n = (group.identity,), tuple(range(group.order))
    else:
        h, n = sub.elements, normalizer(group, sub).elements
    gens = _generating_sequence(group, n)
    t, inverse = group.cayley, group.inverse
    commutators = {t[t[inverse[a]][inverse[b]]][t[a][b]] for a in gens for b in gens}
    conjugates = _orbits(commutators, [group.conjugations[g] for g in gens])
    k = _extend(group, h, [x for orbit in conjugates for x in orbit])
    members = set(k)
    primary: List[int] = []
    for p, e in snf.factorize(len(n) // len(k)).items():
        # count = |K|·|A[p^j]|, from j = 0 until A[p^j] is the whole p-part
        powers, count, ranks = n, len(k), []
        while count < len(k) * p ** e:
            powers = [_power(group, x, p) for x in powers]
            grown = sum(x in members for x in powers)
            ranks.append(snf.factorize(grown // count)[p])
            count = grown
        # summand i has exponent e_i = #{j : r_j > i}
        primary += [p ** sum(r > i for r in ranks) for i in range(ranks[0])]
    return snf.merge_cyclic_factors(primary)


@_memo_on_group
def _generating_sequence(group: FiniteGroup,
                         elements: Optional[Tuple[int, ...]] = None) -> Tuple[int, ...]:
    """Greedy generators of the subgroup `elements` (default the whole
    group): the least element outside the span so far joins next (`_span`)."""
    return tuple(_span(group, range(group.order) if elements is None else elements)[0])


def is_odd_cyclic(group: FiniteGroup) -> bool:
    """Cyclic of odd order: where the lambda-ring identities are guaranteed."""
    if group.order % 2 == 0 and group.order > 1:
        return False
    return any(group.element_order(x) == group.order
               for x in range(group.order))


@_memo_on_group
def conjugacy_classes_of_elements(group: FiniteGroup) -> Tuple[Tuple[int, ...], ...]:
    """Conjugacy classes of elements, each sorted, ordered by least member:
    the orbits of one conjugation map per generator."""
    return _orbits(range(group.order),
                   [group.conjugations[g] for g in _generating_sequence(group)])
