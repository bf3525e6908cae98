"""Finite pointed monoids and their finitely generated right modules.

Carriers are dense 0-based index sets.  Index 0 of a monoid is its absorbing
zero and index 1 its unit; index 0 of a module carrier is the basepoint.
The class constructors validate their tables exhaustively; objects the
functions here derive from validated ones are built with `_derived` and
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InternalCheckError
from .groups import (FiniteGroup, _derived, _int_table, _memo_on_group,
                     _right_cosets, classify_subgroups)

__all__ = [
    "PointedMonoid", "MonoidHom", "FiniteModule", "ModuleHom", "Bimodule",
    "F1", "group_monoid", "detect_group", "monoid_from_json",
    "identity_monoid_hom", "identity_hom", "bimodule_from_monoid_hom",
    "bimodule_from_module", "zero_module", "free_module", "wedge",
    "wedge_with_inclusions", "coset_module", "submodule_inclusion",
    "module_from_json", "generating_set", "is_cofibration", "quotient",
    "quotient_with_projection", "pushout", "smash", "diagonal_smash",
    "base_change", "base_change_hom", "restrict_scalars", "are_isomorphic",
    "find_section", "induced_quotient_map", "extension_property_check",
    "permute_module",
]


@dataclass(frozen=True)
class PointedMonoid:
    """A finite monoid with absorbing zero at index 0 and unit at index 1."""

    size: int
    mul: Tuple[Tuple[int, ...], ...]
    labels: Optional[Tuple[str, ...]] = field(default=None, compare=False)
    group: Optional[FiniteGroup] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.size
        if n < 2:
            raise ValueError(f"pointed monoid needs size >= 2, got {n}")
        if len(self.mul) != n or any(len(r) != n for r in self.mul):
            raise ValueError("mul table must be size x size")
        for row in self.mul:
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"mul entry {v} out of range 0..{n - 1}")
        for x in range(n):
            if self.mul[0][x] != 0 or self.mul[x][0] != 0:
                raise ValueError(f"index 0 fails to absorb at {x}")
            if self.mul[1][x] != x or self.mul[x][1] != x:
                raise ValueError(f"index 1 is not a unit at {x}")
        for a in range(n):
            for b in range(n):
                ab = self.mul[a][b]
                for c in range(n):
                    if self.mul[ab][c] != self.mul[a][self.mul[b][c]]:
                        raise ValueError(f"associativity fails at ({a}, {b}, {c})")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must equal size")

    @property
    def is_group_monoid(self) -> bool:
        return self.group is not None

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    def to_json(self) -> Dict:
        return {"size": self.size, "mul": [list(r) for r in self.mul]}


@_memo_on_group
def group_monoid(group: FiniteGroup) -> PointedMonoid:
    """The group with an adjoined absorbing zero; element i sits at index i+1."""
    if group.identity != 0:
        raise InternalCheckError("group_monoid expects the identity at index 0")
    n = group.order + 1
    mul = [[0] * n for _ in range(n)]
    for a in range(group.order):
        for b in range(group.order):
            mul[a + 1][b + 1] = group.cayley[a][b] + 1
    labels = ("0",) + tuple(group.label(x) for x in range(group.order))
    return _derived(PointedMonoid, n, tuple(tuple(r) for r in mul), labels, group)


F1 = group_monoid(FiniteGroup(1, ((0,),), 0, ("e",), "C1"))


def monoid_from_json(obj: Dict) -> PointedMonoid:
    """Monoid from {"size": n, "mul": [[...]], "labels": [...]}.

    When the nonzero elements form a group, the group is attached.
    """
    if not isinstance(obj, dict) or "mul" not in obj:
        raise ValueError("monoid JSON must be an object with a mul table")
    mul = _int_table(obj["mul"], "mul table")
    if obj.get("size", len(mul)) != len(mul):
        raise ValueError("declared size disagrees with the mul table")
    labels = obj.get("labels")
    if labels and not isinstance(labels, list):
        raise ValueError("monoid labels must be a list")
    monoid = PointedMonoid(len(mul), mul, tuple(map(str, labels)) if labels else None)
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
    group = _derived(FiniteGroup, n, table, 0,
                     tuple(monoid.label(x + 1) for x in range(n)), None)
    return _derived(PointedMonoid, monoid.size, monoid.mul, monoid.labels, group)


@dataclass(frozen=True)
class MonoidHom:
    """A zero- and unit-preserving multiplicative map between pointed monoids."""

    source: PointedMonoid
    target: PointedMonoid
    map: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.map) != self.source.size:
            raise ValueError("map length must equal source size")
        for v in self.map:
            if not 0 <= v < self.target.size:
                raise ValueError(f"image {v} out of range")
        if self.map[0] != 0 or self.map[1] != 1:
            raise ValueError("monoid hom must fix zero and unit")
        for a in range(self.source.size):
            for b in range(self.source.size):
                if self.map[self.source.mul[a][b]] != self.target.mul[self.map[a]][self.map[b]]:
                    raise ValueError(f"multiplicativity fails at ({a}, {b})")

    def __call__(self, x: int) -> int:
        return self.map[x]


def identity_monoid_hom(m: PointedMonoid) -> MonoidHom:
    return _derived(MonoidHom, m, m, tuple(range(m.size)))


@dataclass(frozen=True)
class FiniteModule:
    """A finite pointed right module: carrier with action table carrier x monoid."""

    monoid: PointedMonoid
    size: int
    action: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("module carrier needs size >= 1")
        if len(self.action) != self.size or any(len(r) != self.monoid.size for r in self.action):
            raise ValueError("action table must be size x monoid.size")
        for row in self.action:
            for v in row:
                if not 0 <= v < self.size:
                    raise ValueError(f"action entry {v} out of range")
        for m in range(self.monoid.size):
            if self.action[0][m] != 0:
                raise ValueError("basepoint must be fixed by the action")
        for x in range(self.size):
            if self.action[x][0] != 0:
                raise ValueError("the monoid zero must send everything to the basepoint")
            if self.action[x][1] != x:
                raise ValueError("the monoid unit must act as the identity")
        mul = self.monoid.mul
        for x in range(self.size):
            row = self.action[x]
            for m in range(self.monoid.size):
                xm = row[m]
                for n in range(self.monoid.size):
                    if self.action[xm][n] != self.action[x][mul[m][n]]:
                        raise ValueError(f"action compatibility fails at ({x}, {m}, {n})")

    @cached_property
    def profile(self) -> Tuple[Tuple[int, int], ...]:
        """Per carrier element: how many monoid elements fix it and kill it."""
        return tuple((row.count(x), row.count(0)) for x, row in enumerate(self.action))

    def act(self, x: int, m: int) -> int:
        return self.action[x][m]

    def orbit(self, x: int) -> Tuple[int, ...]:
        """The nonzero elements reachable from x; the full orbit for group monoids."""
        return tuple(sorted(set(self.action[x]) - {0}))

    def orbits(self) -> List[Tuple[int, ...]]:
        """Orbit partition of the nonzero carrier (group monoids only)."""
        if not self.monoid.is_group_monoid:
            raise ValueError("orbit decomposition needs a group monoid")
        seen: set = set()
        parts = []
        for x in range(1, self.size):
            if x in seen:
                continue
            orb = self.orbit(x)
            seen.update(orb)
            parts.append(orb)
        return parts

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


@dataclass(frozen=True)
class ModuleHom:
    """A basepoint-preserving equivariant map between modules over one monoid."""

    source: FiniteModule
    target: FiniteModule
    map: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.source.monoid != self.target.monoid:
            raise ValueError("source and target must share the monoid")
        if len(self.map) != self.source.size:
            raise ValueError("map length must equal source size")
        for v in self.map:
            if not 0 <= v < self.target.size:
                raise ValueError(f"image {v} out of range")
        if self.map[0] != 0:
            raise ValueError("module hom must preserve the basepoint")
        for x in range(self.source.size):
            fx = self.map[x]
            for m in range(self.source.monoid.size):
                if self.map[self.source.action[x][m]] != self.target.action[fx][m]:
                    raise ValueError(f"equivariance fails at ({x}, {m})")

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


def identity_hom(s: FiniteModule) -> ModuleHom:
    return _derived(ModuleHom, s, s, tuple(range(s.size)))


@dataclass(frozen=True)
class Bimodule:
    """A pointed set with commuting left and right monoid actions.

    left[s][m] is m * s, right[s][n] is s * n.
    """

    left_monoid: PointedMonoid
    right_monoid: PointedMonoid
    size: int
    left: Tuple[Tuple[int, ...], ...]
    right: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("bimodule carrier needs size >= 1")
        lm, rm = self.left_monoid, self.right_monoid
        if len(self.left) != self.size or any(len(r) != lm.size for r in self.left):
            raise ValueError("left table must be size x left_monoid.size")
        if len(self.right) != self.size or any(len(r) != rm.size for r in self.right):
            raise ValueError("right table must be size x right_monoid.size")
        for s in range(self.size):
            if self.left[s][0] != 0 or self.right[s][0] != 0:
                raise ValueError("monoid zeros must act as the basepoint collapse")
            if self.left[s][1] != s or self.right[s][1] != s:
                raise ValueError("monoid units must act as the identity")
        for m in range(lm.size):
            if self.left[0][m] != 0:
                raise ValueError("basepoint must be fixed on the left")
        for n in range(rm.size):
            if self.right[0][n] != 0:
                raise ValueError("basepoint must be fixed on the right")
        for s in range(self.size):
            for m in range(lm.size):
                ms = self.left[s][m]
                for m2 in range(lm.size):
                    # (m2 m) s == m2 (m s)
                    if self.left[s][lm.mul[m2][m]] != self.left[ms][m2]:
                        raise ValueError(f"left action fails at ({s}, {m}, {m2})")
            for n in range(rm.size):
                sn = self.right[s][n]
                for n2 in range(rm.size):
                    if self.right[s][rm.mul[n][n2]] != self.right[sn][n2]:
                        raise ValueError(f"right action fails at ({s}, {n}, {n2})")
        for s in range(self.size):
            for m in range(lm.size):
                for n in range(rm.size):
                    if self.right[self.left[s][m]][n] != self.left[self.right[s][n]][m]:
                        raise ValueError(f"actions fail to commute at ({s}, {m}, {n})")


def bimodule_from_monoid_hom(alpha: MonoidHom) -> Bimodule:
    """The target monoid as a source-target bimodule via alpha on the left."""
    n = alpha.target
    left = tuple(
        tuple(n.mul[alpha.map[m]][x] for m in range(alpha.source.size))
        for x in range(n.size)
    )
    return _derived(Bimodule, alpha.source, n, n.size, left, n.mul)


def bimodule_from_module(t: FiniteModule) -> Bimodule:
    """A right module as an F1-on-the-left bimodule."""
    left = tuple((0, x) for x in range(t.size))
    return _derived(Bimodule, F1, t.monoid, t.size, left, t.action)


# --- constructors --------------------------------------------------------

def zero_module(m: PointedMonoid) -> FiniteModule:
    return _derived(FiniteModule, m, 1, (tuple([0] * m.size),))


def free_module(m: PointedMonoid, rank: int) -> FiniteModule:
    """Wedge of `rank` copies of the monoid acting on itself."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    block = m.size - 1
    size = 1 + rank * block
    action = [[0] * m.size]
    for j in range(rank):
        for x in range(1, m.size):
            row = []
            for n in range(m.size):
                v = m.mul[x][n]
                row.append(0 if v == 0 else 1 + j * block + (v - 1))
            action.append(row)
    return _derived(FiniteModule, m, size, tuple(tuple(r) for r in action))


def wedge(mods: Sequence[FiniteModule]) -> FiniteModule:
    return wedge_with_inclusions(mods)[0]


def wedge_with_inclusions(mods: Sequence[FiniteModule]) -> Tuple[FiniteModule, List[ModuleHom]]:
    """One-point union of modules over a common monoid, with the block inclusions."""
    if not mods:
        raise ValueError("wedge needs at least one module")
    monoid = mods[0].monoid
    for s in mods:
        if s.monoid != monoid:
            raise ValueError("wedge requires a common monoid")
    offsets = []
    total = 1
    for s in mods:
        offsets.append(total - 1)
        total += s.size - 1
    action = [[0] * monoid.size]
    for s, off in zip(mods, offsets):
        for x in range(1, s.size):
            action.append([0 if v == 0 else v + off for v in s.action[x]])
    out = _derived(FiniteModule, monoid, total, tuple(tuple(r) for r in action))
    incls = [_derived(ModuleHom, s, out,
                      tuple(0 if x == 0 else x + off for x in range(s.size)))
             for s, off in zip(mods, offsets)]
    return out, incls


def coset_module(group: FiniteGroup, elements: Tuple[int, ...]) -> FiniteModule:
    """Right cosets Hx as a module over the group monoid, basepoint adjoined.

    Cosets are listed by ascending least element.
    """
    monoid = group_monoid(group)
    reps, coset_of = _right_cosets(group, elements)
    action = [[0] * monoid.size]
    for rep in reps:
        action.append([0] + [1 + coset_of[group.mul(rep, g)] for g in range(group.order)])
    return _derived(FiniteModule, monoid, 1 + len(reps), tuple(tuple(r) for r in action))


def submodule_inclusion(s: FiniteModule, members: Iterable[int]) -> ModuleHom:
    """Inclusion of the action-closed subset {0} | members as a module."""
    keep = sorted(set(members) | {0})
    pos = {x: i for i, x in enumerate(keep)}
    for x in keep:
        for m in range(s.monoid.size):
            if s.action[x][m] not in pos:
                raise ValueError(f"subset not action-closed at ({x}, {m})")
    action = tuple(
        tuple(pos[s.action[x][m]] for m in range(s.monoid.size)) for x in keep
    )
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


# --- structure of a single module ---------------------------------------

def generating_set(s: FiniteModule) -> Tuple[int, ...]:
    """A minimum set of carrier elements whose action orbits cover the module.

    Mutual-reachability classes of nonzero elements form a preorder; one
    least element from each source class is necessary and sufficient.
    """
    rows = [set(s.action[x]) for x in range(s.size)]
    comp: Dict[int, int] = {}
    comps: List[List[int]] = []
    for x in range(1, s.size):
        if x in comp:
            continue
        cid = len(comps)
        comp[x] = cid
        members = [x]
        for y in range(x + 1, s.size):
            if y not in comp and y in rows[x] and x in rows[y]:
                comp[y] = cid
                members.append(y)
        comps.append(members)
    incoming = [False] * len(comps)
    for z in range(1, s.size):
        for y in rows[z]:
            if y and comp[y] != comp[z]:
                incoming[comp[y]] = True
    gens = tuple(c[0] for i, c in enumerate(comps) if not incoming[i])
    covered = {0}
    for g in gens:
        covered |= rows[g]
    if len(covered) != s.size:
        raise InternalCheckError("source classes failed to cover the module")
    return gens


# --- cofibrations, quotients, pushouts -----------------------------------

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
    pos = {0: 0}
    for i, x in enumerate(keep):
        pos[x] = i + 1
    proj = tuple(pos.get(x, 0) for x in range(t.size))
    action = [[0] * t.monoid.size]
    for x in keep:
        action.append([proj[t.action[x][m]] for m in range(t.monoid.size)])
    q = _derived(FiniteModule, t.monoid, 1 + len(keep), tuple(tuple(r) for r in action))
    return q, _derived(ModuleHom, t, q, proj)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _quotient_module(uf: _UnionFind, total: int, monoid: PointedMonoid,
                     act_node: Callable[[int, int], int],
                     what: str) -> Tuple[FiniteModule, List[int]]:
    """The module on the union-find classes of nodes 0..total-1.

    Classes are listed by least node.  Returns the module and the class
    index of each node; `act_node(node, m)` must respect the classes.
    """
    members: Dict[int, List[int]] = {}
    for x in range(total):
        members.setdefault(uf.find(x), []).append(x)
    classes = sorted(members.values(), key=min)
    index = [0] * total
    for i, cls in enumerate(classes):
        for x in cls:
            index[x] = i
    action = []
    for cls in classes:
        row = []
        for m in range(monoid.size):
            images = {index[act_node(node, m)] for node in cls}
            if len(images) != 1:
                raise InternalCheckError(f"{what} action is not well defined")
            row.append(images.pop())
        action.append(tuple(row))
    return _derived(FiniteModule, monoid, len(classes), tuple(action)), index


def pushout(f: ModuleHom, g: ModuleHom) -> Tuple[FiniteModule, ModuleHom, ModuleHom]:
    """Pushout of a cofibration f along g; returns (P, leg from f.target, leg from g.target).

    The second leg is itself a cofibration; that is verified, not assumed.
    """
    if f.source != g.source:
        raise ValueError("pushout needs a common source")
    ok, _ = is_cofibration(f)
    if not ok:
        raise ValueError("pushout requires the first map to be a cofibration")
    t1, t2 = f.target, g.target
    n1, n2 = t1.size, t2.size

    def node1(x: int) -> int:
        return 0 if x == 0 else x

    def node2(y: int) -> int:
        return 0 if y == 0 else n1 - 1 + y

    def act_node(node: int, m: int) -> int:
        if node == 0:
            return 0
        if node < n1:
            return node1(t1.action[node][m])
        return node2(t2.action[node - n1 + 1][m])

    total = n1 + n2 - 1
    uf = _UnionFind(total)
    for x in range(f.source.size):
        uf.union(node1(f.map[x]), node2(g.map[x]))
    p, index = _quotient_module(uf, total, t1.monoid, act_node, "pushout")
    leg1 = _derived(ModuleHom, t1, p, tuple(index[node1(x)] for x in range(n1)))
    leg2 = _derived(ModuleHom, t2, p, tuple(index[node2(y)] for y in range(n2)))
    ok2, _ = is_cofibration(leg2)
    if not ok2:
        raise InternalCheckError("pushout failed to produce a cofibration leg")
    return p, leg1, leg2


# --- monoidal structure --------------------------------------------------

def _pair_node(a: int, b: int, block: int) -> int:
    """Smash carrier index of the pair (a, b); 0 if either is the basepoint.

    `block` is the number of nonzero points of the right factor.
    """
    if a == 0 or b == 0:
        return 0
    return 1 + (a - 1) * block + (b - 1)


def _smash_tables(s: FiniteModule, t: Bimodule) -> Tuple[FiniteModule, List[int], int]:
    """Smash module plus the map from (a, b) pair nodes to carrier classes.

    Pair (a, b) with both nonzero sits at node 1 + (a-1)*(t.size-1) + (b-1);
    the returned index list sends nodes to classes of the quotient module.
    """
    if s.monoid != t.left_monoid:
        raise ValueError("smash needs s.monoid == t.left_monoid")
    ns, nt = s.size, t.size
    block = nt - 1

    def act_node(n0: int, q: int) -> int:
        if n0 == 0:
            return 0
        a = (n0 - 1) // block + 1
        b = (n0 - 1) % block + 1
        return _pair_node(a, t.right[b][q], block)

    total = 1 + (ns - 1) * block
    uf = _UnionFind(total)
    for a in range(1, ns):
        for b in range(1, nt):
            for m in range(s.monoid.size):
                uf.union(_pair_node(s.action[a][m], b, block),
                         _pair_node(a, t.left[b][m], block))
    module, index = _quotient_module(uf, total, t.right_monoid, act_node, "smash")
    return module, index, block


def smash(s: FiniteModule, t) -> FiniteModule:
    """Balanced smash product over the middle monoid.

    `t` is a bimodule whose left monoid matches s.monoid; a plain module is
    accepted when s lives over F1.  The result is a right module over the
    bimodule's right monoid.
    """
    if isinstance(t, FiniteModule):
        if s.monoid != F1:
            raise ValueError("a plain right factor needs the left factor over F1")
        t = bimodule_from_module(t)
    return _smash_tables(s, t)[0]


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


def base_change(alpha: MonoidHom, s: FiniteModule) -> FiniteModule:
    """Extension of scalars along alpha, as smashing with the target monoid."""
    if s.monoid != alpha.source:
        raise ValueError("base change needs a module over alpha.source")
    return smash(s, bimodule_from_monoid_hom(alpha))


def base_change_hom(alpha: MonoidHom, f: ModuleHom) -> ModuleHom:
    """The map induced by base change: class of (a, n) goes to (f(a), n)."""
    bimod = bimodule_from_monoid_hom(alpha)
    src, src_index, src_block = _smash_tables(f.source, bimod)
    dst, dst_index, dst_block = _smash_tables(f.target, bimod)
    mapping: List[Optional[int]] = [None] * src.size
    mapping[0] = 0
    for a in range(1, f.source.size):
        for b in range(1, bimod.size):
            c_src = src_index[_pair_node(a, b, src_block)]
            c_dst = dst_index[_pair_node(f.map[a], b, dst_block)]
            if mapping[c_src] is None:
                mapping[c_src] = c_dst
            elif mapping[c_src] != c_dst:
                raise InternalCheckError("base change of a hom is not well defined")
    return _derived(ModuleHom, src, dst, tuple(v if v is not None else 0 for v in mapping))


def restrict_scalars(alpha: MonoidHom, s: FiniteModule) -> FiniteModule:
    """The same carrier viewed over alpha.source through alpha."""
    if s.monoid != alpha.target:
        raise ValueError("restriction needs a module over alpha.target")
    action = tuple(
        tuple(s.action[x][alpha.map[m]] for m in range(alpha.source.size))
        for x in range(s.size)
    )
    return _derived(FiniteModule, alpha.source, s.size, action)


# --- isomorphism ---------------------------------------------------------

def _iso_group_case(s: FiniteModule, t: FiniteModule) -> Optional[Tuple[int, ...]]:
    group = s.monoid.group
    cls = classify_subgroups(group)
    by_class_s: Dict[int, List[int]] = {}
    by_class_t: Dict[int, List[int]] = {}
    for module, bucket in ((s, by_class_s), (t, by_class_t)):
        for orb in module.orbits():
            rep = orb[0]
            c = cls.class_index(module.stabilizer_elements(rep))
            bucket.setdefault(c, []).append(rep)
    if {c: len(v) for c, v in by_class_s.items()} != {c: len(v) for c, v in by_class_t.items()}:
        return None
    phi = [0] * s.size
    for c in sorted(by_class_s):
        for x, y in zip(by_class_s[c], by_class_t[c]):
            stab_x = set(s.stabilizer_elements(x))
            stab_y = t.stabilizer_elements(y)
            target = None
            for u in range(group.order):
                if {group.conj(group.inv(u), a) for a in stab_y} == stab_x:
                    target = t.action[y][u + 1]
                    break
            if target is None:
                raise InternalCheckError("matched orbits with non-conjugate stabilizers")
            for g in range(group.order):
                phi[s.action[x][g + 1]] = t.action[target][g + 1]
    return tuple(phi)


def _iso_generic_case(s: FiniteModule, t: FiniteModule) -> Optional[Tuple[int, ...]]:
    prof_s, prof_t = s.profile, t.profile
    if sorted(prof_s) != sorted(prof_t):
        return None
    seed: List[Optional[int]] = [0] + [None] * (s.size - 1)
    return _extend_equivariant(
        s, t, seed,
        lambda x: [y for y in range(1, t.size) if prof_t[y] == prof_s[x]],
        generating_set(s),
        lambda phi: len(set(phi)) == s.size)


def are_isomorphic(s: FiniteModule, t: FiniteModule) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Equivariant pointed bijection search; returns the witness image tuple.

    Group monoids go through orbit/stabilizer matching; everything else
    searches generator images with matching profiles.
    """
    if s.monoid != t.monoid:
        raise ValueError("isomorphism needs a common monoid")
    if s.size != t.size:
        return False, None
    if s.monoid.is_group_monoid:
        phi = _iso_group_case(s, t)
    else:
        phi = _iso_generic_case(s, t)
    if phi is None:
        return False, None
    ModuleHom(s, t, phi)  # validates equivariance; raises on an internal bug
    if len(set(phi)) != s.size:
        raise InternalCheckError("isomorphism witness is not a bijection")
    return True, phi


def permute_module(s: FiniteModule, perm: Sequence[int]) -> Tuple[FiniteModule, ModuleHom]:
    """Relabel the carrier along a permutation with perm[0] == 0."""
    if sorted(perm) != list(range(s.size)) or perm[0] != 0:
        raise ValueError("perm must be a basepoint-fixing permutation of the carrier")
    action = [[0] * s.monoid.size for _ in range(s.size)]
    for x in range(s.size):
        for m in range(s.monoid.size):
            action[perm[x]][m] = perm[s.action[x][m]]
    out = _derived(FiniteModule, s.monoid, s.size, tuple(tuple(r) for r in action))
    return out, _derived(ModuleHom, s, out, tuple(perm))


# --- sections and the extension property ---------------------------------

def find_section(p: ModuleHom) -> Optional[ModuleHom]:
    """An equivariant section of a surjective hom, or None."""
    t, q = p.source, p.target
    if set(p.map) != set(range(q.size)):
        raise ValueError("section search needs a surjective hom")
    fibers: Dict[int, List[int]] = {}
    for x, v in enumerate(p.map):
        fibers.setdefault(v, []).append(x)
    # p is equivariant, so propagation from fibre values stays in the fibres
    seed: List[Optional[int]] = [0] + [None] * (q.size - 1)
    sigma = _extend_equivariant(q, t, seed, fibers.__getitem__, range(q.size))
    if sigma is None:
        return None
    return _derived(ModuleHom, q, t, sigma)


def induced_quotient_map(f1: ModuleHom, f2: ModuleHom, i: ModuleHom) -> ModuleHom:
    """The map of cofiber quotients induced by a commuting middle map."""
    q1, proj1 = quotient_with_projection(f1)
    q2, proj2 = quotient_with_projection(f2)
    qmap: List[Optional[int]] = [None] * q1.size
    for x in range(f1.target.size):
        src = proj1.map[x]
        dst = proj2.map[i.map[x]]
        if qmap[src] is None:
            qmap[src] = dst
        elif qmap[src] != dst:
            raise ValueError("middle map does not descend to the quotients")
    return ModuleHom(q1, q2, tuple(v if v is not None else 0 for v in qmap))


def extension_property_check(f1: ModuleHom, f2: ModuleHom, p: ModuleHom,
                             i: ModuleHom, q: ModuleHom) -> bool:
    """Middle maps of cofibration-sequence morphisms are cofibrations.

    Inputs: cofibrations f1: A -> B and f2: A2 -> B2, verticals p: A -> A2,
    i: B -> B2, and q between the canonical quotients, all commuting, with p
    and q cofibrations.  Only group monoids are supported; a false outcome on
    a valid diagram would be an internal error, not a result.
    """
    monoid = f1.source.monoid
    if not monoid.is_group_monoid:
        raise ValueError("the extension property check supports group monoids only")
    for name, hom in (("f1", f1), ("f2", f2), ("p", p), ("q", q)):
        ok, _ = is_cofibration(hom)
        if not ok:
            raise ValueError(f"{name} must be a cofibration")
    if p.source != f1.source or p.target != f2.source:
        raise ValueError("p must run between the sequence sources")
    if i.source != f1.target or i.target != f2.target:
        raise ValueError("i must run between the sequence middles")
    left1 = tuple(i.map[f1.map[x]] for x in range(f1.source.size))
    left2 = tuple(f2.map[p.map[x]] for x in range(f1.source.size))
    if left1 != left2:
        raise ValueError("the left square does not commute")
    q1, proj1 = quotient_with_projection(f1)
    q2, proj2 = quotient_with_projection(f2)
    if q.source != q1 or q.target != q2:
        raise ValueError("q must run between the canonical quotients")
    right1 = tuple(q.map[proj1.map[x]] for x in range(f1.target.size))
    right2 = tuple(proj2.map[i.map[x]] for x in range(f1.target.size))
    if right1 != right2:
        raise ValueError("the right square does not commute")
    ok, _ = is_cofibration(i)
    if not ok:
        raise InternalCheckError("valid cofibration-sequence morphism with a non-cofibration middle")
    return True
