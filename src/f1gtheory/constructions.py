"""Library constructions on pointed monoids, their modules, and groups.

Monoid homomorphisms and bimodules, base change and restriction of scalars,
the balanced smash product, pushouts along cofibrations, the explicit
module of ordered distinct tuples (whose class `lambda_ops.diamond_class`
reads off the marks), equivariant sections, and isomorphism testing with
witnesses, for modules and for groups.  The engine modules and the CLI
never import this module; the package loads it on first use of one of its
names.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InternalCheckError
from .groups import (FiniteGroup, _check_table, _derived, _generating_sequence,
                     _lattice, classify_subgroups)
from .modules import (FiniteModule, ModuleHom, PointedMonoid, _check_on_generators,
                      _extend_equivariant, _pair_node, group_monoid,
                      is_cofibration, zero_module)
from .records import _Record

__all__ = [
    "F1", "MonoidHom", "Bimodule", "identity_monoid_hom",
    "bimodule_from_monoid_hom", "bimodule_from_module", "pushout", "smash",
    "base_change", "base_change_hom", "restrict_scalars", "diamond",
    "generating_set",
    "are_isomorphic", "find_section", "find_isomorphism", "is_isomorphic",
]

F1 = group_monoid(FiniteGroup(1, ((0,),), "C1"))


# --- monoid homomorphisms and bimodules ----------------------------------

class MonoidHom(_Record):
    """A zero- and unit-preserving multiplicative map between pointed monoids."""

    _fields = ("source", "target", "map")

    def __init__(self, source: PointedMonoid, target: PointedMonoid,
                 map: Tuple[int, ...]) -> None:
        self.__dict__.update(source=source, target=target, map=map)
        self.__post_init__()

    def __post_init__(self) -> None:
        src, tgt, f = self.source, self.target, self.map
        _check_table("map", (f,), 1, src.size, tgt.size)
        if f[0] != 0 or f[1] != 1:
            raise ValueError("monoid hom must fix zero and unit")
        _check_on_generators(
            "multiplicativity fails at ({i}, {g})", src.mul, 1,
            lambda _, b: (map(f.__getitem__, [row[b] for row in src.mul]),
                          [tgt.mul[y][f[b]] for y in f]))

    def __call__(self, x: int) -> int:
        return self.map[x]


def identity_monoid_hom(m: PointedMonoid) -> MonoidHom:
    return _derived(MonoidHom, m, m, tuple(range(m.size)))


class Bimodule(_Record):
    """A pointed set with commuting left and right monoid actions.

    left[s][m] is m * s, right[s][n] is s * n.
    """

    _fields = ("left_monoid", "right_monoid", "size", "left", "right")

    def __init__(self, left_monoid: PointedMonoid, right_monoid: PointedMonoid,
                 size: int, left: Tuple[Tuple[int, ...], ...],
                 right: Tuple[Tuple[int, ...], ...]) -> None:
        self.__dict__.update(left_monoid=left_monoid, right_monoid=right_monoid,
                             size=size, left=left, right=right)
        self.__post_init__()

    def __post_init__(self) -> None:
        lm, rm, left, right = self.left_monoid, self.right_monoid, self.left, self.right
        # m·s = left[s][m] is the right action s·m of the opposite monoid
        opposite = _derived(PointedMonoid, lm.size, tuple(zip(*lm.mul)), None)
        for side, monoid, table in (("left", opposite, left), ("right", rm, right)):
            try:
                FiniteModule(monoid, self.size, table)
            except ValueError as exc:
                raise ValueError(f"{side} action: {exc}") from None
        right_columns = tuple(zip(*right))
        _check_on_generators(
            "actions fail to commute at ({x}, {i}, {g})", rm.mul, self.size,
            lambda s, n: (map(right_columns[n].__getitem__, left[s]), left[right[s][n]]))


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


# --- pushouts ------------------------------------------------------------

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


# --- smash products and change of scalars --------------------------------

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


# --- ordered tuple modules -----------------------------------------------

def diamond(s: FiniteModule, k: int) -> FiniteModule:
    """Ordered k-tuples of distinct nonzero elements, numbered in
    lexicographic order, with the diagonal action."""
    if not s.monoid.is_group_monoid:
        raise ValueError("the diamond construction needs a group monoid")
    if k <= 0:
        raise ValueError("diamond needs k >= 1")
    if k > s.size - 1:
        return zero_module(s.monoid)
    tuples = list(permutations(range(1, s.size), k))
    index = {t: 1 + i for i, t in enumerate(tuples)}
    # a group permutes the nonzero elements, so every image is a tuple
    action = [(0,) * s.monoid.size] + [
        (0, *(index[tuple(s.action[x][m] for x in t)]
              for m in range(1, s.monoid.size)))
        for t in tuples]
    return _derived(FiniteModule, s.monoid, 1 + len(tuples), tuple(action))


# --- isomorphism of modules ----------------------------------------------

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


def _iso_group_case(s: FiniteModule, t: FiniteModule) -> Optional[Tuple[int, ...]]:
    group = s.monoid.group
    cls, id_of = classify_subgroups(group), _lattice(group).id_of
    by_class_s: Dict[int, List[int]] = {}
    by_class_t: Dict[int, List[int]] = {}
    for module, bucket in ((s, by_class_s), (t, by_class_t)):
        for orb in module.orbits():
            rep = orb[0]
            c = cls.class_index(id_of(module.stabilizer_elements(rep)))
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


# --- sections ------------------------------------------------------------

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


# --- isomorphism of groups -----------------------------------------------

def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> Optional[Tuple[int, ...]]:
    """An isomorphism g1 -> g2 as an image tuple, or None.

    Backtracking on generator images, pruned by element orders.
    """
    if g1.order != g2.order:
        return None
    orders1 = sorted(g1.element_order(x) for x in range(g1.order))
    orders2 = sorted(g2.element_order(x) for x in range(g2.order))
    if orders1 != orders2:
        return None
    gens = _generating_sequence(g1)
    by_order: Dict[int, List[int]] = {}
    for y in range(g2.order):
        by_order.setdefault(g2.element_order(y), []).append(y)

    def words_map(images: Sequence[int]) -> Optional[Tuple[int, ...]]:
        # grow the partial map as the closure of identity and the generators
        phi: Dict[int, int] = {g1.identity: g2.identity}
        frontier = [g1.identity]
        for g, img in zip(gens, images):
            if phi.get(g, img) != img:
                return None
            if g not in phi:
                phi[g] = img
                frontier.append(g)
        pending = list(phi)
        while pending:
            nxt: List[int] = []
            for x in pending:
                for g, img in zip(gens, images):
                    y = g1.mul(x, g)
                    v = g2.mul(phi[x], img)
                    if y in phi:
                        if phi[y] != v:
                            return None
                    else:
                        phi[y] = v
                        nxt.append(y)
            pending = nxt
        if len(phi) != g1.order:
            return None
        image = [0] * g1.order
        seen = set()
        for x, y in phi.items():
            image[x] = y
            seen.add(y)
        if len(seen) != g1.order:
            return None
        for a in range(g1.order):
            for b in range(g1.order):
                if image[g1.mul(a, b)] != g2.mul(image[a], image[b]):
                    return None
        return tuple(image)

    def backtrack(i: int, chosen: List[int]) -> Optional[Tuple[int, ...]]:
        if i == len(gens):
            return words_map(chosen)
        want = g1.element_order(gens[i])
        for cand in by_order.get(want, ()):
            chosen.append(cand)
            result = backtrack(i + 1, chosen)
            if result is not None:
                return result
            chosen.pop()
        return None

    return backtrack(0, [])


def is_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    return find_isomorphism(g1, g2) is not None
