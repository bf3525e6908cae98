"""Seeded random builders for property checks.

Everything here is deterministic given a random.Random instance; the pools
of monoids and homomorphisms are fixed and cached.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Optional, Tuple

from .burnside import BurnsideElement, BurnsideRing
from .groups import build_group
from .modules import (FiniteModule, ModuleHom, MonoidHom, PointedMonoid,
                      generating_set, group_monoid, permute_module,
                      wedge_with_inclusions)

__all__ = [
    "random_effective", "random_element", "monoid_pool",
    "monoid_homs", "random_module", "random_hom", "random_permutation",
    "random_wedge_cofibration", "SplitInstance", "random_split_instance",
    "ExtensionInstance", "random_extension_instance",
]


def random_effective(ring: BurnsideRing, rng: random.Random,
                     max_support: int = 2, max_coeff: int = 2,
                     max_size: int = 12) -> BurnsideElement:
    """An effective element whose realization has at most max_size points."""
    sizes = [ring.group.order // rep.order
             for rep in ring.classification.representatives]
    for _ in range(64):
        support = rng.sample(range(ring.rank), min(max_support, ring.rank))
        coeffs = [0] * ring.rank
        for i in support:
            coeffs[i] = rng.randint(0, max_coeff)
        if sum(c * s for c, s in zip(coeffs, sizes)) <= max_size:
            return ring.element(coeffs)
    return ring.zero()


def random_element(ring: BurnsideRing, rng: random.Random,
                   max_size: int = 12) -> BurnsideElement:
    """A virtual element: difference of two bounded effective elements."""
    return (random_effective(ring, rng, max_size=max_size)
            - random_effective(ring, rng, max_size=max_size))


def _monoid_from_rows(rows: List[List[int]], name_labels: Tuple[str, ...]) -> PointedMonoid:
    return PointedMonoid(len(rows), tuple(tuple(r) for r in rows), name_labels)


@lru_cache(maxsize=None)
def monoid_pool(max_size: int = 6) -> Tuple[PointedMonoid, ...]:
    """Deterministic pool: group monoids and a few genuinely non-group ones."""
    pool: List[PointedMonoid] = []
    for name in ("C1", "C2", "C3", "C4", "V4", "C5"):
        m = group_monoid(build_group(name=name))
        if m.size <= max_size:
            pool.append(m)
    # one nilpotent and one idempotent generator
    pool.append(_monoid_from_rows(
        [[0, 0, 0], [0, 1, 2], [0, 2, 0]], ("0", "1", "x")))
    pool.append(_monoid_from_rows(
        [[0, 0, 0], [0, 1, 2], [0, 2, 2]], ("0", "1", "e")))
    # truncated power monoid {0, 1, x, x^2} with x^3 = 0
    pool.append(_monoid_from_rows(
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 0], [0, 3, 0, 0]],
        ("0", "1", "x", "x2")))
    return tuple(m for m in pool if m.size <= max_size)


@lru_cache(maxsize=None)
def monoid_homs(src: PointedMonoid, dst: PointedMonoid) -> Tuple[MonoidHom, ...]:
    """Every pointed monoid homomorphism src -> dst, by exhaustive search."""
    free = src.size - 2
    homs: List[MonoidHom] = []
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        partial = stack.pop()
        if len(partial) == free:
            full = (0, 1) + partial
            ok = True
            for a in range(src.size):
                for b in range(src.size):
                    if full[src.mul[a][b]] != dst.mul[full[a]][full[b]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                homs.append(MonoidHom(src, dst, full))
            continue
        for v in range(dst.size - 1, -1, -1):
            stack.append(partial + (v,))
    homs.sort(key=lambda h: h.map)
    return tuple(homs)


@lru_cache(maxsize=None)
def _small_modules(m: PointedMonoid, max_size: int) -> Tuple[FiniteModule, ...]:
    from .gtheory import _enumerate_modules
    return tuple(_enumerate_modules(m, max_size, 200000))


def random_module(m: PointedMonoid, rng: random.Random,
                  max_size: int = 4) -> FiniteModule:
    """A random module with carrier size <= max_size over any pool monoid."""
    if m.is_group_monoid:
        from .burnside import build_burnside
        ring = build_burnside(m.group)
        return ring.realize(random_effective(ring, rng, max_size=max_size - 1))
    choices = _small_modules(m, max_size)
    return choices[rng.randrange(len(choices))]


def random_hom(s: FiniteModule, t: FiniteModule,
               rng: random.Random, attempts: int = 30) -> Optional[ModuleHom]:
    """A random equivariant map, by propagating random generator images."""
    gens = generating_set(s)
    msize = s.monoid.size
    for _ in range(attempts):
        phi: List[Optional[int]] = [None] * s.size
        phi[0] = 0
        queue: List[int] = [0]
        ok = True
        for g in gens:
            if phi[g] is None:
                phi[g] = rng.randrange(t.size)
                queue.append(g)
        while queue and ok:
            x = queue.pop()
            for mm in range(msize):
                y = s.action[x][mm]
                v = t.action[phi[x]][mm]
                if phi[y] is None:
                    phi[y] = v
                    queue.append(y)
                elif phi[y] != v:
                    ok = False
                    break
        if ok and all(v is not None for v in phi):
            return ModuleHom(s, t, tuple(phi))
    return None


def random_permutation(size: int, rng: random.Random) -> Tuple[int, ...]:
    """A basepoint-fixing permutation of a carrier."""
    rest = list(range(1, size))
    rng.shuffle(rest)
    return (0,) + tuple(rest)


def random_wedge_cofibration(m: PointedMonoid, rng: random.Random,
                             max_part: int = 4) -> Tuple[ModuleHom, FiniteModule]:
    """A disguised wedge inclusion A -> B plus the complementary part.

    The inclusion is a cofibration by construction; the target is relabeled
    by a random permutation so the complement is not an index range.
    """
    a = random_module(m, rng, max_part)
    d = random_module(m, rng, max_part)
    b, incls = wedge_with_inclusions([a, d])
    perm = random_permutation(b.size, rng)
    b_disguised, relabel = permute_module(b, perm)
    return relabel.compose(incls[0]), d


class SplitInstance:
    """One random split-lemma scenario over a group monoid."""

    def __init__(self, inclusion: ModuleHom, complement: FiniteModule) -> None:
        self.inclusion = inclusion
        self.complement = complement


def random_split_instance(m: PointedMonoid, rng: random.Random) -> SplitInstance:
    incl, complement = random_wedge_cofibration(m, rng)
    return SplitInstance(incl, complement)


class ExtensionInstance:
    """A commuting morphism of split cofibration sequences, disguised."""

    def __init__(self, f1: ModuleHom, f2: ModuleHom, p: ModuleHom,
                 i: ModuleHom) -> None:
        self.f1 = f1
        self.f2 = f2
        self.p = p
        self.i = i


def random_extension_instance(m: PointedMonoid,
                              rng: random.Random) -> ExtensionInstance:
    """Build A -> B -> B/A mapping into an enlarged sequence, then relabel."""
    a = random_module(m, rng, 4)
    tail = random_module(m, rng, 4)
    extra_a = random_module(m, rng, 3)
    extra_tail = random_module(m, rng, 3)

    b, b_incls = wedge_with_inclusions([a, tail])
    a2, a2_incls = wedge_with_inclusions([a, extra_a])
    tail2, tail2_incls = wedge_with_inclusions([tail, extra_tail])
    b2, b2_incls = wedge_with_inclusions([a2, tail2])

    f1 = b_incls[0]                      # A -> B
    f2 = b2_incls[0]                     # A2 -> B2
    p = a2_incls[0]                      # A -> A2
    # B = A v tail -> B2 = A2 v tail2, matching blocks
    tail_in_b2 = b2_incls[1].compose(tail2_incls[0])
    i_map: List[int] = [0] * b.size
    for x in range(a.size):
        i_map[b_incls[0].map[x]] = f2.map[p.map[x]]
    for x in range(tail.size):
        i_map[b_incls[1].map[x]] = tail_in_b2.map[x]
    i = ModuleHom(b, b2, tuple(i_map))

    perm_b = random_permutation(b.size, rng)
    b_d, relabel_b = permute_module(b, perm_b)
    perm_b2 = random_permutation(b2.size, rng)
    b2_d, relabel_b2 = permute_module(b2, perm_b2)

    f1_d = relabel_b.compose(f1)
    f2_d = relabel_b2.compose(f2)
    inv_b = [0] * b.size
    for x in range(b.size):
        inv_b[relabel_b.map[x]] = x
    i_d = relabel_b2.compose(i.compose(ModuleHom(b_d, b, tuple(inv_b))))
    return ExtensionInstance(f1_d, f2_d, p, i_d)
