"""Restriction, induction, and conjugation between Burnside rings.

Both maps are read off the classification.  Induction sends H/L to G/L.
Restriction keeps every mark: m(Res_H x)(K) = m(x)(K) for K <= H (tom Dieck,
Transformation Groups and Representation Theory, LNM 766, section 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .burnside import BurnsideElement, BurnsideRing, build_burnside
from .errors import InternalCheckError
from .groups import FiniteGroup, _memo_on_group, subgroup_as_group
from .reports import CheckReport

__all__ = [
    "SubgroupContext", "subgroup_context", "restrict", "induce", "conjugate",
    "transport", "double_coset_reps", "check_double_coset", "check_frobenius",
    "green_morphism_check", "linear_dimension", "DoubleCosetReport",
    "FrobeniusReport",
]


@dataclass(frozen=True)
class SubgroupContext:
    """A subgroup re-indexed as a standalone group, with the embedding kept."""

    ambient: FiniteGroup
    elements: Tuple[int, ...]
    group: FiniteGroup
    embedding: Tuple[int, ...]

    @cached_property
    def ring(self) -> BurnsideRing:
        return build_burnside(self.group)

    @cached_property
    def ambient_ring(self) -> BurnsideRing:
        return build_burnside(self.ambient)

    @cached_property
    def class_map(self) -> Tuple[int, ...]:
        """Entry i: the ambient class of subgroup class i's representative."""
        classification = self.ambient_ring.classification
        return tuple(
            classification.class_index(self.embedding[e] for e in rep.elements)
            for rep in self.ring.classification.representatives
        )

    def position_of(self, ambient_element: int) -> int:
        """Index inside the re-indexed group of an ambient subgroup element."""
        return self.embedding.index(ambient_element)


@_memo_on_group
def subgroup_context(ambient: FiniteGroup, elements: Tuple[int, ...]) -> SubgroupContext:
    elems = tuple(sorted(elements))
    group, embedding = subgroup_as_group(ambient, elems)
    return SubgroupContext(ambient, elems, group, embedding)


def restrict(ctx: SubgroupContext, x: BurnsideElement) -> BurnsideElement:
    """Restriction A(ambient) -> A(subgroup), linear in x."""
    if x.ring.group != ctx.ambient:
        raise ValueError("element does not live over the ambient group")
    ghost = x.marks()
    return ctx.ring.from_marks([ghost[j] for j in ctx.class_map])


def induce(ctx: SubgroupContext, y: BurnsideElement) -> BurnsideElement:
    """Induction A(subgroup) -> A(ambient), additive in y."""
    if y.ring.group != ctx.group:
        raise ValueError("element does not live over the context subgroup")
    out = [0] * ctx.ambient_ring.rank
    for i, c in enumerate(y.coeffs):
        out[ctx.class_map[i]] += c
    return ctx.ambient_ring.element(out)


def transport(src_ring: BurnsideRing, dst_ring: BurnsideRing,
              elem_map: Sequence[int], y: BurnsideElement) -> BurnsideElement:
    """Push an element along a group isomorphism given on element indices."""
    if y.ring.group != src_ring.group:
        raise ValueError("element does not live over the source group")
    out = [0] * dst_ring.rank
    seen_classes = set()
    for i, rep in enumerate(src_ring.classification.representatives):
        image = tuple(sorted(elem_map[e] for e in rep.elements))
        j = dst_ring.classification.class_index(image)
        if y.coeffs[i]:
            out[j] += y.coeffs[i]
        if j in seen_classes:
            raise InternalCheckError("transport map is not a class bijection")
        seen_classes.add(j)
    return dst_ring.element(out)


def conjugate(g: int, ctx: SubgroupContext,
              y: BurnsideElement) -> Tuple[SubgroupContext, BurnsideElement]:
    """Transport along conjugation by an ambient element g; lands over gHg^-1."""
    ambient = ctx.ambient
    if not 0 <= g < ambient.order:
        raise ValueError("conjugating element is not in the ambient group")
    new_elements = tuple(sorted(ambient.conj(g, e) for e in ctx.elements))
    new_ctx = subgroup_context(ambient, new_elements)
    pos = {e: i for i, e in enumerate(new_ctx.embedding)}
    elem_map = [pos[ambient.conj(g, ctx.embedding[i])] for i in range(ctx.group.order)]
    return new_ctx, transport(ctx.ring, new_ctx.ring, elem_map, y)


def double_coset_reps(group: FiniteGroup, k_elements: Sequence[int],
                      h_elements: Sequence[int]) -> List[int]:
    """Least-element representatives of the double cosets KgH, ascending."""
    covered = [False] * group.order
    reps = []
    for g in range(group.order):
        if covered[g]:
            continue
        reps.append(g)
        for a in k_elements:
            ag = group.mul(a, g)
            for b in h_elements:
                covered[group.mul(ag, b)] = True
    return reps


@dataclass(frozen=True)
class DoubleCosetReport:
    group: FiniteGroup
    h_elements: Tuple[int, ...]
    k_elements: Tuple[int, ...]
    y_coeffs: Tuple[int, ...]
    reps: Tuple[int, ...]
    lhs: Tuple[int, ...]
    rhs: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> Dict:
        return {
            "h": list(self.h_elements), "k": list(self.k_elements),
            "y": list(self.y_coeffs), "double_coset_reps": list(self.reps),
            "restrict_induce": list(self.lhs), "coset_sum": list(self.rhs),
            "status": "pass" if self.ok else "fail",
        }


def check_double_coset(group: FiniteGroup, h_elements: Sequence[int],
                       k_elements: Sequence[int],
                       y: BurnsideElement) -> DoubleCosetReport:
    """Compare restriction-after-induction with its double-coset expansion.

    y lives over the re-indexed subgroup H; the left side is
    restrict_K(induce_H(y)), the right side sums over double cosets KgH.
    """
    h_ctx = subgroup_context(group, tuple(sorted(h_elements)))
    k_ctx = subgroup_context(group, tuple(sorted(k_elements)))
    lhs = restrict(k_ctx, induce(h_ctx, y))
    reps = double_coset_reps(group, k_ctx.elements, h_ctx.elements)
    total = k_ctx.ring.zero()
    h_set = set(h_ctx.elements)
    k_set = set(k_ctx.elements)
    for g in reps:
        g_inv = group.inv(g)
        lower_h = tuple(sorted(
            e for e in h_ctx.elements if group.conj(g, e) in k_set
        ))
        # restrict y to H cap g^-1 K g, viewed inside the re-indexed H
        inner_h = subgroup_context(
            h_ctx.group,
            tuple(sorted(h_ctx.position_of(e) for e in lower_h)),
        )
        part = restrict(inner_h, y)
        # conjugate over to K cap g H g^-1, viewed inside the re-indexed K
        upper = tuple(sorted(group.conj(g, e) for e in lower_h))
        inner_k = subgroup_context(
            k_ctx.group,
            tuple(sorted(k_ctx.position_of(e) for e in upper)),
        )
        pos = {e: i for i, e in enumerate(inner_k.embedding)}
        elem_map = []
        for i in range(inner_h.group.order):
            ambient_e = h_ctx.embedding[inner_h.embedding[i]]
            conj_e = group.conj(g, ambient_e)
            elem_map.append(pos[k_ctx.position_of(conj_e)])
        part = transport(inner_h.ring, inner_k.ring, elem_map, part)
        total = total + induce(inner_k, part)
    return DoubleCosetReport(group, h_ctx.elements, k_ctx.elements, y.coeffs,
                             tuple(reps), lhs.coeffs, total.coeffs)


@dataclass(frozen=True)
class FrobeniusReport:
    group: FiniteGroup
    h_elements: Tuple[int, ...]
    x_coeffs: Tuple[int, ...]
    y_coeffs: Tuple[int, ...]
    lhs: Tuple[int, ...]
    rhs: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> Dict:
        return {
            "h": list(self.h_elements), "x": list(self.x_coeffs),
            "y": list(self.y_coeffs),
            "induce_restrict_mul": list(self.lhs),
            "mul_induce": list(self.rhs),
            "status": "pass" if self.ok else "fail",
        }


def check_frobenius(group: FiniteGroup, h_elements: Sequence[int],
                    x: BurnsideElement, y: BurnsideElement) -> FrobeniusReport:
    """Frobenius reciprocity: induce(restrict(x) * y) = x * induce(y)."""
    ctx = subgroup_context(group, tuple(sorted(h_elements)))
    lhs = induce(ctx, restrict(ctx, x) * y)
    rhs = x * induce(ctx, y)
    return FrobeniusReport(group, ctx.elements, x.coeffs, y.coeffs,
                           lhs.coeffs, rhs.coeffs)


def linear_dimension(x: BurnsideElement) -> int:
    """Total coset count of an element: the rank of its linearization."""
    ring = x.ring
    return sum(c * rep.index
               for c, rep in zip(x.coeffs, ring.classification.representatives))


def green_morphism_check(group: FiniteGroup):
    """Restriction invariance of the linearization dimension, exhaustively.

    Checks every basis element of the ambient ring against every subgroup
    class context.
    """
    report = CheckReport("linearization dimension commutes with restriction")
    ring = build_burnside(group)
    for rep in ring.classification.representatives:
        ctx = subgroup_context(group, rep.elements)
        for i in range(ring.rank):
            x = ring.basis_element(i)
            below = restrict(ctx, x)
            # restriction keeps the underlying carrier, hence the dimension
            ok = linear_dimension(below) == linear_dimension(x)
            report.record(ok, {
                "subgroup": list(rep.elements), "basis_index": i,
                "ambient_dimension": linear_dimension(x),
                "restricted_dimension": linear_dimension(below),
            })
    return report
