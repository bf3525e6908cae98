"""Restriction, induction, and conjugation between Burnside rings.

Both maps are read off the classification.  Induction sends H/L to G/L.
Restriction keeps every mark: m(Res_H x)(K) = m(x)(K) for K <= H (tom Dieck,
Transformation Groups and Representation Theory, LNM 766, section 1).

The double coset formula Res_K Ind_H y = sum over KgH of Ind Transport Res y
is checked through one `DoubleCosetPlan` per (H, K) pair, which holds the
part of the right side that does not depend on y.
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
    "transport", "double_coset_reps", "double_coset_plan", "check_double_coset",
    "check_frobenius", "green_morphism_check", "linear_dimension",
    "DoubleCosetPlan", "DoubleCosetReport", "FrobeniusReport",
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

    @cached_property
    def _restricted(self) -> Dict[int, BurnsideElement]:
        return {}

    def restricted_basis(self, i: int) -> BurnsideElement:
        """Res of ambient basis element i, memoized on first use of each i."""
        memo = self._restricted
        if i not in memo:
            row = self.ambient_ring.marks[i]
            memo[i] = self.ring.from_marks([row[j] for j in self.class_map])
        return memo[i]


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


def _class_bijection(src_ring: BurnsideRing, dst_ring: BurnsideRing,
                    elem_map: Sequence[int]) -> Tuple[int, ...]:
    """Entry i: the destination class of the image of source class i.

    The map on elements must be a group isomorphism; a map that sends two
    classes to one is caught here.
    """
    classes = tuple(
        dst_ring.classification.class_index(elem_map[e] for e in rep.elements)
        for rep in src_ring.classification.representatives)
    if len(set(classes)) != len(classes):
        raise InternalCheckError("transport map is not a class bijection")
    return classes


def transport(src_ring: BurnsideRing, dst_ring: BurnsideRing,
              elem_map: Sequence[int], y: BurnsideElement) -> BurnsideElement:
    """Push an element along a group isomorphism given on element indices."""
    if y.ring.group != src_ring.group:
        raise ValueError("element does not live over the source group")
    out = [0] * dst_ring.rank
    for c, j in zip(y.coeffs, _class_bijection(src_ring, dst_ring, elem_map)):
        out[j] += c
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


@dataclass(frozen=True)
class DoubleCosetPlan:
    """The y-independent half of the double coset formula for one (H, K).

    Each term stands for one double coset KgH: the context of
    H cap g^-1 K g inside the re-indexed H, and the class map that carries
    its classes by conjugation with g onto K cap g H g^-1 and induces them
    into the classes of K.
    """

    group: FiniteGroup
    h_ctx: SubgroupContext
    k_ctx: SubgroupContext
    reps: Tuple[int, ...]
    terms: Tuple[Tuple[SubgroupContext, Tuple[int, ...]], ...]

    def check(self, y: BurnsideElement) -> DoubleCosetReport:
        """Compare Res_K Ind_H y with its double-coset expansion."""
        h_ctx, k_ctx = self.h_ctx, self.k_ctx
        if y.ring.group != h_ctx.group:
            raise ValueError("element does not live over the context subgroup")
        lhs = [0] * k_ctx.ring.rank
        rhs = [0] * k_ctx.ring.rank
        for i, c in enumerate(y.coeffs):
            if not c:
                continue
            # Ind_H sends basis element i of A(H) to basis element G/L of A(G)
            below = k_ctx.restricted_basis(h_ctx.class_map[i]).coeffs
            for j, v in enumerate(below):
                lhs[j] += c * v
            for inner, to_k in self.terms:
                for j, v in enumerate(inner.restricted_basis(i).coeffs):
                    rhs[to_k[j]] += c * v
        return DoubleCosetReport(self.group, h_ctx.elements, k_ctx.elements,
                                 y.coeffs, self.reps, tuple(lhs), tuple(rhs))


def double_coset_plan(group: FiniteGroup, h_elements: Sequence[int],
                      k_elements: Sequence[int]) -> DoubleCosetPlan:
    """Build the right-hand side of the double coset formula for (H, K)."""
    h_ctx = subgroup_context(group, tuple(sorted(h_elements)))
    k_ctx = subgroup_context(group, tuple(sorted(k_elements)))
    reps = tuple(double_coset_reps(group, k_ctx.elements, h_ctx.elements))
    k_set = set(k_ctx.elements)
    h_pos = {e: i for i, e in enumerate(h_ctx.embedding)}
    k_pos = {e: i for i, e in enumerate(k_ctx.embedding)}
    terms = []
    for g in reps:
        lower_h = [e for e in h_ctx.elements if group.conj(g, e) in k_set]
        # H cap g^-1 K g, viewed inside the re-indexed H
        inner_h = subgroup_context(h_ctx.group,
                                   tuple(sorted(h_pos[e] for e in lower_h)))
        # K cap g H g^-1, viewed inside the re-indexed K
        inner_k = subgroup_context(
            k_ctx.group, tuple(sorted(k_pos[group.conj(g, e)] for e in lower_h)))
        inner_k_pos = {e: i for i, e in enumerate(inner_k.embedding)}
        elem_map = [
            inner_k_pos[k_pos[group.conj(g, h_ctx.embedding[e])]]
            for e in inner_h.embedding
        ]
        to_inner_k = _class_bijection(inner_h.ring, inner_k.ring, elem_map)
        terms.append((inner_h, tuple(inner_k.class_map[t] for t in to_inner_k)))
    return DoubleCosetPlan(group, h_ctx, k_ctx, reps, tuple(terms))


def check_double_coset(group: FiniteGroup, h_elements: Sequence[int],
                       k_elements: Sequence[int],
                       y: BurnsideElement) -> DoubleCosetReport:
    """Compare restriction-after-induction with its double-coset expansion.

    y lives over the re-indexed subgroup H; the left side is
    restrict_K(induce_H(y)), the right side sums over double cosets KgH.
    """
    return double_coset_plan(group, h_elements, k_elements).check(y)


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
    dims = [linear_dimension(ring.basis_element(i)) for i in range(ring.rank)]
    for rep in ring.classification.representatives:
        ctx = subgroup_context(group, rep.elements)
        for i, dim in enumerate(dims):
            below = linear_dimension(ctx.restricted_basis(i))
            # restriction keeps the underlying carrier, hence the dimension
            report.record(below == dim, lambda: {
                "subgroup": list(rep.elements), "basis_index": i,
                "ambient_dimension": dim, "restricted_dimension": below,
            })
    return report
