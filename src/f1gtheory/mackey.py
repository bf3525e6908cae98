"""Restriction, induction, and conjugation between Burnside rings.

Both maps are read off the classification.  Induction sends H/L to G/L.
Restriction keeps every mark: m(Res_H x)(K) = m(x)(K) for K <= H (tom Dieck,
Transformation Groups and Representation Theory, LNM 766, section 1).

The double coset formula Res_K Ind_H y = sum over KgH of Ind Transport Res y
is checked through one `DoubleCosetPlan` per (H, K) pair, which holds the
y-independent part of the right side; both sides read restriction tables.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .burnside import BurnsideElement, BurnsideRing, _burnside
from .errors import InternalCheckError
from .groups import (FiniteGroup, SubgroupClassification, _classify,
                     _generating_sequence, _lattice, _memo_on_group,
                     _orbits, _right_cosets, _subgroup_id)
from .records import _Record
from .reports import CheckReport

__all__ = [
    "SubgroupContext", "subgroup_context", "restrict", "induce", "conjugate",
    "transport", "double_coset_reps", "double_coset_plan", "double_coset_plans",
    "check_double_coset",
    "check_frobenius", "green_morphism_check",
    "DoubleCosetPlan", "DoubleCosetReport", "FrobeniusReport",
]


class SubgroupContext(_Record):
    """A subgroup H inside an outer subgroup K of G, by their lattice ids."""

    _fields = ("ambient", "sub", "outer")

    def __init__(self, ambient: FiniteGroup, sub: int, outer: int) -> None:
        self.__dict__.update(ambient=ambient, sub=sub, outer=outer)

    @cached_property
    def ring(self) -> BurnsideRing:
        return _burnside(self.ambient, self.sub)

    @cached_property
    def outer_ring(self) -> BurnsideRing:
        return _burnside(self.ambient, self.outer)

    @cached_property
    def class_map(self) -> Tuple[int, ...]:
        """Entry i: the outer class of subgroup class i's representative."""
        class_of = self.outer_ring.classification.class_of
        return tuple(class_of[cls[0]] for cls in self.ring.classification.members)

    @cached_property
    def restriction(self) -> Tuple[Tuple[int, ...], ...]:
        """Row i: the coefficients of Res of outer basis element i, one from_marks each."""
        return tuple(self.ring.from_marks([marks.get(j, 0) for j in self.class_map]).coeffs
                     for marks in map(dict, self.outer_ring.rows))


def subgroup_context(ambient: FiniteGroup, elements: Sequence[int],
                     outer: Optional[Sequence[int]] = None) -> SubgroupContext:
    """H = elements inside `outer` (default G); ValueError unless H <= outer."""
    sub, top = _subgroup_id(ambient, elements), _subgroup_id(ambient, outer)
    lattice = _lattice(ambient)
    if lattice.masks[sub] & ~lattice.masks[top]:
        raise ValueError(f"{lattice.subgroups[sub].elements} does not lie in "
                         f"{lattice.subgroups[top].elements}")
    return _context(ambient, sub, top)


@_memo_on_group
def _context(ambient: FiniteGroup, sub: int, outer: int) -> SubgroupContext:
    return SubgroupContext(ambient, sub, outer)


def restrict(ctx: SubgroupContext, x: BurnsideElement) -> BurnsideElement:
    """Restriction A(outer) -> A(subgroup), linear in x."""
    if not x.ring.same_ring(ctx.outer_ring):
        raise ValueError("element does not live over the outer subgroup")
    ghost = x.marks()
    return ctx.ring.from_marks([ghost[j] for j in ctx.class_map])


def induce(ctx: SubgroupContext, y: BurnsideElement) -> BurnsideElement:
    """Induction A(subgroup) -> A(outer), additive in y."""
    if not y.ring.same_ring(ctx.ring):
        raise ValueError("element does not live over the context subgroup")
    out = [0] * ctx.outer_ring.rank
    for i, c in enumerate(y.coeffs):
        out[ctx.class_map[i]] += c
    return ctx.outer_ring.element(out)


def _class_bijection(images: Sequence[Optional[int]],
                     dst: SubgroupClassification) -> Tuple[int, ...]:
    """Entry i: the class of `dst` holding the subgroup with id images[i].

    A map that merges two classes is not an isomorphism; it is caught here.
    """
    classes = tuple(map(dst.class_index, images))
    if len(set(classes)) != len(classes):
        raise InternalCheckError("transport map is not a class bijection")
    return classes


def transport(src_ring: BurnsideRing, dst_ring: BurnsideRing,
              elem_map: Dict[int, int] | Sequence[int], y: BurnsideElement) -> BurnsideElement:
    """Push an element along a group isomorphism given on element ids."""
    if not y.ring.same_ring(src_ring):
        raise ValueError("element does not live over the source group")
    id_of = _lattice(dst_ring.group).id_of
    images = [id_of(map(elem_map.__getitem__, rep.elements))
              for rep in src_ring.classification.representatives]
    out = [0] * dst_ring.rank
    for c, j in zip(y.coeffs, _class_bijection(images, dst_ring.classification)):
        out[j] += c
    return dst_ring.element(out)


def conjugate(g: int, ctx: SubgroupContext,
              y: BurnsideElement) -> Tuple[SubgroupContext, BurnsideElement]:
    """Transport along conjugation by g in the outer subgroup; lands over gHg^-1."""
    if g not in ctx.outer_ring.elements:
        raise ValueError("conjugating element is not in the outer subgroup")
    new_ctx = _context(ctx.ambient, _lattice(ctx.ambient).conjugation(g)[ctx.sub], ctx.outer)
    return new_ctx, transport(ctx.ring, new_ctx.ring, ctx.ambient.conjugations[g], y)


def double_coset_reps(group: FiniteGroup, k_elements: Sequence[int],
                      h_elements: Sequence[int]) -> List[int]:
    """Least-element representatives of the double cosets KgH, ascending;
    ValueError unless K and H are subgroups."""
    return _double_coset_reps(group, _subgroup_id(group, k_elements),
                              _subgroup_id(group, h_elements))


def _double_coset_reps(group: FiniteGroup, k: int, h: int) -> List[int]:
    """`double_coset_reps` for the subgroups with lattice ids k and h.

    KgH is the orbit of the right coset Kg under right multiplication by H;
    cosets are numbered by least element, as are the orbits.
    """
    reps, coset_of = _right_coset_table(group, k)
    cayley = group.cayley
    maps = [[coset_of[cayley[x][s]] for x in reps]
            for s in _generating_sequence(group, _lattice(group).subgroups[h].elements)]
    return [reps[orbit[0]] for orbit in _orbits(range(len(reps)), maps)]


@_memo_on_group
def _right_coset_table(group: FiniteGroup, k: int) -> Tuple[List[int], List[int]]:
    """`_right_cosets` of the subgroup with id k."""
    return _right_cosets(group, _lattice(group).subgroups[k].elements)


class DoubleCosetReport(_Record):
    _fields = ("h_elements", "k_elements", "y_coeffs", "reps", "lhs", "rhs")

    def __init__(self, h_elements: Tuple[int, ...], k_elements: Tuple[int, ...],
                 y_coeffs: Tuple[int, ...], reps: Tuple[int, ...],
                 lhs: Tuple[int, ...], rhs: Tuple[int, ...]) -> None:
        self.__dict__.update(h_elements=h_elements, k_elements=k_elements,
                             y_coeffs=y_coeffs, reps=reps, lhs=lhs, rhs=rhs)

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


class DoubleCosetPlan(_Record):
    """The y-independent half of the double coset formula for one (H, K).

    Each term stands for one double coset KgH: the context of H cap g^-1 K g
    inside H, and the class map that carries its classes by conjugation with
    g onto K cap g H g^-1 and induces them into the classes of K.
    """

    _fields = ("h_ctx", "k_ctx", "reps", "terms")

    def __init__(self, h_ctx: SubgroupContext, k_ctx: SubgroupContext,
                 reps: Tuple[int, ...],
                 terms: Tuple[Tuple[SubgroupContext, Tuple[int, ...]], ...]) -> None:
        self.__dict__.update(h_ctx=h_ctx, k_ctx=k_ctx, reps=reps, terms=terms)

    def _sides(self, i: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Both sides of the formula on basis element i of A(H)."""
        rhs = [0] * self.k_ctx.ring.rank
        for inner, to_k in self.terms:
            for j, v in enumerate(inner.restriction[i]):
                if v:
                    rhs[to_k[j]] += v
        # Ind_H sends basis element i of A(H) to basis element G/L of A(G)
        return self.k_ctx.restriction[self.h_ctx.class_map[i]], tuple(rhs)

    def failures(self) -> List[int]:
        """The indices of the basis elements of A(H) that fail, in one pass."""
        sides = map(self._sides, range(self.h_ctx.ring.rank))
        return [i for i, (lhs, rhs) in enumerate(sides) if lhs != rhs]

    def check(self, y: BurnsideElement) -> DoubleCosetReport:
        """Compare Res_K Ind_H y with its double-coset expansion."""
        if not y.ring.same_ring(self.h_ctx.ring):
            raise ValueError("element does not live over the context subgroup")
        lhs = [0] * self.k_ctx.ring.rank
        rhs = [0] * self.k_ctx.ring.rank
        for i, c in enumerate(y.coeffs):
            if c:
                for side, part in zip((lhs, rhs), self._sides(i)):
                    for j, v in enumerate(part):
                        side[j] += c * v
        return DoubleCosetReport(self.h_ctx.ring.elements, self.k_ctx.ring.elements,
                                 y.coeffs, self.reps, tuple(lhs), tuple(rhs))


def _plan(h_ctx: SubgroupContext, k_ctx: SubgroupContext,
          inner: Dict[int, SubgroupContext]) -> DoubleCosetPlan:
    """The plan for (H, K), keeping the contexts inside H it uses in `inner`."""
    group = h_ctx.ambient
    lattice = _lattice(group)
    # inside G, the top-level contexts memoized on the group serve
    new = _context if h_ctx.sub == lattice.top else SubgroupContext
    reps = tuple(_double_coset_reps(group, k_ctx.sub, h_ctx.sub))
    h_mask = lattice.masks[h_ctx.sub]
    class_of = k_ctx.ring.classification.class_of
    terms = []
    for g in reps:
        conj = lattice.conjugation(g)
        # H cap g^-1 K g inside H, carried by g onto K cap g H g^-1
        lower = lattice.ids[h_mask & lattice.masks[
            lattice.conjugation(group.inverse[g])[k_ctx.sub]]]
        if lower not in inner:
            inner[lower] = new(group, lower, h_ctx.sub)
        inner_h = inner[lower]
        images = [conj[cls[0]] for cls in inner_h.ring.classification.members]
        _class_bijection(images, _classify(group, conj[lower]))
        terms.append((inner_h, tuple(map(class_of.__getitem__, images))))
    return DoubleCosetPlan(h_ctx, k_ctx, reps, tuple(terms))


def double_coset_plan(group: FiniteGroup, h_elements: Sequence[int],
                      k_elements: Sequence[int]) -> DoubleCosetPlan:
    """Build the right-hand side of the double coset formula for (H, K)."""
    return _plan(subgroup_context(group, h_elements),
                 subgroup_context(group, k_elements), {})


def double_coset_plans(group: FiniteGroup,
                       h_elements: Sequence[int]) -> Iterator[DoubleCosetPlan]:
    """H's plan against each subgroup class K of G, in class order.

    The contexts inside H that the plans share are kept in a dict local to
    the generator, so they are freed with it.
    """
    h_ctx = subgroup_context(group, h_elements)
    inner: Dict[int, SubgroupContext] = {}
    for cls in _classify(group, h_ctx.outer).members:
        yield _plan(h_ctx, _context(group, cls[0], h_ctx.outer), inner)


def check_double_coset(group: FiniteGroup, h_elements: Sequence[int],
                       k_elements: Sequence[int],
                       y: BurnsideElement) -> DoubleCosetReport:
    """Compare restriction-after-induction with its double-coset expansion.

    y lives in A(H); the left side is restrict_K(induce_H(y)), the right
    side sums over double cosets KgH.
    """
    return double_coset_plan(group, h_elements, k_elements).check(y)


class FrobeniusReport(_Record):
    _fields = ("h_elements", "x_coeffs", "y_coeffs", "lhs", "rhs")

    def __init__(self, h_elements: Tuple[int, ...], x_coeffs: Tuple[int, ...],
                 y_coeffs: Tuple[int, ...], lhs: Tuple[int, ...],
                 rhs: Tuple[int, ...]) -> None:
        self.__dict__.update(h_elements=h_elements, x_coeffs=x_coeffs,
                             y_coeffs=y_coeffs, lhs=lhs, rhs=rhs)

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
    ctx = subgroup_context(group, h_elements)
    lhs = induce(ctx, restrict(ctx, x) * y)
    rhs = x * induce(ctx, y)
    return FrobeniusReport(ctx.ring.elements, x.coeffs, y.coeffs, lhs.coeffs,
                           rhs.coeffs)


def green_morphism_check(group: FiniteGroup):
    """Restriction invariance of the linearization dimension, exhaustively.

    Checks every basis element of the ambient ring against every subgroup
    class context.
    """
    report = CheckReport("linearization dimension commutes with restriction")
    top = _lattice(group).top
    ring = _burnside(group, top)
    for cls, rep in zip(ring.classification.members, ring.classification.representatives):
        ctx = _context(group, cls[0], top)
        sizes = ctx.ring.coset_sizes
        # restriction keeps the underlying carrier, hence the dimension
        below = [sum(map(mul, row, sizes)) for row in ctx.restriction]
        report.instances += ring.rank
        report.failures += [
            {"subgroup": list(rep.elements), "basis_index": i,
             "ambient_dimension": dim, "restricted_dimension": dim_below}
            for i, (dim, dim_below) in enumerate(zip(ring.coset_sizes, below))
            if dim_below != dim]
    return report
