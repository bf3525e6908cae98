"""Burnside rings of finite groups and their subgroups via tables of marks.

Basis classes are conjugacy classes of subgroups in the canonical order of
`classify_subgroups`; the table of marks is lower triangular with the mark
m[H][K] counting K-fixed cosets in G/H.  Multiplication runs through the
ghost (marks) ring and back-substitutes exactly.  A(H) for H <= G is in G's
element and lattice ids; `build_burnside` is the entry for element tuples.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

from . import _layer
from .errors import InternalCheckError
from .groups import (FiniteGroup, SubgroupClassification, _classify, _lattice,
                     _memo_on_group, _subgroup_id)
from .records import _Record

# G-sets as modules are built only to decompose or realize one.
modules = _layer("modules")

__all__ = [
    "BurnsideRing", "BurnsideElement", "build_burnside",
    "decompose", "linear_dimension", "marks_to_csv",
]


class BurnsideRing:
    """The Burnside ring of the subgroup H of `group` with lattice id `sub`
    (default all of it), in its ids."""

    def __init__(self, group: FiniteGroup, sub: Optional[int] = None) -> None:
        self.group = group
        self.sub = _lattice(group).top if sub is None else sub
        self.classification: SubgroupClassification = _classify(group, self.sub)
        self.elements = _lattice(group).subgroups[self.sub].elements
        self.order = len(self.elements)
        self.rank = self.classification.rank
        self.labels = self.classification.labels
        self.rows = self._build_rows()
        self._cosets: Dict[int, modules.FiniteModule] = {}

    def same_ring(self, other: "BurnsideRing") -> bool:
        """Rings of one subgroup of equal groups (names aside)."""
        return self is other or (self.sub == other.sub and self.group == other.group)

    def _build_rows(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The nonzero (column, mark) pairs of each row, read off the classification.

        m(G/H)(K) = |N_G(H)|/|H| * #{H' conjugate to H : K <= H'}, and
        |N_G(H)| = |G| / |class of H|, G being the ring's subgroup.  Bit j of
        holds[x] says that representative j holds x, so H' contains the
        representatives missing from holds[x] for every x outside H'.  The
        table is lower triangular (K <= H' and |K| = |H'| force K = H'),
        so each row ends at its diagonal.
        """
        classes = self.classification.classes
        holds = [0] * self.group.order
        for j, cls in enumerate(classes):
            for x in cls[0].elements:
                holds[x] |= 1 << j
        full, everything = (1 << self.rank) - 1, set(self.elements)
        rows = []
        for cls in classes:
            weight = self.order // (cls[0].order * len(cls))
            counts: Dict[int, int] = {}
            for member in cls:
                excluded = 0
                for x in everything.difference(member.elements):
                    excluded |= holds[x]
                contained = full ^ excluded
                while contained:
                    low = contained & -contained
                    j = low.bit_length() - 1
                    counts[j] = counts.get(j, 0) + weight
                    contained ^= low
            rows.append(tuple(sorted(counts.items())))
        return tuple(rows)

    @cached_property
    def marks(self) -> Tuple[Tuple[int, ...], ...]:
        """The dense table of marks, built on first use from the rows."""
        return tuple(tuple(map(dict(row).get, range(self.rank), [0] * self.rank))
                     for row in self.rows)

    def _check_whole_group(self) -> None:
        if self.order != self.group.order:
            raise ValueError("G-sets are built only for the ring of the whole group")

    def _coset(self, i: int) -> modules.FiniteModule:
        """G/H for class i of the whole group's ring, built on first use."""
        if i not in self._cosets:
            self._check_whole_group()
            self._cosets[i] = modules._coset_module(
                self.group, self.classification.representatives[i].elements)
        return self._cosets[i]

    @cached_property
    def orbit_counts(self) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], ...]:
        """Entry [i][j]: the pairs (L, e) of the e > 0 K_j-orbits of length L on G/H_i.

        The point gH has stabilizer K cap gHg^-1 in K, and each conjugate H'
        of H stabilizes |N_G(H)|/|H| points (the weight of `_build_rows`),
        so |N_G(H)|/|H| * #{H' : |K cap H'| = |K|/L} points lie in orbits of
        length L; L = 1 counts the mark.  G is the ring's subgroup, so no
        G-set is built.  Ascending in L; built on first use by the lambda
        engine, not with the ring.
        """
        masks = _lattice(self.group).masks
        reps = [(masks[cls[0]], masks[cls[0]].bit_count()) for cls in self.classification.members]
        shared: Dict[tuple, tuple] = {}  # one object per distinct entry
        table = []
        for cls, (_, order) in zip(self.classification.members, reps):
            weight = self.order // (order * len(cls))
            members = [masks[member] for member in cls]
            row = []
            for k, size in reps:
                points: Dict[int, int] = {}
                for h in members:
                    meet = (k & h).bit_count()
                    points[meet] = points.get(meet, 0) + weight
                entry = tuple((size // meet, n * meet // size)
                              for meet, n in sorted(points.items(), reverse=True))
                row.append(shared.setdefault(entry, entry))
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def coset_sizes(self) -> Tuple[int, ...]:
        """|H : H_i| per class: the point count of each transitive H-set."""
        return tuple(self.order // rep.order for rep in self.classification.representatives)

    # -- elements ---------------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> "BurnsideElement":
        if len(coeffs) != self.rank:
            raise ValueError(f"need {self.rank} coefficients, got {len(coeffs)}")
        return BurnsideElement(self, tuple(int(c) for c in coeffs))

    def zero(self) -> "BurnsideElement":
        return self.element([0] * self.rank)

    def one(self) -> "BurnsideElement":
        """The class of the one-point G-set, i.e. G/G."""
        return self.basis_element(self.rank - 1)

    def basis_element(self, i: int) -> "BurnsideElement":
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return self.element(coeffs)

    # -- decomposition and multiplication ---------------------------------

    def decompose(self, module: modules.FiniteModule) -> "BurnsideElement":
        """Coefficients of a finite module over this group's monoid."""
        if self.order != self.group.order or module.monoid != modules.group_monoid(self.group):
            raise ValueError("module lives over a different group")
        coeffs = [0] * self.rank
        id_of = _lattice(self.group).id_of
        for orb in module.orbits():
            stabilizer = id_of(module.stabilizer_elements(orb[0]))
            coeffs[self.classification.class_index(stabilizer)] += 1
        return self.element(coeffs)

    def marks_of(self, x: "BurnsideElement") -> Tuple[int, ...]:
        ghost = [0] * self.rank
        for c, row in zip(x.coeffs, self.rows):
            if c:
                for j, m in row:
                    ghost[j] += c * m
        return tuple(ghost)

    def from_marks(self, ghost: Sequence[int]) -> "BurnsideElement":
        """Invert the marks homomorphism; integrality is checked, not assumed.

        Back-substitution from the last class over the nonzero marks.
        """
        residue = list(ghost)
        coeffs = [0] * self.rank
        for i in range(self.rank - 1, -1, -1):
            row = self.rows[i]
            c, rem = divmod(residue[i], row[-1][1])
            if rem:
                raise InternalCheckError("ghost vector is not in the image of marks")
            if c:
                coeffs[i] = c
                for j, m in row:
                    residue[j] -= c * m
        return BurnsideElement(self, tuple(coeffs))

    def mul(self, a: "BurnsideElement", b: "BurnsideElement") -> "BurnsideElement":
        ga = self.marks_of(a)
        gb = self.marks_of(b)
        return self.from_marks([x * y for x, y in zip(ga, gb)])

    def realize(self, x: "BurnsideElement") -> modules.FiniteModule:
        """An explicit module with the classes of an effective element."""
        if any(c < 0 for c in x.coeffs):
            raise ValueError("only effective elements can be realized")
        self._check_whole_group()
        parts = [self._coset(i) for i, c in enumerate(x.coeffs) for _ in range(c)]
        if not parts:
            return modules.zero_module(modules.group_monoid(self.group))
        return modules.wedge(parts)

    # -- reporting --------------------------------------------------------

    def to_json(self) -> Dict:
        return {
            "group": self.group.name or "custom",
            "order": self.order,
            "classes": list(self.labels),
            "marks": [list(r) for r in self.marks],
        }


def build_burnside(group: FiniteGroup, elements: Optional[Iterable[int]] = None) -> BurnsideRing:
    """A(H) for the subgroup H with these elements (default all of `group`)."""
    return _burnside(group, _subgroup_id(group, elements))


@_memo_on_group
def _burnside(group: FiniteGroup, sub: int) -> BurnsideRing:
    return BurnsideRing(group, sub)


class BurnsideElement(_Record):
    """A virtual sum of subgroup classes with integer coefficients.

    Two elements are equal when their rings are the same ring and their
    coefficients agree.
    """

    _fields = ("ring", "coeffs")

    def __init__(self, ring: BurnsideRing, coeffs: Tuple[int, ...]) -> None:
        self.__dict__.update(ring=ring, coeffs=coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self.ring.same_ring(other.ring) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring.group, self.coeffs))

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check_ring(other)
        return self.ring.element([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check_ring(other)
        return self.ring.element([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "BurnsideElement":
        return self.ring.element([-a for a in self.coeffs])

    def __mul__(self, other) -> "BurnsideElement":
        if isinstance(other, int):
            return self.ring.element([a * other for a in self.coeffs])
        self._check_ring(other)
        return self.ring.mul(self, other)

    def __rmul__(self, other) -> "BurnsideElement":
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def _check_ring(self, other: "BurnsideElement") -> None:
        if not self.ring.same_ring(other.ring):
            raise ValueError("elements live in Burnside rings of different groups")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def marks(self) -> Tuple[int, ...]:
        return self.ring.marks_of(self)

    def to_json(self) -> Dict:
        return {"basis": list(self.ring.labels), "coeffs": list(self.coeffs)}

    def pretty(self) -> str:
        out = ""
        for c, label in zip(self.coeffs, self.ring.labels):
            if c:
                term = f"[{label}]" if abs(c) == 1 else f"{abs(c)}*[{label}]"
                sign = ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
                out += sign + term
        return out or "0"


def decompose(module: modules.FiniteModule) -> BurnsideElement:
    """Decompose a module over a group monoid in its Burnside ring."""
    group = module.monoid.group
    if group is None:
        raise ValueError("decomposition needs a module over a group monoid")
    return build_burnside(group).decompose(module)


def linear_dimension(x: BurnsideElement) -> int:
    """Total coset count of an element: the rank of its linearization, and
    the number of nonzero points of a realization when x is effective."""
    return sum(c * s for c, s in zip(x.coeffs, x.ring.coset_sizes))


def marks_to_csv(ring: BurnsideRing) -> str:
    lines = ["class," + ",".join(ring.labels)]
    for label, row in zip(ring.labels, ring.marks):
        lines.append(label + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
