"""Degree 0 and 1 invariants of module categories over pointed monoids.

G_0 comes from a generators-and-relations presentation of iso classes with
split-cofibration relations; G_1 of a group monoid from the wedge splitting
into suspension summands; the degree-0 assembly map and its cokernel from
the class of the free rank-1 module.

The records, limits and entry points live here.  The degree-0 engines,
`g0_group` for group monoids and `g0_monoid` for the others, compile on
first use, as do `burnside` and `snf`: `g1` builds no Burnside ring.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, List, Optional, Tuple

from . import _layer
from .errors import charge
from .groups import (FiniteGroup, _orbits, _power, abelianization,
                     classify_subgroups, conjugacy_classes_of_elements)
from .records import _Record

burnside = _layer("burnside")
g0_group = _layer("g0_group")
g0_monoid = _layer("g0_monoid")
modules = _layer("modules")
snf = _layer("snf")

__all__ = [
    "AbelianGroupReport", "GrothendieckPresentation", "CartanReport",
    "g0_presentation", "g1_via_splitting", "cartan_zero",
    "count_simple_factors", "WORK_BUDGET", "GROUP_GENERATOR_CAP", "SIMPLE_FACTORS_Q_CAP",
]

# Candidate rows plus relabellings the general-monoid enumeration may spend.
WORK_BUDGET = 1000000
# Most count vectors a group-monoid presentation may enumerate; D12 at its
# default bound |G| + 3, the largest library case, has 132,312.
GROUP_GENERATOR_CAP = 150000
# Peel sites that `g0_group` re-derives on explicit modules, at an even stride.
RELATION_AUDIT_SAMPLE = 40
# Largest q that `count_simple_factors` factorizes: trial division to sqrt(q)
# takes 0.05 s at the prime 999,999,999,989 on 2 vCPUs.
SIMPLE_FACTORS_Q_CAP = 10 ** 12


class AbelianGroupReport(_Record):
    """A finitely generated abelian group as free rank plus torsion chain."""

    _fields = ("free_rank", "torsion", "provenance", "basis_interpretation")

    def __init__(self, free_rank: int, torsion: Tuple[int, ...], provenance: str,
                 basis_interpretation: Optional[Tuple[str, ...]] = None) -> None:
        self.__dict__.update(free_rank=free_rank, torsion=torsion,
                             provenance=provenance,
                             basis_interpretation=basis_interpretation)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        for i, d in enumerate(self.torsion):
            if d <= 1:
                raise ValueError("torsion factors must be > 1")
            if i and self.torsion[i] % self.torsion[i - 1] != 0:
                raise ValueError("torsion factors must form a divisibility chain")

    def pretty(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> Dict:
        out = {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "provenance": self.provenance,
        }
        if self.basis_interpretation is not None:
            out["basis_interpretation"] = list(self.basis_interpretation)
        return out


class GrothendieckPresentation(_Record):
    """Generators-and-relations data behind a degree-0 computation.

    Each relation row is a tuple of sorted (generator index, coefficient)
    pairs.  Group monoids give sized lazy views of the generator labels and
    of the rows, re-derived on iteration; general monoids give tuples.
    """

    _fields = ("size_bound", "generators", "relations", "result", "stability")

    def __init__(self, size_bound: int, generators: Collection[str],
                 relations: Collection[Tuple[Tuple[int, int], ...]],
                 result: AbelianGroupReport, stability: str) -> None:
        self.__dict__.update(size_bound=size_bound, generators=generators,
                             relations=relations, result=result,
                             stability=stability)

    def to_json(self) -> Dict:
        return {
            "size_bound": self.size_bound,
            "generator_count": len(self.generators),
            "relation_count": len(self.relations),
            "stability": self.stability,
            "result": self.result.to_json(),
        }


def g0_presentation(m: modules.PointedMonoid, size_bound: int) -> GrothendieckPresentation:
    """Degree-0 Grothendieck group of finite modules over m, presented at a bound.

    Group monoids run through the orbit classification and report stability
    against the Burnside rank; other monoids enumerate action tables under
    WORK_BUDGET.
    """
    if size_bound < 1:
        raise ValueError("size bound must be >= 1")
    if m.is_group_monoid:
        return g0_group.presentation(burnside.build_burnside(m.group), size_bound)
    return g0_monoid.presentation(m, size_bound)


# --- G_1 and the degree-0 assembly map ----------------------------------

def g1_via_splitting(group: FiniteGroup) -> AbelianGroupReport:
    """Degree-1 invariant of a group monoid from the subgroup-class splitting.

    Each subgroup class K contributes its summand's degree-1 piece Z/2 + W^ab
    for W the Weyl group of K; the pieces are merged into one invariant
    factor chain.  See the module docs for the two-line splitting argument.
    """
    classification = classify_subgroups(group)
    parts: List[int] = []
    interpretation: List[str] = []
    for rep, label in zip(classification.representatives, classification.labels):
        ab = abelianization(group, rep)
        parts.append(2)
        parts.extend(ab)
        desc = " + ".join(["Z/2"] + [f"Z/{d}" for d in ab])
        interpretation.append(f"{label}: {desc}")
    torsion = tuple(snf.merge_cyclic_factors(parts))
    return AbelianGroupReport(0, torsion, "via splitting formula",
                              tuple(interpretation))


class CartanReport(_Record):
    """The degree-0 assembly map image and its cokernel."""

    _fields = ("image", "wh0")

    def __init__(self, image: Tuple[int, ...], wh0: AbelianGroupReport) -> None:
        self.__dict__.update(image=image, wh0=wh0)

    def to_json(self) -> Dict:
        return {"image": list(self.image), "wh0": self.wh0.to_json()}


def cartan_zero(group: FiniteGroup) -> CartanReport:
    """The map Z -> A(G) sending 1 to the free rank-1 class, with cokernel.

    The free rank-1 module is G/e, and the trivial subgroup is lattice id 0,
    the least member of class 0: the image is basis element 0.  The tests
    decompose an explicit free module against it.
    """
    ring = burnside.build_burnside(group)
    image = ring.basis_element(0).coeffs
    free_rank, torsion = snf.cokernel_invariants([list(image)], ring.rank)
    report = AbelianGroupReport(free_rank, tuple(torsion), "snf",
                                tuple(ring.labels))
    return CartanReport(image, report)


def count_simple_factors(group: FiniteGroup, q: int) -> int:
    """Number of simple factors of the group algebra over a q-element field.

    Counts orbits of the q-th power map on conjugacy classes of elements.
    Requires q a prime power coprime to the group order.
    """
    charge("gtheory.SIMPLE_FACTORS_Q_CAP", q, SIMPLE_FACTORS_Q_CAP, "field size q")
    if q < 2 or len(snf.factorize(q)) != 1:
        raise ValueError(f"{q} is not a prime power")
    if math.gcd(q, group.order) != 1:
        raise ValueError(f"{q} shares a factor with the group order {group.order}")
    classes = conjugacy_classes_of_elements(group)
    class_of = {x: i for i, cls in enumerate(classes) for x in cls}
    # x -> x^q permutes the elements, q being coprime to |G|
    step = [class_of[_power(group, cls[0], q)] for cls in classes]
    return len(_orbits(range(len(classes)), [step]))
