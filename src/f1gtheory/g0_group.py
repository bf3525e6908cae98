"""Degree-0 presentations over group monoids: peel relations and their certificate."""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterator, List, Sequence, Tuple

from . import gtheory, modules
from .burnside import BurnsideRing
from .errors import InternalCheckError, charge
from .records import _Record


def _count_by_total(sizes: Sequence[int], budget: int) -> List[int]:
    """ways[t]: count vectors over `sizes` whose total size is exactly t <= budget."""
    ways = [1] + [0] * budget
    for step in sizes:
        for t in range(step, budget + 1):
            ways[t] += ways[t - step]
    return ways


def _count_vectors(sizes: Sequence[int], budget: int) -> List[Tuple[int, ...]]:
    """All count vectors over `sizes` with total size <= budget, in lex order."""
    gens: List[Tuple[int, ...]] = []

    def grow(prefix: Tuple[int, ...], used: int) -> None:
        if len(prefix) == len(sizes):
            gens.append(prefix)
            return
        step = sizes[len(prefix)]
        count = 0
        while used + count * step <= budget:
            grow(prefix + (count,), used + count * step)
            count += 1

    grow((), 0)
    return gens


def _peel_rows(gens: Sequence[Tuple[int, ...]],
               gen_index: Dict[Tuple[int, ...], int]) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """The relation rows as sorted (column, coefficient) pairs.

    First [0], then [c] - [c - e_i] - [e_i] for every peel site (c, i), with
    coinciding columns merged: c = e_i gives -[0] and c = 2e_i gives
    [c] - 2[e_i].  `gens` is in lex order, so c - e_i and e_i both precede
    c, and c's column comes last in its row.
    """
    rank = len(gens[0])
    zero = gen_index[(0,) * rank]
    # e_i is a generator whenever some generator has c[i] > 0
    singles = [gen_index.get((0,) * i + (1,) + (0,) * (rank - i - 1))
               for i in range(rank)]
    yield ((zero, -1),)
    for top, c in enumerate(gens):
        for i, v in enumerate(c):
            if not v:
                continue
            single = singles[i]
            if top == single:
                yield ((zero, -1),)
                continue
            rest = gen_index[c[:i] + (v - 1,) + c[i + 1:]]
            if rest == single:
                yield ((single, -2), (top, 1))
            elif rest < single:
                yield ((rest, -1), (single, -1), (top, 1))
            else:
                yield ((single, -1), (rest, -1), (top, 1))


class _PeelRelations(_Record):
    """Sized, re-iterable view of the peel relations at one size bound.

    Rows are re-derived on each iteration instead of being stored.  The
    length is closed-form: one row per nonzero entry of each generator, plus
    the [0] row.  Generators with c[i] > 0 are e_i plus a vector of total
    size <= budget - sizes[i].
    """

    _fields = ("sizes", "budget")

    def __init__(self, sizes: Tuple[int, ...], budget: int) -> None:
        self.__dict__.update(sizes=sizes, budget=budget)

    def __len__(self) -> int:
        ways = _count_by_total(self.sizes, self.budget)
        return 1 + sum(sum(ways[:self.budget - step + 1])
                       for step in self.sizes if step <= self.budget)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], ...]]:
        gens = _count_vectors(self.sizes, self.budget)
        return _peel_rows(gens, {c: i for i, c in enumerate(gens)})


class _CountVectorLabels(_Record):
    """Sized view of the generator labels "[c_0,...,c_r]" at one size bound.

    The length is the count taken before enumerating; the labels are
    rendered only when iterated, from a fresh enumeration.
    """

    _fields = ("sizes", "budget", "count")

    def __init__(self, sizes: Tuple[int, ...], budget: int, count: int) -> None:
        self.__dict__.update(sizes=sizes, budget=budget, count=count)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[str]:
        return ("[" + ",".join(map(str, c)) + "]"
                for c in _count_vectors(self.sizes, self.budget))


def presentation(ring: BurnsideRing, size_bound: int) -> gtheory.GrothendieckPresentation:
    """Presentation over a group monoid via the orbit-class classification.

    Modules up to iso are multisets of transitive classes, so generators are
    count vectors; relations peel one orbit at a time, which generates every
    split relation by induction on orbit count.  The row peeling the first
    nonzero class of every generator at an even stride is re-verified on
    explicit modules through the category operations.

    The cokernel comes from a linear certificate, not a Smith normal form:
    every row lies in the kernel of [c] -> c, and every generator other than
    a single orbit is the unit-coefficient top term of a row whose other
    terms have fewer orbits.  So the single orbits that fit generate the
    cokernel and map to independent unit vectors: it is free on them.

    The kernel test is on integers: enc(c) = sum_j c_j B^j with B > 6 budget.
    Entries of a count vector are at most the budget, so a row whose
    coefficients have absolute sum at most 3 has an image with entries of
    absolute value below B/2, and that image is zero exactly when its
    base-B digits are, that is when sum v enc(c) = 0.  Rows of larger
    absolute sum are refused outright; no peel row has one.
    """
    sizes = ring.coset_sizes
    budget = size_bound - 1
    # G/G has size 1, so there are at least size_bound count vectors.
    count = (sum(_count_by_total(sizes, budget))
             if size_bound <= gtheory.GROUP_GENERATOR_CAP else size_bound)
    charge("gtheory.GROUP_GENERATOR_CAP", count, gtheory.GROUP_GENERATOR_CAP,
           f"generator count at size bound {size_bound}")
    relations = _PeelRelations(sizes, budget)
    gens = _count_vectors(sizes, budget)
    if len(gens) != count:
        raise InternalCheckError(
            f"{len(gens)} generators enumerated, {count} counted")
    gen_index = {c: i for i, c in enumerate(gens)}
    orbits = [sum(c) for c in gens]
    powers = [(6 * budget + 1) ** j for j in range(ring.rank)]
    enc = [sum(map(operator.mul, c, powers)) for c in gens]
    reduced = bytearray(len(gens))
    rows = 0
    for row in _peel_rows(gens, gen_index):
        weight = image = 0
        top = lead = -1
        # whether the row fails the top-term test so far: its most-orbit
        # term is tied or has a non-unit coefficient
        fails = True
        for idx, v in row:
            weight += v if v > 0 else -v
            image += v * enc[idx]
            depth = orbits[idx]
            if depth > top:
                top, lead, fails = depth, idx, v not in (1, -1)
            elif depth == top:
                fails = True
        if weight > 3:
            raise InternalCheckError(
                f"relation {row} has coefficients of absolute sum {weight}, "
                f"past the 3 the encoded kernel test covers")
        if image:
            raise InternalCheckError(
                f"relation {row} is not in the kernel of [c] -> c")
        if not fails:
            reduced[lead] = 1
        rows += 1
    if rows != len(relations):
        raise InternalCheckError(
            f"{rows} relation rows, expected {len(relations)}")
    if any(not done and n != 1 for done, n in zip(reduced, orbits)):
        raise InternalCheckError(
            "a generator with other than one orbit is not rewritten by a row")

    # gens[0] is the zero vector, which has no peel site
    stride = max(1, math.ceil((len(gens) - 1) / gtheory.RELATION_AUDIT_SAMPLE))
    for c in gens[1::stride]:
        _audit_group_relation(ring, c, next(i for i, v in enumerate(c) if v))

    free_rank = orbits.count(1)
    stable = free_rank == ring.rank
    result = gtheory.AbelianGroupReport(
        free_rank, (),
        provenance=f"generators-relations bound={size_bound}",
        basis_interpretation=tuple(ring.labels) if stable else None,
    )
    return gtheory.GrothendieckPresentation(
        size_bound, _CountVectorLabels(sizes, budget, count), relations,
        result, "stable at bound" if stable else "bounded approximation",
    )


def _audit_group_relation(ring: BurnsideRing, counts: Tuple[int, ...], cls: int) -> None:
    """Re-derive one peel relation on explicit modules; raises on mismatch."""
    big = ring.realize(ring.element(counts))
    # realize lays out class blocks in order; drop the last copy of `cls`
    keep = []
    offset = 1
    for j, (c, block) in enumerate(zip(counts, ring.coset_sizes)):
        for copy in range(c):
            if not (j == cls and copy == c - 1):
                keep.extend(range(offset, offset + block))
            offset += block
    incl = modules.submodule_inclusion(big, keep)
    ok, _ = modules.is_cofibration(incl)
    if not ok:
        raise InternalCheckError("orbit-peel inclusion is not a cofibration")
    smaller = tuple(v - 1 if j == cls else v for j, v in enumerate(counts))
    if ring.decompose(incl.source).coeffs != smaller:
        raise InternalCheckError("peeled submodule decomposes incorrectly")
    q = modules.quotient(incl)
    expected = tuple(1 if j == cls else 0 for j in range(ring.rank))
    if ring.decompose(q).coeffs != expected:
        raise InternalCheckError("peel quotient decomposes incorrectly")
