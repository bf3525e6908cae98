"""Degree 0 and 1 invariants of module categories over pointed monoids.

G_0 comes from a generators-and-relations presentation of iso classes with
split-cofibration relations; G_1 of a group monoid from the wedge splitting
into suspension summands; the degree-0 assembly map and its cokernel from
the class of the free rank-1 module.
"""

from __future__ import annotations

import math
import operator
from itertools import permutations, product as iter_product
from operator import itemgetter
from typing import (Callable, Collection, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from . import _layer
from .burnside import BurnsideRing, build_burnside
from .errors import InternalCheckError, charge
from .groups import (FiniteGroup, _derived, _orbits, _power, abelianization,
                     classify_subgroups, conjugacy_classes_of_elements)
from .records import _Record
from .snf import cokernel_invariants, factorize, merge_cyclic_factors

# Only the degree-0 presentations build modules; g1 and wh0 never do.
modules = _layer("modules")

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


# --- G_0 for group monoids ----------------------------------------------

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


def _group_g0(ring: BurnsideRing, size_bound: int) -> GrothendieckPresentation:
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
             if size_bound <= GROUP_GENERATOR_CAP else size_bound)
    charge("gtheory.GROUP_GENERATOR_CAP", count, GROUP_GENERATOR_CAP,
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
    stride = max(1, math.ceil((len(gens) - 1) / RELATION_AUDIT_SAMPLE))
    for c in gens[1::stride]:
        _audit_group_relation(ring, c, next(i for i, v in enumerate(c) if v))

    free_rank = orbits.count(1)
    stable = free_rank == ring.rank
    result = AbelianGroupReport(
        free_rank, (),
        provenance=f"generators-relations bound={size_bound}",
        basis_interpretation=tuple(ring.labels) if stable else None,
    )
    return GrothendieckPresentation(
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


# --- G_0 for general monoids --------------------------------------------

def _action_tables(m: modules.PointedMonoid, s: int, spend: Callable[[int], None]
                   ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Action tables on a carrier of size s, in lex order of their free entries.

    Rows are filled top-down and a partial table is dropped as soon as
    action[action[y][a]][b] == action[y][mul[a][b]] fails among filled rows;
    the order is that of a product over all free entries.  Columns 0 and 1
    hold the law in every table, so only a, b >= 2 are checked.  Before a
    row is filled, `spend` is charged with its number of candidates.

    The law at (y, a) is decidable once rows y and action[y][a] are filled,
    so row x decides the pairs (x, a) with action[x][a] <= x, tested on each
    candidate, and the pairs (y, a) with y < x and action[y][a] == x, which
    fix action[x][b] to action[y][mul[a][b]] before the candidates are drawn.
    """
    mul = m.mul
    cols = range(2, m.size)
    action = [[0] * m.size] + [[0, x] + [0] * len(cols) for x in range(1, s)]

    def fill(x: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if x == s:
            yield tuple(map(tuple, action))
            return
        spend(s ** len(cols))
        row = action[x]
        choices: List[Sequence[int]] = [range(s)] * len(cols)
        for y in range(1, x):
            for a in cols:
                if action[y][a] == x:
                    for b in cols:
                        v = action[y][mul[a][b]]
                        choices[b - 2] = (v,) if v in choices[b - 2] else ()
        for values in iter_product(*choices):
            row[2:] = values
            if all(action[row[a]][b] == row[mul[a][b]]
                   for a in cols if row[a] <= x for b in cols):
                yield from fill(x + 1)

    return fill(1)


class _ClassIndex:
    """Isomorphism-class representatives of modules over one monoid.

    The isomorphism class of a module among labelled action tables is the
    orbit of its table under the (s-1)! relabellings that fix the basepoint,
    so a new class memoizes its whole orbit and every later table is one
    dict lookup.  Work (relabellings here, candidate rows in `_action_tables`)
    is charged against WORK_BUDGET before anything is stored.
    """

    def __init__(self) -> None:
        self.reps: List[modules.FiniteModule] = []
        self._known: Dict[Tuple[Tuple[int, ...], ...], int] = {}
        self.spent = 0

    def spend(self, work: int) -> None:
        self.spent += work
        charge("gtheory.WORK_BUDGET", self.spent, WORK_BUDGET, "module enumeration work")

    def lookup(self, table: Tuple[Tuple[int, ...], ...]) -> int:
        """Index of the class of the module with this action table."""
        i = self._known.get(table)
        if i is None:
            raise InternalCheckError("module of bounded size missing from enumeration")
        return i

    def add(self, module: modules.FiniteModule) -> None:
        """Open a class for a module whose table is in no known class."""
        self.spend(math.factorial(module.size - 1))
        i = len(self.reps)
        self.reps.append(module)
        rows = [itemgetter(*row) for row in module.action]
        for rest in permutations(range(1, module.size)):
            perm = (0,) + rest
            table: List[Tuple[int, ...]] = [()] * module.size
            for x, row in enumerate(rows):
                table[perm[x]] = row(perm)
            self._known[tuple(table)] = i


def _enumerate_modules(m: modules.PointedMonoid, size_bound: int) -> _ClassIndex:
    """The classes of all modules with carrier size <= bound, in table order.

    Every carrier size s has a class (units fix every point, non-units send
    it to the basepoint) whose (s-1)! relabellings are charged, so a bound
    whose sum of (s-1)! passes WORK_BUDGET is refused before enumerating.
    """
    floor = 0
    for s in range(1, size_bound + 1):
        floor += math.factorial(s - 1)
        charge("gtheory.WORK_BUDGET", floor, WORK_BUDGET,
               f"relabelling count at size bound {size_bound}")
    index = _ClassIndex()
    for s in range(1, size_bound + 1):
        for table in _action_tables(m, s, index.spend):
            if table not in index._known:
                index.add(_derived(modules.FiniteModule, m, s, table))
    return index


def _action_closed_subsets(module: modules.FiniteModule) -> List[Tuple[int, ...]]:
    """Action-closed sets of nonzero points, in the order of their bit masks."""
    points = range(1, module.size)
    reach = [sum({1 << y for y in row if y}) for row in module.action]
    return [tuple(x for x in points if mask >> x & 1)
            for mask in range(0, 1 << module.size, 2)
            if all(reach[x] & ~mask == 0 for x in points if mask >> x & 1)]


def _split_tables(module: modules.FiniteModule, subset: Tuple[int, ...]
                  ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...], bool]:
    """Action tables of the submodule on an action-closed `subset` and of the
    quotient by it, laid out as `submodule_inclusion` and `quotient` lay them
    out, and whether the complement of `subset`, with 0, is action-closed.
    """
    action = module.action
    keep = (0,) + subset
    inside = [0] * module.size
    for i, x in enumerate(keep):
        inside[x] = i
    sub = tuple(tuple(inside[y] for y in action[x]) for x in keep)
    rest = [x for x in range(1, module.size) if not inside[x]]
    proj = [0] * module.size
    for i, x in enumerate(rest, 1):
        proj[x] = i
    quot = ((0,) * module.monoid.size,) + tuple(
        tuple(proj[y] for y in action[x]) for x in rest)
    collapse = all(proj[y] or not y for x in rest for y in action[x])
    return sub, quot, collapse


def _general_g0(m: modules.PointedMonoid, size_bound: int) -> GrothendieckPresentation:
    """Presentation over a general monoid from enumerated module classes.

    Each action-closed subset of a representative gives the relation
    [M] - [sub] - [M/sub] when its inclusion is split.  Both terms are
    looked up by action table.  When the complement of the subset, with 0,
    is action-closed, the collapse retraction is equivariant, so the
    inclusion splits without a search (the search would return that
    retraction first); only the other subsets run `is_cofibration`, on an
    inclusion built from the submodule table already written.
    """
    index = _enumerate_modules(m, size_bound)
    reps = index.reps
    relations: List[Tuple[Tuple[int, int], ...]] = []
    for i, rep in enumerate(reps):
        for subset in _action_closed_subsets(rep):
            sub, quot, collapse = _split_tables(rep, subset)
            if not (collapse or modules.is_cofibration(_derived(
                    modules.ModuleHom, _derived(modules.FiniteModule, m, len(sub), sub),
                    rep, (0,) + subset))[0]):
                continue
            row = {i: 1}
            for j in (index.lookup(sub), index.lookup(quot)):
                row[j] = row.get(j, 0) - 1
            # the coefficients sum to -1, so the row is never empty
            relations.append(tuple(sorted((j, v) for j, v in row.items() if v)))
    dense = []
    for relation in dict.fromkeys(relations):
        row = [0] * len(reps)
        for j, v in relation:
            row[j] = v
        dense.append(row)
    free_rank, torsion = cokernel_invariants(dense, len(reps))
    result = AbelianGroupReport(free_rank, tuple(torsion),
                                f"generators-relations bound={size_bound}")
    labels = tuple(f"size{rep.size}_idx{i}" for i, rep in enumerate(reps))
    return GrothendieckPresentation(size_bound, labels, tuple(relations), result,
                                    "bounded approximation")


def g0_presentation(m: modules.PointedMonoid, size_bound: int) -> GrothendieckPresentation:
    """Degree-0 Grothendieck group of finite modules over m, presented at a bound.

    Group monoids run through the orbit classification and report stability
    against the Burnside rank; other monoids enumerate action tables under
    WORK_BUDGET.
    """
    if size_bound < 1:
        raise ValueError("size bound must be >= 1")
    if m.is_group_monoid:
        return _group_g0(build_burnside(m.group), size_bound)
    return _general_g0(m, size_bound)


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
    torsion = tuple(merge_cyclic_factors(parts))
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
    ring = build_burnside(group)
    image = ring.basis_element(0).coeffs
    free_rank, torsion = cokernel_invariants([list(image)], ring.rank)
    report = AbelianGroupReport(free_rank, tuple(torsion), "snf",
                                tuple(ring.labels))
    return CartanReport(image, report)


def count_simple_factors(group: FiniteGroup, q: int) -> int:
    """Number of simple factors of the group algebra over a q-element field.

    Counts orbits of the q-th power map on conjugacy classes of elements.
    Requires q a prime power coprime to the group order.
    """
    charge("gtheory.SIMPLE_FACTORS_Q_CAP", q, SIMPLE_FACTORS_Q_CAP, "field size q")
    if q < 2 or len(factorize(q)) != 1:
        raise ValueError(f"{q} is not a prime power")
    if math.gcd(q, group.order) != 1:
        raise ValueError(f"{q} shares a factor with the group order {group.order}")
    classes = conjugacy_classes_of_elements(group)
    class_of = {x: i for i, cls in enumerate(classes) for x in cls}
    # x -> x^q permutes the elements, q being coprime to |G|
    step = [class_of[_power(group, cls[0], q)] for cls in classes]
    return len(_orbits(range(len(classes)), [step]))
