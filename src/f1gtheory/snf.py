"""Exact integer matrix reduction for finitely generated abelian groups.

Sparse ±1 pivots go first (Havas, Holt and Rees, Linear Algebra Appl. 192,
1993); the rest is reduced modulo a nonzero maximal minor (Domich, Kannan
and Trotter, Math. Oper. Res. 12, 1987), so its entries stay below it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple


def _eliminate_units(live: Dict[int, Dict[int, int]]) -> int:
    """Drop ±1 pivots, last column first, each with the row of fewest entries."""
    where: Dict[int, Set[int]] = {}
    for i, row in live.items():
        for c in row:
            where.setdefault(c, set()).add(i)
    units = 0
    for c in sorted(where, reverse=True):
        hits = [i for i in where[c] if live[i][c] in (1, -1)]
        if not hits:
            continue
        p = min(hits, key=lambda i: (len(live[i]), i))
        pivot, units = live.pop(p), units + 1
        for d in pivot:
            where[d].discard(p)
        for i in where.pop(c):
            row, f = live[i], live[i][c] * pivot[c]
            for d, v in pivot.items():
                w = row.get(d, 0) - f * v
                if w:
                    row[d] = w
                    where[d].add(i)
                else:
                    del row[d]
                    if d != c:
                        where[d].discard(i)
            if not row:
                del live[i]
    return units


def _remainder_factors(rows: List[Dict[int, int]]) -> List[int]:
    """Nonzero invariant factors of the rows, densely, in divisibility order.

    For rank r and a nonzero r x r minor d, appending d times the identity
    keeps the r factors (each divides d) and adds a Z/d per other column, so
    entries are kept modulo d.  Each step fixes a least entry by gcd row and
    column steps (a pass that is not clean lowers it); (gcd, lcm) fixes then
    sort the diagonal.
    """
    cols = sorted({c for r in rows for c in r})
    b, rank, d = [[r.get(c, 0) for c in cols] for r in rows], 0, 1
    for c in range(len(cols)):  # fraction-free (Bareiss) elimination: rank, a minor
        i = next((i for i in range(rank, len(b)) if b[i][c]), None)
        if i is not None:
            b[rank], b[i] = b[i], b[rank]
            p, top = b[rank][c], b[rank]
            for k in range(rank + 1, len(b)):
                b[k] = [(p * w - b[k][c] * u) // d for u, w in zip(top, b[k])]
            rank, d = rank + 1, abs(p)
    a, diag = [[r.get(c, 0) % d for c in cols] for r in rows], []
    while any(map(any, a)):
        _, i, j = min((v, i, j) for i, r in enumerate(a) for j, v in enumerate(r) if v)
        a[0], a[i] = a[i], a[0]
        for r in a:
            r[0], r[j] = r[j], r[0]
        while True:
            for k in range(1, len(a)):  # gcd row steps clear column 0
                p, q = a[0][0], a[k][0]
                if q:  # [[x, y], [-q/g, p/g]] has determinant 1; y = 0 when p | q
                    g = math.gcd(p, q)
                    x = pow(p // g, -1, q // g) or 1
                    y, top, row = (g - x * p) // q, a[0], a[k]
                    a[k] = [(p // g * w - q // g * u) % d for u, w in zip(top, row)]
                    if y:
                        a[0] = [(x * u + y * w) % d for u, w in zip(top, row)]
            if not any(v % a[0][0] for v in a[0]):
                break  # column steps would change row 0 alone
            a = list(map(list, zip(*a)))  # column steps, as row steps on the transpose
        diag.append(math.gcd(a[0][0], d))
        a = [r[1:] for r in a[1:]]
    diag += [d] * (len(cols) - len(diag))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag[:rank]


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int | None = None) -> List[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the full diagonal of length min(nrows, ncols), entries nonnegative
    and satisfying d[i] | d[i+1].  Only the diagonal is produced; the
    transforms are not tracked.
    """
    n = (len(rows[0]) if rows else 0) if ncols is None else ncols
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    live = {i: {j: v for j, v in enumerate(r) if v} for i, r in enumerate(rows) if any(r)}
    diag = [1] * _eliminate_units(live) + _remainder_factors(list(live.values()))
    return diag + [0] * (min(len(rows), n) - len(diag))


def cokernel_invariants(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[int, List[int]]:
    """Free rank and invariant factors of Z^ncols modulo the row span.

    The torsion list keeps only factors > 1, in divisibility order.  Repeated
    rows span nothing new, so only the distinct ones are reduced.
    """
    diag = [d for d in smith_normal_form(list(dict.fromkeys(map(tuple, rows))), ncols) if d]
    return ncols - len(diag), [d for d in diag if d > 1]


def factorize(n: int) -> Dict[int, int]:
    if n < 1:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def merge_cyclic_factors(orders: Sequence[int]) -> List[int]:
    """Invariant factors of a direct sum of cyclic groups Z/d, d in orders.

    Returns the divisibility chain d1 | d2 | ... with every entry > 1; the
    i-th largest factor is the product of the i-th largest prime powers.
    """
    primary: Dict[int, List[int]] = {}
    for d in orders:
        if d < 1:
            raise ValueError(f"cyclic order must be positive, got {d}")
        for p, e in factorize(d).items():
            primary.setdefault(p, []).append(p ** e)
    factors = [1] * max(map(len, primary.values()), default=0)
    for powers in primary.values():
        for slot, q in enumerate(sorted(powers, reverse=True)):
            factors[slot] *= q
    return sorted(factors)
