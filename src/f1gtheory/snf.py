"""Exact integer matrix reduction for finitely generated abelian groups."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int | None = None) -> List[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the full diagonal of length min(nrows, ncols), entries nonnegative
    and satisfying d[i] | d[i+1].  Only the diagonal is produced; the
    transforms are not tracked.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    if ncols is None:
        n = len(a[0]) if a else 0
    else:
        n = ncols
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")
    diag: List[int] = []
    t = 0
    while t < min(m, n):
        # locate a pivot of smallest absolute value in the trailing block; a
        # unit is the least possible, so the scan ends with the row holding one
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            # clear the pivot column with row operations
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        # remainder is smaller than the pivot: promote it
                        a[t], a[i] = a[i], a[t]
                        restart = True
                        break
            if restart:
                continue
            # clear the pivot row with column operations
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot;
            # a unit pivot divides every entry
            if abs(a[t][t]) == 1:
                break
            witness = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            for j in range(t, n):
                a[t][j] += a[witness][j]
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


def cokernel_invariants(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[int, List[int]]:
    """Free rank and invariant factors of Z^ncols modulo the row span.

    The torsion list keeps only factors > 1, in divisibility order.  Repeated
    rows span nothing new, so only the distinct ones are reduced.
    """
    if not rows:
        return ncols, []
    diag = smith_normal_form(list(dict.fromkeys(map(tuple, rows))), ncols)
    nonzero = [d for d in diag if d]
    free = ncols - len(nonzero)
    torsion = [d for d in nonzero if d > 1]
    return free, torsion


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

    Returns the divisibility chain d1 | d2 | ... with every entry > 1.
    """
    primary: Dict[int, List[int]] = {}
    for d in orders:
        if d < 1:
            raise ValueError(f"cyclic order must be positive, got {d}")
        for p, e in factorize(d).items():
            primary.setdefault(p, []).append(e)
    depth = max((len(v) for v in primary.values()), default=0)
    factors = []
    for slot in range(depth):
        f = 1
        for p, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if slot < len(exps_sorted):
                f *= p ** exps_sorted[slot]
        factors.append(f)
    return sorted(factors)
