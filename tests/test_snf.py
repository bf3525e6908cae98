from __future__ import annotations

import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1gtheory.snf import (cokernel_invariants, factorize,
                           merge_cyclic_factors, smith_normal_form)

from oracles import cokernel_invariants_sparse, smith_normal_form_dense


def minors_gcd(rows, k):
    """gcd of all k x k minors, the classical determinantal divisor."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    g = 0
    for rsel in combinations(range(nrows), k):
        for csel in combinations(range(ncols), k):
            g = math.gcd(g, _det([[rows[i][j] for j in csel] for i in rsel]))
    return g


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


small_matrices = st.integers(1, 4).flatmap(
    lambda nr: st.integers(1, 4).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_diagonal_matches_determinantal_divisors(rows):
    diag = smith_normal_form([list(r) for r in rows])
    prod = 1
    for k, d in enumerate(diag, start=1):
        assert d >= 0
        prod *= d
        assert prod == minors_gcd(rows, k)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_diagonal_divisibility_chain(rows):
    diag = smith_normal_form([list(r) for r in rows])
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_known_smith_forms():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[4]]) == [4]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_cokernel_invariants():
    assert cokernel_invariants([[2, 0], [0, 3]], 2) == (0, [6])
    assert cokernel_invariants([[2, 0]], 2) == (1, [2])
    assert cokernel_invariants([], 3) == (3, [])


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_sparse_matches_dense(rows):
    ncols = len(rows[0])
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert cokernel_invariants_sparse(sparse, ncols) == \
        cokernel_invariants([list(r) for r in rows], ncols)


def test_unit_rich_matrices_match_sparse_oracle():
    # mostly +-1 entries, so the pivot scan usually stops at a unit
    entries = (-1, -1, -1, 0, 0, 0, 0, 1, 1, 1, 2, -2, 3, 4, -6)
    for seed in range(300):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert cokernel_invariants(rows, ncols) == \
            cokernel_invariants_sparse(sparse, ncols), seed
        diag = smith_normal_form(rows)
        assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


def test_factorize():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(7) == {7: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_merge_cyclic_factors():
    assert merge_cyclic_factors([2, 2, 3]) == [2, 6]
    assert merge_cyclic_factors([2, 3]) == [6]
    assert merge_cyclic_factors([]) == []
    assert merge_cyclic_factors([2, 2, 2]) == [2, 2, 2]
    assert merge_cyclic_factors([4, 6]) == [2, 12]


def _best_of(runs, fn):
    best = math.inf
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.mark.parametrize("seed", [2, 3, 8])
def test_even_random_matrices_are_fast_and_match_the_oracle(seed):
    # no unit anywhere, so the whole matrix is the non-unit remainder; the
    # dense oracle takes about half a second on each of these
    rng = random.Random(seed)
    rows = [[2 * rng.randint(-9, 9) for _ in range(30)] for _ in range(40)]
    elapsed, diag = _best_of(5, lambda: smith_normal_form(rows))
    assert diag == smith_normal_form_dense(rows)
    assert elapsed < 0.05, elapsed


def test_rows_with_zeros_repeats_and_signs_match_the_oracle():
    pools = [(-1, 0, 1), (-2, 0, 2, 4, 6), tuple(range(-9, 10)),
             (0, 0, 0, 0, 12, 18, -30)]
    for seed in range(200):
        rng = random.Random(seed)
        ncols = rng.randint(1, 7)
        pool = pools[seed % len(pools)]
        rows = [[rng.choice(pool) for _ in range(ncols)]
                for _ in range(rng.randint(1, 6))]
        rows.append([0] * ncols)
        rows.append(list(rng.choice(rows)))
        rows.append([-v for v in rng.choice(rows)])
        rng.shuffle(rows)
        assert smith_normal_form(rows) == smith_normal_form_dense(rows), seed
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert cokernel_invariants(rows, ncols) == \
            cokernel_invariants_sparse(sparse, ncols), seed


def test_rank_deficient_remainders_match_the_oracle():
    # products of thin factors: rank below both sides, no unit entries
    for seed in range(60):
        rng = random.Random(seed)
        m, n, k = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 3)
        left = [[rng.choice((-3, -2, 0, 2, 3)) for _ in range(k)] for _ in range(m)]
        right = [[rng.choice((-4, 0, 2, 6)) for _ in range(n)] for _ in range(k)]
        rows = [[sum(l[t] * right[t][j] for t in range(k)) for j in range(n)]
                for l in left]
        assert smith_normal_form(rows, n) == smith_normal_form_dense(rows, n), seed


def _prime_power_counts(orders):
    """{(p, e): how many orders p^e divides}, for every prime power dividing one."""
    counts = {}
    for d in orders:
        for p, top in factorize(d).items():
            for e in range(1, top + 1):
                counts[p, e] = counts.get((p, e), 0) + 1
    return counts


def _oracle_merge(orders):
    """The invariant factors > 1 of diag(orders), from the dense oracle."""
    diagonal = [[d if i == j else 0 for j in range(len(orders))]
                for i, d in enumerate(orders)]
    return [d for d in smith_normal_form_dense(diagonal) if d > 1]


def test_merge_cyclic_factors_matches_the_oracle_on_diagonal_matrices():
    choices = (1, 2, 2, 2, 3, 4, 4, 5, 6, 8, 9, 12, 16, 27, 30, 64)
    for seed in range(40):
        rng = random.Random(seed)
        orders = [rng.choice(choices) for _ in range(rng.randint(0, 30))]
        assert merge_cyclic_factors(orders) == _oracle_merge(orders), seed


def test_merge_cyclic_factors_on_a_g1_sized_list():
    # g1 on D4 x C2^3 merges 2,417 orders: Z/2 and W^ab for each of its 681
    # classes.  The dense oracle's pivot scan is cubic in the size of
    # diag(orders), so the whole list is checked by the counts that fix a
    # finite abelian group (how many cyclic factors each prime power divides)
    # and seeded slices of it against the oracle.
    rng = random.Random(64)
    orders = [rng.choice((2, 2, 2, 2, 4, 4, 8, 16, 3, 6, 12, 5)) for _ in range(2400)]
    merged = merge_cyclic_factors(orders)
    assert all(b % a == 0 for a, b in zip(merged, merged[1:]))
    assert _prime_power_counts(merged) == _prime_power_counts(orders)
    for start in range(0, 2400, 600):
        part = orders[start:start + 40]
        assert merge_cyclic_factors(part) == _oracle_merge(part)
