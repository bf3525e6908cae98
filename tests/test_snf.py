from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1gtheory.snf import (cokernel_invariants, factorize,
                           merge_cyclic_factors, smith_normal_form)

from oracles import cokernel_invariants_sparse


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
