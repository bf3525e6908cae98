"""The lambda-ring product and composition rules at one ghost coordinate.

At a ghost coordinate the operations 1..N of a class are integers, the
elementary values e_1..e_N of a formal family of roots.  Newton's identity
turns them into the power sums p_1..p_N and back.  The families behind the
universal polynomials have known power sums (Macdonald, Symmetric Functions
and Hall Polynomials, 2nd ed., I.2 and I.8): p_n[XY] = p_n(X) p_n(Y), and
p_n[e_l] = e_l[p_n] is e_l of the family whose power sums are
p_n, p_{2n}, ..., p_{ln}.  Every division is exact on integer columns; a
remainder raises `InternalCheckError`.

The caps are `lambda-verify`'s input contract, not a limit of the rules.
The composition k is bounded by `--k-cap` <= MAX_PRODUCT_K.
"""

from __future__ import annotations

from typing import List, Sequence

from .errors import InternalCheckError

__all__ = ["MAX_PRODUCT_K", "MAX_COMPOSITION_L",
           "product_rule", "composition_rule"]

MAX_PRODUCT_K = 4
MAX_COMPOSITION_L = 3


def _power_sums(e: Sequence[int], n: int) -> List[int]:
    """p_1..p_n (index 0 unused) of e_0 = 1, e_1..e_n.

    p_m = sum_{i<m} (-1)^(i-1) e_i p_{m-i} + (-1)^(m-1) m e_m.
    """
    p = [0] * (n + 1)
    for m in range(1, n + 1):
        total = (-1) ** (m - 1) * m * e[m]
        for i in range(1, m):
            total += (-1) ** (i - 1) * e[i] * p[m - i]
        p[m] = total
    return p


def _elementary(p: Sequence[int], n: int) -> List[int]:
    """e_0..e_n of the power sums p_1..p_n: m e_m = sum_i (-1)^(i-1) e_{m-i} p_i."""
    e = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        for i in range(1, m + 1):
            total += (-1) ** (i - 1) * e[m - i] * p[i]
        e[m], rem = divmod(total, m)
        if rem:
            raise InternalCheckError("Newton's identity gave a non-integral value")
    return e


def product_rule(x: Sequence[int], y: Sequence[int], cap: int) -> List[int]:
    """P_0..P_cap at the columns (1, lambda^1, ..., lambda^cap) of x and y."""
    px, py = _power_sums(x, cap), _power_sums(y, cap)
    return _elementary([a * b for a, b in zip(px, py)], cap)


def composition_rule(x: Sequence[int], cap: int, l: int) -> List[int]:
    """P_{0,l}..P_{cap,l} at the column (1, lambda^1, ..., lambda^(cap*l)) of x."""
    p = _power_sums(x, cap * l)
    q = [0] + [_elementary([0] + p[n:n * l + 1:n], l)[l] for n in range(1, cap + 1)]
    return _elementary(q, cap)
