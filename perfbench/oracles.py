"""Checks that do not come from strataring.

Everything here is plain Python on integers and ``Fraction``s: partition
numbers, a rank computed by elimination over a large prime field, and the
exact product of a vector with a matrix.  The workloads compare the
engine's answers against these.
"""

from __future__ import annotations

from fractions import Fraction

# a Mersenne prime; every denominator met so far is far below it
PRIME = (1 << 61) - 1


def partition_numbers(d_max: int) -> list[int]:
    """``[p(0), ..., p(d_max)]`` by the standard parts-at-most-k table."""
    p = [1] + [0] * d_max
    for part in range(1, d_max + 1):
        for total in range(part, d_max + 1):
            p[total] += p[total - part]
    return p


def _mod_prime(x: Fraction) -> int:
    x = Fraction(x)
    if x.denominator % PRIME == 0:
        raise ValueError("denominator divisible by the field prime")
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def rank_mod_prime(rows) -> int:
    """Rank of a rational matrix reduced modulo :data:`PRIME`.

    It never exceeds the rank over the rationals, and equals it unless the
    prime divides every maximal nonzero minor.
    """
    m = [[_mod_prime(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, PRIME)
        pivot_row = [x * inv % PRIME for x in m[r]]
        m[r] = pivot_row
        for i in range(r + 1, n_rows):
            f = m[i][c]
            if f:
                m[i] = [(a - f * b) % PRIME for a, b in zip(m[i], pivot_row)]
        r += 1
        if r == n_rows:
            break
    return r


def vector_times_matrix(v, rows) -> list[Fraction]:
    """Exact ``v . M`` for a row vector ``v`` and the rows of ``M``."""
    if len(v) != len(rows):
        raise ValueError("vector length does not match the row count")
    n_cols = len(rows[0]) if rows else 0
    out = [Fraction(0)] * n_cols
    for coeff, row in zip(v, rows):
        coeff = Fraction(coeff)
        if coeff:
            for j, x in enumerate(row):
                out[j] += coeff * x
    return out

