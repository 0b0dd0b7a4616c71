from __future__ import annotations

import random
import warnings
from fractions import Fraction as F

import pytest

from strataring.algebra import FormalSum, SpaceMismatch, multiply
from strataring.enumeration import decorated_basis, top_degree
from strataring.integrals import evaluation_kind, integrate_sum
from strataring.pairing import (
    GramMatrix,
    gram,
    integrate_product,
    kernel_basis,
    matrix_rank,
    null_space,
    rank,
    rank_table,
    verify_relation,
)
from conftest import dec


def test_point_moduli_gram():
    m = gram(0, 3, 0, "mbar")
    assert m.entries == [[F(1)]]
    assert rank(m) == 1


def test_genus_two_codim_one_gram():
    m = gram(2, 0, 1, "mbar")
    assert (len(m.rows), len(m.cols)) == (2, 2)
    assert rank(m) == 2


def test_matrix_rank_edge_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(0), F(0)]]) == 0
    assert matrix_rank([[F(1), F(0)], [F(0), F(5)]]) == 2
    assert matrix_rank([[F(1, 3), F(2, 3)], [F(2), F(4)]]) == 1
    # the first column's pivot sits below a zero: needs a row swap
    assert matrix_rank([[F(0), F(0), F(2)], [F(0), F(3), F(1)], [F(5), F(1), F(1)]]) == 3


def test_null_space_primitive_integer_vectors():
    cases = [
        ([[1, 2, 3]], [[-2, 1, 0], [-3, 0, 1]]),
        # negative pivots
        ([[-2, 1, 3], [4, -3, 1]], [[5, 7, 1]]),
        ([[-3, 2, 0, 5], [1, -1, 2, 0]], [[4, 6, 1, 0], [5, 5, 0, 1]]),
        # fractional entries
        ([[F(1, 2), F(1, 3), F(-1, 6)]], [[-2, 3, 0], [1, 0, 3]]),
        ([[F(2, 3), F(-1, 4), 1], [F(1, 5), F(1, 2), F(-3, 7)]], [[-165, 204, 161]]),
        # a zero column
        ([[0, 1, 2], [0, 2, 4]], [[1, 0, 0], [0, -2, 1]]),
        # a free column before a pivot column
        ([[1, 2, 0], [0, 0, 1]], [[-2, 1, 0]]),
        # the zero matrix
        ([[0, 0], [0, 0]], [[1, 0], [0, 1]]),
    ]
    for entries, expected in cases:
        basis = null_space([[F(x) for x in row] for row in entries])
        assert basis == [[F(x) for x in v] for v in expected]
        for v in basis:
            assert all(x.denominator == 1 for x in v)
            assert all(sum(F(a) * x for a, x in zip(row, v)) == 0 for row in entries)


def test_kernel_of_a_gram_matrix_without_columns_is_every_row_vector():
    rows = tuple(decorated_basis(2, 1, 1, "mbar")[:3])
    m = GramMatrix(2, 1, 1, "mbar", rows, (), [[], [], []])
    assert kernel_basis(m) == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert kernel_basis(GramMatrix(2, 1, 1, "mbar", (), rows, [])) == []


@pytest.mark.parametrize("g,n,k,space", [(2, 1, 1, "mbar"), (3, 1, 2, "ct"), (3, 2, 1, "rt")])
def test_small_gram_blocks_match_multiply_then_integrate(g, n, k, space):
    # every entry, so that each targeted expansion of the fused pairing
    # meets the materialized product; the rt block has genus-0 vertices
    m = gram(g, n, k, space)
    assert len(m.rows) * len(m.cols) > 1
    for a, row in zip(m.rows, m.entries):
        for b, value in zip(m.cols, row):
            assert value == integrate_sum(multiply(FormalSum.unit(a), FormalSum.unit(b)), space)
    if space == "rt":
        assert any(0 in d.graph.genera for d in m.rows + m.cols)
    assert any(any(row) for row in m.entries)


def test_kernel_roundtrip_property():
    m = gram(3, 1, 2, "ct")
    vectors = kernel_basis(m)
    assert len(vectors) == len(m.rows) - rank(m)
    for v in vectors:
        rel = FormalSum(3, 1)
        for c, d in zip(v, m.rows):
            rel = rel + FormalSum.unit(d).scale(c)
        assert verify_relation(rel, 3, 1, "ct").passed


def test_gram_transpose_symmetry():
    g, n, space = 2, 1, "mbar"
    top = top_degree(space, g, n)
    m1 = gram(g, n, 1, space)
    m2 = gram(g, n, top - 1, space)
    assert [list(r) for r in zip(*m1.entries)] == m2.entries


def test_self_pairing_matrix_is_symmetric():
    m = gram(2, 1, 2, "mbar")
    assert m.entries == [list(r) for r in zip(*m.entries)]


def test_rank_invariant_under_scaling_a_basis_element():
    m = gram(2, 0, 1, "mbar")
    scaled = [row[:] for row in m.entries]
    scaled[0] = [F(7, 3) * x for x in scaled[0]]
    assert matrix_rank(scaled) == matrix_rank(m.entries)


def test_rank_table_symmetry():
    for g, n, space in [(2, 0, "mbar"), (2, 1, "ct"), (4, 0, "rt")]:
        ranks = rank_table(g, n, space)
        assert ranks == ranks[::-1] or all(
            ranks[k] == ranks[len(ranks) - 1 - k] for k in range(len(ranks))
        )


def test_verify_relation_trivial_cases():
    assert verify_relation(FormalSum(2, 1), 2, 1, "ct").passed
    # a single basis class does not pair to zero with everything
    d = decorated_basis(2, 1, 1, "ct")[0]
    rep = verify_relation(FormalSum.unit(d), 2, 1, "ct")
    assert not rep.passed and rep.failures()


def test_pairing_values_match_direct_integration():
    rng = random.Random(9)
    g, n, space = 2, 1, "mbar"
    top = top_degree(space, g, n)
    k = 2
    m = gram(g, n, k, space)
    for _ in range(5):
        i = rng.randrange(len(m.rows))
        j = rng.randrange(len(m.cols))
        direct = integrate_sum(
            multiply(FormalSum.unit(m.rows[i]), FormalSum.unit(m.cols[j])),
            evaluation_kind(space),
        )
        assert m.entries[i][j] == direct


def _partition_numbers(m: int) -> list[int]:
    p = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            p[total] += p[total - part]
    return p


@pytest.mark.parametrize(
    "x, y",
    [
        # a codimension-1 class of M_2 against classes of M_1,2 of
        # codimension 1 and 2, and against the fundamental class of M_3
        ((2, 0, 1), (1, 2, 1)),
        ((2, 0, 1), (1, 2, 2)),
        ((2, 0, 1), (3, 0, 0)),
    ],
)
def test_pairing_sums_on_different_spaces_raises_space_mismatch(x, y):
    a, b = (FormalSum.unit(decorated_basis(g, n, k, "mbar")[0]) for g, n, k in (x, y))
    for left, right in ((a, b), (b, a)):
        with pytest.raises(SpaceMismatch):
            integrate_product(left, right, "mbar")


def test_rational_tails_genus_g_oracle():
    # Faber (arXiv:math/9711218): R*(M_g) is generated by kappa classes
    # with no relation up to degree g // 3, so rank = p(d) there, and
    # R^{g-2}(M_g) is one-dimensional
    p = _partition_numbers(12)
    for g in range(7, 13):
        ranks = rank_table(g, 0, "rt")
        top = top_degree("rt", g, 0)
        assert len(ranks) == top + 1 and ranks[top] == 1
        assert ranks[: g // 3 + 1] == p[: g // 3 + 1]
        # the upper half is taken from the transposed matrices; check it
        assert ranks == [rank(gram(g, 0, k, "rt")) for k in range(top + 1)]
        assert ranks == ranks[::-1]


def test_rational_tails_genus_nine_ranks():
    assert rank_table(9, 0, "rt") == [1, 1, 2, 3, 3, 2, 1, 1]


def test_large_gram_fill_warns(monkeypatch):
    import strataring.pairing as pairing

    monkeypatch.setattr(pairing, "GRAM_WARN_PAIRINGS", 3)
    with pytest.warns(RuntimeWarning, match="fills 4 pairings"):
        m = pairing.gram(2, 0, 1, "mbar")
    assert rank(m) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram(0, 3, 0, "mbar")  # one pairing, below the threshold


@pytest.mark.parametrize("g,n,k,space", [(2, 1, 2, "mbar"), (4, 0, 1, "rt")])
def test_middle_gram_computes_one_triangle(monkeypatch, g, n, k, space):
    import strataring.pairing as pairing

    calls = []
    real = pairing.pairing_value

    def counted(a, b, sp):
        calls.append((a, b))
        return real(a, b, sp)

    monkeypatch.setattr(pairing, "pairing_value", counted)
    size = len(decorated_basis(g, n, k, space))
    triangle = size * (size + 1) // 2
    # the warning counts the pairings computed, not the whole matrix
    monkeypatch.setattr(pairing, "GRAM_WARN_PAIRINGS", triangle - 1)
    with pytest.warns(RuntimeWarning, match=f"fills {triangle} pairings"):
        m = pairing.gram(g, n, k, space)
    assert 2 * k == top_degree(space, g, n) and list(m.rows) == list(m.cols)
    assert len(calls) == triangle
    monkeypatch.setattr(pairing, "GRAM_WARN_PAIRINGS", triangle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairing.gram(g, n, k, space)
    full = [[real(r, c, space) for c in m.cols] for r in m.rows]
    assert m.entries == full
