"""Pairing ranks against values known independently of the engine."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import pytest

from strataring.pairing import gram, rank, rank_table


def _times(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _plus(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def _open_point_count(m: int) -> list[int]:
    """#M_{0,m}(F_q) = (q - 2)(q - 3)...(q - m + 2), as coefficients of q."""
    out = [1]
    for i in range(2, m - 1):
        out = _times(out, [-i, 1])
    return out


def _set_partitions(items: tuple):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [(first,)] + partition
        for i, block in enumerate(partition):
            yield partition[:i] + [(first,) + block] + partition[i + 1 :]


@lru_cache(maxsize=None)
def _below(legs: tuple) -> list[int]:
    """The point count of the trees hanging from one half-edge with the
    leg set ``legs``: its vertex splits ``legs`` into two or more blocks,
    and each block of two or more legs hangs from a new edge.  Labeled
    stable trees have no automorphisms."""
    total = [0]
    for blocks in _set_partitions(legs):
        if len(blocks) < 2:
            continue
        term = _open_point_count(len(blocks) + 1)
        for block in blocks:
            if len(block) > 1:
                term = _times(term, _below(block))
        total = _plus(total, term)
    return total


def _genus_zero_betti(n: int) -> list[int]:
    """The even Betti numbers of M_{0,n}-bar, from the point count over
    F_q: a sum over stable trees with legs 1..n of the product of the
    point counts of their vertices (Keel, Trans. AMS 330, 1992).  Leg n
    sits on the vertex whose other half-edges split legs 1..n-1."""
    return _below(tuple(range(1, n)))


def test_genus_zero_betti_numbers_of_small_cases():
    # P^1, the blow-up of P^2 in four points, and Keel's M_{0,6}-bar
    assert _genus_zero_betti(4) == [1, 1]
    assert _genus_zero_betti(5) == [1, 5, 1]
    assert _genus_zero_betti(6) == [1, 16, 16, 1]


# the fill of M_{0,7}-bar warns, as it should: 120,295 pairings
_LONG_FILL = [pytest.mark.slow, pytest.mark.filterwarnings("ignore::RuntimeWarning")]


@pytest.mark.parametrize("n", [4, 5, 6, pytest.param(7, marks=_LONG_FILL)])
def test_genus_zero_ranks_are_the_betti_numbers(n):
    # the pairing on M_{0,n}-bar is perfect and its Chow ring is its
    # cohomology, so the ranks are the even Betti numbers
    assert rank_table(0, n, "mbar") == _genus_zero_betti(n)
    if n == 7:
        assert _genus_zero_betti(7) == [1, 42, 127, 42, 1]


@pytest.mark.slow
def test_genus_four_rank_table():
    ranks = rank_table(4, 0, "mbar")
    assert len(ranks) == 10 and ranks == ranks[::-1]
    assert ranks[0] == ranks[9] == 1
    # Pic(M_4-bar) (x) Q has the basis lambda, delta_irr, delta_1, delta_2
    # (Arbarello-Cornalba 1998)
    assert ranks[1] == 4


def _divisor_count(g: int, n: int) -> int:
    """The rank of H^2(M_{g,n}-bar, Q) for g >= 3: Arbarello and Cornalba
    (Publ. Math. IHES 88, 1998) show that it is freely
    generated by lambda, psi_1..psi_n, delta_irr and one delta_{h,S} per
    unordered splitting {(h, S), (g - h, S^c)} of the genus and the legs
    whose two sides, each with the node as one more point, are stable."""
    assert g >= 3
    splittings = set()
    for h in range(g + 1):
        for size in range(n + 1):
            for S in combinations(range(1, n + 1), size):
                rest = tuple(i for i in range(1, n + 1) if i not in S)
                if 2 * h - 1 + len(S) > 0 and 2 * (g - h) - 1 + len(rest) > 0:
                    splittings.add(frozenset({(h, S), (g - h, rest)}))
    return 1 + n + 1 + len(splittings)


# the degree-1 pairing rank is at most the rank of H^2, with equality
# when the one-dimensional boundary strata, which are tautological,
# detect every divisor class; the rank reaches the count
@pytest.mark.parametrize("n", [0, 1, 2])
def test_genus_three_degree_one_ranks_are_the_divisor_counts(n):
    assert _divisor_count(3, n) == (3, 5, 9)[n]
    assert rank(gram(3, n, 1, "mbar")) == _divisor_count(3, n)


@pytest.mark.parametrize("n", [0, pytest.param(1, marks=pytest.mark.slow)])
def test_genus_four_degree_one_ranks_are_the_divisor_counts(n):
    assert _divisor_count(4, n) == (4, 6)[n]
    assert rank(gram(4, n, 1, "mbar")) == _divisor_count(4, n)
