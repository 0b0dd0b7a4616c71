"""Intersection-pairing matrices, exact ranks, kernels and relation checks.

The Gram matrix pairs the spanning set in codimension ``k`` against the
one in complementary codimension through the evaluation class of the
chosen space.  Ranks and kernels come from one fraction-free (Bareiss)
Gauss-Jordan elimination over the integers, after clearing denominators
row by row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .algebra import (
    DecoratedGraph,
    FormalSum,
    _expand_transported,
    _generic_pairs_interned,
    _sparse,
    _value_tally,
    homogeneous_codim,
)
from .enumeration import decorated_basis, space_admits, top_degree
from .integrals import EvaluationKind, evaluation_kind, hodge_split, kappa_reduce


def kind_for_space(space: str) -> EvaluationKind:
    """The evaluation class of the socle pairing on ``space``."""
    return evaluation_kind(space)


def integrate_product(x: FormalSum, y: FormalSum, kind) -> Fraction:
    """Integral of the product of two sums, fused for speed.

    Equivalent to ``integrate_sum(multiply(x, y), kind)`` but skips the
    canonical merging of product terms.  The integrated expansion of a
    pair structure depends only on its value key: the carrier, the
    decorations transported onto it and the common edges (see
    :func:`_carrier_total`).  Each key is expanded and integrated once per
    call, in a memo that lives only for the call.  A term pair whose
    graphs the space of ``kind`` does not admit is skipped before any
    carrier is built: ct and rt graphs are closed under contraction, so
    none of its carriers is admitted either.
    """
    kind = evaluation_kind(kind)
    space = kind.space
    top = top_degree(space, x.g, x.n)
    # id(carrier) -> (carrier, split, {value key: value}); holding the
    # carrier keeps its id from being reused during the call
    memo: dict[int, tuple] = {}
    total = Fraction(0)
    ys = []
    for cH, dgH in y.terms.values():
        RH, psiH, kappaH = dgH._interned
        if space_admits(RH, space):
            ys.append((cH, dgH.codim, RH, _sparse(psiH, kappaH)))
    for cG, dgG in x.terms.values():
        RG, psiG, kappaG = dgG._interned
        if not space_admits(RG, space):
            continue
        decoG = _sparse(psiG, kappaG)
        for cH, codimH, RH, decoH in ys:
            if dgG.codim + codimH != top:
                continue
            c = cG * cH
            for A, pairs in _generic_pairs_interned(RG, RH):
                entry = memo.get(id(A))
                if entry is None:
                    entry = memo[id(A)] = (A, hodge_split(A, kind), {})
                _, split, values = entry
                if split is None:
                    continue
                value = _carrier_total(A, split, pairs, decoG, decoH, values)
                if value:
                    total += c * value / A.aut_order
    return total


def _carrier_total(A, split, pairs, decoG, decoH, values) -> Fraction:
    """Sum over ``pairs`` of the integrated expansion of each structure on
    ``A``, without the ``1/|Aut A|`` weight.

    The structures are counted per value key (:func:`_value_tally`);
    ``values`` maps the keys on ``A`` to their values and is filled on a
    miss.  ``split`` is ``hodge_split(A, kind)``.
    """
    total = Fraction(0)
    for key, (count, _) in _value_tally(A, pairs, decoG, decoH).items():
        value = values.get(key)
        if value is None:
            value = values[key] = _integrated_expansion(A, split, *key)
        if value:
            total += value * count
    return total


def _integrated_expansion(A, split, base_psi, kappa_jobs, common_edges) -> Fraction:
    """Integral of the expansion of transported decorations on ``A``: the
    product of the vertex integrals of each term, summed."""
    halfedges_at = A.halfedges_at
    total = Fraction(0)
    for coeff, psi, kappa in _expand_transported(A, base_psi, kappa_jobs, common_edges):
        value = coeff
        for v, (gv, vkind, vtop) in enumerate(split):
            psis = tuple(psi[h] for h in halfedges_at[v])
            kap = tuple(j for j, f in kappa[v] for _ in range(f))
            if sum(psis) + sum(kap) != vtop:
                value = 0
                break
            factor = kappa_reduce(gv, psis, kap, vkind)
            if factor == 0:
                value = 0
                break
            # the Fraction on the left: ``int * Fraction`` goes through the
            # slow ``numbers.Rational`` check
            value = factor * value
        if value:
            total += value
    return total


@dataclass
class GramMatrix:
    g: int
    n: int
    k: int
    space: str
    rows: tuple[DecoratedGraph, ...]
    cols: tuple[DecoratedGraph, ...]
    entries: list[list[Fraction]] = field(repr=False)

    def scaled(self, factor) -> list[list[Fraction]]:
        factor = Fraction(factor)
        return [[factor * x for x in row] for row in self.entries]


def pairing_value(a: DecoratedGraph, b: DecoratedGraph, space: str) -> Fraction:
    return integrate_product(
        FormalSum.unit(a), FormalSum.unit(b), kind_for_space(space)
    )


# a Gram fill with more pairings than this warns before it starts; the
# 490 x 490 fill of gram(0, 7, 2, "mbar") runs for many minutes
GRAM_WARN_PAIRINGS = 50_000


def gram(g: int, n: int, k: int, space: str) -> GramMatrix:
    """Exact pairing matrix of the codimension-``k`` spanning set against
    the complementary one.  Warns (``RuntimeWarning``) before filling more
    than ``GRAM_WARN_PAIRINGS`` entries.  In the middle codimension the
    rows are the columns and the pairing commutes, so only the upper
    triangle is computed."""
    top = top_degree(space, g, n)
    if not (0 <= k <= top):
        raise ValueError(f"codimension {k} outside 0..{top}")
    rows = decorated_basis(g, n, k, space)
    cols = rows if 2 * k == top else decorated_basis(g, n, top - k, space)
    size = len(rows) * len(cols)
    if size > GRAM_WARN_PAIRINGS:
        warnings.warn(
            f"gram({g}, {n}, {k}, {space!r}) fills {size} pairings; this may take very long",
            RuntimeWarning,
            stacklevel=2,
        )
    if cols is rows:
        entries = [[None] * len(cols) for _ in rows]
        for i, r in enumerate(rows):
            for j in range(i, len(cols)):
                entries[i][j] = entries[j][i] = pairing_value(r, cols[j], space)
    else:
        entries = [[pairing_value(r, c, space) for c in cols] for r in rows]
    return GramMatrix(g, n, k, space, rows, cols, entries)


# -- exact linear algebra -----------------------------------------------


def _integer_rows(entries) -> list[list[int]]:
    out = []
    for row in entries:
        row = [Fraction(x) for x in row]
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) for x in row])
    return out


def _echelon(entries) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination over the integers.

    Returns the pivot columns and one integer row per pivot, in reduced
    echelon form scaled by the last pivot ``p``: row ``i`` holds ``p`` in
    column ``pivots[i]`` and zero in the other pivot columns.  Every
    update ``(p * a - f * b) // prev`` divides exactly (Bareiss): the
    entries stay minors of the integer matrix.
    """
    m = _integer_rows(entries)
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot_row = m[r]
        p = pivot_row[c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = p
        pivots.append(c)
    return pivots, m[: len(pivots)]


def matrix_rank(entries) -> int:
    """Rank over the rationals by fraction-free elimination."""
    return len(_echelon(entries)[0])


def rank(m: GramMatrix) -> int:
    return matrix_rank(m.entries)


def kernel_basis(m: GramMatrix) -> list[list[Fraction]]:
    """Basis of the row kernel: vectors ``v`` (indexed like ``m.rows``)
    with ``v . entries == 0``, denominators cleared to primitive integer
    vectors.  These are the candidate relations among the row classes."""
    return null_space([list(col) for col in zip(*m.entries)]) if m.entries else []


def null_space(entries) -> list[list[Fraction]]:
    """Primitive integer basis of ``{x : entries . x = 0}``, one vector per
    free column with a positive entry there."""
    if not entries:
        return []
    pivots, rows = _echelon(entries)
    # every row is scaled by the last pivot ``p``: ``p`` in a free column
    # ``c`` balances ``-row[c]`` in each pivot column
    p = rows[-1][pivots[-1]] if pivots else 1
    sign = 1 if p > 0 else -1
    n_cols = len(entries[0])
    basis = []
    for c in range(n_cols):
        if c in pivots:
            continue
        vec = [0] * n_cols
        vec[c] = p
        for pc, row in zip(pivots, rows):
            vec[pc] = -row[c]
        g = gcd(*vec)
        basis.append([Fraction(sign * x // g) for x in vec])
    return basis


def rank_table(g: int, n: int, space: str) -> list[int]:
    """Pairing rank in every codimension ``0..top``; symmetric halves are
    computed once (the two Gram matrices are transposes)."""
    top = top_degree(space, g, n)
    ranks = [0] * (top + 1)
    for k in range(top // 2 + 1):
        r = rank(gram(g, n, k, space))
        ranks[k] = r
        ranks[top - k] = r
    return ranks


@dataclass
class RelationReport:
    g: int
    n: int
    space: str
    codim: int
    pairings: list[tuple[DecoratedGraph, Fraction]]

    @property
    def passed(self) -> bool:
        return all(v == 0 for _, v in self.pairings)

    def failures(self):
        return [(d, v) for d, v in self.pairings if v != 0]


def verify_relation(r: FormalSum, g: int, n: int, space: str) -> RelationReport:
    """Pair a homogeneous candidate relation against the complementary
    spanning set; it passes iff every pairing is exactly zero."""
    if (r.g, r.n) != (g, n):
        from .algebra import SpaceMismatch

        raise SpaceMismatch("relation lives on a different moduli space")
    top = top_degree(space, g, n)
    if len(r) == 0:
        return RelationReport(g, n, space, 0, [])
    k = homogeneous_codim(r)
    if not (0 <= k <= top):
        from .algebra import DegreeMismatch

        raise DegreeMismatch(f"codimension {k} outside 0..{top}")
    kind = kind_for_space(space)
    pairings = []
    for b in decorated_basis(g, n, top - k, space):
        value = integrate_product(r, FormalSum.unit(b), kind)
        pairings.append((b, value))
    return RelationReport(g, n, space, k, pairings)
