"""Intersection-pairing matrices, exact ranks, kernels and relation checks.

The Gram matrix pairs the spanning set in codimension ``k`` against the
one in complementary codimension through the evaluation class of the
chosen space.  Ranks and kernels come from one fraction-free (Bareiss)
Gauss-Jordan elimination over the integers, after clearing denominators
row by row.  :func:`gram`, :func:`rank_table` and :func:`verify_relation`
empty the memo stores of layers 2 and 3 when they return
(:mod:`strataring.stores`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .algebra import (
    DecoratedGraph,
    DegreeMismatch,
    FormalSum,
    SpaceMismatch,
    _product_terms,
    homogeneous_codim,
)
from .enumeration import decorated_basis, space_admits, top_degree
from .integrals import evaluation_kind, hodge_split, kappa_reduce
from .stores import clearing

# (id(carrier), evaluation kind) -> (carrier, its hodge_split); holding the
# carrier keeps its id from being reused while the entry lives
_split_cache: dict[tuple, tuple] = {}


def _carrier_split(A, kind):
    """``hodge_split(A, kind)``, taken once per carrier and kind."""
    key = (id(A), kind)
    hit = _split_cache.get(key)
    if hit is None:
        hit = _split_cache[key] = (A, hodge_split(A, kind))
    return hit[1]


def integrate_product(x: FormalSum, y: FormalSum, kind) -> Fraction:
    """Integral of the product of two sums, fused for speed.

    Equivalent to ``integrate_sum(multiply(x, y), kind)`` but skips the
    canonical merging of product terms: the raw terms of each carrier
    come from the pipeline of ``multiply`` (``algebra._product_terms``),
    and each distinct raw decoration is integrated once, vertex by
    vertex.  The pipeline builds only the raw terms whose decoration at
    every vertex has the top degree that ``hodge_split`` gives it, taken
    once per carrier and kind (:func:`_carrier_split`), since no other
    term integrates to a nonzero value;
    the same split then names the class each vertex is integrated
    against.  Only the term pairs of complementary codimension whose
    graphs the space of ``kind`` admits are fed to it: ct and rt graphs
    are closed under contraction, so no carrier of another graph is
    admitted.  The carriers of two admitted graphs lie in the narrowest
    space that holds both, so the space admits every one of them and
    ``hodge_split`` splits the class over its vertices.  Sums on
    different ``(g, n)`` raise ``SpaceMismatch``, as in ``multiply``.
    """
    if (x.g, x.n) != (y.g, y.n):
        raise SpaceMismatch("factors live on different moduli spaces")
    kind = evaluation_kind(kind)
    space = kind.space
    top = top_degree(space, x.g, x.n)
    xs = [(c, d) for c, d in x.terms.values() if space_admits(d.graph, space)]
    ys = [(c, d) for c, d in y.terms.values() if space_admits(d.graph, space)]
    term_pairs = (
        (cG * cH, dG, dH) for cG, dG in xs for cH, dH in ys if dG.codim + dH.codim == top
    )

    def top_degrees(A):
        return [vtop for _, _, vtop in _carrier_split(A, kind)]

    total = Fraction(0)
    for A, raw in _product_terms(term_pairs, top_degrees):
        split = _carrier_split(A, kind)
        halfedges_at = A.halfedges_at
        for (psi, kappa), value in raw.items():
            for v, (gv, vkind, _) in enumerate(split):
                psis = tuple(psi[h] for h in halfedges_at[v])
                kap = tuple(j for j, f in kappa[v] for _ in range(f))
                factor = kappa_reduce(gv, psis, kap, vkind)
                if factor == 0:
                    break
                value *= factor
            else:
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
    return integrate_product(FormalSum.unit(a), FormalSum.unit(b), space)


# a Gram fill with more pairings than this warns before it starts; the
# 120,295-pairing triangle of gram(0, 7, 2, "mbar") takes about 11 s from
# cold caches on a shared 2-vCPU host; a fill grows with the square of the
# spanning set, and gram(0, 8, 1, "mbar") has over two million pairings
GRAM_WARN_PAIRINGS = 50_000


@clearing
def gram(g: int, n: int, k: int, space: str) -> GramMatrix:
    """Exact pairing matrix of the codimension-``k`` spanning set against
    the complementary one.  In the middle codimension the rows are the
    columns and the pairing commutes, so only the upper triangle is
    computed.  Warns (``RuntimeWarning``) before computing more than
    ``GRAM_WARN_PAIRINGS`` pairings."""
    top = top_degree(space, g, n)
    if not (0 <= k <= top):
        raise ValueError(f"codimension {k} outside 0..{top}")
    rows = decorated_basis(g, n, k, space)
    cols = rows if 2 * k == top else decorated_basis(g, n, top - k, space)
    size = len(rows) * (len(rows) + 1) // 2 if cols is rows else len(rows) * len(cols)
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
    vectors.  These are the candidate relations among the row classes.
    With no columns every row vector pairs to zero, so the basis is the
    unit vectors."""
    if not m.cols:
        return [[Fraction(int(i == j)) for j in range(len(m.rows))] for i in range(len(m.rows))]
    return null_space([list(col) for col in zip(*m.entries)])


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


@clearing
def rank_table(g: int, n: int, space: str) -> list[int]:
    """Pairing rank in every codimension ``0..top``; symmetric halves are
    computed once (the two Gram matrices are transposes).  An unstable
    ``(g, n)`` raises ``ValueError`` (through :func:`top_degree`), and so
    does a rational-tails space of genus below 2 (through
    :func:`decorated_basis`)."""
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


@clearing
def verify_relation(r: FormalSum, g: int, n: int, space: str) -> RelationReport:
    """Pair a homogeneous candidate relation against the complementary
    spanning set; it passes iff every pairing is exactly zero."""
    if (r.g, r.n) != (g, n):
        raise SpaceMismatch("relation lives on a different moduli space")
    top = top_degree(space, g, n)
    if len(r) == 0:
        return RelationReport(g, n, space, 0, [])
    k = homogeneous_codim(r)
    if not (0 <= k <= top):
        raise DegreeMismatch(f"codimension {k} outside 0..{top}")
    pairings = [
        (b, integrate_product(r, FormalSum.unit(b), space))
        for b in decorated_basis(g, n, top - k, space)
    ]
    return RelationReport(g, n, space, k, pairings)
