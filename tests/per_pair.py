"""The product structure by structure: the reference that the counted
pipeline of ``algebra._product_terms`` is checked against.

Every generic pair structure is listed (``enumerate_generic_pairs``), its
decorations are transported onto the carrier one pair at a time, and its
contribution is expanded on its own.
"""

from __future__ import annotations

from fractions import Fraction

from strataring.algebra import DecoratedGraph, _expand_structure_raw
from strataring.structures import enumerate_generic_pairs


def transport(A, pair, decoG, decoH):
    """The decorations of ``G`` and ``H`` transported onto ``A`` through one
    pair structure, given as the sparse items of
    ``DecoratedGraph._interned``: the psi exponent of every
    ``A``-half-edge, and one ``(fibre, j, f)`` kappa job per kappa_j^f of a
    ``G``- or ``H``-vertex, whose fibre is the tuple of ``A``-vertices over
    it (left jobs first, each side in vertex order)."""
    base_psi = [0] * A.n_halfedges
    jobs = []
    for structure, (psi_items, kappa_items) in ((pair.left, decoG), (pair.right, decoH)):
        beta = structure.beta
        for h, e in psi_items:
            base_psi[beta[h]] += e
        alpha = structure.alpha
        for u, j, f in kappa_items:
            jobs.append((tuple(x for x, w in enumerate(alpha) if w == u), j, f))
    return tuple(base_psi), tuple(jobs)


def pair_contributions(x: DecoratedGraph, y: DecoratedGraph):
    """Per-structure expansions of a product of two decorated graphs.

    Yields ``(carrier, structure, terms)`` triples where ``terms`` is the
    expansion of that one structure's contribution as ``(coeff,
    DecoratedGraph)`` terms, without the ``1/|Aut(carrier)|`` weight;
    summing the weighted terms over all structures reproduces ``multiply``.
    """
    RG, decoG = x._interned
    RH, decoH = y._interned
    for A, pairs in enumerate_generic_pairs(RG, RH):
        for pair in pairs:
            base_psi, jobs = transport(A, pair, decoG, decoH)
            terms = _expand_structure_raw(A, base_psi, jobs, pair.common_edges)
            yield A, pair, [
                (Fraction(coeff), DecoratedGraph(A, psi, kappa)) for coeff, psi, kappa in terms
            ]


def per_pair_tally(A, pairs, decoG, decoH) -> dict:
    """``{value key: [count, jobs]}`` of a list of pair structures on ``A``,
    one pair at a time: keys in the order in which the pairs first meet
    them, each with the jobs of its first pair."""
    tally: dict[tuple, list] = {}
    for pair in pairs:
        psi, jobs = transport(A, pair, decoG, decoH)
        key = (psi, tuple(sorted(jobs)), pair.common_edges)
        seen = tally.get(key)
        if seen is None:
            tally[key] = [1, jobs]
        else:
            seen[0] += 1
    return tally
