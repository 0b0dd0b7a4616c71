"""The product structure by structure: the reference that the counted
pipeline of ``algebra._product_terms`` is checked against.

Every generic pair structure is listed (``enumerate_generic_pairs``), its
decorations are transported onto the carrier one pair at a time, and its
contribution is expanded on its own.

:func:`multiply_per_term` is the reference of the last step of
``multiply``: it takes the canonical form of every raw term on its own,
with no memo of the ``Aut(A)``-orbits.

The structures themselves have a reference too: :func:`g_structures` and
:func:`generic_pairs` build every structure as a ``GStructure`` with a
``beta`` dict straight from the fibre matches, which the engine keeps
only as edge codes and ``alpha`` tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product

from strataring.algebra import DecoratedGraph, FormalSum, _expand_structure_raw, _product_terms
from strataring.structures import (
    GStructure,
    PairStructure,
    _edge_ends,
    _fibre_pass,
    _generic_carriers,
    enumerate_generic_pairs,
)


def _build_with_beta(G, A, record, matches):
    """The structures of one contraction ``record`` of ``A`` with the given
    fibre matches, as ``(key, GStructure)`` in key order, then by ``alpha``:
    every assignment of each ``G``-edge to a covered ``A``-edge between the
    matched fibres, in one orientation (two for a loop or an edge inside a
    fibre), with ``G``-edges of one vertex pair on distinct ``A``-edges.
    The key packs the codes ``2 * A-edge + flipped``, first code highest."""
    comp, _, covered, ends, _ = record
    G_edges, A_edges = G.edges, A.edges
    eG = len(G_edges)
    ends_G = _edge_ends(G)
    width = (2 * len(A_edges)).bit_length()
    found = []
    for match in matches:
        options = []
        for u1, u2 in ends_G:
            opts = []
            for j, (a, b) in zip(covered, ends):
                v1, v2 = match[a], match[b]
                if v1 == u1 and v2 == u2:
                    opts.append(2 * j)
                    if u1 == u2:
                        opts.append(2 * j + 1)
                elif v1 == u2 and v2 == u1:
                    opts.append(2 * j + 1)
            options.append(opts)
        alpha = tuple(match[c] for c in comp)
        for codes in product(*options):
            if len({code >> 1 for code in codes}) == eG:
                key = 0
                for code in codes:
                    key = key << width | code
                found.append((key, alpha, codes))
    found.sort()
    beta0 = {hG: A.leg_of_label[label] for label, hG in G.legs}
    halves = frozenset(h for j in covered for h in A_edges[j])
    oriented = []
    for k1, k2 in A_edges:
        oriented.append((k1, k2))
        oriented.append((k2, k1))
    edge_halves_G = [h for edge in G_edges for h in edge]
    out = []
    for key, alpha, codes in found:
        beta = dict(beta0)
        beta.update(zip(edge_halves_G, chain.from_iterable(map(oriented.__getitem__, codes))))
        out.append((key, GStructure(alpha, beta, halves)))
    return out


def structures_by_mask(G, A) -> dict:
    """``{covered mask: [(key, GStructure)]}`` of every contraction of ``A``
    that carries a structure of ``G``."""
    return {m: _build_with_beta(G, A, c.record, c.matches) for m, c in _fibre_pass(G, A).items()}


def _in_key_order(built, masks):
    return [(s, m) for _, s, m in sorted(
        ((k, s, m) for m in masks for k, s in built[m]), key=lambda item: item[0]
    )]


def g_structures(G, A) -> list:
    """The structures of ``G`` on ``A``, as ``enumerate_g_structures`` lists
    them."""
    built = structures_by_mask(G, A)
    return [s for s, _ in _in_key_order(built, built)]


def generic_pairs(G, H, by_mask=structures_by_mask) -> list:
    """The generic pairs of ``(G, H)``, as ``enumerate_generic_pairs`` lists
    them: on the carriers of the pair search, the pairs of its mask
    partners, in the order of the structures of ``G``, then of ``H``.
    ``by_mask`` gives the structures (a memo of :func:`structures_by_mask`
    may stand in for it)."""
    out = []
    for A, partners in _generic_carriers(G, H):
        built_G, built_H = by_mask(G, A), by_mask(H, A)
        partners = dict(partners)
        pairs = []
        for s, m in _in_key_order(built_G, partners):
            common = dict(partners[m])
            pairs += [PairStructure(s, t, common[n]) for t, n in _in_key_order(built_H, common)]
        out.append((A, pairs))
    return out


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


def multiply_per_term(x: FormalSum, y: FormalSum) -> FormalSum:
    """``multiply`` with one canonical search per raw term: the raw terms of
    ``_product_terms`` enter the result in their order, each a new
    decorated graph keyed by its own search."""
    out = FormalSum(x.g, x.n)
    term_pairs = [(cG * cH, dG, dH) for cG, dG in x.terms.values() for cH, dH in y.terms.values()]
    for A, raw in _product_terms(term_pairs):
        for (psi, kappa), coeff in raw.items():
            out._add(coeff, DecoratedGraph(A, psi, kappa))
    return out
