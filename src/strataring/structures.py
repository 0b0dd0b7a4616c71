"""Identifications of a graph as a specialization of another.

A structure of ``G`` on ``A`` is a triple ``(alpha, beta, gamma)``:
``alpha`` maps the vertices of ``A`` onto those of ``G``, ``beta`` embeds
the half-edges of ``G`` into those of ``A`` compatibly with involutions
and leg labels, and ``gamma`` (determined by ``alpha``) sends the
remaining half-edges to the vertex they contract into.  The fiber of each
``G``-vertex must be a connected subgraph of the right genus.

The search chooses the contracted edges first: every set of
``eA - eG`` edges of ``A`` whose components (the fibres) have the genera,
edge degrees and loop counts of the ``G``-vertices, then every matching
of fibres to ``G``-vertices that respects the legs and the number of
edges between each pair of vertices, then every bijection of edges within
each vertex pair.  The fibres of each carrier are computed once per
number of contracted edges.

A pair of structures of ``G`` and ``H`` on ``A`` is generic exactly when
their contracted edge sets are disjoint, because each structure covers
precisely the edges it does not contract.  Pair search therefore pairs
the covered-edge masks of the contractions that pass the fibre matching
and returns these mask partners: every structure with mask ``m`` pairs
with every one with a partner mask ``n``, with the common edges of
``m & n``.  Structures are built once per ``(G, A, mask)`` and only for
the masks that have a partner; the product pipeline counts pairs from
them side by side, and :func:`enumerate_generic_pairs` lists the pairs.
The carriers tried are the graphs that contract onto both ``G`` and
``H``, read from the refinement relation that the graph sweep keeps.

Structures are enumerated raw (no quotient by ``Aut(A)``); the action of
``Aut(A)`` on generic pair structures is free, a fact the multiplication
routine relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from operator import itemgetter

from .graphs import StableGraph


class LabelMismatch(ValueError):
    pass


class GenusMismatch(ValueError):
    pass


@dataclass(frozen=True)
class GStructure:
    """One identification of ``A`` as a specialization of ``G``."""

    alpha: tuple[int, ...]  # A-vertex -> G-vertex
    beta: dict[int, int]  # G-half-edge -> A-half-edge
    edge_halves: frozenset[int]  # image of the non-leg half-edges


@dataclass(frozen=True)
class PairStructure:
    """A simultaneous (G, H)-structure on one graph, with its common edges."""

    left: GStructure
    right: GStructure
    common_edges: tuple[tuple[int, int], ...]


def _check_compatible(G: StableGraph, A: StableGraph) -> None:
    if set(G.leg_of_label) != set(A.leg_of_label):
        raise LabelMismatch("leg label sets differ")
    if G.genus != A.genus:
        raise GenusMismatch(f"total genus {G.genus} != {A.genus}")


def enumerate_g_structures(G: StableGraph, A: StableGraph) -> list[GStructure]:
    """All raw structures of ``G`` on ``A``, sorted by ``(A-edge index,
    orientation)`` per ``G``-edge; ``beta`` lists the legs, then the
    ``G``-edges in order."""
    _check_compatible(G, A)
    entry = (G, A, _fibre_pass(G, A))
    return [s for s, _ in _in_order(entry, entry[2])]


def _fibre_pass(G: StableGraph, A: StableGraph) -> dict[int, _Contraction]:
    """The contractions of ``A`` that carry a structure of ``G``, keyed by
    the mask of their covered edges.

    Each structure contracts a set ``S`` of ``eA - eG`` edges of ``A`` and
    covers the rest.  ``S`` is chosen first: its components, the fibres,
    must be ``|V(G)|`` subgraphs with the genera, edge degrees and loop
    counts of the ``G``-vertices.  Then the fibres are matched to
    ``G``-vertices, consistently with the legs and so that every pair of
    ``G``-vertices (a vertex with itself for loops) is joined by as many
    covered edges as ``G``-edges.  :func:`_build` turns the matches of one
    contraction into structures.
    """
    eG, eA = G.n_edges, A.n_edges
    if eG > eA or G.n_vertices > A.n_vertices:
        return {}
    # the leg labels pin alpha at the leg vertices
    pins: dict[int, int] = {}
    for label, hG in G.legs:
        u, x = G.vertex_of[hG], A.vertex_of[A.leg_of_label[label]]
        if pins.setdefault(x, u) != u:
            return {}
    ends_G = _edge_ends(G)
    sig_G = _vertex_signatures(G.genera, ends_G)
    records = _contractions(A, eA - eG).get(tuple(sorted(sig_G)))
    if not records:
        return {}
    pairs_G = sorted((u, w) if u <= w else (w, u) for u, w in ends_G)
    class_G: dict[tuple, list[int]] = {}
    for u, sig in enumerate(sig_G):
        class_G.setdefault(sig, []).append(u)
    out = {}
    for record in records:
        comp, sigs, covered, ends, mask = record
        matches = [
            match
            for match in _fibre_matches(comp, sigs, pins.items(), sig_G, class_G)
            if sorted(
                (match[a], match[b]) if match[a] <= match[b] else (match[b], match[a])
                for a, b in ends
            ) == pairs_G
        ]
        if matches:
            out[mask] = _Contraction(record, matches)
    return out


def _build(G: StableGraph, A: StableGraph, record, matches) -> tuple[list, list]:
    """The structures of one contraction ``record`` of ``A`` with the given
    fibre matches, sorted, with their sort keys.  A structure has one code
    ``2 * A-edge + flipped`` per ``G``-edge; its key packs the codes into
    one int, first code highest, so that keys order like code tuples.
    Structures with equal codes come from one contraction and are ordered
    by ``alpha``.

    Each match gives the product of the edge bijections within the vertex
    pairs: an edge between two vertices has one orientation, a loop or an
    edge inside one fibre two.
    """
    comp, _, covered, ends, _ = record
    G_edges, A_edges = G.edges, A.edges
    eG = len(G_edges)
    ends_G = _edge_ends(G)
    one_edge_per_pair = len({(u, w) if u <= w else (w, u) for u, w in ends_G}) == eG
    width = (2 * len(A_edges)).bit_length()
    found = []
    for match in matches:
        # the covered A-edges each G-edge can go to, as codes
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
            # G-edges joining one vertex pair share their options
            if one_edge_per_pair or len({code >> 1 for code in codes}) == eG:
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
    structures = []
    for _, alpha, codes in found:
        beta = dict(beta0)
        beta.update(zip(edge_halves_G, chain.from_iterable(map(oriented.__getitem__, codes))))
        structures.append(GStructure(alpha, beta, halves))
    return [key for key, _, _ in found], structures


class _Contraction:
    """A contraction of ``A`` that carries structures of ``G``: its record
    from :func:`_contractions` and its fibre matches until the structures
    are built, then the structures and their sort keys."""

    __slots__ = ("record", "matches", "keys", "structures")

    def __init__(self, record: tuple, matches: list):
        self.record, self.matches = record, matches
        self.keys = self.structures = None

    def build(self, G: StableGraph, A: StableGraph) -> None:
        if self.structures is None:
            self.keys, self.structures = _build(G, A, self.record, self.matches)
            self.record = self.matches = None


def _edge_ends(G: StableGraph) -> list[tuple[int, int]]:
    return [(G.vertex_of[h1], G.vertex_of[h2]) for h1, h2 in G.edges]


def _vertex_signatures(genera, ends) -> list[tuple[int, int, int]]:
    """``(genus, edge degree, loops)`` of each vertex of a graph, or of each
    fibre of a contraction, given the vertex pair at the ends of each edge."""
    degree = [0] * len(genera)
    loops = [0] * len(genera)
    for a, b in ends:
        degree[a] += 1
        degree[b] += 1
        if a == b:
            loops[a] += 1
    return [(g, d, l) for g, d, l in zip(genera, degree, loops)]


def _fibre_matches(comp, sigs, pins, sig_G, class_G) -> list[list[int]]:
    """Every bijection of fibres onto ``G``-vertices of the same signature
    that sends the fibre of ``x`` to ``u`` for each leg pin ``(x, u)``."""
    match = [-1] * len(sigs)
    for x, u in pins:
        c = comp[x]
        if match[c] < 0 and sigs[c] == sig_G[u]:
            match[c] = u
        elif match[c] != u:
            return []
    pinned = [u for u in match if u >= 0]
    if len(set(pinned)) < len(pinned):
        return []  # two fibres pinned to one vertex
    free: dict[tuple, list[int]] = {}
    for c, u in enumerate(match):
        if u < 0:
            free.setdefault(sigs[c], []).append(c)
    if not free:
        return [match]
    slots = []
    pools = []
    for sig, cs in free.items():
        slots.extend(cs)
        pools.append(permutations([u for u in class_G[sig] if u not in pinned]))
    out = []
    for choice in product(*pools):
        full = list(match)
        for c, u in zip(slots, chain.from_iterable(choice)):
            full[c] = u
        out.append(full)
    return out


# (genera, incidence, involution, contracted edge count) -> contractions
_contraction_cache: dict[tuple, dict[tuple, list[tuple]]] = {}


def _contractions(A: StableGraph, d: int) -> dict[tuple, list[tuple]]:
    """Every way to contract ``d`` edges of ``A``, grouped by the sorted
    signatures of its fibres (see :func:`_vertex_signatures`).  Each is
    ``(fibre of each A-vertex, fibre signatures, covered A-edges, fibres at
    the ends of each covered edge, mask of the covered A-edges)``, in
    ``itertools.combinations`` order of the contracted edges."""
    key = (A.genera, A.vertex_of, A.partner, d)
    table = _contraction_cache.get(key)
    if table is not None:
        return table
    nA, eA = A.n_vertices, A.n_edges
    ends_A = [(A.vertex_of[h1], A.vertex_of[h2]) for h1, h2 in A.edges]
    genera_A = A.genera
    table = {}
    for S in combinations(range(eA), d):
        parent = list(range(nA))
        for j in S:
            x, y = ends_A[j]
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                parent[x] = y
        roots: dict[int, int] = {}
        comp = []
        fibre_genera = []
        for x in range(nA):
            r = x
            while parent[r] != r:
                r = parent[r]
            c = roots.get(r)
            if c is None:
                c = roots[r] = len(fibre_genera)
                fibre_genera.append(1)
            comp.append(c)
            fibre_genera[c] += genera_A[x] - 1
        for j in S:
            fibre_genera[comp[ends_A[j][0]]] += 1
        contracted = set(S)
        covered = tuple(j for j in range(eA) if j not in contracted)
        ends = tuple((comp[ends_A[j][0]], comp[ends_A[j][1]]) for j in covered)
        sigs = tuple(_vertex_signatures(fibre_genera, ends))
        mask = sum(1 << j for j in covered)
        table.setdefault(tuple(sorted(sigs)), []).append((tuple(comp), sigs, covered, ends, mask))
    _contraction_cache[key] = table
    return table


def enumerate_generic_pairs(
    G: StableGraph, H: StableGraph
) -> list[tuple[StableGraph, list[PairStructure]]]:
    """Generic simultaneous structures of ``(G, H)``, grouped by the
    isomorphism class of the carrying graph: one representative graph per
    class (see :func:`_generic_carriers`) with all raw generic pair
    structures on it (every edge covered by at least one of the two
    half-edge embeddings), ordered by the structure of ``G``, then by that
    of ``H``; a pair's common edges are those inside both images."""
    return [(A, _pairs_from(G, H, A, partners)) for A, partners in _generic_carriers(G, H)]


def _pairs_from(G: StableGraph, H: StableGraph, A: StableGraph, partners) -> list[PairStructure]:
    """The pair structures on ``A`` that the mask partners of :func:`_pairs_on`
    stand for, in the order of the structures of ``G``, then of ``H``."""
    on_H = _on(H, A)
    found = {}  # G-mask -> [(t, common edges)], in the order of the H-structures
    for m, ns in partners:
        common = dict(ns)
        found[m] = [(t, common[n]) for t, n in _in_order(on_H, common)]
    return [PairStructure(s, t, c) for s, m in _in_order(_on(G, A), found) for t, c in found[m]]


def _generic_carriers(G: StableGraph, H: StableGraph) -> list[tuple[StableGraph, list]]:
    """The carriers of generic pairs of ``(G, H)``, one per isomorphism
    class, with their mask partners (:func:`_pairs_on`).

    Carriers are taken from the narrowest of rt, ct and mbar that admits
    both ``G`` and ``H``; no generic carrier lies outside it.  For two
    trees: the uncontracted edges of a cycle of a carrier form a closed
    walk in each tree that uses no edge twice, so the cycle is left
    uncovered.  For two rt graphs: two positive-genus vertices of a tree
    carrier lie in the fibre of the one positive vertex on each side, so
    the path between them is left uncovered.

    Within that space the graphs above both ``G`` and ``H`` in the
    one-edge refinement relation of the sweep are tried
    (:func:`enumeration.common_refinements`); they are all the carriers
    with a structure of each.  A structure of ``G`` on ``A`` exists
    exactly when ``G`` is ``A`` with some edges contracted, which factors
    into single-edge contractions through graphs of the space (it is
    closed under contraction), and the sweep meets a graph of every class
    ``Y`` with ``Y/e`` isomorphic to a graph it keeps.  So ``A`` lies above
    ``G``; conversely, every graph above ``G`` contracts onto it.  The
    carriers, their order and their pairs are those of a scan over every
    graph of the space in the edge range.
    """
    _check_compatible(G, H)
    from .enumeration import common_refinements, space_admits

    space = next(
        s for s in ("rt", "ct", "mbar") if space_admits(G, s) and space_admits(H, s)
    )
    out = []
    for A in common_refinements(G, H, space):
        partners = _pairs_on(G, H, A)
        if partners:
            out.append((A, partners))
    return out


# keyed by object identity: callers pass interned representatives and the
# memoized generator's instances, both of which live for the process.
# Each entry is (G, A, the result of _fibre_pass(G, A)).
_structure_cache: dict[tuple[int, int], tuple] = {}


def _on(G: StableGraph, A: StableGraph) -> tuple:
    key = (id(G), id(A))
    hit = _structure_cache.get(key)
    if hit is None:
        hit = _structure_cache[key] = (G, A, _fibre_pass(G, A))
    return hit


def _contraction(G: StableGraph, A: StableGraph, m: int) -> _Contraction:
    """The contraction onto ``G`` with covered mask ``m``, its structures built."""
    c = _on(G, A)[2][m]
    c.build(G, A)
    return c


def _in_order(entry: tuple, masks) -> list[tuple]:
    """``(structure, mask)`` for each structure of the contractions
    ``masks`` of an entry ``(G, A, contractions by mask)``, in the order of
    their sort keys; a contraction builds its structures on first use."""
    G, A, table = entry
    for m in masks:
        table[m].build(G, A)
    merged = sorted(
        ((k, s, m) for m in masks for k, s in zip(table[m].keys, table[m].structures)),
        key=itemgetter(0),
    )
    return [(s, m) for _, s, m in merged]


def _pairs_on(G: StableGraph, H: StableGraph, A: StableGraph) -> list[tuple[int, list]]:
    """The generic pairs on ``A`` as mask partners ``[(m, [(n, common
    edges)])]``: each covered-edge mask ``m`` of ``G`` on ``A`` that pairs
    with some, with the masks ``n`` of ``H`` it pairs with and the edges of
    ``m & n``.  A structure contracts a set ``S`` of edges and maps the
    ``G``-edges bijectively onto the rest, so a pair covers every edge
    exactly when ``S_G`` and ``S_H`` are disjoint: when ``m | n`` is full."""
    table_G = _on(G, A)[2]
    if not table_G:
        return []
    table_H, full = _on(H, A)[2], (1 << A.n_edges) - 1
    partners = []
    for m in table_G:
        ns = [
            (n, tuple(e for j, e in enumerate(A.edges) if (m & n) >> j & 1))
            for n in table_H
            if m | n == full
        ]
        if ns:
            partners.append((m, ns))
    return partners
