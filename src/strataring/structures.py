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

The engine keeps structures in a compact form (:class:`_Entry`): per
contraction, the sorted int keys that pack one code ``2 * A-edge +
flipped`` per ``G``-edge, and per structure its fibres, the tuple of
``A``-vertices over each ``G``-vertex, shared by the structures of one
fibre match.  The keys and fibres determine ``beta`` and ``alpha``.
:class:`GStructure` and :class:`PairStructure` objects are built from
them only by the public :func:`enumerate_g_structures` and
:func:`enumerate_generic_pairs`.  The stores of this module belong to
:mod:`strataring.stores`, which empties them when a Gram fill, a rank
table or a relation check returns.

Structures are enumerated raw (no quotient by ``Aut(A)``); the action of
``Aut(A)`` on generic pair structures is free, a fact the multiplication
routine relies on.
"""

from __future__ import annotations

from array import array
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
    """One identification of ``A`` as a specialization of ``G``, as the
    public listings give it.  The engine never builds one: it keeps each
    structure as an edge-code key and its fibres (see :class:`_Entry`)."""

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
    entry = _Entry(G, A, _fibre_pass(G, A))
    built = {m: entry.g_structures(m) for m in entry.contractions}
    return [s for s, _ in _in_order(built, built)]


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
    fibre matches, sorted, as their keys and their fibres.  A structure has
    one code ``2 * A-edge + flipped`` per ``G``-edge; its key packs the
    codes into one int, first code highest, so that keys order like code
    tuples.  Structures with equal codes come from one contraction and are
    ordered by ``alpha``.  The fibres of a structure, the tuple of
    ``A``-vertices over each ``G``-vertex, say what ``alpha`` says; the
    structures of one match share them.

    Each match gives the product of the edge bijections within the vertex
    pairs: an edge between two vertices has one orientation, a loop or an
    edge inside one fibre two.
    """
    comp, _, covered, ends, _ = record
    eG = G.n_edges
    ends_G = _edge_ends(G)
    one_edge_per_pair = len({(u, w) if u <= w else (w, u) for u, w in ends_G}) == eG
    width = _code_width(A)
    members = [[] for _ in matches[0]]  # the A-vertices of each fibre
    for x, c in enumerate(comp):
        members[c].append(x)
    members = [tuple(xs) for xs in members]
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
        fibres = [()] * len(match)
        for c, w in enumerate(match):
            fibres[w] = members[c]
        fibres = tuple(fibres)
        for codes in product(*options):
            # G-edges joining one vertex pair share their options
            if one_edge_per_pair or len({code >> 1 for code in codes}) == eG:
                key = 0
                for code in codes:
                    key = key << width | code
                found.append((key, alpha, fibres))
    found.sort()
    keys = [key for key, _, _ in found]
    try:
        keys = array("Q", keys)  # 8 bytes a key, when every key fits
    except OverflowError:
        pass
    return keys, [fibres for _, _, fibres in found]


def _code_width(A: StableGraph) -> int:
    """The bits of one edge code ``2 * A-edge + flipped`` in a key."""
    return (2 * A.n_edges).bit_length()


class _Contraction:
    """A contraction of ``A`` that carries structures of ``G``: its record
    from :func:`_contractions` and its fibre matches until the structures
    are built, then the sorted keys and the fibres of the structures (see
    :func:`_build`)."""

    __slots__ = ("record", "matches", "keys", "fibres")

    def __init__(self, record: tuple, matches: list):
        self.record, self.matches = record, matches
        self.keys = self.fibres = None


class _Entry:
    """The structures of ``G`` on ``A``: the contractions that carry them,
    keyed by covered mask (:func:`_fibre_pass`), each built on first use,
    and where a structure sends each half-edge of ``G``.

    ``where[h]`` is one small int.  For a leg it is ``~x``: the leg goes to
    the ``A``-leg ``x`` of its label.  For a half of a ``G``-edge it is
    ``shift << 1 | side``, ``side`` 0 for the edge's first half: the edge's
    code is ``key >> shift & low``, and the ``A``-half-edge it sends ``h``
    to is ``halves[code ^ side]``, ``halves`` being the half-edges of the
    edges of ``A`` in order."""

    __slots__ = ("G", "A", "contractions", "where", "low", "halves")

    def __init__(self, G: StableGraph, A: StableGraph, contractions: dict):
        self.G, self.A, self.contractions = G, A, contractions
        if not contractions:
            self.where = self.low = self.halves = None
            return
        width = _code_width(A)
        where = [0] * G.n_halfedges
        for label, h in G.legs:
            where[h] = ~A.leg_of_label[label]
        last = G.n_edges - 1
        for i, (h1, h2) in enumerate(G.edges):
            where[h1] = width * (last - i) << 1
            where[h2] = width * (last - i) << 1 | 1
        self.where = tuple(where)
        self.low = (1 << width) - 1
        self.halves = tuple(h for edge in A.edges for h in edge)

    def built(self, m: int) -> _Contraction:
        """The contraction with covered mask ``m``, its structures built."""
        c = self.contractions[m]
        if c.keys is None:
            c.keys, c.fibres = _build(self.G, self.A, c.record, c.matches)
            c.record = c.matches = None
        return c

    def g_structures(self, m: int) -> list[tuple[int, GStructure]]:
        """``(key, structure)`` for each structure of the contraction ``m``,
        in order, as :class:`GStructure` objects: ``beta`` lists the legs,
        then the halves of the ``G``-edges in order."""
        c = self.built(m)
        G, where, low, halves = self.G, self.where, self.low, self.halves
        order = [h for _, h in G.legs] + [h for edge in G.edges for h in edge]
        edge_halves = frozenset(h for j, edge in enumerate(self.A.edges) if m >> j & 1 for h in edge)
        out = []
        last = None
        for key, fibres in zip(c.keys, c.fibres):
            if fibres is not last:
                last = fibres
                alpha = [0] * self.A.n_vertices
                for w, fibre in enumerate(fibres):
                    for x in fibre:
                        alpha[x] = w
                alpha = tuple(alpha)
            beta = {}
            for h in order:
                w = where[h]
                beta[h] = ~w if w < 0 else halves[(key >> (w >> 1) & low) ^ (w & 1)]
            out.append((key, GStructure(alpha, beta, edge_halves)))
        return out


def _automorphisms(A: StableGraph) -> list[tuple[tuple, tuple]]:
    """The automorphisms of ``A`` as ``(half-edge map, vertex map)`` tuples,
    read from the structures of ``A`` on itself: with no edge contracted,
    a structure's ``beta`` is a permutation of the half-edges, and the
    fibre over each vertex is one vertex, its image.  They come in the
    order of the structures, so the identity, whose key is smallest, comes
    first; there are ``A.aut_order`` of them."""
    entry = _on(A, A)
    c = entry.built((1 << A.n_edges) - 1)
    where, low, halves = entry.where, entry.low, entry.halves
    out = []
    for key, fibres in zip(c.keys, c.fibres):
        hmap = tuple(~w if w < 0 else halves[(key >> (w >> 1) & low) ^ (w & 1)] for w in where)
        out.append((hmap, tuple(x for (x,) in fibres)))
    return out


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
    ``itertools.combinations`` order of the contracted edges.  Equal tuples
    within the table are one object."""
    key = (A.genera, A.vertex_of, A.partner, d)
    table = _contraction_cache.get(key)
    if table is not None:
        return table
    nA, eA = A.n_vertices, A.n_edges
    ends_A = [(A.vertex_of[h1], A.vertex_of[h2]) for h1, h2 in A.edges]
    genera_A = A.genera
    table = {}
    shared: dict[tuple, tuple] = {}
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
        ends = []
        for j in covered:
            pair = (comp[ends_A[j][0]], comp[ends_A[j][1]])
            ends.append(shared.setdefault(pair, pair))
        sigs = [shared.setdefault(sig, sig) for sig in _vertex_signatures(fibre_genera, ends)]
        comp, ends, sigs = (shared.setdefault(t, t) for t in map(tuple, (comp, ends, sigs)))
        mask = sum(1 << j for j in covered)
        table.setdefault(tuple(sorted(sigs)), []).append((comp, sigs, covered, ends, mask))
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
    stand for, in the order of the structures of ``G``, then of ``H``.  Each
    structure is built once, and shared by the pairs it lies in."""
    on_G, on_H = _on(G, A), _on(H, A)
    built_G: dict[int, list] = {}
    built_H = built_G if on_H is on_G else {}
    found = {}  # G-mask -> [(t, common edges)], in the order of the H-structures
    for m, ns in partners:
        common = dict(ns)
        for n in common:
            if n not in built_H:
                built_H[n] = on_H.g_structures(n)
        found[m] = [(t, common[n]) for t, n in _in_order(built_H, common)]
        if m not in built_G:
            built_G[m] = on_G.g_structures(m)
    return [PairStructure(s, t, c) for s, m in _in_order(built_G, found) for t, c in found[m]]


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
# Each entry is the _Entry of (G, A), which holds both graphs.
_structure_cache: dict[tuple[int, int], _Entry] = {}


def _on(G: StableGraph, A: StableGraph) -> _Entry:
    key = (id(G), id(A))
    hit = _structure_cache.get(key)
    if hit is None:
        hit = _structure_cache[key] = _Entry(G, A, _fibre_pass(G, A))
    return hit


def _in_order(built: dict, masks) -> list[tuple[GStructure, int]]:
    """``(structure, mask)`` for each structure of the contractions
    ``masks``, given as ``{mask: [(key, structure)]}``
    (:meth:`_Entry.g_structures`), in the order of their keys."""
    merged = sorted(((k, s, m) for m in masks for k, s in built[m]), key=itemgetter(0))
    return [(s, m) for _, s, m in merged]


def _pairs_on(G: StableGraph, H: StableGraph, A: StableGraph) -> list[tuple[int, list]]:
    """The generic pairs on ``A`` as mask partners ``[(m, [(n, common
    edges)])]``: each covered-edge mask ``m`` of ``G`` on ``A`` that pairs
    with some, with the masks ``n`` of ``H`` it pairs with and the edges of
    ``m & n``.  A structure contracts a set ``S`` of edges and maps the
    ``G``-edges bijectively onto the rest, so a pair covers every edge
    exactly when ``S_G`` and ``S_H`` are disjoint: when ``m | n`` is full."""
    table_G = _on(G, A).contractions
    if not table_G:
        return []
    table_H, full = _on(H, A).contractions, (1 << A.n_edges) - 1
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
