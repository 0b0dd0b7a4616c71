"""Identifications of a graph as a specialization of another.

A structure of ``G`` on ``A`` is a triple ``(alpha, beta, gamma)``:
``alpha`` maps the vertices of ``A`` onto those of ``G``, ``beta`` embeds
the half-edges of ``G`` into those of ``A`` compatibly with involutions
and leg labels, and ``gamma`` (determined by ``alpha``) sends the
remaining half-edges to the vertex they contract into.  The fiber of each
``G``-vertex must be a connected subgraph of the right genus.

Structures are enumerated raw (no quotient by ``Aut(A)``); the action of
``Aut(A)`` on generic pair structures is free, a fact the multiplication
routine relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """All raw structures of ``G`` on ``A``."""
    _check_compatible(G, A)
    return _g_structures(G, A)


def _g_structures(G: StableGraph, A: StableGraph) -> list[GStructure]:
    eG, eA = G.n_edges, A.n_edges
    if eG > eA or G.n_vertices > A.n_vertices:
        return []
    # leg part of beta is forced by labels and pins alpha at leg vertices
    beta0: dict[int, int] = {}
    req0: dict[int, int] = {}
    for label, hG in G.legs:
        hA = A.leg_of_label[label]
        beta0[hG] = hA
        u, x = G.vertex_of[hG], A.vertex_of[hA]
        if req0.setdefault(x, u) != u:
            return []

    G_edges = G.edges
    A_edges = A.edges
    out: list[GStructure] = []

    def finalize(beta: dict[int, int], used: set[int], req: dict[int, int]) -> None:
        # components of A with the covered edges removed
        parent = list(range(A.n_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        internal = [0] * A.n_vertices
        for idx, (h1, h2) in enumerate(A_edges):
            if idx in used:
                continue
            a, b = find(A.vertex_of[h1]), find(A.vertex_of[h2])
            if a == b:
                internal[a] += 1
            else:
                parent[a] = b
                internal[b] += internal[a] + 1
        comps: dict[int, list[int]] = {}
        for x in range(A.n_vertices):
            comps.setdefault(find(x), []).append(x)
        if len(comps) != G.n_vertices:
            return
        assign: dict[int, int] = {}
        for x, u in req.items():
            root = find(x)
            if assign.setdefault(root, u) != u:
                return
        if G.n_vertices == 1:
            assign = {next(iter(comps)): 0}
        if len(assign) != len(comps):
            return
        if len(set(assign.values())) != G.n_vertices:
            return
        for root, members in comps.items():
            u = assign[root]
            fiber_genus = sum(A.genera[x] for x in members) + internal[find(root)] - len(members) + 1
            if fiber_genus != G.genera[u]:
                return
        alpha = tuple(assign[find(x)] for x in range(A.n_vertices))
        out.append(
            GStructure(alpha, dict(beta), frozenset(beta[h] for h in beta if G.partner[h] != h))
        )

    genera_A, genera_G = A.genera, G.genera

    def recurse(i: int, beta: dict[int, int], used: set[int], req: dict[int, int]) -> None:
        if i == eG:
            finalize(beta, used, req)
            return
        h1, h2 = G_edges[i]
        u1, u2 = G.vertex_of[h1], G.vertex_of[h2]
        for idx, (k1, k2) in enumerate(A_edges):
            if idx in used:
                continue
            for a1, a2 in ((k1, k2), (k2, k1)):
                x1, x2 = A.vertex_of[a1], A.vertex_of[a2]
                if x1 == x2 and u1 != u2:
                    continue
                # a vertex only joins the fiber of a vertex of >= its genus
                if genera_A[x1] > genera_G[u1] or genera_A[x2] > genera_G[u2]:
                    continue
                r1, r2 = req.get(x1), req.get(x2)
                if (r1 is not None and r1 != u1) or (r2 is not None and r2 != u2):
                    continue
                new_req = dict(req)
                new_req[x1] = u1
                new_req[x2] = u2
                beta[h1], beta[h2] = a1, a2
                used.add(idx)
                recurse(i + 1, beta, used, new_req)
                used.discard(idx)
                del beta[h1], beta[h2]
        return

    recurse(0, dict(beta0), set(), dict(req0))
    return out


def enumerate_generic_pairs(
    G: StableGraph, H: StableGraph
) -> list[tuple[StableGraph, list[PairStructure]]]:
    """Generic simultaneous structures of ``(G, H)``, grouped by the
    isomorphism class of the carrying graph.

    One representative graph per class is returned together with all raw
    generic pair structures on it (every edge covered by at least one of
    the two half-edge embeddings).

    Carriers are taken from the narrowest of rt, ct and mbar that admits
    both ``G`` and ``H``; no generic carrier lies outside it.  For two
    trees: the uncontracted edges of a cycle of a carrier form a closed
    walk in each tree that uses no edge twice, so there are none and the
    cycle is left uncovered.  For two rt graphs: two positive-genus
    vertices of a tree carrier lie in the fibre of the one positive vertex
    on each side, so the path between them is left uncovered.
    """
    _check_compatible(G, H)
    from .enumeration import space_admits, stable_graphs

    g, n = G.genus, G.n_legs
    space = next(
        s for s in ("rt", "ct", "mbar") if space_admits(G, s) and space_admits(H, s)
    )
    max_interior_genus = min(
        max(G.genera, default=0), max(H.genera, default=0)
    )
    out = []
    for e in range(max(G.n_edges, H.n_edges), G.n_edges + H.n_edges + 1):
        for A in stable_graphs(g, n, e, space):
            if A.n_vertices < max(G.n_vertices, H.n_vertices):
                continue
            if A.genera and max(A.genera) > max_interior_genus:
                continue
            pairs = _pairs_on(G, H, A)
            if pairs:
                out.append((A, pairs))
    return out


# keyed by object identity: callers pass interned representatives and the
# memoized generator's instances, both of which live for the process
_structure_cache: dict[tuple[int, int], tuple] = {}


def _g_structures_cached(G: StableGraph, A: StableGraph) -> list[GStructure]:
    key = (id(G), id(A))
    hit = _structure_cache.get(key)
    if hit is None:
        hit = (G, A, _g_structures(G, A))
        _structure_cache[key] = hit
    return hit[2]


def _pairs_on(G: StableGraph, H: StableGraph, A: StableGraph) -> list[PairStructure]:
    SG = _g_structures_cached(G, A)
    if not SG:
        return []
    SH = SG if H is G else _g_structures_cached(H, A)
    if not SH:
        return []
    all_halves = frozenset(
        h for h in range(A.n_halfedges) if A.partner[h] != h
    )
    pairs = []
    for s in SG:
        for t in SH:
            if s.edge_halves | t.edge_halves != all_halves:
                continue
            shared = s.edge_halves & t.edge_halves
            common = tuple(e for e in A.edges if e[0] in shared and e[1] in shared)
            pairs.append(PairStructure(s, t, common))
    return pairs
