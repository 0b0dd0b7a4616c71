"""Stable graphs: genus-labeled multigraphs with a half-edge involution.

A graph is stored at the half-edge level.  Half-edges are integers
``0..H-1``; ``partner`` is the involution (a half-edge fixed by it is a
leg), ``vertex_of`` gives incidence, and legs carry the marking labels
``1..n``.  Instances are immutable after construction and hashable by
canonical form, so they can be shared freely and used as dict keys.
"""

from __future__ import annotations

from functools import cached_property


class GraphError(ValueError):
    """Base class for malformed stable-graph data."""


class NotConnectedError(GraphError):
    pass


class UnstableVertexError(GraphError):
    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} violates stability 2g-2+n > 0")
        self.vertex = vertex


class InvolutionError(GraphError):
    pass


class LegLabelError(GraphError):
    pass


class StableGraph:
    """Immutable stable graph.

    Parameters are validated by :func:`validate`; use :func:`build_graph`
    for the friendlier vertex/edge-list constructor.
    """

    __slots__ = (
        "genera",
        "vertex_of",
        "partner",
        "legs",
        "__dict__",
    )

    def __init__(
        self,
        genera: tuple[int, ...],
        vertex_of: tuple[int, ...],
        partner: tuple[int, ...],
        legs: tuple[tuple[int, int], ...],
        _checked: bool = False,
    ):
        self.genera = tuple(genera)
        self.vertex_of = tuple(vertex_of)
        self.partner = tuple(partner)
        self.legs = tuple(sorted(legs))
        if not _checked:
            _check(self)

    # -- basic data ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_halfedges(self) -> int:
        return len(self.vertex_of)

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    @cached_property
    def leg_of_label(self) -> dict[int, int]:
        return {label: h for label, h in self.legs}

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as ordered pairs ``(h1, h2)`` with ``h1 < h2``."""
        return tuple(
            (h, self.partner[h])
            for h in range(self.n_halfedges)
            if self.partner[h] > h
        )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def halfedges_at(self) -> tuple[tuple[int, ...], ...]:
        at: list[list[int]] = [[] for _ in self.genera]
        for h, v in enumerate(self.vertex_of):
            at[v].append(h)
        return tuple(tuple(hs) for hs in at)

    def degree(self, v: int) -> int:
        """Number of incident half-edges, legs included (the n(v) count)."""
        return len(self.halfedges_at[v])

    @cached_property
    def genus(self) -> int:
        """Total genus: sum of vertex genera plus first Betti number."""
        return sum(self.genera) + self.first_betti

    @property
    def first_betti(self) -> int:
        return self.n_edges - self.n_vertices + 1

    @property
    def is_tree(self) -> bool:
        return self.first_betti == 0

    # -- canonical form ------------------------------------------------

    @cached_property
    def _canon(self):
        from . import canon

        return canon.canonical_data(self)

    @property
    def canonical_key(self):
        return self._canon[0]

    @property
    def aut_order(self) -> int:
        """Order of the automorphism group acting on vertices and half-edges
        (legs fixed pointwise); loop flips and parallel-edge swaps count."""
        return self._canon[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StableGraph):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __repr__(self) -> str:
        from . import grammar

        return grammar.graph_to_text(self)

    # -- rebuilding ----------------------------------------------------

    def relabeled(self, hmap: dict[int, int], vmap: dict[int, int]) -> "StableGraph":
        """Image under a relabeling of half-edges and vertices."""
        nh = self.n_halfedges
        vertex_of = [0] * nh
        partner = [0] * nh
        for h in range(nh):
            vertex_of[hmap[h]] = vmap[self.vertex_of[h]]
            partner[hmap[h]] = hmap[self.partner[h]]
        genera = [0] * self.n_vertices
        for v, g in enumerate(self.genera):
            genera[vmap[v]] = g
        legs = tuple((label, hmap[h]) for label, h in self.legs)
        return StableGraph(tuple(genera), tuple(vertex_of), tuple(partner), legs, _checked=True)


def _check(g: StableGraph) -> None:
    nh = g.n_halfedges
    nv = g.n_vertices
    if nv == 0:
        raise GraphError("graph needs at least one vertex")
    if any(x < 0 for x in g.genera):
        raise GraphError("vertex genera must be nonnegative")
    if len(g.partner) != nh or any(not (0 <= g.partner[h] < nh) for h in range(nh)):
        raise InvolutionError("involution is not a map on the half-edge set")
    for h in range(nh):
        if g.partner[g.partner[h]] != h:
            raise InvolutionError("involution is not self-inverse")
        if not (0 <= g.vertex_of[h] < nv):
            raise GraphError(f"half-edge {h} incident to missing vertex")
    fixed = {h for h in range(nh) if g.partner[h] == h}
    leg_halves = {h for _, h in g.legs}
    if leg_halves != fixed:
        raise InvolutionError("legs must be exactly the fixed points of the involution")
    labels = [label for label, _ in g.legs]
    if len(set(labels)) != len(labels):
        raise LegLabelError("duplicate leg labels")
    if labels and sorted(labels) != list(range(1, len(labels) + 1)):
        raise LegLabelError("leg labels must be 1..n")
    # connectivity of (V, E)
    if nv > 1:
        seen = {0}
        stack = [0]
        adj: list[set[int]] = [set() for _ in range(nv)]
        for h1, h2 in g.edges:
            adj[g.vertex_of[h1]].add(g.vertex_of[h2])
            adj[g.vertex_of[h2]].add(g.vertex_of[h1])
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != nv:
            raise NotConnectedError("graph is not connected")
    for v in range(nv):
        if 2 * g.genera[v] - 2 + g.degree(v) <= 0:
            raise UnstableVertexError(v)


def validate(
    genera,
    vertex_of,
    partner,
    legs,
) -> StableGraph:
    """Check raw half-edge data and return the stable graph.

    Raises :class:`NotConnectedError`, :class:`UnstableVertexError`,
    :class:`InvolutionError` or :class:`LegLabelError` on bad input.
    """
    return StableGraph(tuple(genera), tuple(vertex_of), tuple(partner), tuple(legs))


def build_graph(
    genera,
    edges=(),
    legs=None,
) -> StableGraph:
    """Build a stable graph from vertex genera, an edge list of vertex
    pairs, and a ``label -> vertex`` leg map.  Half-edges are numbered in
    edge order, legs last.
    """
    legs = dict(legs or {})
    vertex_of: list[int] = []
    partner: list[int] = []
    for v, w in edges:
        h1 = len(vertex_of)
        vertex_of.extend((v, w))
        partner.extend((h1 + 1, h1))
    leg_list = []
    for label in sorted(legs):
        h = len(vertex_of)
        vertex_of.append(legs[label])
        partner.append(h)
        leg_list.append((label, h))
    return StableGraph(tuple(genera), tuple(vertex_of), tuple(partner), tuple(leg_list))


def canonical_form(g) -> tuple[object, int]:
    """``(canonical key, automorphism order)`` of a stable or decorated
    graph; keys agree exactly on isomorphic inputs."""
    return g.canonical_key, g.aut_order


# -- interning ---------------------------------------------------------
#
# Graph-level caches (structure enumeration, multiplication tables) are
# keyed by canonical form.  ``intern`` maps any instance onto a single
# registered representative per isomorphism class together with the
# half-edge and vertex maps used to get there; any such map does the job
# because every cached quantity is closed under graph automorphisms.

_registry: dict[object, StableGraph] = {}


def intern(g: StableGraph) -> tuple[StableGraph, dict[int, int], dict[int, int]]:
    """Return ``(representative, halfedge_map, vertex_map)`` for ``g``."""
    from . import canon

    key, aut, order = g._canon
    hmap, vmap = canon.ordering_maps(g, order)
    rep = _registry.get(key)
    if rep is None:
        rep = _registry[key] = g.relabeled(hmap, vmap)
        # the identity order attains the key on the relabeled graph
        rep.__dict__["_canon"] = (key, aut, tuple(range(g.n_vertices)))
    return rep, hmap, vmap
