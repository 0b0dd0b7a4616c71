"""Enumeration of stable graphs and decorated spanning sets.

The graphs with ``e`` edges are generated from those with ``e - 1`` by
undoing an edge contraction (splitting a vertex, or trading a unit of
vertex genus for a self-loop), and a refinement the space (all graphs,
trees only, or trees with a single positive-genus vertex) does not admit
is dropped before its canonical form is taken.  The two sides of a vertex
split are interchangeable, so of a split and its mirror only the first is
tried.  Contracting any edge of a stable graph is again stable, and
contracting an edge of a tree (with one positive-genus vertex) gives a
tree (with one positive-genus vertex), so every graph of a space above a
class is reached from it one edge at a time.

One memo per process keeps that one-edge refinement relation: per class
and space, the interned graphs one edge above it (see
:func:`graphs.intern`), and then, level by level as they are asked for,
the graphs two, three, ... edges above it (:func:`_closure`).
``stable_graphs`` reads the levels above the one-vertex graph, and
``common_refinements`` those above one factor of a product.

``decorated_basis`` takes the graphs of its space from ``stable_graphs``
and decorates vertices with psi/kappa monomials below the
boundary-expressibility bound
``codim(theta_v) < g(v) + [g(v)=0] - [n(v)=0]``.
"""

from __future__ import annotations

from itertools import product

from .algebra import DecoratedGraph, _compositions
from .graphs import StableGraph, build_graph, intern
from .structures import _sitting_on

SPACES = ("mbar", "ct", "rt")


def top_degree(space: str, g: int, n: int) -> int:
    """Degree of the socle for each flavor of moduli space.  A negative
    or unstable ``(g, n)`` raises ``ValueError``."""
    if g < 0 or n < 0:
        raise ValueError(f"negative genus or leg count (g={g}, n={n})")
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n)")
    if space == "mbar":
        return 3 * g - 3 + n
    if space == "ct":
        return 2 * g - 3 + n
    if space == "rt":
        return g - 2 + n
    raise ValueError(f"unknown space {space!r}")


def space_admits(G: StableGraph, space: str) -> bool:
    if space == "mbar":
        return True
    if space == "ct":
        return G.is_tree
    if space == "rt":
        positive = [gv for gv in G.genera if gv > 0]
        return G.is_tree and len(positive) == 1 and positive[0] == G.genus
    raise ValueError(f"unknown space {space!r}")


def stable_graphs(
    g: int, n: int, edges: int, space: str = "mbar"
) -> tuple[StableGraph, ...]:
    """All stable graphs of total genus ``g`` with legs ``1..n`` and the
    given edge count that ``space`` admits, one interned graph per
    isomorphism class, sorted by canonical key; ``()`` above ``3g - 3 + n``
    edges, the most a stable graph has.  They are the graphs ``edges``
    levels above the one-vertex graph in the refinement relation
    (:func:`_closure`), and a repeated call returns the same tuple."""
    top_degree(space, g, n)  # rejects an unknown space and a negative or unstable (g, n)
    if edges < 0:
        raise ValueError("negative edge count")
    G = _roots.get((g, n))
    if G is None:
        G = _roots[g, n] = intern(build_graph([g], legs={i: 0 for i in range(1, n + 1)}))[0]
    if edges > 3 * g - 3 + n or not space_admits(G, space):
        return ()
    levels = _closure(G, space, edges)
    return levels[edges] if edges < len(levels) else ()


# (g, n) -> the interned one-vertex graph, from which every sweep starts
_roots: dict[tuple[int, int], StableGraph] = {}

# (canonical key, space) -> the levels of the class (see _closure)
_relation: dict[tuple, list[tuple[StableGraph, ...]]] = {}


def _closure(X: StableGraph, space: str, top: int) -> list[tuple[StableGraph, ...]]:
    """The levels of the graphs of ``space`` above the class of ``X``,
    from ``e(X)`` edges on, filled at least to ``top`` edges or to the
    first empty level, each sorted by canonical key.  Level 0 is the
    interned representative of ``X`` and level 1 its one-edge refinements;
    a higher level joins level 1 of the classes of the level below.  The
    levels are kept for the process and appended to when a larger ``top``
    is asked for."""
    if X.genus == 0 and space == "ct":
        space = "mbar"  # every genus-0 graph is a tree: share one relation
    levels = _relation.get((X.canonical_key, space))
    if levels is None:
        levels = _relation[X.canonical_key, space] = [(intern(X)[0],)]
    while len(levels) <= top - X.n_edges and levels[-1]:
        if len(levels) == 1:
            refined = _one_edge_refinements(levels[0][0])
            found = {Y.canonical_key: Y for Y in refined if space_admits(Y, space)}
            found = {key: intern(Y)[0] for key, Y in found.items()}
        else:
            above = (_closure(Y, space, Y.n_edges + 1)[1] for Y in levels[-1])
            found = {A.canonical_key: A for level in above for A in level}
        levels.append(tuple(found[key] for key in sorted(found)))
    return levels


def common_refinements(G: StableGraph, H: StableGraph, space: str):
    """The interned graphs of ``space`` with at most ``e(G) + e(H)`` edges
    (and at most ``3g - 3 + n``) that contract onto both ``G`` and ``H``,
    in the order of :func:`stable_graphs` by edge count.  ``space`` must
    admit both.

    A graph ``A`` contracts onto ``G`` when ``G`` is ``A`` with some edges
    contracted.  Such a contraction factors into single-edge contractions
    through graphs of the space (every space is closed under contraction),
    so the graphs above ``G`` are the levels of :func:`_closure` of its
    class, and any presentation of ``G`` finds them.  They are walked up
    from the factor with more edges, the shorter walk, and a graph is kept
    when the other factor sits on it (``structures._sitting_on``)."""
    if G.n_edges < H.n_edges:
        G, H = H, G
    top = min(G.n_edges + H.n_edges, 3 * G.genus - 3 + G.n_legs)
    levels = _closure(G, space, top)[: top - G.n_edges + 1]
    return _sitting_on(H, (A for level in levels for A in level))


def _one_edge_refinements(X: StableGraph):
    """The graphs that contract one edge onto ``X``: each unit of vertex
    genus traded for a self-loop, then each split of a vertex along a new
    edge, once per mirror pair.

    The mirror of a split swaps its two sides: the genera, the legs, the
    halves of each bundle of parallel edges and the loops that stay or
    move.  It gives an isomorphic graph, so a split is skipped when its
    mirror has been yielded; a split that is its own mirror is yielded."""
    nv = X.n_vertices
    nh = X.n_halfedges
    # (a) trade one unit of genus for a self-loop
    for v in range(nv):
        if X.genera[v] >= 1:
            genera = list(X.genera)
            genera[v] -= 1
            vertex_of = list(X.vertex_of) + [v, v]
            partner = list(X.partner) + [nh + 1, nh]
            yield StableGraph(tuple(genera), tuple(vertex_of), tuple(partner), X.legs, _checked=True)
    # (b) split a vertex along a new edge
    for v in range(nv):
        legs_v = [h for h in X.halfedges_at[v] if X.partner[h] == h]
        loops_v = [
            (h, X.partner[h])
            for h in X.halfedges_at[v]
            if X.partner[h] != h and X.vertex_of[X.partner[h]] == v and h < X.partner[h]
        ]
        neighbor_halves: dict[int, list[int]] = {}
        for h in X.halfedges_at[v]:
            w = X.vertex_of[X.partner[h]]
            if X.partner[h] != h and w != v:
                neighbor_halves.setdefault(w, []).append(h)
        bundles = [neighbor_halves[w] for w in sorted(neighbor_halves)]
        yielded = set()
        for ga in range(X.genera[v] + 1):
            gb = X.genera[v] - ga
            for (legs_in, counts, loop_counts), moved, split_loops in _attachment_splits(
                legs_v, loops_v, bundles
            ):
                mirror = (
                    gb,
                    tuple(1 - b for b in legs_in),
                    tuple(len(halves) - k for halves, k in zip(bundles, counts)),
                    loop_counts[::-1],
                )
                if mirror in yielded:
                    continue
                yielded.add((ga, legs_in, counts, loop_counts))
                yield from _apply_split(X, v, ga, gb, moved, split_loops)


def _attachment_splits(legs, loops, bundles):
    """Distributions of the attachments of a vertex onto the two sides of a
    split, yielded as (sides, half-edges moved to the new vertex, loops
    that become edges across the split).  Interchangeable half-edges
    (parallel edges to one neighbor, loops) are enumerated by count only,
    so ``sides`` says which: per leg 1 if it moves, per bundle the number
    of halves that move, and the numbers of loops that stay, split and
    move."""
    bundle_choices = [range(len(halves) + 1) for halves in bundles]
    # per loop multiset: the first ``stay`` loops stay, the next ``split``
    # are split, the rest move
    L = len(loops)
    loop_choices = []
    for stay in range(L + 1):
        for split in range(L - stay + 1):
            moved = {h for loop in loops[stay + split :] for h in loop}
            counts = (stay, split, L - stay - split)
            loop_choices.append((counts, moved, tuple(loops[stay : stay + split])))
    for legs_in in product((0, 1), repeat=len(legs)):
        for counts in product(*bundle_choices):
            attached = {h for h, b in zip(legs, legs_in) if b}
            for halves, k in zip(bundles, counts):
                attached.update(halves[:k])
            for loop_counts, loop_moved, split_loops in loop_choices:
                yield (legs_in, counts, loop_counts), attached | loop_moved, split_loops


def _apply_split(X: StableGraph, v: int, ga: int, gb: int, moved, split_loops):
    # the new vertex gets the moved half-edges, one half of each split loop
    # and one half of the new edge; the old vertex keeps the rest
    deg_b = len(moved) + len(split_loops) + 1
    deg_a = X.degree(v) - deg_b + 2
    if 2 * ga - 2 + deg_a <= 0 or 2 * gb - 2 + deg_b <= 0:
        return
    nh = X.n_halfedges
    new_v = X.n_vertices
    genera = list(X.genera) + [gb]
    genera[v] = ga
    vertex_of = list(X.vertex_of) + [v, new_v]
    partner = list(X.partner) + [nh + 1, nh]
    for h in moved:
        vertex_of[h] = new_v
    for h1, h2 in split_loops:
        vertex_of[h2] = new_v  # loop becomes an edge across the split
    yield StableGraph(tuple(genera), tuple(vertex_of), tuple(partner), X.legs, _checked=True)


def all_stable_graphs(g: int, n: int, max_edges: int):
    """Stable graphs with at most ``max_edges`` edges, by edge count."""
    for e in range(max_edges + 1):
        yield from stable_graphs(g, n, e)


# -- decorated spanning sets -------------------------------------------


def _kappa_partitions(m: int, max_part: int | None = None):
    """kappa exponent tuples ((j, f), ...) with sum j*f == m."""
    if m == 0:
        yield ()
        return
    top = m if max_part is None else min(m, max_part)
    for j in range(top, 0, -1):
        for f in range(m // j, 0, -1):
            for rest in _kappa_partitions(m - j * f, j - 1):
                yield ((j, f),) + rest


def vertex_decoration_bound(G: StableGraph, v: int) -> int:
    """Strict upper bound for codim(theta_v): decorations at or above it
    are supported on the boundary and excluded from the spanning set."""
    gv = G.genera[v]
    return gv + (1 if gv == 0 else 0) - (1 if G.degree(v) == 0 else 0)


def _vertex_decorations(G: StableGraph, v: int, c: int):
    """(kappa, psi) choices of codimension ``c`` at vertex ``v``."""
    gv = G.genera[v]
    closed = G.degree(v) == 0
    for m in range(c + 1):
        for kap in _kappa_partitions(m):
            if closed and kap == ((1, gv - 2),) and gv - 2 >= 2:
                # the top pure kappa_1 power on a closed vertex is
                # redundant (one-dimensional socle of the open part)
                continue
            for psis in _compositions(c - m, G.degree(v)):
                yield kap, psis


def decorated_basis(g: int, n: int, k: int, space: str) -> tuple[DecoratedGraph, ...]:
    """The spanning set of decorated graphs of codimension ``k``."""
    if space == "rt" and g < 2:
        raise ValueError("rational-tails spaces need genus >= 2")
    if k < 0 or k > top_degree(space, g, n):
        raise ValueError("codimension out of range")
    found: dict[object, DecoratedGraph] = {}
    for e in range(0, k + 1):
        for G in stable_graphs(g, n, e, space):
            bounds = [vertex_decoration_bound(G, v) for v in range(G.n_vertices)]
            for dec in _graph_decorations(G, k - e, bounds):
                d = DecoratedGraph(G, dec[0], dec[1])
                found.setdefault(d.canonical_key, d)
    return tuple(found[key] for key in sorted(found))


def _graph_decorations(G: StableGraph, d: int, bounds):
    """All decorations of total codimension ``d`` within per-vertex bounds,
    yielded as (psi tuple, kappa tuple)."""
    nv = G.n_vertices

    def per_vertex(v: int, remaining: int):
        if v == nv:
            if remaining == 0:
                yield []
            return
        tail_cap = sum(max(0, bounds[w] - 1) for w in range(v + 1, nv))
        lo = max(0, remaining - tail_cap)
        hi = min(remaining, max(0, bounds[v] - 1))
        for c in range(lo, hi + 1):
            for choice in _vertex_decorations(G, v, c):
                for rest in per_vertex(v + 1, remaining - c):
                    yield [choice] + rest

    for combo in per_vertex(0, d):
        psi = [0] * G.n_halfedges
        kappa = []
        for v, (kap, psis) in enumerate(combo):
            kappa.append(kap)
            for h, e in zip(G.halfedges_at[v], psis):
                psi[h] = e
        yield tuple(psi), tuple(kappa)
