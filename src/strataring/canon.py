"""Canonical forms and automorphism counts for (decorated) stable graphs.

The canonical key is the minimum, over vertex orderings compatible with
iterated color refinement, of a full encoding of the graph data (genera,
leg labels with their psi exponents, kappa monomials, loop and bundle
multisets).  Two graphs get equal keys iff they are isomorphic respecting
leg labels and decorations.

The automorphism order factors as ``|Aut| = A_V * E`` where ``A_V`` is the
number of vertex-level automorphisms (counted as the number of orderings
achieving the minimal encoding) and ``E`` counts half-edge symmetries over
the identity vertex map: loop flips, loop swaps and parallel-edge swaps
that preserve psi exponents.

A search builds its tables once: the vertex records, and for every
ordered pair of adjacent vertices the bundle between them as seen from
the first, with its ``repr``.  Refinement, the uniform-cell test and the
encoding read those tables.

Refinement numbers the color classes in the order of the ``repr`` of
their signatures, and that order decides which orderings the search
visits, hence the key; it is kept so that every key stays the same
string.  Refinement stops at the first pass that splits no class, or
that leaves every class a single vertex, and returns that pass's
numbering.  Up to ten classes, the next pass would number them the same
way (single-digit colors sort by ``repr`` as by value).  From eleven
classes on, waiting for the numbering to repeat never ends, because
``repr`` sorts color 10 between 1 and 2.
"""

from __future__ import annotations

from math import factorial


def _tables(g, psi, kappa):
    """Vertex records, the bundle from each vertex to each neighbour as a
    dict per vertex, and per vertex its ``(neighbour, repr of bundle)``
    items."""
    nv = g.n_vertices
    vertex_of = g.vertex_of
    legs = [[] for _ in range(nv)]
    loops = [[] for _ in range(nv)]
    bundles = {}
    for label, h in g.legs:
        legs[vertex_of[h]].append((label, psi[h]))
    for h1, h2 in g.edges:
        v, w = vertex_of[h1], vertex_of[h2]
        a, b = psi[h1], psi[h2]
        if v == w:
            loops[v].append((a, b) if a <= b else (b, a))
        elif v < w:
            bundles.setdefault((v, w), []).append((a, b))
        else:
            bundles.setdefault((w, v), []).append((b, a))
    degree = [0] * nv
    for v in vertex_of:
        degree[v] += 1
    # legs come in label order, so each vertex's legs are sorted already
    records = tuple(
        (g.genera[v], tuple(kappa[v]), tuple(legs[v]), tuple(sorted(loops[v])), degree[v])
        for v in range(nv)
    )
    bundle = [{} for _ in range(nv)]
    adjacent = [[] for _ in range(nv)]
    for (v, w), ps in bundles.items():
        forward = tuple(sorted(ps))
        backward = tuple(sorted([(b, a) for a, b in ps]))
        bundle[v][w] = forward
        bundle[w][v] = backward
        adjacent[v].append((w, repr(forward)))
        adjacent[w].append((v, repr(backward)))
    return records, bundle, adjacent


def _refine(colors, adjacent):
    """Iterate neighborhood refinement to a stable coloring."""
    classes = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([(r, colors[w]) for w, r in around])))
            for v, around in enumerate(adjacent)
        ]
        order = sorted(set(sigs), key=repr)
        index = {s: i for i, s in enumerate(order)}
        colors = [index[s] for s in sigs]
        if len(order) == classes or len(order) == len(colors):
            return colors
        classes = len(order)


def _uniform_independent(cell, bundle):
    """True when every ordering within the cell yields the same encoding:
    no edges inside the cell and identical bundles to every outside vertex."""
    first = bundle[cell[0]]
    if any(w in first for w in cell):
        return False
    return all(bundle[v] == first for v in cell[1:])


def _encode(order, records, bundle):
    parts = [records[v] for v in order]
    for i, v in enumerate(order):
        row = bundle[v]
        parts.extend([row.get(w, ()) for w in order[i + 1 :]])
    return tuple(parts)


def _search(records, bundle, adjacent):
    """Return ``(min_encoding, vertex_aut_count, best_order)``."""
    nv = len(records)
    if nv == 1:
        return _encode((0,), records, bundle), 1, (0,)

    init = sorted(set(records), key=repr)
    index = {r: i for i, r in enumerate(init)}
    colors0 = _refine([index[r] for r in records], adjacent)

    best: dict[str, object] = {"enc": None, "count": 0, "order": None}

    def cells_of(colors):
        by: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            by.setdefault(c, []).append(v)
        return [by[c] for c in sorted(by)]

    def recurse(colors, factor):
        cells = cells_of(colors)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            order = tuple(v for c in cells for v in c)
            enc = _encode(order, records, bundle)
            if best["enc"] is None or enc < best["enc"]:
                best["enc"], best["count"], best["order"] = enc, factor, order
            elif enc == best["enc"]:
                best["count"] += factor
            return
        if _uniform_independent(target, bundle):
            new = list(colors)
            base = max(colors) + 1
            for k, v in enumerate(target[1:], start=1):
                new[v] = base + k
            recurse(_refine(new, adjacent), factor * factorial(len(target)))
            return
        for v in target:
            new = [2 * c + 1 for c in colors]
            new[v] = 2 * colors[v]
            recurse(_refine(new, adjacent), factor)

    recurse(colors0, 1)
    return best["enc"], best["count"], best["order"]


def _extension_count(records, bundle):
    """Half-edge automorphisms over the identity vertex permutation."""
    count = 1
    for record in records:
        loops = record[3]
        for pair in set(loops):
            k = loops.count(pair)
            count *= factorial(k) * (2**k if pair[0] == pair[1] else 1)
    for v, row in enumerate(bundle):
        for w, ps in row.items():
            if v < w:
                for pair in set(ps):
                    count *= factorial(ps.count(pair))
    return count


def canonical_data(g, psi=None, kappa=None) -> tuple[str, int, tuple[int, ...]]:
    """Canonical key string, exact automorphism order, and a vertex order
    that achieves the key (see :func:`ordering_maps`)."""
    psi = psi if psi is not None else (0,) * g.n_halfedges
    kappa = kappa if kappa is not None else ((),) * g.n_vertices
    records, bundle, adjacent = _tables(g, psi, kappa)
    enc, aut_v, order = _search(records, bundle, adjacent)
    return repr((g.n_vertices, enc)), aut_v * _extension_count(records, bundle), order


def ordering_maps(g, order) -> tuple[dict[int, int], dict[int, int]]:
    """A relabeling ``(halfedge_map, vertex_map)`` of the bare graph ``g``
    onto canonical positions, given the vertex ``order`` that
    :func:`canonical_data` returns for it.

    Ties inside edge bundles are broken by original ids; any choice differs
    from another by an automorphism, which is all the callers need.
    """
    vmap = {v: i for i, v in enumerate(order)}
    hmap: dict[int, int] = {}
    ctr = 0
    legs_at: dict[int, list[int]] = {}
    for _, h in g.legs:
        legs_at.setdefault(g.vertex_of[h], []).append(h)
    loops_at: dict[int, list[tuple[int, int]]] = {}
    bundle_edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h1, h2 in g.edges:
        v, w = g.vertex_of[h1], g.vertex_of[h2]
        if v == w:
            loops_at.setdefault(v, []).append((h1, h2))
        else:
            if vmap[v] > vmap[w]:
                v, w, h1, h2 = w, v, h2, h1
            bundle_edges.setdefault((vmap[v], vmap[w]), []).append((h1, h2))
    for v in order:
        for h in legs_at.get(v, ()):
            hmap[h] = ctr
            ctr += 1
        for h1, h2 in loops_at.get(v, ()):
            hmap[h1], hmap[h2] = ctr, ctr + 1
            ctr += 2
    for (i, j) in sorted(bundle_edges):
        for h1, h2 in sorted(bundle_edges[(i, j)]):
            hmap[h1], hmap[h2] = ctr, ctr + 1
            ctr += 2
    return hmap, vmap
