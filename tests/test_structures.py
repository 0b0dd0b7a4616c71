from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strataring import structures
from strataring.enumeration import common_refinements, space_admits, stable_graphs
from strataring.graphs import build_graph
from strataring.structures import (
    GenusMismatch,
    GStructure,
    LabelMismatch,
    PairStructure,
    _pairs_from,
    _pairs_on,
    enumerate_g_structures,
    enumerate_generic_pairs,
)


def loop_with_two_legs():
    return build_graph([0], edges=[(0, 0)], legs={1: 0, 2: 0})


def double_edge_with_legs():
    return build_graph([0, 0], edges=[(0, 1), (0, 1)], legs={1: 0, 2: 1})


def test_four_structures_on_the_double_edge():
    assert len(enumerate_g_structures(loop_with_two_legs(), double_edge_with_legs())) == 4


def test_self_structures_count_automorphisms():
    for g in [
        loop_with_two_legs(),
        build_graph([1, 1], edges=[(0, 1)]),
        build_graph([0, 0, 0, 2], edges=[(0, 0), (1, 1), (0, 2), (1, 2), (2, 3)]),
    ]:
        assert len(enumerate_g_structures(g, g)) == g.aut_order


def test_no_structures_when_target_has_fewer_edges():
    G = double_edge_with_legs()
    A = loop_with_two_legs()
    assert enumerate_g_structures(G, A) == []


def test_mismatches_raise():
    G = loop_with_two_legs()
    with pytest.raises(LabelMismatch):
        enumerate_g_structures(G, build_graph([1], legs={1: 0}))
    with pytest.raises(GenusMismatch):
        enumerate_g_structures(G, build_graph([2], legs={1: 0, 2: 0}))


def test_generic_pairs_of_the_loop_with_itself():
    G = loop_with_two_legs()
    by_edges = {A.n_edges: pairs for A, pairs in enumerate_generic_pairs(G, G)}
    # on the double-edge graph: sixteen raw pairs of which eight are generic
    assert len(by_edges[2]) == 8
    assert all(len(p.common_edges) == 0 for p in by_edges[2])
    # on G itself the edge is common
    assert len(by_edges[1]) == 4
    assert all(len(p.common_edges) == 1 for p in by_edges[1])


def test_worked_example_pair_counts():
    G = build_graph([3], edges=[(0, 0)])
    H = build_graph([0, 0, 0, 2], edges=[(0, 0), (1, 1), (0, 2), (1, 2), (2, 3)])
    families = {A.aut_order: pairs for A, pairs in enumerate_generic_pairs(G, H)}
    assert len(families[8]) == 32
    assert all(len(p.common_edges) == 1 for p in families[8])
    assert len(families[16]) == 16
    assert all(len(p.common_edges) == 0 for p in families[16])


def test_single_vertex_pair_is_identity_gluing():
    G = build_graph([2])
    out = enumerate_generic_pairs(G, G)
    assert len(out) == 1
    A, pairs = out[0]
    assert A.n_edges == 0 and len(pairs) == 1 and pairs[0].common_edges == ()


def test_pair_symmetry_and_free_action():
    G = build_graph([2, 1], edges=[(0, 1)], legs={1: 0})
    H = build_graph([1, 1, 1], edges=[(0, 1), (1, 2)], legs={1: 1})
    gh = enumerate_generic_pairs(G, H)
    mirror = {A.canonical_key: pairs for A, pairs in enumerate_generic_pairs(H, G)}
    assert {A.canonical_key for A, _ in gh} == set(mirror)
    for A, pairs in gh:
        # Aut(A) acts freely on generic pair structures
        assert len(pairs) % A.aut_order == 0
        common = sorted(len(p.common_edges) for p in pairs)
        assert common == sorted(len(p.common_edges) for p in mirror[A.canonical_key])


def _pair_list(G, H, A):
    """The pair structures on ``A``, built from the mask partners."""
    partners = _pairs_on(G, H, A)
    return _pairs_from(G, H, A, partners) if partners else []


def _pairs_over_every_graph(G, H):
    out = []
    for e in range(max(G.n_edges, H.n_edges), G.n_edges + H.n_edges + 1):
        for A in stable_graphs(G.genus, G.n_legs, e):
            pairs = _pair_list(G, H, A)
            if pairs:
                out.append((A.canonical_key, len(pairs)))
    return out


@pytest.mark.parametrize(
    "g,n,space,max_edges",
    [
        (2, 2, "ct", 3),
        (3, 1, "ct", 3),
        (4, 0, "ct", 3),
        (1, 4, "ct", 3),
        (2, 3, "ct", 2),
        (2, 3, "rt", 3),
        (3, 3, "rt", 3),
    ],
)
def test_narrowed_carriers_match_a_search_over_every_graph(g, n, space, max_edges):
    # carriers of tree pairs (rt pairs) come from the ct (rt) sweep only
    graphs = [G for e in range(max_edges + 1) for G in stable_graphs(g, n, e, space)]
    for i, G in enumerate(graphs):
        for H in graphs[i:]:
            got = [(A.canonical_key, len(pairs)) for A, pairs in enumerate_generic_pairs(G, H)]
            assert got == _pairs_over_every_graph(G, H)


def _narrowest_space(G, H):
    return next(s for s in ("rt", "ct", "mbar") if space_admits(G, s) and space_admits(H, s))


@pytest.mark.parametrize(
    "g,n,max_edges", [(0, 6, 2), (1, 3, 3), (2, 1, 4), (3, 0, 4)]
)
def test_carriers_match_a_scan_over_every_graph_in_the_edge_range(g, n, max_edges):
    # every ordered pair of M_g,n-bar, loops and genus 0 included: the
    # carriers, their order, the pairs and their common edges are those of
    # a scan that offers every graph of the pair's space to _pairs_on
    graphs = [G for e in range(max_edges + 1) for G in stable_graphs(g, n, e)]
    for G in graphs:
        for H in graphs:
            space = _narrowest_space(G, H)
            want = []
            for e in range(max(G.n_edges, H.n_edges), G.n_edges + H.n_edges + 1):
                for A in stable_graphs(g, n, e, space):
                    pairs = _pair_list(G, H, A)
                    if pairs:
                        want.append((A, pairs))
            got = enumerate_generic_pairs(G, H)
            assert [A for A, _ in got] == [A for A, _ in want], (G, H)
            for (A, pairs), (_, expected) in zip(got, want):
                assert pairs == expected
                assert [p.common_edges for p in pairs] == [p.common_edges for p in expected]


@pytest.mark.parametrize("g,n,space", [(0, 5, "mbar"), (1, 3, "mbar"), (2, 1, "mbar"), (3, 1, "ct")])
def test_common_refinements_are_the_graphs_both_sit_on(g, n, space):
    # a graph of the sweep lies above G exactly when G has a structure on it
    graphs = [G for e in range(3) for G in stable_graphs(g, n, e, space)]
    for G in graphs:
        for H in graphs:
            got = list(common_refinements(G, H, space))
            want = [
                A
                for e in range(max(G.n_edges, H.n_edges), G.n_edges + H.n_edges + 1)
                for A in stable_graphs(g, n, e, space)
                if enumerate_g_structures(G, A) and enumerate_g_structures(H, A)
            ]
            assert got == want, (G, H)
            # any presentation of G and H finds the same carriers
            G2 = G.relabeled(*_reversal(G))
            assert list(common_refinements(G2, H, space)) == want


def _reversal(G):
    return (
        {h: G.n_halfedges - 1 - h for h in range(G.n_halfedges)},
        {v: G.n_vertices - 1 - v for v in range(G.n_vertices)},
    )


def test_only_carriers_above_both_graphs_are_tried(monkeypatch):
    # on M_3-bar, the genus-1 vertex with two loops against the genus-1
    # double edge: 5 graphs with 2 to 4 edges lie above both, 3 of them
    # carry a generic pair; a scan of every graph in that range tries 23
    G = build_graph([1], edges=[(0, 0), (0, 0)])
    H = build_graph([1, 1], edges=[(0, 1), (0, 1)])
    calls = []
    real = structures._pairs_on

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(structures, "_pairs_on", counted)
    out = enumerate_generic_pairs(G, H)
    assert len(out) == 3 and sum(len(pairs) for _, pairs in out) == 128
    assert len(calls) == 5


def _backtracking_structures(G, A):
    """Reference search: try every injective, oriented map of G's edges
    into A's edges in order, then check the fibres.  Returns the
    structures in the order of that recursion."""
    if G.n_edges > A.n_edges or G.n_vertices > A.n_vertices:
        return []
    beta0, req0 = {}, {}
    for label, hG in G.legs:
        hA = A.leg_of_label[label]
        beta0[hG] = hA
        u, x = G.vertex_of[hG], A.vertex_of[hA]
        if req0.setdefault(x, u) != u:
            return []
    out = []

    def finalize(beta, used, req):
        parent = list(range(A.n_vertices))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        internal = [0] * A.n_vertices
        for idx, (h1, h2) in enumerate(A.edges):
            if idx in used:
                continue
            a, b = find(A.vertex_of[h1]), find(A.vertex_of[h2])
            if a == b:
                internal[a] += 1
            else:
                parent[a] = b
                internal[b] += internal[a] + 1
        comps = {}
        for x in range(A.n_vertices):
            comps.setdefault(find(x), []).append(x)
        if len(comps) != G.n_vertices:
            return
        assign = {}
        for x, u in req.items():
            if assign.setdefault(find(x), u) != u:
                return
        if G.n_vertices == 1:
            assign = {next(iter(comps)): 0}
        if len(assign) != len(comps) or len(set(assign.values())) != G.n_vertices:
            return
        for root, members in comps.items():
            genus = sum(A.genera[x] for x in members) + internal[root] - len(members) + 1
            if genus != G.genera[assign[root]]:
                return
        alpha = tuple(assign[find(x)] for x in range(A.n_vertices))
        halves = frozenset(beta[h] for h in beta if G.partner[h] != h)
        out.append(GStructure(alpha, dict(beta), halves))

    def recurse(i, beta, used, req):
        if i == G.n_edges:
            finalize(beta, used, req)
            return
        h1, h2 = G.edges[i]
        u1, u2 = G.vertex_of[h1], G.vertex_of[h2]
        for idx, (k1, k2) in enumerate(A.edges):
            if idx in used:
                continue
            for a1, a2 in ((k1, k2), (k2, k1)):
                x1, x2 = A.vertex_of[a1], A.vertex_of[a2]
                if x1 == x2 and u1 != u2:
                    continue
                if req.get(x1, u1) != u1 or req.get(x2, u2) != u2:
                    continue
                new_req = dict(req)
                new_req[x1], new_req[x2] = u1, u2
                beta[h1], beta[h2] = a1, a2
                recurse(i + 1, beta, used | {idx}, new_req)
                del beta[h1], beta[h2]

    recurse(0, dict(beta0), frozenset(), dict(req0))
    return out


def _as_data(structures):
    # beta as an item list, so that its key order is compared too
    return [(s.alpha, list(s.beta.items()), s.edge_halves) for s in structures]


@pytest.mark.parametrize(
    "g,n,space,max_edges",
    [
        (0, 5, "mbar", 2),
        (1, 3, "mbar", 3),
        (2, 1, "mbar", 4),
        (2, 2, "mbar", 4),
        (3, 0, "mbar", 6),
        (3, 1, "ct", 4),
        (3, 1, "rt", 2),
        (2, 3, "rt", 3),
    ],
)
def test_structures_match_the_edge_map_backtracking(g, n, space, max_edges):
    graphs = [G for e in range(max_edges + 1) for G in stable_graphs(g, n, e, space)]
    for G in graphs:
        for A in graphs:
            if A.n_edges >= G.n_edges:
                got = enumerate_g_structures(G, A)
                assert _as_data(got) == _as_data(_backtracking_structures(G, A)), (G, A)


def _reference_pairs_on(G, H, A, structures_of):
    """The pair search that builds every structure of ``G`` and of ``H`` on
    ``A`` (``structures_of(G, A)``) and then tests which pairs cover every
    edge half, once per distinct ``G``-image."""
    SG = structures_of(G, A)
    SH = structures_of(H, A)
    full = _half_mask(h for h in range(A.n_halfedges) if A.partner[h] != h)
    edge_masks = [(e, (1 << e[0]) | (1 << e[1])) for e in A.edges]
    masks_H = [_half_mask(t.edge_halves) for t in SH]
    partners = {}
    pairs = []
    for s in SG:
        ms = _half_mask(s.edge_halves)
        found = partners.get(ms)
        if found is None:
            found = partners[ms] = []
            for t, mt in zip(SH, masks_H):
                if ms | mt == full:
                    shared = ms & mt
                    found.append((t, tuple(e for e, m in edge_masks if shared & m == m)))
        for t, common in found:
            pairs.append(PairStructure(s, t, common))
    return pairs


def _half_mask(halves):
    out = 0
    for h in halves:
        out |= 1 << h
    return out


@pytest.mark.parametrize(
    "g,n,space,max_edges",
    [
        (0, 5, "mbar", 2),
        (1, 3, "mbar", 3),
        (2, 1, "mbar", 4),
        (2, 2, "mbar", 3),
        (3, 0, "mbar", 4),
        (3, 1, "ct", 4),
        (3, 1, "rt", 0),
    ],
)
def test_pairs_match_the_search_over_every_structure(g, n, space, max_edges):
    graphs = [G for e in range(max_edges + 1) for G in stable_graphs(g, n, e, space)]
    carriers = {e: stable_graphs(g, n, e) for e in range(2 * max_edges + 1)}
    memo, seen = {}, {}

    def structures_of(G, A):
        key = (id(G), id(A))
        if key not in memo:
            memo[key] = enumerate_g_structures(G, A)
        return memo[key]

    def data(pairs):
        # structures are shared between pairs and kept alive by the caches,
        # so each is converted once, by identity
        for p in pairs:
            for s in (p.left, p.right):
                if id(s) not in seen:
                    seen[id(s)] = _as_data([s])[0]
        return [(seen[id(p.left)], seen[id(p.right)], p.common_edges) for p in pairs]

    for G in graphs:
        for H in graphs:
            for e in range(max(G.n_edges, H.n_edges), G.n_edges + H.n_edges + 1):
                for A in carriers[e]:
                    want = _reference_pairs_on(G, H, A, structures_of)
                    assert data(_pair_list(G, H, A)) == data(want), (G, H, A)
                    # mask partners exactly on the carriers with a pair
                    assert bool(_pairs_on(G, H, A)) == bool(want)


@pytest.mark.parametrize("flip", [False, True])
def test_only_the_structures_of_generic_pairs_are_built(monkeypatch, flip):
    # on M_3-bar: a search that builds every structure of both graphs on the
    # carriers it tries builds 348 (160 the other way round); 44 of them lie
    # in a generic pair
    G = build_graph([1], edges=[(0, 0), (0, 0)])
    H = build_graph([1, 1], edges=[(0, 1), (0, 1)])
    if flip:
        G, H = H, G
    built = []

    def counted(*args):
        built.append(GStructure(*args))
        return built[-1]

    monkeypatch.setattr(structures, "GStructure", counted)
    monkeypatch.setattr(structures, "_structure_cache", {})
    out = enumerate_generic_pairs(G, H)
    used = {id(s) for _, pairs in out for p in pairs for s in (p.left, p.right)}
    assert sum(len(pairs) for _, pairs in out) == 128
    assert len(built) == len(used) == 44


@lru_cache(maxsize=None)
def _graphs_with_at_most_three_edges(g, n):
    return [G for e in range(4) for G in stable_graphs(g, n, e)]


@st.composite
def _relabeled(draw, G):
    hperm = draw(st.permutations(range(G.n_halfedges)))
    vperm = draw(st.permutations(range(G.n_vertices)))
    return G.relabeled(dict(enumerate(hperm)), dict(enumerate(vperm)))


@st.composite
def _graph_pairs(draw):
    g, n = draw(st.sampled_from([(0, 5), (1, 3), (2, 1), (2, 2), (3, 0)]))
    graphs = _graphs_with_at_most_three_edges(g, n)
    G = draw(st.sampled_from(graphs))
    A = draw(st.sampled_from([A for A in graphs if A.n_edges >= G.n_edges]))
    return G, A, draw(_relabeled(G)), draw(_relabeled(A))


@settings(max_examples=200, deadline=None, database=None)
@given(_graph_pairs())
def test_structure_count_is_invariant_under_relabeling(graphs):
    G, A, G2, A2 = graphs
    assert len(enumerate_g_structures(G2, A2)) == len(enumerate_g_structures(G, A))
