from __future__ import annotations

import pytest

from strataring.enumeration import stable_graphs
from strataring.graphs import build_graph
from strataring.structures import (
    GenusMismatch,
    LabelMismatch,
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


def _pairs_over_every_graph(G, H):
    out = []
    for e in range(max(G.n_edges, H.n_edges), G.n_edges + H.n_edges + 1):
        for A in stable_graphs(G.genus, G.n_legs, e):
            pairs = _pairs_on(G, H, A)
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
