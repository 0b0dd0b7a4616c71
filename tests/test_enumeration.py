from __future__ import annotations

import pytest

from strataring.enumeration import (
    common_refinements,
    decorated_basis,
    space_admits,
    stable_graphs,
    top_degree,
    vertex_decoration_bound,
)
from strataring.graphs import build_graph


@pytest.mark.parametrize("space", ["ct", "rt"])
def test_space_sweep_equals_the_filtered_full_sweep(space):
    for g, n in [(0, 5), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]:
        for e in range(4):
            full = [G.canonical_key for G in stable_graphs(g, n, e) if space_admits(G, space)]
            assert [G.canonical_key for G in stable_graphs(g, n, e, space)] == full


def test_default_space_is_the_full_sweep():
    assert stable_graphs(2, 1, 2) is stable_graphs(2, 1, 2, "mbar")


def test_bad_arguments_are_rejected():
    for args in [(2, 0, 1, "tree"), (-1, 5, 0), (2, -1, 0), (0, 2, 0), (2, 0, -1)]:
        with pytest.raises(ValueError):
            stable_graphs(*args)
    with pytest.raises(ValueError):
        top_degree("mbar", -1, 5)
    for space in ("mbar", "ct", "rt"):
        for g, n in [(0, 0), (0, 1), (0, 2), (1, 0)]:
            with pytest.raises(ValueError, match=r"unstable \(g, n\)"):
                top_degree(space, g, n)
    with pytest.raises(ValueError):
        decorated_basis(2, -1, 0, "mbar")


def test_edge_counts_above_the_maximum_give_no_graphs():
    # a stable graph of M_2,0 has at most 3 edges; more gives () without
    # sweeping one level per edge
    assert len(stable_graphs(2, 0, 3)) == 2
    assert stable_graphs(2, 0, 4) == stable_graphs(2, 0, 500) == ()
    assert stable_graphs(2, 0, 500, "ct") == ()
    # two graphs with the most edges carry only themselves
    top = stable_graphs(2, 0, 3)
    for G in top:
        for H in top:
            assert list(common_refinements(G, H, "mbar")) == ([G] if G is H else [])


def test_one_edge_counts():
    assert len(stable_graphs(0, 4, 1)) == 3
    assert len(stable_graphs(2, 0, 1)) == 2
    assert len(stable_graphs(1, 1, 1)) == 1


def test_generator_output_is_valid_and_deduplicated():
    for (g, n, e) in [(2, 0, 3), (1, 2, 2), (2, 1, 2), (0, 5, 2)]:
        graphs = stable_graphs(g, n, e)
        keys = {x.canonical_key for x in graphs}
        assert len(keys) == len(graphs)
        for x in graphs:
            assert x.genus == g and x.n_legs == n and x.n_edges == e


def test_known_stratum_counts_depth_two_and_three():
    # genus 2, no legs: two two-edge classes (a genus-0 vertex with two
    # loops; a looped genus-0 vertex attached to a genus-1 vertex) and two
    # deepest classes (the theta graph and the dumbbell)
    assert len(stable_graphs(2, 0, 2)) == 2
    assert len(stable_graphs(2, 0, 3)) == 2


def test_leg_label_equivariance():
    # permuting leg labels is a bijection on isomorphism classes
    for e in range(0, 3):
        assert len(stable_graphs(1, 3, e)) == len(stable_graphs(1, 3, e))
        graphs = stable_graphs(0, 4, e)
        swapped = set()
        for x in graphs:
            legs = {label: x.vertex_of[h] for label, h in x.legs}
            legs[1], legs[2] = legs[2], legs[1]
            edges = [
                (x.vertex_of[h1], x.vertex_of[h2]) for h1, h2 in x.edges
            ]
            swapped.add(build_graph(x.genera, edges, legs).canonical_key)
        assert swapped == {x.canonical_key for x in graphs}


def test_spanning_set_counts_from_the_tables():
    assert len(decorated_basis(0, 3, 0, "mbar")) == 1
    total_genus4 = sum(
        len(decorated_basis(4, 0, k, "ct")) for k in range(top_degree("ct", 4, 0) + 1)
    )
    assert total_genus4 == 30
    assert len(decorated_basis(5, 0, 3, "ct")) == 31


def test_codimension_zero_is_the_fundamental_class():
    for (g, n, space) in [(2, 0, "mbar"), (3, 1, "ct"), (4, 0, "rt")]:
        basis = decorated_basis(g, n, 0, space)
        assert len(basis) == 1
        d = basis[0]
        assert d.graph.n_vertices == 1 and d.codim == 0


def test_space_predicates():
    loop = build_graph([1], edges=[(0, 0)])
    tree = build_graph([1, 1], edges=[(0, 1)])
    rt_tree = build_graph([4, 0], edges=[(0, 1)], legs={1: 1, 2: 1})
    assert space_admits(loop, "mbar") and not space_admits(loop, "ct")
    assert space_admits(tree, "ct") and not space_admits(tree, "rt")
    assert rt_tree.genus == 4 and space_admits(rt_tree, "rt")
    with pytest.raises(ValueError):
        decorated_basis(1, 1, 0, "rt")


def test_every_basis_element_passes_the_bound():
    for d in decorated_basis(3, 1, 2, "ct"):
        for v in range(d.graph.n_vertices):
            assert d.vertex_codim(v) < vertex_decoration_bound(d.graph, v)


def test_closed_vertex_socle_rule():
    # on a closed genus-4 vertex the pure kappa_1 square is redundant and
    # omitted, while kappa_2 stays; at genus 6 codimension 2 both survive
    deg2 = [d for d in decorated_basis(4, 0, 2, "ct") if d.graph.n_vertices == 1]
    monos = {d.kappa[0] for d in deg2}
    assert ((2, 1),) in monos and ((1, 2),) not in monos
    deg2_g6 = [d for d in decorated_basis(6, 0, 2, "rt") if d.graph.n_vertices == 1]
    monos6 = {d.kappa[0] for d in deg2_g6}
    assert ((2, 1),) in monos6 and ((1, 2),) in monos6
