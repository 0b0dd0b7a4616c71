from __future__ import annotations

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from strataring import enumeration, stores
from strataring.algebra import DecoratedGraph, FormalSum
from strataring.enumeration import (
    _apply_split,
    _closure,
    _one_edge_refinements,
    common_refinements,
    decorated_basis,
    space_admits,
    stable_graphs,
    top_degree,
    vertex_decoration_bound,
)
from strataring.grammar import load_sum
from strataring.graphs import StableGraph, build_graph, intern
from strataring.pairing import integrate_product
from strataring.structures import _automorphisms

SRC = Path(__file__).resolve().parent.parent / "src"


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


# -- the sweep against one that canonicalizes every candidate -------------


def _every_refinement(X: StableGraph):
    """Every one-edge refinement of ``X``, mirror twins included: each unit
    of vertex genus traded for a loop, then per vertex, per genus of the
    old side, per leg moved or not, per count of moved halves of each
    bundle of parallel edges, and per count of loops that stay and split,
    one split."""
    nh = X.n_halfedges
    for v in range(X.n_vertices):
        if X.genera[v] >= 1:
            genera = list(X.genera)
            genera[v] -= 1
            yield StableGraph(
                tuple(genera), X.vertex_of + (v, v), X.partner + (nh + 1, nh), X.legs
            )
    for v in range(X.n_vertices):
        at = X.halfedges_at[v]
        legs = [h for h in at if X.partner[h] == h]
        loops = [(h, X.partner[h]) for h in at if X.vertex_of[X.partner[h]] == v and h < X.partner[h]]
        bundles: dict[int, list[int]] = {}
        for h in at:
            w = X.vertex_of[X.partner[h]]
            if X.partner[h] != h and w != v:
                bundles.setdefault(w, []).append(h)
        bundles = [bundles[w] for w in sorted(bundles)]
        L = len(loops)
        for ga in range(X.genera[v] + 1):
            for leg_bits in product((0, 1), repeat=len(legs)):
                for counts in product(*(range(len(b) + 1) for b in bundles)):
                    for stay in range(L + 1):
                        for split in range(L - stay + 1):
                            moved = {h for h, bit in zip(legs, leg_bits) if bit}
                            for halves, k in zip(bundles, counts):
                                moved.update(halves[:k])
                            moved.update(h for loop in loops[stay + split :] for h in loop)
                            split_loops = loops[stay : stay + split]
                            yield from _apply_split(
                                X, v, ga, X.genera[v] - ga, moved, split_loops
                            )


def _reference_levels(g: int, n: int, space: str):
    """``(graphs, refined)`` of every edge count, each candidate
    canonicalized: the first graph met of each class is kept, and
    ``refined`` holds, per graph of the level below, the keys of the
    graphs here that contract one edge onto it."""
    levels = [(stable_graphs(g, n, 0, space), ())]
    for _ in range(3 * g - 3 + n):
        found: dict[str, StableGraph] = {}
        refined = []
        for X in levels[-1][0]:
            keys = set()
            for Y in _every_refinement(X):
                if space_admits(Y, space):
                    keys.add(found.setdefault(Y.canonical_key, Y).canonical_key)
            refined.append(keys)
        levels.append((tuple(found[k] for k in sorted(found)), refined))
    return levels


_SWEEPS = [
    (4, 0, "mbar"),
    (3, 1, "mbar"),
    pytest.param(2, 3, "mbar", marks=pytest.mark.slow),
    pytest.param(0, 7, "mbar", marks=pytest.mark.slow),
    pytest.param(1, 5, "mbar", marks=pytest.mark.slow),
    (5, 0, "ct"),
    pytest.param(4, 2, "ct", marks=pytest.mark.slow),
    (3, 3, "rt"),
]


@pytest.mark.parametrize("g, n, space", _SWEEPS)
def test_the_sweep_keeps_what_canonicalizing_every_candidate_keeps(g, n, space):
    # a skipped mirror split has a twin that was tried, so each level has
    # the classes of the full sweep, and each class the same graphs one
    # edge above it; the graphs kept are the interned representatives
    levels = _reference_levels(g, n, space)
    for e, (graphs, refined) in enumerate(levels):
        kept = stable_graphs(g, n, e, space)
        assert [G.canonical_key for G in kept] == [G.canonical_key for G in graphs]
        assert all(G is intern(G)[0] for G in kept)
        for X, keys in zip(levels[e - 1][0] if e else (), refined):
            assert {A.canonical_key for A in _closure(X, space, e)[1]} == keys


def test_each_split_is_tried_once_per_mirror_pair():
    candidates = sum(
        len(list(_one_edge_refinements(X)))
        for e in range(9)
        for X in stable_graphs(4, 0, e)
    )
    assert candidates <= 1618  # 2,726 with both splits of each mirror pair
    every = sum(len(list(_every_refinement(X))) for e in range(9) for X in stable_graphs(4, 0, e))
    assert every == 2726


# -- automorphisms from the structures of a graph on itself ---------------


@pytest.mark.parametrize("g, n, space", [(4, 0, "mbar"), (2, 2, "mbar"), (0, 6, "mbar"), (5, 1, "ct")])
def test_automorphisms_of_every_graph_of_a_sweep(g, n, space):
    for e in range(top_degree("mbar", g, n) + 1):
        for A in stable_graphs(g, n, e, space):
            auts = _automorphisms(A)
            assert len(set(auts)) == len(auts) == A.aut_order
            assert auts[0] == (tuple(range(A.n_halfedges)), tuple(range(A.n_vertices)))
            for hmap, vmap in auts:
                assert sorted(hmap) == list(range(A.n_halfedges))
                assert sorted(vmap) == list(range(A.n_vertices))
                assert all(A.partner[hmap[h]] == hmap[A.partner[h]] for h in range(A.n_halfedges))
                assert all(A.vertex_of[hmap[h]] == vmap[A.vertex_of[h]] for h in range(A.n_halfedges))
                assert all(A.genera[vmap[v]] == A.genera[v] for v in range(A.n_vertices))
                assert all(hmap[h] == h for _, h in A.legs)
    assert stores.sizes()["structures"] > 0
    stores.clear()
    assert not any(stores.sizes().values())


# -- the walk of a product -------------------------------------------------


def _m4_six_edge_class():
    # two genus-1 vertices and three genus-0 ones, joined by six edges
    return build_graph([1, 0, 1, 0, 0], [(1, 4), (3, 4), (0, 1), (3, 2), (1, 3), (3, 4)])


def test_a_product_on_m4_walks_up_from_the_larger_factor(monkeypatch, fixtures_dir):
    # the carriers of the 33-term relation against a 6-edge class lie above
    # that class: the walk refines 8 classes, not the 379 of M_4-bar
    refined = []
    real = enumeration._one_edge_refinements

    def counted(X):
        refined.append(X.canonical_key)
        return real(X)

    stores.clear()
    monkeypatch.setattr(enumeration, "_relation", {})
    monkeypatch.setattr(enumeration, "_one_edge_refinements", counted)
    relation = load_sum(str(fixtures_dir / "m4_relation.sum"))
    B = FormalSum.unit(DecoratedGraph(_m4_six_edge_class()))
    assert integrate_product(relation, B, "mbar") == 0
    assert 0 < len(refined) == len(set(refined)) <= 10
    stores.clear()


_PRESENTATIONS = """
from strataring.enumeration import stable_graphs
print([[(G.genera, G.vertex_of, G.partner, G.legs) for G in stable_graphs(4, 0, e)]
       for e in range(10)])
"""

_PRODUCT_FIRST = """
from strataring import DecoratedGraph, FormalSum, load_sum
from strataring.graphs import build_graph
from strataring.pairing import integrate_product
relation = load_sum({path!r})
B = build_graph([1, 0, 1, 0, 0], [(1, 4), (3, 4), (0, 1), (3, 2), (1, 3), (3, 4)])
assert integrate_product(relation, FormalSum.unit(DecoratedGraph(B)), "mbar") == 0
"""


def test_the_graphs_of_a_sweep_do_not_depend_on_an_earlier_product(fixtures_dir):
    # every graph kept is the interned representative of its class, so a
    # product that met some classes first leaves the same presentations
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    product_first = _PRODUCT_FIRST.format(path=str(fixtures_dir / "m4_relation.sum"))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
            check=True,
        ).stdout
        for code in (_PRESENTATIONS, product_first + _PRESENTATIONS)
    ]
    assert outputs[0] and outputs[0] == outputs[1]
