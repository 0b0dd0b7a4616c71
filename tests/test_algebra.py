from __future__ import annotations

import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strataring.algebra import (
    DecoratedGraph,
    FormalSum,
    LabelCollision,
    SpaceMismatch,
    UnknownHalfEdge,
    UnknownVertex,
    graft,
    graft_loop,
    kappa_apply,
    kappa_pullback,
    multiply,
    normalize,
    psi_apply,
    sigma,
)
from strataring.enumeration import decorated_basis, stable_graphs, top_degree
from strataring.graphs import LegLabelError, build_graph
from strataring.integrals import FUNDAMENTAL, integrate_sum
from conftest import dec


def test_codim_grading():
    assert dec([2]).codim == 0
    assert dec([3], [(0, 0)], kappa={0: ((2, 1),)}).codim == 3
    H = dec([0, 0, 0, 2], [(0, 0), (1, 1), (0, 2), (1, 2), (2, 3)], psi={9: 1})
    assert H.codim == 6


def test_kappa_and_psi_operators():
    d = dec([2])
    d2 = kappa_apply(2, 0, d)
    assert d2.kappa == (((2, 1),),)
    d11 = kappa_apply(1, 0, kappa_apply(1, 0, d))
    assert d11.kappa == (((1, 2),),)
    e = dec([1, 1], [(0, 1)])
    assert psi_apply(0, psi_apply(0, e)).psi[0] == 2
    with pytest.raises(UnknownVertex):
        kappa_apply(1, 5, d)
    with pytest.raises(UnknownHalfEdge):
        psi_apply(9, d)
    with pytest.raises(ValueError):
        kappa_apply(0, 0, d)  # kappa_0 is a scalar, not a decoration


def test_a_repeated_kappa_index_is_one_power():
    # kappa_1 * kappa_1 on one vertex is kappa_1^2, however it is written
    G = build_graph([1, 1], [(0, 1)], {1: 0})
    psi = (0,) * G.n_halfedges
    a = DecoratedGraph(G, psi, [((1, 1), (1, 1)), ()])
    b = DecoratedGraph(G, psi, [((1, 2),), ()])
    assert a.kappa == b.kappa == (((1, 2),), ())
    assert a == b and a.codim == b.codim == 3
    assert len(FormalSum(2, 1, [(1, a), (-1, b)])) == 0
    mixed = DecoratedGraph(G, psi, [((2, 1), (1, 1), (2, 2)), ((1, 1),)])
    assert mixed.kappa == (((1, 1), (2, 3)), ((1, 1),))
    with pytest.raises(ValueError):
        DecoratedGraph(G, psi, [((1, 1), (1, 0)), ()])


def test_kappa_pullback():
    single = FormalSum.unit(dec([2]))
    out = kappa_pullback(1, single)
    assert len(out) == 1 and next(iter(out.terms.values()))[0] == 1
    two = FormalSum.unit(dec([1, 2], [(0, 1)]))
    assert len(kappa_pullback(1, two)) == 2
    assert len(kappa_pullback(1, FormalSum(3, 0))) == 0


def test_multiply_commutes_and_grades():
    rng = random.Random(2)
    spaces = [(2, 0, "mbar"), (1, 2, "mbar"), (2, 1, "mbar")]
    for g, n, space in spaces:
        top = top_degree(space, g, n)
        for _ in range(4):
            k1 = rng.randint(0, top)
            k2 = rng.randint(0, top - k1)
            b1 = decorated_basis(g, n, k1, space)
            b2 = decorated_basis(g, n, k2, space)
            x = FormalSum.unit(rng.choice(b1))
            y = FormalSum.unit(rng.choice(b2))
            xy = multiply(x, y)
            assert xy == multiply(y, x)
            assert xy.codimensions() <= {k1 + k2}


def test_multiply_space_mismatch():
    with pytest.raises(SpaceMismatch):
        multiply(FormalSum.unit(dec([2])), FormalSum.unit(dec([3])))


def test_multiply_by_fundamental_class_is_identity():
    one = FormalSum.unit(dec([2]))
    for d in decorated_basis(2, 0, 2, "mbar"):
        assert normalize(multiply(one, FormalSum.unit(d))) == normalize(
            FormalSum.unit(d)
        )


def test_divisor_self_intersection_on_genus_two():
    # one-edge genus-splitting class: the square carries the excess term
    delta = dec([1, 1], [(0, 1)])
    sq = multiply(FormalSum.unit(delta), FormalSum.unit(delta))
    bumped = dec([1, 1], [(0, 1)], psi={0: 1})
    assert sq.coefficient(bumped) == -4
    assert len(sq) == 1
    cube = multiply(sq, FormalSum.unit(delta))
    assert integrate_sum(cube, FUNDAMENTAL) == F(1, 72)


def test_normalize_drops_dimension_vanishing_terms():
    # kappa_2 on a genus-0 three-valent vertex is zero for dimension reasons
    bad = dec([0, 2], [(0, 1), (0, 1), (0, 1)], kappa={0: ((2, 1),)})
    assert len(normalize(FormalSum.unit(bad))) == 0
    # psi^2 on the leg of a one-pointed genus-1 vertex
    bad2 = dec([1], legs={1: 0}, psi={0: 2})
    assert len(normalize(FormalSum.unit(bad2))) == 0
    kept = dec([1, 1], [(0, 1)], psi={0: 1})
    assert len(normalize(FormalSum.unit(kept))) == 1


def test_sigma_normalization():
    d = dec([1, 1], [(0, 1)])
    assert sigma(d).coefficient(d) == F(1, 2)
    # decoration-breaking symmetry still divides by the underlying order
    d2 = dec([1, 1], [(0, 1)], psi={0: 1})
    assert sigma(d2).coefficient(d2) == F(1, 2)


def test_graft_basic():
    piece = FormalSum.unit(dec([1], legs={1: 0}))
    host = dec([1], legs={1: 0})
    out = graft(piece, host, piece_leg=1, host_leg=1)
    (coeff, d), = out.items()
    assert coeff == 1
    assert d.graph.n_edges == 1 and d.graph.n_legs == 0 and d.graph.genus == 2


def test_graft_carries_decorations_onto_the_new_edge():
    piece = FormalSum.unit(dec([1], legs={1: 0}, psi={0: 2}))
    host = dec([2], legs={1: 0}, kappa={0: ((1, 1),)})
    out = graft(piece, host, 1, 1)
    (_, d), = out.items()
    h = d.graph.edges[0]
    assert sorted((d.psi[h[0]], d.psi[h[1]])) == [0, 2]
    assert ((1, 1),) in d.kappa


def test_graft_label_collision():
    piece = FormalSum.unit(dec([1], legs={1: 0, 2: 0}))
    host = dec([1], legs={1: 0, 2: 0})
    with pytest.raises(LabelCollision):
        graft(piece, host, 1, 1)
    ok = graft(piece, host, 1, 1, relabel={("piece", 2): 1})
    assert next(iter(ok.terms.values()))[1].graph.n_legs == 2


def test_gluing_with_labels_off_one_to_n_raises_a_leg_label_error():
    # joining legs never changes a vertex's half-edge count, so the glued
    # graph can only be wrong in its leg labels
    piece = FormalSum.unit(dec([0], legs={1: 0, 2: 0, 3: 0}))
    host = dec([1], legs={1: 0})
    with pytest.raises(LegLabelError, match="leg labels must be 1..n"):
        graft(piece, host, 1, 1, {("piece", 2): 5, ("piece", 3): 6})
    s = FormalSum.unit(dec([0], legs={1: 0, 2: 0, 3: 0, 4: 0}))
    with pytest.raises(LegLabelError, match="leg labels must be 1..n"):
        graft_loop(s, 1, 2)
    (_, d), = graft_loop(s, 1, 2, {3: 1, 4: 2}).items()
    assert d.graph.genus == 1 and sorted(d.graph.leg_of_label) == [1, 2]


def test_graft_loop():
    s = FormalSum.unit(dec([1], legs={1: 0, 2: 0}))
    out = graft_loop(s, 1, 2)
    (_, d), = out.items()
    assert d.graph.genus == 2 and d.graph.n_edges == 1 and d.graph.n_legs == 0


def test_associativity_under_integration():
    rng = random.Random(13)
    spaces = [(2, 0, "mbar"), (1, 2, "mbar"), (1, 3, "mbar")]
    done = 0
    while done < 10:
        g, n, space = rng.choice(spaces)
        top = top_degree(space, g, n)
        ks = []
        remaining = top
        for _ in range(2):
            k = rng.randint(0, remaining)
            ks.append(k)
            remaining -= k
        ks.append(remaining)
        if 0 in ks and rng.random() < 0.5:
            continue  # keep some spread away from trivial factors
        try:
            picks = [
                FormalSum.unit(rng.choice(decorated_basis(g, n, k, space))) for k in ks
            ]
        except IndexError:
            continue
        x, y, z = picks
        lhs = integrate_sum(multiply(multiply(x, y), z), FUNDAMENTAL)
        rhs = integrate_sum(multiply(x, multiply(y, z)), FUNDAMENTAL)
        assert lhs == rhs
        done += 1


def test_kappa_pullback_is_multiplication_by_kappa():
    # kappa_a . sigma_A = sum over vertices of sigma with one extra kappa_a
    kap = FormalSum.unit(dec([2], kappa={0: ((1, 1),)}))
    delta = FormalSum.unit(dec([1, 1], [(0, 1)]))
    assert multiply(kap, delta) == kappa_pullback(1, delta)
    host = FormalSum.unit(dec([1, 1], [(0, 1)], psi={0: 1}))
    kap2 = FormalSum.unit(dec([2], kappa={0: ((2, 1),)}))
    assert multiply(kap2, host) == kappa_pullback(2, host)


@lru_cache(maxsize=None)
def _graph_pool():
    return [
        G
        for g, n in [(2, 0), (1, 2), (2, 1), (0, 5), (3, 0)]
        for e in range(4)
        for G in stable_graphs(g, n, e)
    ]


@st.composite
def _decorated_and_relabeled(draw):
    G = draw(st.sampled_from(_graph_pool()))
    psi = draw(st.lists(st.integers(0, 2), min_size=G.n_halfedges, max_size=G.n_halfedges))
    kappa = draw(
        st.lists(
            st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2),
            min_size=G.n_vertices,
            max_size=G.n_vertices,
        )
    )
    d = DecoratedGraph(G, psi, [tuple(k.items()) for k in kappa])
    hperm = draw(st.permutations(range(G.n_halfedges)))
    vperm = draw(st.permutations(range(G.n_vertices)))
    return d, d.relabeled(dict(enumerate(hperm)), dict(enumerate(vperm)))


@settings(max_examples=300, deadline=None, database=None)
@given(_decorated_and_relabeled())
def test_decorated_canonical_key_is_invariant_under_relabeling(pair):
    d, e = pair
    assert e.canonical_key == d.canonical_key
    assert e.aut_order == d.aut_order
