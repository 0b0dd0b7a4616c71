from __future__ import annotations

import random
from fractions import Fraction

import strataring.algebra as algebra
from strataring.algebra import (
    DecoratedGraph,
    FormalSum,
    _expand_structure_raw,
    _generic_pairs_interned,
    _sparse,
    _transport,
    multiply,
)
from strataring.enumeration import decorated_basis, top_degree
from strataring.grammar import load_sum
from strataring.integrals import hodge_split, integrate_graph, integrate_sum
from strataring.pairing import _carrier_total, integrate_product, kind_for_space
from conftest import dec


def test_fused_product_integration_matches_multiply_then_integrate():
    rng = random.Random(41)
    for g, n, space in [(2, 0, "mbar"), (2, 1, "mbar"), (3, 1, "ct"), (2, 2, "rt")]:
        kind = kind_for_space(space)
        top = top_degree(space, g, n)
        for _ in range(8):
            k = rng.randint(0, top)
            x = FormalSum.unit(rng.choice(decorated_basis(g, n, k, space)))
            y = FormalSum.unit(rng.choice(decorated_basis(g, n, top - k, space)))
            assert integrate_product(x, y, kind) == integrate_sum(multiply(x, y), kind)


def test_fused_product_integration_off_top_terms_vanish():
    x = FormalSum.unit(decorated_basis(2, 0, 1, "mbar")[0])
    assert integrate_product(x, x, "fundamental") == 0


def test_pairings_of_graphs_outside_the_space_build_no_carriers(monkeypatch):
    monkeypatch.setattr(algebra, "_pair_cache", {})
    loop = FormalSum.unit(dec([1], edges=[(0, 0)], legs={1: 0}))  # a cycle
    bridge = FormalSum.unit(dec([1, 1], edges=[(0, 1)], legs={1: 0}))
    point = FormalSum.unit(dec([2], legs={1: 0}))
    assert integrate_product(loop, bridge, "ct") == 0
    assert integrate_product(point, loop, "rt") == 0
    assert len(algebra._pair_cache) == 0
    # two trees of the same degrees do build their carriers
    integrate_product(bridge, bridge, "ct")
    assert len(algebra._pair_cache) == 1


def test_mbar_graphs_paired_under_ct_and_rt_match_multiply_then_integrate():
    rng = random.Random(7)
    nonzero = 0
    for g, n in [(2, 0), (2, 1), (1, 3), (2, 2)]:
        for space in ("ct", "rt"):
            kind = kind_for_space(space)
            top = top_degree(space, g, n)
            for _ in range(6):
                k = rng.randint(0, top)
                x = FormalSum.unit(rng.choice(decorated_basis(g, n, k, "mbar")))
                y = FormalSum.unit(rng.choice(decorated_basis(g, n, top - k, "mbar")))
                value = integrate_product(x, y, kind)
                assert value == integrate_sum(multiply(x, y), kind)
                nonzero += value != 0
    assert nonzero > 0


def _unmemoized_value(A, pair, x, y, kind) -> Fraction:
    """One structure's contribution expanded on its own and integrated term
    by term, as ``integrate_sum`` would."""
    _, psiG, kappaG = x._interned
    _, psiH, kappaH = y._interned
    return sum(
        (
            coeff * integrate_graph(DecoratedGraph(A, psi, kappa), kind)
            for coeff, psi, kappa in _expand_structure_raw(A, pair, psiG, kappaG, psiH, kappaH)
        ),
        Fraction(0),
    )


def _term_pairs(g, n, space):
    top = top_degree(space, g, n)
    for k in range(top + 1):
        for x in decorated_basis(g, n, k, space):
            for y in decorated_basis(g, n, top - k, space):
                yield x, y


def test_keyed_values_match_the_unmemoized_expansion():
    # kappa_1 on one vertex of a two-vertex graph: its fibre differs
    # between structures with the same transported psi
    kappa_on_one_side = [
        (
            dec([1, 1], edges=[(0, 1)], kappa={0: ((1, 1),)}),
            dec([1], edges=[(0, 0)]),
            "mbar",
        ),
        (
            dec([0, 1, 1], edges=[(0, 1), (0, 2)], legs={1: 0}, kappa={1: ((1, 1),)}),
            dec([1, 1], edges=[(0, 1)], legs={1: 0}),
            "mbar",
        ),
    ]
    cases = kappa_on_one_side + [
        (x, y, space)
        for g, n, space in [(2, 1, "mbar"), (2, 2, "ct")]
        for x, y in _term_pairs(g, n, space)
    ]
    memo = {}  # (id(carrier), kind) -> (carrier, {value key: value}), as in a call
    checked = multi_vertex_fibres = 0
    keys_by_psi: dict[tuple, set] = {}  # (carrier, psi, kappa) -> common edges
    for x, y, space in cases:
        kind = kind_for_space(space)
        RG, psiG, kappaG = x._interned
        RH, psiH, kappaH = y._interned
        decoG, decoH = _sparse(psiG, kappaG), _sparse(psiH, kappaH)
        for A, pairs in _generic_pairs_interned(RG, RH):
            split = hodge_split(A, kind)
            if split is None:
                continue
            values = memo.setdefault((id(A), kind), (A, {}))[1]
            for pair in pairs:
                keyed = _carrier_total(A, split, [pair], decoG, decoH, values)
                assert keyed == _unmemoized_value(A, pair, x, y, kind)
                checked += 1
                psi, jobs = _transport(A, pair, decoG, decoH)
                multi_vertex_fibres += any(len(fibre) > 1 for fibre, _, _ in jobs)
                keys_by_psi.setdefault((id(A), psi, tuple(sorted(jobs))), set()).add(
                    pair.common_edges
                )
    assert checked > 1000 and multi_vertex_fibres > 0
    assert any(len(common) > 1 for common in keys_by_psi.values())


def test_genus_four_relation_against_two_sampled_classes(fixtures_dir):
    # the fused pairing in genus 4, on a sample the slow criterion-6 test covers
    relation = load_sum(str(fixtures_dir / "m4_relation.sum"))
    basis = decorated_basis(4, 0, 6, "mbar")
    positions = random.Random(2008).sample(range(20, 95), 2)
    assert positions == [38, 89]
    nonzero_terms = []
    for pos in positions:
        b = FormalSum.unit(basis[pos])
        value = integrate_product(relation, b, "fundamental")
        assert value == 0
        per_term = [
            (c, integrate_product(FormalSum.unit(t), b, "fundamental"))
            for c, t in relation.terms.values()
        ]
        assert sum((c * p for c, p in per_term), Fraction(0)) == value
        nonzero_terms.append(sum(1 for _, p in per_term if p))
    assert nonzero_terms == [13, 5]
