"""The materialized product against its definition, structure by structure."""

from __future__ import annotations

from random import Random

import pytest

import strataring.canon as canon
from strataring import stores
from strataring.algebra import (
    FormalSum,
    _compositions,
    _expand_structure_raw,
    _multinomial,
    _orbit_code,
    _product_terms,
    multiply,
    normalize,
)
from strataring.enumeration import decorated_basis
from strataring.grammar import load_sum, sum_to_text
from strataring.structures import _automorphisms, enumerate_generic_pairs
from conftest import dec
from per_pair import multiply_per_term, pair_contributions, transport


def _per_structure_product(x: FormalSum, y: FormalSum) -> FormalSum:
    """The product as ``pair_contributions`` promises it: every structure's
    own expansion, weighted by ``1/|Aut A|``, added term by term."""
    out = FormalSum(x.g, x.n)
    for cG, dG in x.terms.values():
        for cH, dH in y.terms.values():
            for A, _, terms in pair_contributions(dG, dH):
                for coeff, d in terms:
                    out._add(cG * cH * coeff / A.aut_order, d)
    return out


def _transported_keys(x: FormalSum, y: FormalSum):
    """``(carrier, psi, kappa jobs, common edges)`` of every structure."""
    for _, dG in x.terms.values():
        RG, decoG = dG._interned
        for _, dH in y.terms.values():
            RH, decoH = dH._interned
            for A, pairs in enumerate_generic_pairs(RG, RH):
                for pair in pairs:
                    psi, jobs = transport(A, pair, decoG, decoH)
                    yield A, psi, jobs, pair.common_edges


def _assert_matches_reference(x: FormalSum, y: FormalSum) -> FormalSum:
    product = multiply(x, y)
    reference = _per_structure_product(x, y)
    assert product == reference
    # no term of these products cancels partway, so the first raw term of
    # each class is the printed representative on both sides
    assert sum_to_text(product) == sum_to_text(reference)
    return product


def test_worked_product_matches_the_per_structure_sum(fixtures_dir):
    g = load_sum(str(fixtures_dir / "worked_product_g.sum"))
    h = load_sum(str(fixtures_dir / "worked_product_h.sum"))
    assert len(_assert_matches_reference(g, h)) == 7
    _assert_matches_reference(h, g)


def test_products_of_genus_two_classes_match_the_per_structure_sum():
    classes = [FormalSum.unit(d) for k in (1, 2) for d in decorated_basis(2, 1, k, "mbar")]
    common_by_value: dict[tuple, set] = {}
    nonzero = 0
    for x in classes:
        for y in classes:
            nonzero += len(_assert_matches_reference(x, y)) > 0
            for A, psi, jobs, common in _transported_keys(x, y):
                common_by_value.setdefault((id(A), psi, tuple(sorted(jobs))), set()).add(common)
    assert nonzero > len(classes)
    # structures with the same transported decoration but other common
    # edges: their keys must stay apart
    assert any(len(common) > 1 for common in common_by_value.values())


# kappa on the vertex of the smooth curve, or on a vertex of a
# separating edge, times graphs that split that vertex into several
# vertices of the carrier; kappa_1^2 spreads as 2 * (1, 1) over two
_FIBRE_CASES = [
    (dec([2], legs={1: 0}, kappa={0: ((1, 1),)}), dec([1, 1], [(0, 1)], legs={1: 0})),
    (
        dec([1, 1], [(0, 1)], legs={1: 1}, kappa={1: ((1, 2),)}),
        dec([1, 0, 1], [(0, 1), (1, 2)], legs={1: 1}),
    ),
    (
        dec([1, 1], [(0, 1)], legs={1: 1}, kappa={0: ((1, 1),), 1: ((2, 1),)}),
        dec([1, 0, 1], [(0, 1), (1, 2)], legs={1: 1}, kappa={2: ((1, 1),)}),
    ),
    # two kappa jobs whose fibres some structures list out of sorted
    # order: the raw terms are listed in the first structure's order,
    # which picks the printed representatives
    (
        dec([1, 1], [(0, 1)], legs={1: 0}, kappa={0: ((1, 1),)}),
        dec([1, 1], [(0, 1)], legs={1: 0}, kappa={0: ((1, 1),)}),
    ),
]


def test_kappa_spread_over_a_fibre_of_several_vertices():
    for dx, dy in _FIBRE_CASES:
        x, y = FormalSum.unit(dx), FormalSum.unit(dy)
        assert any(
            len(fibre) > 1 for _, _, jobs, _ in _transported_keys(x, y) for fibre, _, _ in jobs
        )
        assert len(_assert_matches_reference(x, y)) > 1


# the H-edge maps to either edge of the chain, which the psi class at its
# end tells apart: same transported decoration, other excess
_COMMON_EDGE_CASE = (
    dec([1, 1, 1], [(0, 1), (1, 2)], psi={0: 1}),
    dec([1, 2], [(0, 1)]),
)


def test_structures_that_differ_only_in_common_edges():
    x, y = map(FormalSum.unit, _COMMON_EDGE_CASE)
    common_by_value: dict[tuple, set] = {}
    for A, psi, jobs, common in _transported_keys(x, y):
        common_by_value.setdefault((id(A), psi, jobs), set()).add(common)
    assert any(len(common) > 1 for common in common_by_value.values())
    _assert_matches_reference(x, y)


def test_a_difference_whose_products_cancel():
    # a.c and b.c share a term with coefficients 8 and 1, so 1*a - 8*b
    # cancels it
    basis2 = decorated_basis(2, 1, 2, "mbar")
    a, b = FormalSum.unit(basis2[0]), FormalSum.unit(basis2[2])
    c = FormalSum.unit(decorated_basis(2, 1, 1, "mbar")[0])
    ac, bc = multiply(a, c), multiply(b, c)
    shared = set(ac.terms) & set(bc.terms)
    assert [(ac.terms[k][0], bc.terms[k][0]) for k in shared] == [(8, 1)]
    difference = a - b.scale(8)
    product = multiply(difference, c)
    assert product == _per_structure_product(difference, c) == ac - bc.scale(8)
    assert not shared & set(product.terms)


def test_multiply_canonicalizes_each_distinct_raw_decoration_once(fixtures_dir, monkeypatch):
    relation = load_sum(str(fixtures_dir / "m21_relation.sum"))
    raw = set()
    expansion_terms = 0
    for _, dG in relation.terms.values():
        for _, dH in relation.terms.values():
            for A, _, terms in pair_contributions(dG, dH):
                expansion_terms += len(terms)
                raw.update((id(A), d.psi, d.kappa) for _, d in terms)
    bound = len(raw) + len(relation)
    assert expansion_terms > bound  # one search per expansion term would fail
    calls = []
    real = canon.canonical_data
    monkeypatch.setattr(canon, "canonical_data", lambda *a: calls.append(a) or real(*a))
    product = multiply(relation, relation)
    assert len(calls) <= bound
    assert product == _per_structure_product(relation, relation)


def _reference_expansion(A, base_psi, kappa_jobs, common_edges):
    """The recursive expansion that ``_expand_structure_raw`` replaced:
    kappa jobs first, then one psi bump per common edge, each as a nested
    recursion, with the kappa tuple rebuilt for every bump choice."""
    job_expansions = []
    for fiber, j, f in kappa_jobs:
        opts = []
        for counts in _compositions(f, len(fiber)):
            placement = tuple((x, j, c) for x, c in zip(fiber, counts) if c)
            opts.append((_multinomial(f, counts), placement))
        job_expansions.append(opts)
    excess_options = [((e[0],), (e[1],)) for e in common_edges]
    sign = (-1) ** len(common_edges)
    out = []

    def rec_jobs(i, coeff, placements):
        if i == len(job_expansions):
            rec_excess(0, coeff, placements, ())
            return
        for c, placement in job_expansions[i]:
            rec_jobs(i + 1, coeff * c, placements + placement)

    def rec_excess(i, coeff, placements, bumps):
        if i == len(excess_options):
            psi = list(base_psi)
            for h in bumps:
                psi[h] += 1
            kappa_acc = [dict() for _ in range(A.n_vertices)]
            for x, j, c in placements:
                kappa_acc[x][j] = kappa_acc[x].get(j, 0) + c
            out.append(
                (sign * coeff, tuple(psi), tuple(tuple(sorted(k.items())) for k in kappa_acc))
            )
            return
        for choice in excess_options[i]:
            rec_excess(i + 1, coeff, placements, bumps + choice)

    rec_jobs(0, 1, ())
    return out


def _products_of_this_file(fixtures_dir):
    """Every product that the tests of this file take, as ``(x, y)``."""
    g = load_sum(str(fixtures_dir / "worked_product_g.sum"))
    h = load_sum(str(fixtures_dir / "worked_product_h.sum"))
    relation = load_sum(str(fixtures_dir / "m21_relation.sum"))
    classes = [FormalSum.unit(d) for k in (1, 2) for d in decorated_basis(2, 1, k, "mbar")]
    basis2 = decorated_basis(2, 1, 2, "mbar")
    difference = FormalSum.unit(basis2[0]) - FormalSum.unit(basis2[2]).scale(8)
    products = [(g, h), (h, g), (relation, relation), (difference, classes[0])]
    products += [(x, y) for x in classes for y in classes]
    products += [tuple(map(FormalSum.unit, case)) for case in _FIBRE_CASES + [_COMMON_EDGE_CASE]]
    return products


def test_expansion_matches_the_recursive_reference_term_by_term(fixtures_dir):
    # every value key of the products of this file; the order of the raw
    # terms picks the printed representatives, so it must match too
    keys = {
        (A, psi, jobs, common)
        for x, y in _products_of_this_file(fixtures_dir)
        for A, psi, jobs, common in _transported_keys(x, y)
    }
    for key in keys:
        assert _expand_structure_raw(*key) == _reference_expansion(*key), key
    assert any(len(fibre) > 1 for _, _, jobs, _ in keys for fibre, _, _ in jobs)
    assert any(len(jobs) > 1 for _, _, jobs, _ in keys)
    assert any(len(common) > 1 for _, _, _, common in keys)


# -- one canonical search per Aut(A)-orbit ----------------------------------


def _assert_same_as_per_term(x: FormalSum, y: FormalSum) -> FormalSum:
    """``multiply`` against one search per raw term: the same keys in the
    same order, the same coefficients, and the same representative of each
    class (the carrier object itself, its psi and its kappa)."""
    reference = multiply_per_term(x, y)
    product = multiply(x, y)
    assert list(product.terms) == list(reference.terms)
    for key, (c, d) in product.terms.items():
        c_ref, d_ref = reference.terms[key]
        assert c == c_ref
        assert d.graph is d_ref.graph and (d.psi, d.kappa) == (d_ref.psi, d_ref.kappa)
        assert d.aut_order == d_ref.aut_order
    return product


def _decorated_searches(monkeypatch) -> list:
    calls = []
    real = canon.canonical_data

    def counted(g, psi=None, kappa=None):
        if psi is not None:
            calls.append(g)
        return real(g, psi, kappa)

    monkeypatch.setattr(canon, "canonical_data", counted)
    return calls


def _raw_terms_and_classes(x: FormalSum, y: FormalSum) -> tuple[int, int]:
    """The raw terms of ``x * y`` and the distinct classes among them,
    cancelled ones included: an isomorphism of two decorations of one
    carrier is an automorphism of it, so these are its ``Aut(A)``-orbits."""
    term_pairs = [(cG * cH, dG, dH) for cG, dG in x.terms.values() for cH, dH in y.terms.values()]
    count, keys = 0, set()
    for A, raw in _product_terms(term_pairs):
        count += len(raw)
        keys.update(canon.canonical_data(A, psi, kappa)[0] for psi, kappa in raw)
    return count, len(keys)


def test_the_worked_product_searches_once_per_orbit(fixtures_dir, monkeypatch):
    g = load_sum(str(fixtures_dir / "worked_product_g.sum"))
    h = load_sum(str(fixtures_dir / "worked_product_h.sum"))
    raw_terms, classes = _raw_terms_and_classes(g, h)
    assert classes < raw_terms
    stores.clear()
    calls = _decorated_searches(monkeypatch)
    assert len(multiply(g, h)) == 7
    assert len(calls) == classes
    calls.clear()
    multiply(h, g)
    assert calls == []  # the memo outlives a call
    _assert_same_as_per_term(g, h)
    _assert_same_as_per_term(h, g)
    assert stores.sizes()["orbits"] > 0
    stores.clear()
    assert stores.sizes()["orbits"] == 0


def _relabeled(d, rng):
    vertices = list(range(d.graph.n_vertices))
    halves = list(range(d.graph.n_halfedges))
    rng.shuffle(vertices)
    rng.shuffle(halves)
    return d.relabeled(dict(enumerate(halves)), dict(enumerate(vertices)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_divisor_triples_of_genus_two(seed):
    # the two boundary divisors of M_2-bar, presented at random, in random
    # combinations; the associativity products of the benchmark
    divisors = [dec([1], [(0, 0)]), dec([1, 1], [(0, 1)])]
    rng = Random(seed)
    x, y, z = (
        FormalSum(2, 0, [(rng.choice((-3, -2, -1, 1, 2, 3)), _relabeled(d, rng)) for d in divisors])
        for _ in range(3)
    )
    stores.clear()
    xy = _assert_same_as_per_term(x, y)
    yz = _assert_same_as_per_term(y, z)
    _assert_same_as_per_term(y, x)
    _assert_same_as_per_term(normalize(xy), z)
    _assert_same_as_per_term(x, normalize(yz))


def test_the_genus_five_relation_squared(fixtures_dir, monkeypatch):
    relation = load_sum(str(fixtures_dir / "g5_relation.sum"))
    raw_terms, classes = _raw_terms_and_classes(relation, relation)
    assert classes < raw_terms
    stores.clear()
    calls = _decorated_searches(monkeypatch)
    square = multiply(relation, relation)
    assert len(calls) == classes
    stores.clear()
    assert _assert_same_as_per_term(relation, relation) == square


def test_a_carrier_with_loop_flips():
    # a genus-0 vertex with a loop and one leg: Aut is the loop flip, which
    # exchanges the raw terms psi on one half of the loop and on the other
    loop = dec([0], [(0, 0)], legs={1: 0}, psi={0: 1})
    A = multiply_per_term(FormalSum.unit(loop), FormalSum.unit(loop)).items()[0][1].graph
    auts = _automorphisms(A)
    assert len(auts) == A.aut_order == 2
    (h1, h2), = A.edges
    assert [hmap[h1] for hmap, _ in auts] == [h1, h2]
    stores.clear()
    square = _assert_same_as_per_term(FormalSum.unit(loop), FormalSum.unit(loop))
    # -psi_1 - psi_2 times psi_1: psi_1^2 and psi_1 psi_2 are one orbit each
    assert len(square) == 2
    # a loop with other graphs: the flips of two loops and their swap
    two_loops = dec([0], [(0, 0), (0, 0)], legs={1: 0}, psi={0: 2, 3: 1})
    divisor = dec([0, 1], [(0, 0), (0, 1)], legs={1: 1})
    _assert_same_as_per_term(FormalSum.unit(two_loops), FormalSum.unit(divisor))
    _assert_same_as_per_term(FormalSum.unit(divisor), FormalSum(2, 1, [(1, two_loops), (-2, divisor)]))


def test_exponents_that_do_not_fit_a_byte():
    # 300 and 44 agree modulo 256: a code that wrapped would merge them
    assert _orbit_code((300, 0), ((),)) == ((300, 0), ((),))
    assert _orbit_code((44, 0), ((),)) == bytes((44, 0))
    assert _orbit_code((1, 0), (((300, 1),),)) != _orbit_code((1, 0), (((44, 1),),))
    terms = [
        (1, dec([0], [(0, 0)], legs={1: 0}, psi={2: 300})),
        (1, dec([0], [(0, 0)], legs={1: 0}, psi={2: 44})),
        (3, dec([0], [(0, 0)], legs={1: 0}, psi={0: 256, 2: 1})),
    ]
    x = FormalSum(1, 1, terms)
    loop = FormalSum.unit(dec([0], [(0, 0)], legs={1: 0}))
    stores.clear()
    for _ in range(2):  # cold, then from the memo
        product = _assert_same_as_per_term(x, loop)
        legs = {d.psi[d.graph.leg_of_label[1]] for _, d in product.terms.values()}
        assert legs == {300, 44, 1}
