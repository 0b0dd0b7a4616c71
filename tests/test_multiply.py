"""The materialized product against its definition, structure by structure."""

from __future__ import annotations

import strataring.canon as canon
from strataring.algebra import (
    FormalSum,
    _compositions,
    _expand_structure_raw,
    _multinomial,
    multiply,
)
from strataring.enumeration import decorated_basis
from strataring.grammar import load_sum, sum_to_text
from strataring.structures import enumerate_generic_pairs
from conftest import dec
from per_pair import pair_contributions, transport


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
