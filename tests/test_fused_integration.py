from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import strataring.algebra as algebra
import strataring.integrals as integrals
import strataring.pairing as pairing
import strataring.structures as structures
from strataring.algebra import (
    DecoratedGraph,
    FormalSum,
    _compositions,
    _expand_structure_raw,
    _generic_pairs_interned,
    _key_tally,
    multiply,
)
from strataring.enumeration import decorated_basis, top_degree
from strataring.grammar import load_sum
from strataring.integrals import (
    EvaluationKind,
    evaluation_kind,
    hodge_split,
    integrate_graph,
    integrate_sum,
)
from strataring.pairing import integrate_product
from strataring.structures import PairStructure, enumerate_generic_pairs
from conftest import dec
from per_pair import per_pair_tally, transport
from test_multiply import _products_of_this_file as _products_of_test_multiply
from test_multiply import _transported_keys


def _sampled_pairs(seed, cases, draws):
    """``draws`` random complementary pairs of basis classes per ``(g, n,
    basis space, kind)``, as ``(x, y, kind)``."""
    rng = random.Random(seed)
    out = []
    for g, n, basis_space, kind in cases:
        kind = evaluation_kind(kind)
        top = top_degree(kind.space, g, n)
        for _ in range(draws):
            k = rng.randint(0, top)
            x = FormalSum.unit(rng.choice(decorated_basis(g, n, k, basis_space)))
            y = FormalSum.unit(rng.choice(decorated_basis(g, n, top - k, basis_space)))
            out.append((x, y, kind))
    return out


def _same_space_pairs():
    cases = [(2, 0, "mbar"), (2, 1, "mbar"), (3, 1, "ct"), (2, 2, "rt")]
    return _sampled_pairs(41, [(g, n, space, space) for g, n, space in cases], 8)


def _mbar_pairs_under_ct_and_rt():
    cases = [
        (g, n, "mbar", kind) for g, n in [(2, 0), (2, 1), (1, 3), (2, 2)] for kind in ("ct", "rt")
    ]
    return _sampled_pairs(7, cases, 6)


def test_fused_product_integration_matches_multiply_then_integrate():
    for x, y, kind in _same_space_pairs():
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
    nonzero = 0
    for x, y, kind in _mbar_pairs_under_ct_and_rt():
        value = integrate_product(x, y, kind)
        assert value == integrate_sum(multiply(x, y), kind)
        nonzero += value != 0
    assert nonzero > 0


def _unmemoized_value(A, pair, x, y, kind) -> Fraction:
    """One structure's contribution expanded on its own and integrated term
    by term, as ``integrate_sum`` would."""
    base_psi, jobs = transport(A, pair, x._interned[1], y._interned[1])
    return sum(
        (
            coeff * integrate_graph(DecoratedGraph(A, psi, kappa), kind)
            for coeff, psi, kappa in _expand_structure_raw(A, base_psi, jobs, pair.common_edges)
        ),
        Fraction(0),
    )


def _term_pairs(g, n, space):
    top = top_degree(space, g, n)
    for k in range(top + 1):
        for x in decorated_basis(g, n, k, space):
            for y in decorated_basis(g, n, top - k, space):
                yield x, y


def _keyed_cases():
    """``(x, y, space)`` decorated graphs whose structures are checked one
    by one."""
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
    return kappa_on_one_side + [
        (x, y, space)
        for g, n, space in [(2, 1, "mbar"), (2, 2, "ct")]
        for x, y in _term_pairs(g, n, space)
    ]


def test_keyed_values_match_the_unmemoized_expansion(monkeypatch):
    cases = _keyed_cases()
    fed_pairs = []  # (x, y, kind, carrier, pair)
    multi_vertex_fibres = 0
    keys_by_psi: dict[tuple, set] = {}  # (carrier, psi, kappa) -> common edges
    for x, y, space in cases:
        kind = evaluation_kind(space)
        RG, decoG = x._interned
        RH, decoH = y._interned
        total = Fraction(0)
        for A, pairs in enumerate_generic_pairs(RG, RH):
            # every carrier of two graphs of a space lies in that space
            assert hodge_split(A, kind) is not None
            for pair in pairs:
                fed_pairs.append((x, y, kind, A, pair))
                total += _unmemoized_value(A, pair, x, y, kind) / A.aut_order
                psi, jobs = transport(A, pair, decoG, decoH)
                multi_vertex_fibres += any(len(fibre) > 1 for fibre, _, _ in jobs)
                keys_by_psi.setdefault((id(A), psi, tuple(sorted(jobs))), set()).add(
                    pair.common_edges
                )
        # all structures at once: counted per value key, not one by one
        assert integrate_product(FormalSum.unit(x), FormalSum.unit(y), kind) == total
    # one pair at a time: its carrier, and the pair's own tally in place
    # of the side tallies
    fed = []
    monkeypatch.setattr(algebra, "_generic_pairs_interned", lambda RG, RH: fed)
    monkeypatch.setattr(
        algebra,
        "_key_tally",
        lambda A, pair, RG, decoG, RH, decoH, degrees: per_pair_tally(A, [pair], decoG, decoH),
    )
    for x, y, kind, A, pair in fed_pairs:
        fed[:] = [(A, pair)]
        value = integrate_product(FormalSum.unit(x), FormalSum.unit(y), kind)
        assert value * A.aut_order == _unmemoized_value(A, pair, x, y, kind)
    assert len(fed_pairs) > 1000 and multi_vertex_fibres > 0
    assert any(len(common) > 1 for common in keys_by_psi.values())


def _cancelled_keys(x: FormalSum, y: FormalSum) -> int:
    """Value keys met in several term pairs whose weights sum to zero."""
    weights: dict[tuple, Fraction] = {}
    for cG, dG in x.terms.values():
        for cH, dH in y.terms.values():
            for A, psi, jobs, common in _transported_keys(FormalSum.unit(dG), FormalSum.unit(dH)):
                key = (id(A), psi, tuple(sorted(jobs)), common)
                weights[key] = weights.get(key, 0) + cG * cH / A.aut_order
    return sum(1 for w in weights.values() if w == 0)


def _sum_cases(fixtures_dir):
    """``(x, y, space)`` sums, then the sums whose keys cancel."""
    relation = load_sum(str(fixtures_dir / "m21_relation.sum"))
    rng = random.Random(12)
    cases = []
    for space in ("mbar", "ct", "rt"):
        classes = decorated_basis(2, 1, top_degree(space, 2, 1) - 1, space)
        for _ in range(3):
            picked = rng.sample(classes, min(4, len(classes)))
            y = FormalSum(2, 1, [(rng.choice((-3, -2, -1, 1, 2, 3)), d) for d in picked])
            cases.append((relation, y, space))
    # sums whose value keys cancel across term pairs: a.c and b.c share a
    # key with weights 8 and 1, which a - 8b cancels (test_multiply.py);
    # against a itself, which is complementary on mbar, the weights are 64
    # and 4
    basis2 = decorated_basis(2, 1, 2, "mbar")
    a, b = FormalSum.unit(basis2[0]), FormalSum.unit(basis2[2])
    ct2, ct1 = (decorated_basis(2, 2, k, "ct") for k in (2, 1))
    cancelling = [
        (a - b.scale(16), a, "mbar"),
        (FormalSum(2, 2, [(1, ct2[4]), (-1, ct2[5])]), FormalSum.unit(ct1[4]), "ct"),
    ]
    return cases, cancelling


def test_fused_products_of_sums_match_multiply_then_integrate(fixtures_dir):
    cases, cancelling = _sum_cases(fixtures_dir)
    for x, y, _ in cancelling:
        assert _cancelled_keys(x, y) > 0
    nonzero = 0
    for x, y, space in cases + cancelling:
        value = integrate_product(x, y, space)
        assert value == integrate_sum(multiply(x, y), space)
        nonzero += value != 0
    assert nonzero > len(cancelling)


def _genus_four_samples(fixtures_dir):
    """The genus-4 relation and the two classes it is paired with."""
    relation = load_sum(str(fixtures_dir / "m4_relation.sum"))
    basis = decorated_basis(4, 0, 6, "mbar")
    positions = random.Random(2008).sample(range(20, 95), 2)
    assert positions == [38, 89]
    return relation, [FormalSum.unit(basis[pos]) for pos in positions]


def test_genus_four_relation_against_two_sampled_classes(fixtures_dir):
    # the fused pairing in genus 4, on a sample the slow criterion-6 test covers
    relation, samples = _genus_four_samples(fixtures_dir)
    nonzero_terms = []
    for b in samples:
        value = integrate_product(relation, b, "fundamental")
        assert value == 0
        per_term = [
            (c, integrate_product(FormalSum.unit(t), b, "fundamental"))
            for c, t in relation.terms.values()
        ]
        assert sum((c * p for c, p in per_term), Fraction(0)) == value
        nonzero_terms.append(sum(1 for _, p in per_term if p))
    assert nonzero_terms == [13, 5]


def _products_of_this_file(fixtures_dir):
    """Every product that the tests of this file integrate, as ``(x, y)``."""
    unit = FormalSum.unit
    products = [(x, y) for x, y, _ in _same_space_pairs() + _mbar_pairs_under_ct_and_rt()]
    products += [(unit(x), unit(y)) for x, y, _ in _keyed_cases()]
    cases, cancelling = _sum_cases(fixtures_dir)
    products += [(x, y) for x, y, _ in cases + cancelling]
    off_top = unit(decorated_basis(2, 0, 1, "mbar")[0])
    loop = unit(dec([1], edges=[(0, 0)], legs={1: 0}))
    bridge = unit(dec([1, 1], edges=[(0, 1)], legs={1: 0}))
    point = unit(dec([2], legs={1: 0}))
    products += [(off_top, off_top), (loop, bridge), (point, loop), (bridge, bridge)]
    relation, samples = _genus_four_samples(fixtures_dir)
    products += [(relation, b) for b in samples]
    return products


def _vertex_degrees(A, psi, kappa) -> list[int]:
    return [
        sum(psi[h] for h in A.halfedges_at[v]) + sum(j * f for j, f in kappa[v])
        for v in range(A.n_vertices)
    ]


def test_targeted_expansion_is_the_full_expansion_filtered_to_the_target_degrees(fixtures_dir):
    products = _products_of_this_file(fixtures_dir)
    products += _products_of_test_multiply(fixtures_dir)
    keys = {key for x, y in products for key in _transported_keys(x, y)}
    seen = Counter()
    for A, psi, jobs, common in keys:
        full = _expand_structure_raw(A, psi, jobs, common)
        for kind in EvaluationKind:
            split = hodge_split(A, kind)
            if split is None:
                continue
            targets = [top for _, _, top in split]
            targeted = _expand_structure_raw(A, psi, jobs, common, targets)
            # term for term and in order
            assert targeted == [
                (c, p, k) for c, p, k in full if _vertex_degrees(A, p, k) == targets
            ], (A, psi, jobs, common, kind)
            # why the other terms go: the same reasons, found from the key
            gaps = [t - d for t, d in zip(targets, _vertex_degrees(A, psi, [()] * A.n_vertices))]
            if min(gaps) < 0 or sum(gaps) != sum(j * f for _, j, f in jobs) + len(common):
                seen["key dropped before any spread"] += bool(jobs)
                continue
            seen["pruned composition"] += any(
                j * c > gaps[x]
                for fibre, j, f in jobs
                for counts in _compositions(f, len(fibre))
                for x, c in zip(fibre, counts)
            )
            no_psi = (0,) * A.n_halfedges
            seen["rejected bump"] += any(
                _vertex_degrees(A, p, k) != targets
                and all(d <= gap for d, gap in zip(_vertex_degrees(A, no_psi, k), gaps))
                for _, p, k in full
            )
            if kind is EvaluationKind.lambda_g_lambda_g_minus_1 and targeted:
                seen["genus-0 vertex under rt"] += 0 in A.genera
    assert len(seen) == 4 and min(seen.values()) > 0, seen


def _overshoots(A, psi, degrees) -> bool:
    return any(d > t for d, t in zip(_vertex_degrees(A, psi, [()] * A.n_vertices), degrees))


def test_side_tallies_count_the_pairs_of_every_carrier(fixtures_dir):
    # every term pair of the products of this file and of test_multiply.py
    products = _products_of_this_file(fixtures_dir)
    products += _products_of_test_multiply(fixtures_dir)
    term_pairs = {
        (dG.canonical_key, dH.canonical_key): (dG, dH)
        for x, y in products
        for _, dG in x.terms.values()
        for _, dH in y.terms.values()
    }
    seen = Counter()
    for dG, dH in term_pairs.values():
        RG, decoG = dG._interned
        RH, decoH = dH._interned
        carriers = _generic_pairs_interned(RG, RH)
        listed = enumerate_generic_pairs(RG, RH)
        assert [A for A, _ in carriers] == [A for A, _ in listed]
        for (A, partners), (_, pairs) in zip(carriers, listed):
            want = per_pair_tally(A, pairs, decoG, decoH)
            # counts, jobs and the order of first occurrence
            assert list(_key_tally(A, partners, RG, decoG, RH, decoH).items()) == list(
                want.items()
            ), (dG, dH, A)
            seen["combined groups"] += len(want) < len(pairs)
            for kind in EvaluationKind:
                split = hodge_split(A, kind)
                if split is None:
                    continue
                degrees = [top for _, _, top in split]
                pruned = _key_tally(A, partners, RG, decoG, RH, decoH, degrees)
                # the pruning drops only keys whose psi overshoots; the others
                # keep their counts, jobs and order
                assert [
                    item for item in pruned.items() if not _overshoots(A, item[0][0], degrees)
                ] == [item for item in want.items() if not _overshoots(A, item[0][0], degrees)]
                assert set(pruned) <= set(want)
                seen["pruned"] += len(pruned) < len(want)
    assert len(seen) == 2 and min(seen.values()) > 0, seen


def test_products_build_no_pair_structure(fixtures_dir, monkeypatch):
    monkeypatch.setattr(algebra, "_pair_cache", {})
    monkeypatch.setattr(structures, "_structure_cache", {})
    built = []
    init = PairStructure.__init__
    monkeypatch.setattr(PairStructure, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    g = load_sum(str(fixtures_dir / "worked_product_g.sum"))
    h = load_sum(str(fixtures_dir / "worked_product_h.sum"))
    relation, samples = _genus_four_samples(fixtures_dir)
    assert len(multiply(g, h)) == 7
    assert integrate_product(relation, samples[0], "fundamental") == 0
    assert integrate_product(g, h, "fundamental") != 0
    assert built == []
    # the same graphs do carry pairs, which the public listing builds
    dG, dH = (next(iter(s.terms.values()))[1] for s in (g, h))
    assert enumerate_generic_pairs(dG.graph, dH.graph) and built


def test_every_vertex_integral_goes_through_the_one_kernel(fixtures_dir, monkeypatch):
    """``integrate_graph``, ``integrate_sum`` and ``integrate_product``
    integrate every vertex through ``integrals._vertex_value``, the name the
    benchmark's tracer wraps, and the fused pairing builds no
    ``DecoratedGraph`` to do so."""
    g = load_sum(str(fixtures_dir / "worked_product_g.sum"))
    h = load_sum(str(fixtures_dir / "worked_product_h.sum"))
    product = multiply(g, h)
    cases = [
        (x, y, space, integrate_sum(multiply(x, y), space))
        for x, y, space in _sum_cases(fixtures_dir)[0]
    ]
    inside, seen = [0], []
    vertex_value, kappa_reduce = integrals._vertex_value, integrals.kappa_reduce

    def traced_vertex_value(d, v, kind):
        seen.append((type(d), v))
        inside[0] += 1
        try:
            return vertex_value(d, v, kind)
        finally:
            inside[0] -= 1

    def guarded_kappa_reduce(*args):
        assert inside[0], "a vertex integral bypassed _vertex_value"
        return kappa_reduce(*args)

    monkeypatch.setattr(integrals, "_vertex_value", traced_vertex_value)
    for module in (integrals, pairing):
        monkeypatch.setattr(module, "kappa_reduce", guarded_kappa_reduce, raising=False)

    nonzero = 0
    for _, d in product.terms.values():
        seen.clear()
        if integrate_graph(d, "mbar"):
            assert seen == [(DecoratedGraph, v) for v in range(d.graph.n_vertices)]
            nonzero += 1
    assert nonzero > 0
    seen.clear()
    assert integrate_sum(product, "mbar") == Fraction(1, 8)
    assert seen and {t for t, _ in seen} == {DecoratedGraph}

    built = []
    init = DecoratedGraph.__init__
    monkeypatch.setattr(DecoratedGraph, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    seen.clear()
    assert integrate_product(g, h, "mbar") == Fraction(1, 8)
    for x, y, space, value in cases:
        assert integrate_product(x, y, space) == value
    assert seen and DecoratedGraph not in {t for t, _ in seen}
    assert built == []
