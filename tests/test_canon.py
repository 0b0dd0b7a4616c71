from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from math import factorial

import pytest

from strataring import canon, graphs
from strataring.enumeration import stable_graphs
from strataring.graphs import StableGraph, build_graph, intern


# -- the reference search ------------------------------------------------
#
# The search as it stood before it built its tables once per search: it
# rebuilds each bundle and its ``repr`` per neighbour and per refinement
# pass, and stops refining only when a pass reproduces the numbering, which
# never happens from eleven classes on.  Its keys, automorphism orders and
# vertex orders are the ones every test below compares against, on graphs
# of at most ten vertices.


def _ref_vertex_tables(g, psi, kappa):
    nv = g.n_vertices
    psi = psi if psi is not None else (0,) * g.n_halfedges
    kappa = kappa if kappa is not None else ((),) * nv
    legs = [[] for _ in range(nv)]
    loops = [[] for _ in range(nv)]
    bundles = {}
    for label, h in g.legs:
        legs[g.vertex_of[h]].append((label, psi[h]))
    for h1, h2 in g.edges:
        v, w = g.vertex_of[h1], g.vertex_of[h2]
        if v == w:
            a, b = sorted((psi[h1], psi[h2]))
            loops[v].append((a, b))
        else:
            if v > w:
                v, w, h1, h2 = w, v, h2, h1
            bundles.setdefault((v, w), []).append((psi[h1], psi[h2]))
    records = tuple(
        (
            g.genera[v],
            tuple(kappa[v]),
            tuple(sorted(legs[v])),
            tuple(sorted(loops[v])),
            g.degree(v),
        )
        for v in range(nv)
    )
    return records, {k: tuple(sorted(ps)) for k, ps in bundles.items()}


def _ref_get_bundle(bundle_sig, u, w):
    if u < w:
        return bundle_sig.get((u, w), ())
    flipped = bundle_sig.get((w, u), ())
    return tuple(sorted((b, a) for a, b in flipped))


def _ref_refine(nv, colors, bundle_sig):
    neighbors = {v: [] for v in range(nv)}
    for (u, w) in bundle_sig:
        neighbors[u].append(w)
        neighbors[w].append(u)
    while True:
        sigs = []
        for v in range(nv):
            around = sorted(
                (repr(_ref_get_bundle(bundle_sig, v, w)), colors[w]) for w in neighbors[v]
            )
            sigs.append((colors[v], tuple(around)))
        order = sorted(set(sigs), key=repr)
        index = {s: i for i, s in enumerate(order)}
        new_colors = [index[s] for s in sigs]
        if new_colors == colors:
            return colors
        colors = new_colors


def _ref_uniform_independent(cell, nv, bundle_sig):
    cset = set(cell)
    for i, u in enumerate(cell):
        for v in cell[i + 1 :]:
            if _ref_get_bundle(bundle_sig, u, v):
                return False
    u0 = cell[0]
    for w in range(nv):
        if w in cset:
            continue
        ref = _ref_get_bundle(bundle_sig, u0, w)
        for v in cell[1:]:
            if _ref_get_bundle(bundle_sig, v, w) != ref:
                return False
    return True


def _ref_encode(order, records, bundle_sig):
    nv = len(order)
    parts = [records[v] for v in order]
    for i in range(nv):
        for j in range(i + 1, nv):
            parts.append(_ref_get_bundle(bundle_sig, order[i], order[j]))
    return tuple(parts)


def _ref_search(g, psi, kappa):
    nv = g.n_vertices
    records, bundle_sig = _ref_vertex_tables(g, psi, kappa)
    if nv == 1:
        return _ref_encode((0,), records, bundle_sig), 1, (0,)
    init = sorted(set(records), key=repr)
    index = {r: i for i, r in enumerate(init)}
    colors0 = _ref_refine(nv, [index[records[v]] for v in range(nv)], bundle_sig)
    best = {"enc": None, "count": 0, "order": None}

    def cells_of(colors):
        by = {}
        for v, c in enumerate(colors):
            by.setdefault(c, []).append(v)
        return [by[c] for c in sorted(by)]

    def recurse(colors, factor):
        cells = cells_of(colors)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            order = tuple(v for c in cells for v in c)
            enc = _ref_encode(order, records, bundle_sig)
            if best["enc"] is None or enc < best["enc"]:
                best["enc"], best["count"], best["order"] = enc, factor, order
            elif enc == best["enc"]:
                best["count"] += factor
            return
        if _ref_uniform_independent(target, nv, bundle_sig):
            new = list(colors)
            base = max(colors) + 1
            for k, v in enumerate(target[1:], start=1):
                new[v] = base + k
            recurse(_ref_refine(nv, new, bundle_sig), factor * factorial(len(target)))
            return
        for v in target:
            new = [2 * c + 1 for c in colors]
            new[v] = 2 * colors[v]
            recurse(_ref_refine(nv, new, bundle_sig), factor)

    recurse(colors0, 1)
    return best["enc"], best["count"], best["order"]


def _ref_extension_count(g, psi):
    psi = psi if psi is not None else (0,) * g.n_halfedges
    count = 1
    loops, bundles = {}, {}
    for h1, h2 in g.edges:
        v, w = g.vertex_of[h1], g.vertex_of[h2]
        if v == w:
            pair = tuple(sorted((psi[h1], psi[h2])))
            loops.setdefault(v, {})
            loops[v][pair] = loops[v].get(pair, 0) + 1
        else:
            if v > w:
                v, w, h1, h2 = w, v, h2, h1
            pair = (psi[h1], psi[h2])
            bundles.setdefault((v, w), {})
            bundles[(v, w)][pair] = bundles[(v, w)].get(pair, 0) + 1
    for groups in loops.values():
        for (a, b), k in groups.items():
            count *= factorial(k) * (2**k if a == b else 1)
    for groups in bundles.values():
        for k in groups.values():
            count *= factorial(k)
    return count


def _reference(g, psi=None, kappa=None):
    enc, aut_v, order = _ref_search(g, psi, kappa)
    return repr((g.n_vertices, enc)), aut_v * _ref_extension_count(g, psi), order


# -- inputs ----------------------------------------------------------------


def _relabeled(G, rng):
    hperm = list(range(G.n_halfedges))
    vperm = list(range(G.n_vertices))
    rng.shuffle(hperm)
    rng.shuffle(vperm)
    return G.relabeled(dict(enumerate(hperm)), dict(enumerate(vperm)))


def _decoration(G, rng):
    psi = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(G.n_halfedges))
    kappa = tuple(
        rng.choice(((), (), ((1, 1),), ((2, 1),), ((1, 2),), ((1, 1), (2, 1))))
        for _ in range(G.n_vertices)
    )
    return psi, kappa


def _assert_matches_reference(G, psi=None, kappa=None):
    got = canon.canonical_data(G, psi, kappa)
    assert got == _reference(G, psi, kappa), (G, psi, kappa)


def _many_loops_and_parallel_edges():
    return [
        build_graph([0], [(0, 0)] * 4),
        build_graph([0, 0], [(0, 1)] * 4),
        build_graph([0, 1], [(0, 0), (0, 0), (0, 1), (0, 1), (0, 1)], legs={1: 1}),
        build_graph([0, 0, 0], [(0, 1), (0, 1), (0, 2), (0, 2), (1, 1), (2, 2)]),
        build_graph([0, 1, 1, 1], [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3)]),
        build_graph([0, 1, 1, 1, 1], [(0, 1), (0, 2), (0, 3), (0, 4), (0, 0)]),
        build_graph([0, 0, 0, 0], [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)]),
        build_graph([0, 0, 0], [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)]),
        build_graph([0, 0, 0, 0, 0], [(0, i) for i in (1, 2, 3, 4)] + [(i, i) for i in (1, 2, 3, 4)]),
    ]


def _chain(k, genera=1):
    return build_graph([genera] * k, [(i, i + 1) for i in range(k - 1)])


def _star(k):
    return build_graph([0] + [1] * k, [(0, i) for i in range(1, k + 1)])


def _cycle(k):
    return build_graph([1] * k, [(i, (i + 1) % k) for i in range(k)])


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging: refinement used to cycle forever from eleven
    color classes on."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- keys against the reference ------------------------------------------


@pytest.mark.parametrize(
    "g,n,max_edges",
    [(0, 5, 2), (0, 6, 3), (1, 3, 3), (1, 4, 3), (2, 0, 3), (2, 1, 4), (2, 2, 3),
     (3, 0, 4), (3, 1, 3), (4, 0, 4)],
)
def test_keys_match_the_reference_on_every_small_stable_graph(g, n, max_edges):
    rng = random.Random(g * 100 + n)
    for e in range(max_edges + 1):
        for G in stable_graphs(g, n, e):
            _assert_matches_reference(G)
            G2 = _relabeled(G, rng)
            _assert_matches_reference(G2)
            _assert_matches_reference(G2, *_decoration(G2, rng))


def test_keys_match_the_reference_with_many_loops_and_parallel_edges():
    rng = random.Random(5)
    for G in _many_loops_and_parallel_edges():
        _assert_matches_reference(G)
        for _ in range(6):
            G2 = _relabeled(G, rng)
            _assert_matches_reference(G2)
            _assert_matches_reference(G2, *_decoration(G2, rng))


@pytest.mark.parametrize("k", [7, 8, 9, 10])
def test_keys_match_the_reference_on_chains_stars_and_cycles(k):
    # up to ten vertices the reference terminates; colors run up to two digits
    rng = random.Random(k)
    for G in (_chain(k), _star(k - 1), _cycle(k), _chain(k, genera=2)):
        _assert_matches_reference(G)
        G2 = _relabeled(G, rng)
        _assert_matches_reference(G2)
        _assert_matches_reference(G2, *_decoration(G2, rng))


# -- eleven vertices and more ------------------------------------------------


def test_chain_of_eleven_vertices():
    with _deadline(20):
        assert _chain(11).aut_order == 2


def test_star_with_ten_genus_one_leaves():
    with _deadline(20):
        assert _star(10).aut_order == factorial(10)


def test_cycle_of_eleven_vertices():
    with _deadline(20):
        assert _cycle(11).aut_order == 22


def _random_graph(k, rng):
    edges = [(rng.randrange(i), i) for i in range(1, k)]
    for _ in range(rng.randrange(3)):
        edges.append((rng.randrange(k), rng.randrange(k)))
    degree = [0] * k
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    genera = [rng.randrange(2) if degree[v] >= 3 else 1 for v in range(k)]
    legs = {label: rng.randrange(k) for label in range(1, rng.randrange(3) + 1)}
    return build_graph(genera, edges, legs)


@pytest.mark.parametrize("k", [11, 12, 13])
def test_relabeling_invariance_from_eleven_vertices(k):
    rng = random.Random(k)
    with _deadline(60):
        for _ in range(8):
            G = _random_graph(k, rng)
            psi, kappa = _decoration(G, rng)
            key, aut, _ = canon.canonical_data(G)
            dkey, daut, _ = canon.canonical_data(G, psi, kappa)
            for _ in range(3):
                hperm = list(range(G.n_halfedges))
                vperm = list(range(k))
                rng.shuffle(hperm)
                rng.shuffle(vperm)
                hmap, vmap = dict(enumerate(hperm)), dict(enumerate(vperm))
                G2 = G.relabeled(hmap, vmap)
                psi2 = [0] * len(psi)
                for h, x in enumerate(psi):
                    psi2[hmap[h]] = x
                kappa2 = [()] * k
                for v, x in enumerate(kappa):
                    kappa2[vmap[v]] = x
                assert canon.canonical_data(G2)[:2] == (key, aut)
                assert canon.canonical_data(G2, tuple(psi2), tuple(kappa2))[:2] == (dkey, daut)


def test_trivalent_trees_with_seven_genus_one_leaves():
    # compact type in genus 7 with 11 edges: every vertex of genus 0 is
    # trivalent, so the graphs are the two unlabeled trivalent trees with
    # seven leaves
    with _deadline(120):
        assert len(stable_graphs(7, 0, 11, "ct")) == 2


# -- interning ---------------------------------------------------------------


def test_interning_a_fresh_graph_searches_once(monkeypatch):
    calls = []
    real = canon._search

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(canon, "_search", counted)
    monkeypatch.setattr(graphs, "_registry", {})
    G = build_graph([0, 1, 1], [(0, 1), (0, 2), (0, 0)], legs={1: 0})
    rep, hmap, vmap = intern(G)
    # the representative carries the canonical data of the graph it came from
    key, aut = rep.canonical_key, rep.aut_order
    assert len(calls) == 1
    assert isinstance(rep, StableGraph) and key == G.canonical_key
    assert G.relabeled(hmap, vmap).partner == rep.partner
    monkeypatch.setattr(canon, "_search", real)
    assert (key, aut) == canon.canonical_data(rep)[:2]
    # its vertex order attains the key: interning it again changes nothing
    assert rep._canon[2] == tuple(range(rep.n_vertices))
    again, hmap2, vmap2 = intern(rep)
    assert again is rep and rep.relabeled(hmap2, vmap2).partner == rep.partner
