from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import factorial

import pytest

import strataring.integrals as integrals
from strataring.algebra import FormalSum
from strataring.integrals import (
    FUNDAMENTAL,
    LAMBDA_PAIR,
    LAMBDA_TOP,
    DimensionMismatch,
    _submultisets,
    bernoulli,
    cache_clear,
    cache_load,
    cache_snapshot,
    hodge_psi,
    integrate_graph,
    integrate_sum,
    kappa_reduce,
    wk_tau,
)
from conftest import dec


def akiyama_tanigawa(n: int) -> F:
    """Independent Bernoulli oracle (B_1 = +1/2 convention; even indices
    agree with ours)."""
    A = [F(0)] * (n + 1)
    for m in range(n + 1):
        A[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
    return A[0]


def test_bernoulli_against_independent_recurrence():
    for m in range(0, 20, 2):
        assert bernoulli(m) == akiyama_tanigawa(m)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)
    assert bernoulli(3) == 0


def test_tau_base_values():
    assert wk_tau(0, (0, 0, 0)) == 1
    assert wk_tau(1, (1,)) == F(1, 24)
    assert wk_tau(0, (1, 0, 0, 0)) == 1
    assert wk_tau(0, (2, 0, 0, 0, 0)) == 1
    assert wk_tau(0, (1, 1, 0, 0, 0)) == 2


def test_tau_known_values():
    assert wk_tau(1, (0, 0, 1, 3)) == F(1, 8)
    assert wk_tau(1, (2, 1, 0)) == F(1, 12)
    assert wk_tau(2, (4,)) == F(1, 1152)
    assert wk_tau(2, (3, 2)) == F(29, 5760)
    assert wk_tau(3, (7,)) == F(1, 82944)
    assert wk_tau(3, (7, 1)) == F(5, 82944)
    assert wk_tau(3, (4, 4)) == F(607, 1451520)
    # closed form <tau_{3g-2}>_g = 1 / (24^g g!)
    for g in range(1, 6):
        assert wk_tau(g, (3 * g - 2,)) == F(1, 24**g * factorial(g))


def test_tau_off_dimension_is_zero():
    assert wk_tau(1, (2,)) == 0
    assert wk_tau(2, (1, 1)) == 0


def _random_composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def test_string_and_dilaton_on_random_inputs():
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        total = 3 * g - 3 + (n + 1)
        if total < 0 or 2 * g - 2 + n <= 0:
            continue
        d = _random_composition(rng, total, n)
        # string
        lhs = wk_tau(g, d + (0,))
        rhs = sum(
            (wk_tau(g, d[:j] + (d[j] - 1,) + d[j + 1 :]) for j in range(n) if d[j] >= 1),
            F(0),
        )
        assert lhs == rhs
        # dilaton
        if total >= 1:
            d2 = _random_composition(rng, total - 1, n)
            assert wk_tau(g, d2 + (1,)) == (2 * g - 2 + n) * wk_tau(g, d2)
        checked += 1


def _kappa_reduce_reference(g, psi, kappa, kind, pick):
    """Same pushforward recursion, removing the kappa index chosen by
    ``pick`` first and summing over every subset of the positions of the
    other indices, with no multiset bookkeeping; independent of the
    library's internal ordering and helpers."""
    kappa = tuple(kappa)
    if not kappa:
        return hodge_psi(g, psi, kind)
    i = pick(len(kappa))
    b1 = kappa[i]
    rest = kappa[:i] + kappa[i + 1 :]
    total = F(0)
    for chosen in _position_subsets(len(rest)):
        sub = [rest[k] for k in chosen]
        others = tuple(x for k, x in enumerate(rest) if k not in chosen)
        new_point = b1 + 1 + sum(sub)
        total += (-1) ** len(sub) * _kappa_reduce_reference(
            g, tuple(psi) + (new_point,), others, kind, pick
        )
    return total


def _position_subsets(n):
    return (chosen for size in range(n + 1) for chosen in combinations(range(n), size))


@pytest.mark.parametrize("values", [(), (3,), (2, 2), (3, 1, 2), (1, 2, 2, 3, 3, 3), (4, 1, 4, 1, 1)])
def test_submultisets_count_the_subsets_of_points(values):
    # one entry per (sub, complement) pair, weighted by the number of
    # subsets of the points that give it
    brute = Counter()
    for chosen in _position_subsets(len(values)):
        sub = tuple(sorted(values[k] for k in chosen))
        complement = tuple(sorted(x for k, x in enumerate(values) if k not in chosen))
        brute[sub, complement] += 1
    got = {}
    for sub, complement, multiplicity in _submultisets(values):
        assert (sub, complement) not in got
        got[sub, complement] = multiplicity
    assert got == dict(brute)


def test_kappa_values():
    assert kappa_reduce(1, (1, 0, 0), (2,)) == F(1, 8)
    assert kappa_reduce(1, (0,), (1,)) == F(1, 24)
    assert kappa_reduce(1, (0, 0), ()) == wk_tau(1, (0, 0))  # empty recursion


def test_kappa_order_independence():
    rng = random.Random(5)
    for _ in range(50):
        g = rng.randint(0, 2)
        n = rng.randint(1, 3)
        psi = tuple(rng.randint(0, 2) for _ in range(n))
        kappa = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        kind = rng.choice([FUNDAMENTAL, LAMBDA_TOP, LAMBDA_PAIR])
        if kind is LAMBDA_PAIR and g < 2:
            kind = FUNDAMENTAL
        first = _kappa_reduce_reference(g, psi, kappa, kind, lambda k: 0)
        last = _kappa_reduce_reference(g, psi, kappa, kind, lambda k: k - 1)
        assert first == last == kappa_reduce(g, psi, kappa, kind)


def test_lambda_top_values():
    assert hodge_psi(1, (0,), LAMBDA_TOP) == F(1, 24)
    assert hodge_psi(2, (2,), LAMBDA_TOP) == F(7, 5760)
    assert hodge_psi(3, (4,), LAMBDA_TOP) == F(31, 967680)
    assert hodge_psi(2, (2, 1), LAMBDA_TOP) == 3 * F(7, 5760)
    assert hodge_psi(2, (3,), LAMBDA_TOP) == 0  # off dimension


def test_lambda_top_string_identity():
    rng = random.Random(3)
    for _ in range(40):
        g = rng.randint(1, 4)
        n = rng.randint(1, 4)
        d = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(d) != 2 * g - 3 + (n + 1):
            continue
        lhs = hodge_psi(g, d + (0,), LAMBDA_TOP)
        rhs = sum(
            (
                hodge_psi(g, d[:j] + (d[j] - 1,) + d[j + 1 :], LAMBDA_TOP)
                for j in range(n)
                if d[j] >= 1
            ),
            F(0),
        )
        assert lhs == rhs


def test_lambda_pair_values():
    # anchored by the pushforward of psi_1 from (2,1) to (2,0)
    assert hodge_psi(2, (1,), LAMBDA_PAIR) == F(1, 2880)
    assert hodge_psi(2, (1, 1), LAMBDA_PAIR) == F(1, 960)
    assert hodge_psi(2, (2, 0), LAMBDA_PAIR) == F(1, 2880)
    assert hodge_psi(2, (3, 0, 0), LAMBDA_PAIR) == F(1, 2880)  # string-reduced
    assert hodge_psi(2, (2, 2, 0, 0), LAMBDA_PAIR) == F(1, 360)
    assert hodge_psi(1, (0,), LAMBDA_PAIR) == F(1, 24)  # lambda_0 = 1


def test_lambda_pair_string_identity():
    rng = random.Random(4)
    for _ in range(40):
        g = rng.randint(2, 4)
        n = rng.randint(1, 4)
        d = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(d) != g - 2 + (n + 1):
            continue
        lhs = hodge_psi(g, d + (0,), LAMBDA_PAIR)
        rhs = sum(
            (
                hodge_psi(g, d[:j] + (d[j] - 1,) + d[j + 1 :], LAMBDA_PAIR)
                for j in range(n)
                if d[j] >= 1
            ),
            F(0),
        )
        assert lhs == rhs


def test_integrate_graph_rules():
    # the surviving worked-example term: one psi and one kappa_2 on the
    # genus-1 vertex of the six-edge carrier
    survivor = dec(
        [0, 0, 0, 1],
        [(0, 0), (1, 1), (0, 2), (1, 2), (2, 3), (3, 3)],
        psi={9: 1},
        kappa={3: ((2, 1),)},
    )
    assert integrate_graph(survivor, FUNDAMENTAL) == F(1, 8)
    # a self-loop kills the top-lambda evaluation
    loop = dec([1], [(0, 0)])
    assert loop.graph.genus == 2 and loop.codim == 1
    assert integrate_graph(loop, "ct") == 0
    # two positive-genus vertices kill the rational-tails evaluation
    tree = dec([1, 2], [(0, 1)], legs={1: 0}, psi={0: 1})
    assert tree.graph.genus == 3 and tree.codim == 2
    assert integrate_graph(tree, "rt") == 0
    with pytest.raises(DimensionMismatch):
        integrate_graph(dec([1, 1], [(0, 1)]), FUNDAMENTAL)


def test_integrate_sum_linearity():
    s = FormalSum(2, 0)
    assert integrate_sum(s, FUNDAMENTAL) == 0
    d = dec([1, 1], [(0, 1)], psi={0: 2})
    s = FormalSum.unit(d)
    assert integrate_sum(s - s, FUNDAMENTAL) == 0


def test_cache_roundtrip(tmp_path):
    cache_clear()
    try:
        # a wrong value under a key the engine stores, so that only the
        # memo can give it (<tau_7>_3 = 1/(24^3 3!) = 1/82944)
        integrals._tau_cache[3, (7,), FUNDAMENTAL] = F(3, 7)
        assert wk_tau(3, (7,)) == F(3, 7)
        wk_tau(2, (4,))
        path = tmp_path / "cache.txt"
        n = cache_snapshot(str(path))
        assert n >= 2
        cache_clear()
        assert wk_tau(3, (7,)) == F(1, 82944)
        assert cache_load(str(path)) == n
        assert wk_tau(3, (7,)) == F(3, 7)
        assert wk_tau(2, (4,)) == F(1, 1152)
    finally:
        cache_clear()


def _raise(*args):
    raise AssertionError("recomputed a value the cache file holds")


def test_cache_roundtrip_recomputes_nothing(tmp_path, monkeypatch):
    """Every vertex integral is stored under the key the engine looks up,
    so a loaded snapshot serves each lookup again, and a snapshot taken
    after that is the same file."""
    calls = [
        lambda: wk_tau(2, (4, 2, 1, 1, 0)),
        lambda: wk_tau(3, (0, 4, 3, 3)),
        lambda: kappa_reduce(0, (0, 1, 0, 0, 0), (1,)),
        lambda: kappa_reduce(3, (1, 2), (1, 2, 2), FUNDAMENTAL),
        lambda: kappa_reduce(1, (1, 0, 0), (1,), LAMBDA_PAIR),
        lambda: kappa_reduce(3, (0, 2, 1), (1, 2), LAMBDA_TOP),
        lambda: kappa_reduce(3, (0, 1, 0), (1, 2), LAMBDA_PAIR),
        lambda: hodge_psi(2, (2, 0, 2, 0), LAMBDA_PAIR),
    ]
    path = tmp_path / "cache.txt"
    cache_clear()
    try:
        values = [call() for call in calls]
        assert all(values)
        assert all(kap for _, _, kap, _ in integrals._kappa_cache)
        cache_snapshot(str(path))
        first = path.read_bytes()
        cache_clear()
        assert cache_load(str(path)) > len(calls)
        for name in ("_wk_recurse", "_multinomial", "bernoulli"):
            monkeypatch.setattr(integrals, name, _raise)
        assert [call() for call in calls] == values
        cache_snapshot(str(path))
        assert path.read_bytes() == first
    finally:
        cache_clear()


def test_cache_ignores_corrupt_lines(tmp_path, capsys):
    path = tmp_path / "cache.txt"
    path.write_text(
        "v1 2 4 0 1/1152\nv1 bogus line\nv2 1 1 0 1/24\nv1 1 1 x 1/24\nv1 1 1 7 1/24\n"
        "v1 1 1 0 1/0\nv1 0 0,0,0 2 1/1\nv1 1 1 2 1/24\n"
        # an unstable key, a negative exponent, two off-dimension keys
        "v1 0 0,0 0 1/1\nv1 1 3,-1 0 1/1\nv1 1 2 0 5/1\nv1 2 1 1 1/1\n"
    )
    cache_clear()
    try:
        assert cache_load(str(path)) == 1
        assert integrals._tau_cache == {(2, (4,), FUNDAMENTAL): F(1, 1152)}
    finally:
        cache_clear()
    assert capsys.readouterr().err.count("corrupt cache line") == 11


def test_a_loaded_off_dimension_value_is_never_read(tmp_path, capsys):
    # the KdV recursion and the kappa pushforward query off-dimension keys,
    # which must stay zero whatever a cache file without a checksum says
    path = tmp_path / "cache.txt"
    path.write_text("v1 1 2 0 5/1\n")
    cache_clear()
    try:
        assert cache_load(str(path)) == 0
        assert wk_tau(1, [2]) == 0
        assert kappa_reduce(1, [], [1]) == 0
    finally:
        cache_clear()
    assert capsys.readouterr().err.count("corrupt cache line") == 1


def test_cache_with_a_wrong_checksum_loads_nothing(tmp_path, capsys):
    path = tmp_path / "cache.txt"
    body = "v1 2 4 0 1/1152\nv1 1 1 0 1/24\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body.replace("1/24", "1/12") + f"# sha256 {digest}\n")
    cache_clear()
    try:
        assert cache_load(str(path)) == 0
        assert integrals._tau_cache == {}
        assert capsys.readouterr().err.count("checksum") == 1
        path.write_text(body + f"# sha256 {digest}\n")
        assert cache_load(str(path)) == 2
    finally:
        cache_clear()


def test_cache_snapshot_ignores_a_stale_fixed_temp_path(tmp_path):
    path = tmp_path / "cache.txt"
    os.mkdir(str(path) + ".tmp")
    cache_clear()
    try:
        integrals._tau_cache[2, (4,), FUNDAMENTAL] = F(1, 1152)
        assert cache_snapshot(str(path)) == 1
        digest = hashlib.sha256(b"v1 2 4 0 1/1152\n").hexdigest()
        assert path.read_text() == f"v1 2 4 0 1/1152\n# sha256 {digest}\n"
        assert sorted(os.listdir(tmp_path)) == ["cache.txt", "cache.txt.tmp"]
    finally:
        cache_clear()


def test_off_dimension_lookups_do_not_pollute_cache(tmp_path):
    cache_clear()
    try:
        assert wk_tau(3, (1,)) == 0
        path = tmp_path / "cache.txt"
        cache_snapshot(str(path))
        assert "v1 3 1 0" not in path.read_text()
    finally:
        cache_clear()


def _dfact(m: int) -> int:
    return 1 if m <= 0 else m * _dfact(m - 2)


_dvv_memo: dict = {}


def _dvv(g: int, d: tuple[int, ...]) -> F:
    """<tau_{d_1} ... tau_{d_n}>_g by the DVV (Virasoro) recursion on the
    first listed point, with only the initial values <tau_0^3>_0 = 1 and
    <tau_1>_1 = 1/24: no string or dilaton shortcuts, no sorting, and the
    genus splits run over subsets of points, not of exponents."""
    n = len(d)
    if g < 0 or min(d, default=0) < 0 or 2 * g - 2 + n <= 0 or sum(d) != 3 * g - 3 + n:
        return F(0)
    if (g, n) in ((0, 3), (1, 1)):
        return F(1) if g == 0 else F(1, 24)
    key = (g, d)
    if key in _dvv_memo:
        return _dvv_memo[key]
    k, rest = d[0] - 1, d[1:]
    total = F(0)
    for j, dj in enumerate(rest):
        shifted = rest[:j] + (dj + k,) + rest[j + 1 :]
        total += F(_dfact(2 * k + 2 * dj + 1), _dfact(2 * dj - 1)) * _dvv(g, shifted)
    for r in range(k):
        s = k - 1 - r
        w = F(_dfact(2 * r + 1) * _dfact(2 * s + 1), 2)
        total += w * _dvv(g - 1, (r, s) + rest)
        for mask in range(1 << len(rest)):
            left = tuple(x for i, x in enumerate(rest) if mask >> i & 1)
            right = tuple(x for i, x in enumerate(rest) if not mask >> i & 1)
            for g1 in range(g + 1):
                total += w * _dvv(g1, (r,) + left) * _dvv(g - g1, (s,) + right)
    value = total / _dfact(2 * k + 3)
    _dvv_memo[key] = value
    return value


def _exponent_vectors(total: int, n: int):
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _exponent_vectors(total - first, n - 1):
            yield (first,) + rest


@pytest.mark.parametrize("g,max_n", [(0, 4), (1, 4), (2, 4), (3, 4), (4, 2)])
def test_wk_tau_agrees_with_dvv_recursion(g, max_n):
    for n in range(1, max_n + 1):
        dim = 3 * g - 3 + n
        for d in _exponent_vectors(max(dim, 0), n):
            assert wk_tau(g, d) == _dvv(g, d), (g, d)
        off = (dim + 1,) + (0,) * (n - 1)
        assert wk_tau(g, off) == _dvv(g, off) == 0


def test_genus_zero_vertex_integrals_are_memoized(monkeypatch):
    calls = []
    real = integrals._multinomial
    monkeypatch.setattr(integrals, "_multinomial", lambda t, c: calls.append(t) or real(t, c))
    cache_clear()
    try:
        for _ in range(3):
            assert kappa_reduce(0, (1, 0, 0, 0), ()) == 1
            assert kappa_reduce(0, (0, 1, 0, 0), (), LAMBDA_TOP) == 1
            assert kappa_reduce(0, (0, 1, 0, 0), (), LAMBDA_PAIR) == 1
        assert calls == [1]  # once across the kinds
    finally:
        cache_clear()
