"""Acceptance suite: one test (or test group) per acceptance criterion.

Every comparison is exact rational arithmetic; there are no tolerances.
Each passing test prints a ``CRITERION n PASS`` line (visible with -v/-s).

Criterion 2 carries a documented defect of the source table: five entries
of its psi_1*kappa_1 column contradict the three relations printed next
to it.  The strict table comparison is kept faithful and is expected to
fail on exactly those five entries; the companion tests show that the
engine's column is the one forced by the table's own relations.  See
``test_criterion_2_printed_table_self_contradiction`` and the decisions
ledger shipped with the review notes.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction as F

import pytest

from strataring.algebra import FormalSum, multiply, normalize
from strataring.enumeration import decorated_basis, top_degree
from strataring.grammar import load_sum
from strataring.integrals import (
    FUNDAMENTAL,
    cache_clear,
    cache_load,
    cache_snapshot,
    evaluation_kind,
    integrate_sum,
)
from strataring.pairing import (
    gram,
    matrix_rank,
    null_space,
    rank,
    rank_table,
    verify_relation,
)
from conftest import FIXTURE_SHA256, FIXTURES, dec
from per_pair import pair_contributions


def _report(line: str) -> None:
    print(line)


def test_fixture_checksums():
    for name, digest in FIXTURE_SHA256.items():
        data = (FIXTURES / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"fixture {name} was modified"


# -- criterion 1: the worked product ------------------------------------


def test_criterion_1_worked_product(fixtures_dir):
    t0 = time.time()
    G = next(iter(load_sum(str(fixtures_dir / "worked_product_g.sum")).terms.values()))[1]
    H = next(iter(load_sum(str(fixtures_dir / "worked_product_h.sum")).terms.values()))[1]

    families = {}
    for A, pair, terms in pair_contributions(G, H):
        families.setdefault(A.aut_order, []).append((A, pair, terms))
    # carrier with five edges: 32 raw generic structures, one common edge,
    # automorphism order eight; each structure expands to eight terms of
    # coefficient -1
    assert set(families) == {8, 16}
    assert len(families[8]) == 32
    for A, pair, terms in families[8]:
        assert len(pair.common_edges) == 1
        assert len(terms) == 8
        assert all(c == -1 for c, _ in terms)
    # carrier with six edges: 16 raw structures, no common edge, four
    # terms of coefficient +1 each
    assert len(families[16]) == 16
    for A, pair, terms in families[16]:
        assert pair.common_edges == ()
        assert len(terms) == 4
        assert all(c == 1 for c, _ in terms)

    product = multiply(FormalSum.unit(G), FormalSum.unit(H))
    value = integrate_sum(normalize(product), FUNDAMENTAL)
    assert value == F(1, 8)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(f"CRITERION 1 PASS: worked product integrates to 1/8 in {elapsed:.2f}s")


# -- criterion 2: the 7 x 10 matrix -------------------------------------

PRINTED_TABLE = [
    ["31/70", "21/10", "7/10", "0", "0", "1", "0", "31/7", "31/7", "248/7"],
    ["21/10", "13/10", "-1/10", "0", "1", "-1", "0", "21/5", "14/5", "91/5"],
    ["7/10", "-1/10", "-11/10", "1", "0", "-3", "0", "42/5", "14/5", "91/5"],
    ["0", "0", "1", "-7/10", "-7/10", "2", "-1", "14/5", "0", "21/5"],
    ["0", "1", "0", "-7/10", "0", "1", "-1", "21/10", "7/10", "7/2"],
    ["1", "-1", "-3", "2", "1", "0", "0", "3", "1", "5"],
    ["0", "0", "0", "-1", "-1", "0", "0", "2", "0", "2"],
]

RELATION_VECTORS = [
    # psi_1 kappa_1, kappa_2 and kappa_1^2 moved to one side, coefficients
    # in the column order below
    [F(-5), F(-16, 21), F(-5, 7), F(-40, 21), F(61, 21), F(-4, 35), F(16, 35), F(1), F(0), F(0)],
    [F(-1), F(-41, 21), F(0), F(-41, 21), F(41, 21), F(4, 35), F(8, 35), F(0), F(1), F(0)],
    [F(-9), F(-299, 21), F(-10, 7), F(-347, 21), F(389, 21), F(-19, 35), F(2, 7), F(0), F(0), F(1)],
]


def _matrix_classes():
    psi2 = dec([3], legs={1: 0}, psi={0: 2})
    psik = dec([3], legs={1: 0}, psi={0: 1}, kappa={0: ((1, 1),)})
    kap2 = dec([3], legs={1: 0}, kappa={0: ((2, 1),)})
    kap11 = dec([3], legs={1: 0}, kappa={0: ((1, 2),)})
    G1 = dec([2, 1], [(0, 1)], legs={1: 0}, psi={0: 1})
    G2 = dec([2, 1], [(0, 1)], legs={1: 0}, psi={2: 1})
    G3 = dec([2, 1], [(0, 1)], legs={1: 1}, psi={0: 1})
    G4 = dec([2, 0, 1], [(0, 1), (1, 2)], legs={1: 1})
    G5 = dec([1, 1, 1], [(0, 1), (1, 2)], legs={1: 1})
    G6 = dec([1, 1, 1], [(0, 1), (1, 2)], legs={1: 0})
    return [psi2, G1, G2, G3, G4, G5, G6, psik, kap2, kap11]


@pytest.fixture(scope="module")
def seven_by_ten():
    classes = _matrix_classes()
    # locate the ten classes inside the spanning set: matched by identity
    basis_keys = {d.canonical_key for d in decorated_basis(3, 1, 2, "ct")}
    for d in classes:
        assert d.canonical_key in basis_keys
    kind = evaluation_kind("ct")
    entries = [
        [
            13824 * integrate_sum(multiply(FormalSum.unit(r), FormalSum.unit(c)), kind)
            for c in classes
        ]
        for r in classes[:7]
    ]
    return classes, entries


def test_criterion_2_matrix_against_printed_table(seven_by_ten):
    """Faithful comparison with the printed table.

    The printed psi_1*kappa_1 column contradicts the relations printed
    beside it (see the self-contradiction test below); this strict check
    is therefore expected to fail on exactly those five entries.
    """
    _, entries = seven_by_ten
    mismatches = [
        (i, j, str(entries[i][j]), PRINTED_TABLE[i][j])
        for i in range(7)
        for j in range(10)
        if entries[i][j] != F(PRINTED_TABLE[i][j])
    ]
    assert not mismatches, (
        "printed-table mismatches (engine vs printed); the printed column for"
        " psi_1*kappa_1 is inconsistent with the printed relations, see the"
        f" decisions ledger: {mismatches}"
    )
    _report("CRITERION 2 PASS: all 70 printed entries match")


def test_criterion_2_engine_matrix_matches_printed_outside_defective_column(seven_by_ten):
    _, entries = seven_by_ten
    mismatches = [
        (i, j)
        for i in range(7)
        for j in range(10)
        if j != 7 and entries[i][j] != F(PRINTED_TABLE[i][j])
    ]
    assert mismatches == []
    _report("CRITERION 2 PASS (partial): 63/63 entries outside the defective column match")


def test_criterion_2_printed_table_self_contradiction(seven_by_ten):
    """The printed table fails its own first relation; the engine's matrix
    satisfies all three.  This pins the defect on the printed psi*kappa
    column rather than on the engine."""
    _, entries = seven_by_ten
    printed = [[F(x) for x in row] for row in PRINTED_TABLE]
    bad = [
        sum(printed[6][c] * RELATION_VECTORS[0][c] for c in range(10)),
        sum(printed[1][c] * RELATION_VECTORS[0][c] for c in range(10)),
    ]
    assert bad[0] == 1 and bad[1] != 0  # printed row G6 / G1 against relation 1
    for vec in RELATION_VECTORS:
        for row in entries:
            assert sum(row[c] * vec[c] for c in range(10)) == 0
    _report(
        "CRITERION 2 NOTE: printed table contradicts its own relation 1;"
        " engine matrix satisfies all three relations exactly"
    )


def test_criterion_2_rank_and_kernel(seven_by_ten):
    _, entries = seven_by_ten
    assert matrix_rank(entries) == 7
    columns = [list(col) for col in zip(*entries)]
    kernel = null_space([list(row) for row in entries])
    assert len(kernel) == 3
    del columns
    _report("CRITERION 2 PASS: rank 7, kernel dimension 3")


def test_criterion_2_relations_verify(fixtures_dir):
    for i in (1, 2, 3):
        rel = load_sum(str(fixtures_dir / f"m31_relation_{i}.sum"))
        classes = _matrix_classes()
        kind = evaluation_kind("ct")
        values = [
            integrate_sum(multiply(rel, FormalSum.unit(r)), kind) for r in classes[:7]
        ]
        assert values == [0] * 7, f"relation {i}: {values}"
    _report("CRITERION 2 PASS: the three displayed relations vanish on all 7 rows")


# -- criterion 3 ---------------------------------------------------------


def test_criterion_3_degree_one_relation(fixtures_dir):
    t0 = time.time()
    rel = load_sum(str(fixtures_dir / "m21_relation.sum"))
    report = verify_relation(rel, 2, 1, "ct")
    assert report.passed
    _report(f"CRITERION 3 PASS: degree-1 relation on (2,1) in {time.time()-t0:.2f}s")


# -- criterion 4 ---------------------------------------------------------


def test_criterion_4_spanning_set_counts():
    t0 = time.time()
    total = sum(
        len(decorated_basis(4, 0, k, "ct")) for k in range(top_degree("ct", 4, 0) + 1)
    )
    assert total == 30
    assert len(decorated_basis(5, 0, 3, "ct")) == 31
    _report(f"CRITERION 4 PASS: 30 and 31 classes in {time.time()-t0:.2f}s")


# -- criterion 5 ---------------------------------------------------------

RANK_ROWS = {
    ("mbar", 0, 4): [1, 1],
    ("mbar", 0, 5): [1, 5, 1],
    ("mbar", 0, 6): [1, 16, 16, 1],
    ("mbar", 1, 1): [1, 1],
    ("mbar", 1, 2): [1, 2, 1],
    ("mbar", 1, 3): [1, 5, 5, 1],
    ("mbar", 2, 0): [1, 2, 2, 1],
    ("mbar", 2, 1): [1, 3, 5, 3, 1],
    ("mbar", 3, 0): [1, 3, 7, 10, 7, 3, 1],
    ("ct", 2, 0): [1, 1],
    ("ct", 2, 1): [1, 2, 1],
    ("ct", 2, 2): [1, 5, 5, 1],
    ("ct", 3, 0): [1, 2, 2, 1],
    ("ct", 3, 1): [1, 4, 7, 4, 1],
    ("ct", 4, 0): [1, 3, 6, 6, 3, 1],
    ("rt", 2, 2): [1, 3, 1],
    ("rt", 3, 1): [1, 2, 1],
    ("rt", 4, 0): [1, 1, 1],
    ("rt", 5, 0): [1, 1, 1, 1],
    ("rt", 6, 0): [1, 1, 2, 1, 1],
}


@pytest.mark.parametrize("space,g,n", sorted(RANK_ROWS))
def test_criterion_5_rank_tables(space, g, n):
    expected = RANK_ROWS[(space, g, n)]
    got = rank_table(g, n, space)
    assert got == expected, f"({g},{n}) {space}: {got} != {expected}"
    _report(f"CRITERION 5 PASS: ({g},{n}) {space} ranks {got}")


# -- criterion 6 ---------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_genus_four_relation(fixtures_dir):
    t0 = time.time()
    rel = load_sum(str(fixtures_dir / "m4_relation.sum"))
    assert len(rel) == 33
    report = verify_relation(rel, 4, 0, "mbar")
    assert report.passed, report.failures()[:3]
    _report(
        f"CRITERION 6 PASS: 33-term relation vanishes against all"
        f" {len(report.pairings)} degree-6 classes in {time.time()-t0:.0f}s"
    )


# -- criterion 7 ---------------------------------------------------------


def test_criterion_7_quick_gate(fixtures_dir):
    t0 = time.time()
    rel = load_sum(str(fixtures_dir / "g5_relation.sum"))
    assert len(rel) == 19
    basis4 = decorated_basis(5, 0, 4, "ct")
    rng = random.Random(20260809)
    picks = rng.sample(range(len(basis4)), 5)
    kind = evaluation_kind("ct")
    for i in picks:
        value = integrate_sum(multiply(rel, FormalSum.unit(basis4[i])), kind)
        assert value == 0, (i, value)
    _report(f"CRITERION 7 PASS (quick): 5 random pairings vanish in {time.time()-t0:.1f}s")


@pytest.mark.slow
def test_criterion_7_full_rank_and_kernel(fixtures_dir):
    t0 = time.time()
    m = gram(5, 0, 3, "ct")
    assert len(m.rows) == 31
    assert rank(m) == 19
    rel = load_sum(str(fixtures_dir / "g5_relation.sum"))
    report = verify_relation(rel, 5, 0, "ct")
    assert report.passed
    _report(f"CRITERION 7 PASS (full): rank 19 and kernel membership in {time.time()-t0:.0f}s")


# -- criterion 8: property suites ----------------------------------------


def test_criterion_8_string_and_dilaton():
    from strataring.integrals import wk_tau

    rng = random.Random(101)
    checked = 0
    while checked < 100:
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        total = 3 * g - 3 + (n + 1)
        if total < 0 or 2 * g - 2 + n <= 0:
            continue
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        d = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        lhs = wk_tau(g, d + (0,))
        rhs = sum(
            (wk_tau(g, d[:j] + (d[j] - 1,) + d[j + 1 :]) for j in range(n) if d[j] >= 1),
            F(0),
        )
        assert lhs == rhs
        if total >= 1:
            cuts = sorted(rng.randint(0, total - 1) for _ in range(n - 1))
            d2 = tuple(b - a for a, b in zip([0] + cuts, cuts + [total - 1]))
            assert wk_tau(g, d2 + (1,)) == (2 * g - 2 + n) * wk_tau(g, d2)
        checked += 1
    _report("CRITERION 8 PASS: string/dilaton on 100 random inputs")


def test_criterion_8_commutativity_and_associativity():
    rng = random.Random(27)
    spaces = [(2, 0, "mbar"), (1, 2, "mbar"), (1, 3, "mbar"), (2, 1, "mbar")]
    done = 0
    while done < 25:
        g, n, space = rng.choice(spaces)
        top = top_degree(space, g, n)
        k1 = rng.randint(0, top)
        k2 = rng.randint(0, top - k1)
        k3 = top - k1 - k2
        try:
            x = FormalSum.unit(rng.choice(decorated_basis(g, n, k1, space)))
            y = FormalSum.unit(rng.choice(decorated_basis(g, n, k2, space)))
            z = FormalSum.unit(rng.choice(decorated_basis(g, n, k3, space)))
        except IndexError:
            continue
        xy = multiply(x, y)
        assert xy == multiply(y, x)
        assert integrate_sum(multiply(xy, z), FUNDAMENTAL) == integrate_sum(
            multiply(x, multiply(y, z)), FUNDAMENTAL
        )
        done += 1
    _report("CRITERION 8 PASS: commutativity and associativity on 25 random triples")


def test_criterion_8_canonical_relabel_invariance():
    from strataring.enumeration import stable_graphs

    rng = random.Random(55)
    pool = []
    for (g, n) in [(2, 0), (1, 2), (2, 1), (0, 5)]:
        for e in range(0, 4):
            pool.extend(stable_graphs(g, n, e))
    for _ in range(200):
        x = rng.choice(pool)
        hperm = list(range(x.n_halfedges))
        vperm = list(range(x.n_vertices))
        rng.shuffle(hperm)
        rng.shuffle(vperm)
        y = x.relabeled(dict(enumerate(hperm)), dict(enumerate(vperm)))
        assert y.canonical_key == x.canonical_key and y.aut_order == x.aut_order
    _report("CRITERION 8 PASS: canonical form invariant under 200 relabelings")


def test_criterion_8_kappa_order_independence():
    from strataring.integrals import LAMBDA_PAIR, LAMBDA_TOP, kappa_reduce
    from test_integrals import _kappa_reduce_reference

    rng = random.Random(77)
    for _ in range(50):
        g = rng.randint(0, 2)
        n = rng.randint(1, 3)
        psi = tuple(rng.randint(0, 2) for _ in range(n))
        kap = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        kind = rng.choice([FUNDAMENTAL, LAMBDA_TOP, LAMBDA_PAIR])
        if kind is LAMBDA_PAIR and g < 2:
            kind = FUNDAMENTAL
        values = {
            _kappa_reduce_reference(g, psi, kap, kind, lambda k: 0),
            _kappa_reduce_reference(g, psi, kap, kind, lambda k: k - 1),
            kappa_reduce(g, psi, kap, kind),
        }
        assert len(values) == 1
    _report("CRITERION 8 PASS: kappa reduction order-independent on 50 inputs")


def test_criterion_8_cold_vs_warm_cache(tmp_path, seven_by_ten):
    classes, entries = seven_by_ten
    path = tmp_path / "cache.txt"
    cache_snapshot(str(path))
    cache_clear()
    try:
        cache_load(str(path))
        kind = evaluation_kind("ct")
        warm = [
            [
                13824
                * integrate_sum(multiply(FormalSum.unit(r), FormalSum.unit(c)), kind)
                for c in classes
            ]
            for r in classes[:7]
        ]
        assert warm == entries
        cache_clear()
        cold = [
            [
                13824
                * integrate_sum(multiply(FormalSum.unit(r), FormalSum.unit(c)), kind)
                for c in classes
            ]
            for r in classes[:7]
        ]
        assert cold == entries
    finally:
        cache_clear()
    _report("CRITERION 8 PASS: cold and warm caches agree on the matrix")
