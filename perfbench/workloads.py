"""The four workloads: inputs from a seed, the engine calls, the checks.

Each workload is prepared once per process (parse the input files, build
the seeded presentation of the inputs) and then run as one round.  The
seed changes how the inputs are presented, not what is computed: it
renumbers the vertices and half-edges of every input graph (an isomorphic
presentation of the same class), shuffles the order of terms and classes,
and draws the coefficients of the random combinations used in the
associativity check.

Every check compares against the paper or against a property the method
must have, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from oracles import partition_numbers, rank_mod_prime, vector_times_matrix

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = ROOT / "fixtures"
INPUTS = BENCH / "inputs"


class Round:
    """Bookkeeping of one round: operations done, problems, outputs."""

    def __init__(self, planned: int):
        self.planned = planned
        self.done = 0
        self.problems: list[str] = []
        self.outputs: list = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def output(self, *items) -> None:
        self.outputs.append([str(x) if isinstance(x, Fraction) else x for x in items])

    def digest(self) -> str:
        text = json.dumps(self.outputs, default=str, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def relabel(d, rng):
    """The decorated graph ``d`` with its vertices and half-edges renumbered
    by random permutations: an isomorphic presentation of the same class."""
    vertices = list(range(d.graph.n_vertices))
    halves = list(range(d.graph.n_halfedges))
    rng.shuffle(vertices)
    rng.shuffle(halves)
    return d.relabeled(dict(enumerate(halves)), dict(enumerate(vertices)))


def _presented(api, s, rng):
    """``s`` with every term relabeled and the terms in shuffled order;
    returns the new sum and the terms as ``(file position, coeff, graph)``."""
    terms = [(i, c, relabel(d, rng)) for i, (c, d) in enumerate(s.terms.values())]
    rng.shuffle(terms)
    return api.FormalSum(s.g, s.n, [(c, d) for _, c, d in terms]), terms


def _sum_key(s):
    """A presentation-independent form of a formal sum."""
    return sorted((str(key), str(c)) for key, (c, _) in s.terms.items())


# -- rt-series -------------------------------------------------------------


class RtSeries:
    """``rank_table(g, 0, "rt")`` for a series of genera (Faber's bound).

    The inputs are the paper's fixed ``(g, 0, "rt")`` triples, so the seed
    has nothing to vary."""

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        self.genera = [4, 5] if smoke else [6, 7, 8]
        self.planned = len(self.genera)

    def run(self, r: Round) -> None:
        for g in self.genera:
            ranks = self.api.rank_table(g, 0, "rt")
            r.done += 1
            top = g - 2
            p = partition_numbers(top)
            r.check(len(ranks) == top + 1, f"rt({g}): {len(ranks)} degrees, expected {top + 1}")
            r.check(all(ranks[d] == p[d] for d in range(min(g // 3, top) + 1)),
                    f"rt({g}): ranks {ranks} differ from p(d) for d <= {g // 3}")
            r.check(all(x <= p[d] for d, x in enumerate(ranks)),
                    f"rt({g}): ranks {ranks} exceed p(d)")
            r.check(ranks[top] == 1, f"rt({g}): top-degree rank {ranks[top]} is not 1")
            r.output("rt", g, ranks)


# -- g4-relation -------------------------------------------------------------


class G4Relation:
    """The 33-term genus-4 relation paired with a fixed sample of degree-6
    classes on M_4-bar.  Each pairing must be exactly 0; the per-term
    pairings against the classes with a positive-genus vertex show that
    the zero comes from cancellation."""

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        rng = Random(seed)
        relation = api.load_sum(str(FIXTURES / "m4_relation.sum"))
        sample = api.load_sum(str(INPUTS / ("g4_smoke.sum" if smoke else "g4_sample.sum")))
        self.relation, self.terms = _presented(api, relation, rng)
        _, self.classes = _presented(api, sample, rng)
        cheap = [d for _, _, d in self.classes if max(d.graph.genera) > 0]
        self.planned = len(self.classes) + len(cheap) * len(self.terms)

    def run(self, r: Round) -> None:
        api = self.api
        pair = api.pairing.integrate_product
        nonzero_terms = 0
        results = []
        for pos, _, b in self.classes:
            unit = api.FormalSum.unit(b)
            value = pair(self.relation, unit, "fundamental")
            r.done += 1
            r.check(value == 0, f"class {pos}: relation pairs to {value}")
            per_term = []
            if max(b.graph.genera) > 0:
                for i, c, t in self.terms:
                    per_term.append((i, c, pair(api.FormalSum.unit(t), unit, "fundamental")))
                    r.done += 1
                total = sum((c * p for _, c, p in per_term), Fraction(0))
                r.check(total == value, f"class {pos}: per-term sum {total} != {value}")
                nonzero_terms += sum(1 for _, _, p in per_term if p)
            results.append((pos, value, sorted((i, str(p)) for i, _, p in per_term)))
        r.check(nonzero_terms > 0, "every per-term pairing is 0: the check is vacuous")
        for pos, value, per_term in sorted(results):
            r.output("class", pos, value, per_term)


# -- ct5-gram ----------------------------------------------------------------


class Ct5Gram:
    """The codimension-3 compact-type Gram matrix in genus 5, its rank and
    kernel, and the conjectural genus-5 relation."""

    FULL = dict(g=5, n=0, k=3, rows=31, rank=19, relation="g5_relation.sum")
    SMOKE = dict(g=3, n=1, k=2, rows=None, rank=7, relation="m21_relation.sum")

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        self.spec = self.SMOKE if smoke else self.FULL
        relation = api.load_sum(str(FIXTURES / self.spec["relation"]))
        self.relation, _ = _presented(api, relation, Random(seed))
        self.planned = 4

    def run(self, r: Round) -> None:
        api, spec = self.api, self.spec
        m = api.gram(spec["g"], spec["n"], spec["k"], "ct")
        r.done += 1
        rows = len(m.rows)
        if spec["rows"] is not None:
            r.check(rows == spec["rows"], f"{rows} rows, expected {spec['rows']}")
        rk = api.rank(m)
        r.done += 1
        r.check(rk == spec["rank"], f"rank {rk}, expected {spec['rank']}")
        r.check(rank_mod_prime(m.entries) == rk, "rank over the prime field differs")
        kernel = api.kernel_basis(m)
        r.done += 1
        r.check(len(kernel) == rows - rk, f"{len(kernel)} kernel vectors, expected {rows - rk}")
        for v in kernel:
            r.check(any(v), "zero kernel vector")
            r.check(not any(vector_times_matrix(v, m.entries)), "kernel vector with v.M != 0")
        if kernel:
            r.check(rank_mod_prime(kernel) == len(kernel), "kernel vectors are dependent")
        g, n = self.relation.g, self.relation.n
        report = api.verify_relation(self.relation, g, n, "ct")
        r.done += 1
        top = api.top_degree("ct", g, n)
        complement = len(api.decorated_basis(g, n, top - report.codim, "ct"))
        r.check(len(report.pairings) == complement,
                f"relation paired with {len(report.pairings)} of {complement} classes")
        r.check(all(v == 0 for _, v in report.pairings), "the relation does not vanish")
        r.output("gram", rows, len(m.cols), [[str(x) for x in row] for row in m.entries])
        r.output("rank", rk, [[str(x) for x in v] for v in kernel])
        r.output("relation", sorted(str(v) for _, v in report.pairings))


# -- products ----------------------------------------------------------------


class Products:
    """Materialized products: multiply, normalize, integrate_sum."""

    def __init__(self, api, seed: int, smoke: bool):
        self.api = api
        rng = Random(seed)
        g_sum = api.load_sum(str(FIXTURES / "worked_product_g.sum"))
        h_sum = api.load_sum(str(FIXTURES / "worked_product_h.sum"))
        self.worked = [_presented(api, s, rng)[0] for s in (g_sum, h_sum)]
        name = "m21_relation.sum" if smoke else "g5_relation.sum"
        self.relation, _ = _presented(api, api.load_sum(str(FIXTURES / name)), rng)
        # seeded triples of combinations of the boundary divisors of M_2-bar
        divisors = [d for _, d in api.load_sum(str(INPUTS / "m2_divisors.sum")).terms.values()]
        self.triples = []
        for _ in range(1 if smoke else 2):
            triple = []
            for _ in range(3):
                coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in divisors]
                triple.append(api.FormalSum(2, 0, [(c, relabel(d, rng)) for c, d in zip(coeffs, divisors)]))
            self.triples.append(triple)
        # operations are calls of multiply and integrate_sum; the pairing
        # of R.R with all complementary classes counts as one
        self.planned = 3 + 7 * len(self.triples) + 2

    def run(self, r: Round) -> None:
        api = self.api
        mul, norm, integ = api.multiply, api.normalize, api.integrate_sum
        g_unit, h_unit = self.worked
        gh = mul(g_unit, h_unit)
        hg = mul(h_unit, g_unit)
        worked = integ(norm(gh), "fundamental")
        r.done += 3
        r.check(gh == hg, "the worked product does not commute")
        r.check(worked == Fraction(1, 8), f"the worked product integrates to {worked}, not 1/8")
        r.output("worked", worked, _sum_key(gh))

        nonzero = False
        for x, y, z in self.triples:
            xy, yx, yz = mul(x, y), mul(y, x), mul(y, z)
            left = integ(norm(mul(norm(xy), z)), "fundamental")
            right = integ(norm(mul(x, norm(yz))), "fundamental")
            r.done += 7
            r.check(xy == yx, "multiply does not commute")
            r.check(left == right, f"(xy)z = {left} but x(yz) = {right}")
            nonzero = nonzero or left != 0
            r.output("triple", left)
        r.check(nonzero, "every associativity triple integrates to 0")

        rel = self.relation
        square = norm(mul(rel, rel))
        r.done += 1
        top = api.top_degree("ct", rel.g, rel.n)
        k = 2 * next(iter(rel.codimensions()))
        values = []
        for y in api.decorated_basis(rel.g, rel.n, top - k, "ct"):
            values.append(integ(norm(mul(square, api.FormalSum.unit(y))), "ct"))
        r.done += 1
        r.check(values and all(v == 0 for v in values), f"(R.R).y = {values}, expected 0")
        r.output("square", len(square), _sum_key(square), values)


WORKLOADS = {
    "rt-series": RtSeries,
    "g4-relation": G4Relation,
    "ct5-gram": Ct5Gram,
    "products": Products,
}
