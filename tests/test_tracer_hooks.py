"""The benchmark's tracer (``perfbench/tracing.py``) wraps private entry
points of the engine by name, reads their results and reads its caches.
A refactor that deletes or renames one of them, or changes the shape of a
wrapped result, breaks the traced benchmark; this test notices it without
running a workload.  The tracer is installed in a child interpreter, so
that its patches stay out of this process, and with bytecode writing off,
so that nothing is written into ``perfbench/``.  The child then runs the
worked product through both integration paths and one rank table, so that
every wrapper runs and every layer counts something."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from strataring import integrate_sum, multiply, pairing, rank_table
from strataring.grammar import load_sum
g, h = load_sum(sys.argv[1]), load_sum(sys.argv[2])
integrate_sum(multiply(g, h), "mbar")
pairing.integrate_product(g, h, "mbar")
rank_table(2, 0, "mbar")
tracer.close()
print(json.dumps({name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}))
"""


def test_the_benchmark_tracer_finds_every_hook():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    fixtures = ROOT / "fixtures"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD,
         str(fixtures / "worked_product_g.sum"), str(fixtures / "worked_product_h.sum")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for name in (
        "algebra.expand_calls",
        "algebra.expand_terms",
        "integrals.vertex_calls",
        "integrals.wk_calls",
        "cache.tau_entries",
        "cache.kappa_entries",
        "structures.pair_structures",
        "pairing.pairings",
    ):
        assert metrics[name] > 0, name
