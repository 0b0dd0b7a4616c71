"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest perfbench

Every workload runs its checks in a few seconds, untraced and traced, and
prints the metrics that BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed=3, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _digest(proc):
    return [line for line in proc.stdout.splitlines() if line.startswith("outputs sha256")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_checks_pass_and_report_every_metric(workload, trace):
    proc = _run(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_answers_do_not_depend_on_the_presentation():
    # the seed only relabels the inputs and shuffles their order
    digests = [_digest(_run("g4-relation", seed=seed)) for seed in (1, 2)]
    assert digests[0] and digests[0] == digests[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("rt-series", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
