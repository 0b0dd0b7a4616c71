"""Each demo script runs in its own interpreter and prints its stated answer."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(name: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_worked_product_demo():
    assert _run("01_worked_product.py")[-1] == "integral over the moduli space: 1/8"


def test_intersection_matrix_demo():
    lines = _run("02_intersection_matrix.py")
    assert "rank: 7" in lines
    assert "kernel dimension: 3" in lines
    assert sum(line.startswith("relation: 0 = ") for line in lines) == 3


def test_rank_tables_demo():
    # each row without its timing
    rows = [line.split("   [")[0] for line in _run("03_rank_tables.py")]
    assert rows == [
        "--- mbar ---",
        "(0,4): 1, 1",
        "(0,5): 1, 5, 1",
        "(1,1): 1, 1",
        "(1,2): 1, 2, 1",
        "(1,3): 1, 5, 5, 1",
        "(2,0): 1, 2, 2, 1",
        "(2,1): 1, 3, 5, 3, 1",
        "--- ct ---",
        "(2,0): 1, 1",
        "(2,1): 1, 2, 1",
        "(2,2): 1, 5, 5, 1",
        "(3,0): 1, 2, 2, 1",
        "(3,1): 1, 4, 7, 4, 1",
        "(4,0): 1, 3, 6, 6, 3, 1",
        "--- rt ---",
        "(2,2): 1, 3, 1",
        "(3,1): 1, 2, 1",
        "(4,0): 1, 1, 1",
        "(5,0): 1, 1, 1, 1",
        "(6,0): 1, 1, 2, 1, 1",
    ]


def test_relations_demo():
    lines = _run("04_relations.py")
    assert lines[:4] == [
        "(2,1) degree-1 relation: PASS against 3 classes",
        "(3,1) degree-2 relation 1: PASS against 12 classes",
        "(3,1) degree-2 relation 2: PASS against 12 classes",
        "(3,1) degree-2 relation 3: PASS against 12 classes",
    ]
    assert lines[4] == (
        "(5,0) conjectural relation, five random pairings: "
        + repr([Fraction(0)] * 5)
    )
