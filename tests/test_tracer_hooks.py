"""The benchmark's tracer (``perfbench/tracing.py``) wraps private entry
points of the engine by name and reads its caches.  A refactor that
deletes or renames one of them breaks the traced benchmark; this test
notices it without running a workload.  The tracer is installed in a child
interpreter, so that its patches stay out of this process, and with
bytecode writing off, so that nothing is written into ``perfbench/``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_tracer_finds_every_hook():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import tracing; tracer = tracing.Tracer(); tracing.install(tracer); tracing.layer_metrics(tracer)"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
