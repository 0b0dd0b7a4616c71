"""One round of one workload in a fresh interpreter, so every cache is cold.

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--smoke] [--setup-only]

The process imports ``strataring`` from ``src/`` of the checkout, parses
the workload's input files and prints ``READY``; the parent times set-up
from spawning the process to that line.  It then runs the round and prints
one JSON line: wall time, peak resident memory, operations, problems,
the SHA-256 of the outputs, and with ``--trace`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import strataring

    if Path(strataring.__file__).resolve().parent != ROOT / "src" / "strataring":
        print(f"imported strataring from {strataring.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Round

    workload = WORKLOADS[args.workload](strataring, args.seed, args.smoke)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    r = Round(workload.planned)
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    t0 = time.perf_counter()
    try:
        workload.run(r)
    except Exception as exc:  # reported as failed operations, not a crash
        traceback.print_exc()
        r.problems.append(f"operation {r.done + 1} raised {exc!r}")
    wall = time.perf_counter() - t0
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": r.planned,
        "failed": r.planned - r.done,
        "problems": r.problems,
        "digest": r.digest(),
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.close()
        result["layers"] = layer_metrics(tracer)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
