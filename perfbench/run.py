"""Benchmark of strataring: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Each round runs in a fresh interpreter
(``child.py``) with cold caches, calling the public API from one thread.
Rounds are started while the time measured so far plus the last round
fits in ``--seconds``, and at least one round runs.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median round time, from the first engine call to the checked
  answer;
* ``setup_s``: median time from spawning an interpreter until strataring
  is imported and the workload's inputs are parsed, over nine set-up-only
  processes plus every round;
* ``peak_rss_mb``: median peak resident memory of the round processes.

``--trace 1`` runs untraced and traced rounds in pairs and reports the
per-layer metrics of the traced rounds (medians), with the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list the metrics and the SHA-256 digest of the outputs.  A full
report goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


class RoundFailed(RuntimeError):
    pass


def _child(args, setup_only=False, trace=False):
    """Run one child; returns ``(setup seconds, result dict or None)``."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RoundFailed(f"round process exited with code {proc.returncode}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def _build() -> None:
    """Byte-compile the package so that set-up times an import, not a compile."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def measure(args) -> dict:
    setups = [_child(args, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup, result = _child(args)
        setups.append(setup)
        plain.append(result)
        if args.trace:
            traced.append(_child(args, trace=True)[1])
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > args.seconds:
            break
    return {"setups": setups, "plain": plain, "traced": traced}


def summarize(args, runs: dict) -> dict:
    rounds = runs["plain"] + runs["traced"]
    problems = sorted({p for r in rounds for p in r["problems"]})
    digests = sorted({r["digest"] for r in rounds})
    med = statistics.median
    if args.trace:
        names = list(runs["traced"][0]["layers"])
        metrics = {
            name: {"value": med(r["layers"][name][0] for r in runs["traced"]),
                   "unit": runs["traced"][0]["layers"][name][1]}
            for name in names
        }
        plain_wall = med(r["wall_s"] for r in runs["plain"])
        traced_wall = med(r["wall_s"] for r in runs["traced"])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall - 1, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": med(r["wall_s"] for r in runs["plain"]), "unit": "s"},
            "setup_s": {"value": med(runs["setups"]), "unit": "s"},
            "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in runs["plain"]), "unit": "MB"},
        }
    return {
        "correct": not problems and len(digests) == 1,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "problems": problems,
        "digests": digests,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "strataring" / "__init__.py").is_file():
        print(f"no strataring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        _build()
        runs = measure(args)
    except (RoundFailed, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = summarize(args, runs)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, **summary, "runs": runs}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))

    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for digest in summary["digests"]:
        print(f"outputs sha256 {digest}")
    for problem in summary["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
