"""Command-line entry point for batch computations.

Exit codes: 0 on success, 1 when a relation verification FAILs, 2 on
malformed input or arguments, or an unusable file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import grammar
from .algebra import FormalSum, multiply, normalize
from .enumeration import SPACES, decorated_basis, top_degree
from .graphs import GraphError
from .integrals import cache_load, cache_snapshot, evaluation_kind, integrate_sum
from .pairing import gram, kernel_basis, rank, rank_table, verify_relation


def _add_common(p: argparse.ArgumentParser, *, space=False, gn=False, k=False):
    if gn:
        p.add_argument("-g", type=int, required=True, help="total genus")
        p.add_argument("-n", type=int, required=True, help="number of legs")
    if k:
        p.add_argument("-k", type=int, required=True, help="codimension")
    if space:
        p.add_argument("--space", choices=SPACES, default="mbar")
    p.add_argument("--cache", help="psi-integral cache file (also: STRATA_CACHE)")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _check_cache_path(path: str) -> None:
    """Fail before computing when the cache could not be written back."""
    if os.path.isdir(path):
        raise ValueError(f"cache path {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"cache path {path!r} is in a missing directory")


def _emit_matrix(m, scale, fmt, out=sys.stdout):
    entries = m.scaled(scale)
    if fmt == "csv":
        for row in entries:
            out.write(",".join(str(x) for x in row) + "\n")
    else:
        json.dump(
            {
                "g": m.g,
                "n": m.n,
                "k": m.k,
                "space": m.space,
                "rows": [grammar.decorated_to_text(d) for d in m.rows],
                "cols": [grammar.decorated_to_text(d) for d in m.cols],
                "entries": [[str(x) for x in row] for row in entries],
            },
            out,
            indent=1,
        )
        out.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="strataring",
        description="Exact intersection computations with decorated boundary strata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiply", help="multiply two formal-sum files")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("-o", "--output", help="write the product here (default stdout)")
    p.add_argument("--normalize", action="store_true", help="drop dimension-vanishing terms")
    _add_common(p)

    p = sub.add_parser("integrate", help="integrate a formal-sum file")
    p.add_argument("file")
    p.add_argument(
        "--kind",
        default="fundamental",
        help="fundamental | lambda_g | lambda_g_lambda_g_minus_1 (aliases: mbar, ct, rt)",
    )
    _add_common(p)

    p = sub.add_parser("enumerate", help="list the decorated spanning set")
    _add_common(p, space=True, gn=True, k=True)

    p = sub.add_parser("gram", help="pairing matrix of complementary spanning sets")
    _add_common(p, space=True, gn=True, k=True)
    p.add_argument(
        "--scale", type=_rational, default="1", help="print entries times this rational"
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("rank-table", help="pairing ranks in every codimension")
    _add_common(p, space=True, gn=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify-relation", help="pair a candidate relation against the spanning set")
    p.add_argument("file")
    _add_common(p, space=True, gn=True)

    args = parser.parse_args(argv)

    cache_path = getattr(args, "cache", None) or os.environ.get("STRATA_CACHE")
    try:
        if cache_path:
            _check_cache_path(cache_path)
            cache_load(cache_path)
        code = _run(args)
        if cache_path:
            cache_snapshot(cache_path)
    except (grammar.ParseError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _run(args) -> int:
    if args.command == "multiply":
        x = grammar.load_sum(args.x)
        y = grammar.load_sum(args.y)
        product = multiply(x, y)
        if args.normalize:
            product = normalize(product)
        text = grammar.sum_to_text(product)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "integrate":
        s = grammar.load_sum(args.file)
        value = integrate_sum(s, evaluation_kind(args.kind))
        print(value)
        return 0

    if args.command == "enumerate":
        basis = decorated_basis(args.g, args.n, args.k, args.space)
        for d in basis:
            print(grammar.decorated_to_text(d))
        print(f"# {len(basis)} classes")
        return 0

    if args.command == "gram":
        m = gram(args.g, args.n, args.k, args.space)
        _emit_matrix(m, args.scale, args.format)
        return 0

    if args.command == "rank-table":
        ranks = rank_table(args.g, args.n, args.space)
        if args.format == "csv":
            print(",".join(str(r) for r in ranks))
        else:
            print(json.dumps({"g": args.g, "n": args.n, "space": args.space, "ranks": ranks}))
        return 0

    if args.command == "verify-relation":
        rel = grammar.load_sum(args.file)
        report = verify_relation(rel, args.g, args.n, args.space)
        if report.passed:
            print(f"PASS: all {len(report.pairings)} pairings vanish")
            return 0
        print(f"FAIL: {len(report.failures())} nonzero pairings")
        for d, v in report.failures():
            print(f"  {v}  <-  {grammar.decorated_to_text(d)}")
        return 1

    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
