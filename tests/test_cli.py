from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strataring
from strataring import integrals
from strataring.cli import main
from strataring.grammar import ParseError, parse_sum, sum_to_json, sum_to_text
from test_grammar import _corrupted, _sums

ROOT = Path(__file__).resolve().parent.parent


def test_multiply_integrate_pipeline(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "product.sum"
    code = main(
        [
            "multiply",
            str(fixtures_dir / "worked_product_g.sum"),
            str(fixtures_dir / "worked_product_h.sum"),
            "--normalize",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    code = main(["integrate", str(out), "--kind", "fundamental"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/8"


def test_rank_table_output(capsys):
    assert main(["rank-table", "-g", "2", "-n", "0", "--space", "mbar"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,2,1"


def test_enumerate_lists_count(capsys):
    assert main(["enumerate", "-g", "5", "-n", "0", "-k", "3", "--space", "ct"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "# 31 classes"
    assert len(lines) == 32


def test_gram_csv_scale(capsys):
    assert main(
        ["gram", "-g", "0", "-n", "4", "-k", "1", "--space", "mbar", "--scale", "6"]
    ) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert all("," in r or r for r in rows)
    assert all(x == "6" for r in rows for x in r.split(","))


def test_verify_relation_pass_and_exit_codes(fixtures_dir, capsys):
    code = main(
        ["verify-relation", str(fixtures_dir / "m21_relation.sum"), "-g", "2", "-n", "1", "--space", "ct"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_relation_fail(tmp_path, capsys):
    bad = tmp_path / "bad.sum"
    bad.write_text("1 * graph g=2 n=1 { v0: genus=2; leg(1, v0.0); psi(v0.0)=1; }\n")
    code = main(["verify-relation", str(bad), "-g", "2", "-n", "1", "--space", "ct"])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.sum"
    bad.write_text("1 * graph g=2 n=0 { v0 genus=2; }\n")
    assert main(["integrate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["integrate", str(tmp_path / "missing.sum")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cache_flag_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    args = ["rank-table", "-g", "1", "-n", "2", "--space", "mbar", "--cache", str(cache)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert cache.exists() and cache.read_text().startswith("v1 ")
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cache_value_edited_under_its_checksum_is_not_loaded(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    args = ["gram", "-g", "1", "-n", "2", "-k", "1", "--space", "mbar", "--cache", str(cache)]
    integrals.cache_clear()
    try:
        assert main(args) == 0
        first = capsys.readouterr().out
        *entries, checksum = cache.read_text().splitlines(keepends=True)
        assert checksum.startswith("# sha256 ")
        g, d, code = entries[-1].split()[1:4]
        entries[-1] = f"v1 {g} {d} {code} 12345/1\n"
        cache.write_text("".join(entries) + checksum)
        integrals.cache_clear()
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out == first
        assert err.count("checksum") == 1
        assert F(12345) not in integrals._tau_cache.values()
    finally:
        integrals.cache_clear()


def test_cache_with_unknown_kind_codes_is_skipped(fixtures_dir, tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    cache.write_text("v1 1 1 x 1/24\nv1 1 1 7 1/24\n")
    args = ["integrate", str(fixtures_dir / "worked_product_g.sum"), "--cache", str(cache)]
    assert main(args) == 0
    assert capsys.readouterr().err.count("corrupt cache line") == 2


def test_cache_with_a_zero_denominator_is_skipped(fixtures_dir, tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    cache.write_text("v1 1 1 0 1/0\n")
    args = ["integrate", str(fixtures_dir / "worked_product_g.sum"), "--cache", str(cache)]
    assert main(args) == 0
    assert capsys.readouterr().err.count("corrupt cache line") == 1


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_cache_path_fails_before_computing(fixtures_dir, tmp_path, capsys, where):
    cache = tmp_path if where == "directory" else tmp_path / "missing" / "cache.txt"
    args = ["integrate", str(fixtures_dir / "worked_product_g.sum"), "--cache", str(cache)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_zero_denominator_scale_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gram", "-g", "1", "-n", "1", "-k", "0", "--scale", "1/0"])
    assert exc.value.code == 2
    assert "error: argument --scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rank-table", "-g", "-1", "-n", "5"],
        ["enumerate", "-g", "2", "-n", "-1", "-k", "0"],
    ],
)
def test_negative_genus_or_leg_count_is_rejected(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: negative genus or leg count")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rank-table", "-g", "0", "-n", "2"], "unstable (g, n)"),
        (["rank-table", "-g", "1", "-n", "0", "--space", "rt"], "unstable (g, n)"),
        (["rank-table", "-g", "0", "-n", "1", "--space", "ct"], "unstable (g, n)"),
        (
            ["rank-table", "-g", "1", "-n", "2", "--space", "rt"],
            "rational-tails spaces need genus >= 2",
        ),
        # gram and enumerate reject an unstable (g, n) the same way
        (["gram", "-g", "0", "-n", "2", "-k", "0"], "unstable (g, n)"),
        (["enumerate", "-g", "0", "-n", "2", "-k", "0"], "unstable (g, n)"),
    ],
)
def test_rank_table_rejects_spaces_without_a_pairing(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_public_surface(capsys):
    for name in strataring.__all__:
        assert hasattr(strataring, name), name
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
    assert set(commands.split(",")) == {
        "multiply",
        "integrate",
        "enumerate",
        "gram",
        "rank-table",
        "verify-relation",
    }


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_corrupted_sum_files_exit_2_with_an_error_line(data):
    # the corruptions of tests/test_grammar.py, read from files by the CLI
    s = data.draw(_sums())
    assume(len(s) > 0)
    text = data.draw(st.sampled_from([sum_to_text(s), json.dumps(sum_to_json(s))]))
    bad = data.draw(_corrupted(text))
    try:
        parse_sum(bad)
    except ParseError:
        pass
    else:
        assume(False)  # the corruption left a valid sum
    with tempfile.TemporaryDirectory() as tmp:
        bad_path, good_path = Path(tmp) / "bad.sum", Path(tmp) / "good.sum"
        bad_path.write_text(bad, encoding="utf-8")
        good_path.write_text(sum_to_text(s), encoding="utf-8")
        for argv in (
            ["integrate", str(bad_path)],
            ["multiply", str(bad_path), str(good_path)],
            ["multiply", str(good_path), str(bad_path)],
        ):
            code, out, err = _run_main(argv)
            assert code == 2, argv
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text",
    [
        "1 * graph g=2 n=0 { v0: genus=2; ",
        '{"g": 2, "n": 0, "terms": [{"coeff": "1", "graph": {"g": 2, "n": 0, "vertices": 7}}]}',
    ],
)
@pytest.mark.parametrize("command", ["integrate", "multiply"])
def test_corrupted_sum_file_in_a_process_prints_no_traceback(tmp_path, text, command):
    bad = tmp_path / "bad.sum"
    bad.write_text(text, encoding="utf-8")
    argv = [str(bad)] if command == "integrate" else [str(bad), str(bad)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "strataring.cli", command, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
