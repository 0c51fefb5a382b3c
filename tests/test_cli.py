"""Command-line tests, run in-process via main(argv) plus one real subprocess."""

import io
import json
import subprocess
import sys
import time

import pytest

import factoradic.cli as cli
from factoradic.cli import main

from golden import RULE_RENDERINGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_encode_plain(capsys):
    code, out, err = run_cli(capsys, "encode", "16", "--len", "4")
    assert (code, out, err) == (0, "(2, 3, 0, 1)\n", "")


def test_encode_minimal_length(capsys):
    code, out, _ = run_cli(capsys, "encode", "16")
    assert (code, out) == (0, "(2, 3, 0, 1)\n")


def test_encode_json(capsys):
    code, out, _ = run_cli(capsys, "encode", "16", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 16, "permutation": [2, 3, 0, 1]}


def test_decode_argument(capsys):
    code, out, _ = run_cli(capsys, "decode", "(2, 3, 0, 1)")
    assert (code, out) == (0, "16\n")


def test_decode_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(2, 3, 0, 1)\n"))
    code, out, _ = run_cli(capsys, "decode")
    assert (code, out) == (0, "16\n")


def test_encode_decode_pipe_10_to_100(capsys, monkeypatch):
    n = 10**100 - 7
    code, out, _ = run_cli(capsys, "encode", str(n))
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "decode", "-")
    assert (code, out) == (0, f"{n}\n")


def test_digits(capsys):
    code, out, _ = run_cli(capsys, "digits", "16")
    assert (code, out) == (0, "(0, 0, 2, 2)\n")
    code, out, _ = run_cli(capsys, "digits", "16", "--len", "6", "--format", "json")
    assert json.loads(out) == {"n": 16, "digits": [0, 0, 2, 2, 0, 0]}


def test_inversions(capsys):
    code, out, _ = run_cli(capsys, "inversions", "(2, 3, 0, 1)")
    assert (code, out) == (0, "(0,2) (0,3) (1,2) (1,3)\n")
    code, out, _ = run_cli(capsys, "inversions", "(2,3,0,1)", "--format", "json")
    assert json.loads(out) == {"size": 4, "pairs": [[0, 2], [0, 3], [1, 2], [1, 3]]}


def test_mod_with_check(capsys):
    code, out, err = run_cli(capsys, "mod", "16", "4", "--check")
    assert (code, out, err) == (0, "0\n", "")
    code, out, _ = run_cli(capsys, "mod", "16", "3", "--format", "json")
    assert json.loads(out) == {"n": 16, "k": 3, "residue": 1}


def test_mod_check_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "residue", lambda n, k: (n % k) + 1)
    code, out, err = run_cli(capsys, "mod", "10", "3", "--check")
    assert code == 2
    assert "mismatch" in err


def test_rule_plain_golden(capsys):
    for k, want in RULE_RENDERINGS.items():
        code, out, _ = run_cli(capsys, "rule", str(k))
        assert (code, out) == (0, want + "\n")


def test_rule_latex_and_json(capsys):
    code, out, _ = run_cli(capsys, "rule", "3", "--format", "latex")
    assert (code, out) == (0, "\\inv{0, 1} - \\inv{0, 2} - \\inv{1, 2}\n")
    code, out, _ = run_cli(capsys, "rule", "2", "--format", "json")
    assert json.loads(out) == {"k": 2, "terms": [{"i": 0, "j": 1, "c": 1}]}


def test_table_plain(capsys):
    code, out, _ = run_cli(capsys, "table", "6")
    lines = out.splitlines()
    assert code == 0
    assert lines == [f"{k}: {RULE_RENDERINGS[k]}" for k in (2, 3, 4, 5, 6)]


def test_table_primes_json(capsys):
    code, out, _ = run_cli(capsys, "table", "12", "--primes", "--format", "json")
    objs = json.loads(out)
    assert [o["k"] for o in objs] == [2, 3, 5, 7, 11]


def test_compare(capsys):
    code, out, _ = run_cli(capsys, "compare", "(0,2,1,3)", "(2,0,1,3)")
    assert (code, out) == (0, "precedes\n")
    code, out, _ = run_cli(capsys, "compare", "(1,0)", "(1,0,2)")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run_cli(capsys, "compare", "(1,0,2)", "(0,1,2)", "--format", "json")
    assert json.loads(out) == {"ordering": "follows"}


def test_compare_both_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(1,0)\n(0,1)\n"))
    code, out, _ = run_cli(capsys, "compare", "-", "-")
    assert (code, out) == (0, "follows\n")


def test_verify_small_ranges(capsys):
    code, out, _ = run_cli(capsys, "verify", "--smax", "4", "--nmax", "240", "--kmax", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "factoradic-order: PASS (33 cases)"
    assert lines[1].startswith("inversion-sets: PASS")
    assert lines[2] == "residues: PASS (1200 cases)"


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--smax", "3", "--nmax", "24", "--kmax", "3",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert [s["name"] for s in obj["suites"]] == [
        "factoradic-order", "inversion-sets", "residues",
    ]
    assert all(s["mismatches"] == 0 for s in obj["suites"])


def test_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_residues", lambda nmax, kmax: (5, [(1, 2, 0, 1)]))
    code, out, _ = run_cli(capsys, "verify", "--smax", "2")
    assert code == 2
    assert "residues: FAIL (5 cases)" in out


def test_bench_small(capsys):
    code, out, _ = run_cli(capsys, "bench", "--size", "300")
    assert code == 0
    assert out.startswith("size: 300\n")
    for label in ("encode:", "decode:", "inversion-count:"):
        assert label in out
    code, out, _ = run_cli(capsys, "bench", "--size", "300", "--format", "json")
    obj = json.loads(out)
    assert obj["size"] == 300
    assert set(obj["seconds"]) == {"encode", "decode", "inversion_count"}


def test_bench_size_cap_comes_first(capsys):
    # refused before (2e6)! is computed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bench", "--size", "2000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("primes", [False, True])
def test_table_json_matches_one_dumps(capsys, primes):
    flag = ["--primes"] if primes else []
    for kmax in range(2, 61):
        code, out, _ = run_cli(capsys, "table", str(kmax), "--format", "json", *flag)
        rules = cli.rule_table(kmax, primes_only=primes)
        assert (code, out) == (0, json.dumps([r.to_json_obj() for r in rules]) + "\n")


def test_table_json_refuses_before_writing(capsys):
    # the rule for 1423 lists too many pairs; no partial array is written
    code, out, err = run_cli(capsys, "table", "1423", "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_input_exits_1(capsys):
    assert run_cli(capsys, "encode", "-5")[0] == 1
    assert run_cli(capsys, "decode", "(1, 1)")[0] == 1
    assert run_cli(capsys, "decode", "(1, x)")[0] == 1
    assert run_cli(capsys, "mod", "7", "0")[0] == 1
    assert run_cli(capsys, "rule", "1")[0] == 1
    code, _, err = run_cli(capsys, "encode", "25", "--len", "4")
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_rule_listing_too_large_exits_1(capsys):
    # S(100003) = 100003 columns: about 5e9 pairs, refused before listing any
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rule", "100003")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors_exit_1(capsys):
    for argv in (["nosuch"], [], ["encode"], ["encode", "12x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "factoradic", "encode", "16", "--len", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(2, 3, 0, 1)\n"
    proc = subprocess.run(
        [sys.executable, "-m", "factoradic", "decode", "(1, 1)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("factoradic ")
