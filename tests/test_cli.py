"""Command-line tests, run in-process via main(argv) plus one real subprocess."""

import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import factoradic.cli as cli
import factoradic.reference as reference
from factoradic import digits_from_integer, encode, format_permutation, render_rule, rule_table
from factoradic.cli import main
from factoradic.rules import DivisibilityRule

from golden import RULE_RENDERINGS
from test_core import int_text_limit


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


def test_decode_refuses_an_empty_stdin_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(" \n"))
    assert run_cli(capsys, "decode", "-") == (1, "", "error: expected a permutation on stdin\n")


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


def test_plain_mod_prints_through_format_decimal(capsys, monkeypatch):
    # as its JSON branch does: a residue past the int/str limit prints too
    k, fmt = _BIG_MODULI[1], cli._format_decimal
    seen = []
    def spy(x):
        seen.append(x)
        return fmt(x)
    monkeypatch.setattr(cli, "_format_decimal", spy)
    for n, r in ((16, 16), (4 * k - 1, k - 1)):
        seen.clear()
        assert run_cli(capsys, "mod", fmt(n), fmt(k)) == (0, f"{fmt(r)}\n", "")
        assert seen == [r]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
@pytest.mark.parametrize("limit", [4300, 0])
def test_main_leaves_the_int_text_limit_as_it_found_it(capsys, limit):
    # "+" and 5,000 digits parse under any limit, and main leaves the
    # caller's as it was on every exit: an answer, an error, and argparse's
    # SystemExit for bad usage and for --version
    n = 10**5000 - 1
    with int_text_limit(limit):
        assert run_cli(capsys, "mod", "+" + "9" * 5000, "7") == (0, f"{n % 7}\n", "")
        assert sys.get_int_max_str_digits() == limit
        for argv in (["mod", "5", "0"], ["mod", "5"], ["--version"]):
            with contextlib.suppress(SystemExit):
                main(argv)
            assert sys.get_int_max_str_digits() == limit, argv


def test_mod_check_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "residue", lambda n, k: (n % k) + 1)
    code, out, err = run_cli(capsys, "mod", "10", "3", "--check")
    assert code == 2
    assert "mismatch" in err


def test_mod_check_mismatch_prints_residues_past_the_int_text_limit(capsys, monkeypatch):
    # a K of 5,001 digits and n = K - 1: the mismatch line prints both
    # residues, K - 1 and K, under the default limit
    k_text = "1" + "0" * 4999 + "7"
    monkeypatch.setattr(cli, "residue", lambda n, k: (n % k) + 1)
    with int_text_limit(4300):
        code, out, err = run_cli(capsys, "mod", "1" + "0" * 4999 + "6", k_text, "--check")
    assert code == 2
    assert err == f"mismatch: inversion path gave {k_text}, direct path gave {k_text[:-1]}6\n"


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


def test_verify_refuses_smax_above_the_bruteforce_cap_first(capsys, monkeypatch):
    # no suite runs before the refusal
    def refuse(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(reference, "encode", refuse)
    monkeypatch.setattr(cli, "check_inversions", refuse)
    code, out, err = run_cli(capsys, "verify", "--smax", "9")
    assert (code, out, err) == (1, "", "error: bruteforce enumeration capped at s = 8\n")


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


def test_bench_reports_a_round_trip_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "decode", lambda perm: -1)
    assert run_cli(capsys, "bench", "--size", "30") == (2, "", "mismatch: decode(encode(n)) != n\n")


def test_bench_size_cap_comes_first(capsys):
    # refused before (2e6)! is computed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bench", "--size", "2000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("size", ["0", "-5"])
def test_bench_refuses_sizes_below_1(capsys, size):
    code, out, err = run_cli(capsys, "bench", "--size", size)
    assert (code, out, err) == (1, "", f"error: prefix length must be >= 1, got {size}\n")


@pytest.mark.parametrize("primes", [False, True])
def test_table_json_matches_one_dumps(capsys, primes):
    flag = ["--primes"] if primes else []
    for kmax in range(2, 61):
        code, out, _ = run_cli(capsys, "table", str(kmax), "--format", "json", *flag)
        rules = rule_table(kmax, primes_only=primes)
        assert (code, out) == (0, json.dumps([r.to_json_obj() for r in rules]) + "\n")


def test_table_json_refuses_before_writing(capsys):
    # the rule for 1423 lists too many pairs; no partial array is written
    code, out, err = run_cli(capsys, "table", "1423", "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", [(), ("--format", "latex")], ids=["plain", "latex"])
def test_table_refuses_before_writing_in_every_format(capsys, fmt):
    # before, plain and LaTeX wrote the 1,421 rules up to 1422 (1.19 GB) first
    code, out, err = run_cli(capsys, "table", "1423", *fmt)
    assert (code, out) == (1, "")
    assert err == "error: rule for 1423 lists 1011753 pairs > MAX_PREFIX_LENGTH\n"


@pytest.mark.parametrize("primes", [(), ("--primes",)], ids=["all", "primes"])
@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
def test_table_stops_at_the_first_refused_listing(capsys, fmt, primes):
    # rules are checked as they are built: 1423 is the first refused modulus
    # for every KMAX from 1423 up, so no rule past it is built (building them
    # all took 9 s for KMAX = 20,000, and grows with KMAX squared)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "20000", "--format", fmt, *primes)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: rule for 1423 lists 1011753 pairs > MAX_PREFIX_LENGTH\n"


def test_rule_json_needs_no_json_dumps_or_to_json_obj(capsys, monkeypatch):
    rules = rule_table(30)
    want = [json.dumps(r.to_json_obj()) for r in rules]
    def refuse(*args, **kwargs):
        raise AssertionError("rule JSON went through json.dumps or to_json_obj")
    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(DivisibilityRule, "to_json_obj", refuse)
    assert [render_rule(r, "json") for r in rules] == want
    code, out, err = run_cli(capsys, "table", "30", "--format", "json")
    assert (code, out, err) == (0, "[" + ", ".join(want) + "]\n", "")


def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError
    monkeypatch.setattr(cli, "_cmd_rule", exhausted)
    assert run_cli(capsys, "rule", "7") == (1, "", "error: out of memory\n")


def test_interrupt_prints_one_line_and_dies_by_sigint(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt
    calls = []
    monkeypatch.setattr(cli, "_cmd_rule", interrupted)
    monkeypatch.setattr(signal, "signal", lambda *a: calls.append(("signal", *a)))
    monkeypatch.setattr(os, "kill", lambda *a: calls.append(("kill", *a)))
    # with os.kill patched the process lives on, and main returns the status
    # a shell reports for SIGINT
    try:
        got = run_cli(capsys, "rule", "7")
    except KeyboardInterrupt:
        pytest.fail("main let KeyboardInterrupt through")
    assert got == (130, "", "error: interrupted\n")
    assert calls == [
        ("signal", signal.SIGINT, signal.SIG_DFL),
        ("kill", os.getpid(), signal.SIGINT),
    ]


# decode as ``python -m factoradic decode -`` runs it, except that stdin's
# readline first writes "reading" to stdout: that line comes from inside
# main(), so a SIGINT sent after it meets main's handler, not start-up
_DECODE_WITH_MARKER = """
import sys
from factoradic import cli

class Stdin:
    def readline(self):
        print("reading", flush=True)
        return sys.__stdin__.readline()

sys.stdin = Stdin()
sys.exit(cli.main(["decode", "-"]))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigint_while_decode_waits_on_stdin_gives_one_line():
    # the child starts with SIGINT at its default action, which Python then
    # handles, even where this process ignores it (a background job)
    proc = subprocess.Popen(
        [sys.executable, "-c", _DECODE_WITH_MARKER],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        assert proc.stdout.readline() == "reading\n"
        proc.send_signal(signal.SIGINT)  # stdin stays open: readline blocks
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert (proc.returncode, out, err) == (-signal.SIGINT, "", "error: interrupted\n")


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


def _usage_error(command, usage_tail):
    return (
        f"usage: factoradic {command} [-h] {usage_tail}\n"
        f"factoradic {command}: error: argument n: invalid int value: '12x'\n"
    )


# Decimal text other than plain ASCII digits reads as int() reads it, at any
# length; expected stdout, stderr and exit status are those of the earlier CLI
NON_PLAIN_DECIMALS = [
    (["encode", " 12"], 0, "(0, 2, 3, 1)\n", ""),
    (["encode", "+7"], 0, "(1, 0, 3, 2)\n", ""),
    (["encode", "1_000"], 0, "(2, 6, 0, 1, 4, 3, 5)\n", ""),
    (["encode", "\u0661\u0662"], 0, "(0, 2, 3, 1)\n", ""),
    (["digits", " 12"], 0, "(0, 0, 0, 2)\n", ""),
    (["digits", "+7"], 0, "(0, 1, 0, 1)\n", ""),
    (["digits", "1_000"], 0, "(0, 0, 2, 2, 1, 2, 1)\n", ""),
    (["digits", "\u0661\u0662"], 0, "(0, 0, 0, 2)\n", ""),
    (["mod", " 12", "7"], 0, "5\n", ""),
    (["mod", "+7", "7"], 0, "0\n", ""),
    (["mod", "1_000", "7"], 0, "6\n", ""),
    (["mod", "\u0661\u0662", "7"], 0, "5\n", ""),
    (["encode", "-5"], 1, "", "error: expected a non-negative integer, got -5\n"),
    (["digits", "-5"], 1, "", "error: expected a non-negative integer, got -5\n"),
    (["mod", "-5", "7"], 1, "", "error: expected a non-negative integer, got -5\n"),
    (["encode", "12x"], 1, "", _usage_error("encode", "[--len LEN] [--format {plain,json}] n")),
    (["digits", "12x"], 1, "", _usage_error("digits", "[--len LEN] [--format {plain,json}] n")),
    (["mod", "12x", "7"], 1, "", _usage_error("mod", "[--check] [--format {plain,json}] n k")),
]


@pytest.mark.parametrize("argv, code, out, err", NON_PLAIN_DECIMALS)
def test_non_plain_decimal_text(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_long_decimal_round_trip(capsys, monkeypatch):
    # 5,001 digits, with a zero run across a split: above the 4300-digit
    # int/str limit and more than twice the split cutoff
    with int_text_limit(0):  # the test's own text of n is past the limit
        n = 3 * 10**5000 + 10**2000 + 7
        seen = []
        for name in ("_parse_decimal", "_format_decimal"):
            def spy(x, _name=name, _f=getattr(cli, name)):
                seen.append(_name)
                return _f(x)
            monkeypatch.setattr(cli, name, spy)
        code, perm, _ = run_cli(capsys, "encode", str(n))
        assert code == 0
        assert perm == f"{format_permutation(encode(n))}\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(perm))
        code, out, _ = run_cli(capsys, "decode")
        assert (code, out) == (0, f"{n}\n")
        assert seen == ["_parse_decimal", "_format_decimal"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
def test_main_never_sets_the_int_text_limit(capsys, monkeypatch):
    # under the default limit, with the setter refusing every call: the
    # non-plain decimals, then a 5,001-digit n with a sign, underscores and
    # blanks, through encode and decode
    def refuse(digits):
        raise AssertionError(f"main set the int text limit to {digits}")

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    n_text = "3" + "0" * 2999 + "1" + "0" * 1999 + "7"  # 3 * 10**5000 + 10**2000 + 7
    with int_text_limit(4300), monkeypatch.context() as patched:
        patched.setattr(sys, "set_int_max_str_digits", refuse)
        for argv, code, out, err in NON_PLAIN_DECIMALS:
            try:
                got = main(argv)
            except SystemExit as exc:
                got = exc.code
            assert (got, *capsys.readouterr()) == (code, out, err), argv
        n = 3 * 10**5000 + 10**2000 + 7
        for text in (n_text, f" +{n_text[:9]}_{n_text[9:]}\u3000"):
            code, perm, err = run_cli(capsys, "encode", text)
            assert (code, perm, err) == (0, f"{format_permutation(encode(n))}\n", "")
            patched.setattr(sys, "stdin", io.StringIO(perm))
            assert run_cli(capsys, "decode") == (0, f"{n_text}\n", "")


def _n_of_length(digits):
    return random.Random(digits).randrange(10 ** (digits - 1), 10**digits)


# n of 1, 2,000, 2,001, 5,001 and 10^5 digits, on both sides of the split
# cutoff and past the 4300-digit int/str limit; then 10^k and 10^k - 1
JSON_INTEGERS = {
    **{f"{d}_digits": _n_of_length(d) for d in (1, 2000, 2001, 5001, 100_000)},
    **{f"10^{k}{tail}": 10**k + c for k in (2000, 6000) for tail, c in (("", 0), ("-1", -1))},
}


_BIG_MODULI = (_n_of_length(2001), _n_of_length(5001))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
@pytest.mark.parametrize("digits", [700, 1000])
def test_processes_under_the_least_int_text_limit_read_and_print_n(digits):
    # python -m factoradic started under 640 digits, the least limit CPython
    # allows: n past it pipes through encode | decode, digits and mod json
    # as it does with no limit
    def factoradic(*argv, stdin=None):
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
        done = subprocess.run([sys.executable, "-m", "factoradic", *argv], input=stdin, env=env,
                              capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    n = _n_of_length(digits)
    with int_text_limit(0):  # the test's own text of n
        text = str(n)
        perm = format_permutation(encode(n))
        mod_json = json.dumps({"n": n, "k": 1000000007, "residue": n % 1000000007})
    assert factoradic("encode", text) == (0, f"{perm}\n", "")
    assert factoradic("decode", "-", stdin=f"{perm}\n") == (0, f"{text}\n", "")
    assert factoradic("digits", text) == (0, f"{format_permutation(digits_from_integer(n))}\n", "")
    assert factoradic("mod", text, "1000000007", "--format", "json") == (0, f"{mod_json}\n", "")


@pytest.mark.parametrize("n", JSON_INTEGERS.values(), ids=JSON_INTEGERS.keys())
def test_json_n_is_the_text_of_json_dumps(capsys, monkeypatch, n):
    with int_text_limit(0):  # the test's own text of n and K is past the limit
        text = cli._format_decimal(n)
        perm = list(encode(n))
        calls = []
        def spy(x, _f=cli._format_decimal):
            calls.append(x)
            return _f(x)
        monkeypatch.setattr(cli, "_format_decimal", spy)
        cases = [
            (["encode", text], {"n": n, "permutation": perm}),
            (["digits", text], {"n": n, "digits": list(digits_from_integer(n))}),
            (["mod", text, "7"], {"n": n, "k": 7, "residue": n % 7}),
            (["decode", format_permutation(perm)], {"permutation": perm, "n": n}),
            # a K past the split cutoff, and past the int/str limit
            *((["mod", text, str(k)], {"n": n, "k": k, "residue": n % k}) for k in _BIG_MODULI),
        ]
        for argv, obj in cases:
            calls.clear()
            got = run_cli(capsys, *argv, "--format", "json")
            assert got == (0, json.dumps(obj) + "\n", "")
            assert calls == [v for v in obj.values() if type(v) is int]  # one call per int field


def test_import_loads_no_dataclasses_inspect_json_or_typing():
    # what the package import adds: plain output needs none of these, signal
    # is imported only when an interrupt is handled and array only by a long
    # writing, and an extension load such as array or decimal adds to start-up
    code = (
        "import sys; before = set(sys.modules); "
        "import factoradic, factoradic.cli; "
        "print(sorted({'array', 'dataclasses', 'decimal', 'inspect', 'json', 'signal', 'typing'}"
        " & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
