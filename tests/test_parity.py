"""The parity table of ``tests/parity.py``: its digest, and what it covers."""

import sys

import pytest

import factoradic
import factoradic.cli as cli
import factoradic.core as core

import parity
from error_rows import bad_inputs, int_text_limit


@pytest.fixture(scope="module")
def records():
    """The table's ``(label, outcome)`` records at the default thresholds,
    run once for the tests that read them."""
    return list(parity.outcomes())


def test_the_parity_digest_is_the_pinned_one(records):
    # every call under no int text limit and under the least CPython allows
    assert parity.hashed(records) == parity.PINNED


@pytest.mark.parametrize("pinned", [True, False])
def test_the_parity_script_exits_1_unless_the_digest_is_pinned(monkeypatch, capsys, pinned):
    got = parity.PINNED if pinned else "0" * 64
    monkeypatch.setattr(parity, "digest", lambda verbose=False: got)
    assert parity.main([]) == (0 if pinned else 1)
    assert capsys.readouterr().out == f"{got}\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
def test_the_parity_digest_is_the_pinned_one_under_the_least_int_text_limit(records):
    # every call under the least limit CPython allows answers as under none:
    # the limit=640 half hashes as the unlimited half with the prefix added
    assert parity.LIMITS == (0, 640)
    unlimited, least = records[:len(records) // 2], records[len(records) // 2:]
    assert parity.hashed(least) == parity.hashed((f"limit=640 {label}", got) for label, got in unlimited)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
def test_the_table_runs_each_call_under_each_int_text_limit(monkeypatch):
    monkeypatch.setattr(parity, "_rows", lambda: [(str, (10**700,))])
    monkeypatch.setattr(parity, "_capped_rows", lambda cap: [])
    saved = sys.get_int_max_str_digits()
    (label, got), (least_label, least_got) = parity.outcomes()
    assert label.startswith("str(1000") and least_label == f"limit=640 {label}"
    assert got == f"'1{'0' * 700}'" and least_got.startswith("ValueError: Exceeds the limit")
    assert sys.get_int_max_str_digits() == saved


@pytest.mark.parametrize("thresholds", [
    {"_BIG_BITS": 0, "_BIG_PERM": 64, "_LEAF": 2, "_DIV_CUTOFF": 64, "_TEXT_DIGITS": 3},
    # _TEXT_DIGITS may not exceed CPython's least int text limit, 640
    {"_BIG_BITS": 10**9, "_BIG_PERM": 10**9, "_LEAF": 1024, "_DIV_CUTOFF": 10**9, "_TEXT_DIGITS": 640},
], ids=["low", "high"])
def test_no_size_threshold_changes_an_outcome(monkeypatch, thresholds):
    # each threshold picks a speed, never an answer; the weights of another
    # tree are right but go to a memo of their own, dropped afterwards
    for name, value in thresholds.items():
        monkeypatch.setattr(core, name, value)
    monkeypatch.setattr(core, "_WEIGHTS", {})
    assert parity.digest() == parity.PINNED


def test_the_table_holds_every_error_row_of_the_tests(records):
    table = {label for label, _ in records[:len(records) // 2]}  # under no limit
    with int_text_limit(0):  # labels print the rows' integers
        rows = [parity._label(*row[:2]) for row in bad_inputs()]
    assert [label for label in rows if label not in table] == []


def test_the_table_calls_every_public_function_and_subcommand():
    rows = parity._rows()
    called = {call.__qualname__ for call, _ in rows}
    public = {
        name for name in factoradic.__all__
        if callable(getattr(factoradic, name)) and not isinstance(getattr(factoradic, name), type)
    }
    assert public - called == set()
    subcommands = {name.removeprefix("_cmd_") for name in vars(cli) if name.startswith("_cmd_")}
    run = {args[0] for call, args in rows if call is parity._run_cli}
    assert subcommands - run == set()


def test_short_cuts_long_text_and_keeps_it_comparable():
    assert parity.short("x" * 120) == "x" * 120
    a, b = parity.short("x" * 200 + "a"), parity.short("x" * 200 + "b")
    assert a != b and len(a) <= parity.WIDTH
    assert a.startswith("x" * 80) and "[201 chars, sha256 " in a


def test_verbose_shows_the_outcome_behind_a_long_label(monkeypatch, capsys):
    # --verbose cuts a label and its outcome apart, so the outcome stays in view
    monkeypatch.setattr(parity, "_rows", lambda: [(len, ("x" * 200,))])
    monkeypatch.setattr(parity, "_capped_rows", lambda cap: [])
    label = f"len({'x' * 200!r},)"
    assert parity.main(["--verbose"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{parity.short(label)} -> 200",
        f"{parity.short('limit=640 ' + label)} -> 200",
        parity.hashed([(label, "200"), (f"limit=640 {label}", "200")]),
    ]
