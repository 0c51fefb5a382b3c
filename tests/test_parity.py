"""The parity table of ``tests/parity.py``: its digest, and what it covers."""

import pathlib
import sys

import pytest

import factoradic
import factoradic.cli as cli
import factoradic.core as core

import parity
from error_rows import bad_inputs, int_text_limit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import parity_diff

# The digest the table gave when it was written.  A change that alters any
# outcome in it updates this value, and says in CHANGES.md which lines moved
# (``python tools/parity_diff.py BASE`` lists them) and why.  It is the same on
# CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
PINNED = "d8e918a35d0db58eb751008d2d4b6bff882ed475e83e3fff25eb383d6aff1df9"


def test_the_parity_digest_is_the_pinned_one():
    assert parity.digest() == PINNED


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
def test_the_parity_digest_is_the_pinned_one_under_the_least_int_text_limit():
    # every call under the least limit CPython allows answers as under none
    assert parity.digest(int_limit=640) == PINNED


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
    assert parity.digest() == PINNED


def test_the_table_holds_every_error_row_of_the_tests():
    with int_text_limit(0):  # labels print the rows' integers
        table = {parity._label(call, args) for call, args in parity._rows()}
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


def test_parity_diff_pairs_calls_by_label_and_occurrence():
    old = [("a", "1"), ("b", "2"), ("a", "3"), ("c", "4"), ("d", "5")]
    new = [("a", "1"), ("a", "9"), ("b", "2"), ("e", "6"), ("d", "5"), ("d", "7")]
    assert parity_diff.pair(old, new) == [
        ("a", "3", "9"), ("c", "4", None), ("e", None, "6"), ("d", None, "7"),
    ]
    assert parity_diff.pair(old, old) == []


def test_parity_diff_cuts_long_text_and_keeps_it_comparable():
    assert parity_diff.short("x" * 120) == "x" * 120
    a, b = parity_diff.short("x" * 200 + "a"), parity_diff.short("x" * 200 + "b")
    assert a != b and len(a) <= parity_diff.WIDTH
    assert a.startswith("x" * 80) and "[201 chars, sha256 " in a
