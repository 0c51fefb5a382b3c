"""The parity table of ``tests/parity.py``: its digest, and what it covers."""

import factoradic
import factoradic.cli as cli

import parity
from test_core import BAD_INPUTS, int_text_limit

# The digest the table gave when it was written.  A change that alters any
# outcome in it updates this value, and says in CHANGES.md which lines of
# ``python tests/parity.py --verbose`` moved and why.  It is the same on
# CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
PINNED = "5e351bd2970c376d5a1309771cf779f44cf2a87b217114670bb8a000361da372"


def test_the_parity_digest_is_the_pinned_one():
    assert parity.digest() == PINNED


def test_the_table_holds_every_error_row_of_the_tests():
    with int_text_limit(0):  # labels print the rows' integers
        table = {parity._label(call, args) for call, args in parity.BAD_ROWS}
        rows = [parity._label(*getattr(row, "values", row)[:2]) for row in BAD_INPUTS]
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
