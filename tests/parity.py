"""Parity digest: what a fixed table of calls answers, hashed.

Each call in the table is run and its outcome written as one line: the
value, or the exception's type and message.  The SHA-256 of those lines is
printed.  Two checkouts, or two interpreters, that print the same digest
answered every call alike, so a refactor can show that it kept behaviour:

    python tests/parity.py             # the digest; exit 1 unless it is PINNED
    python tests/parity.py --verbose   # one line per call, then the digest

It imports the package from the ``src`` next to this file.  To find a
mismatch, ``python tools/parity_diff.py BASE`` runs this table on a commit
and on the working tree, and lists the calls whose outcomes differ.  It
needs only the standard library.

The table covers every public function and subcommand, the error rows of
the tests (``tests/error_rows.py``), the codec around factorials, the
residues, the rules, and the decimal text split from 1 to 3·10^4 digits; and,
under ``MAX_PREFIX_LENGTH`` patched to 1, 2, 5 and 200, the entry points
that read the cap, on both the integer and the sequence side.  All of it
runs under each of ``LIMITS``, CPython's int text limit: none, then 640, the
least CPython allows, where no answer may differ.  Labels and outcomes are
made with the limit lifted, so that a label can print its row's integers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import pathlib
import random
import re
import sys
from math import factorial
from unittest.mock import patch

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import factoradic as fc
from factoradic import cli, core, reference

from error_rows import bad_inputs, int_text_limit

# The table's digest, the same on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0.  A
# change that moves an outcome re-pins it, and says in CHANGES.md which lines
# moved (``python tools/parity_diff.py BASE`` lists them) and why.
PINNED = "d244f81bab2d6936477e5e68f81363db43d4e822a69242c65863a5a5b1f3bb25"
LIMITS = (0, 640)  # CPython's int text limits the table runs under (0: none)
WIDTH = 120


def _show(value) -> str:
    if isinstance(value, fc.InversionSet):  # its column counts fix its order
        return f"InversionSet{value.counts_by_larger()}"
    return repr(value)


def _label(call, args) -> str:
    # an iterator's repr holds its address; drop it so that labels repeat
    return re.sub(r" at 0x[0-9a-fA-F]+", "", f"{call.__qualname__}{args!r}")


def _run_cli(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _listing(rule):
    return rule.terms, rule.to_json_obj(), str(rule)


def _inversions(prefix):
    inv = fc.inversion_set(prefix)
    return inv, inv.render(), inv.to_json_obj(), inv.count(), sorted(inv.pair_set())


# ---------------------------------------------------------------------------
# the table: (call, args) rows, run with the default cap

def _rows() -> list:
    rng = random.Random(16)
    # the error rows of the tests, in their order, built anew with unread iterators
    rows = [row[:2] for row in bad_inputs()]
    # every public function on the golden width-4 writings
    for n in range(25):
        p = fc.encode(n, 4) if n < 24 else (0,)
        d = fc.digits_from_integer(n)
        rows += [
            (fc.encode, (n,)), (fc.encode, (n, 4)), (fc.decode, (p,)),
            (fc.digits_from_integer, (n, 5)), (fc.integer_from_digits, (d,)),
            (fc.permutation_from_digits, (d,)), (fc.digits_from_permutation, (p,)),
            (fc.minimal_form, (p,)), (fc.minimal_prefix_length, (n,)),
            (fc.format_permutation, (p,)), (fc.parse_permutation, (fc.format_permutation(p),)),
            (fc.compare_factoradic, (p, fc.encode(23 - n if n < 24 else 7))),
            (_inversions, (p,)), (fc.inversion_counts_by_larger, (fc.inversion_set(p),)),
            (fc.divisible, (n, 3)), (fc.divisible, (p, 4)),
        ]
    # the codec around factorials and the tree's edges, with and without a length
    for s in (1, 2, 3, 10, 63, 64, 65, 170, 171, 172, 300, 1000, 2500):
        f = factorial(s)
        for n in (f - 1, f, f + 1, rng.randrange(f)):
            need = fc.minimal_prefix_length(n)
            rows += [(fc.encode, (n,)), (fc.digits_from_integer, (n,))]
            for length in (0, -1, need - 1, need, need + 3, core.MAX_PREFIX_LENGTH + 1, "5", 2.0, None):
                rows += [(fc.encode, (n, length)), (fc.digits_from_integer, (n, length))]
            p = fc.encode(n, need + 3)
            rows += [(fc.decode, (p,)), (fc.minimal_form, (p,)), (fc.digits_from_permutation, (p,))]
            rows += [(fc.integer_from_digits, (fc.digits_from_integer(n, need + 2),))]
    # residues, read off integers and off prefixes
    ks = (1, 2, 3, 4, 6, 7, 12, 97, 1009, 2**20, 65521, 10**6 + 3)
    ns = (0, 1, 23, 24, 719, 720, factorial(20), factorial(97) - 1, factorial(97), rng.getrandbits(3000))
    for k in ks:
        rows += [(fc.kempner, (k,))]
        for n in ns:
            rows += [(fc.residue, (n, k)), (fc.divisible, (n, k)), (reference.mod_direct, (n, k))]
        for n in ns[:8] if k <= 2000 else ():
            prefix = fc.encode(n, max(k, fc.minimal_prefix_length(n)))
            rows += [(fc.residue_from_prefix, (prefix, k)), (fc.divisible, (prefix, k))]
    rows += [(fc.kempner, (k,)) for k in range(1, 301)]
    rows += [(reference.mod_direct, (5, k)) for k in (0, -1, -7, 2.5)]
    # prefix inversion sets at j! - 1, j!, j! + 1
    for s in (1, 2, 3, 4, 5, 6, 7, 8, 12, 20, 57, 170, 171, 300):
        for j in range(1, 301, 1 if s <= 12 else 7):
            f = factorial(j)
            rows += [(fc.prefix_inversions, (n, s)) for n in (f - 1, f, f + 1)]
    rows += [(fc.prefix_inversions, (5, bad)) for bad in (0, -1, "5", 2.0, core.MAX_PREFIX_LENGTH + 1)]
    # rules
    for k in range(2, 61):
        rule = fc.generate_rule(k)
        rows += [(fc.generate_rule, (k,)), (_listing, (rule,))]
        rows += [(fc.render_rule, (rule, fmt)) for fmt in ("plain", "latex", "json")]
        prefix = fc.encode(rng.randrange(factorial(k)), k)
        rows += [(fc.evaluate_rule, (rule, prefix))]
    rows += [(fc.generate_rule, (k,)) for k in (1, 0, -5, "5", 2.5, None, 1423, 10007)]
    rows += [(fc.render_rule, (fc.generate_rule(1423), fmt)) for fmt in ("plain", "json", "xml")]
    rows += [(fc.rule_table, (k, primes)) for k in (2, 30, 60) for primes in (False, True)]
    rows += [(fc.rule_table, (k,)) for k in (1, 0, "5", 2.5, None)]
    rows += [(repr, (fc.DivisibilityRule(10**700, (1, 1)),))]  # a modulus past the least int text limit
    # inversion sets of random, sorted and reversed prefixes, and inv's range
    for s in (1, 2, 5, 40, 200):
        shuffled = rng.sample(range(3 * s), s)
        rows += [(_inversions, (p,)) for p in (shuffled, range(s), range(s - 1, -1, -1))]
    inv = fc.inversion_set((2, 0, 1))
    rows += [(inv.inv, (i, j)) for i in range(-1, 4) for j in range(-1, 4)]
    rows += [(inv.inv, (-0.5, 1)), (inv.__contains__, ((0, 1),)), (repr, (inv,))]
    # permutation text, long entries included
    for text in ("(2, 3, 0, 1)", "2,3,0,1", "2 3 0 1", "", "()", "(1, x)", "(-1, 0)", "1.5 2",
                 "(1, " + "1" * 5000 + ")", "(1, -" + "1" * 5000 + ")", "١٢ 3", "+1 2"):
        rows += [(fc.parse_permutation, (text,))]
    # decimal text at lengths from 1 to 3*10^4 digits (tests/test_core.py
    # straddles the base case and its doublings)
    for w in (1, 2, 749, 750, 751, 999, 1000, 1001, 1999, 2000, 2001, 2499, 2500, 2501,
              2999, 3000, 3001, 4999, 5000, 5001, 10**4, 3 * 10**4):
        text = rng.choice("123456789") + "".join(rng.choices("0123456789", k=w - 1))
        rows += [(core._parse_decimal, (t,)) for t in (text, "0" * w, "9" * w, "000" + text)]
        rows += [(core._parse_decimal, (t,)) for t in ("+" + text, " " + text, text[:3] + "_" + text[3:])]
    for b in (1, 2, 1249, 1250, 1251, 2499, 2500, 2501, 4999, 5000, 5001, 9999, 10000, 10001, 10**5):
        rows += [(core._format_decimal, (n,)) for n in (1 << (b - 1), rng.getrandbits(b) | 1 << (b - 1), (1 << b) - 1)]
    # the brute-force references
    rows += [(reference.nth_permutation_bruteforce, (n, 4)) for n in (0, 5, 23, 24)]
    rows += [(reference.nth_permutation_bruteforce, (0, 9)), (reference.inversions_bruteforce, ((3, 1, 2, 0),))]
    rows += [(reference.check_factoradic_order, (5,)), (reference.check_inversions, (20, 12, 3))]
    rows += [(reference.check_residues, (200, 8))]
    # the command line, one call per subcommand and outcome
    for argv in (
        ("encode", "16"), ("encode", "16", "--len", "6", "--format", "json"), ("encode", "-3"),
        ("encode", "5", "--len", "0"), ("decode", "(2, 3, 0, 1)"), ("decode", "(1, 1)", "--format", "json"),
        ("digits", "16"), ("digits", "16", "--len", "6", "--format", "json"),
        ("inversions", "(2, 3, 0, 1)"), ("inversions", "2 0 1", "--format", "json"),
        ("mod", "1000", "7"), ("mod", "1000", "7", "--check", "--format", "json"), ("mod", "5", "0"),
        ("rule", "6"), ("rule", "12", "--format", "latex"), ("rule", "7", "--format", "json"),
        ("rule", "1"), ("rule", "1423"),
        ("table", "12"), ("table", "30", "--primes", "--format", "latex"), ("table", "12", "--format", "json"),
        ("table", "1"), ("table", "1423"), ("table", "1500", "--primes", "--format", "json"),
        ("compare", "(1, 0)", "(1, 0, 2)"), ("compare", "(0, 1)", "(1, 0)", "--format", "json"),
        ("verify", "--smax", "4", "--nmax", "100", "--kmax", "5"), ("verify", "--smax", "9"),
        ("bench", "--size", "0"), ("bench", "--size", str(core.MAX_PREFIX_LENGTH + 1)),
        ("encode", str(factorial(300))), ("decode", fc.format_permutation(fc.encode(factorial(200) + 1))),
    ):
        rows += [(_run_cli, argv)]
    return rows


def _capped_rows(cap: int) -> list:
    """Calls that read MAX_PREFIX_LENGTH, around factorials near the cap."""
    rows = []
    for j in range(max(cap - 1, 1), cap + 3):
        f = factorial(j)
        for n in (f - 1, f, f + 1):
            rows += [(fc.minimal_prefix_length, (n,)), (fc.digits_from_integer, (n,)), (fc.encode, (n,))]
            for length in (cap, cap + 1, j + 1, "5"):
                rows += [(fc.encode, (n, length)), (fc.digits_from_integer, (n, length))]
            rows += [(fc.residue, (n, k)) for k in (7, 211, 65521)]
            rows += [(fc.prefix_inversions, (n, s)) for s in (1, cap, cap + 1)]
    for s in (cap, cap + 1):
        rows += [(fc.permutation_from_digits, ((0,) * s,)), (fc.decode, (tuple(range(s)),)), (fc.encode, (0, s))]
        # the sequence side at the same lengths, padded (nothing moves) and
        # moved (every entry does)
        rule = fc.generate_rule(max(factorial(s), 2))  # S(s!) = s columns
        for p, d in ((tuple(range(s)), (0,) * s), (tuple(range(s))[::-1], tuple(range(s)))):
            rows += [
                (fc.minimal_form, (p,)), (fc.compare_factoradic, (p, (0,))), (fc.compare_factoradic, ((0,), p)),
                (fc.digits_from_permutation, (p,)), (_inversions, (p,)), (fc.residue_from_prefix, (p, s)),
                (fc.evaluate_rule, (rule, p)), (fc.integer_from_digits, (d,)),
            ]
        rows += [(fc.decode, (tuple(range(s))[::-1],)), (fc.permutation_from_digits, (tuple(range(s)),))]
    for k in (3, 5, 7, 11, 23, 211):
        rule = fc.generate_rule(k)
        rows += [(_listing, (rule,)), (fc.render_rule, (rule, "json"))]
    rows += [(_run_cli, argv) for argv in (("table", "12"), ("rule", "23"), ("bench", "--size", str(cap + 1)))]
    return rows


def outcomes():
    """``(label, outcome)`` per call: under each of ``LIMITS``, the default
    cap first, then each patched one.  A call runs under its limit; its label
    and outcome are made with the limit lifted."""
    with int_text_limit(0):
        for limit in LIMITS:
            for cap in (None, 1, 2, 5, 200):
                rows = _rows() if cap is None else _capped_rows(cap)
                prefix = f"{f'limit={limit} ' if limit else ''}{f'cap={cap} ' if cap else ''}"
                with patch.object(core, "MAX_PREFIX_LENGTH", cap) if cap else contextlib.nullcontext():
                    for call, args in rows:
                        try:
                            with int_text_limit(limit):
                                value = call(*args)
                            got = _show(value)
                        except Exception as exc:  # every outcome is recorded
                            got = f"{type(exc).__name__}: {exc}"
                        yield prefix + _label(call, args), got


def hashed(records, each=None) -> str:
    """The SHA-256 of one line per ``(label, outcome)`` record, ``label ->
    outcome``; each record and its line go to ``each(label, got, line)``, if
    given, as they are hashed.  ``tools/parity_diff.py`` hashes with it too."""
    h = hashlib.sha256()
    for label, got in records:
        line = f"{label} -> {got}"
        h.update(line.encode() + b"\n")
        if each:
            each(label, got, line)
    return h.hexdigest()


def short(text: str, width: int = WIDTH) -> str:
    """text, or its head with its length and a hash of the whole, so that two
    cut texts compare equal exactly when the texts do."""
    if len(text) <= width:
        return text
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return f"{text[:width - 40]}... [{len(text)} chars, sha256 {digest}]"


def digest(verbose: bool = False) -> str:
    """The SHA-256 of the table's lines (:func:`hashed`), each printed :func:`short` if verbose."""
    return hashed(outcomes(), (lambda label, got, line: print(short(line))) if verbose else None)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print the parity table's digest; exit 1 unless it is PINNED.")
    parser.add_argument("--verbose", action="store_true", help="one line per call before the digest")
    got = digest(parser.parse_args(argv).verbose)
    print(got)
    return 0 if got == PINNED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
