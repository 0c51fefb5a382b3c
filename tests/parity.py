"""Parity digest: what a fixed table of calls answers, hashed.

Each call in the table is run and its outcome written as one line: the
value, or the exception's type and message.  The SHA-256 of those lines is
printed.  Two checkouts, or two interpreters, that print the same digest
answered every call alike, so a refactor can show that it kept behaviour:

    python tests/parity.py             # the digest
    python tests/parity.py --verbose   # one line per call, then the digest

It imports the package from the ``src`` next to this file.  To find a
mismatch, ``python tools/parity_diff.py BASE`` runs this table on a commit
and on the working tree, and lists the calls whose outcomes differ.  It
needs only the standard library, and runs with CPython's limit on int text
lifted, so that a label can print its row's integers.

The table covers every public function and subcommand, the error rows of
the tests, the codec around factorials, the residues, the rules, and the
decimal text split around its base case; and, under ``MAX_PREFIX_LENGTH``
patched to 1, 2, 5 and 200, the entry points that read the cap, on both
the integer and the sequence side.
"""

from __future__ import annotations

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

BIG = 10**5000
BIG_RULE = fc.generate_rule(factorial(1700))  # a modulus past the limit, 1,700 columns


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

# the error rows of tests/test_core.py, in its order (tests/test_parity.py
# checks that none is missing)
BAD_ROWS = [
    (fc.decode, ((1, 2),)),
    (fc.decode, ((0, 0),)),
    (fc.decode, ((),)),
    (fc.decode, ((-1, 0),)),
    (fc.decode, ((2, 0, 1, 3, 3),)),
    (fc.decode, ((0.5, 1),)),
    (fc.decode, (5,)),
    (fc.permutation_from_digits, ((0, 2),)),
    (fc.permutation_from_digits, ((),)),
    (fc.permutation_from_digits, ((0, 1, -1, 5),)),
    (fc.permutation_from_digits, ((0, 1, 2, 4, 9),)),
    (fc.permutation_from_digits, ((0, "1"),)),
    (fc.integer_from_digits, ((),)),
    (fc.integer_from_digits, ((1,),)),
    (fc.integer_from_digits, ((0, -1),)),
    (fc.integer_from_digits, ((0, 1, 3, 1),)),
    (fc.integer_from_digits, ((0, 1.0),)),
    (fc.digits_from_permutation, ((),)),
    (fc.digits_from_permutation, ((5, 5),)),
    (fc.digits_from_permutation, ((-2, 0),)),
    (fc.digits_from_permutation, ((-2, -2),)),
    (fc.digits_from_permutation, ((3, None),)),
    (fc.residue_from_prefix, ((1, 0), 3)),
    (fc.residue_from_prefix, ((1, 1, 0), 3)),
    (fc.residue_from_prefix, ((1, -1, 0), 3)),
    (fc.residue_from_prefix, ((4, 2, 0), 0)),
    (fc.residue_from_prefix, ((), 1)),
    (fc.inversion_set, ((),)),
    (fc.inversion_set, ((7, 3, 7),)),
    (fc.inversion_set, ((7, -3),)),
    (fc.inversion_set, ((7, 2.5),)),
    (fc.residue_from_prefix, ((1, 0, 2.0, 3), 4)),
    (fc.residue_from_prefix, ((1, 0, 2, "3"), 4)),
    (fc.residue_from_prefix, ((1, 0, True, 3), 4)),
    (fc.residue_from_prefix, ((2, 0, 1, 3, 3, 5), 6)),
    (fc.residue_from_prefix, ((2, 0, 2, 3), 4)),
    (fc.residue_from_prefix, ((1, -1, 2, 3), 4)),
    (fc.residue_from_prefix, (iter((1.5, "x")), 3)),
    (fc.evaluate_rule, (fc.generate_rule(4), (1, 0, 2.0, 3))),
    (fc.evaluate_rule, (fc.generate_rule(4), [1, 0, 2, "3"])),
    (fc.evaluate_rule, (fc.generate_rule(4), (1, 0, True, 3))),
    (fc.evaluate_rule, (fc.generate_rule(7), (2, 0, 1, 3, 3, 5, 6))),
    (fc.evaluate_rule, (fc.generate_rule(4), (1, 3, 0, 3))),
    (fc.evaluate_rule, (fc.generate_rule(4), (1, -1, 2, 3))),
    (fc.evaluate_rule, (fc.generate_rule(4), iter((1.5, "x")))),
    (fc.evaluate_rule, (fc.DivisibilityRule(5, ()), (1, 2))),
    (fc.digits_from_permutation, ((1, 0, 2.0, 3),)),
    (fc.digits_from_permutation, ([2, 0, 1, 3, 3, 5],)),
    (fc.digits_from_permutation, ((2, 0, 2, 3),)),
    (fc.inversion_set, ((1, -1, 2, 3),)),
    (fc.inversion_set, ((1, 0, True, 3),)),
    (fc.decode, ((1, 0, 2.0, 3),)),
    (fc.decode, ((1, 0, 2, 3, 3, 5),)),
    (fc.decode, ((1, 0, True, 3),)),
    (fc.decode, ((2, 0, 2, 3),)),
    (fc.decode, ((0, 3, 2, 3, 4),)),
    (fc.minimal_form, ([1, 0, 2, "3"],)),
    (fc.minimal_form, ((1, 0, True, 3),)),
    (fc.minimal_form, ((2, 0, 2, 3),)),
    (fc.compare_factoradic, ((0, 1), (1, 0, 2.5))),
    (fc.compare_factoradic, ((1, 0, 2, 3, 3, 5), (0,))),
    (fc.compare_factoradic, ((0,), (2, 0, 2, 3))),
    (fc.integer_from_digits, ((0, 1, 0, 4, 0, 0),)),
    (fc.integer_from_digits, ([0, 1, 0, 0, 0, 0.0],)),
    (fc.integer_from_digits, ((0, True, 0, 0, 9),)),
    (fc.permutation_from_digits, ((0, 0, 0, -1, 0, 0),)),
    (fc.permutation_from_digits, ([0, 1, 0, 0, "0"],)),
    (fc.permutation_from_digits, ((0, 0, 3, 0),)),
    # integers past CPython's default limit on int text
    (fc.inversion_set, ((BIG, BIG),)),
    (fc.decode, ((BIG, 0),)),
    (fc.integer_from_digits, ((0, BIG),)),
    (fc.encode, (BIG, 3)),
    (fc.residue, (5, -BIG)),
    (fc.generate_rule, (-BIG,)),
    (fc.prefix_inversions, (5, -BIG)),
    (fc.residue, (-BIG, 3)),
    (fc.encode, (-BIG,)),
    (fc.residue_from_prefix, ((0, 1, 2), BIG)),
    (fc.divisible, ((1, 0), BIG)),
    (fc.render_rule, (BIG_RULE,)),
    (fc.DivisibilityRule.terms.fget, (BIG_RULE,)),
    (reference.nth_permutation_bruteforce, (BIG, 3)),
    (fc.parse_permutation, ("(-1" + "0" * 5000 + ")",)),
    (reference.mod_direct, (5, -BIG)),
    (fc.inversion_set((1, 0)).inv, (0, BIG)),
    (fc.kempner, (-BIG,)),
    (fc.residue_from_prefix, ((0,), -BIG)),
    (fc.rule_table, (-BIG,)),
    (fc.encode, (5, -BIG)),
]


def _rows() -> list:
    rng = random.Random(16)
    rows = list(BAD_ROWS)
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
    # decimal text around the base case and its doublings
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
    """``(label, outcome)`` per call: the default cap first, then each
    patched one.  CPython's int text limit is lifted meanwhile."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for cap in (None, 1, 2, 5, 200):
            rows = _rows() if cap is None else _capped_rows(cap)
            with patch.object(core, "MAX_PREFIX_LENGTH", cap) if cap else contextlib.nullcontext():
                for call, args in rows:
                    try:
                        got = _show(call(*args))
                    except Exception as exc:  # every outcome is recorded
                        got = f"{type(exc).__name__}: {exc}"
                    yield f"{f'cap={cap} ' if cap else ''}{_label(call, args)}", got
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def digest(verbose: bool = False) -> str:
    """The SHA-256 of one line per call, ``label -> outcome``."""
    h = hashlib.sha256()
    for label, got in outcomes():
        line = f"{label} -> {got}"
        h.update(line.encode() + b"\n")
        if verbose:  # the line's own hash, then the line, cut if long
            short = line if len(line) <= 160 else f"{line[:150]}... [{len(line)} chars]"
            print(hashlib.sha256(line.encode()).hexdigest()[:12], short)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(verbose="--verbose" in sys.argv[1:]))
