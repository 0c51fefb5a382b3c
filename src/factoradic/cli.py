"""Command-line front end for the integer/permutation codec.

One subcommand per operation: encode, decode, digits, inversions, mod, rule,
table, compare, verify, bench.  Numeric input is decimal text of unbounded
size; permutation arguments accept "(2, 3, 0, 1)" syntax or bare
space/comma-separated entries, and "-" reads one line from stdin so the
commands pipe.  Every subcommand takes --format json (rule and table also
take --format latex); JSON goes out as a single newline-terminated object,
except table, which emits an array.

Exit status: 0 on success, 1 with a one-line diagnostic on malformed input
or when memory runs out, 2 when a verification (verify, mod --check) finds
a mismatch.  An interrupt (Ctrl-C) prints one line and then ends the process
by SIGINT, as Python does without the line.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from math import factorial
from time import perf_counter

from . import __version__
from .core import (
    _at_least,
    _check_cap,
    _format_decimal,
    _parse_decimal,
    _text,
    compare_factoradic,
    decode,
    digits_from_integer,
    encode,
    format_permutation,
    parse_permutation,
)
from .errors import ParseError, PrefixTooShort
from .inversions import inversion_set
from .modular import residue
from .reference import (
    check_factoradic_order,
    check_inversions,
    check_residues,
    mod_direct,
)
from .rules import _check_listing, _rules, generate_rule, render_rule

_ORDERING_WORDS = {-1: "precedes", 0: "equal", 1: "follows"}


class _Parser(argparse.ArgumentParser):
    """Exits with status 1 on bad usage; argparse's default of 2 is reserved
    for verification failures.  Every ``type=int`` argument parses through
    :func:`_parse_decimal`; argparse still names the type "int" in errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _parse_decimal)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit_json(obj: dict) -> None:
    """Print the text of ``json.dumps(obj)``, with each top-level int (never
    negative here; a bool is no int) printed by :func:`_format_decimal`:
    json's own int -> text is quadratic up to CPython 3.11."""
    import json  # not at the top: plain output never needs it

    items = (
        f"{json.dumps(key)}: {_format_decimal(value) if type(value) is int else json.dumps(value)}"
        for key, value in obj.items()
    )
    print("{" + ", ".join(items) + "}")


def _perm_arg(text: str) -> tuple[int, ...]:
    """Parse a permutation argument; "-" takes the next line of stdin."""
    if text == "-":
        text = sys.stdin.readline()
        if not text.strip():
            raise ParseError("expected a permutation on stdin")
    return parse_permutation(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_encode(args) -> int:
    perm = encode(args.n, args.len)
    if args.format == "json":
        _emit_json({"n": args.n, "permutation": list(perm)})
    else:
        print(format_permutation(perm))
    return 0


def _cmd_decode(args) -> int:
    perm = _perm_arg(args.perm)
    n = decode(perm)
    if args.format == "json":
        _emit_json({"permutation": list(perm), "n": n})
    else:
        print(_format_decimal(n))
    return 0


def _cmd_digits(args) -> int:
    d = digits_from_integer(args.n, args.len)
    if args.format == "json":
        _emit_json({"n": args.n, "digits": list(d)})
    else:
        print(format_permutation(d))
    return 0


def _cmd_inversions(args) -> int:
    inv = inversion_set(_perm_arg(args.perm))
    if args.format == "json":
        _emit_json(inv.to_json_obj())
    else:
        print(inv.render())
    return 0


def _cmd_mod(args) -> int:
    r = residue(args.n, args.k)
    status = 0
    if args.check:
        want = mod_direct(args.n, args.k)
        if r != want:
            print(
                f"mismatch: inversion path gave {_text(r)}, direct path gave {_text(want)}",
                file=sys.stderr,
            )
            status = 2
    if args.format == "json":
        _emit_json({"n": args.n, "k": args.k, "residue": r})
    else:
        print(_format_decimal(r))
    return status


def _cmd_rule(args) -> int:
    print(render_rule(generate_rule(args.k), args.format))
    return 0


def _cmd_table(args) -> int:
    # each listing is checked as its rule is built, so a table stops at the
    # first rule it refuses, and all are checked before anything is written
    rules = list(map(_check_listing, _rules(args.kmax, args.primes)))
    if args.format == "json":
        # the text of _emit_json(list), one rule at a time: memory follows
        # the largest rule, not the table
        sep = "["
        for r in rules:
            sys.stdout.write(sep + render_rule(r, "json"))
            sep = ", "
        print("]")
    else:
        for r in rules:
            print(f"{r.modulus}: {render_rule(r, args.format)}")
    return 0


def _cmd_compare(args) -> int:
    order = compare_factoradic(_perm_arg(args.left), _perm_arg(args.right))
    if args.format == "json":
        _emit_json({"ordering": _ORDERING_WORDS[order]})
    else:
        print(_ORDERING_WORDS[order])
    return 0


def _cmd_verify(args) -> int:
    suites = [
        ("factoradic-order", lambda: check_factoradic_order(args.smax)),
        ("inversion-sets", lambda: check_inversions()),
        ("residues", lambda: check_residues(args.nmax, args.kmax)),
    ]
    results = []
    for name, run in suites:
        cases, mismatches = run()
        results.append({"name": name, "cases": cases, "mismatches": len(mismatches)})
        if args.format != "json":
            verdict = "PASS" if not mismatches else "FAIL"
            print(f"{name}: {verdict} ({cases} cases)")
            for bad in mismatches[:3]:
                print(f"  mismatch: {bad}")
    ok = all(r["mismatches"] == 0 for r in results)
    if args.format == "json":
        _emit_json({"suites": results, "ok": ok})
    return 0 if ok else 2


def _cmd_bench(args) -> int:
    s = _at_least(args.size, 1, PrefixTooShort, "prefix length")
    _check_cap(s)
    n = random.Random(0).randrange(factorial(s))
    t0 = perf_counter()
    perm = encode(n)
    t1 = perf_counter()
    back = decode(perm)
    t2 = perf_counter()
    count = inversion_set(perm).count()
    t3 = perf_counter()
    if back != n:
        print("mismatch: decode(encode(n)) != n", file=sys.stderr)
        return 2
    timings = {
        "encode": t1 - t0,
        "decode": t2 - t1,
        "inversion_count": t3 - t2,
    }
    if args.format == "json":
        _emit_json({"size": s, "inversions": count, "seconds": timings})
    else:
        print(f"size: {s}")
        print(f"inversions: {count}")
        for name, t in timings.items():
            print(f"{name.replace('_', '-')}: {t:.3f}s")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_format(sub, extra=()) -> None:
    sub.add_argument(
        "--format",
        choices=("plain", *extra, "json"),
        default="plain",
        help="output format (default: plain)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="factoradic",
        description="Integers as permutations: codec, residues, divisibility rules.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = subs.add_parser("encode", help="write an integer as a permutation")
    sub.add_argument("n", type=int, help="non-negative decimal integer")
    sub.add_argument("--len", type=int, default=None, help="pad to this many entries")
    _add_format(sub)
    sub.set_defaults(func=_cmd_encode)

    sub = subs.add_parser("decode", help="read the integer back from a permutation")
    sub.add_argument("perm", nargs="?", default="-", help='e.g. "(2, 3, 0, 1)"; "-" or omitted reads stdin')
    _add_format(sub)
    sub.set_defaults(func=_cmd_decode)

    sub = subs.add_parser("digits", help="factorial-base digits of an integer")
    sub.add_argument("n", type=int, help="non-negative decimal integer")
    sub.add_argument("--len", type=int, default=None, help="pad to this many digits")
    _add_format(sub)
    sub.set_defaults(func=_cmd_digits)

    sub = subs.add_parser("inversions", help="list the inversion set of a prefix")
    sub.add_argument("perm", nargs="?", default="-", help='e.g. "(2, 3, 0, 1)"; "-" or omitted reads stdin')
    _add_format(sub)
    sub.set_defaults(func=_cmd_inversions)

    sub = subs.add_parser("mod", help="n mod k via the k-prefix inversion set")
    sub.add_argument("n", type=int, help="non-negative decimal integer")
    sub.add_argument("k", type=int, help="modulus >= 1")
    sub.add_argument("--check", action="store_true", help="cross-check against n %% k; exit 2 on mismatch")
    _add_format(sub)
    sub.set_defaults(func=_cmd_mod)

    sub = subs.add_parser("rule", help="divisibility rule for one modulus")
    sub.add_argument("k", type=int, help="modulus >= 2")
    _add_format(sub, extra=("latex",))
    sub.set_defaults(func=_cmd_rule)

    sub = subs.add_parser("table", help="divisibility rules for k = 2..KMAX")
    sub.add_argument("kmax", type=int, help="largest modulus >= 2")
    sub.add_argument("--primes", action="store_true", help="prime moduli only")
    _add_format(sub, extra=("latex",))
    sub.set_defaults(func=_cmd_table)

    sub = subs.add_parser("compare", help="order two permutations by the integers they encode")
    sub.add_argument("left", help='permutation, or "-" for stdin')
    sub.add_argument("right", help='permutation, or "-" for stdin')
    _add_format(sub)
    sub.set_defaults(func=_cmd_compare)

    sub = subs.add_parser("verify", help="sweep the fast paths against brute-force baselines")
    sub.add_argument("--smax", type=int, default=7, help="order sweep covers n < s! for s <= SMAX")
    sub.add_argument("--nmax", type=int, default=10080, help="residue sweep covers n < NMAX")
    sub.add_argument("--kmax", type=int, default=12, help="residue sweep covers k <= KMAX")
    _add_format(sub)
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("bench", help="time encode/decode/inversion-count at a given length")
    sub.add_argument("--size", type=int, default=100_000, help="prefix length (default 100000)")
    _add_format(sub)
    sub.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # the status an uncaught exception gives, without the traceback
        print("error: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # one line instead of the traceback; then die by SIGINT, as an
        # uncaught KeyboardInterrupt does, so the caller sees the same status
        # (signal is imported only here: the CLI's start-up does not load it)
        import signal

        print("error: interrupted", file=sys.stderr)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        return 128 + signal.SIGINT  # the shell's status, if the signal is blocked


def entry() -> None:
    sys.exit(main())
