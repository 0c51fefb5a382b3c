"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with plain pytest; the ACCEPTANCE lines bypass capture so they always
appear, in order, once per criterion.  Timed criteria assert their budget
and print their time against it, e.g. "(1.21 s / 5 s)", pass or fail.
"""

import itertools
import random
from math import factorial
from time import perf_counter

from factoradic import (
    decode,
    digits_from_permutation,
    encode,
    generate_rule,
    inversion_counts_by_larger,
    inversion_set,
    prefix_inversions,
    render_rule,
    residue,
)
from factoradic.reference import mod_direct, nth_permutation_bruteforce

from golden import GOLDEN_24, RULE_RENDERINGS, RULE_TERM_SETS


def _report(capsys, num, ok, desc, detail="", timing=""):
    timing = f" ({timing})" if timing else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}{timing}")
    assert ok, f"criterion {num} ({desc}): {detail}{timing}"


def test_criterion_1_golden_table(capsys):
    def sweep():
        t0 = perf_counter()
        good = all(
            encode(n, 4) == row and decode(row) == n for n, row in GOLDEN_24.items()
        )
        return good, perf_counter() - t0

    sweep()  # warm up caches and code paths before timing
    results = [sweep() for _ in range(5)]
    ok = all(good for good, _ in results)
    best = min(t for _, t in results)
    _report(
        capsys, 1, ok and best < 1e-3,
        "width-4 encodings of 0..23 match the golden table and decode back",
        f"correct={ok}", f"{best * 1e3:.3f} ms / 1 ms",
    )


def test_criterion_2_rule_goldens(capsys):
    bad = []
    for k in (2, 3, 4, 5, 6):
        rule = generate_rule(k)
        if set(rule.terms) != RULE_TERM_SETS[k]:
            bad.append((k, "terms", rule.terms))
        if render_rule(rule) != RULE_RENDERINGS[k]:
            bad.append((k, "rendering", render_rule(rule)))
    _report(
        capsys, 2, not bad,
        "rules for k=2..6 match golden term sets and renderings",
        repr(bad),
    )


def test_criterion_3_order_oracle(capsys):
    t0 = perf_counter()
    bad = []
    for s in range(1, 8):
        for n in range(factorial(s)):
            if encode(n, s) != nth_permutation_bruteforce(n, s):
                bad.append((s, n))
    elapsed = perf_counter() - t0
    _report(
        capsys, 3, not bad and elapsed < 10.0,
        "encode agrees with exhaustive enumeration for all n < s!, s <= 7",
        f"mismatches={bad[:5]}", f"{elapsed:.2f} s / 10 s",
    )


def test_criterion_4_residue_sweeps(capsys):
    t0 = perf_counter()
    bad = []
    for k in range(1, 13):
        for n in range(10080):
            if residue(n, k) != mod_direct(n, k):
                bad.append((n, k))
    rng = random.Random(4)
    for _ in range(1000):
        n = rng.randrange(10**199, 10**200)
        for k in range(2, 31):
            if residue(n, k) != mod_direct(n, k):
                bad.append((n, k))
    elapsed = perf_counter() - t0
    _report(
        capsys, 4, not bad and elapsed < 30.0,
        "prefix residue equals direct mod on exhaustive and random sweeps",
        f"mismatches={bad[:5]}", f"{elapsed:.2f} s / 30 s",
    )


def test_criterion_5_prefix_periodicity(capsys):
    bad = []
    for s in range(1, 7):
        period = factorial(s)
        for n in range(2 * period):
            if prefix_inversions(n, s) != prefix_inversions(n + period, s):
                bad.append((n, s))
    _report(
        capsys, 5, not bad,
        "s-prefix inversion sets repeat with period s!",
        repr(bad[:5]),
    )


def test_criterion_6_exact_reconstruction(capsys):
    bad = []
    for s in range(1, 8):
        for n in range(factorial(s)):
            total = sum(factorial(j) for _, j in inversion_set(encode(n, s)).pairs())
            if total != n:
                bad.append((s, n, total))
    _report(
        capsys, 6, not bad,
        "factorial-weighted inversion sum rebuilds every n < s!, s <= 7",
        repr(bad[:5]),
    )


def test_criterion_7_digit_duality(capsys):
    bad = []
    for s in range(1, 8):
        for p in itertools.permutations(range(s)):
            if inversion_counts_by_larger(inversion_set(p)) != digits_from_permutation(p):
                bad.append(p)
    rng = random.Random(7)
    big = list(range(10**4))
    for _ in range(100):
        rng.shuffle(big)
        if inversion_counts_by_larger(inversion_set(big)) != digits_from_permutation(big):
            bad.append(tuple(big[:8]) + ("...",))
    _report(
        capsys, 7, not bad,
        "inversion column sums equal prefix digits (s <= 7 and 100 shuffles of 10^4)",
        repr(bad[:3]),
    )


def test_criterion_8_large_roundtrip_speed(capsys):
    s = 10**5
    rng = random.Random(8)
    n = rng.randrange(factorial(s - 1), factorial(s))  # exactly s digits
    t0 = perf_counter()
    p = encode(n)
    back = decode(p)
    elapsed = perf_counter() - t0
    ok = back == n and len(p) == s
    _report(
        capsys, 8, ok and elapsed < 5.0,
        "encode+decode of a 100000-digit integer stays under 5 s",
        f"roundtrip={ok}", f"{elapsed:.2f} s / 5 s",
    )


def test_criterion_9_roundtrip_fuzz(capsys):
    rng = random.Random(9)
    bad = 0
    t0 = perf_counter()
    for _ in range(10**5):
        n = rng.randrange(10**100)
        if decode(encode(n)) != n:
            bad += 1
    elapsed = perf_counter() - t0
    _report(
        capsys, 9, bad == 0,
        f"decode(encode(n)) = n for 100000 random n below 10^100 ({elapsed:.2f} s)",
        f"{bad} failures",
    )
