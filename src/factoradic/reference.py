"""Slow, obviously-correct baselines for cross-checking the fast code paths.

Everything here is written the dumb way on purpose: permutations come from
exhaustive enumeration and sorting, inversions from a double loop, residues
from the % operator.  The verify suites sweep these baselines against the
library and report any mismatches.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from functools import lru_cache
from math import factorial

from .core import _at_least, _text, decode, encode
from .errors import ModulusZero, PrefixTooShort, RangeTooLarge
from .inversions import inversion_set
from .modular import residue

_BRUTE_MAX = 8  # s! enumerations past this are pointless


@lru_cache(maxsize=None)
def _sorted_permutations(s: int) -> tuple[tuple[int, ...], ...]:
    perms = itertools.permutations(range(s))
    return tuple(sorted(perms, key=lambda p: p[::-1], reverse=True))


def _check_brute(s: int) -> None:
    if s > _BRUTE_MAX:
        raise RangeTooLarge(f"bruteforce enumeration capped at s = {_BRUTE_MAX}")


def nth_permutation_bruteforce(n: int, s: int) -> tuple[int, ...]:
    """n-th length-s permutation: all s! of them, sorted by reversed tuple, larger first."""
    _check_brute(s)
    if not 0 <= n < factorial(s):
        raise PrefixTooShort(f"need 0 <= n < {s}!, got {_text(n)}")
    return _sorted_permutations(s)[n]


def inversions_bruteforce(prefix: Sequence[int]) -> frozenset[tuple[int, int]]:
    """All position pairs i < j with prefix[i] > prefix[j], by double loop."""
    entries = tuple(prefix)
    return frozenset(
        (i, j)
        for i in range(len(entries))
        for j in range(i + 1, len(entries))
        if entries[i] > entries[j]
    )


def mod_direct(n: int, k: int) -> int:
    """n mod k the ordinary way."""
    if k < 1:
        _at_least(k, 1, ModulusZero, "modulus")  # raises; TypeError for a non-integer k
    return n % k


def check_factoradic_order(smax: int = 7) -> tuple[int, list]:
    """encode/decode vs. exhaustive enumeration for every n < s!, s <= smax."""
    _check_brute(smax)
    cases = 0
    mismatches = []
    for s in range(1, smax + 1):
        for n in range(factorial(s)):
            cases += 1
            got = encode(n, s)
            want = nth_permutation_bruteforce(n, s)
            if got != want or decode(got) != n:
                mismatches.append((s, n, got, want))
    return cases, mismatches


def check_inversions(samples: int = 200, max_size: int = 50, seed: int = 0) -> tuple[int, list]:
    """inversion_set vs. the double loop on random permutations: its pairs,
    and its column counts against the column sums of the double loop's pairs."""
    rng = random.Random(seed)
    cases = 0
    mismatches = []
    for _ in range(samples):
        s = rng.randint(1, max_size)
        prefix = list(range(s))
        rng.shuffle(prefix)
        cases += 1
        inv = inversion_set(prefix)
        got = inv.pair_set()
        want = inversions_bruteforce(prefix)
        column_sums = [0] * s
        for _, j in want:
            column_sums[j] += 1
        if got != want or inv.counts_by_larger() != tuple(column_sums):
            mismatches.append((tuple(prefix), sorted(got), sorted(want)))
    return cases, mismatches


def check_residues(nmax: int = 10080, kmax: int = 12) -> tuple[int, list]:
    """residue(n, k) vs. n % k for all n < nmax, 1 <= k <= kmax."""
    cases = 0
    mismatches = []
    for k in range(1, kmax + 1):
        for n in range(nmax):
            cases += 1
            got = residue(n, k)
            want = mod_direct(n, k)
            if got != want:
                mismatches.append((n, k, got, want))
    return cases, mismatches
