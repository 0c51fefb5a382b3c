"""Residues n mod k read off the first S(k) entries of n's permutation writing.

The digit expansion n = sum a_j * j! gives n mod k directly, and digit a_j
is column j's inversion count c_j (the entries before position j that are
larger).  Coefficients j! mod k vanish from the first j with k | j! onward,
the Kempner function S(k) <= k, so one coefficient per column j < S(k)
decides the residue:

    n mod k  =  ( sum_{j<S(k)} c_j * (j! mod k) ) mod k.

Column counts depend only on the relative order of the prefix, which in
turn depends only on n mod S(k)!, so residues of arbitrarily large n reduce
to an S(k)-entry computation.

Fixed-point tails count nothing: when the entries from position m on are
m, m+1, ... and the m before them are all below m, as in a writing padded
past its digits, every column from m on has c_j = 0.  So a prefix is
counted only up to that m, and its weights are taken only that far.  The
tail is found by its shape (a bisect, then one comparison of neighbours),
and as it is distinct, non-negative and above the m entries before it,
only those are checked for negative and repeated entries; every entry is
still checked to be an integer.  For an integer n the same holds past its
own digits, so ``residue`` takes only as many weights as n has digits, the
length :func:`core._length` finds for every entry point.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from math import factorial

from .core import _at_least, _check_cap, _check_count, _counts, _digits, _divmod
from .core import _length, _permutation, _ranks, _text, _validate_prefix
from .errors import ModulusZero, PrefixTooShort
from .inversions import InversionSet


def _factorials_mod(k: int) -> Iterator[int]:
    """j! mod k for j = 0, 1, ... while it is nonzero: S(k) values."""
    j, w = 0, 1 % k
    while w:
        yield w
        j += 1
        w = w * j % k


def _weighted_sum(counts: Iterable[int], weights: Iterable[int], k: int) -> int:
    """(sum_j counts[j] * weights[j]) mod k over the shorter of the two."""
    return sum(map(operator.mul, counts, weights)) % k


def _prefix_sum(prefix: Iterable[int], need: int, weights: Iterable[int], k: int) -> int:
    """The weighted column sum of a prefix, which must have ``need`` valid
    entries; nothing past them is read, and no weight is taken before they
    have been checked.

    A tuple is cut at ``need`` (no copy when it has exactly that many
    entries); other prefixes are copied once.  Only the columns that
    :func:`core._validate_prefix` says count, those before a fixed-point
    tail, are counted, and only their weights are taken.
    """
    entries = prefix[:need] if isinstance(prefix, tuple) else tuple(islice(prefix, need))
    if len(entries) < need:
        raise PrefixTooShort(f"need a {_text(need)}-prefix, got {len(entries)} entries")
    p, m = _validate_prefix(entries)
    weights = list(islice(weights, m))
    return _weighted_sum(_counts(_ranks(p[: len(weights)])), weights, k)


def kempner(k: int) -> int:
    """Smallest j with k | j! (S(1) = 0, S(6) = 3, S(p) = p for prime p).

    S(k) = k exactly for a prime k and 4, so ``table --primes`` keeps the k
    with S(k) = k, k != 4."""
    return sum(1 for _ in _factorials_mod(_at_least(k, 1, ModulusZero, "modulus")))


def residue_from_prefix(prefix: Sequence[int], k: int) -> int:
    """n mod k for any n whose permutation writing starts with this k-prefix.

    The first k entries are required and validated, though only the first
    S(k) of them are read; extra entries are ignored.
    """
    k = _at_least(k, 1, ModulusZero, "modulus")
    return _prefix_sum(prefix, k, _factorials_mod(k), k)


def residue(n: int, k: int) -> int:
    """n mod k as the weighted sum of n's own factorial-base digits.

    Digit j is column j's inversion count, weighted by j! mod k; only the
    first S(k) digits count, so neither k entries nor k! are built, and no
    length cap refuses an n.  Past S(k) digits (:func:`core._length`), n is
    cut to n mod S(k)! by :func:`core._divmod`, not by ``%``, quadratic up to
    CPython 3.11 (10^5 digits, k = 65521: 1.2 s with it, 0.4-0.6 s now).
    """
    n = _check_count(n)
    k = _at_least(k, 1, ModulusZero, "modulus")
    s = _length(n)
    weights = list(islice(_factorials_mod(k), s))
    if len(weights) < s:  # S(k) comes before n's last digit: cut n below S(k)!
        n, s = _divmod(n, factorial(len(weights)))[1], len(weights)
    return _weighted_sum(_digits(n, s), weights, k)


def prefix_inversions(n: int, s: int) -> InversionSet:
    """Inversion set of the s-prefix of n's permutation writing.

    Periodic in n with period s!: past s digits, n is cut as in :func:`residue`
    (s = 65521: 1.2 s with ``%``, 0.4-0.6 s now); below, s! is not computed.
    """
    n = _check_count(n)
    s = _at_least(s, 1, PrefixTooShort, "prefix length")
    _check_cap(s)
    need = _length(n)
    if need > s:  # n reaches s!: cut it below s!
        n, need = _divmod(n, factorial(s))[1], s
    return InversionSet._of_permutation(_permutation(_digits(n, need), s))


def divisible(n_or_prefix, k: int) -> bool:
    """True iff k divides the given integer, or the integer a prefix encodes.

    Accepts either a non-negative integer or a k-prefix (sequence of
    distinct entries).
    """
    try:
        n = operator.index(n_or_prefix)
    except TypeError:
        return residue_from_prefix(n_or_prefix, k) == 0
    return residue(n, k) == 0
