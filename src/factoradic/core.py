"""Codec between non-negative integers, factorial-base digits, and permutations.

Every non-negative integer n has a unique expansion

    n = sum_i a_i * i!        with 0 <= a_i <= i,

the factorial number system.  The digit sequence (a_0, ..., a_{s-1}) in turn
corresponds to a permutation of {0, ..., s-1}: fill positions from the right,
placing at position j the still-unused value that has exactly a_j unused
values above it.  Listing integers by this correspondence enumerates the
permutations that fix everything >= s before those that move s, which is the
same linear order as comparing sequences at their highest differing position
(larger entry there comes first).  ``encode``/``decode`` convert between the
two ends of this chain; the digit and permutation halves are exposed
separately as well.

All functions are pure and safe to call from multiple threads.  The one
shared state is the memo of product-tree weights (``_WEIGHTS``), which depend
on positions only; it changes only by storing dict items, so at worst two
threads form the same weight twice.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections.abc import MutableSequence, Sequence
from itertools import islice
from math import factorial, lgamma, log, log2, log10, prod

from .errors import (
    DuplicateEntry,
    InvalidDigit,
    NotAPermutation,
    ParseError,
    PrefixTooShort,
    RangeTooLarge,
)

#: Hard cap on sequence lengths, as a permutation occupies O(s) memory: no
#: writing, digit sequence, prefix or rule of more entries goes in or comes
#: out, though integers are unbounded.  Every check reads it here, at call
#: time, so a caller changes it by setting ``factoradic.core.MAX_PREFIX_LENGTH``.
#: ``factoradic.MAX_PREFIX_LENGTH`` is a copy made at import: after
#: ``factoradic.MAX_PREFIX_LENGTH = 3``, ``encode(10**10)`` still returns 14 entries.
MAX_PREFIX_LENGTH = 10**6

# Each threshold below picks a speed, never an answer: test_parity.py's
# test_no_size_threshold_changes_an_outcome pins the parity digest with all five
# low and all high.  The crossovers are timeit minima, CPython 3.11.7, 2 vCPU x86-64.
#
# Permutations of up to this many entries take the one-list kernels; longer
# ones cut the pool into blocks of this many values.  _permutation plus
# _counts, ms, random permutations, one list against blocks of B values:
#   s            10,241  12,289  14,000  20,000  30,000  45,000  100,000
#   one list       12.2    18.0    28.1    41.1    89.7     197     1040
#   B = 8,192      13.4    17.2    25.9    25.6    43.5    83.0      274
#   B = 10,240     15.1    18.6    27.0    28.1    47.0    87.5      277
#   B = 16,384        -       -       -    33.3    56.2     101      303
# Just above B the blocks lose (by 24% at 10,241, 3% at 12,289); 10,240
# keeps s = 10^4 on the list and is within 10% of 8,192 from 20,000 up.
# (CPython 3.10.13 and 3.13.0: 10,240 is within 10% of the best size tried
# from 25,000 up; 3.10 loses 47% at 10,241 and 6% at 14,000.)
# Above the same size the kernels keep their per-entry scratch out of int
# objects: the digits, the counts and the pool's blocks are arrays of 4-byte
# machine words (:func:`_words`), and the permutation is written over its
# digits.  At s = 10^5 encode's traced peak is 4.2 MB with the 3.6 MB
# permutation it returns, and decode's 1.6 MB beyond its input.  Words at
# every size made round trips 1.11-1.19x slower from s = 70 to 1,000.
_BIG_PERM = 10_240
# Integers up to this many bits take the simple divmod loop; above, the
# product tree.  us per call, best of 7 over 20 n, the tree's weights formed
# in the call (cold) or kept from an earlier one (warm):
#   bits     512   768  1,024  1,280  1,536  2,048
#   loop    16.7  27.2   41.4   59.3   76.7    124
#   cold    23.7  36.9   41.5   55.8   60.3   86.5
#   warm    20.1  28.4   34.8   42.0   54.1   64.1
# Cold, the two tie at 1,024 bits; warm, near 900 (a second sweep, on a
# slower spell: loop 48.8 and warm 47.6 at 896, 55.1 and 50.0 at 960).
_BIG_BITS = 1024
# Product-tree nodes of up to this many positions are leaves, done by one
# loop of small steps; every node is this many positions times a power of
# two.  Integer -> digits, ms, best of 7 interleaved calls (3 at 10^5):
#   _LEAF            32    64   128   256
#   s = 1,000 cold  0.56  0.46  0.52  0.64   warm  0.40  0.34  0.38  0.53
#   s = 10^4  cold  14.1  15.3  15.4  17.6   warm  10.6  10.6  11.4  14.1
#   s = 3*10^4 cold 98.8  81.7  93.6   106   warm  62.2  68.6  76.8  88.2
#   s = 10^5  cold   821   762   876     -   warm   550   594   652     -
# 64 is the best or within 10% of it in every column.  Digits -> integer is
# flatter: from s = 3,000 up, each _LEAF tried is within 21% of the best.
_LEAF = 64
# Divisions whose quotient has at most this many bits go to the builtin
# ``divmod``; larger ones recurse.  2n-bit by n-bit: builtin 7.8 us and one
# level of recursion 8.5 us at n = 2,000; 11.6 vs 11.5 at 2,500; 16.5 vs 15.2
# at 3,000 (CPython 3.13: the tie is at 3,000; CHANGES.md has four sweeps).
_DIV_CUTOFF = 2500
# Decimal text of at most this many digits goes to the builtin int and str;
# longer text splits at powers of ten.  No crossover: the least int text limit
# CPython allows (sys.int_info.str_digits_check_threshold), so none refuses it.
_TEXT_DIGITS = 640


# ---------------------------------------------------------------------------
# validation helpers
#
# Every public function checks its input once, here, and then hands it to
# unchecked kernels; :func:`_ints` refuses a sequence past MAX_PREFIX_LENGTH
# entries, as the integer side refuses a writing that long.  The checks are
# C-level passes (map, min, set) and byte marks; an error message is worked
# out only once a check has failed, its integers printed by :func:`_text`.

def _text(x) -> str:
    """``str(x)`` for an int or a tuple, at any size.

    CPython's ``str`` refuses an int of more than 4,300 digits unless that
    limit is lifted.  So an int is printed by :func:`_format_decimal`, whose
    base case is ``str``, and a tuple by ``str`` unless it holds such an int;
    then its entries one by one, any that is not an int by ``repr``, as
    ``str`` prints a tuple's entries.
    """
    if isinstance(x, tuple):
        try:
            return str(x)
        except ValueError:
            return f"({', '.join(map(_text, x))}{',' * (len(x) == 1)})"
    if not isinstance(x, int):
        return repr(x)
    return "-" + _format_decimal(-x) if x < 0 else _format_decimal(x)


def _at_least(x, lo: int, error: type, name: str) -> int:
    """x as an int, refused below lo with ``error("{name} must be >= {lo}, got x")``."""
    x = operator.index(x)
    if x < lo:
        raise error(f"{name} must be >= {lo}, got {_text(x)}")
    return x


def _check_count(n) -> int:
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {_text(n)}")
    return n


def _check_cap(s: int) -> None:
    if s > MAX_PREFIX_LENGTH:
        raise RangeTooLarge(
            f"prefix length {_text(s)} exceeds MAX_PREFIX_LENGTH={MAX_PREFIX_LENGTH}"
        )


def _validate_digits(digits: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The digits as ints, and m, 1 + the index of the last nonzero digit (0
    if none): the digits from m on are the padding, as in :func:`_moved`."""
    d = _ints(digits)
    if not d:
        raise InvalidDigit("empty digit sequence; zero is written as (0,)")
    if min(d) < 0 or not all(map(operator.le, d, range(len(d)))):
        i, a = next((i, a) for i, a in enumerate(d) if not 0 <= a <= i)
        raise InvalidDigit(f"digit {_text(a)} at index {i} outside 0..{i}")
    return d, len(d) if d[-1] else bytes(map(bool, d)).rfind(1) + 1


def _ints(entries: Sequence[int]) -> tuple[int, ...]:
    """The entries as a tuple of ints (a tuple of ints as it is, no copy), at most the cap."""
    if type(entries) is not tuple or operator.countOf(map(type, entries), int) != len(entries):
        entries = tuple(map(operator.index, entries))
    _check_cap(len(entries))
    return entries


def _validate_prefix(entries: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The entries as ints, and how many of them count: m when they end in a
    run of fixed points m, m+1, ... after m entries that are all below m (see
    :func:`_moved`), else all of them.

    Every entry is checked to be an integer.  The run is distinct,
    non-negative and above the m entries before it, so only those are
    checked for negative and repeated entries.
    """
    p = _ints(entries)
    if not p:
        raise PrefixTooShort("empty prefix")
    m = _moved(p)
    head = p[:m]
    if min(head, default=0) < 0:
        raise NotAPermutation(f"negative entry in {_text(p)}")
    if max(head, default=-1) >= m:  # the run, if any, is no fixed-point tail
        head, m = p, len(p)
    if len(set(head)) != m:
        raise DuplicateEntry(f"repeated entry in {_text(p)}")
    return p, m


def _validate_complete(entries: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The entries as ints, and the m of :func:`_moved`: the entries from m on
    are the fixed points m, m+1, ..., so they are a permutation exactly when
    the m before them lie in 0..m-1 and mark every byte of a bytearray(m).

    One form at every size: against sorting them and comparing with range(m),
    the marks cost 0.8-4 us more at m = 20 to 70, cross over between 300 and
    1,000, and are 1.9-2.6x faster from 3,000 up, with a byte of scratch an
    entry where the sort made an int (in-process A/B, CPython 3.10.13-3.13.0).
    """
    p = _ints(entries)
    if not p:
        raise NotAPermutation("empty sequence; the identity is written as (0,)")
    m = _moved(p)
    head = p[:m]
    seen = bytearray(m)
    if m and min(head) >= 0 and max(head) < m:
        for v in head:
            seen[v] = 1
    if 0 in seen:
        raise NotAPermutation(f"{_text(p)} is not a permutation of 0..{len(p) - 1}")
    return p, m


# ---------------------------------------------------------------------------
# integer <-> digits

def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for an n-bit b and 0 <= a < b << n.

    Burnikel and Ziegler's recursive division ("Fast Recursive Division",
    1998): two 3n/2n steps on half-size pieces, so the work is done by
    multiplications, which are subquadratic, not by the schoolbook division
    that builtin ``divmod`` uses for big operands up to CPython 3.11.
    """
    if a.bit_length() - n <= _DIV_CUTOFF:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a <<= 1
        b <<= 1
        n += 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int):
    """divmod(a12 << n | a3, b) for b = b1 << n | b2, an n-bit b1 and a12 < b."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0: long division in base 2**n, where
    n = b.bit_length(), with each step a 2n/1n :func:`_div2n1n`."""
    n = b.bit_length()
    if n <= _DIV_CUTOFF or a.bit_length() - n <= _DIV_CUTOFF:
        return divmod(a, b)
    mask = (1 << n) - 1
    shift = a.bit_length() // n * n
    q = r = 0
    while shift >= 0:
        digit, r = _div2n1n(r << n | a >> shift & mask, b, n)
        q = q << n | digit
        shift -= n
    return q, r


# The product tree over radix positions is dyadic: its nodes are [lo, hi)
# with hi - lo = _LEAF * 2**j and lo a multiple of hi - lo, split at their
# midpoint mid.  Both directions walk it: a node divides by the weight
# mid!/lo! of its left half (integer -> digits) or multiplies by it (digits
# -> integer).  A walk at length s is clipped there: a node whose midpoint
# is >= s has only its left half walked, and uses no weight.  No weight
# depends on n or s, so each is formed on first use, from the weights below
# it, and kept in _WEIGHTS for the life of the process.
#
# The memo thus holds the weights of the nodes with mid < s for the largest
# s seen so far, whatever lengths came before: about s / _LEAF weights, and
# at each of the log2(s / _LEAF) levels about half of log2(s!) bits.  After
# s = 10^5 that is 1,562 weights and 1.08 MB; at MAX_PREFIX_LENGTH, an
# estimate from bit lengths, 15,624 weights and 16.3 MB.
_WEIGHTS: dict[tuple[int, int], int] = {}


def _weight(lo: int, mid: int) -> int:
    """mid!/lo!, the weight of the left half [lo, mid) of a tree node."""
    w = _WEIGHTS.get((lo, mid))
    if w is None:
        w = _WEIGHTS[lo, mid] = _product(lo, mid)
    return w


def _product(lo: int, hi: int) -> int:
    """hi!/lo! for a tree node or leaf [lo, hi), from the weights below it."""
    if hi - lo <= _LEAF:
        return prod(range(lo + 1, hi + 1))
    mid = (lo + hi) // 2
    return _weight(lo, mid) * _product(mid, hi)


def _root(s: int) -> int:
    """The end of the smallest tree node [0, hi) that holds s positions."""
    return _LEAF << ((s - 1) // _LEAF).bit_length()


def _log2_factorial(s: int) -> float:
    return lgamma(s + 1) / log(2)


def _length(n: int) -> int:
    """Smallest s >= 1 with n < s!, for n >= 0: the number of digits n has.

    log2(s!) comes from ``math.lgamma``; s! is computed exactly only when it
    is too close to n to tell in floating point, and is then about the size
    of n.  No cap is applied: callers check MAX_PREFIX_LENGTH on the answer.
    """
    if not n:
        return 1
    bits = log2(n)
    tol = 1e-9 * (bits + 1)  # far above the rounding error of lgamma and log2
    # (s - 1)! >= 2^(s - 2), so the first s with log2(s!) > bits is in range
    hi = bisect_right(range(n.bit_length() + 3), bits, 1, key=_log2_factorial)
    # now log2((hi - 1)!) <= bits < log2(hi!) up to rounding; (hi - 2)! is
    # below n by a factor of hi - 1 or more, and (hi + 1)! above it by hi + 1,
    # so only (hi - 1)! and hi! can be too close to call
    for c in (hi - 1, hi):
        if abs(_log2_factorial(c) - bits) <= tol:
            return c + 1 if n >= factorial(c) else c
    return hi


def _extract(n: int, lo: int, hi: int, out: list) -> None:
    """Write the digits lo..s-1 of n (n < s!/lo!) into out[lo:s], where
    s = min(hi, len(out)) and [lo, hi) is a tree node."""
    s = len(out)
    if hi - lo <= _LEAF:
        for i in range(lo, min(hi, s)):
            n, out[i] = divmod(n, i + 1)
        return
    mid = (lo + hi) // 2
    if mid >= s:
        _extract(n, lo, mid, out)
        return
    q, r = _divmod(n, _weight(lo, mid))
    _extract(r, lo, mid, out)
    _extract(q, mid, hi, out)


def _combine(d: Sequence[int], lo: int, hi: int) -> int:
    """Value of the digit slice d[lo:hi] in units of lo!, for a tree node
    [lo, hi); digits past len(d) count as zeros."""
    s = len(d)
    if hi - lo <= _LEAF:
        v = 0
        for i in range(min(hi, s) - 1, lo - 1, -1):
            v = v * (i + 1) + d[i]
        return v
    mid = (lo + hi) // 2
    if mid >= s:
        return _combine(d, lo, mid)
    return _combine(d, lo, mid) + _weight(lo, mid) * _combine(d, mid, hi)


def _words(values: Sequence[int]) -> MutableSequence[int]:
    """A list or tuple of ints as an array of C ints, 4 bytes an entry, where
    a list takes 8 for each pointer and 28 for each int above 256 it holds.
    The codec stores only digits, counts and entries of a writing, all below
    its length; one of 2^31 or more would raise OverflowError."""
    from array import array  # an extension load, paid only on this path

    return array("i", values)


def _digits(n: int, s: int | None = None) -> Sequence[int]:
    """Digits of n (length >= 1): up to _BIG_BITS bits the shortest form, by a
    divmod loop; above, s digits by the product tree, past _BIG_PERM as words.
    A given s is at least n's length (zeros pad it) and the caller's to check
    against the cap; else the tree finds it by :func:`_length` and checks it."""
    if n.bit_length() <= _BIG_BITS:
        out = [0]
        d = 2
        while n:
            n, r = divmod(n, d)
            out.append(r)
            d += 1
        return out
    if s is None:
        s = _length(n)
        _check_cap(s)
    out = [0] * s if s <= _BIG_PERM else _words((0,)) * s
    _extract(n, 0, _root(s), out)
    return out


def digits_from_integer(n: int, length: int | None = None) -> tuple[int, ...]:
    """Factorial-base digits (a_0, ..., a_{s-1}) of n, with sum a_i * i! = n.

    Without ``length`` the shortest writing is returned (s = 1 for n = 0).
    With ``length`` the digits are zero-padded to exactly that many entries;
    ``PrefixTooShort`` is raised if n does not fit, i.e. if n >= length!.
    """
    d, s = _writing(n, length)
    return tuple(d) + (0,) * (s - len(d))


def _writing(n, length) -> tuple[Sequence[int], int]:
    """n's minimal digits d, and its writing's length: len(d), or the checked
    ``length``, which is checked before any digit is found.  n's length is
    found once: given a length, :func:`_digits` finds the digits at it."""
    n = _check_count(n)
    if length is None:
        d = _digits(n)
        _check_cap(len(d))
        return d, len(d)
    need = _length(n)
    _check_cap(need)
    s = _at_least(length, 1, PrefixTooShort, "length")
    _check_cap(s)
    if s < need:
        raise PrefixTooShort(f"n = {_text(n)} needs at least {need} digits, got length {s}")
    return _digits(n, need), s


def _integer(d: Sequence[int]) -> int:
    """Kernel of :func:`integer_from_digits`, for valid digits."""
    return _combine(d, 0, _root(len(d)))


def integer_from_digits(digits: Sequence[int]) -> int:
    """Evaluate sum a_i * i! for a factorial-base digit sequence."""
    d, m = _validate_digits(digits)
    return _integer(d[:m])


def minimal_prefix_length(n: int) -> int:
    """Smallest s >= 1 with n < s!.

    Raises ``RangeTooLarge`` when s would exceed MAX_PREFIX_LENGTH.
    """
    s = _length(_check_count(n))
    _check_cap(s)
    return s


# ---------------------------------------------------------------------------
# digits <-> permutation
#
# Both directions stop at the padding: digits -> permutation is given the
# moved digits and the writing's length, and permutation -> digits finds the
# moved part with :func:`_moved`.  They walk it from the right, over a pool of
# the values not yet placed (or read), in increasing order.  Digits ->
# permutation takes the value at index j - d[j] out of the pool; permutation
# -> digits finds entry j's index i in the pool and takes it out, and j - i
# values above it are the earlier larger entries.  Up to _BIG_PERM positions
# the pool is one list.  Above, it is cut into arrays of _BIG_PERM consecutive
# values (the layout of sortedcontainers' SortedList), so each pop or del
# moves at most _BIG_PERM entries: digits -> permutation walks the block
# lengths to index j - d[j]; permutation -> digits finds value v in block
# v // _BIG_PERM and adds the lengths of the blocks before it.

def _moved(p: Sequence[int]) -> int:
    """1 + the last j with p[j] != j (0 if none): where a writing's padding starts.

    p holds ints.  When its last entry is fixed, a bisect on p[j] == j ends
    at a c with p[c] == c, just after a probed j with p[j] != j, or at 0.  If
    p[c:] is strictly increasing, it climbs from c to len(p) - 1 in as many
    steps as it has entries, so it is range(c, len(p)) and c is the answer;
    that check compares neighbours and makes no int.  A fixed point before
    the padding can mislead the bisect, and then one scan of all entries
    finds the answer.
    """
    m = len(p)
    if m and p[-1] == m - 1:
        c = bisect_left(range(m), True, key=lambda j: p[j] == j)
        if all(map(operator.lt, islice(p, c, None), islice(p, c + 1, None))):
            return c
        m = bytes(map(operator.ne, p, range(m))).rfind(1) + 1
    return m


def _blocks(m: int) -> list[MutableSequence[int]]:
    """The pool 0..m-1 as arrays of _BIG_PERM consecutive values."""
    return [_words(list(range(lo, min(lo + _BIG_PERM, m)))) for lo in range(0, m, _BIG_PERM)]


def _permutation(d: MutableSequence[int], s: int) -> tuple[int, ...]:
    """The s-entry writing of the valid digits d, padded with zeros.

    d is scratch: more than _BIG_PERM digits are overwritten with the
    writing's entries, so that no list of them is built beside d.
    """
    m = len(d)
    if m <= _BIG_PERM:
        pool = list(range(m))
        out = list(map(pool.pop, map(operator.sub, range(m - 1, -1, -1), reversed(d))))
        out.reverse()
    else:
        blocks = _blocks(m)
        for j in range(m - 1, -1, -1):
            i = j - d[j]
            for block in blocks:
                if i < len(block):
                    break
                i -= len(block)
            d[j] = block.pop(i)  # d[j] is read no more
        del blocks  # an emptied array keeps its buffer
        out = d
    out.extend(range(m, s))
    return tuple(out)


def _counts(p: Sequence[int]) -> Sequence[int]:
    """counts[j] = #{i < j : p[i] > p[j]} for a permutation p of 0..s-1;
    more than _BIG_PERM moved entries are counted into words (:func:`_words`)."""
    m = _moved(p)
    if m <= _BIG_PERM:
        counts = [0] * len(p)
        pool = list(range(m))
        for j in range(m - 1, -1, -1):
            i = bisect_left(pool, p[j])
            counts[j] = j - i
            del pool[i]
    else:
        counts = _words((0,)) * len(p)
        blocks = _blocks(m)
        for j in range(m - 1, -1, -1):
            v = p[j]
            block = blocks[v // _BIG_PERM]
            i = bisect_left(block, v)
            del block[i]
            for earlier in blocks:
                if earlier is block:
                    break
                i += len(earlier)
            counts[j] = j - i
    return counts


def _ranks(p: Sequence[int]) -> Sequence[int]:
    """Distinct non-negative entries relabelled 0..s-1 in the same order;
    p itself when it already is a permutation of 0..s-1."""
    if max(p, default=-1) < len(p):
        return p
    rank = dict(zip(sorted(p), range(len(p))))
    return list(map(rank.__getitem__, p))


def permutation_from_digits(digits: Sequence[int]) -> tuple[int, ...]:
    """Permutation of {0..s-1} whose digit sequence is ``digits``.

    Positions are filled from the right: position j receives the unused value
    with exactly digits[j] unused values above it.
    """
    d, m = _validate_digits(digits)
    # d is the caller's; the long kernel writes over a copy of it
    return _permutation(d[:m] if m <= _BIG_PERM else _words(d[:m]), len(d))


def digits_from_permutation(entries: Sequence[int]) -> tuple[int, ...]:
    """Digit sequence of a prefix: digit j counts earlier entries above entry j.

    Works for any sequence of distinct non-negative integers; when the input
    is a permutation of {0..s-1} this inverts :func:`permutation_from_digits`.
    """
    p, m = _validate_prefix(entries)
    return tuple(_counts(_ranks(p[:m]))) + (0,) * (len(p) - m)  # no inversions past m


# ---------------------------------------------------------------------------
# the codec proper

def encode(n: int, length: int | None = None) -> tuple[int, ...]:
    """Permutation writing of n: the n-th permutation in the enumeration order.

    The default (minimal) writing has ``minimal_prefix_length(n)`` entries;
    passing ``length`` pads with trailing fixed points, and requires
    n < length!.
    """
    return _permutation(*_writing(n, length))


def decode(entries: Sequence[int]) -> int:
    """Integer encoded by a complete permutation of {0..s-1}.

    Inverse of :func:`encode`; padded writings decode to the same integer.
    """
    return _integer(_counts(minimal_form(entries)))


def minimal_form(entries: Sequence[int]) -> tuple[int, ...]:
    """Strip trailing fixed points down to the shortest writing (length >= 1)."""
    p, m = _validate_complete(entries)
    return p[: max(m, 1)]


def compare_factoradic(p: Sequence[int], q: Sequence[int]) -> int:
    """Three-way comparison in encoding order: -1, 0, or 1.

    Both arguments must be complete permutations; shorter writings are
    extended by fixed points before comparing, so (1, 0) equals (1, 0, 2).
    The sequences are compared at the highest position where they differ,
    and the one with the *larger* entry there comes first; this makes
    ``compare_factoradic(p, q) < 0`` equivalent to ``decode(p) < decode(q)``.
    """
    a, ma = _validate_complete(p)
    b, mb = _validate_complete(q)
    if ma != mb:  # the writing that moves more entries encodes more
        return 1 if ma > mb else -1
    ra, rb = a[:ma][::-1], b[:mb][::-1]
    return (ra < rb) - (ra > rb)


# ---------------------------------------------------------------------------
# text form

def format_permutation(entries: Sequence[int]) -> str:
    """Render a sequence of integers as "(2, 3, 0, 1)"."""
    try:
        return "(" + ", ".join(map(str, entries)) + ")"
    except ValueError:  # an int past CPython's text limit
        return "(" + ", ".join(map(_text, entries)) + ")"


def _parse_decimal(text: str) -> int:
    """``int(text)`` at any length, whatever CPython's int text limit.

    Text of more than ``_TEXT_DIGITS`` characters in ``int``'s grammar (blanks,
    one sign, Unicode decimals, single underscores between them) has its
    digits split at powers of ten, the halves parsed apart and joined by one
    multiplication, subquadratic where the builtin is not (CPython up to
    3.11).  Other text goes to ``int``, errors and all.
    """
    if len(text) <= _TEXT_DIGITS:
        return int(text)
    body = text.strip()
    unsigned = body[1:] if body[:1] in ("+", "-") else body
    runs = unsigned.split("_")  # an empty run: a leading, trailing or doubled "_"
    digits = "".join(runs)
    if "" in runs or not digits.isdecimal():
        return int(text)
    n = _parse_digits(digits, 0, len(digits), {})
    return -n if body[:1] == "-" else n


def _parse_digits(text: str, lo: int, hi: int, pow10: dict) -> int:
    if hi - lo <= _TEXT_DIGITS:
        return int(text[lo:hi])
    k = (hi - lo) // 2  # digits in the low half
    high = _parse_digits(text, lo, hi - k, pow10)
    return high * _pow10(k, pow10) + _parse_digits(text, hi - k, hi, pow10)


def _short(n: int) -> bool:
    """Whether ``str`` prints the int n under any int text limit: n has at
    most _TEXT_DIGITS digits if its bits times 0.30103 (> log10 2) are fewer."""
    return n.bit_length() * 30103 < _TEXT_DIGITS * 100000


def _format_decimal(n: int) -> str:
    """``str(n)`` for n >= 0, with an n that is not :func:`_short` split at
    powers of ten by :func:`_divmod`, the halves printed apart and zero-padded."""
    if _short(n):
        return str(n)
    out: list[str] = []
    _format_digits(n, int(n.bit_length() * log10(2)) + 1, {}, out)  # n's digits, or one more
    return "".join(out).lstrip("0")


def _format_digits(n: int, width: int, pow10: dict, out: list) -> None:
    """Append n < 10**width to out as width digits, zero-padded."""
    if width <= _TEXT_DIGITS:
        out.append(str(n).zfill(width))
        return
    k = width // 2  # digits in the low half
    q, r = _divmod(n, _pow10(k, pow10))
    _format_digits(q, width - k, pow10, out)
    _format_digits(r, k, pow10, out)


def _pow10(k: int, pow10: dict) -> int:
    """10**k, memoised in pow10: one split level asks for at most two k."""
    p = pow10.get(k)
    if p is None:
        p = pow10[k] = 10**k
    return p


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse "(2, 3, 0, 1)", "2,3,0,1", or "2 3 0 1" into a tuple.

    Entries are read as ``int`` reads them, at any length; validity
    (distinctness, completeness) is checked by whichever operation uses them.
    """
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    parts = t.replace(",", " ").split()
    if not parts:
        raise ParseError(f"no entries in permutation text {text!r}")
    entries = []
    for tok in parts:
        try:
            v = int(tok, 10)
        except ValueError:  # not an entry, or one past CPython's int text limit
            try:
                v = _parse_decimal(tok)
            except ValueError:
                raise ParseError(f"invalid entry {tok!r} in {text!r}") from None
        if v < 0:
            raise ParseError(f"negative entry {_text(v)} in {text!r}")
        entries.append(v)
    return tuple(entries)
