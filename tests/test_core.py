"""Codec unit tests: integer <-> digits <-> permutation, ordering, text forms."""

import collections
import contextlib
import itertools
import random
import re
import sys
import threading
import time
import tracemalloc
from math import factorial, log10
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factoradic import (
    DuplicateEntry,
    InvalidDigit,
    NotAPermutation,
    ParseError,
    PrefixTooShort,
    RangeTooLarge,
    compare_factoradic,
    decode,
    digits_from_integer,
    digits_from_permutation,
    encode,
    evaluate_rule,
    format_permutation,
    generate_rule,
    integer_from_digits,
    inversion_set,
    kempner,
    minimal_form,
    minimal_prefix_length,
    parse_permutation,
    permutation_from_digits,
    prefix_inversions,
    residue_from_prefix,
)
import factoradic.core as core
import factoradic.inversions as inversions
import factoradic.modular as modular
from factoradic.reference import inversions_bruteforce, nth_permutation_bruteforce

from error_rows import BIG, BIG_TEXT, bad_inputs, int_text_limit
from golden import GOLDEN_24


# ---------------------------------------------------------------------------
# golden values

def test_encode_width4_golden():
    for n, row in GOLDEN_24.items():
        assert encode(n, 4) == row


def test_decode_width4_golden():
    for n, row in GOLDEN_24.items():
        assert decode(row) == n


def test_worked_example_16():
    assert digits_from_integer(16) == (0, 0, 2, 2)
    assert integer_from_digits((0, 0, 2, 2)) == 16
    assert permutation_from_digits((0, 0, 2, 2)) == (2, 3, 0, 1)
    assert digits_from_permutation((2, 3, 0, 1)) == (0, 0, 2, 2)


def test_digit_weights():
    assert integer_from_digits((0, 1, 2, 3)) == 1 * 1 + 2 * 2 + 3 * 6
    assert integer_from_digits((0,)) == 0
    assert integer_from_digits((0, 1)) == 1


def test_zero_is_single_entry():
    assert digits_from_integer(0) == (0,)
    assert encode(0) == (0,)
    assert minimal_prefix_length(0) == 1
    assert decode((0,)) == 0


# lengths whose s! has fewer bits than core._BIG_BITS, then more, none of them
# a power of two: their integers take the simple loop, then the product tree
SIZES_AROUND_BIG_BITS = (3, 8, 100, 169, 170, 171, 172, 173, 300, 1001, 2500)


def test_minimal_prefix_length_boundaries():
    for s in range(2, 9):
        assert minimal_prefix_length(factorial(s) - 1) == s
        assert minimal_prefix_length(factorial(s)) == s + 1
    assert factorial(170).bit_length() <= core._BIG_BITS < factorial(172).bit_length()
    for s in SIZES_AROUND_BIG_BITS:
        f = factorial(s)
        assert minimal_prefix_length(f // s) == s  # (s - 1)!
        assert minimal_prefix_length(f // s - 1) == s - 1
        assert minimal_prefix_length(f - 1) == s
        assert minimal_prefix_length(f) == s + 1


def test_minimal_prefix_length_cap():
    with patch.object(core, "MAX_PREFIX_LENGTH", 200):
        assert minimal_prefix_length(factorial(200) - 1) == 200
        for n in (factorial(200), factorial(300)):
            with pytest.raises(RangeTooLarge):
                minimal_prefix_length(n)
            with pytest.raises(RangeTooLarge):
                digits_from_integer(n)


def test_minimal_prefix_length_at_factorials_up_to_3000():
    f = 1
    for j in range(2, 3001):
        f *= j
        assert minimal_prefix_length(f - 1) == j
        assert minimal_prefix_length(f) == j + 1
        assert minimal_prefix_length(f + 1) == j + 1


# (cap, j) -> what n = j! - 1, j!, j! + 1 give with MAX_PREFIX_LENGTH = cap:
# the length n needs, or, as a string, that length named by a RangeTooLarge
# message, the same from every entry point
CAPPED_LENGTHS = {
    (1, 1): (1, "2", "3"),
    (1, 2): ("2", "3", "3"),
    (1, 3): ("3", "4", "4"),
    (2, 1): (1, 2, "3"),
    (2, 2): (2, "3", "3"),
    (2, 3): ("3", "4", "4"),
    (2, 4): ("4", "5", "5"),
    (5, 4): (4, 5, 5),
    (5, 5): (5, "6", "6"),
    (5, 6): ("6", "7", "7"),
    (5, 7): ("7", "8", "8"),
    (200, 199): (199, 200, 200),
    (200, 200): (200, "201", "201"),
    (200, 201): ("201", "202", "202"),
    (200, 202): ("202", "203", "203"),
}


@pytest.mark.parametrize("cap, j", CAPPED_LENGTHS)
def test_minimal_prefix_length_under_a_patched_cap(cap, j):
    with patch.object(core, "MAX_PREFIX_LENGTH", cap):
        for d, want in zip((-1, 0, 1), CAPPED_LENGTHS[cap, j]):
            n = factorial(j) + d
            if isinstance(want, int):
                assert minimal_prefix_length(n) == want
                assert len(digits_from_integer(n)) == len(encode(n)) == want
                continue
            message = f"^prefix length {want} exceeds MAX_PREFIX_LENGTH={cap}$"
            for call in (minimal_prefix_length, digits_from_integer, encode):
                with pytest.raises(RangeTooLarge, match=message):
                    call(n)


def _refused(call, *args) -> bool:
    try:
        call(*args)
    except RangeTooLarge:
        return True
    return False


@pytest.mark.parametrize("cap", [1, 5, 100])
@settings(deadline=None)
@given(st.data())
def test_a_sequence_is_refused_exactly_when_its_integer_side_is(cap, data):
    # a writing of s entries, m of them moved, and n, read off it under the
    # default cap; then each sequence-side entry point against its inverse
    s = data.draw(st.integers(1, cap + 2) | st.integers(max(cap - 1, 1), cap + 2), label="s")
    m = data.draw(st.integers(0, s), label="m")
    p = (*data.draw(st.permutations(range(m))), *range(m, s))
    n, d = decode(p), digits_from_permutation(p)
    k = data.draw(st.integers(1, s), label="k")
    moduli = [j for j in (2, 3, 4, 5, 6, 7, 101, 103) if kempner(j) <= s]  # rules p can feed
    kr = data.draw(st.sampled_from(moduli or [None]), label="rule modulus")
    with patch.object(core, "MAX_PREFIX_LENGTH", cap):
        by_length = _refused(encode, n, s)
        assert by_length == (s > cap)
        for call, args in [(decode, (p,)), (minimal_form, (p,)), (compare_factoradic, (p, (0,))),
                           (compare_factoradic, ((0,), p))]:
            assert _refused(call, *args) == by_length
        assert _refused(integer_from_digits, d) == _refused(digits_from_integer, n, s)
        assert _refused(digits_from_permutation, p) == _refused(permutation_from_digits, d)
        assert _refused(inversion_set, p) == _refused(prefix_inversions, n, s)
        assert _refused(residue_from_prefix, p, k) == _refused(prefix_inversions, n, k)
        if kr is not None:
            assert _refused(lambda: evaluate_rule(generate_rule(kr), p)) == _refused(generate_rule, kr)
        if not by_length:
            assert decode(p) == n and permutation_from_digits(d) == encode(n, s) == p


def test_past_the_cap_every_sequence_entry_point_refuses():
    # a random 200-entry permutation under a cap of 100: each of these
    # answered while encode(decode(p)) refused
    p = tuple(random.Random(10).sample(range(200), 200))
    d = digits_from_permutation(p)
    calls = [
        lambda: decode(p), lambda: minimal_form(p), lambda: compare_factoradic(p, (0,)),
        lambda: digits_from_permutation(p), lambda: inversion_set(p), lambda: integer_from_digits(d),
        lambda: residue_from_prefix(p, 199), lambda: evaluate_rule(generate_rule(199), p),
    ]
    with patch.object(core, "MAX_PREFIX_LENGTH", 100):
        for call in calls:
            with pytest.raises(RangeTooLarge, match="^(prefix length 200|prefix length 199|rule for 199)"):
                call()


# ---------------------------------------------------------------------------
# padding and minimal forms

def test_padding_appends_fixed_points():
    assert encode(1) == (1, 0)
    assert encode(1, 4) == (1, 0, 2, 3)
    assert digits_from_integer(1, 4) == (0, 1, 0, 0)
    assert decode((1, 0, 2, 3)) == 1


def test_minimal_form_strips_fixed_points():
    assert minimal_form((1, 0, 2, 3)) == (1, 0)
    assert minimal_form((0, 1, 2)) == (0,)
    assert minimal_form((2, 3, 0, 1)) == (2, 3, 0, 1)


@given(st.integers(0, 10**30), st.integers(1, 40))
def test_padded_encode_decodes_back(n, extra):
    length = minimal_prefix_length(n) + extra
    assert decode(encode(n, length)) == n


@given(st.integers(0, 10**150), st.integers(0, 400))
@example(0, 0)  # all-zero digits: nothing moves
@example(0, 300)
@example(factorial(9), 0)  # digits 0, ..., 0, 1
@example(factorial(60), 250)
def test_padded_writings_agree_with_the_minimal_one(n, pad):
    w = encode(n)
    m = len(w)
    padded = encode(n, m + pad)
    assert padded == w + tuple(range(m, m + pad))
    assert decode(padded) == n
    assert minimal_form(padded) == w
    d = digits_from_permutation(padded)
    assert d == digits_from_integer(n) + (0,) * pad
    for digits in (d, list(d)):  # a tuple of ints is read in place, a list copied
        assert permutation_from_digits(digits) == padded
        assert integer_from_digits(digits) == n


@given(st.integers(0, 10**150), st.data())
def test_compare_padded_writings_in_decode_order(a, data):
    b = data.draw(st.integers(0, 10**150) | st.integers(max(a - 2, 0), a + 2))
    p = encode(a, minimal_prefix_length(a) + data.draw(st.integers(0, 400)))
    q = encode(b, minimal_prefix_length(b) + data.draw(st.integers(0, 400)))
    want = (decode(p) > decode(q)) - (decode(p) < decode(q))
    assert compare_factoradic(p, q) == want
    assert compare_factoradic(q, p) == -want


@pytest.mark.parametrize("big_perm", [64, core._BIG_PERM])
def test_padding_never_reaches_the_kernels(big_perm, monkeypatch):
    # a writing of m entries padded to s > 2 * _BIG_PERM: the pool kernels
    # (which build their blocks with _blocks) and _integer get m positions,
    # and _permutation gets m digits
    monkeypatch.setattr(core, "_BIG_PERM", big_perm)
    m = big_perm + 100
    n = random.Random(m).randrange(factorial(m - 1), factorial(m))
    s = 2 * big_perm + 1000
    sizes = []
    for name in ("_blocks", "_integer", "_permutation"):
        def counted(arg, *rest, _call=getattr(core, name)):
            sizes.append(arg if isinstance(arg, int) else len(arg))
            return _call(arg, *rest)
        monkeypatch.setattr(core, name, counted)
    monkeypatch.setattr(modular, "_permutation", core._permutation)  # its own import
    w = encode(n, s)
    assert w[m:] == tuple(range(m, s))
    assert decode(w) == n
    assert prefix_inversions(n, s) == inversion_set(w)
    d = digits_from_permutation(w)
    assert permutation_from_digits(d) == w
    assert minimal_form(w) == w[:m]
    assert m in sizes and max(sizes) == m


def _moved_by_scan(p):
    return max((j + 1 for j, x in enumerate(p) if x != j), default=0)


@st.composite
def heads_and_runs(draw):
    """A head of small ints, then a run of fixed points.  Some head entries
    are fixed points, most often where a bisect over the whole probes first:
    at half its length, a quarter, an eighth, ..."""
    head = draw(st.lists(st.integers(-2, 40), max_size=40))
    s = len(head) + draw(st.integers(0, 60))
    positions = [s >> i for i in range(1, 8) if s >> i < len(head)] + list(range(len(head)))
    for j in draw(st.sets(st.sampled_from(positions))) if positions else ():
        head[j] = j
    return (*head, *range(len(head), s))


@example((1, 0, 2, 3, 4, 6, 5, 7, 8))  # the bisect probes 4 and 2, both fixed
@example((0,))
@example(())
@given(heads_and_runs())
def test_moved_finds_the_padding_as_a_scan_does(p):
    assert core._moved(p) == _moved_by_scan(p)


@example((5, 1, 2, 3))  # a run, but below the head: every column counts
@example((1, 0, 2, 3, 3, 5))
@example(())
@given(heads_and_runs())
def test_prefix_checks_read_the_run_by_its_shape(p):
    # the same errors, in the same order, as checks over every entry
    if not p:
        error = PrefixTooShort
    elif min(p) < 0:
        error = NotAPermutation
    elif len(set(p)) != len(p):
        error = DuplicateEntry
    else:
        digits = tuple(sum(x > y for x in p[:j]) for j, y in enumerate(p))
        assert digits_from_permutation(p) == digits
        assert inversion_set(p).counts_by_larger() == digits
        return
    for call in (digits_from_permutation, inversion_set):
        with pytest.raises(error):
            call(p)


@example((2, 0, 2, 3))  # the head holds m
@example((0, 3, 2, 3, 4))
@example((0,))
@example(())
@given(heads_and_runs())
def test_complete_checks_read_the_run_by_its_shape(p):
    # the same errors as a sort of every entry
    if p and sorted(p) == list(range(len(p))):
        w = minimal_form(p)
        assert w == p[: max(_moved_by_scan(p), 1)]
        assert decode(p) == decode(w)
        assert compare_factoradic(p, w) == compare_factoradic(w, p) == 0
        return
    message = f"{p} is not a permutation of 0..{len(p) - 1}" if p else "empty sequence"
    for call in (decode, minimal_form, lambda q: compare_factoradic((0,), q)):
        with pytest.raises(NotAPermutation, match=f"^{re.escape(message)}"):
            call(p)


def test_complete_padding_is_checked_without_an_object_per_entry():
    # a tuple of ints is read in place and a list copied once, at 8 bytes an
    # entry; a sort of all entries against range(s) took 56 bytes an entry
    k = 10**5
    w = encode(5, k)
    as_list = list(w)
    tracemalloc.start()
    try:
        assert decode(w) == 5
        assert decode(as_list) == 5
        assert minimal_form(w) == (2, 1, 0)
        assert compare_factoradic(w, as_list) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * k


def test_the_complete_check_marks_a_byte_an_entry_at_every_size():
    # below _BIG_PERM too: sorting the entries against range(m) took 46
    # bytes an entry
    m = 5000
    assert m < core._BIG_PERM
    p = list(range(m))
    random.Random(m).shuffle(p)
    p = tuple(p)
    assert core._validate_complete(p) == (p, m)
    tracemalloc.start()
    try:
        core._validate_complete(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * m + 1024


def test_long_codec_calls_keep_per_entry_scratch_out_of_int_objects():
    # above _BIG_PERM, digits, counts and the pools are machine words, the
    # permutation is written over its digits and the check marks bytes; a
    # list of new ints alone takes 4.5 words an entry (a pointer and a
    # 28-byte int)
    s = 3 * 10**4
    assert s > core._BIG_PERM
    n = random.Random(s).randrange(factorial(s - 1), factorial(s))
    assert decode(encode(n)) == n  # the tree's weights are kept from here on
    tracemalloc.start()
    try:
        p = encode(n)
        kept, peak = tracemalloc.get_traced_memory()  # kept: the permutation
        encode_scratch = peak - kept
        tracemalloc.reset_peak()
        assert decode(p) == n
        decode_scratch = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    assert encode_scratch < 4 * 8 * s
    assert decode_scratch < 4 * 8 * s


@pytest.mark.parametrize("kind", [list, tuple])
def test_the_long_kernel_writes_over_no_digits_of_the_caller(kind):
    # _permutation writes the writing over its digits above _BIG_PERM, so
    # permutation_from_digits hands it a copy
    d = kind(digits_from_integer(10**40, 40))
    with patch.object(core, "_BIG_PERM", 4):
        assert permutation_from_digits(d) == encode(10**40, 40)
    assert d == kind(digits_from_integer(10**40, 40))


def test_moved_falls_back_to_the_scan_when_the_bisect_is_misled(monkeypatch):
    scans = []
    def counted(items):
        scans.append(1)
        return bytes(items)
    monkeypatch.setattr(core, "bytes", counted, raising=False)
    # the bisect probes 4 and 2, both fixed points, and guesses 2; the scan
    # finds the swapped 6 and 5
    assert core._moved((1, 0, 2, 3, 4, 6, 5, 7, 8)) == 7
    assert scans == [1]
    assert core._moved((1, 0, 3, 2, 4, 5, 6, 7, 8)) == 4  # the guess holds
    assert scans == [1]


# ---------------------------------------------------------------------------
# roundtrips

@given(st.integers(0, 10**60))
def test_digit_roundtrip(n):
    d = digits_from_integer(n)
    assert integer_from_digits(d) == n
    assert all(0 <= a <= i for i, a in enumerate(d))
    assert d[-1] != 0 or n == 0


@given(st.integers(0, 10**60))
def test_encode_decode_roundtrip(n):
    p = encode(n)
    assert decode(p) == n
    assert len(p) == minimal_prefix_length(n)


@given(st.integers(1, 50).flatmap(lambda s: st.permutations(range(s))))
def test_permutation_digit_roundtrip(p):
    assert permutation_from_digits(digits_from_permutation(p)) == tuple(p)


@given(st.integers(1, 30).flatmap(lambda s: st.permutations(range(s))))
def test_digits_depend_only_on_relative_order(p):
    relabeled = [3 * x + 7 for x in p]
    assert digits_from_permutation(relabeled) == digits_from_permutation(p)


# ---------------------------------------------------------------------------
# ordering

def test_compare_examples():
    assert compare_factoradic((0, 2, 1, 3), (2, 0, 1, 3)) == -1
    assert compare_factoradic((2, 0, 1, 3), (0, 2, 1, 3)) == 1
    assert compare_factoradic((1, 0), (1, 0, 2, 3)) == 0


def test_compare_matches_decode_exhaustively():
    perms = [p for s in range(1, 5) for p in itertools.permutations(range(s))]
    for p in perms:
        for q in perms:
            want = (decode(p) > decode(q)) - (decode(p) < decode(q))
            assert compare_factoradic(p, q) == want


def test_order_isomorphism_below_120():
    for m in range(120):
        for n in range(120):
            want = (m > n) - (m < n)
            assert compare_factoradic(encode(m, 5), encode(n, 5)) == want


# ---------------------------------------------------------------------------
# the permutation kernels; patching _BIG_PERM to one of these cuts every pool
# of more than one value into blocks of 1, 2 or 3 values (every block
# boundary, and a ragged last block), or keeps the one list at every size

KERNELS = (1, 2, 3, 10**9)
all_pools = pytest.mark.parametrize(
    "big_perm", KERNELS, ids=("blocks_of_1", "blocks_of_2", "blocks_of_3", "list")
)


def _column_sums(prefix):
    pairs = inversions_bruteforce(prefix)
    return tuple(sum(1 for _, j in pairs if j == col) for col in range(len(prefix)))


@all_pools
@settings(deadline=None)  # the first example at each s enumerates all s! permutations
@given(st.integers(1, 7).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, factorial(s) - 1))))
def test_kernels_match_enumeration(big_perm, case):
    s, n = case
    want = nth_permutation_bruteforce(n, s)
    with patch.object(core, "_BIG_PERM", big_perm):
        d = digits_from_integer(n, s)
        assert permutation_from_digits(d) == want
        assert encode(n, s) == want
        assert digits_from_permutation(want) == d
        assert decode(want) == n


@all_pools
@given(st.integers(1, 60).flatmap(lambda s: st.permutations(range(s))))
def test_kernels_match_double_loop(big_perm, p):
    want = _column_sums(p)
    with patch.object(core, "_BIG_PERM", big_perm):
        assert digits_from_permutation(p) == want
        assert permutation_from_digits(want) == tuple(p)
        assert decode(p) == integer_from_digits(want)


@all_pools
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40, unique=True))
def test_kernels_on_non_contiguous_prefixes(big_perm, prefix):
    with patch.object(core, "_BIG_PERM", big_perm):
        assert digits_from_permutation(prefix) == _column_sums(prefix)


@all_pools
def test_non_contiguous_prefix_examples(big_perm):
    with patch.object(core, "_BIG_PERM", big_perm):
        assert digits_from_permutation((5, 900, 2)) == (0, 0, 2)
        assert digits_from_permutation((9, 4)) == (0, 1)
        assert digits_from_permutation((10**30, 0, 7)) == (0, 1, 1)


@pytest.mark.parametrize(
    "s",
    [core._BIG_PERM, core._BIG_PERM + 1, 2 * core._BIG_PERM + 1],
    ids=("list", "two_blocks", "three_blocks"),
)
def test_kernels_agree_at_the_crossover(s):
    rng = random.Random(s)
    p = list(range(s))
    rng.shuffle(p)
    d = digits_from_permutation(p)
    assert permutation_from_digits(d) == tuple(p)
    # the list case runs again as blocks of s // 3 values and a short last one
    other = s // 3 if s <= core._BIG_PERM else 10**9
    with patch.object(core, "_BIG_PERM", other):
        assert digits_from_permutation(p) == d
        assert permutation_from_digits(d) == tuple(p)


def test_validation_runs_once_per_public_call(monkeypatch):
    calls = collections.Counter()
    for name in ("_validate_digits", "_validate_prefix", "_validate_complete"):
        def counting(entries, _name=name, _check=getattr(core, name)):
            calls[_name] += 1
            return _check(entries)
        # also where another module imported the validator by name
        for module in (core, inversions, modular):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)

    def count(call, *args):
        calls.clear()
        call(*args)
        return dict(calls)

    n = 10**100 - 7
    p = encode(n)
    assert count(encode, n) == {}
    assert count(encode, n, len(p) + 5) == {}
    assert count(decode, p) == {"_validate_complete": 1}
    d = digits_from_integer(n)
    assert count(permutation_from_digits, d) == {"_validate_digits": 1}
    assert count(integer_from_digits, d) == {"_validate_digits": 1}
    assert count(digits_from_permutation, p) == {"_validate_prefix": 1}
    assert count(inversion_set, p) == {"_validate_prefix": 1}
    assert count(prefix_inversions, n, len(p) + 5) == {}


# ---------------------------------------------------------------------------
# large-input code paths agree with the simple ones

def test_large_permutation_paths_match_small():
    rng = random.Random(7)
    s = 700
    p = list(range(s))
    rng.shuffle(p)
    brute = tuple(sum(p[i] > p[j] for i in range(j)) for j in range(s))
    for big_perm in KERNELS:
        with patch.object(core, "_BIG_PERM", big_perm):
            d = digits_from_permutation(p)
            assert d == brute
            assert permutation_from_digits(d) == tuple(p)


def _digits_by_divmod(n):
    q = n
    base = 2
    want = [0]
    while q:
        q, r = divmod(q, base)
        want.append(r)
        base += 1
    return want


def test_large_integer_digit_path_matches_divmod():
    rng = random.Random(11)
    n = rng.getrandbits(6000)  # above the divide-and-conquer switchover
    d = digits_from_integer(n)
    assert list(d) == _digits_by_divmod(n)
    assert integer_from_digits(d) == n


@pytest.mark.parametrize("s", SIZES_AROUND_BIG_BITS)
def test_digits_at_exact_length_boundaries(s):
    rng = random.Random(s)
    f = factorial(s)
    for n in (f // s, f // s + 1, rng.randrange(f // s, f), f - 1):
        d = digits_from_integer(n)
        assert len(d) == s
        assert list(d) == _digits_by_divmod(n)
        assert integer_from_digits(d) == n
    assert digits_from_integer(f) == (0,) * s + (1,)
    assert integer_from_digits((0,) * s + (1,)) == f


def test_big_digit_accumulate_path():
    digits = tuple(range(1500))  # maximal digits: sum i*i! = 1500! - 1
    n = integer_from_digits(digits)
    assert n == factorial(1500) - 1
    assert digits_from_integer(n) == digits


# ---------------------------------------------------------------------------
# the weight memo: each weight mid!/lo! of the dyadic product tree is formed
# once per process and kept; these tests empty it and put it back after

@contextlib.contextmanager
def cleared_memo():
    saved = dict(core._WEIGHTS)
    core._WEIGHTS.clear()
    try:
        yield core._WEIGHTS
    finally:
        core._WEIGHTS.clear()
        core._WEIGHTS.update(saved)


@pytest.fixture
def memo():
    with cleared_memo() as weights:
        yield weights


def _of_length(s, seed=0):
    """An n whose minimal writing has s entries."""
    return random.Random(seed).randrange(factorial(s - 1), factorial(s))


def _left_halves(s):
    """(lo, mid) of every tree node whose midpoint is below s."""
    halves = set()
    half = core._LEAF
    while half < s:
        halves.update((lo, lo + half) for lo in range(0, s - half, 2 * half))
        half *= 2
    return halves


def test_a_second_round_trip_forms_no_weight(memo, monkeypatch):
    n = _of_length(3000)
    w = encode(n)
    formed = []
    product = core._product
    def counted(lo, hi):
        formed.append((lo, hi))
        return product(lo, hi)
    monkeypatch.setattr(core, "_product", counted)
    kept = dict(memo)
    assert encode(n) == w
    assert decode(w) == n
    assert formed == []
    assert memo.keys() == kept.keys()
    assert all(memo[key] is kept[key] for key in kept)


@pytest.mark.parametrize("order", itertools.permutations((1000, 3000, 10000)))
def test_the_memo_holds_what_the_largest_length_alone_leaves(memo, order):
    for s in order:
        assert decode(encode(_of_length(s))) == _of_length(s)
    after_all = dict(memo)
    memo.clear()
    decode(encode(_of_length(10000)))
    assert after_all == memo
    assert memo.keys() == _left_halves(10000)


def test_the_memo_holds_the_dyadic_left_halves_and_their_bytes(memo):
    s = 30000
    decode(encode(_of_length(s)))
    assert memo.keys() == _left_halves(s)
    # each weight mid!/lo! has log2(mid!) - log2(lo!) bits, up to one
    # rounding; together, half of log2(s!) bits at each level, 0.23 MB here
    want = sum(core._log2_factorial(mid) - core._log2_factorial(lo) for lo, mid in memo)
    got = sum(w.bit_length() for w in memo.values())
    assert abs(got - want) <= len(memo) + 1
    assert 0.2e6 < got / 8 < 0.25e6


def test_padded_digits_form_no_weight(memo):
    # the digits of 5 and 10^5 zeros: only the three moved digits are summed
    assert integer_from_digits((0, 1, 2) + (0,) * 10**5) == 5
    assert memo == {}


def test_the_weights_are_the_factorial_quotients(memo):
    integer_from_digits((0,) * 2999 + (1,))
    assert memo.keys() == _left_halves(3000)
    for (lo, mid), w in memo.items():
        assert w == factorial(mid) // factorial(lo)


# every node size, one position less and one more; the tree is taken at any
# n (no _BIG_BITS cut), with the memo empty, then kept from the first call
DYADIC_EDGES = [(core._LEAF << j) + d for j in range(8) for d in (-1, 0, 1)]


def _check_tree_paths(s):
    for n in (_of_length(s, seed=s), factorial(s) - 1):
        d = digits_from_integer(n)
        assert list(d) == _digits_by_divmod(n)
        assert integer_from_digits(d) == n


@pytest.mark.parametrize("s", DYADIC_EDGES)
def test_dyadic_edges_cold_and_warm(s, memo, monkeypatch):
    monkeypatch.setattr(core, "_BIG_BITS", 0)
    _check_tree_paths(s)  # cold
    assert memo.keys() == _left_halves(s)
    _check_tree_paths(s)  # warm


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2500), st.integers(2, 2500))
def test_a_memo_warmed_at_another_length_gives_the_same_results(s, other):
    with cleared_memo() as weights, patch.object(core, "_BIG_BITS", 0):
        digits_from_integer(_of_length(other))
        assert weights.keys() == _left_halves(other)
        _check_tree_paths(s)
        assert weights.keys() == _left_halves(max(s, other))


def test_threads_sharing_the_memo_agree_with_a_sequential_run(memo):
    lengths = (1000, 2000, 5000, 10000, 20000)
    cases = {s: _of_length(s, seed=s) for s in lengths}

    def trip(s):
        w = encode(cases[s])
        return w, decode(w), integer_from_digits(digits_from_permutation(w))

    want = {s: trip(s) for s in lengths}
    sequential = dict(memo)
    memo.clear()
    start = threading.Barrier(4)
    got = collections.defaultdict(list)

    def work(order):
        start.wait()
        for s in order:
            got[s].append(trip(s))

    orders = [lengths, lengths[::-1], lengths[1::2] + lengths[::2], lengths[2:] + lengths[:2]]
    threads = [threading.Thread(target=work, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the kernels too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {s: [want[s]] * 4 for s in lengths}
    assert memo == sequential


# ---------------------------------------------------------------------------
# recursive division, with the builtin divmod as the reference; a low cutoff
# sends small operands through every level of the recursion

@settings(max_examples=300)
@given(st.sampled_from([8, 33]), st.integers(1, 400), st.integers(0, 1400), st.data())
def test_divmod_matches_builtin(cutoff, b_bits, a_bits, data):
    b = data.draw(st.integers(1 << (b_bits - 1), (1 << b_bits) - 1))
    a = data.draw(st.integers(0, (1 << a_bits) - 1))  # up to 3.5x b's length
    with patch.object(core, "_DIV_CUTOFF", cutoff):
        assert core._divmod(a, b) == divmod(a, b)


@settings(max_examples=300)
@given(st.integers(9, 300), st.data())
def test_div2n1n_matches_builtin(n, data):
    b = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    a = data.draw(st.integers(0, (b << n) - 1))
    with patch.object(core, "_DIV_CUTOFF", 8):
        assert core._div2n1n(a, b, n) == divmod(a, b)


@settings(max_examples=300)
@given(st.integers(5, 150), st.data())
def test_div2n1n_when_top_of_dividend_equals_top_of_divisor(half, data):
    # the first 3n/2n step takes its a12 >> n == b1 branch when the top
    # quarter of the dividend equals the top half of the divisor (n even: an
    # odd n is padded, which leaves the dividend too short for that)
    n = 2 * half
    b = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    b1, b2 = b >> half, b & ((1 << half) - 1)
    assume(b2 > 0)
    x = data.draw(st.integers(0, b2 - 1))  # keeps a < b << n
    a = b1 << 3 * half | x << 2 * half | data.draw(st.integers(0, (1 << n) - 1))
    with patch.object(core, "_DIV_CUTOFF", 8):
        assert core._div2n1n(a, b, n) == divmod(a, b)


def test_divmod_straddles_the_real_cutoff():
    rng = random.Random(5)
    cut = core._DIV_CUTOFF
    for b_bits in (cut - 1, cut, cut + 1, 2 * cut + 1, 3 * cut):
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        for a_bits in (b_bits + cut, b_bits + cut + 1, 2 * b_bits, 5 * b_bits + 7):
            a = rng.getrandbits(a_bits)
            assert core._divmod(a, b) == divmod(a, b)


# ---------------------------------------------------------------------------
# decimal text split at powers of ten, with the builtin int and str as the
# reference.  Text of up to _TEXT_DIGITS digits, and values _short enough to
# have no more, go to the builtins; 640, CPython's least int text limit, so
# that every limit lets them.  A low _TEXT_DIGITS sends short text through
# every level of the split.

def digit_cutoff(digits):
    """Patch _TEXT_DIGITS so that text of up to ``digits`` digits is the base case."""
    return patch.object(core, "_TEXT_DIGITS", digits)


@pytest.mark.skipif(not hasattr(sys.int_info, "str_digits_check_threshold"), reason="no int text limit")
def test_the_text_base_case_is_the_least_int_text_limit():
    assert core._TEXT_DIGITS == sys.int_info.str_digits_check_threshold
    with int_text_limit(4300), pytest.raises(ValueError):
        sys.set_int_max_str_digits(core._TEXT_DIGITS - 1)


def test_a_low_cutoff_splits_text_down_to_its_base_case():
    # what the low-cutoff tests below rely on: all 30 digits, read and
    # printed, pass through base cases of at most 3
    n = 123456789012345678901234567890
    with digit_cutoff(3), patch.object(core, "_parse_digits", wraps=core._parse_digits) as parse, \
            patch.object(core, "_format_digits", wraps=core._format_digits) as fmt:
        assert core._parse_decimal(str(n)) == n
        assert core._format_decimal(n) == str(n)
    assert sum(hi - lo for (_, lo, hi, _), _ in parse.call_args_list if hi - lo <= 3) == 30
    assert sum(width for (_, width, _, _), _ in fmt.call_args_list if width <= 3) in (30, 31)


@settings(max_examples=300)
@given(st.sampled_from([1, 2, 7]), st.text("0123456789", min_size=1, max_size=200))
def test_parse_decimal_matches_int(cutoff, text):
    with digit_cutoff(cutoff):
        assert core._parse_decimal(text) == int(text)


@settings(max_examples=300)
@given(st.sampled_from([1, 2, 7]), st.integers(0, 10**200))
def test_format_decimal_matches_str(cutoff, n):
    with digit_cutoff(cutoff):
        assert core._format_decimal(n) == str(n)
        assert core._parse_decimal(str(n)) == n


@pytest.fixture
def unlimited_int_text():
    """Lift CPython's 4300-digit int/str limit, for tests that print big ints with str."""
    with int_text_limit(0):
        yield


def test_decimal_text_around_the_base_case_and_its_doublings(unlimited_int_text):
    rng = random.Random(15)
    digits = core._TEXT_DIGITS
    for j in range(5):
        for w in range((digits << j) - 1, (digits << j) + 2):
            for text in (str(10**w), "9" * w, "".join(rng.choices("0123456789", k=w))):
                assert core._parse_decimal(text) == int(text)
            for n in (10 ** (w - 1), 10**w - 1, 10**w):
                assert core._format_decimal(n) == str(n)
        bits = round((digits << j) / log10(2))  # where a value's width reads digits << j
        for b in range(bits - 2, bits + 3):
            for n in (1 << (b - 1), rng.getrandbits(b) | 1 << (b - 1), (1 << b) - 1):
                assert core._format_decimal(n) == str(n)
                assert core._parse_decimal(str(n)) == n


def test_decimal_straddles_the_real_cutoff():
    # under the least int text limit, which the base cases are sized to;
    # _short holds up to 2,126 bits, past which some values have 641 digits
    rng = random.Random(6)
    cut = core._TEXT_DIGITS
    top = (1 << 2126) - 1
    assert core._short(top) and not core._short(top + 1) and len(str(top)) == cut < len(str(top * 2 + 1))
    for length in (cut - 1, cut, cut + 1, 2 * cut, 2 * cut + 1, 5 * cut + 7):
        text = rng.choice("123456789") + "".join(rng.choices("0123456789", k=length - 1))
        with int_text_limit(0):
            n = int(text)
        with int_text_limit(cut):
            assert core._parse_decimal(text) == n
            assert core._parse_decimal("000" + text) == n
            assert core._format_decimal(n) == text


@pytest.mark.parametrize("cutoff", [3, None])
def test_long_non_plain_decimal_text_goes_to_int(cutoff, unlimited_int_text):
    # int() quotes at most 200 characters of bad text, so a low cutoff is
    # what lets a split show in the error message
    with digit_cutoff(cutoff or core._TEXT_DIGITS):
        cut = core._TEXT_DIGITS  # the text base case
        texts = ["\u0661" * (cut + 1), "\u00b2" + "1" * cut, " " + "1" * cut, "+" + "1" * cut, "1_" * cut]
        for text in texts:
            try:
                want = int(text)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    core._parse_decimal(text)
            else:
                assert core._parse_decimal(text) == want


DECIMAL_DIGITS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                  "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
BLANKS = ("", " ", "\u3000", "\t\n ", " \u3000")


@st.composite
def decimal_texts(draw):
    """Up to 6,000 digits in one to two runs of ASCII, Arabic-Indic or
    full-width digits, with blanks, signs, underscores and junk around and
    between them: int's grammar, and text just outside it."""
    # weighted so that about 30% of the texts are in the grammar and about
    # 20-25% are longer than the base case (500 draws)
    rng = random.Random(draw(st.integers(0, 2**32)))
    lengths = st.one_of(st.integers(1200, 3000), st.integers(0, 30))
    runs = draw(st.lists(st.tuples(st.sampled_from(DECIMAL_DIGITS), lengths), min_size=1, max_size=2))
    body = draw(st.sampled_from(["", "", "_", "_", "__", " ", "x"])).join(
        "".join(rng.choices(alphabet, k=length)) for alphabet, length in runs
    )
    head = draw(st.sampled_from(BLANKS)) + draw(st.sampled_from(["", "", "+", "-", "+-", "_", "x"]))
    return head + body + draw(st.sampled_from(["", "", "", "_", "x", "\u00b2"])) + draw(st.sampled_from(BLANKS))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([3, None]), st.sampled_from([640, 4300]), decimal_texts())
def test_parse_decimal_reads_ints_grammar_under_the_default_limit(cutoff, limit, text):
    # the same value as int() with the limit lifted, or a ValueError as it,
    # under the default limit and under the least
    def outcome(parse):
        try:
            return parse(text)
        except ValueError:
            return ValueError

    with int_text_limit(0):
        want = outcome(int)
    with int_text_limit(limit), digit_cutoff(cutoff or core._TEXT_DIGITS):
        assert outcome(core._parse_decimal) == want


@pytest.mark.parametrize("cutoff", [3, None])
def test_decimal_low_halves_keep_their_zeros(cutoff, unlimited_int_text):
    with digit_cutoff(cutoff or core._TEXT_DIGITS):
        cut = core._TEXT_DIGITS  # the text base case
        for k in (cut, cut + 1, 2 * cut, 4 * cut + 3, 9 * cut):
            for n in (10**k, 10**k - 1, 10**k + 1, 7 * 10**k + 3, (10**k + 1) * 10**k):
                assert core._format_decimal(n) == str(n)
                assert core._parse_decimal(str(n)) == n
            assert core._parse_decimal("0" * k) == 0
            assert core._format_decimal(0) == "0"


# ---------------------------------------------------------------------------
# validation

def test_rejects_negative_integers():
    with pytest.raises(ValueError):
        digits_from_integer(-1)
    with pytest.raises(ValueError):
        encode(-3)
    with pytest.raises(ValueError):
        minimal_prefix_length(-1)


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        encode(1.5)
    with pytest.raises(TypeError):
        decode((0.5, 1))


def test_length_too_short():
    with pytest.raises(PrefixTooShort):
        digits_from_integer(24, 4)
    with pytest.raises(PrefixTooShort):
        encode(24, 4)
    with pytest.raises(PrefixTooShort):
        digits_from_integer(5, 0)
    assert encode(23, 4) == (3, 2, 1, 0)


def test_length_cap():
    with pytest.raises(RangeTooLarge):
        digits_from_integer(0, core.MAX_PREFIX_LENGTH + 1)
    with pytest.raises(RangeTooLarge):
        encode(0, core.MAX_PREFIX_LENGTH + 1)


def test_invalid_digits():
    with pytest.raises(InvalidDigit):
        integer_from_digits(())
    with pytest.raises(InvalidDigit):
        integer_from_digits((1,))
    with pytest.raises(InvalidDigit):
        permutation_from_digits((0, 2))
    with pytest.raises(InvalidDigit):
        integer_from_digits((0, -1))


def test_decode_requires_complete_permutation():
    with pytest.raises(NotAPermutation):
        decode((1, 2))
    with pytest.raises(NotAPermutation):
        decode((0, 0))
    with pytest.raises(NotAPermutation):
        decode(())
    with pytest.raises(NotAPermutation):
        decode((-1, 0))


# the rows of error_rows, the long-message ones as params named by their ids
BAD_INPUTS = [pytest.param(*row[:4], id=row[4]) if len(row) > 4 else row for row in bad_inputs()]
BIG_INPUTS = [row for row in BAD_INPUTS if hasattr(row, "id")]


def _check_error(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("call, args, error, message", BAD_INPUTS)
def test_error_types_and_messages(call, args, error, message):
    with int_text_limit(4300):  # the default, whatever an earlier test set
        _check_error(call, args, error, message)


@pytest.mark.parametrize("call, args, error, message", BIG_INPUTS)
def test_big_integer_errors_read_the_same_with_the_limit_lifted(call, args, error, message, unlimited_int_text):
    _check_error(call, args, error, message)


@pytest.mark.parametrize("digits", [4300, 0], ids=("default_limit", "no_limit"))
def test_a_tuple_of_a_big_int_and_a_non_int_prints_as_str_does(digits):
    # kept out of BAD_INPUTS, whose rows the parity table holds and pins;
    # under the default limit the pair is printed entry by entry, 0.5 by repr
    with int_text_limit(digits):
        _check_error(
            inversion_set((1, 0)).inv, (0.5, BIG), IndexError,
            f"pair (0.5, {BIG_TEXT}) outside 0 <= i < j < 2",
        )
        assert core._text((0.5, BIG, "x", (None, -BIG))) == f"(0.5, {BIG_TEXT}, 'x', (None, -{BIG_TEXT}))"


# complete permutations whose check takes the long path (bounds, then a mark
# per value) once _BIG_PERM is patched to 1: one of each kind of bad head
BAD_HEADS = {
    "duplicate": (1, 0, 2, 3, 3, 5),  # in range, so only the marks find it
    "gap": (1, 3, 0, 4),
    "negative": (1, -1, 0, 3),
    "entry_of_the_run": (0, 3, 2, 3, 4),  # m = 2, and the head holds 3
    "past_the_text_limit": (BIG, 1, 0),
}
COMPLETE_CHECKS = {
    "decode": decode,
    "minimal_form": minimal_form,
    "compare_first": lambda p: compare_factoradic(p, (0,)),
    "compare_second": lambda p: compare_factoradic((1, 0), p),
}


@pytest.mark.parametrize("call", COMPLETE_CHECKS.values(), ids=COMPLETE_CHECKS.keys())
@pytest.mark.parametrize("p", BAD_HEADS.values(), ids=BAD_HEADS.keys())
def test_complete_checks_raise_the_same_on_both_sides_of_the_split(p, call):
    assert core._moved(p) > 1
    with int_text_limit(0):
        message = f"{p} is not a permutation of 0..{len(p) - 1}"
    with int_text_limit(4300):
        for big_perm in (1, core._BIG_PERM):
            with patch.object(core, "_BIG_PERM", big_perm):
                _check_error(call, (p,), NotAPermutation, message)


@pytest.mark.parametrize(
    "call, args, error, message",
    [row for row in BAD_INPUTS if getattr(row, "values", row)[0] in (decode, minimal_form, compare_factoradic)],
)
def test_complete_check_rows_read_the_same_on_the_long_path(call, args, error, message):
    with int_text_limit(4300), patch.object(core, "_BIG_PERM", 1):
        _check_error(call, args, error, message)


@pytest.mark.parametrize("call", [digits_from_integer, encode])
def test_a_given_length_finds_the_length_of_n_once(call, monkeypatch):
    # n = 5000! is too close to 5000! to tell in floating point, so finding
    # its length takes one exact factorial; finding its digits takes none
    lengths, factorials = [], []
    length, exact = core._length, core.factorial
    monkeypatch.setattr(core, "_length", lambda m: lengths.append(m) or length(m))
    monkeypatch.setattr(core, "factorial", lambda c: factorials.append(c) or exact(c))
    n = exact(5000)
    got = call(n, 5001)
    assert (len(lengths), len(factorials)) == (1, 1)
    assert got == (digits_from_integer(n) if call is digits_from_integer else encode(n))


@pytest.mark.parametrize("call", [digits_from_integer, encode])
def test_a_bad_length_is_refused_before_any_digit_is_found(call, monkeypatch):
    n = 10**200000
    counted = []
    digits = core._digits  # the tree walk, which finds the digits of such an n
    monkeypatch.setattr(core, "_digits", lambda m, s: counted.append(m) or digits(m, s))
    for length in (0, -1):
        start = time.perf_counter()
        with pytest.raises(PrefixTooShort, match=f"^length must be >= 1, got {length}$"):
            call(n, length)
        assert time.perf_counter() - start < 0.02
    need = minimal_prefix_length(n)
    for length in (1, 5, need - 1):
        with pytest.raises(PrefixTooShort, match=f"needs at least {need} digits, got length {length}$"):
            call(n, length)
    with pytest.raises(RangeTooLarge):
        call(n, core.MAX_PREFIX_LENGTH + 1)
    with pytest.raises(TypeError):
        call(n, "5")
    assert counted == []
    assert len(call(n, need + 1)) == need + 1
    assert counted == [n]


@pytest.mark.parametrize("length", [None, 0, -1, 5, 400, "5", 2.0])
def test_a_length_past_the_cap_that_n_needs_comes_first(length):
    # 300! needs 301 digits; under a cap of 200 that is refused before
    # anything about the length is checked
    with patch.object(core, "MAX_PREFIX_LENGTH", 200):
        for call in (digits_from_integer, encode):
            with pytest.raises(RangeTooLarge, match="^prefix length 301 exceeds MAX_PREFIX_LENGTH=200$"):
                call(factorial(300), length)


def test_prefix_validation():
    with pytest.raises(PrefixTooShort):
        digits_from_permutation(())
    with pytest.raises(DuplicateEntry):
        digits_from_permutation((5, 5))
    with pytest.raises(NotAPermutation):
        digits_from_permutation((-2, 0))
    # distinct non-contiguous values are a valid prefix
    assert digits_from_permutation((9, 4)) == (0, 1)


# ---------------------------------------------------------------------------
# text forms

def test_format_permutation():
    assert format_permutation((2, 3, 0, 1)) == "(2, 3, 0, 1)"
    assert format_permutation((0,)) == "(0)"


@pytest.mark.parametrize(
    "text",
    ["(2, 3, 0, 1)", "2,3,0,1", "2 3 0 1", "  ( 2 , 3 , 0 , 1 ) "],
)
def test_parse_permutation_accepts_common_writings(text):
    assert parse_permutation(text) == (2, 3, 0, 1)


@pytest.mark.parametrize("text", ["", "()", "(1, x)", "(-1, 0)", "1.5 2"])
def test_parse_permutation_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_permutation(text)


def test_parse_permutation_reads_entries_past_the_int_text_limit():
    # in int's grammar at any length, with the same answers under any limit;
    # a negative entry is a BIG_INPUTS row
    for digits in (4300, 0):  # the default, and none
        with int_text_limit(digits):
            assert parse_permutation("(1, " + "1" * 5000 + ")") == (1, (10**5000 - 1) // 9)
            assert parse_permutation("2 " + "9" * 4301) == (2, 10**4301 - 1)
            assert parse_permutation(f"(+{BIG_TEXT}, 0)") == (BIG, 0)
            assert parse_permutation("0 " + "\u0661" * 5000) == (0, (10**5000 - 1) // 9)
            assert parse_permutation("(+1_" + "0" * 5000 + ")") == (BIG,)
            for bad in ("1" * 5000 + "x", "1_" * 2500, "+-" + "1" * 5000, "1__" + "1" * 5000):
                with pytest.raises(ParseError, match="^invalid entry "):
                    parse_permutation("(1, " + bad + ")")


def test_format_permutation_prints_entries_past_the_int_text_limit():
    p = (1, (10**5000 - 1) // 9, 0)
    with int_text_limit(4300):  # the default, whatever an earlier test set
        text = format_permutation(p)
        assert text == "(1, " + "1" * 5000 + ", 0)"
        assert parse_permutation(text) == p


@given(st.integers(1, 12).flatmap(lambda s: st.permutations(range(s))))
def test_parse_inverts_format(p):
    assert parse_permutation(format_permutation(p)) == tuple(p)
