"""Residue unit tests: prefix formula, periodicity, Kempner cutoff."""

import random
import time
import tracemalloc
from math import factorial, isqrt

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from factoradic import (
    MAX_PREFIX_LENGTH,
    DuplicateEntry,
    PrefixTooShort,
    RangeTooLarge,
    digits_from_permutation,
    divisible,
    encode,
    evaluate_rule,
    generate_rule,
    inversion_set,
    kempner,
    minimal_prefix_length,
    prefix_inversions,
    residue,
    residue_from_prefix,
)
import factoradic.core as core
import factoradic.modular as modular
from factoradic.reference import inversions_bruteforce


def test_residue_golden():
    assert residue_from_prefix((2, 3, 0, 1), 4) == 0
    assert residue(16, 4) == 0
    assert residue(16, 3) == 1
    assert residue(18, 6) == 0


def test_residue_matches_direct_small_sweep():
    for k in range(1, 10):
        for n in range(720):
            assert residue(n, k) == n % k


@given(st.integers(0, 10**80), st.integers(1, 40))
def test_residue_matches_direct(n, k):
    assert residue(n, k) == n % k


def test_prefix_reads_only_first_k_entries():
    # same 4-prefix, different tails: residue mod 4 must agree
    assert residue_from_prefix((2, 3, 0, 1, 4, 5), 4) == 0
    assert residue_from_prefix((2, 3, 0, 1, 5, 4), 4) == 0
    assert residue_from_prefix((2, 3, 0, 1), 4) == 0


def test_prefix_entries_need_not_be_contiguous():
    # relative order is all that matters
    assert residue_from_prefix((20, 30, 1, 7), 4) == residue_from_prefix((2, 3, 0, 1), 4)


def test_cutoff_agrees_with_full_sum():
    # the S(k)-column sum equals the full k-column sum of c_j * j! mod k
    for k in range(1, 16):
        for n in range(200):
            p = encode(n % factorial(k), k)
            counts = digits_from_permutation(p)
            full = sum(counts[j] * factorial(j) for j in range(k)) % k
            assert residue_from_prefix(p, k) == full


def test_kempner_values():
    assert kempner(1) == 0
    assert [kempner(k) for k in range(2, 13)] == [2, 3, 4, 5, 3, 7, 4, 6, 5, 11, 4]
    for p in (2, 3, 5, 7, 11, 13, 17):
        assert kempner(p) == p


def test_kempner_is_smallest_factorial_multiple():
    for k in range(1, 200):
        j = kempner(k)
        assert factorial(j) % k == 0
        assert all(factorial(t) % k != 0 for t in range(1, j))


def test_periodicity_in_the_modulus_factorial():
    for s in range(1, 6):
        period = factorial(s)
        for n in range(2 * period):
            assert prefix_inversions(n, s) == prefix_inversions(n + period, s)


def test_prefix_inversions_golden():
    assert prefix_inversions(16, 4).pair_set() == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_prefix_inversions_skips_the_factorial_when_n_is_below_it(monkeypatch):
    # 5 < 5000! already; before, 5000! was computed to reduce 5 mod it.  Nor
    # is 31! computed for 30!, whose length is 31 (30! < 31!)
    big = factorial(30)
    def refuse(s):
        raise AssertionError(f"factorial({s}) computed")
    monkeypatch.setattr(modular, "factorial", refuse)
    assert prefix_inversions(5, 5000) == inversion_set(encode(5, 5000))
    assert prefix_inversions(5, 5000).count() == 3  # 5 = 2*2! + 1*1!
    assert prefix_inversions(big, 31) == inversion_set(encode(big, 31))


def test_prefix_inversions_checks_n_once(monkeypatch):
    # before, the public encode checked n, and s, a second time
    calls = []
    check_count = core._check_count
    def counted(n):
        calls.append(n)
        return check_count(n)
    monkeypatch.setattr(core, "_check_count", counted)
    monkeypatch.setattr(modular, "_check_count", counted)
    n = 10**100 - 7
    want = inversion_set(encode(n, 80))
    calls.clear()
    assert prefix_inversions(n, 80) == want
    assert calls == [n]


def test_prefix_inversions_cap_comes_first():
    # refused before (1.5e6)! is computed, which alone takes over 20 s
    start = time.perf_counter()
    with pytest.raises(RangeTooLarge):
        prefix_inversions(5, 1_500_000)
    assert time.perf_counter() - start < 1.0


def test_prefix_inversions_reduce_n_wherever_it_may_reach_the_factorial():
    # n is cut to n mod s! exactly when its length (core._length) is past s;
    # on either side of that, and around _BIG_BITS (s = 171) and the
    # recursive division (n and s! past _DIV_CUTOFF bits), the set is the one
    # n mod s! gives
    rng = random.Random(15)
    ns = [factorial(j) + d for j in range(1, 301) for d in (-1, 0, 1)]
    ns += [rng.getrandbits(rng.randrange(1, 2000)) for _ in range(300)]
    big = [factorial(j) + d for j in (999, 1000, 1001) for d in (-1, 0, 1)]
    big += [rng.getrandbits(b) for b in (9000, 12000, 30000)]
    for s in (*range(1, 13), *range(169, 174), 1000):
        f = factorial(s)
        for n in ns if s < 1000 else ns[::10] + big:
            assert prefix_inversions(n, s) == inversion_set(encode(n % f, s)), (n, s)
    for n in ns[::7] + big:
        for s in range(max(1, minimal_prefix_length(n) - 1), minimal_prefix_length(n) + 2):
            assert prefix_inversions(n, s) == inversion_set(encode(n % factorial(s), s)), (n, s)


def test_cuts_below_a_factorial_use_the_recursive_division(monkeypatch):
    # builtin % is quadratic up to CPython 3.11, so residue and
    # prefix_inversions cut n with core._divmod, which never applies % to it
    class NoMod(int):
        def __rmod__(self, other):
            raise AssertionError("builtin % applied to n")
    monkeypatch.setattr(modular, "factorial", lambda j: NoMod(factorial(j)))
    n = random.Random(20).getrandbits(20000)
    assert n.bit_length() > core._DIV_CUTOFF
    for s in (5, 200, 400, 1009):
        assert prefix_inversions(n, s) == inversion_set(encode(n % factorial(s), s)), s
    for k in (7, 97, 401, 1009, 65521):
        assert residue(n, k) == n % k, k


def test_divisible_integer_and_prefix_forms():
    assert divisible(18, 6)
    assert not divisible(19, 6)
    assert divisible(encode(18, 6), 6)
    assert not divisible((1, 2, 3, 0), 4)  # this prefix encodes 18
    assert residue_from_prefix((1, 2, 3, 0), 4) == 18 % 4


def _read_at_most(prefix, need):
    """The entries of prefix, failing the test if entry ``need`` is asked for."""
    for i, v in enumerate(prefix):
        if i == need:
            pytest.fail(f"prefix read past its first {need} entries")
        yield v


def test_prefix_is_read_no_further_than_needed():
    n = 10**40 + 7
    p = encode(n, 60)
    for k in (2, 7, 12, 30, 60):
        assert residue_from_prefix(_read_at_most(p, k), k) == n % k
        assert divisible(_read_at_most(p, k), k) == (n % k == 0)
        rule = generate_rule(k)
        need = rule.effective_length
        assert evaluate_rule(rule, _read_at_most(p, need)) == n % k
    # a short prefix still reports its own length
    with pytest.raises(PrefixTooShort, match="need a 7-prefix, got 3 entries"):
        residue_from_prefix(iter((2, 0, 1)), 7)


def test_modulus_one():
    assert residue(12345, 1) == 0
    assert residue_from_prefix((0,), 1) == 0
    assert divisible(7, 1)


def test_residue_large_modulus_is_fast():
    # S(2^20) = 24 and 5 has three digits: neither k! nor k entries are built
    for n, k in ((12345, 2**20), (5, 1_000_003)):
        start = time.perf_counter()
        assert residue(n, k) == n
        assert time.perf_counter() - start < 1.0


# primes above MAX_PREFIX_LENGTH, up to the largest below 2^40
_BIG_PRIMES = (1_000_003, 1_000_033, 2_147_483_647, 2**40 - 87)


@given(st.integers(0, 10**300), st.integers(1, 2**40) | st.sampled_from(_BIG_PRIMES))
def test_residue_matches_direct_large_moduli(n, k):
    assert residue(n, k) == n % k


def test_big_primes_are_primes_above_the_cap():
    for p in _BIG_PRIMES:
        assert p > MAX_PREFIX_LENGTH and p % 2
        assert all(p % d for d in range(3, isqrt(p) + 1, 2))


def test_residue_finds_the_weight_cut_with_few_lgamma_calls(monkeypatch):
    # a 10^4-digit n has about 3,250 digits; before, each weight took one call
    n = random.Random(9).randrange(10**9999, 10**10000)
    calls = []
    log2_factorial = core._log2_factorial
    def counted(s):
        calls.append(s)
        return log2_factorial(s)
    monkeypatch.setattr(core, "_log2_factorial", counted)
    assert residue(n, 65521) == n % 65521
    assert len(calls) <= 64


def test_residue_takes_the_weights_below_the_cut_and_no_more(monkeypatch):
    # the cut is n's length, the first j with j! > n; a prime k past the cut
    # leaves the cut to decide
    taken = []
    factorials_mod = modular._factorials_mod
    def counted(k):
        for w in factorials_mod(k):
            taken.append(w)
            yield w
    monkeypatch.setattr(modular, "_factorials_mod", counted)
    big = random.Random(9).randrange(10**9999, 10**10000)
    for n in (*range(300), *(factorial(j) + d for j in range(2, 40) for d in (-1, 0, 1)), big):
        taken.clear()
        assert residue(n, 65521) == n % 65521
        assert len(taken) == minimal_prefix_length(n)


def test_residue_finds_the_length_of_n_once(monkeypatch):
    # above _BIG_BITS the product tree finds n's digits at the length that
    # residue found for its weights
    lengths = []
    length = core._length
    n = random.Random(9).randrange(10**9999, 10**10000)
    def counted(m):
        lengths.append(m is n)
        return length(m)
    monkeypatch.setattr(core, "_length", counted)
    monkeypatch.setattr(modular, "_length", counted)
    assert n.bit_length() > core._BIG_BITS
    assert residue(n, 65521) == n % 65521
    assert lengths == [True]  # one call, on n itself
    want = inversion_set(encode(n, 4000))
    lengths.clear()
    assert prefix_inversions(n, 4000) == want  # n < 4000!: no cut
    assert lengths == [True]


@pytest.mark.parametrize("big_bits", [None, 0, 10**9])
def test_residue_answers_under_any_cap_on_either_side_of_big_bits(monkeypatch, big_bits):
    # an integer in and out: the cap never refuses residue, and _BIG_BITS
    # only picks the divmod loop or the tree, for n below and past the cap
    if big_bits is not None:
        monkeypatch.setattr(core, "_BIG_BITS", big_bits)
    for cap in (1, 200):
        monkeypatch.setattr(core, "MAX_PREFIX_LENGTH", cap)
        for n in (1, 2, factorial(201), factorial(202) + 1):
            for k in (7, 211, 65521):
                assert residue(n, k) == n % k


def test_padded_writing_counts_only_its_moved_columns(monkeypatch):
    n = random.Random(10).randrange(10**399, 10**400)
    w = encode(n, 3000)
    m = minimal_prefix_length(n)
    assert w[m:] == tuple(range(m, 3000))  # the padding is fixed points
    sizes = []
    counts = modular._counts
    def counted(p):
        sizes.append(len(p))
        return counts(p)
    monkeypatch.setattr(modular, "_counts", counted)
    for k in (2999, 2048, 1000):  # S(k) = 2999, 14 and 15
        assert residue_from_prefix(w, k) == n % k
        assert divisible(w, k) == (n % k == 0)
        assert evaluate_rule(generate_rule(k), w) == n % k
    assert sizes and max(sizes) <= m


def test_padding_is_checked_without_an_object_per_entry():
    # a tuple of ints is read in place, and at most one copy of 8 bytes an
    # entry is made of other prefixes; a set over the entries, or an int per
    # padded position, would take 28 bytes an entry or more
    n = random.Random(11).randrange(10**9999, 10**10000)
    k = 10**5
    w = encode(n, k)
    as_list = list(w)
    tracemalloc.start()
    try:
        assert residue_from_prefix(w, k) == n % k
        assert residue_from_prefix(as_list, k) == n % k
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * k


class _Index:
    """An integer that is no int, as numpy's are: it only has __index__."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def test_entries_that_are_no_ints_are_taken_through_index():
    n = 10**40 + 7
    w = encode(n, 80)
    for k in (7, 30, 80):
        assert residue_from_prefix(tuple(map(_Index, w)), k) == n % k
        assert evaluate_rule(generate_rule(k), list(map(_Index, w))) == n % k
    assert residue_from_prefix((0, True, 2), 3) == 0  # True is 1
    assert residue_from_prefix((True, 0, 2, 3), 4) == 1


def _unadvanced(k):
    raise AssertionError("a weight was taken before the prefix was checked")
    yield


def test_no_weight_before_the_prefix_is_checked(monkeypatch):
    monkeypatch.setattr(modular, "_factorials_mod", _unadvanced)
    for k in (10**7 + 19, 10**9 + 7):
        with pytest.raises(PrefixTooShort, match=f"need a {k}-prefix, got 3 entries"):
            residue_from_prefix((0, 1, 2), k)
        with pytest.raises(PrefixTooShort, match=f"need a {k}-prefix, got 3 entries"):
            divisible([2, 0, 1], k)
    with pytest.raises(DuplicateEntry):
        residue_from_prefix((1, 1, 0), 3)


def test_short_prefix_with_a_huge_prime_fails_fast():
    # before, 10^7 + 19 built 10^7 weights (2 s) before refusing
    for k in (10**7 + 19, 10**9 + 7):
        start = time.perf_counter()
        with pytest.raises(PrefixTooShort, match=f"need a {k}-prefix, got 3 entries"):
            residue_from_prefix((0, 1, 2), k)
        with pytest.raises(PrefixTooShort, match=f"need a {k}-prefix, got 3 entries"):
            divisible([2, 0, 1], k)
        assert time.perf_counter() - start < 1.0


@given(st.integers(0, 10**150), st.integers(0, 400), st.integers(1, 3000))
def test_padded_writings_give_n_mod_k(n, pad, k):
    w = encode(n, max(minimal_prefix_length(n) + pad, k))
    assert residue_from_prefix(w, k) == n % k
    assert divisible(w, k) == (n % k == 0)
    if k >= 2:
        assert evaluate_rule(generate_rule(k), w) == n % k


def _residue_by_pairs(prefix, k):
    """sum of j! over the inverted pairs (i, j) of the k-prefix, mod k."""
    return sum(factorial(j) for i, j in inversions_bruteforce(prefix[:k])) % k


# a run of fixed points after entries that are not all below its start is
# no padding: in (9, 0, 2, 3) columns 2 and 3 each count the 9
@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True),
    st.integers(0, 12),
    st.integers(1, 24),
)
@example([9, 0], 2, 4)
def test_trailing_fixed_points_that_are_no_padding(entries, run, k):
    prefix = (*entries, *range(len(entries), len(entries) + run))
    assume(len(set(prefix)) == len(prefix))
    k = min(k, len(prefix))
    want = _residue_by_pairs(prefix, k)
    assert residue_from_prefix(prefix, k) == want
    assert divisible(prefix, k) == (want == 0)
    if k >= 2:
        assert evaluate_rule(generate_rule(k), prefix) == want


@given(st.integers(1, 3000), st.integers(-1, 1), st.integers(-1, 1))
def test_residue_at_factorials_around_the_kempner_cutoff(k, dj, dn):
    j = max(kempner(k) + dj, 0)
    n = factorial(j) + dn
    assert residue(n, k) == n % k
