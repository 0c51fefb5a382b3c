"""Inversion-set unit tests: pair queries, column sums, equality, rendering."""

from hypothesis import given
from hypothesis import strategies as st

from factoradic import (
    InversionSet,
    digits_from_permutation,
    inversion_counts_by_larger,
    inversion_set,
)
from factoradic.reference import inversions_bruteforce


def test_pairs_golden():
    inv = inversion_set((2, 3, 0, 1))
    assert inv.size == 4
    assert inv.pair_set() == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert list(inv.pairs()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert inv.count() == 4


def test_indicator_golden():
    inv = inversion_set((2, 3, 0, 1))
    assert inv.inv(0, 2) == 1
    assert inv.inv(0, 1) == 0
    assert (1, 3) in inv
    assert (0, 1) not in inv


def test_column_sums_are_digits():
    inv = inversion_set((2, 3, 0, 1))
    assert inv.counts_by_larger() == (0, 0, 2, 2)
    assert inversion_counts_by_larger(inv) == (0, 0, 2, 2)


def test_identity_has_no_inversions():
    inv = inversion_set((0, 1, 2, 3))
    assert inv.pair_set() == frozenset()
    assert inv.render() == ""
    assert inv.count() == 0


def test_reversal_has_all_pairs():
    s = 6
    inv = inversion_set(tuple(range(s - 1, -1, -1)))
    assert inv.count() == s * (s - 1) // 2


def test_render_golden():
    assert inversion_set((2, 3, 0, 1)).render() == "(0,2) (0,3) (1,2) (1,3)"


def test_json_obj():
    assert inversion_set((2, 3, 0, 1)).to_json_obj() == {
        "size": 4,
        "pairs": [[0, 2], [0, 3], [1, 2], [1, 3]],
    }


def test_relative_order_only():
    a = inversion_set((2, 3, 0, 1))
    b = inversion_set((20, 31, 5, 7))
    assert a == b
    assert hash(a) == hash(b)
    assert a != inversion_set((3, 2, 0, 1))
    assert a != (0, 0, 2, 2)


@given(st.integers(1, 40).flatmap(lambda s: st.permutations(range(s))))
def test_matches_bruteforce(p):
    inv = inversion_set(p)
    want = inversions_bruteforce(p)
    assert inv.pair_set() == want
    assert inv.count() == len(want)
    assert all(inv.inv(i, j) == 1 for i, j in want)


@given(st.integers(1, 40).flatmap(lambda s: st.permutations(range(s))))
def test_column_sums_equal_prefix_digits(p):
    assert inversion_set(p).counts_by_larger() == digits_from_permutation(p)


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=25, unique=True))
def test_arbitrary_distinct_values(vals):
    inv = inversion_set(vals)
    assert inv.pair_set() == inversions_bruteforce(vals)


def test_repr_mentions_size_and_count():
    assert repr(inversion_set((2, 3, 0, 1))) == "InversionSet(size=4, inversions=4)"


def test_constructor_and_helper_agree():
    assert InversionSet((1, 0)) == inversion_set((1, 0))
