"""Baseline-oracle unit tests and sweep-suite smoke checks."""

from math import factorial

import pytest

from factoradic import encode, residue
from factoradic.reference import (
    check_factoradic_order,
    check_inversions,
    check_residues,
    inversions_bruteforce,
    mod_direct,
    nth_permutation_bruteforce,
)

from golden import GOLDEN_24


def test_bruteforce_reproduces_golden_rows():
    for n, row in GOLDEN_24.items():
        assert nth_permutation_bruteforce(n, 4) == row


def test_bruteforce_order_does_not_use_the_library_comparator(monkeypatch):
    # the oracle for encode's order must not be the library's own comparator
    import factoradic.core as core
    import factoradic.reference as reference

    def refuse(p, q):
        raise AssertionError("compare_factoradic called")

    monkeypatch.setattr(core, "compare_factoradic", refuse)
    monkeypatch.setattr(reference, "compare_factoradic", refuse, raising=False)
    reference._sorted_permutations.cache_clear()
    for n, row in GOLDEN_24.items():
        assert nth_permutation_bruteforce(n, 4) == row


def test_bruteforce_last_permutation_is_reversal():
    assert nth_permutation_bruteforce(5039, 7) == (6, 5, 4, 3, 2, 1, 0)


def test_inversions_bruteforce_golden():
    assert inversions_bruteforce((2, 3, 0, 1)) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert inversions_bruteforce((0, 1, 2)) == frozenset()


def test_mod_direct():
    assert mod_direct(16, 4) == 0
    assert mod_direct(16, 3) == 1


def test_mod_direct_refuses_a_non_integer_modulus_below_1_as_residue_does():
    for call in (mod_direct, residue):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            call(5, 0.5)
    assert mod_direct(5, 2.5) == 0.0  # the % operator's own answer


def test_order_suite_passes_small():
    cases, mismatches = check_factoradic_order(smax=5)
    assert cases == sum(factorial(s) for s in range(1, 6))
    assert mismatches == []


def test_inversion_suite_passes():
    cases, mismatches = check_inversions(samples=50, max_size=30, seed=3)
    assert cases == 50
    assert mismatches == []


def test_inversion_suite_is_deterministic():
    assert check_inversions(samples=10, seed=1) == check_inversions(samples=10, seed=1)


def test_residue_suite_passes_small():
    cases, mismatches = check_residues(nmax=720, kmax=8)
    assert cases == 720 * 8
    assert mismatches == []


def test_order_suite_catches_planted_fault(monkeypatch):
    import factoradic.reference as reference

    def broken_encode(n, length=None):
        p = encode(n, length)
        return p[::-1] if n == 3 else p

    monkeypatch.setattr(reference, "encode", broken_encode)
    cases, mismatches = reference.check_factoradic_order(smax=3)
    assert any(n == 3 for _, n, _, _ in mismatches)


def test_inversion_suite_catches_a_wrong_counting_kernel(monkeypatch, capsys):
    # pair_set() is a double loop like the baseline's, so only the column
    # counts can show a fault in the kernel behind counts_by_larger()
    import factoradic.cli as cli
    import factoradic.inversions as inversions

    counts = inversions._counts
    # counts the entries before j that are smaller, not larger
    monkeypatch.setattr(inversions, "_counts", lambda p: [j - c for j, c in enumerate(counts(p))])
    cases, mismatches = check_inversions(samples=20, max_size=12, seed=3)
    assert cases == 20 and mismatches
    assert all(got == want for _, got, want in mismatches)
    assert cli.main(["verify", "--smax", "4", "--nmax", "100", "--kmax", "5"]) == 2
    assert "inversion-sets: FAIL (200 cases)" in capsys.readouterr().out
