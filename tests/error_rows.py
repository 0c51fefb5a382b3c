"""The error rows of the tests: calls that raise, each with its error and message.

``tests/test_core.py`` checks every row, and ``tests/parity.py`` runs every
call of them in its table.  The module imports neither pytest nor Hypothesis,
so that the table runs on an interpreter that has neither.

This is the one home of the library's refusals at the default cap and
thresholds: a new one is added as a row here, with its exact type and
message, not as a ``pytest.raises`` in a test.  A refusal under a patched
cap or threshold stays in its test, since the rows run at the defaults.
"""

import contextlib
import sys
from math import factorial

from factoradic import (
    DivisibilityRule,
    DuplicateEntry,
    InvalidDigit,
    ModulusTooSmall,
    ModulusZero,
    NotAPermutation,
    ParseError,
    PrefixTooShort,
    RangeTooLarge,
    compare_factoradic,
    decode,
    digits_from_integer,
    digits_from_permutation,
    divisible,
    encode,
    evaluate_rule,
    generate_rule,
    integer_from_digits,
    inversion_set,
    kempner,
    minimal_form,
    minimal_prefix_length,
    parse_permutation,
    permutation_from_digits,
    prefix_inversions,
    render_rule,
    residue,
    residue_from_prefix,
    rule_table,
)
from factoradic.reference import mod_direct, nth_permutation_bruteforce


@contextlib.contextmanager
def int_text_limit(digits):
    """CPython's limit on int/str conversion set to ``digits`` (0: none), then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


BIG = 10**5000
BIG_TEXT = "1" + "0" * 5000
# a modulus past the text limit whose rule lists too many pairs: S(1700!) is
# 1,700, where 10**5000's rule would hold 20,005 coefficients (43 MB)
BIG_RULE = generate_rule(factorial(1700))
with int_text_limit(0):
    BIG_RULE_TEXT = f"rule for {factorial(1700)} lists 1444150 pairs > MAX_PREFIX_LENGTH"


def bad_inputs() -> list[tuple]:
    """``(call, args, error, message)`` per row, in a fixed order, with an id
    after a row whose message is too long to name it.  Each call builds the
    rows anew, so their iterators are unread."""
    return [
        # error type and message of each public check, as they were before
        # the checks became single C-level passes
        (decode, ((1, 2),), NotAPermutation, "(1, 2) is not a permutation of 0..1"),
        (decode, ((0, 0),), NotAPermutation, "(0, 0) is not a permutation of 0..1"),
        (decode, ((),), NotAPermutation, "empty sequence; the identity is written as (0,)"),
        (decode, ((-1, 0),), NotAPermutation, "(-1, 0) is not a permutation of 0..1"),
        (decode, ((2, 0, 1, 3, 3),), NotAPermutation, "(2, 0, 1, 3, 3) is not a permutation of 0..4"),
        (decode, ((0.5, 1),), TypeError, "'float' object cannot be interpreted as an integer"),
        (decode, (5,), TypeError, "'int' object is not iterable"),
        (permutation_from_digits, ((0, 2),), InvalidDigit, "digit 2 at index 1 outside 0..1"),
        (permutation_from_digits, ((),), InvalidDigit, "empty digit sequence; zero is written as (0,)"),
        (permutation_from_digits, ((0, 1, -1, 5),), InvalidDigit, "digit -1 at index 2 outside 0..2"),
        (permutation_from_digits, ((0, 1, 2, 4, 9),), InvalidDigit, "digit 4 at index 3 outside 0..3"),
        (permutation_from_digits, ((0, "1"),), TypeError, "'str' object cannot be interpreted as an integer"),
        (integer_from_digits, ((),), InvalidDigit, "empty digit sequence; zero is written as (0,)"),
        (integer_from_digits, ((1,),), InvalidDigit, "digit 1 at index 0 outside 0..0"),
        (integer_from_digits, ((0, -1),), InvalidDigit, "digit -1 at index 1 outside 0..1"),
        (integer_from_digits, ((0, 1, 3, 1),), InvalidDigit, "digit 3 at index 2 outside 0..2"),
        (integer_from_digits, ((0, 1.0),), TypeError, "'float' object cannot be interpreted as an integer"),
        (digits_from_permutation, ((),), PrefixTooShort, "empty prefix"),
        (digits_from_permutation, ((5, 5),), DuplicateEntry, "repeated entry in (5, 5)"),
        (digits_from_permutation, ((-2, 0),), NotAPermutation, "negative entry in (-2, 0)"),
        (digits_from_permutation, ((-2, -2),), NotAPermutation, "negative entry in (-2, -2)"),
        (digits_from_permutation, ((3, None),), TypeError, "'NoneType' object cannot be interpreted as an integer"),
        (residue_from_prefix, ((1, 0), 3), PrefixTooShort, "need a 3-prefix, got 2 entries"),
        (residue_from_prefix, ((1, 1, 0), 3), DuplicateEntry, "repeated entry in (1, 1, 0)"),
        (residue_from_prefix, ((1, -1, 0), 3), NotAPermutation, "negative entry in (1, -1, 0)"),
        (residue_from_prefix, ((4, 2, 0), 0), ModulusZero, "modulus must be >= 1, got 0"),
        (residue_from_prefix, ((), 1), PrefixTooShort, "need a 1-prefix, got 0 entries"),
        (inversion_set, ((),), PrefixTooShort, "empty prefix"),
        (inversion_set, ((7, 3, 7),), DuplicateEntry, "repeated entry in (7, 3, 7)"),
        (inversion_set, ((7, -3),), NotAPermutation, "negative entry in (7, -3)"),
        (inversion_set, ((7, 2.5),), TypeError, "'float' object cannot be interpreted as an integer"),
        # prefixes ending in a run of fixed points, which is checked by its shape:
        # every entry is still made an int, and the errors come in the same order
        (residue_from_prefix, ((1, 0, 2.0, 3), 4), TypeError, "'float' object cannot be interpreted as an integer"),
        (residue_from_prefix, ((1, 0, 2, "3"), 4), TypeError, "'str' object cannot be interpreted as an integer"),
        (residue_from_prefix, ((1, 0, True, 3), 4), DuplicateEntry, "repeated entry in (1, 0, 1, 3)"),
        (residue_from_prefix, ((2, 0, 1, 3, 3, 5), 6), DuplicateEntry, "repeated entry in (2, 0, 1, 3, 3, 5)"),
        (residue_from_prefix, ((2, 0, 2, 3), 4), DuplicateEntry, "repeated entry in (2, 0, 2, 3)"),  # m = 2 before the run
        (residue_from_prefix, ((1, -1, 2, 3), 4), NotAPermutation, "negative entry in (1, -1, 2, 3)"),
        (residue_from_prefix, (iter((1.5, "x")), 3), PrefixTooShort, "need a 3-prefix, got 2 entries"),
        (evaluate_rule, (generate_rule(4), (1, 0, 2.0, 3)), TypeError, "'float' object cannot be interpreted as an integer"),
        (evaluate_rule, (generate_rule(4), [1, 0, 2, "3"]), TypeError, "'str' object cannot be interpreted as an integer"),
        (evaluate_rule, (generate_rule(4), (1, 0, True, 3)), DuplicateEntry, "repeated entry in (1, 0, 1, 3)"),
        (evaluate_rule, (generate_rule(7), (2, 0, 1, 3, 3, 5, 6)), DuplicateEntry, "repeated entry in (2, 0, 1, 3, 3, 5, 6)"),
        (evaluate_rule, (generate_rule(4), (1, 3, 0, 3)), DuplicateEntry, "repeated entry in (1, 3, 0, 3)"),
        (evaluate_rule, (generate_rule(4), (1, -1, 2, 3)), NotAPermutation, "negative entry in (1, -1, 2, 3)"),
        (evaluate_rule, (generate_rule(4), iter((1.5, "x"))), PrefixTooShort, "need a 4-prefix, got 2 entries"),
        (evaluate_rule, (DivisibilityRule(5, ()), (1, 2)), PrefixTooShort, "empty prefix"),
        # digits_from_permutation and inversion_set share that check
        (digits_from_permutation, ((1, 0, 2.0, 3),), TypeError, "'float' object cannot be interpreted as an integer"),
        (digits_from_permutation, ([2, 0, 1, 3, 3, 5],), DuplicateEntry, "repeated entry in (2, 0, 1, 3, 3, 5)"),
        (digits_from_permutation, ((2, 0, 2, 3),), DuplicateEntry, "repeated entry in (2, 0, 2, 3)"),
        (inversion_set, ((1, -1, 2, 3),), NotAPermutation, "negative entry in (1, -1, 2, 3)"),
        (inversion_set, ((1, 0, True, 3),), DuplicateEntry, "repeated entry in (1, 0, 1, 3)"),
        # complete permutations ending in a run of fixed points are checked by
        # its shape as well, with the same errors as a sort of every entry
        (decode, ((1, 0, 2.0, 3),), TypeError, "'float' object cannot be interpreted as an integer"),
        (decode, ((1, 0, 2, 3, 3, 5),), NotAPermutation, "(1, 0, 2, 3, 3, 5) is not a permutation of 0..5"),
        (decode, ((1, 0, True, 3),), NotAPermutation, "(1, 0, 1, 3) is not a permutation of 0..3"),
        (decode, ((2, 0, 2, 3),), NotAPermutation, "(2, 0, 2, 3) is not a permutation of 0..3"),  # m = 2 in the head
        (decode, ((0, 3, 2, 3, 4),), NotAPermutation, "(0, 3, 2, 3, 4) is not a permutation of 0..4"),
        (minimal_form, ([1, 0, 2, "3"],), TypeError, "'str' object cannot be interpreted as an integer"),
        (minimal_form, ((1, 0, True, 3),), NotAPermutation, "(1, 0, 1, 3) is not a permutation of 0..3"),
        (minimal_form, ((2, 0, 2, 3),), NotAPermutation, "(2, 0, 2, 3) is not a permutation of 0..3"),
        (compare_factoradic, ((0, 1), (1, 0, 2.5)), TypeError, "'float' object cannot be interpreted as an integer"),
        (compare_factoradic, ((1, 0, 2, 3, 3, 5), (0,)), NotAPermutation, "(1, 0, 2, 3, 3, 5) is not a permutation of 0..5"),
        (compare_factoradic, ((0,), (2, 0, 2, 3)), NotAPermutation, "(2, 0, 2, 3) is not a permutation of 0..3"),
        # digits whose padding is found by one scan: every digit is still made an
        # int and range-checked, with the same errors
        (integer_from_digits, ((0, 1, 0, 4, 0, 0),), InvalidDigit, "digit 4 at index 3 outside 0..3"),
        (integer_from_digits, ([0, 1, 0, 0, 0, 0.0],), TypeError, "'float' object cannot be interpreted as an integer"),
        (integer_from_digits, ((0, True, 0, 0, 9),), InvalidDigit, "digit 9 at index 4 outside 0..4"),
        (permutation_from_digits, ((0, 0, 0, -1, 0, 0),), InvalidDigit, "digit -1 at index 3 outside 0..3"),
        (permutation_from_digits, ([0, 1, 0, 0, "0"],), TypeError, "'str' object cannot be interpreted as an integer"),
        (permutation_from_digits, ((0, 0, 3, 0),), InvalidDigit, "digit 3 at index 2 outside 0..2"),
        # integers of more digits than CPython's str prints by default (4,300):
        # each message is the text it has when that limit is lifted
        *((*row, f"{row[0].__name__}-{row[2].__name__}-past-the-text-limit") for row in [
            (inversion_set, ((BIG, BIG),), DuplicateEntry, f"repeated entry in ({BIG_TEXT}, {BIG_TEXT})"),
            (decode, ((BIG, 0),), NotAPermutation, f"({BIG_TEXT}, 0) is not a permutation of 0..1"),
            (integer_from_digits, ((0, BIG),), InvalidDigit, f"digit {BIG_TEXT} at index 1 outside 0..1"),
            (encode, (BIG, 3), PrefixTooShort, f"n = {BIG_TEXT} needs at least 1776 digits, got length 3"),
            (residue, (5, -BIG), ModulusZero, f"modulus must be >= 1, got -{BIG_TEXT}"),
            (generate_rule, (-BIG,), ModulusTooSmall, f"modulus must be >= 2, got -{BIG_TEXT}"),
            (prefix_inversions, (5, -BIG), PrefixTooShort, f"prefix length must be >= 1, got -{BIG_TEXT}"),
            (residue, (-BIG, 3), ValueError, f"expected a non-negative integer, got -{BIG_TEXT}"),
            (encode, (-BIG,), ValueError, f"expected a non-negative integer, got -{BIG_TEXT}"),
            (residue_from_prefix, ((0, 1, 2), BIG), PrefixTooShort, f"need a {BIG_TEXT}-prefix, got 3 entries"),
            (divisible, ((1, 0), BIG), PrefixTooShort, f"need a {BIG_TEXT}-prefix, got 2 entries"),
            (render_rule, (BIG_RULE,), RangeTooLarge, BIG_RULE_TEXT),
            (DivisibilityRule.terms.fget, (BIG_RULE,), RangeTooLarge, BIG_RULE_TEXT),
            (nth_permutation_bruteforce, (BIG, 3), PrefixTooShort, f"need 0 <= n < 3!, got {BIG_TEXT}"),
            (parse_permutation, (f"(-{BIG_TEXT})",), ParseError, f"negative entry -{BIG_TEXT} in '(-{BIG_TEXT})'"),
        ]),
        # the other integer arguments bounded below, each by the same check
        *((*row, f"{row[0].__name__}-{name}-past-the-text-limit") for name, row in [
            ("modulus", (mod_direct, (5, -BIG), ModulusZero, f"modulus must be >= 1, got -{BIG_TEXT}")),
            ("pair", (inversion_set((1, 0)).inv, (0, BIG), IndexError, f"pair (0, {BIG_TEXT}) outside 0 <= i < j < 2")),
            ("modulus", (kempner, (-BIG,), ModulusZero, f"modulus must be >= 1, got -{BIG_TEXT}")),
            ("modulus", (residue_from_prefix, ((0,), -BIG), ModulusZero, f"modulus must be >= 1, got -{BIG_TEXT}")),
            ("k_max", (rule_table, (-BIG,), ModulusTooSmall, f"k_max must be >= 2, got -{BIG_TEXT}")),
            ("length", (encode, (5, -BIG), PrefixTooShort, f"length must be >= 1, got -{BIG_TEXT}")),
        ]),
        # each precondition at small values: n an int >= 0, a length that
        # holds n within the cap, k >= 1 (>= 2 for a rule), a prefix of
        # distinct entries long enough for k, a pair i < j inside the set
        (digits_from_integer, (-1,), ValueError, "expected a non-negative integer, got -1"),
        (encode, (-3,), ValueError, "expected a non-negative integer, got -3"),
        (minimal_prefix_length, (-1,), ValueError, "expected a non-negative integer, got -1"),
        (residue, (-1, 3), ValueError, "expected a non-negative integer, got -1"),
        (encode, (1.5,), TypeError, "'float' object cannot be interpreted as an integer"),
        (digits_from_integer, (24, 4), PrefixTooShort, "n = 24 needs at least 5 digits, got length 4"),
        (encode, (24, 4), PrefixTooShort, "n = 24 needs at least 5 digits, got length 4"),
        (digits_from_integer, (5, 0), PrefixTooShort, "length must be >= 1, got 0"),
        (digits_from_integer, (0, 10**6 + 1), RangeTooLarge, "prefix length 1000001 exceeds MAX_PREFIX_LENGTH=1000000"),
        (encode, (0, 10**6 + 1), RangeTooLarge, "prefix length 1000001 exceeds MAX_PREFIX_LENGTH=1000000"),
        (parse_permutation, ("",), ParseError, "no entries in permutation text ''"),
        (parse_permutation, ("()",), ParseError, "no entries in permutation text '()'"),
        (parse_permutation, ("(1, x)",), ParseError, "invalid entry 'x' in '(1, x)'"),
        (parse_permutation, ("(-1, 0)",), ParseError, "negative entry -1 in '(-1, 0)'"),
        (parse_permutation, ("1.5 2",), ParseError, "invalid entry '1.5' in '1.5 2'"),
        (residue, (5, 0), ModulusZero, "modulus must be >= 1, got 0"),
        (mod_direct, (5, 0), ModulusZero, "modulus must be >= 1, got 0"),
        (kempner, (0,), ModulusZero, "modulus must be >= 1, got 0"),
        (residue_from_prefix, ((0, 1), -2), ModulusZero, "modulus must be >= 1, got -2"),
        (residue_from_prefix, ((0, 1), 3), PrefixTooShort, "need a 3-prefix, got 2 entries"),
        # k = 6 reads 3 entries, but the whole 6-prefix must be sane
        (residue_from_prefix, ((1, 2, 3, 0, 4, 4), 6), DuplicateEntry, "repeated entry in (1, 2, 3, 0, 4, 4)"),
        (evaluate_rule, (generate_rule(6), (1, 2)), PrefixTooShort, "need a 3-prefix, got 2 entries"),
        (prefix_inversions, (5, 0), PrefixTooShort, "prefix length must be >= 1, got 0"),
        (inversion_set, ((1, 1),), DuplicateEntry, "repeated entry in (1, 1)"),
        *((inversion_set((2, 3, 0, 1)).inv, pair, IndexError, f"pair {pair} outside 0 <= i < j < 4")
          for pair in ((2, 0), (1, 1), (-1, 2), (0, 4))),
        *((generate_rule, (k,), ModulusTooSmall, f"modulus must be >= 2, got {k}") for k in (1, 0, -3)),
        *((generate_rule, (k,), ModulusTooSmall, f"modulus must be an integer >= 2, got {k!r}") for k in (2.5, "5", None)),
        (rule_table, (1,), ModulusTooSmall, "k_max must be >= 2, got 1"),
        *((rule_table, (k,), ModulusTooSmall, f"k_max must be an integer >= 2, got {k!r}") for k in (2.5, "5", None)),
        (render_rule, (generate_rule(3), "html"), ValueError, "unknown format 'html'; expected one of ('plain', 'latex', 'json')"),
        (nth_permutation_bruteforce, (24, 4), PrefixTooShort, "need 0 <= n < 4!, got 24"),
        (nth_permutation_bruteforce, (-1, 4), PrefixTooShort, "need 0 <= n < 4!, got -1"),
        (nth_permutation_bruteforce, (0, 9), RangeTooLarge, "bruteforce enumeration capped at s = 8"),
    ]
