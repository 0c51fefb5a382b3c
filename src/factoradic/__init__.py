"""Arbitrary-precision integers as permutations.

Every non-negative integer has a unique factorial-base expansion
n = sum(a_i * i!) with 0 <= a_i <= i, and therefore a unique shortest
permutation prefix whose inversion structure encodes those digits.  This
package converts both ways at scale, exposes the inversion sets, computes
n mod k from just the first k entries, and prints the linear rule that
makes such a divisibility test human-checkable.

>>> import factoradic as fc
>>> fc.encode(16)
(2, 3, 0, 1)
>>> fc.decode((2, 3, 0, 1))
16
>>> fc.residue(16, 3)
1
>>> print(fc.generate_rule(6))
inv(0,1) + 2(inv(0,2) + inv(1,2))

``MAX_PREFIX_LENGTH`` here is a copy, for reading: the cap that the checks
read is ``factoradic.core.MAX_PREFIX_LENGTH``, and only setting that one
changes it.
"""

from .core import (
    MAX_PREFIX_LENGTH,
    compare_factoradic,
    decode,
    digits_from_integer,
    digits_from_permutation,
    encode,
    format_permutation,
    integer_from_digits,
    minimal_form,
    minimal_prefix_length,
    parse_permutation,
    permutation_from_digits,
)
from .errors import (
    DuplicateEntry,
    FactoradicError,
    InvalidDigit,
    ModulusTooSmall,
    ModulusZero,
    NotAPermutation,
    ParseError,
    PrefixTooShort,
    RangeTooLarge,
)
from .inversions import InversionSet, inversion_counts_by_larger, inversion_set
from .modular import divisible, kempner, prefix_inversions, residue, residue_from_prefix
from .rules import (
    DivisibilityRule,
    evaluate_rule,
    generate_rule,
    render_rule,
    rule_table,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_PREFIX_LENGTH",
    "compare_factoradic",
    "decode",
    "digits_from_integer",
    "digits_from_permutation",
    "encode",
    "format_permutation",
    "integer_from_digits",
    "minimal_form",
    "minimal_prefix_length",
    "parse_permutation",
    "permutation_from_digits",
    "DuplicateEntry",
    "FactoradicError",
    "InvalidDigit",
    "ModulusTooSmall",
    "ModulusZero",
    "NotAPermutation",
    "ParseError",
    "PrefixTooShort",
    "RangeTooLarge",
    "InversionSet",
    "inversion_counts_by_larger",
    "inversion_set",
    "divisible",
    "kempner",
    "prefix_inversions",
    "residue",
    "residue_from_prefix",
    "DivisibilityRule",
    "evaluate_rule",
    "generate_rule",
    "render_rule",
    "rule_table",
    "__version__",
]
