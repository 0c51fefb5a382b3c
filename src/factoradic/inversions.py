"""Inversion sets of permutation prefixes.

For a prefix (p_0, ..., p_{s-1}) of pairwise-distinct values, the inversion
set is the indicator inv(i, j), defined on index pairs 0 <= i < j < s, that
equals 1 exactly when the two entries appear out of order, i.e. p_i > p_j.
Only the relative order of the entries matters, so (5, 9, 2) has the same
inversion set as (1, 2, 0).

Summing each column j of the indicator recovers the factorial-base digits:
c_j = sum_{i<j} inv(i, j) equals digit j of the integer the prefix encodes.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .core import _counts, _ranks, _text, _validate_prefix


class InversionSet:
    """Immutable inversion set of a prefix, stored as the prefix's rank sequence.

    Storage is O(s); the explicit pair list is produced on demand (there can
    be up to s(s-1)/2 pairs, so prefer :meth:`counts_by_larger` or
    :meth:`inv` for large prefixes).
    """

    __slots__ = ("_ranks",)

    def __init__(self, prefix: Sequence[int]):
        p, _ = _validate_prefix(prefix)
        self._ranks = tuple(_ranks(p))

    @classmethod
    def _of_permutation(cls, p: tuple[int, ...]) -> InversionSet:
        """Unchecked: p, a permutation of 0..s-1, is its own rank sequence."""
        inv = cls.__new__(cls)
        inv._ranks = p
        return inv

    @property
    def size(self) -> int:
        return len(self._ranks)

    def inv(self, i: int, j: int) -> int:
        """inv(i, j) for 0 <= i < j < size: 1 if entries i and j are inverted."""
        if not 0 <= i < j < len(self._ranks):
            raise IndexError(f"pair {_text((i, j))} outside 0 <= i < j < {len(self._ranks)}")
        return 1 if self._ranks[i] > self._ranks[j] else 0

    def __contains__(self, pair) -> bool:
        i, j = pair
        return self.inv(i, j) == 1

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All 1-pairs (i, j), in lexicographic order."""
        ranks = self._ranks
        for i in range(len(ranks)):
            ri = ranks[i]
            for j in range(i + 1, len(ranks)):
                if ri > ranks[j]:
                    yield (i, j)

    def pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.pairs())

    def counts_by_larger(self) -> tuple[int, ...]:
        """c_j = sum_{i<j} inv(i, j), grouped by the larger index of each pair."""
        return tuple(_counts(self._ranks))

    def count(self) -> int:
        """Total number of 1-pairs."""
        return sum(self.counts_by_larger())

    def __eq__(self, other) -> bool:
        if not isinstance(other, InversionSet):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash(self._ranks)

    def __repr__(self) -> str:
        return f"InversionSet(size={self.size}, inversions={self.count()})"

    def render(self) -> str:
        """1-pairs as text, e.g. "(0,2) (0,3) (1,2) (1,3)"; empty string if none."""
        return " ".join(f"({i},{j})" for i, j in self.pairs())

    def to_json_obj(self) -> dict:
        return {"size": self.size, "pairs": [[i, j] for i, j in self.pairs()]}


def inversion_set(prefix: Sequence[int]) -> InversionSet:
    """Inversion set of a sequence of distinct non-negative integers."""
    return InversionSet(prefix)


def inversion_counts_by_larger(inv: InversionSet) -> tuple[int, ...]:
    """Column sums c_j of an inversion set; equal to the prefix's digit sequence."""
    return inv.counts_by_larger()
