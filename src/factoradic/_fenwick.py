"""Fenwick (binary indexed) tree over positions 0..n-1, used as a pool.

The pool starts with every position present once.  The codec needs three
O(log n) primitives on it: take a position out, count the present positions
<= a given one, and select the k-th smallest present position.
"""

from __future__ import annotations


class FenwickTree:
    def __init__(self, n: int):
        self.n = n
        # closed form for an all-ones array: node i covers i & -i leaves
        self.tree = [0] + [i & -i for i in range(1, n + 1)]
        self._top_bit = 1 << n.bit_length()

    def remove(self, i: int) -> None:
        """Take position i (0-indexed, present) out of the pool."""
        i += 1
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] -= 1
            i += i & -i

    def count_le(self, i: int) -> int:
        """Number of present positions among 0..i."""
        total = 0
        tree = self.tree
        i += 1
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    def select(self, k: int) -> int:
        """The k-th smallest present position, 0-indexed; 0 <= k < count."""
        pos = 0
        tree = self.tree
        n = self.n
        bit = self._top_bit
        while bit:
            nxt = pos + bit
            if nxt <= n and tree[nxt] <= k:
                k -= tree[nxt]
                pos = nxt
            bit >>= 1
        return pos
