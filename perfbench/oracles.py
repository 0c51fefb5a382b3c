"""Output checks written independently of the package under test.

Everything here follows the definitions (factorial-base digits, right-to-left
filling, inversions, the Kempner function) with the plainest loops, so a
fault in the package's fast paths cannot hide in its own check.
"""

from __future__ import annotations

import json


def kempner(k: int) -> int:
    """Smallest j with k | j!."""
    j, w = 0, 1 % k
    while w:
        j += 1
        w = w * j % k
    return j


def writing(n: int, s: int) -> tuple[int, ...]:
    """The s-entry writing of n mod s!: a permutation of 0..s-1.

    It is n's own writing when n < s!, and in any case it has the relative
    order of the first s entries of n's writing.  Digit i is (n // i!) mod
    (i + 1); position j, filled from the right, takes the unused value with
    exactly digit j unused values above it.
    """
    digits = []
    q = n
    for i in range(s):
        q, a = divmod(q, i + 1)
        digits.append(a)
    pool = list(range(s))
    out = [0] * s
    for j in range(s - 1, -1, -1):
        out[j] = pool.pop(j - digits[j])
    return tuple(out)


def inversion_pairs(p) -> list[tuple[int, int]]:
    """Every pair i < j with p[i] > p[j], in lexicographic order."""
    s = len(p)
    return [(i, j) for i in range(s) for j in range(i + 1, s) if p[i] > p[j]]


def column_coefficients(k: int) -> list[int]:
    """Balanced j! mod k for j = 0 .. min(k, S(k)) - 1 (the rule's columns)."""
    out = []
    w = 1 % k
    for j in range(min(k, kempner(k))):
        if j:
            w = w * j % k
        out.append(w if 2 * w <= k else w - k)
    return out


def rule_text_ok(k: int, fmt: str, text: str) -> bool:
    """A rendering names each pair i < j < L exactly once, L = min(k, S(k)).

    The JSON form is checked term by term against j! mod k; the plain and
    LaTeX forms by their count of inv markers.
    """
    coeffs = column_coefficients(k)
    length = len(coeffs)
    pairs = length * (length - 1) // 2
    if fmt == "plain":
        return text.count("inv(") == pairs
    if fmt == "latex":
        return text.count("\\inv{") == pairs
    seen = bytearray(length * length)
    bad = []

    def term(obj):
        # each term is checked as it is parsed and then dropped, so the check
        # adds no per-term objects to the worker's peak memory
        if "i" not in obj:
            return obj
        i, j, c = obj["i"], obj["j"], obj["c"]
        if 0 <= i < j < length and c == coeffs[j] and not seen[i * length + j]:
            seen[i * length + j] = 1
        else:
            bad.append((i, j, c))
        return None

    doc = json.loads(text, object_hook=term)
    return doc["k"] == k and len(doc["terms"]) == pairs and not bad
