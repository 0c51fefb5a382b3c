"""Human-readable linear divisibility rules for a modulus k.

Every pair i < j inverted in column j of a prefix carries the coefficient
j! mod k, so a rule is one coefficient per column j < S(k), the Kempner
cutoff from which every coefficient vanishes: k divides n exactly when it
divides the coefficient-weighted sum of the column inversion counts.
Coefficients are balanced residues in (-k/2, k/2] so that, say, k - 1
prints as -1.  Renderings list each column's pairs, grouping the columns
that share a coefficient.  For k = 6 only three pairs survive:

    inv(0,1) + 2(inv(0,2) + inv(1,2))

A listing has S(k)(S(k)-1)/2 pairs, so the text is built with Python work
per row or per column, not per pair.  Each pair is a head naming i and a
tail naming j (and, in JSON, c), both made once.  JSON is one join over the
heads per column.  Plain and LaTeX lead each head with its separator; then a
row of pairs sharing i is one join, ``(sep + head_i).join(["", *tails])``,
and a run of rows with one column j is one join, ``tail_j.join(led heads)``.
JSON is the text ``json.dumps`` gives for ``to_json_obj()``, built without it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice, repeat

from . import core
from .errors import ModulusTooSmall, RangeTooLarge
from .modular import _factorials_mod, _prefix_sum, kempner

_FORMATS = ("plain", "latex", "json")


class DivisibilityRule:
    """Rule for one modulus: coefficients[j] is j! mod k, balanced, for j < S(k).

    Immutable: assigning a field raises ``AttributeError``.
    """

    __slots__ = ("modulus", "coefficients")
    __match_args__ = __slots__

    def __init__(self, modulus: int, coefficients: tuple[int, ...]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as __setattr__ refuses
        return self.__class__, (self.modulus, self.coefficients)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.modulus, self.coefficients) == (other.modulus, other.coefficients)

    def __hash__(self):
        return hash((self.modulus, self.coefficients))

    def __repr__(self):
        return f"DivisibilityRule(modulus={core._text(self.modulus)}, coefficients={core._text(self.coefficients)})"

    @property
    def effective_length(self) -> int:
        """Prefix entries the rule reads: S(k), one per column."""
        return len(self.coefficients)

    @property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """Nonzero terms (i, j, coefficient) sorted by (j, i).

        Raises ``RangeTooLarge`` past MAX_PREFIX_LENGTH pairs.
        """
        _check_listing(self)
        return tuple((i, j, c) for j, c in enumerate(self.coefficients) for i in range(j))

    def term_map(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c in self.terms}

    def to_json_obj(self) -> dict:
        return {
            "k": self.modulus,
            "terms": [{"i": i, "j": j, "c": c} for i, j, c in self.terms],
        }

    def __str__(self) -> str:
        return render_rule(self)


def _check_listing(rule: DivisibilityRule) -> DivisibilityRule:
    """The rule, refused if it lists more pairs than MAX_PREFIX_LENGTH, before
    allocating any."""
    length = rule.effective_length
    pairs = length * (length - 1) // 2
    if pairs > core.MAX_PREFIX_LENGTH:
        raise RangeTooLarge(f"rule for {core._text(rule.modulus)} lists {pairs} pairs > MAX_PREFIX_LENGTH")
    return rule


def _check_at_least_two(k, name: str) -> int:
    try:
        return core._at_least(k, 2, ModulusTooSmall, name)
    except TypeError:
        raise ModulusTooSmall(f"{name} must be an integer >= 2, got {k!r}") from None


def generate_rule(k: int) -> DivisibilityRule:
    """Divisibility rule for modulus k >= 2.

    Raises ``RangeTooLarge`` past MAX_PREFIX_LENGTH columns, after at most
    one more step of j! mod k: no prefix that long can be evaluated.
    """
    k = _check_at_least_two(k, "modulus")
    cap = core.MAX_PREFIX_LENGTH
    coefficients = tuple(w if 2 * w <= k else w - k for w in islice(_factorials_mod(k), cap + 1))
    if len(coefficients) > cap:
        raise RangeTooLarge(f"rule for {core._text(k)} has more than MAX_PREFIX_LENGTH={cap} columns")
    return DivisibilityRule(k, coefficients)


def evaluate_rule(rule: DivisibilityRule, prefix: Sequence[int]) -> int:
    """Apply a rule to a prefix; returns the residue in [0, k).

    Needs only ``rule.effective_length`` entries, which may be fewer than k.
    """
    return _prefix_sum(prefix, rule.effective_length, rule.coefficients, rule.modulus)


def _render_terms(
    rule: DivisibilityRule, head: str, tail: str, group_open: str, group_close: str
) -> str:
    """Signed terms; columns sharing a coefficient in order of first appearance.

    A pair (i, j) prints as ``head % i + tail % j``.  Within a group of
    columns js the pairs run i-major: the i in [js[t-1], js[t]) pair with the
    columns js[t:].  Each pair is led by the group's separator sep, made once
    into the led heads h_i = sep + head % i.  So row i of a stretch is one
    join, ``h_i.join(["", *tails])``, and a stretch with one column is one
    join over its rows, ``tail.join(h_lo .. h_hi-1) + tail``.
    """
    # no coefficient is longer than the modulus, so all print by str if it is short
    big = not core._short(rule.modulus)
    columns: dict[int, list[int]] = {}
    for j, c in enumerate(rule.coefficients):
        columns.setdefault(c, []).append(j)
    led = {sep: [(sep + head) % i for i in range(rule.effective_length)] for sep in (" + ", " - ")}
    out = []
    for c, js in columns.items():
        sign, unit = ("+" if c > 0 else "-"), abs(c) == 1
        sep = f" {sign} " if unit else " + "
        heads = led[sep]
        tails = [tail % j for j in js]
        # one join a group, sign and brackets included, and one over the
        # groups: the text is held twice at most
        text = [f"{sign} " if unit else f"{sign} {core._text(abs(c)) if big else abs(c)}{group_open}"]
        for t, (lo, hi) in enumerate(zip([0, *js], js)):
            if t < len(js) - 1:
                text += map(str.join, heads[lo:hi], repeat(["", *tails[t:]]))
            elif lo < hi:
                text += (tails[t].join(heads[lo:hi]), tails[t])
        if len(text) > 1:
            text[1] = text[1][len(sep):]  # every row opens with sep
        elif unit:
            continue
        if not unit:
            text.append(group_close)
        if not out:  # columns 0 and 1 have coefficient 1: the sum opens with "+ "
            text[0] = text[0].removeprefix("+ ")
        out.append("".join(text))
    return " ".join(out)


def _render_json(rule: DivisibilityRule) -> str:
    """The text of ``json.dumps(rule.to_json_obj())``, one join per column.

    Column j >= 1 lists the pairs (0, j) .. (j-1, j), each a head
    '{"i": i, "j": ' followed by the column's tail 'j, "c": c}'.
    """
    k, coefficients = rule.modulus, rule.coefficients
    if not core._short(k):  # as in _render_terms
        k, coefficients = core._text(k), tuple(map(core._text, coefficients))
    heads = ['{"i": %d, "j": ' % i for i in range(rule.effective_length)]
    columns = []
    for j, c in enumerate(coefficients[1:], 1):
        tail = f'{j}, "c": {c}}}'
        columns.append((tail + ", ").join(heads[:j]) + tail)
    # the object's head and tail ride on the first and last column, so the
    # text is joined once and held twice
    columns[:1] = [f'{{"k": {k}, "terms": [' + "".join(columns[:1])]
    columns[-1] += "]}"
    return ", ".join(columns)


def render_rule(rule: DivisibilityRule, fmt: str = "plain") -> str:
    """Render a rule as plain text, LaTeX, or a JSON object string.

    Plain text groups pairs sharing a coefficient, matching the style
    "inv(0,1) + 2(inv(0,2) + inv(1,2))"; unit coefficients stay bare.
    JSON is the text of ``json.dumps(rule.to_json_obj())``.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {_FORMATS}")
    _check_listing(rule)  # the one check for both renderers
    if fmt == "plain":
        return _render_terms(rule, "inv(%d,", "%d)", "(", ")")
    if fmt == "latex":
        return _render_terms(rule, "\\inv{%d, ", "%d}", "\\left(", "\\right)")
    return _render_json(rule)


def _rules(k_max, primes_only: bool) -> Iterator[DivisibilityRule]:
    """The rules of :func:`rule_table`, each built when it is reached; k_max
    is checked at once.  Primes are picked by the uncapped ``kempner``, so no
    rule is built, or refused by the cap, for a k the filter drops."""
    k_max = _check_at_least_two(k_max, "k_max")
    return (generate_rule(k) for k in range(2, k_max + 1) if not primes_only or kempner(k) == k != 4)


def rule_table(k_max: int, primes_only: bool = False) -> list[DivisibilityRule]:
    """Rules for k = 2..k_max, or only the primes: the k with S(k) = k, k != 4."""
    return list(_rules(k_max, primes_only))
