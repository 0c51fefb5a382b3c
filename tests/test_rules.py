"""Divisibility-rule unit tests: term generation, evaluation, rendering."""

import copy
import hashlib
import json
import pickle
import time
import tracemalloc
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from factoradic import (
    MAX_PREFIX_LENGTH,
    ModulusTooSmall,
    PrefixTooShort,
    RangeTooLarge,
    divisible,
    encode,
    evaluate_rule,
    generate_rule,
    kempner,
    minimal_prefix_length,
    render_rule,
    rule_table,
)
from factoradic import core
from factoradic.rules import _FORMATS, DivisibilityRule

from golden import RULE_RENDERINGS, RULE_TERM_SETS
from test_core import int_text_limit


def test_term_sets_golden():
    for k, want in RULE_TERM_SETS.items():
        assert set(generate_rule(k).terms) == want


def test_renderings_golden():
    for k, want in RULE_RENDERINGS.items():
        assert render_rule(generate_rule(k)) == want
        assert str(generate_rule(k)) == want


def test_terms_sorted_by_larger_index_then_smaller():
    for k in range(2, 30):
        terms = generate_rule(k).terms
        assert list(terms) == sorted(terms, key=lambda t: (t[1], t[0]))


def test_coefficients_balanced_and_correct():
    for k in range(2, 60):
        rule = generate_rule(k)
        for i, j, c in rule.terms:
            assert 0 <= i < j < rule.effective_length
            assert -k / 2 < c <= k / 2
            assert c % k == factorial(j) % k
            assert c % k != 0  # vanishing pairs are dropped


def test_effective_length_is_kempner_cutoff():
    assert generate_rule(6).effective_length == 3
    assert generate_rule(12).effective_length == 4
    assert generate_rule(7).effective_length == 7
    for k in range(2, 40):
        assert generate_rule(k).effective_length == min(k, kempner(k))


def test_half_modulus_tie_prints_positive():
    # k = 4: 2! mod 4 = 2 = k/2 exactly; balanced form keeps +2
    assert all(c == 2 for i, j, c in generate_rule(4).terms if j >= 2)


def test_evaluate_matches_direct_residue():
    for k in range(2, 13):
        rule = generate_rule(k)
        for n in range(500):
            length = max(rule.effective_length, minimal_prefix_length(n))
            assert evaluate_rule(rule, encode(n, length)) == n % k


@given(st.integers(0, 10**40), st.integers(2, 30))
def test_evaluate_matches_direct_residue_random(n, k):
    rule = generate_rule(k)
    length = max(rule.effective_length, minimal_prefix_length(n))
    assert evaluate_rule(rule, encode(n, length)) == n % k


@given(
    st.integers(2, 80).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, 10**6), min_size=k, max_size=k + 5, unique=True),
        )
    )
)
def test_evaluate_matches_pair_definition(case):
    # distinct entries, not only encodings: gaps between values are allowed
    k, prefix = case
    rule = generate_rule(k)
    want = sum(c for i, j, c in rule.terms if prefix[i] > prefix[j]) % k
    assert evaluate_rule(rule, prefix) == want
    assert divisible(prefix, k) == (want == 0)


def test_evaluate_needs_only_effective_length():
    rule = generate_rule(6)
    assert rule.effective_length == 3
    # 18 = 3*3!, encode(18, 4) = (1, 2, 3, 0); first three entries suffice
    assert evaluate_rule(rule, (1, 2, 3)) == 0
    with pytest.raises(PrefixTooShort):
        evaluate_rule(rule, (1, 2))


def test_modulus_too_small():
    for bad in (1, 0, -3):
        with pytest.raises(ModulusTooSmall):
            generate_rule(bad)
    with pytest.raises(ModulusTooSmall):
        rule_table(1)
    for bad in (2.5, "5", None):
        with pytest.raises(ModulusTooSmall):
            rule_table(bad)
        with pytest.raises(ModulusTooSmall):
            generate_rule(bad)


def test_rule_stores_one_coefficient_per_column():
    rule = generate_rule(6)
    assert rule == DivisibilityRule(6, (1, 1, 2))
    big = generate_rule(3001)  # prime: S(3001) = 3001 columns, 4.5M pairs
    assert big.effective_length == len(big.coefficients) == 3001


def test_rule_value_semantics():
    rule = generate_rule(6)
    assert repr(rule) == "DivisibilityRule(modulus=6, coefficients=(1, 1, 2))"
    twin = DivisibilityRule(6, (1, 1, 2))
    assert rule == twin and hash(rule) == hash(twin)
    assert rule != DivisibilityRule(6, (1, 1, -2)) and rule != (6, (1, 1, 2))
    assert len({rule, twin, generate_rule(7)}) == 2
    for change in (
        lambda: setattr(rule, "modulus", 7),
        lambda: setattr(rule, "other", 1),
        lambda: delattr(rule, "coefficients"),
    ):
        with pytest.raises(AttributeError):
            change()
    assert rule == twin
    for clone in (copy.copy(rule), copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
        assert clone == rule
    match rule:
        case DivisibilityRule(k, (1, 1, c)):
            assert (k, c) == (6, 2)
        case _:
            pytest.fail("positional pattern did not match")


def test_listing_refused_past_the_cap():
    # S(100003) = 100003 columns would list about 5e9 pairs
    start = time.perf_counter()
    rule = generate_rule(100_003)
    assert evaluate_rule(rule, range(100_003)) == 0
    for listing in (
        lambda: rule.terms,
        rule.term_map,
        rule.to_json_obj,
        lambda: str(rule),
        lambda: render_rule(rule, "latex"),
        lambda: render_rule(rule, "json"),
    ):
        with pytest.raises(RangeTooLarge):
            listing()
    assert time.perf_counter() - start < 1.0


def test_a_rule_past_the_cap_in_columns_is_refused_fast():
    # S(100000007) = 100000007 columns; the walk stops one step past the cap
    start = time.perf_counter()
    message = f"^rule for 100000007 has more than MAX_PREFIX_LENGTH={MAX_PREFIX_LENGTH} columns$"
    with pytest.raises(RangeTooLarge, match=message):
        generate_rule(100_000_007)
    assert time.perf_counter() - start < 1.0


def test_listing_cap_boundary(monkeypatch):
    # the cap is read at call time; k = 5 lists 10 pairs, k = 7 lists 21;
    # S(25) = 10 columns are allowed, S(11) = 11 are not
    monkeypatch.setattr(core, "MAX_PREFIX_LENGTH", 10)
    assert len(generate_rule(5).terms) == 10
    assert render_rule(generate_rule(5)).count("inv(") == 10
    with pytest.raises(RangeTooLarge):
        render_rule(generate_rule(7))
    assert evaluate_rule(generate_rule(7), encode(700, 7)) == 0
    assert generate_rule(25).effective_length == 10
    with pytest.raises(RangeTooLarge, match="^rule for 11 has more than MAX_PREFIX_LENGTH=10 columns$"):
        generate_rule(11)


def test_smallest_refused_listing_is_1423():
    # S(k) >= 1415 columns list more than MAX_PREFIX_LENGTH = 10^6 pairs
    assert 1414 * 1413 // 2 <= MAX_PREFIX_LENGTH < 1415 * 1414 // 2
    assert min(k for k in range(2, 1424) if kempner(k) >= 1415) == 1423
    with pytest.raises(RangeTooLarge):
        generate_rule(1423).terms


def test_latex_rendering():
    assert render_rule(generate_rule(3), "latex") == (
        "\\inv{0, 1} - \\inv{0, 2} - \\inv{1, 2}"
    )
    assert render_rule(generate_rule(6), "latex") == (
        "\\inv{0, 1} + 2\\left(\\inv{0, 2} + \\inv{1, 2}\\right)"
    )


def _render_pairwise(rule, head, tail, group_open, group_close):
    """Plain or LaTeX text built one pair at a time, by a double loop."""
    groups = {}
    for j, c in enumerate(rule.coefficients):
        groups.setdefault(c, []).append(j)
    out = []
    for c, js in groups.items():
        sign = "+" if c > 0 else "-"
        terms = []
        for i in range(len(rule.coefficients)):
            for j in js:
                if i < j:
                    terms.append(head % i + tail % j)
        if abs(c) == 1:
            if terms:
                out.append(f"{sign} " + f" {sign} ".join(terms))
        else:
            out.append(f"{sign} {abs(c)}{group_open}" + " + ".join(terms) + group_close)
    return " ".join(out).removeprefix("+ ")


# few coefficient values, so groups have several columns; column 0 makes an
# empty stretch in its group, and a group of column 0 alone lists no pairs
@given(st.integers(2, 50), st.lists(st.integers(-4, 4), max_size=24))
@example(7, [])
@example(7, [3])
@example(7, [3, 1, 1, -1, 3, 3, -1, 1])
def test_rendering_matches_pairwise(k, coefficients):
    rule = DivisibilityRule(k, tuple(coefficients))
    assert render_rule(rule) == _render_pairwise(rule, "inv(%d,", "%d)", "(", ")")
    assert render_rule(rule, "latex") == _render_pairwise(
        rule, "\\inv{%d, ", "%d}", "\\left(", "\\right)"
    )


def test_json_rendering():
    obj = json.loads(render_rule(generate_rule(3), "json"))
    assert obj == {
        "k": 3,
        "terms": [
            {"i": 0, "j": 1, "c": 1},
            {"i": 0, "j": 2, "c": -1},
            {"i": 1, "j": 2, "c": -1},
        ],
    }


# SHA-256 over render_rule(generate_rule(k), fmt).encode(), for each k in turn
# in the formats plain, latex, json; 1422 is the largest k the listing cap allows
RENDERING_DIGEST = "39968b4e26451cd85beee0173f5def44c5f848292f04109ac32cb69a960329e1"


def test_rendering_bytes_golden():
    digest = hashlib.sha256()
    for k in [*range(2, 601), 1009, 1021, 1400, 1422]:
        rule = generate_rule(k)
        for fmt in ("plain", "latex", "json"):
            digest.update(render_rule(rule, fmt).encode())
    assert digest.hexdigest() == RENDERING_DIGEST


def test_json_text_is_json_dumps_of_to_json_obj():
    # 1409 is the largest prime whose 992,016 pairs the listing cap allows;
    # the rules made by hand list no pair, or one
    made = (DivisibilityRule(7, ()), DivisibilityRule(7, (3,)), DivisibilityRule(2, (1, 1)))
    for rule in [*map(generate_rule, [*range(2, 101), 593, 599, 1409]), *made]:
        assert render_rule(rule, "json") == json.dumps(rule.to_json_obj())


def test_rule_text_past_the_int_text_limit_reads_the_same_under_any_limit():
    # a modulus and coefficients past CPython's default of 4,300 digits.  The
    # rule for 1700! itself lists 1,444,150 pairs, and its JSON would take
    # about 4 GB, as each pair repeats its column's coefficient: so this
    # rule is made by hand.  A modulus of 701 digits is past the least limit
    # CPython allows, 640
    a, b = factorial(1699), factorial(1698)
    rule = DivisibilityRule(factorial(1700), (1, 1, 2, -a, b))
    short = DivisibilityRule(10**700 + 1, (1, 1, 2, -(10**699 + 3), 10**650))
    texts = []
    for limit in (640, 4300, 0):
        with int_text_limit(limit):
            texts.append([render_rule(r, fmt) for r in (rule, short) for fmt in _FORMATS])
    assert texts[0] == texts[1] == texts[2]
    with int_text_limit(0):
        assert texts[2][3] == (
            f"inv(0,1) + 2(inv(0,2) + inv(1,2)) - {10**699 + 3}(inv(0,3) + inv(1,3) + inv(2,3))"
            f" + {10**650}(inv(0,4) + inv(1,4) + inv(2,4) + inv(3,4))"
        )
        assert texts[2][5] == json.dumps(short.to_json_obj())
        assert texts[1][0] == (
            f"inv(0,1) + 2(inv(0,2) + inv(1,2)) - {a}(inv(0,3) + inv(1,3) + inv(2,3))"
            f" + {b}(inv(0,4) + inv(1,4) + inv(2,4) + inv(3,4))"
        )
        assert texts[2][2] == json.dumps(rule.to_json_obj())


def test_rule_repr_past_the_int_text_limit_reads_the_same_under_any_limit():
    # repr prints its integers as it would under no limit: a modulus of 5,001
    # digits past the default limit of 4,300, and one of 701 past the least, 640
    rules = (DivisibilityRule(10**5000, (1, 1, 2, -(10**4999 + 1))), DivisibilityRule(10**700, (1, 1)))
    with int_text_limit(0):
        want = [f"DivisibilityRule(modulus={r.modulus}, coefficients={r.coefficients})" for r in rules]
    for limit in (4300, 640):
        with int_text_limit(limit):
            got = list(map(repr, rules))
        assert got == want


@pytest.mark.parametrize("k", [599, 1409])
def test_a_rendering_peaks_at_twice_its_text(k):
    # the rows and the one text they are joined into; one more copy of the
    # whole (a slice, a wrapping f-string, a removeprefix) would read 3x
    rule = generate_rule(k)
    for fmt in ("plain", "latex", "json"):
        tracemalloc.start()
        try:
            text = render_rule(rule, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * len(text), (fmt, peak / len(text))
        del text


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_rule(generate_rule(3), "html")


def test_rule_table_all_moduli():
    table = rule_table(10)
    assert [r.modulus for r in table] == list(range(2, 11))
    assert render_rule(table[4]) == RULE_RENDERINGS[6]


def test_rule_table_primes_only():
    table = rule_table(30, primes_only=True)
    assert [r.modulus for r in table] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_only_keeps_a_sieves_primes():
    # the filter is S(k) = k, k != 4: 4 is the one composite with S(k) = k
    sieve = [True] * 401
    for d in range(2, 21):
        sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    primes = [k for k in range(2, 401) if sieve[k]]
    assert [r.modulus for r in rule_table(400, primes_only=True)] == primes
    assert kempner(4) == 4 and 4 not in primes


@pytest.mark.parametrize("cap, k", [(1, 2), (2, 3), (3, 5), (5, 7), (200, 211)])
def test_primes_only_refuses_at_the_first_prime_past_the_cap(monkeypatch, cap, k):
    # under cap 3 a filter on built rules would build k = 4 and refuse it
    monkeypatch.setattr(core, "MAX_PREFIX_LENGTH", cap)
    with pytest.raises(RangeTooLarge, match=f"^rule for {k} has more than MAX_PREFIX_LENGTH={cap} columns$"):
        rule_table(250, True)
