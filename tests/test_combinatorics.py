"""Binomial expansions, Macaulay growth, O-sequences, overlap recounts.

The binomial oracle is a Pascal-triangle table built by additions only, so
the closed-form helpers are checked against pure counting.
"""

import random
from math import comb

import pytest

from levelalg.combinatorics import (
    BinomialExpansion,
    alternating_binomial_sum,
    binomial,
    is_o_sequence,
    macaulay_expansion,
    macaulay_growth,
)


def _pascal_row(n):
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def test_binomial_against_pascal_triangle():
    for n in range(0, 61):
        row = _pascal_row(n)
        for k in range(n + 1):
            assert binomial(n, k) == row[k]
    assert _pascal_row(60)[30] == 118264581564861424
    assert binomial(60, 30) == 118264581564861424


def test_binomial_out_of_range_conventions():
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(-1, 0) == 0
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1
    assert binomial(5, 3) == 10


def test_expansion_hand_values():
    e = macaulay_expansion(6, 2)
    assert e.parts == ((4, 2),)
    assert str(e) == "C(4,2)"
    e = macaulay_expansion(4, 2)
    assert e.parts == ((3, 2), (1, 1))
    assert str(e) == "C(3,2)+C(1,1)"
    # n = 1 expands as the single term C(i, i)
    for i in (1, 3, 12):
        assert macaulay_expansion(1, i).parts == ((i, i),)
    assert macaulay_expansion(1, 3).value() == 1


def test_expansion_rejects_bad_arguments():
    with pytest.raises(ValueError):
        macaulay_expansion(0, 2)
    with pytest.raises(ValueError):
        macaulay_expansion(5, 0)
    with pytest.raises(ValueError):
        macaulay_expansion(-3, 2)


def test_expansion_uniqueness_invariants():
    # resums to n, upper indices strictly decrease, every part is legal,
    # and lower indices run consecutively down from i
    for i in range(1, 13):
        for n in range(1, 5001):
            e = macaulay_expansion(n, i)
            assert e.value() == n
            ks = [k for _, k in e.parts]
            assert ks == list(range(i, i - len(ks), -1))
            assert ks[-1] >= 1
            ms = [m for m, _ in e.parts]
            assert all(a > b for a, b in zip(ms, ms[1:]))
            assert all(m >= k for m, k in e.parts)


def test_growth_hand_values():
    assert macaulay_growth(4, 2) == 5
    assert macaulay_growth(6, 2) == 10
    assert macaulay_growth(0, 3) == 0
    assert macaulay_growth(1, 1) == 1
    assert macaulay_growth(3, 1) == 6  # C(3,1) -> C(4,2)


def test_growth_monotone_in_n():
    rng = random.Random(424242)
    for _ in range(300):
        i = rng.randint(1, 10)
        n = rng.randint(0, 2000)
        m = rng.randint(0, 2000)
        lo, hi = min(n, m), max(n, m)
        assert macaulay_growth(lo, i) <= macaulay_growth(hi, i)
        assert macaulay_growth(hi, i) >= hi


def test_o_sequence_verdicts():
    v = is_o_sequence((1, 3, 4, 6))
    assert not v.ok and v.first_violation == 2
    assert is_o_sequence((1, 3, 5, 7, 7, 5, 3)).ok
    assert is_o_sequence(()).ok
    assert is_o_sequence((1,)).ok
    for r in (1, 2, 17):
        assert is_o_sequence((1, r)).ok
    # non-unimodal sequences can still satisfy the growth bound
    assert is_o_sequence((1, 5, 3, 4)).ok


def test_o_sequence_leading_entry():
    for bad in ((0,), (2, 1), (3, 3, 1)):
        v = is_o_sequence(bad)
        assert not v.ok and v.first_violation == 0


def test_o_sequence_zero_forces_zero():
    v = is_o_sequence((1, 0, 1))
    assert not v.ok and v.first_violation == 1
    assert is_o_sequence((1, 0, 0)).ok
    assert is_o_sequence((1, 2, 0, 0, 0)).ok


def test_o_sequence_rejects_negative_entries():
    with pytest.raises(ValueError):
        is_o_sequence((1, -2, 1))


def test_alternating_sum_matches_direct_count():
    # independent recount straight from the definition
    for t in range(2, 21):
        for j in range(2, t + 1):
            direct = sum(
                (-1) ** h * binomial(t, h) * binomial(t - h, j - h)
                for h in range(2, j + 1)
            )
            assert alternating_binomial_sum(t, j) == direct


def test_alternating_sum_closed_form():
    for t in range(2, 61):
        for j in range(2, t + 1):
            assert alternating_binomial_sum(t, j) == (j - 1) * binomial(t, j)
            assert alternating_binomial_sum(t, j, start=0) == 0
    assert alternating_binomial_sum(5, 5) == 4
    assert alternating_binomial_sum(2, 2) == 1


def test_alternating_sum_range_errors():
    with pytest.raises(ValueError):
        alternating_binomial_sum(3, 1)
    with pytest.raises(ValueError):
        alternating_binomial_sum(3, 4)
    with pytest.raises(ValueError):
        alternating_binomial_sum(5, 3, start=1)


def test_expansion_value_roundtrip_object():
    e = BinomialExpansion(4, 2, ((3, 2), (1, 1)))
    assert e.value() == 4
    assert str(e) == "C(3,2)+C(1,1)"


def test_memoized_growth_equals_the_expansion_sum():
    # the cache is bounded, and a read from it gives what the expansion
    # gives: n <= 500 and i <= 12 are more pairs than it holds
    def uncached(n, i):
        if n == 0:
            return 0
        return sum(comb(m + 1, k + 1) for m, k in macaulay_expansion(n, i).parts)

    assert macaulay_growth.cache_info().maxsize == 4096
    pairs = [(n, i) for i in range(1, 13) for n in range(501)]
    # the second pass, in reverse, starts with the pairs still cached
    for order in (pairs, pairs[::-1]):
        hits = macaulay_growth.cache_info().hits
        for n, i in order:
            assert macaulay_growth(n, i) == uncached(n, i), (n, i)
    assert macaulay_growth.cache_info().hits > hits
    assert macaulay_growth.cache_info().currsize <= 4096
