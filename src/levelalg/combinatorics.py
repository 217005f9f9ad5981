"""Binomial-coefficient combinatorics behind admissible Hilbert functions.

Greedy binomial expansions, the associated growth operator, the O-sequence
test, and the alternating binomial sum used to recount pairwise overlaps.
Pure integer arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range arguments give 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class BinomialExpansion:
    """Greedy expansion of n as C(n_i,i) + C(n_{i-1},i-1) + ... + C(n_j,j)."""

    n: int
    i: int
    parts: tuple[tuple[int, int], ...]  # (n_k, k), k strictly descending

    def value(self) -> int:
        return sum(comb(m, k) for m, k in self.parts)

    def __str__(self) -> str:
        return "+".join(f"C({m},{k})" for m, k in self.parts)


def _max_binom_le(n: int, k: int) -> int:
    """Largest m >= k with C(m, k) <= n (requires n >= 1)."""
    lo, hi = k, k + 1
    while comb(hi, k) <= n:
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if comb(mid, k) <= n:
            lo = mid
        else:
            hi = mid
    return lo


def macaulay_expansion(n: int, i: int) -> BinomialExpansion:
    """Unique greedy i-th binomial expansion of n (n >= 1, i >= 1)."""
    if n < 1 or i < 1:
        raise ValueError(f"expansion requires n >= 1 and i >= 1, got n={n}, i={i}")
    parts: list[tuple[int, int]] = []
    rem, k = n, i
    while rem > 0:
        m = _max_binom_le(rem, k)
        parts.append((m, k))
        rem -= comb(m, k)
        k -= 1
    return BinomialExpansion(n, i, tuple(parts))


@lru_cache(maxsize=4096)
def macaulay_growth(n: int, i: int) -> int:
    """Maximal value in the next degree allowed after n in degree i.

    Written n^<i>: shift every part C(n_k, k) of the greedy expansion to
    C(n_k + 1, k + 1) and re-sum. By convention 0^<i> = 0. Memoized: the
    bound machinery asks for few distinct (n, i), many times over.
    """
    if n == 0:
        return 0
    exp = macaulay_expansion(n, i)
    return sum(comb(m + 1, k + 1) for m, k in exp.parts)


@dataclass(frozen=True)
class OSequenceVerdict:
    ok: bool
    #: first degree d where the sequence fails: either h_{d+1} > h_d^<d>,
    #: or d = 0 for a leading entry different from 1.
    first_violation: int | None = None


def is_o_sequence(h: Sequence[int]) -> OSequenceVerdict:
    """Whether h is an admissible Hilbert function of a graded quotient.

    Requires h_0 = 1 (when nonempty) and h_{d+1} <= h_d^<d> for every
    d >= 1. Zero entries force all later entries to zero (this falls out
    of the growth bound). The empty sequence is accepted. Negative
    entries are a caller error.
    """
    h = tuple(h)
    for v in h:
        if v < 0:
            raise ValueError(f"negative entry {v} in {h}")
    if not h:
        return OSequenceVerdict(True)
    if h[0] != 1:
        return OSequenceVerdict(False, 0)
    for d in range(1, len(h) - 1):
        if h[d + 1] > macaulay_growth(h[d], d):
            return OSequenceVerdict(False, d)
    return OSequenceVerdict(True)


def alternating_binomial_sum(t: int, j: int, start: int = 2) -> int:
    """Sum of (-1)^h C(t,h) C(t-h, j-h) for h from `start` to j.

    With start=2 this recounts, with signs, the ways of marking h of t
    objects and then j-h of the rest; the closed form (j-1)*C(t,j) is
    verified in the test suite. With start=0 the sum telescopes to 0.
    """
    if not 2 <= j <= t:
        raise ValueError(f"need 2 <= j <= t, got t={t}, j={j}")
    if start not in (0, 2):
        raise ValueError("start must be 0 or 2")
    return sum(
        (-1) ** h * binomial(t, h) * binomial(t - h, j - h) for h in range(start, j + 1)
    )
