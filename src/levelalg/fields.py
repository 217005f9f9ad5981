"""Exact coefficient arithmetic over a prime field or the rationals.

A field is its prime: GF(p) is `FieldSpec(p)`, and Q is `prime=None`.
Scalars are plain Python ints in [0, p) for the modular field and
``fractions.Fraction`` for the rational field, so equality, hashing and
serialization behave without surprises. No floating point anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

#: Default modulus: 2**31 - 1 (Mersenne prime). Products of two reduced
#: scalars stay below 2**63, so arrays of them are int64 from the
#: coefficient rows on (as for any p <= isqrt(2**63 - 1)), and every GF(p)
#: kernel runs in int64. Over Q the storage rule is per value, not per
#: field: rows are int64 while every entry is below 2**62 in absolute
#: value and Python ints past it (`linalg._integer_array`); the mod-p
#: certificates over Q reduce them modulo this prime.
DEFAULT_PRIME = 2_147_483_647

Scalar = int | Fraction

#: psi_13 (Sorenson and Webster, Math. Comp. 2017): the least strong
#: pseudoprime to all of the first 13 prime bases, so Miller-Rabin on
#: those bases is exact below it. A modulus is accepted only below it.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 primes as bases: exact
    for every n < PRIME_BOUND."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Choice of exact coefficient field: GF(prime), or Q when prime is None."""

    prime: int | None = None

    def __post_init__(self) -> None:
        if self.prime is None:
            return
        # read exactly: 7.0 or "7" is no modulus, and a numpy integer is
        # stored as the Python int it equals
        try:
            object.__setattr__(self, "prime", operator.index(self.prime))
        except TypeError:
            raise ValueError(f"modulus {self.prime!r} is not an integer") from None
        if self.prime >= PRIME_BOUND:
            raise ValueError(
                f"modulus {self.prime} is not below {PRIME_BOUND}, "
                "the bound below which primality is certified"
            )
        if not _is_prime(self.prime):
            raise ValueError(f"modulus {self.prime!r} is not a prime")

    @classmethod
    def modular(cls, prime: int = DEFAULT_PRIME) -> FieldSpec:
        if prime is None:
            raise ValueError("modulus None is not a prime")
        return cls(prime)

    @classmethod
    def rational(cls) -> FieldSpec:
        return cls()

    @property
    def is_modular(self) -> bool:
        return self.prime is not None

    def reduce(self, value: int | Fraction) -> Scalar:
        """Canonical scalar for an integer or fraction."""
        if self.is_modular:
            if isinstance(value, Fraction):
                num = value.numerator % self.prime
                return num * pow(value.denominator, -1, self.prime) % self.prime
            return value % self.prime
        return Fraction(value)
