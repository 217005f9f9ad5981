"""Field construction and canonical scalar reduction."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from levelalg.fields import DEFAULT_PRIME, PRIME_BOUND, FieldSpec, _is_prime

# Sorenson and Webster: the least strong pseudoprimes to all of the first
# 12 and the first 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_default_prime_is_the_mersenne_prime():
    assert DEFAULT_PRIME == 2**31 - 1
    f = FieldSpec.modular()
    assert f.is_modular
    assert f.prime == DEFAULT_PRIME


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec.modular(91)  # 7 * 13
    with pytest.raises(ValueError):
        FieldSpec.modular(1)
    with pytest.raises(ValueError):
        FieldSpec.modular(None)
    with pytest.raises(ValueError):
        FieldSpec(91)


def test_primality_is_checked_once_per_modulus_and_still_rejects_composites():
    _is_prime.cache_clear()
    for _ in range(3):
        FieldSpec.modular()
        FieldSpec.modular(97)
        with pytest.raises(ValueError):
            FieldSpec.modular(91)
    info = _is_prime.cache_info()
    assert (info.misses, info.hits) == (3, 6)
    # a cached verdict is the verdict: 2**61 - 1 is prime, 2**61 + 1 is not
    for _ in range(2):
        assert [_is_prime(2**61 - 1), _is_prime(2**61 + 1)] == [True, False]


def test_rational_field_takes_no_modulus():
    f = FieldSpec.rational()
    assert not f.is_modular
    assert f.prime is None and f == FieldSpec(None)
    assert FieldSpec(7) == FieldSpec.modular(7) != f


def test_modulus_is_read_exactly():
    # 7.0 was accepted as a modulus, and its reduce(10) returned 3.0
    for bad in (7.0, "7", 7.5, Fraction(7)):
        with pytest.raises(ValueError, match="is not an integer"):
            FieldSpec(bad)
    f = FieldSpec(np.int64(7))
    assert type(f.prime) is int and f == FieldSpec(7)
    assert f.reduce(10) == 3 and type(f.reduce(10)) is int


def test_modular_reduce_canonical_range():
    f = FieldSpec.modular(97)
    assert f.reduce(100) == 3
    assert f.reduce(-1) == 96
    assert f.reduce(0) == 0
    # fractions reduce through the inverse of the denominator
    assert f.reduce(Fraction(1, 2)) == pow(2, -1, 97)
    assert f.reduce(Fraction(3, 4)) == 3 * pow(4, -1, 97) % 97


def test_rational_reduce_normalizes():
    f = FieldSpec.rational()
    assert f.reduce(5) == Fraction(5)
    assert f.reduce(Fraction(6, 4)) == Fraction(3, 2)
    assert isinstance(f.reduce(7), Fraction)


def test_large_prime_accepted():
    # exercises the Miller-Rabin check beyond trial division
    f = FieldSpec.modular(4294967311)
    assert f.prime == 4294967311


def test_moduli_are_certified_prime_below_psi_13():
    assert PRIME_BOUND == PSI_13
    # psi_12 passes every base up to 37, and base 41 exposes it
    assert PSI_12 == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="is not a prime"):
        FieldSpec.modular(PSI_12)
    for p in (2**61 - 1, 4294967311, sympy.prevprime(PSI_13)):
        assert FieldSpec.modular(p).prime == p
    # from psi_13 on the bases no longer certify a prime: refused, naming
    # the bound, whether prime or not
    for n in (PSI_13, sympy.nextprime(PSI_13)):
        with pytest.raises(ValueError, match=f"not below {PSI_13}, the bound"):
            FieldSpec.modular(n)
