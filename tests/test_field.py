import itertools

import pytest

from ffrob import FFrobError, PolyRing, PrimeField
from ffrob.field import is_prime


def test_inverse_examples():
    assert PrimeField(7).inv(3) == 5
    assert PrimeField(2).inv(1) == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_fermat_and_involution(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert F.inv(F.inv(a)) == a
        assert a * F.inv(a) % p == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    # coefficient arithmetic, as the polynomial code does it, on constants
    R = PolyRing(PrimeField(p), ("x",))
    c = [R.constant(a) for a in range(p)]
    for a, b, d in itertools.product(c, repeat=3):
        assert (a + b) + d == a + (b + d)
        assert (a * b) * d == a * (b * d)
        assert a * (b + d) == a * b + a * d
        assert a + b == b + a
        assert a * b == b * a
        assert a - b + b == a


def test_construction_rejects_bad_characteristic():
    for bad in (0, 1, 4, 9, 15, 2**31):
        with pytest.raises(FFrobError):
            PrimeField(bad)


def test_is_prime_small_range():
    sieve = [True] * 200
    sieve[0] = sieve[1] = False
    for i in range(2, 200):
        if sieve[i]:
            for j in range(2 * i, 200, i):
                sieve[j] = False
    for n in range(200):
        assert is_prime(n) == sieve[n]


def test_is_prime_large():
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31 - 3)
