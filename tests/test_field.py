"""Field arithmetic tests.

Oracles: the quadratic character is checked against a brute-force table
of squares, and the smallest-generator search against an independent
order computation by repeated multiplication.
"""

import pytest

from oscdict.field import FpField, is_prime, prime_factors

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101]


def brute_order(a, p):
    x, n = a % p, 1
    while x != 1:
        x = (x * a) % p
        n += 1
    return n


def test_is_prime_small():
    primes_below_100 = {n for n in range(100) if n > 1 and
                        all(n % d for d in range(2, n))}
    for n in range(100):
        assert is_prime(n) == (n in primes_below_100)
    assert is_prime(2 ** 13 - 1)
    assert not is_prime(2 ** 13 + 1)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(100) == [2, 5]
    assert prime_factors(97) == [97]
    for p in PRIMES:
        for q in prime_factors(p - 1):
            assert is_prime(q) and (p - 1) % q == 0


def test_field_rejects_bad_moduli():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            FpField(bad)
    for small in (2, 3):
        with pytest.raises(ValueError):
            FpField(small)
    f = FpField(7)
    assert f == FpField(7) and f != FpField(5)


def test_inverse():
    assert FpField(5).inv(2) == 3
    assert FpField(7).inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        FpField(5).inv(0)
    for p in (5, 7, 11, 13):
        f = FpField(p)
        for a in range(1, p):
            assert (a * f.inv(a)) % p == 1
            assert f.inv(f.inv(a)) == a


def test_half():
    for p in (5, 7, 11, 101):
        f = FpField(p)
        assert (2 * f.half()) % p == 1


def test_legendre_against_square_table():
    for p in PRIMES:
        f = FpField(p)
        squares = {(x * x) % p for x in range(1, p)}
        assert f.legendre(0) == 0
        for a in range(1, p):
            assert f.legendre(a) == (1 if a in squares else -1)


def test_legendre_multiplicative():
    for p in PRIMES:
        f = FpField(p)
        for a in range(1, p):
            for b in range(1, p):
                assert f.legendre(a * b) == f.legendre(a) * f.legendre(b)


def test_legendre_examples():
    f5 = FpField(5)
    assert f5.legendre(1) == 1
    assert f5.legendre(2) == -1


def test_element_order():
    f5, f7 = FpField(5), FpField(7)
    assert f5.element_order(4) == 2
    assert f7.element_order(2) == 3
    for p in (5, 7, 11, 13, 29):
        f = FpField(p)
        assert f.element_order(1) == 1
        for a in range(2, p):
            assert f.element_order(a) == brute_order(a, p)
    with pytest.raises(ZeroDivisionError):
        f5.element_order(0)


def test_mult_generator_frozen_values():
    assert FpField(5).mult_generator() == 2
    assert FpField(7).mult_generator() == 3
    assert FpField(11).mult_generator() == 2


def test_mult_generator_is_smallest():
    for p in PRIMES:
        f = FpField(p)
        r = f.mult_generator()
        assert brute_order(r, p) == p - 1
        assert all(brute_order(c, p) < p - 1 for c in range(2, r))


def test_dlog_table():
    for p in (5, 7, 11, 13):
        f = FpField(p)
        r = f.mult_generator()
        table = f.dlog_table()
        assert table[0] == -1
        for x in range(1, p):
            assert pow(r, table[x], p) == x
        assert sorted(table[1:]) == list(range(p - 1))

