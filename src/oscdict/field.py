"""Exact arithmetic in the prime field F_p.

Field elements are canonical residues in [0, p).  The multiplicative
group F_p^x is cyclic of order p-1; this module provides the Legendre
character, element orders, and a deterministic (smallest) generator,
which everything downstream relies on for reproducible output.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (n is small, <= 2**20)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


class FpField:
    """The prime field F_p for an odd prime p >= 5.

    p = 2 is rejected because the group laws used downstream divide by 2;
    p = 3 is rejected as a degenerate small case.  Instances are immutable
    and safe to share.
    """

    __slots__ = ("p", "_generator")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p < 5:
            raise ValueError(f"prime {p} not supported, need p >= 5")
        self.p = p
        self._generator = None

    def __eq__(self, other):
        return isinstance(other, FpField) and other.p == self.p

    def __hash__(self):
        return hash(("FpField", self.p))

    def __repr__(self):
        return f"FpField({self.p})"

    # -- integer-level helpers (used heavily by the numeric layers) --

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("non-invertible: 0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def half(self) -> int:
        """The residue of 1/2, i.e. (p+1)/2."""
        return (self.p + 1) // 2

    def legendre(self, a: int) -> int:
        """Quadratic character: 0 for a=0, +1 for nonzero squares, -1 otherwise.

        Computed as a^((p-1)/2) mod p with p-1 mapped to -1.
        """
        a %= self.p
        if a == 0:
            return 0
        s = pow(a, (self.p - 1) // 2, self.p)
        return 1 if s == 1 else -1

    def element_order(self, a: int) -> int:
        """Smallest n >= 1 with a^n = 1; divides p-1."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("non-invertible: 0 has no multiplicative order")
        order = self.p - 1
        for q in prime_factors(self.p - 1):
            while order % q == 0 and pow(a, order // q, self.p) == 1:
                order //= q
        return order

    def mult_generator(self) -> int:
        """Smallest positive integer generating F_p^x.

        A candidate r generates iff r^((p-1)/q) != 1 for every prime q
        dividing p-1.  The smallest one is chosen so that dictionaries are
        bit-reproducible across runs.
        """
        if self._generator is None:
            qs = prime_factors(self.p - 1)
            for r in range(2, self.p):
                if all(pow(r, (self.p - 1) // q, self.p) != 1 for q in qs):
                    self._generator = r
                    break
        return self._generator

    def dlog_table(self) -> list[int]:
        """dlog[x] = k with g^k = x for the smallest generator g; dlog[0] = -1."""
        g = self.mult_generator()
        table = [-1] * self.p
        x = 1
        for k in range(self.p - 1):
            table[x] = k
            x = (x * g) % self.p
        return table

