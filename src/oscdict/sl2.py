"""SL_2(F_p): elements, Bruhat factorization, and maximal tori.

The group acts as automorphisms of the Heisenberg group through its
action on the plane.  Two families of maximal commutative subgroups
(tori) matter here:

* split tori, the conjugates of the diagonal subgroup A, cyclic of
  order p-1; they are parametrized by the representative set R of
  matrices [[1, b], [c, 1+bc]] with the (b, c) ~ (-b, (1+bc)/b)
  identification, giving p(p+1)/2 of them;
* non-split tori, cyclic of order p+1, diagonalizable only over
  F_{p^2}; there are p(p-1)/2 distinct ones, enumerated by conjugating
  a reference torus over the whole group.

Every torus is the unit-determinant group of the 2-dimensional algebra
span{I, m} spanned by any of its regular elements m, so the projective
direction of the traceless part of m is a cheap canonical key for
subgroup identity; with m0 = [[e, b], [c, -e]], the torus is split when
e^2 + bc is a nonzero square and non-split when it is a nonsquare.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .field import FpField, prime_factors
from .heisenberg import HeisenbergElement


@dataclass(frozen=True)
class SL2Element:
    """2x2 matrix over F_p with determinant 1."""

    a: int
    b: int
    c: int
    d: int
    field: FpField

    def __post_init__(self):
        p = self.field.p
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % p)
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise ValueError(f"determinant is not 1: {self}")

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] (mod {self.field.p})"


def sl2_identity(field: FpField) -> SL2Element:
    return SL2Element(1, 0, 0, 1, field)


def weyl_element(field: FpField) -> SL2Element:
    return SL2Element(0, 1, -1, 0, field)


def unipotent(u: int, field: FpField) -> SL2Element:
    """Lower unipotent [[1, 0], [u, 1]]."""
    return SL2Element(1, 0, u, 1, field)


def diagonal(a: int, field: FpField) -> SL2Element:
    return SL2Element(a, 0, 0, field.inv(a), field)


def sl2_mul(g: SL2Element, h: SL2Element) -> SL2Element:
    if g.field != h.field:
        raise ValueError("mismatched moduli")
    return SL2Element(
        g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d,
        g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d,
        g.field,
    )


def sl2_inv(g: SL2Element) -> SL2Element:
    return SL2Element(g.d, -g.b, -g.c, g.a, g.field)


def sl2_pow(g: SL2Element, n: int) -> SL2Element:
    result = sl2_identity(g.field)
    base = g
    n = int(n)
    if n < 0:
        base, n = sl2_inv(g), -n
    while n:
        if n & 1:
            result = sl2_mul(result, base)
        base = sl2_mul(base, base)
        n >>= 1
    return result


def sl2_order(g: SL2Element) -> int:
    """Order of g in SL_2(F_p); at most 2p."""
    ident = sl2_identity(g.field)
    x = g
    for k in range(1, 2 * g.field.p + 1):
        if x == ident:
            return k
        x = sl2_mul(x, g)
    raise RuntimeError("order search exceeded group exponent bound")


def _has_order(g: SL2Element, n: int) -> bool:
    ident = sl2_identity(g.field)
    if sl2_pow(g, n) != ident:
        return False
    return all(sl2_pow(g, n // q) != ident for q in prime_factors(n))


def sp_action(g: SL2Element, h: HeisenbergElement) -> HeisenbergElement:
    """(v, z) -> (gv, z): the automorphism action on the Heisenberg group."""
    return HeisenbergElement(
        g.a * h.tau + g.b * h.w,
        g.c * h.tau + g.d * h.w,
        h.z,
        h.field,
    )


def sl2_element_tuples(p: int):
    """All (a, b, c, d) with ad - bc = 1, in lexicographic order."""
    for b in range(1, p):
        c = (-pow(b, p - 2, p)) % p
        for d in range(p):
            yield (0, b, c, d)
    for a in range(1, p):
        a_inv = pow(a, p - 2, p)
        for b in range(p):
            for c in range(p):
                yield (a, b, c, ((1 + b * c) * a_inv) % p)


def sl2_elements(field: FpField):
    """All p^3 - p group elements, in the scan order used everywhere."""
    return [SL2Element(*t, field) for t in sl2_element_tuples(field.p)]


# ---------------------------------------------------------------------------
# Bruhat factorization: every g is U(u2) A(a) or U(u2) A(a) w U(u1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BruhatFactorization:
    """g = U(u2) A(a)         (small cell, g.b = 0)
       g = U(u2) A(a) w U(u1) (big cell,   g.b != 0)"""

    cell: str
    a: int
    u2: int
    u1: int | None
    field: FpField

    def reconstruct(self) -> SL2Element:
        f = self.field
        g = sl2_mul(unipotent(self.u2, f), diagonal(self.a, f))
        if self.cell == "big":
            g = sl2_mul(sl2_mul(g, weyl_element(f)), unipotent(self.u1, f))
        return g


def bruhat(g: SL2Element) -> BruhatFactorization:
    """Factor g through the two Bruhat cells.

    Small cell (b = 0): a = g.a, u2 = c/a.  Big cell (b != 0): expanding
    U(u2) A(a) w U(u1) = [[a u1, a], [-1/a + u2 a u1, u2 a]] and matching
    entries gives a = b, u1 = g.a/b, u2 = d/b.
    """
    f = g.field
    if g.b == 0:
        return BruhatFactorization("small", g.a, (g.c * f.inv(g.a)) % f.p,
                                   None, f)
    b_inv = f.inv(g.b)
    return BruhatFactorization("big", g.b, (g.d * b_inv) % f.p,
                               (g.a * b_inv) % f.p, f)


# ---------------------------------------------------------------------------
# Maximal tori
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusDescriptor:
    """A maximal torus T = conjugator . T_ref . conjugator^-1 with a
    distinguished generator (order p-1 split, p+1 non-split)."""

    kind: str
    conjugator: SL2Element
    generator: SL2Element


def torus_key(m: SL2Element) -> tuple:
    """Canonical key of the maximal torus containing a regular element m.

    The torus is determined by span{I, m}, hence by the projective
    direction of the traceless part m - (tr m / 2) I; the key is that
    direction scaled so its first nonzero coordinate is 1.
    """
    f = m.field
    p = f.p
    e = ((m.a - m.d) * f.half()) % p
    vec = (e, m.b % p, m.c % p)
    if vec == (0, 0, 0):
        raise ValueError(f"central element {m} lies in every torus")
    for v in vec:
        if v != 0:
            s = f.inv(v)
            return tuple((x * s) % p for x in vec)
    raise AssertionError


def torus_order(T: TorusDescriptor) -> int:
    p = T.generator.field.p
    return p - 1 if T.kind == "split" else p + 1


def torus_elements(T: TorusDescriptor) -> frozenset:
    """All elements of the torus, as entry tuples (generator powers)."""
    els = []
    g = sl2_identity(T.generator.field)
    for _ in range(torus_order(T)):
        els.append(g.entries())
        g = sl2_mul(g, T.generator)
    return frozenset(els)


def split_representatives(field: FpField) -> list:
    """The set R: one matrix [[1, b], [c, 1+bc]] per split torus.

    For b = 0 each c gives a distinct torus.  For b != 0 the matrices
    with parameters (b, c) and (-b, (1+bc)/b) conjugate A to the same
    torus; the lexicographically smaller pair is kept.  |R| = p(p+1)/2.
    """
    p = field.p
    reps = []
    for c in range(p):
        reps.append(SL2Element(1, 0, c, 1, field))
    for b in range(1, p):
        for c in range(p):
            partner = ((-b) % p, ((1 + b * c) * field.inv(b)) % p)
            if (b, c) <= partner:
                reps.append(SL2Element(1, b, c, 1 + b * c, field))
    assert len(reps) == p * (p + 1) // 2
    return reps


def split_tori(field: FpField) -> list:
    """Descriptors for all split tori, generated from the smallest field
    generator r: T = g A g^-1 with generator g diag(r, 1/r) g^-1."""
    r = field.mult_generator()
    d = diagonal(r, field)
    tori = []
    for g in split_representatives(field):
        gen = sl2_mul(sl2_mul(g, d), sl2_inv(g))
        tori.append(TorusDescriptor("split", g, gen))
    return tori


def _first_nonsplit_generator(field: FpField) -> SL2Element:
    """Lex-first element with irreducible characteristic polynomial and
    order exactly p+1: it generates a non-split torus."""
    p = field.p
    for t in sl2_element_tuples(p):
        tr = (t[0] + t[3]) % p
        if field.legendre(tr * tr - 4) != -1:
            continue
        g = SL2Element(*t, field)
        if _has_order(g, p + 1):
            return g
    raise RuntimeError(f"no order-{p + 1} element found in SL2(F_{p})")


def nonsplit_tori(field: FpField) -> list:
    """All distinct non-split maximal tori, by conjugating one reference
    torus over the group in scan order and deduplicating subgroups.

    The normalizer of a non-split torus has order 2(p+1), so this yields
    p(p-1)/2 subgroups.  Each descriptor's generator g t0 g^-1 has order
    p+1 and its conjugator is the first group element reaching the torus.
    The conjugation and the torus_key normalisation run as one numpy pass
    over all group elements.
    """
    p = field.p
    t0 = _first_nonsplit_generator(field)
    a0, b0, c0, d0 = t0.entries()
    count = p ** 3 - p
    g = np.fromiter(chain.from_iterable(sl2_element_tuples(p)),
                    dtype=np.int64, count=4 * count).reshape(count, 4)
    a, b, c, d = g.T
    # m = g t0 g^-1 with g = [[a,b],[c,d]], inverse [[d,-b],[-c,a]]
    x, y = (a * a0 + b * c0) % p, (a * b0 + b * d0) % p
    z, w = (c * a0 + d * c0) % p, (c * b0 + d * d0) % p
    m = [(x * d - y * c) % p, (y * a - x * b) % p,
         (z * d - w * c) % p, (w * a - z * b) % p]
    del x, y, z, w  # the p^3-long temporaries set the peak memory here
    # torus_key: (e, b, c) scaled so its first nonzero entry is 1; m is
    # never central, having order p+1
    e = ((m[0] - m[3]) * field.half()) % p
    inverse = np.zeros(p, dtype=np.int64)
    inverse[1:] = [pow(v, p - 2, p) for v in range(1, p)]
    scale = inverse[np.where(e != 0, e, np.where(m[1] != 0, m[1], m[2]))]
    key = ((e * scale % p) * p + m[1] * scale % p) * p + m[2] * scale % p
    _, first = np.unique(key, return_index=True)
    first.sort()
    tori = [TorusDescriptor("nonsplit", SL2Element(*gi, field),
                            SL2Element(*mi, field))
            for gi, mi in zip(g[first].tolist(),
                              np.stack(m, axis=1)[first].tolist())]
    assert len(tori) == p * (p - 1) // 2
    return tori
