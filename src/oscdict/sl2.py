"""SL_2(F_p): elements, Bruhat factorization, and maximal tori.

The group acts as automorphisms of the Heisenberg group through its
action on the plane.  Two families of maximal commutative subgroups
(tori) matter here:

* split tori, the conjugates of the diagonal subgroup A, cyclic of
  order p-1; there are p(p+1)/2 of them, one per matrix of the
  representative set R;
* non-split tori, cyclic of order p+1, diagonalizable only over
  F_{p^2}; there are p(p-1)/2 of them.

Every torus is the unit-determinant group of the 2-dimensional algebra
span{I, m} spanned by any of its regular elements m, so the projective
direction of the traceless part of m is a cheap canonical key for
subgroup identity; with m0 = [[e, b], [c, -e]], the torus is split when
e^2 + bc is a nonzero square and non-split when it is a nonsquare.

Both families are listed orbit-major.  The lower unipotent
U(x) = [[1, 0], [x, 1]] acts freely on the tori of each kind by
conjugation, keeping a key's b and sending its e to e - x b, so each
family is a union of orbits of p tori, one orbit per seed torus: entry
j*p + x is seed torus j conjugated by U(x), and its conjugator is U(x)
times that of entry j*p.  Under the Weil representation rho(U(x)) is
the chirp M_x, which is what lets the dictionary builders transport
only the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FpField
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


def sl2_order(g: SL2Element) -> int:
    """Order of g in SL_2(F_p); at most 2p."""
    ident = sl2_identity(g.field)
    x = g
    for k in range(1, 2 * g.field.p + 1):
        if x == ident:
            return k
        x = sl2_mul(x, g)
    raise RuntimeError("order search exceeded group exponent bound")


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


def split_representatives(field: FpField) -> list:
    """The set R: entry b*p + c is [[1, b], [c, 1+bc]] = U(c) [[1, b], [0, 1]].

    For b = 0 each c gives a distinct torus.  For b != 0 the pairs (b, c)
    and (-b, (1+bc)/b) conjugate A to the same torus, so b runs over
    0..(p-1)/2 only.  |R| = p(p+1)/2.
    """
    p = field.p
    return [SL2Element(1, b, c, 1 + b * c, field)
            for b in range((p + 1) // 2) for c in range(p)]


def _nonsplit_seeds(field: FpField) -> tuple:
    """(t0, [h_j]): the reference generator and the seed conjugators of
    the non-split tori, as ``nonsplit_tori`` describes them.  The
    builders read only these; h_j is the conjugator of entry j*p."""
    p = field.p
    root = {}
    for v in range(p):
        root.setdefault(v * v % p, v)
    nonsquares = [c for c in range(1, p) if field.legendre(c) == -1]
    c0 = nonsquares[0]
    t0 = next(g for g in (SL2Element(x, y, c0 * y, x, field)
                          for x in range(p) for y in range(p)
                          if (x * x - c0 * y * y) % p == 1)
              if sl2_order(g) == p + 1)
    seeds = []
    for c in nonsquares:
        lam = root[c0 * field.inv(c) % p]
        norm = field.inv(lam)
        b = next(b for b in range(p) if (norm + c * b * b) % p in root)
        d = root[(norm + c * b * b) % p]
        seeds.append(SL2Element(lam * d, b, lam * c * b, d, field))
    return t0, seeds


def nonsplit_tori(field: FpField) -> list:
    """All p(p-1)/2 non-split tori; entry j*p + x has conjugator U(x) h_j.

    c_j is the j-th nonsquare in increasing order and h_j conjugates the
    reference torus, key (0, 1, c_0), to the torus with key (0, 1, c_j).
    The reference torus is {x I + y m0 : x^2 - c_0 y^2 = 1} with
    m0 = [[0, 1], [c_0, 0]]; its generator t0 is its first element of
    order p+1 in (x, y) order.  With c = c_j, the matrix
    h_j = [[l d, b], [l c b, d]], where l^2 = c_0/c and d^2 - c b^2 = 1/l
    (least l, then least b, then least d), has determinant 1 and
    conjugates m0 to l [[0, 1], [c, 0]]; h_0 is the identity.  Each
    generator is g t0 g^-1 for the entry's conjugator g.
    """
    t0, seeds = _nonsplit_seeds(field)
    tori = []
    for h in seeds:
        for x in range(field.p):
            g = sl2_mul(unipotent(x, field), h)
            tori.append(TorusDescriptor("nonsplit", g,
                                        sl2_mul(sl2_mul(g, t0), sl2_inv(g))))
    return tori
