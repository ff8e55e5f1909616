"""SL_2(F_p) tests: group law, Bruhat cells, and maximal tori.

Torus enumeration is checked against brute-force oracles: split tori by
conjugating the diagonal subgroup over the whole group and counting
distinct subgroups, non-split tori by collecting the cyclic subgroups
generated by all order-(p+1) elements.  The orbit-major order of both
lists is checked entry by entry against U(x) times the orbit's seed.
``torus_key`` below is a test oracle: no builder needs a torus's key.
"""

import numpy as np
import pytest

from oscdict.field import FpField, is_prime
from oscdict.heisenberg import HeisenbergElement, h_mul
from oscdict.sl2 import (BruhatFactorization, SL2Element, TorusDescriptor,
                         _nonsplit_seeds, bruhat, diagonal, nonsplit_tori,
                         sl2_elements, sl2_identity, sl2_inv, sl2_mul,
                         sl2_order, sp_action, split_representatives,
                         unipotent, weyl_element)


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


def torus_order(T):
    p = T.generator.field.p
    return p - 1 if T.kind == "split" else p + 1


def torus_elements(T):
    """All elements of the torus, as entry tuples (generator powers)."""
    els = []
    g = sl2_identity(T.generator.field)
    for _ in range(torus_order(T)):
        els.append(g.entries())
        g = sl2_mul(g, T.generator)
    return frozenset(els)


def split_tori(field):
    """Descriptors T = g A g^-1 over R, generated by g diag(r, 1/r) g^-1
    for the smallest field generator r."""
    d = diagonal(field.mult_generator(), field)
    return [TorusDescriptor("split", g, sl2_mul(sl2_mul(g, d), sl2_inv(g)))
            for g in split_representatives(field)]


def random_element(field, rng):
    els = sl2_elements(field)
    return els[int(rng.integers(0, len(els)))]


def test_determinant_enforced():
    f = FpField(5)
    with pytest.raises(ValueError, match="determinant"):
        SL2Element(1, 0, 0, 2, f)
    with pytest.raises(ValueError, match="determinant"):
        SL2Element(0, 0, 0, 0, f)
    g = SL2Element(6, 5, 5, 1, f)  # reduces to [[1,0],[0,1]]
    assert g.entries() == (1, 0, 0, 1)


def test_constructors():
    f = FpField(7)
    assert sl2_identity(f).entries() == (1, 0, 0, 1)
    assert weyl_element(f).entries() == (0, 1, 6, 0)
    assert unipotent(3, f).entries() == (1, 0, 3, 1)
    assert diagonal(3, f).entries() == (3, 0, 0, 5)


def test_weyl_squares_to_minus_identity():
    for p in (5, 7, 11):
        f = FpField(p)
        w = weyl_element(f)
        assert sl2_mul(w, w).entries() == (p - 1, 0, 0, p - 1)
        assert sl2_order(w) == 4


def test_mul_inv_pow():
    f = FpField(7)
    rng = np.random.default_rng(0)
    e = sl2_identity(f)
    for _ in range(25):
        g = random_element(f, rng)
        h = random_element(f, rng)
        k = random_element(f, rng)
        assert sl2_mul(sl2_mul(g, h), k) == sl2_mul(g, sl2_mul(h, k))
        assert sl2_mul(g, sl2_inv(g)) == e
    with pytest.raises(ValueError, match="mismatched"):
        sl2_mul(sl2_identity(f), sl2_identity(FpField(5)))


def test_orders():
    f = FpField(7)
    assert sl2_order(sl2_identity(f)) == 1
    assert sl2_order(SL2Element(-1, 0, 0, -1, f)) == 2
    assert sl2_order(unipotent(1, f)) == 7
    assert sl2_order(diagonal(f.mult_generator(), f)) == 6


def test_enumeration():
    for p in (5, 7):
        f = FpField(p)
        els = sl2_elements(f)
        assert len(els) == p ** 3 - p
        assert len({g.entries() for g in els}) == len(els)
        for g in els:
            assert (g.a * g.d - g.b * g.c) % p == 1
        # scan order starts at the a = 0 block
        assert els[0].entries() == (0, 1, p - 1, 0)


def test_sp_action_examples():
    f = FpField(5)
    w = weyl_element(f)
    h = HeisenbergElement(1, 0, 2, f)
    out = sp_action(w, h)
    assert (out.tau, out.w, out.z) == (0, 4, 2)  # (tau,w) -> (w,-tau), z fixed
    g = unipotent(2, f)
    out = sp_action(g, HeisenbergElement(1, 1, 0, f))
    assert (out.tau, out.w) == (1, 3)


def test_sp_action_is_automorphism():
    f = FpField(7)
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_element(f, rng)
        h1 = HeisenbergElement(*map(int, rng.integers(0, 7, 3)), f)
        h2 = HeisenbergElement(*map(int, rng.integers(0, 7, 3)), f)
        lhs = sp_action(g, h_mul(h1, h2))
        rhs = h_mul(sp_action(g, h1), sp_action(g, h2))
        assert lhs == rhs
        g2 = random_element(f, rng)
        assert (sp_action(sl2_mul(g, g2), h1)
                == sp_action(g, sp_action(g2, h1)))


def test_bruhat_examples():
    f = FpField(5)
    fac = bruhat(diagonal(2, f))
    assert (fac.cell, fac.a, fac.u2, fac.u1) == ("small", 2, 0, None)
    fac = bruhat(unipotent(3, f))
    assert (fac.cell, fac.a, fac.u2) == ("small", 1, 3)
    fac = bruhat(weyl_element(f))
    assert (fac.cell, fac.a, fac.u2, fac.u1) == ("big", 1, 0, 0)
    g = SL2Element(2, 3, 1, 2, f)
    fac = bruhat(g)
    assert fac.cell == "big" and fac.a == 3
    assert fac.reconstruct() == g


def test_bruhat_exhaustive_roundtrip():
    for p in (5, 7):
        f = FpField(p)
        for g in sl2_elements(f):
            fac = bruhat(g)
            assert isinstance(fac, BruhatFactorization)
            assert fac.cell == ("small" if g.b == 0 else "big")
            assert fac.reconstruct() == g


def conjugate_subgroup(g, subgroup):
    gi = sl2_inv(g)
    return frozenset(sl2_mul(sl2_mul(g, SL2Element(*m, g.field)), gi).entries()
                     for m in subgroup)


def test_split_representatives_count_and_form():
    for p in (5, 7, 11, 13):
        f = FpField(p)
        reps = split_representatives(f)
        assert len(reps) == p * (p + 1) // 2
        for g in reps:
            assert g.a == 1 and g.d == (1 + g.b * g.c) % p


def test_split_representatives_hit_every_conjugate_once():
    # brute-force oracle at p = 5: conjugating the diagonal subgroup over
    # the whole group yields exactly the subgroups reached from R
    p = 5
    f = FpField(p)
    A = frozenset(diagonal(a, f).entries() for a in range(1, p))
    from_reps = {conjugate_subgroup(g, A) for g in split_representatives(f)}
    assert len(from_reps) == p * (p + 1) // 2
    all_conj = {conjugate_subgroup(g, A) for g in sl2_elements(f)}
    assert from_reps == all_conj


def test_split_tori():
    for p in (5, 7):
        f = FpField(p)
        tori = split_tori(f)
        assert len(tori) == p * (p + 1) // 2
        keys = set()
        for T in tori:
            assert T.kind == "split"
            assert torus_order(T) == p - 1
            assert sl2_order(T.generator) == p - 1
            els = torus_elements(T)
            assert len(els) == p - 1
            # the descriptor's conjugator really reaches the torus
            A = frozenset(diagonal(a, f).entries() for a in range(1, p))
            assert conjugate_subgroup(T.conjugator, A) == els
            keys.add(torus_key(T.generator))
        assert len(keys) == len(tori)


def brute_nonsplit_subgroups(field):
    """Oracle: cyclic subgroups generated by all order-(p+1) elements."""
    p = field.p
    subgroups = set()
    for g in sl2_elements(field):
        if sl2_order(g) == p + 1:
            cyc = []
            x = sl2_identity(field)
            for _ in range(p + 1):
                cyc.append(x.entries())
                x = sl2_mul(x, g)
            subgroups.add(frozenset(cyc))
    return subgroups


def test_nonsplit_tori_against_bruteforce():
    for p in (5, 7, 11):
        f = FpField(p)
        tori = nonsplit_tori(f)
        assert len(tori) == p * (p - 1) // 2
        listed = {torus_elements(T) for T in tori}
        assert len(listed) == len(tori)
        assert listed == brute_nonsplit_subgroups(f)
        for T in tori:
            assert T.kind == "nonsplit"
            assert torus_order(T) == p + 1
            assert sl2_order(T.generator) == p + 1
            tr = (T.generator.a + T.generator.d) % p
            assert f.legendre(tr * tr - 4) == -1


def test_tori_are_listed_orbit_major():
    # entry j*p + x is U(x) times entry j*p: R's entries themselves, the
    # non-split conjugators
    for p in (5, 7, 11, 13):
        f = FpField(p)
        reps = split_representatives(f)
        conjugators = [T.conjugator for T in nonsplit_tori(f)]
        for entries in (reps, conjugators):
            for k, g in enumerate(entries):
                seed = entries[k - k % p]
                assert g == sl2_mul(unipotent(k % p, f), seed)


def test_first_nonsplit_generator_frozen():
    # the reference torus {x I + y m0 : x^2 - c0 y^2 = 1}, m0 = [[0,1],[c0,0]]
    # with c0 the least nonsquare, comes first with the identity conjugator;
    # its generator is the first (x, y) of order p+1:
    # p = 5: c0 = 2, t0 = 3 I + 2 m0;  p = 7: c0 = 3, t0 = 2 I + 1 m0
    for p, c0, x, y in ((5, 2, 3, 2), (7, 3, 2, 1)):
        f = FpField(p)
        T = nonsplit_tori(f)[0]
        assert T.generator.entries() == (x, y, c0 * y % p, x)
        assert T.conjugator == sl2_identity(f)
        assert torus_key(T.generator) == (0, 1, c0)


def test_nonsplit_generator_matches_group_order_search():
    # t0 from integer products on (x, y) is the first (x, y) whose
    # SL2Element has order p+1, at every prime up to 139
    for p in filter(is_prime, range(5, 140)):
        f = FpField(p)
        c0 = next(c for c in range(1, p) if f.legendre(c) == -1)
        t0 = next(g for g in (SL2Element(x, y, c0 * y, x, f)
                              for x in range(p) for y in range(p)
                              if (x * x - c0 * y * y) % p == 1)
                  if sl2_order(g) == p + 1)
        assert _nonsplit_seeds(f)[0] == t0


def test_circle_group_is_a_nonsplit_torus():
    # when -1 is a nonsquare, the rotation matrices [[x,y],[-y,x]] with
    # x^2 + y^2 = 1 form a group of order p+1 and must appear in the list
    for p in (7, 11):
        f = FpField(p)
        assert f.legendre(p - 1) == -1
        circle = frozenset((x, y, (-y) % p, x)
                           for x in range(p) for y in range(p)
                           if (x * x + y * y) % p == 1)
        assert len(circle) == p + 1
        assert any(torus_elements(T) == circle for T in nonsplit_tori(f))


def test_torus_key_classifies_centralizers():
    # exhaustive at p = 5: two regular semisimple elements share a torus
    # key exactly when they have the same centralizer, and the centralizer
    # size detects the torus kind
    p = 5
    f = FpField(p)
    els = sl2_elements(f)
    by_key = {}
    for m in els:
        tr = (m.a + m.d) % p
        disc = f.legendre(tr * tr - 4)
        if disc == 0 or (m.b == 0 and m.c == 0 and m.a == m.d):
            continue
        cent = frozenset(g.entries() for g in els
                         if sl2_mul(g, m) == sl2_mul(m, g))
        assert len(cent) == (p - 1 if disc == 1 else p + 1)
        key = torus_key(m)
        assert by_key.setdefault(key, cent) == cent
    cents = list(by_key.values())
    assert len(cents) == len(set(cents))  # distinct keys, distinct tori
    assert len(cents) == p * (p + 1) // 2 + p * (p - 1) // 2


def test_torus_key_rejects_central():
    f = FpField(5)
    with pytest.raises(ValueError, match="central"):
        torus_key(sl2_identity(f))
    with pytest.raises(ValueError, match="central"):
        torus_key(SL2Element(-1, 0, 0, -1, f))
