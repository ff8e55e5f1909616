"""Weil-representation tests.

The operators are pinned three ways: entry formulas for the generators,
a hand-composed big-cell product, and the exchange identities
rho(g) pi(h) rho(g)^-1 = pi(g.h) checked exhaustively over the torus
representative sets used by the dictionary builders.
"""

import numpy as np
import pytest

from oscdict.field import FpField
from oscdict.heisenberg import HeisenbergElement, pi
from oscdict.linalg import phase_table, unitarity_defect
from oscdict.sl2 import (SL2Element, diagonal, nonsplit_tori, sl2_elements,
                         sl2_identity, sl2_inv, sl2_mul,
                         split_representatives, unipotent, weyl_element)
from oscdict.weil import (chirp_table, egorov_defect, fourier_op, rho,
                         scalar_defect)


def scaling_op(field, a):
    """Oracle S_a: the permutation t -> a*t scaled by the sign sigma(a)."""
    p = field.p
    if a % p == 0:
        raise ValueError("scaling by zero")
    m = np.zeros((p, p), dtype=np.complex128)
    cols = np.arange(p)
    m[(a * cols) % p, cols] = field.legendre(a)
    return m


def chirp_op(field, u):
    """Oracle M_u = diag(psi(-(u/2) t^2))."""
    p = field.p
    t = np.arange(p)
    return np.diag(phase_table(p)[(-u * field.half() * t * t) % p])


def split_generators(field):
    """g diag(r, 1/r) g^-1 over R, r the smallest field generator."""
    d = diagonal(field.mult_generator(), field)
    return [sl2_mul(sl2_mul(g, d), sl2_inv(g))
            for g in split_representatives(field)]


def test_scaling_op():
    f = FpField(5)
    S = scaling_op(f, 2)
    # S_a delta_b = sigma(a) delta_{ab}; sigma(2) = -1 at p = 5
    for b in range(5):
        delta = np.zeros(5, dtype=complex)
        delta[b] = 1.0
        out = S @ delta
        assert out[(2 * b) % 5] == -1.0
        assert np.count_nonzero(out) == 1
    assert np.array_equal(scaling_op(f, 1), np.eye(5, dtype=complex))
    with pytest.raises(ValueError, match="zero"):
        scaling_op(f, 0)


def test_scaling_is_representation_of_fp_star():
    f = FpField(7)
    for a in range(1, 7):
        for b in range(1, 7):
            lhs = scaling_op(f, a) @ scaling_op(f, b)
            rhs = scaling_op(f, a * b)
            assert np.array_equal(lhs, rhs)


def test_chirp_op():
    f = FpField(5)
    psi = phase_table(5)
    M = chirp_op(f, 1)
    # -(1/2) t^2 = -3 t^2 = 2 t^2 mod 5 -> diagonal psi(2 t^2)
    want = np.diag(psi[(2 * np.arange(5) ** 2) % 5])
    assert np.array_equal(M, want)
    assert np.array_equal(chirp_op(f, 0), np.eye(5, dtype=complex))
    # chirps add: M_u M_v = M_{u+v}
    for u in range(5):
        for v in range(5):
            assert np.allclose(chirp_op(f, u) @ chirp_op(f, v),
                               chirp_op(f, u + v), atol=1e-15)


def test_chirp_table_is_shared_and_read_only():
    # rho, the builders, the orbit check and OMP's chirp columns all read one
    # cached table per field, so no caller may write to it
    for p in (5, 7, 11, 13):
        f = FpField(p)
        table = chirp_table(f)
        assert chirp_table(FpField(p)) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
        # M_x = rho(U(x)) is the diagonal of row x at t^2, bit for bit
        t2 = np.arange(p) ** 2 % p
        for x in range(p):
            M = rho(unipotent(x, f))
            assert np.array_equal(M, np.diag(np.diag(M)))
            assert np.array_equal(np.diag(M), table[x, t2])
            assert np.array_equal(M, chirp_op(f, x))


def test_fourier_op():
    p = 7
    f = FpField(p)
    F = fourier_op(f)
    psi = phase_table(p)
    assert F[2, 3] == psi[6] / np.sqrt(p)
    assert unitarity_defect(F) < 1e-14
    # F^2 is the parity operator delta_t -> delta_{-t}
    parity = np.zeros((p, p))
    parity[np.arange(p), (-np.arange(p)) % p] = 1.0
    assert np.max(np.abs(F @ F - parity)) < 1e-14
    assert np.max(np.abs(np.linalg.matrix_power(F, 4) - np.eye(p))) < 1e-13


def test_rho_small_cell():
    f = FpField(5)
    assert np.array_equal(rho(sl2_identity(f)), np.eye(5, dtype=complex))
    # diagonal g = diag(a, 1/a) gives exactly S_a
    for a in range(1, 5):
        got = rho(diagonal(a, f))
        assert np.array_equal(got, scaling_op(f, a))
    # lower unipotent [[1,0],[u,1]] gives exactly M_u
    for u in range(5):
        got = rho(unipotent(u, f))
        assert np.array_equal(got, chirp_op(f, u))


def test_rho_weyl_is_fourier():
    for p in (5, 7, 11):
        f = FpField(p)
        assert np.array_equal(rho(weyl_element(f)), fourier_op(f))


def test_rho_big_cell_hand_composition():
    # g = [[a, b], [c, d]] with b != 0 must equal M_{d/b} S_b F M_{a/b}
    f = FpField(7)
    g = SL2Element(3, 2, 4, 3, f)  # det = 9 - 8 = 1
    b_inv = f.inv(2)
    want = (chirp_op(f, 3 * b_inv)
            @ scaling_op(f, 2)
            @ fourier_op(f)
            @ chirp_op(f, 3 * b_inv))
    got = rho(g)
    assert np.max(np.abs(got - want)) < 1e-14
    assert got.dtype == np.complex128


def test_rho_unitary():
    f = FpField(11)
    rng = np.random.default_rng(2)
    els = sl2_elements(f)
    for idx in rng.integers(0, len(els), size=40):
        assert unitarity_defect(rho(els[int(idx)])) < 1e-13


def test_rho_projectively_multiplicative():
    f = FpField(7)
    rng = np.random.default_rng(9)
    els = sl2_elements(f)
    for _ in range(40):
        g = els[int(rng.integers(0, len(els)))]
        h = els[int(rng.integers(0, len(els)))]
        lhs = rho(g) @ rho(h)
        rhs = rho(sl2_mul(g, h))
        assert scalar_defect(lhs, rhs) < 1e-12


def test_scalar_defect():
    A = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert scalar_defect(1j * A, A) == pytest.approx(0.0, abs=1e-15)
    B = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
    assert scalar_defect(B, A) == pytest.approx(0.1)


def spanning_heisenberg_set(field):
    """(1,0,0), (0,1,0), (0,0,1) and a few mixed elements."""
    mixed = [(1, 1, 0), (2, 3, 1), (1, 4, 2)]
    return [HeisenbergElement(t, w, z, field)
            for (t, w, z) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + mixed]


def test_egorov_over_representative_sets():
    # the exchange identity must hold (to rounding) for every conjugator
    # the dictionary builders use: split representatives, their torus
    # generators, the Heisenberg line conjugators, and the non-split
    # generators and conjugators
    for p in (5, 7, 11):
        f = FpField(p)
        conjugators = list(split_representatives(f))
        conjugators += split_generators(f)
        conjugators += [weyl_element(f)]
        conjugators += [SL2Element(1, s, 0, 1, f) for s in range(p)]
        conjugators += [T.generator for T in nonsplit_tori(f)]
        conjugators += [T.conjugator for T in nonsplit_tori(f)]
        hs = spanning_heisenberg_set(f)
        worst = max(egorov_defect(g, h) for g in conjugators for h in hs)
        assert worst < 1e-12


def test_egorov_fourier_swaps_shift_and_modulation():
    # under g = w, conjugation turns a time shift into a modulation
    p = 5
    f = FpField(p)
    F = rho(weyl_element(f))
    shift = pi(HeisenbergElement(3, 0, 0, f))
    mod = pi(HeisenbergElement(0, 2, 0, f))
    got = F @ shift @ F.conj().T
    want = pi(HeisenbergElement(0, 2, 0, f))  # w.(3,0) = (0,-3) = (0,2)
    assert scalar_defect(got, want) < 1e-14
    got = F @ mod @ F.conj().T
    want = pi(HeisenbergElement(2, 0, 0, f))  # w.(0,2) = (2,0)
    assert scalar_defect(got, want) < 1e-14


def test_torus_image_commutes():
    # rho of a commutative subgroup is a commuting family on the nose,
    # not only projectively: the commutator defect is at rounding level
    p = 7
    f = FpField(p)
    for t in (split_generators(f)[3], nonsplit_tori(f)[2].generator):
        gens = [t, sl2_mul(t, t)]
        mats = [rho(g) for g in gens]
        comm = mats[0] @ mats[1] - mats[1] @ mats[0]
        assert np.max(np.abs(comm)) < 1e-13
