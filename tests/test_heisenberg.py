"""Heisenberg group and standard-realization tests.

The homomorphism property pi(h1) pi(h2) = pi(h1 h2) is the load-bearing
fact; it is checked exactly on hand-worked examples and to 1e-12 on
seeded random pairs for several primes.
"""

import numpy as np
import pytest

from oscdict.field import FpField
from oscdict.heisenberg import (HeisenbergElement, h_mul, identity, omega,
                                pi, shift_table, translate_rows)
from oscdict.linalg import phase_table, unitarity_defect


def h_inv(h: HeisenbergElement) -> HeisenbergElement:
    """(v, z)^-1 = (-v, -z): the cocycle term w(v, -v) vanishes."""
    return HeisenbergElement(-h.tau, -h.w, -h.z, h.field)


def test_coordinates_reduced():
    f = FpField(5)
    h = HeisenbergElement(7, -1, 12, f)
    assert (h.tau, h.w, h.z) == (2, 4, 2)
    assert h.v == (2, 4)


def test_omega():
    f = FpField(5)
    assert omega((1, 0), (0, 1), f) == 1
    assert omega((0, 1), (1, 0), f) == 4  # -1 mod 5
    assert omega((2, 3), (2, 3), f) == 0
    for v1 in [(1, 2), (3, 4)]:
        for v2 in [(0, 2), (4, 1)]:
            assert (omega(v1, v2, f) + omega(v2, v1, f)) % 5 == 0


def test_group_law_example():
    # (1,2,0)(3,1,0) at p = 5: z = (1/2) w((1,2),(3,1)) = 3 * (1 - 6) = 3*(-5)=0
    # recompute: omega = 1*1 - 2*3 = -5 = 0 mod 5, so z = 0
    f = FpField(5)
    h = h_mul(HeisenbergElement(1, 2, 0, f), HeisenbergElement(3, 1, 0, f))
    assert (h.tau, h.w, h.z) == (4, 3, 0)
    # (1,0,0)(0,1,0): omega = 1, z = half = 3
    h = h_mul(HeisenbergElement(1, 0, 0, f), HeisenbergElement(0, 1, 0, f))
    assert (h.tau, h.w, h.z) == (1, 1, 3)


def test_identity_and_inverse():
    for p in (5, 7, 11):
        f = FpField(p)
        e = identity(f)
        rng = np.random.default_rng(p)
        for _ in range(20):
            tau, w, z = rng.integers(0, p, size=3)
            h = HeisenbergElement(int(tau), int(w), int(z), f)
            assert h_mul(h, e) == h and h_mul(e, h) == h
            assert h_mul(h, h_inv(h)) == e
            assert h_mul(h_inv(h), h) == e


def test_associativity_random():
    f = FpField(7)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = (HeisenbergElement(*map(int, rng.integers(0, 7, 3)), f)
                   for _ in range(3))
        assert h_mul(h_mul(a, b), c) == h_mul(a, h_mul(b, c))


def test_mismatched_moduli():
    with pytest.raises(ValueError):
        h_mul(identity(FpField(5)), identity(FpField(7)))


def test_pi_identity_and_unitarity():
    for p in (5, 7, 11):
        f = FpField(p)
        assert np.array_equal(pi(identity(f)), np.eye(p, dtype=complex))
        rng = np.random.default_rng(p + 1)
        for _ in range(10):
            h = HeisenbergElement(*map(int, rng.integers(0, p, 3)), f)
            assert unitarity_defect(pi(h)) < 1e-14


def test_pi_shift():
    # (tau, 0, 0) acts by f |-> f(. + tau): pi maps delta_{t+tau} to delta_t
    p = 5
    f = FpField(p)
    M = pi(HeisenbergElement(2, 0, 0, f))
    delta = np.zeros(p, dtype=complex)
    delta[3] = 1.0
    out = M @ delta
    expected = np.zeros(p, dtype=complex)
    expected[1] = 1.0  # 3 = 1 + 2
    assert np.array_equal(out, expected)


def test_pi_modulation():
    # (0, w, 0) is diagonal with entries psi(w t)
    p = 7
    f = FpField(p)
    w = 3
    M = pi(HeisenbergElement(0, w, 0, f))
    psi = phase_table(p)
    assert np.array_equal(M, np.diag(psi[(w * np.arange(p)) % p]))


def test_pi_central_character():
    # (0, 0, z) is the scalar psi(z), exactly
    for p in (5, 11):
        f = FpField(p)
        psi = phase_table(p)
        for z in range(p):
            M = pi(HeisenbergElement(0, 0, z, f))
            assert np.array_equal(M, psi[z] * np.eye(p, dtype=complex))


def test_pi_weyl_commutation():
    # pi(tau,0,0) pi(0,w,0) = psi(omega) pi(0,w,0) pi(tau,0,0)
    # with omega = w((tau,0),(0,w)) = tau * w
    p = 7
    f = FpField(p)
    psi = phase_table(p)
    for tau in range(1, p):
        for w in range(1, p):
            A = pi(HeisenbergElement(tau, 0, 0, f))
            B = pi(HeisenbergElement(0, w, 0, f))
            lhs = A @ B
            rhs = psi[(tau * w) % p] * (B @ A)
            assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_pi_homomorphism_random():
    for p in (5, 7, 11):
        f = FpField(p)
        rng = np.random.default_rng(100 + p)
        for _ in range(200 // p * p):  # a few hundred pairs total
            h1 = HeisenbergElement(*map(int, rng.integers(0, p, 3)), f)
            h2 = HeisenbergElement(*map(int, rng.integers(0, p, 3)), f)
            defect = np.max(np.abs(pi(h1) @ pi(h2) - pi(h_mul(h1, h2))))
            assert defect < 1e-12


def test_pi_entry_formula():
    # spot-check the matrix entries at p = 5, h = (1, 2, 3)
    p = 5
    f = FpField(p)
    h = HeisenbergElement(1, 2, 3, f)
    M = pi(h)
    psi = phase_table(p)
    half = f.half()
    for t in range(p):
        col = (t + 1) % p
        want = psi[(3 - half * 1 * 2 + 2 * col) % p]
        assert M[t, col] == want
        assert np.count_nonzero(M[t]) == 1


def test_translate_rows_is_pi_on_rows():
    # every row is moved by pi(tau, w, 0): rows @ pi.T, one root of unity
    # times one entry per output entry
    p = 7
    f = FpField(p)
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(4, p)) + 1j * rng.normal(size=(4, p))
    for tau in range(p):
        for w in range(p):
            P = pi(HeisenbergElement(tau, w, 0, f))
            got = translate_rows(rows, tau, w, f)
            assert got.shape == rows.shape
            assert np.max(np.abs(got - rows @ P.T)) < 1e-13
    assert np.array_equal(translate_rows(rows, 0, 0, f), rows)


def test_shift_table_is_shared_read_only_and_pi():
    # one read-only table per field; column tau and phase row tau*p + w
    # put exactly pi(tau, w, 0)'s entries on the identity's columns
    p = 7
    f = FpField(p)
    cols, phases = shift_table(f)
    again = shift_table(FpField(p))
    assert again[0] is cols and again[1] is phases
    assert cols.shape == (p, p) and phases.shape == (p * p, p)
    for table in (cols, phases):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    eye = np.eye(p)
    for tau in range(p):
        for w in range(p):
            P = pi(HeisenbergElement(tau, w, 0, f))
            assert np.array_equal(eye[:, cols[tau]] * phases[tau * p + w],
                                  P.T)
