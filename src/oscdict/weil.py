"""The Weil representation of SL_2(F_p) on C^p, as explicit unitaries.

Three building blocks generate everything:

* ``S_a`` — signed scaling, (S_a f)(t) = sigma(a) f(t / a) with sigma the
  Legendre character;
* ``M_u`` — chirp, multiplication by psi(-(u/2) t^2), read from row u of
  ``chirp_table`` at t^2, the one chirp table the builders and OMP share;
* ``F``   — the unitary DFT with kernel psi(w t) / sqrt(p).

An arbitrary g is synthesized through its Bruhat factorization,
rho(g) = M_{u2} S_a (small cell) or M_{u2} S_a F M_{u1} (big cell).
Each block conjugates the Heisenberg operators pi(h) exactly to
pi(g.h), so the composite does too; rho is multiplicative only up to a
unimodular scalar, and everything downstream is phase-invariant, so no
scalar correction is attempted.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import FpField
from .heisenberg import HeisenbergElement, pi
from .linalg import phase_table
from .sl2 import SL2Element, bruhat, sp_action


@functools.lru_cache(maxsize=8)
def chirp_table(field: FpField) -> np.ndarray:
    """Entry (x, s) is psi(-(x/2) s), so the chirp M_x = rho(U(x))
    multiplies entry t of a signal by row x at s = t^2.

    Built once per field and shared by every caller, so it is read-only.
    """
    t = np.arange(field.p)
    table = phase_table(field.p)[np.outer(t, -field.half() * t) % field.p]
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=8)
def fourier_op(field: FpField) -> np.ndarray:
    """F[w, t] = psi(w t) / sqrt(p), the unitary finite Fourier transform.

    Built once per field and shared by every caller, so it is read-only.
    """
    p = field.p
    grid = np.outer(np.arange(p), np.arange(p)) % p
    F = phase_table(p)[grid] / np.sqrt(p)
    F.setflags(write=False)
    return F


def rho(g: SL2Element) -> np.ndarray:
    """The Weil matrix of g, composed through its Bruhat cell.

    Assembled in O(p^2): the chirps are diagonal scalings and S_a is a
    signed row permutation, so only F ever contributes a dense block.
    """
    field = g.field
    p = field.p
    fac = bruhat(g)
    t2 = np.arange(p) ** 2 % p
    sign = field.legendre(fac.a)
    rows = (fac.a * np.arange(p)) % p
    if fac.cell == "small":
        m = np.zeros((p, p), dtype=np.complex128)
        m[rows, np.arange(p)] = sign
    else:
        m = np.empty((p, p), dtype=np.complex128)
        m[rows] = sign * (fourier_op(field) * chirp_table(field)[fac.u1, t2])
    m *= chirp_table(field)[fac.u2, t2][:, None]
    return m


def scalar_defect(left: np.ndarray, right: np.ndarray) -> float:
    """min over unimodular lambda of ||left - lambda*right||_max, with
    lambda read off at right's largest-magnitude entry."""
    idx = np.unravel_index(np.argmax(np.abs(right)), right.shape)
    lam = left[idx] / right[idx]
    mag = abs(lam)
    lam = lam / mag if mag > 1e-12 else 1.0
    return float(np.max(np.abs(left - lam * right)))


def egorov_defect(g: SL2Element, h: HeisenbergElement) -> float:
    """How far rho(g) pi(h) rho(g)^-1 is from pi(g.h), modulo a phase.

    Zero (to rounding) for every g and h: the generator-level exchange
    identities are exact, so conjugation transports pi along the plane
    action of g with scalar 1.
    """
    r = rho(g)
    left = r @ pi(h) @ r.conj().T
    right = pi(sp_action(g, h))
    return scalar_defect(left, right)
