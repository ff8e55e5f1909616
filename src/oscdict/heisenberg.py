"""The finite Heisenberg group H = F_p^2 x F_p and its standard representation.

Group law (v, z)(v', z') = (v + v', z + z' + (1/2) w(v, v')) with the
symplectic form w((tau,w),(tau',w')) = tau w' - w tau'.  The standard
realization acts on C(F_p) by time shifts, modulations and central
phases psi(z) = exp(2 pi i z / p); a general element is synthesized as

    pi(tau, w, z) = psi(z) psi(-(1/2) tau w) . (translate by tau) . (modulate by w)

where the cocycle factor psi(-(1/2) tau w) is exactly what makes
pi(h1) pi(h2) = pi(h1 h2) hold with no scalar slack.

The plane shifts pi(tau, w, 0) have one owner, ``shift_table``: a cached,
read-only table per field of the column each shift reads and the phase it
multiplies by.  ``translate_rows``, the sampled shifted coherence scan and
the extended dictionary build read it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .field import FpField
from .linalg import phase_table


@dataclass(frozen=True)
class HeisenbergElement:
    """(tau, w, z) with all coordinates reduced mod p."""

    tau: int
    w: int
    z: int
    field: FpField

    def __post_init__(self):
        p = self.field.p
        object.__setattr__(self, "tau", self.tau % p)
        object.__setattr__(self, "w", self.w % p)
        object.__setattr__(self, "z", self.z % p)

    @property
    def v(self) -> tuple:
        return (self.tau, self.w)


def identity(field: FpField) -> HeisenbergElement:
    return HeisenbergElement(0, 0, 0, field)


def omega(v1: tuple, v2: tuple, field: FpField) -> int:
    """Standard symplectic form tau w' - w tau' on the plane F_p^2."""
    return (v1[0] * v2[1] - v1[1] * v2[0]) % field.p


def h_mul(h1: HeisenbergElement, h2: HeisenbergElement) -> HeisenbergElement:
    if h1.field != h2.field:
        raise ValueError("mismatched moduli")
    f = h1.field
    half = f.half()
    z = (h1.z + h2.z + half * omega(h1.v, h2.v, f)) % f.p
    return HeisenbergElement(h1.tau + h2.tau, h1.w + h2.w, z, f)


def pi(h: HeisenbergElement) -> np.ndarray:
    """The p x p unitary of the standard realization.

    Entry-wise: pi(h)[t, t + tau] = psi(z - (1/2) tau w + w (t + tau)),
    all other entries zero.  Every entry is an exact root of unity, so
    the homomorphism property holds to machine precision.
    """
    f = h.field
    p = f.p
    psi = phase_table(p)
    half = f.half()
    t = np.arange(p)
    cols = (t + h.tau) % p
    phases = psi[(h.z - half * h.tau * h.w + h.w * cols) % p]
    M = np.zeros((p, p), dtype=complex)
    M[t, cols] = phases
    return M


@functools.lru_cache(maxsize=8)
def shift_table(field: FpField) -> tuple:
    """(cols, phases) of the plane shifts pi(tau, w, 0), so that entry t
    of rows @ pi(tau, w, 0).T is row[cols[tau, t]] * phases[tau*p + w, t].

    cols[tau, t] = (t + tau) mod p (p x p) and phases[tau*p + w, t] =
    psi(-(1/2) tau w + w cols[tau, t]) (p^2 x p, 16 p^3 bytes).  Built
    once per field on first use and shared by every caller, so both
    arrays are read-only.
    """
    p = field.p
    t = np.arange(p)
    cols = (t[None, :] + t[:, None]) % p
    tau, w = np.divmod(np.arange(p * p), p)
    phases = phase_table(p)[(-field.half() * (tau * w)[:, None]
                             + w[:, None] * cols[tau]) % p]
    cols.setflags(write=False)
    phases.setflags(write=False)
    return cols, phases


def translate_rows(rows: np.ndarray, tau: int, w: int,
                   field: FpField) -> np.ndarray:
    """rows @ pi(tau, w, 0).T as a new complex array: entry t of each row
    becomes psi(-(1/2) tau w + w (t + tau)) row[t + tau]."""
    p = field.p
    cols, phases = shift_table(field)
    tau, w = tau % p, w % p
    return rows[:, cols[tau]] * phases[tau * p + w]
