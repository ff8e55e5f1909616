"""The measured chirp-orbit defect of a dictionary's atoms, for tests only.

A dictionary that declares its orbits (``Dictionary.orbits``) takes its
orbit defect from the rounding bound of ``dictionary.chirp_orbit``,
which wrote them, and never reads its atoms for it.  This fit of every
orbit atom against its seed row is the independent measurement that
bound must cover.
"""

from __future__ import annotations

import numpy as np

from oscdict.field import FpField
from oscdict.weil import chirp_table


def measured_orbit_defect(d) -> float:
    """The largest residual norm of the chirp-orbit fit over the atoms
    of the orbits d declares.

    Row r of group (j, x) should be a unimodular phase times chirp_x *
    (row r of group (j, 0)), chirp_x[t] = psi(-(x/2) t^2).  Both are
    unchirped, and the phase is the one that best fits the row to its
    seed row.
    """
    p = d.prime
    t = np.arange(p)
    unchirp = chirp_table(FpField(p))[:, t * t % p].conj()[:, None, :]
    worst, lo = 0.0, 0
    for m in d.orbits.tolist():
        q = d.vectors[lo:lo + p * m].reshape(p, m, p) * unchirp
        fit = np.einsum("rt,xrt->xr", q[0].conj(), q)
        mag = np.abs(fit)
        phase = np.divide(fit, mag, out=np.ones_like(fit), where=mag > 0)
        residual = q - phase[:, :, None] * q[0]
        worst = max(worst, float(np.linalg.norm(residual, axis=2).max()))
        lo += p * m
    return worst
