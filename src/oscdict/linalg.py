"""Dense complex linear algebra for length-p signals and p x p operators.

Signals are 1-d complex128 arrays indexed by t in F_p; operators are
p x p complex128 arrays.  Besides the roots of unity and the unitarity
defect, this is the deterministic phase convention every atom shares:
each row is rotated so its first largest-magnitude entry is real
positive, which makes the dictionaries reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

UNIT_NORM_TOL = 1e-12
PIVOT_TIE_TOL = 1e-9  # relative gap below a row maximum that still ties


def phase_table(p: int) -> np.ndarray:
    """exp(2 pi i k / p) for k = 0..p-1; all roots of unity come from here."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def unitarity_defect(A: np.ndarray) -> float:
    """max-norm of A A* - I."""
    n = A.shape[0]
    return float(np.max(np.abs(A @ A.conj().T - np.eye(n))))


def phase_pivots(M: np.ndarray) -> np.ndarray:
    """Column of each row's first largest-magnitude entry.

    Magnitudes within PIVOT_TIE_TOL relative of the row maximum count as
    ties, which go to the smallest index, so the choice is stable against
    last-ulp noise.
    """
    mags = np.abs(M)
    top = mags.max(axis=1, keepdims=True)
    return (mags >= top * (1.0 - PIVOT_TIE_TOL)).argmax(axis=1)


def phase_normalize_rows(M: np.ndarray) -> np.ndarray:
    """Rotate every row of M so its phase pivot is real positive; zero
    rows pass through."""
    pivot = M[np.arange(M.shape[0]), phase_pivots(M)]
    scale = np.ones(M.shape[0], dtype=np.complex128)
    nz = pivot != 0
    scale[nz] = np.abs(pivot[nz]) / pivot[nz]
    return M * scale[:, None]
