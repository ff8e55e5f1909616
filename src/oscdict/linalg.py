"""Dense complex linear algebra for length-p signals and p x p operators.

Signals are 1-d complex128 arrays indexed by t in F_p; operators are
p x p complex128 arrays.  The one nontrivial routine is ``eig_unitary``:
an eigendecomposition of a unitary matrix into eigenvalue clusters with
orthonormal eigenspace bases and a deterministic phase convention, which
is what turns commuting operator families into reproducible dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10
UNIT_NORM_TOL = 1e-12
CLUSTER_TOL = 1e-8
PIVOT_TIE_TOL = 1e-9  # relative gap below a row maximum that still ties


def phase_table(p: int) -> np.ndarray:
    """exp(2 pi i k / p) for k = 0..p-1; all roots of unity come from here."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def unitarity_defect(A: np.ndarray) -> float:
    """max-norm of A A* - I."""
    n = A.shape[0]
    return float(np.max(np.abs(A @ A.conj().T - np.eye(n))))


def is_unitary(A: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    return A.shape[0] == A.shape[1] and unitarity_defect(A) <= tol


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


@dataclass(frozen=True)
class EigenDecomposition:
    """Clustered spectrum of a unitary matrix.

    eigenvalues[i] is the (unit-circle) representative of cluster i,
    bases[i] the orthonormal eigenspace basis as columns of a p x m_i
    array, with sum(multiplicities) = p.  Clusters are ordered by
    eigenvalue angle in [0, 2pi), a cluster within the clustering
    tolerance of 1 counting as angle 0 whatever the sign of its rounding.
    """

    eigenvalues: np.ndarray
    bases: list
    multiplicities: list

    def vectors(self) -> np.ndarray:
        """All eigenvectors, cluster by cluster, as columns."""
        return np.hstack(self.bases)

    def reconstruct(self) -> np.ndarray:
        acc = np.zeros((self.bases[0].shape[0],) * 2, dtype=complex)
        for lam, basis in zip(self.eigenvalues, self.bases):
            acc += lam * (basis @ basis.conj().T)
        return acc


def _cluster_unit_circle(lams: np.ndarray, tol: float):
    """Group unit-modulus values whose chordal distance is <= tol.

    Works on angle-sorted values, merging adjacent ones and handling the
    wrap-around at angle 0.  Returns a list of index arrays.
    """
    order = np.argsort(np.angle(lams) % (2 * np.pi))
    sorted_lams = lams[order]
    groups = [[0]]
    for i in range(1, len(sorted_lams)):
        if abs(sorted_lams[i] - sorted_lams[groups[-1][-1]]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) > 1 and abs(sorted_lams[0] - sorted_lams[-1]) <= tol:
        groups[0] = groups.pop() + groups[0]
    return [order[g] for g in groups]


def eig_unitary(A: np.ndarray, tol: float = CLUSTER_TOL) -> EigenDecomposition:
    """Eigendecompose a unitary matrix into well-separated clusters.

    Uses the complex Schur form: for a normal matrix the Schur factor is
    diagonal up to roundoff, so the (exactly orthonormal) Schur vectors
    are an orthonormal eigenbasis.  Computed eigenvalues within ``tol``
    of each other are merged into one eigenspace; if two resulting
    clusters are closer than 10x ``tol`` the split is ambiguous and we
    refuse rather than guess.
    """
    if not is_unitary(A):
        raise ValueError("eig_unitary requires a unitary matrix "
                         f"(defect {unitarity_defect(A):.2e})")
    # scipy.linalg takes ~0.3 s to import and only the non-split build
    # eigensolves, so it loads on first use rather than with the package
    import scipy.linalg
    T, Z = scipy.linalg.schur(A, output="complex")
    lams = np.diag(T)

    groups = _cluster_unit_circle(lams, tol)
    reps = np.array([np.mean(lams[g]) for g in groups])
    reps /= np.abs(reps)

    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i] - reps[j]) < 10 * tol:
                raise ValueError("spectral gap too small: eigenvalue clusters "
                                 f"{reps[i]:.6f} and {reps[j]:.6f} nearly merge")

    # shift by tol so an eigenvalue 1 rounded to angle -1e-16 ranks first
    order = np.argsort((np.angle(reps) + tol) % (2 * np.pi))
    Z = phase_normalize_rows(Z.T).T
    bases = [Z[:, np.sort(groups[k])] for k in order]
    return EigenDecomposition(
        eigenvalues=reps[order],
        bases=bases,
        multiplicities=[b.shape[1] for b in bases],
    )
