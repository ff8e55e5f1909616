"""A clustered Schur eigendecomposition of unitary matrices, for tests only.

The package builds every eigenbasis in closed form; this general solver
is the independent oracle the tests compare those bases against.  It
needs scipy, which is a test dependency only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from oscdict.linalg import phase_normalize_rows, unitarity_defect

UNITARY_TOL = 1e-10
CLUSTER_TOL = 1e-8


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
    if A.shape[0] != A.shape[1] or unitarity_defect(A) > UNITARY_TOL:
        raise ValueError("eig_unitary requires a unitary matrix "
                         f"(defect {unitarity_defect(A):.2e})")
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
