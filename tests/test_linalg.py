"""Linear-algebra layer tests.

The test-only Schur oracle (tests/schur_oracle.py), the clustered unitary
eigendecomposition the other tests compare closed-form bases against, is
exercised against matrices whose spectra are known in closed form
(diagonals, the identity, the finite Fourier matrix) plus a seeded random
unitary for reconstruction.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscdict
from oscdict.dictionary import BUILDERS
from oscdict.linalg import phase_normalize_rows, phase_table, unitarity_defect
from schur_oracle import CLUSTER_TOL, EigenDecomposition, eig_unitary


def fourier_matrix(p):
    t = np.arange(p)
    return phase_table(p)[np.outer(t, t) % p] / np.sqrt(p)


def phase_normalize(v):
    """Reference: rotate one vector so its first largest-magnitude entry
    (ties within 1e-9 relative) is real positive."""
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v.copy()
    idx = int(np.nonzero(mags >= top * (1.0 - 1e-9))[0][0])
    pivot = v[idx]
    return v * (abs(pivot) / pivot)


def normalize_row(v):
    return phase_normalize_rows(v[None, :])[0]


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_phase_table():
    for p in (5, 7, 11):
        z = phase_table(p)
        assert z.shape == (p,)
        assert z[0] == 1.0
        assert abs(z.sum()) < 1e-12
        assert np.allclose(np.abs(z), 1.0)
        assert abs(z[1] ** p - 1.0) < 1e-12


def test_unitarity():
    assert unitarity_defect(np.eye(4, dtype=complex)) == 0.0
    U = random_unitary(6, seed=1)
    assert unitarity_defect(U) < 1e-13


def test_phase_normalize():
    v = np.array([0.0, 2.0j])
    w = normalize_row(v)
    assert np.allclose(w, [0.0, 2.0])
    # ties go to the smallest index
    v = np.array([1.0j, -1.0j])
    w = normalize_row(v)
    assert np.allclose(w, [1.0, -1.0])
    # already-normalized vectors are fixed points
    assert np.allclose(normalize_row(w), w)
    # zero vector passes through, as a copy
    z = np.zeros(3, dtype=complex)
    out = normalize_row(z)
    assert np.array_equal(out, z) and out is not z
    # norm is preserved
    rng = np.random.default_rng(7)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = normalize_row(v)
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v))
    assert w[np.argmax(np.abs(w))].imag == pytest.approx(0.0, abs=1e-15)


def test_phase_normalize_rows_matches_vector_version():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
    M[4] = 0.0
    R = phase_normalize_rows(M)
    for i in range(M.shape[0]):
        assert np.allclose(R[i], phase_normalize(M[i]), atol=1e-14)


def test_eig_identity():
    dec = eig_unitary(np.eye(5, dtype=complex))
    assert len(dec.bases) == 1
    assert dec.multiplicities == [5]
    assert dec.eigenvalues[0] == pytest.approx(1.0)
    B = dec.bases[0]
    assert np.allclose(B.conj().T @ B, np.eye(5), atol=1e-12)


def test_eig_diagonal_distinct():
    p = 5
    lams = phase_table(p)
    perm = np.array([2, 0, 4, 1, 3])
    A = np.diag(lams[perm])
    dec = eig_unitary(A)
    assert dec.multiplicities == [1] * p
    # clusters come back ordered by angle
    assert np.allclose(dec.eigenvalues, lams, atol=1e-12)
    # eigenvectors of a diagonal matrix are deltas, with positive pivot
    for lam, basis in zip(dec.eigenvalues, dec.bases):
        j = int(np.argmin(np.abs(lams[perm] - lam)))
        delta = np.zeros(p)
        delta[j] = 1.0
        assert np.allclose(basis[:, 0], delta, atol=1e-12)


def test_eig_eigenvector_property_and_reconstruct():
    for seed in (0, 3):
        U = random_unitary(8, seed=seed)
        dec = eig_unitary(U)
        assert sum(dec.multiplicities) == 8
        V = dec.vectors()
        assert V.shape == (8, 8)
        assert np.allclose(V.conj().T @ V, np.eye(8), atol=1e-10)
        for lam, basis in zip(dec.eigenvalues, dec.bases):
            assert np.max(np.abs(U @ basis - lam * basis)) < 1e-9
        assert np.max(np.abs(dec.reconstruct() - U)) < 1e-9


def test_eig_fourier_multiplicities():
    # F^4 = I, so eigenvalues are fourth roots of unity; at p = 5 the
    # eigenvalue 1 appears twice and the others once each.
    dec = eig_unitary(fourier_matrix(5))
    assert sorted(dec.multiplicities) == [1, 1, 1, 2]
    assert np.allclose(dec.eigenvalues ** 4, 1.0, atol=1e-10)
    k = dec.multiplicities.index(2)
    assert dec.eigenvalues[k] == pytest.approx(1.0)


def test_eig_merges_tight_cluster():
    theta = 3e-9  # chordal distance below the cluster tolerance
    A = np.diag([1.0, np.exp(1j * theta), -1.0]).astype(complex)
    dec = eig_unitary(A)
    assert dec.multiplicities == [2, 1]


def test_eig_rejects_ambiguous_gap():
    theta = 5e-8  # between tol and 10*tol: neither merged nor separated
    A = np.diag([1.0, np.exp(1j * theta), -1.0]).astype(complex)
    with pytest.raises(ValueError, match="spectral gap"):
        eig_unitary(A)


def test_eig_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        eig_unitary(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_eig_wraparound_cluster():
    # eigenvalues straddling angle 0 still land in a single cluster
    eps = 2e-9
    A = np.diag([np.exp(1j * eps), np.exp(-1j * eps), 1.0j]).astype(complex)
    dec = eig_unitary(A)
    assert dec.multiplicities == [2, 1]
    assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-6)


def test_eig_eigenvalue_one_ranks_first():
    # an eigenvalue 1 rounded to angle -1e-15 is angle 0, not 2pi - 1e-15
    p = 5
    dec = eig_unitary(np.diag(phase_table(p) * np.exp(-1e-15j)))
    assert dec.multiplicities == [1] * p
    assert np.allclose(dec.eigenvalues, phase_table(p), atol=1e-12)


def test_cluster_tol_exported():
    assert 0 < CLUSTER_TOL < 1e-6
    assert isinstance(eig_unitary(np.eye(2, dtype=complex)),
                      EigenDecomposition)


def test_no_build_loads_scipy():
    # the package has no eigensolver, so importing it and building every
    # kind, the non-split and union families included, never loads scipy
    code = "\n".join((
        "import json, sys",
        "import oscdict, oscdict.cli",
        "from oscdict.dictionary import BUILDERS",
        "from oscdict.field import FpField",
        "built = [d.kind for d in (b(FpField(7)) for b in BUILDERS.values())]",
        "print(json.dumps([built, sorted(m for m in sys.modules",
        "                  if m == 'scipy' or m.startswith('scipy.'))]))",
    ))
    src = str(Path(oscdict.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    built, loaded = json.loads(out.stdout)
    assert built == list(BUILDERS)
    assert {"oscillator_nonsplit", "oscillator"} <= set(built)
    assert loaded == []
