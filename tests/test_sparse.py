"""Sparse synthesis and recovery tests.

OMP is exercised inside its exact-recovery regime k < (1 + 1/mu)/2
(for the p+1-line dictionary mu = 1/sqrt(p), so k can grow with p) and
at the boundaries: empty signals, single atoms, duplicated atoms that
must trip the ill-conditioned guard.
"""

import numpy as np
import pytest

from oscdict.dictionary import Dictionary, heisenberg_dictionary
from oscdict.field import FpField
from oscdict.sparse import (RecoveryError, RecoveryReport,
                            SparseRepresentation, omp, recovery_experiment,
                            synthesize, thresholding)


def test_synthesize():
    d = heisenberg_dictionary(FpField(5))
    f = synthesize(d, [0, 7], [2.0, -1.0j])
    assert np.allclose(f, 2.0 * d.vectors[0] - 1.0j * d.vectors[7])
    # orthonormal atoms satisfy Pythagoras: atoms 5..9 are the deltas
    g = synthesize(d, [5, 6], [3.0, 4.0])
    assert np.linalg.norm(g) == pytest.approx(5.0)
    with pytest.raises(ValueError, match="length"):
        synthesize(d, [0, 1], [1.0])
    with pytest.raises(IndexError):
        synthesize(d, [len(d)], [1.0])
    with pytest.raises(IndexError):
        synthesize(d, [-1], [1.0])


def test_omp_single_atom():
    d = heisenberg_dictionary(FpField(7))
    for i in (0, 13, 41):
        f = (0.5 - 2.0j) * d.vectors[i]
        rep = omp(d, f, max_support=1)
        assert rep.support == [i]
        assert rep.coefficients[0] == pytest.approx(0.5 - 2.0j, abs=1e-12)
        assert rep.residual_norm < 1e-12


def test_omp_zero_signal():
    d = heisenberg_dictionary(FpField(5))
    rep = omp(d, np.zeros(5, dtype=complex), max_support=3)
    assert rep.support == []
    assert rep.residual_norm == 0.0


def test_omp_argument_errors():
    d = heisenberg_dictionary(FpField(5))
    with pytest.raises(ValueError, match="max_support"):
        omp(d, np.zeros(5, dtype=complex), max_support=0)


def test_omp_in_regime_exact_recovery():
    # p = 29: mu = 1/sqrt(29), (1 + sqrt(29))/2 = 3.19 -> k <= 3 guaranteed
    p = 29
    d = heisenberg_dictionary(FpField(p))
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        for _ in range(10):
            support = sorted(rng.choice(len(d), size=k, replace=False)
                             .tolist())
            coeffs = np.exp(2j * np.pi * rng.random(k))
            f = synthesize(d, support, coeffs)
            rep = omp(d, f, max_support=k)
            assert sorted(rep.support) == support
            got = dict(zip(rep.support, rep.coefficients))
            for i, c in zip(support, coeffs):
                assert abs(got[i] - c) < 1e-10
            assert rep.residual_norm < 1e-9


def test_omp_residual_orthogonal_to_selection():
    # after each refit the residual is orthogonal to the span picked so far
    p = 11
    d = heisenberg_dictionary(FpField(p))
    rng = np.random.default_rng(2)
    f = rng.normal(size=p) + 1j * rng.normal(size=p)
    rep = omp(d, f, max_support=4, residual_tol=0.0)
    residual = f - rep.coefficients @ d.vectors[rep.support]
    assert rep.residual_norm == pytest.approx(np.linalg.norm(residual))
    for i in rep.support:
        assert abs(np.vdot(d.vectors[i], residual)) < 1e-8


def test_omp_respects_residual_tol():
    d = heisenberg_dictionary(FpField(11))
    f = 1.0 * d.vectors[3] + 1e-6 * d.vectors[30]
    rep = omp(d, f, max_support=5, residual_tol=1e-3)
    assert rep.support == [3]  # second atom is below the tolerance


def test_omp_duplicate_atoms_trip_guard():
    p = 5
    base = heisenberg_dictionary(FpField(p))
    V = np.vstack([base.vectors[0], base.vectors[0], base.vectors[7]])
    d = Dictionary("heisenberg", p, V, [0, 1, 2], [0, 0, 0])
    f = V[0] + 0.5 * V[2]
    # the duplicated atom can be picked twice only through the refit,
    # which must detect the dependent selection
    with pytest.raises(RecoveryError, match="ill-conditioned"):
        thresholding(d, f, max_support=2)


def test_thresholding_baseline():
    d = heisenberg_dictionary(FpField(11))
    f = synthesize(d, [4, 60], [1.0, 1.0j])
    rep = thresholding(d, f, max_support=2)
    assert rep.support == [4, 60]  # sorted support
    got = dict(zip(rep.support, rep.coefficients))
    assert got[4] == pytest.approx(1.0, abs=1e-10)
    assert got[60] == pytest.approx(1.0j, abs=1e-10)
    assert rep.residual_norm < 1e-10
    with pytest.raises(ValueError, match="max_support"):
        thresholding(d, f, max_support=0)


def test_recovery_experiment_all_succeed():
    p = 13
    d = heisenberg_dictionary(FpField(p))
    rep = recovery_experiment(d, sparsity=1, trials=40, seed=5)
    assert isinstance(rep, RecoveryReport)
    assert rep.successes == 40
    assert rep.success_rate == 1.0
    assert rep.failed_trials == []
    assert rep.coef_max_error < 1e-10
    assert rep.coef_median_error <= rep.coef_max_error
    payload = rep.to_dict()
    assert payload["success_rate"] == 1.0
    assert payload["sparsity"] == 1


def test_recovery_experiment_reproducible():
    d = heisenberg_dictionary(FpField(11))
    a = recovery_experiment(d, sparsity=2, trials=25, seed=9)
    b = recovery_experiment(d, sparsity=2, trials=25, seed=9)
    assert a.successes == b.successes
    assert a.coef_max_error == b.coef_max_error
    assert a.failed_trials == b.failed_trials


def test_recovery_experiment_counts_recovery_errors_as_failures():
    p = 5
    base = heisenberg_dictionary(FpField(p))
    V = np.vstack([base.vectors[:3], base.vectors[0:1]])  # dup of atom 0
    d = Dictionary("heisenberg", p, V, [0, 0, 0, 1], [0, 1, 2, 0])

    def always_dependent(dictionary, f, max_support):
        raise RecoveryError("ill-conditioned support")

    rep = recovery_experiment(d, sparsity=2, trials=6, seed=0,
                              algorithm=always_dependent)
    assert rep.successes == 0
    assert rep.failed_trials == list(range(6))
    assert np.isnan(rep.coef_max_error)


def test_recovery_experiment_validates_sparsity():
    d = heisenberg_dictionary(FpField(5))
    with pytest.raises(ValueError, match="sparsity"):
        recovery_experiment(d, sparsity=0, trials=1)


def test_recovery_experiment_validates_trials_and_support_size():
    d = heisenberg_dictionary(FpField(5))  # 30 atoms
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            recovery_experiment(d, sparsity=2, trials=trials)
    with pytest.raises(ValueError, match="sparsity"):
        recovery_experiment(d, sparsity=31, trials=1)
    assert recovery_experiment(d, sparsity=30, trials=1).trials == 1


def test_sparse_representation_fields():
    rep = SparseRepresentation([1, 2], np.array([1.0, 2.0j]), 0.0)
    assert rep.support == [1, 2]
    assert rep.residual_norm == 0.0
