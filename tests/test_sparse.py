"""Sparse synthesis and recovery tests.

OMP is exercised inside its exact-recovery regime k < (1 + 1/mu)/2
(for the p+1-line dictionary mu = 1/sqrt(p), so k can grow with p) and
at the boundaries: empty signals, single atoms, duplicated atoms that
must trip the ill-conditioned guard.  On chirp-orbit dictionaries OMP
takes its correlations from the seed rows; a copy of the dense loop is
the oracle it must match bit for bit, near ties included.
"""

import json
from functools import cache

import numpy as np
import pytest

from oscdict import dictionary as dictionary_module
from oscdict.analysis import coherence
from oscdict.dictionary import (Dictionary, extended_dictionary,
                                heisenberg_dictionary, nonsplit_oscillator,
                                oscillator_dictionary, split_oscillator)
from oscdict.field import FpField
from oscdict.sparse import (RecoveryError, RecoveryReport,
                            SparseRepresentation, _best_atom, _least_squares,
                            omp, orbit_correlations, recovery_experiment,
                            synthesize)
from oscdict.storage import load_dictionary, save_dictionary
from test_analysis import _union_with_tail


def test_synthesize():
    d = heisenberg_dictionary(FpField(5))
    f = synthesize(d, [0, 7], [2.0, -1.0j])
    assert np.allclose(f, 2.0 * d.vectors[0] - 1.0j * d.vectors[7])
    # orthonormal atoms satisfy Pythagoras: atoms 5..9 are line (1, 1)
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
    f = V[0] + 0.5 * V[2]
    # a support holding one atom twice is dependent, and the refit that
    # follows every OMP pick must detect it
    with pytest.raises(RecoveryError, match="ill-conditioned"):
        _least_squares(V[[0, 1]], f)
    assert np.allclose(_least_squares(V[[0, 2]], f), [1.0, 0.5])


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


def _dense_omp(dictionary, f, max_support):
    """The dense OMP loop: |V r*| over every atom at every step."""
    f = np.asarray(f, dtype=np.complex128)
    V = dictionary.vectors
    norm_f = float(np.linalg.norm(f))
    tol = 1e-9 * norm_f
    support = []
    coeffs = np.zeros(0, dtype=np.complex128)
    residual = f.copy()
    while len(support) < max_support and np.linalg.norm(residual) > tol:
        corr = np.abs(V @ residual.conj())
        corr[support] = 0.0
        best = int(np.argmax(corr))
        if corr[best] <= 1e-14 * max(norm_f, 1.0):
            break
        support.append(best)
        coeffs = _least_squares(V[support], f)
        residual = f - coeffs @ V[support]
    return SparseRepresentation(support, coeffs,
                                float(np.linalg.norm(residual)))


def _assert_same(got, want):
    assert got.support == want.support
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.residual_norm == want.residual_norm


_ORBIT_BUILDERS = (split_oscillator, nonsplit_oscillator,
                   oscillator_dictionary, heisenberg_dictionary)


@cache
def _built(builder, p):
    return builder(FpField(p))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("builder", _ORBIT_BUILDERS)
@pytest.mark.parametrize("reload", [False, True])
def test_orbit_omp_matches_dense_oracle(builder, p, reload, tmp_path):
    d = _built(builder, p)
    if reload:
        save_dictionary(d, str(tmp_path / "d"))
        d = load_dictionary(str(tmp_path / "d"))
    assert d.orbit_defect is not None
    rng = np.random.default_rng([p, len(d)])
    for k in (1, 2, 3):
        for _ in range(4):
            support = rng.choice(len(d), size=k, replace=False)
            f = synthesize(d, support, np.exp(2j * np.pi * rng.random(k)))
            _assert_same(omp(d, f, max_support=k), _dense_omp(d, f, k))
        # a signal no k atoms span: every step has a residual to match
        f = rng.normal(size=p) + 1j * rng.normal(size=p)
        _assert_same(omp(d, f, max_support=k), _dense_omp(d, f, k))
        want = recovery_experiment(d, k, 12, seed=p, algorithm=_dense_omp)
        got = recovery_experiment(d, k, 12, seed=p)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


@pytest.mark.parametrize("builder", _ORBIT_BUILDERS)
def test_orbit_correlations_match_dense(builder):
    d = _built(builder, 13)
    rng = np.random.default_rng(4)
    r = rng.normal(size=13) + 1j * rng.normal(size=13)
    corr = orbit_correlations(d, r)
    assert np.max(np.abs(corr - np.abs(d.vectors @ r.conj()))) \
        <= 1e-14 * np.linalg.norm(r)


@pytest.mark.parametrize("builder", _ORBIT_BUILDERS)
def test_orbit_omp_near_ties_pick_the_dense_atom(builder):
    # f = a_i + a_j correlates equally with a_i and a_j, so where they
    # lead, rounding alone decides; the pick must be the one |V r*| makes
    d = _built(builder, 11)
    g = d.group_ids
    rng = np.random.default_rng(8)
    ties = 0
    for _ in range(60):
        i, j = sorted(rng.choice(len(d), size=2, replace=False).tolist())
        if g[i] == g[j]:
            continue
        f = d.vectors[i] + d.vectors[j]
        want = _dense_omp(d, f, 2)
        ties += want.support[0] in (i, j)
        _assert_same(omp(d, f, max_support=2), want)
    assert ties >= 10


def test_orbit_omp_floor_matches_dense():
    # one atom scaled to about the stopping floor 1e-14: whether OMP stops
    # is decided at the last bit, exactly as in the dense loop
    d = _built(split_oscillator, 11)
    for c in (0.5e-14, np.nextafter(1e-14, 0), 1e-14,
              np.nextafter(1e-14, 1), 2e-14):
        for i in (0, 17, len(d) - 1):
            f = c * d.vectors[i]
            _assert_same(omp(d, f, max_support=2), _dense_omp(d, f, 2))


def _damaged_union(field):
    """The oscillator union with one entry of one atom of group 1 moved by
    1e-6, so its groups are no chirp orbit."""
    d = oscillator_dictionary(field)
    V = d.vectors.copy()
    V[d.group_slice(1).start + 1, 0] += 1e-6
    return Dictionary(d.kind, d.prime, V, d.group_ids, d.member_ids)


def _old_layout_heisenberg(field):
    """Heisenberg lines with the deltas second, as bundles of phase
    convention 3 kept them: groups [0, p, 1, ..., p-1] of today's."""
    d = heisenberg_dictionary(field)
    p = field.p
    order = np.concatenate([np.arange(p), np.arange(p * p, p * p + p),
                            np.arange(p, p * p)])
    return Dictionary(d.kind, p, d.vectors[order],
                      np.repeat(np.arange(p + 1), p), d.member_ids[order])


def test_non_orbit_layouts_take_the_dense_path():
    f = FpField(5)
    no_field = Dictionary("oscillator", 9, np.eye(9), range(9), [0] * 9)
    rng = np.random.default_rng(3)
    for d in (_damaged_union(f), _old_layout_heisenberg(f),
              extended_dictionary(oscillator_dictionary(f)), no_field):
        assert d.orbit_defect is None and d.orbit_seeds is None
        signal = rng.normal(size=d.prime) + 1j * rng.normal(size=d.prime)
        assert orbit_correlations(d, signal) is None
        for k in (1, 3):
            _assert_same(omp(d, signal, max_support=k),
                         _dense_omp(d, signal, k))


def test_orbit_check_runs_once_per_dictionary(monkeypatch):
    # a hand-made dictionary over built arrays measures its orbit defect,
    # once, however many scans and OMP runs read it
    runs = []
    check = dictionary_module._orbit_defect

    def counted(d):
        runs.append(d)
        return check(d)

    monkeypatch.setattr(dictionary_module, "_orbit_defect", counted)
    built = oscillator_dictionary(FpField(7))
    assert runs == []
    d = Dictionary(built.kind, built.prime, built.vectors, built.group_ids,
                   built.member_ids)
    coherence(d, mode="exhaustive")
    rng = np.random.default_rng(0)
    for _ in range(10):
        omp(d, rng.normal(size=7) + 1j * rng.normal(size=7), max_support=3)
    recovery_experiment(d, 2, 10)
    assert runs == [d]
    assert d.orbit_defect == check(built) <= built.orbit_defect


_AT_SCALE = {
    "split37": lambda: _built(split_oscillator, 37),
    # two runs of orbits, of 17 and 19 atoms a group
    "union19": lambda: _built(oscillator_dictionary, 19),
    "union_with_tail11": lambda: _union_with_tail(FpField(11)),
}


@pytest.mark.parametrize("name", _AT_SCALE)
def test_orbit_omp_matches_dense_at_scale(name):
    d = _AT_SCALE[name]()
    n, p = d.vectors.shape
    rng = np.random.default_rng(n)
    for _ in range(12):
        # the second step must mask the first pick, mapped into the
        # orbit order of the correlations
        i, j = rng.choice(n, size=2, replace=False)
        f = d.vectors[i] + 0.9 * d.vectors[j]
        _assert_same(omp(d, f, max_support=2), _dense_omp(d, f, 2))
    for k in (1, 3):
        for _ in range(4):
            support = rng.choice(n, size=k, replace=False)
            f = synthesize(d, support, np.exp(2j * np.pi * rng.random(k)))
            _assert_same(omp(d, f, max_support=k), _dense_omp(d, f, k))
        f = rng.normal(size=p) + 1j * rng.normal(size=p)
        _assert_same(omp(d, f, max_support=k), _dense_omp(d, f, k))


@pytest.mark.parametrize("name", _AT_SCALE)
def test_orbit_step_masks_the_support(name):
    # the dense maximum and then a random atom masked: the orbit step
    # must pick what |V r*| picks off that support
    d = _AT_SCALE[name]()
    n, p = d.vectors.shape
    rng = np.random.default_rng(p)
    for _ in range(10):
        r = rng.normal(size=p) + 1j * rng.normal(size=p)
        dense = np.abs(d.vectors @ r.conj())
        support = [int(np.argmax(dense)), int(rng.integers(n))]
        dense[support] = 0.0
        got = _best_atom(d, r, np.linalg.norm(r), support, 1e-14)
        assert got == int(np.argmax(dense))


def test_orbit_correlations_match_dense_at_p37():
    # the atom order of orbit_correlations is a reordering of the OMP
    # step's product, at the size that step is for
    d = _built(split_oscillator, 37)
    rng = np.random.default_rng(37)
    r = rng.normal(size=37) + 1j * rng.normal(size=37)
    corr = orbit_correlations(d, r)
    assert np.max(np.abs(corr - np.abs(d.vectors @ r.conj()))) \
        <= 1e-14 * np.linalg.norm(r)
