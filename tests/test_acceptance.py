"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one `ACCEPTANCE <n> (<name>): PASS/FAIL` line, mirrored
to the unbuffered real stdout so the verdicts are visible in normal
captured pytest runs, then asserts.

Criterion 1 pins the cardinality formulas as closed forms written here,
never read back from the package.  For the non-split family: the
normaliser of a non-split torus in SL_2(F_p) has order 2(p+1), so there
are |SL_2(F_p)| / 2(p+1) = p(p^2-1) / 2(p+1) = p(p-1)/2 non-split tori,
and each contributes p eigenlines (one per character of the torus that
occurs in the Weil representation), giving |D_O^ns| = p^2 (p-1)/2.
tests/test_sl2.py::test_nonsplit_tori_against_bruteforce checks that
torus count against the cyclic subgroups of all order-(p+1) elements.
Because the expected values are closed forms, a builder that emits a
torus twice (twice the count) or drops one fails here.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from oscdict.analysis import coherence, shifted_coherence
from oscdict.dictionary import (extended_dictionary, heisenberg_dictionary,
                                nonsplit_oscillator, oscillator_dictionary,
                                split_oscillator, _standard_basis_matrix)
from oscdict.field import FpField
from oscdict.heisenberg import HeisenbergElement
from oscdict.linalg import eig_unitary
from oscdict.sl2 import bruhat, diagonal, sl2_elements, split_representatives
from oscdict.sparse import recovery_experiment
from oscdict.storage import ATOMS_NAME, MANIFEST_NAME, save_dictionary
from oscdict.weil import egorov_defect, rho


@pytest.fixture
def report(capsys):
    """Print one ACCEPTANCE verdict line on the uncaptured stdout."""

    def _report(num, name, ok, detail=""):
        line = f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" -- {detail}"
        with capsys.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
        return ok

    return _report


def test_criterion_01_cardinalities(report):
    failures = []
    counts = []
    for p in (5, 7, 11, 13):
        f = FpField(p)
        n_h = len(heisenberg_dictionary(f))
        n_s = len(split_oscillator(f))
        n_ns = len(nonsplit_oscillator(f))
        n_e = len(extended_dictionary(oscillator_dictionary(f)))
        # |SL_2(F_p)| / |normaliser of a non-split torus| tori, p atoms each
        n_tori_ns = p * (p * p - 1) // (2 * (p + 1))
        want_ns = p * n_tori_ns
        want_e = p * p * (p * (p + 1) * (p - 2) // 2 + want_ns)
        counts.append(f"p={p}: H={n_h} Os={n_s} Ons={n_ns} E={n_e}")
        if n_h != p * (p + 1):
            failures.append(f"|D_H|@{p}: {n_h} != {p * (p + 1)}")
        if n_s != p * (p + 1) * (p - 2) // 2:
            failures.append(
                f"|D_O^s|@{p}: {n_s} != {p * (p + 1) * (p - 2) // 2}")
        if n_ns != want_ns:
            failures.append(f"|D_O^ns|@{p}: {n_ns} != {want_ns}")
        if n_e != want_e:
            failures.append(f"|D_E|@{p}: {n_e} != {want_e}")
    ok = not failures
    detail = "; ".join(failures) if failures else "; ".join(counts)
    assert report(1, "cardinalities", ok, detail), detail


def test_criterion_02_cross_line_equality(report):
    worst = 0.0
    for p in (5, 7, 11, 13):
        d = heisenberg_dictionary(FpField(p))
        r = coherence(d, mode="exhaustive")
        mu = 1 / math.sqrt(p)
        worst = max(worst, abs(r.max_coherence - mu),
                    abs(r.min_coherence - mu))
    ok = worst <= 1e-9
    assert report(2, "cross-line equality 1/sqrt(p)", ok,
                  f"worst deviation {worst:.2e}"), worst


def test_criterion_03_oscillator_coherence_bound(report):
    details = []
    ok = True
    frozen = {17: 0.890388203, 19: 0.808324135, 23: 0.759501637}
    for p in (17, 19, 23):
        d = oscillator_dictionary(FpField(p))
        r = coherence(d, mode="exhaustive")
        ok &= (not r.bound_vacuous) and r.max_coherence <= r.bound + 1e-9
        ok &= abs(r.max_coherence - frozen[p]) < 1e-6
        details.append(f"p={p}: {r.max_coherence:.6f}<={r.bound:.6f}")
    d = oscillator_dictionary(FpField(53))
    r = coherence(d, mode="sampled", samples=1_000_000, seed=0)
    ok &= r.max_coherence <= r.bound + 1e-9
    details.append(f"p=53 sampled: {r.max_coherence:.6f}<={r.bound:.6f}")
    assert report(3, "oscillator bound 4/sqrt(p)", ok,
                  ", ".join(details)), details


def test_criterion_04_shift_stability(report):
    details = []
    ok = True
    frozen = {5: 0.834324993751, 7: 0.835698974208}
    for p in (5, 7):
        d = oscillator_dictionary(FpField(p))
        r = shifted_coherence(d, mode="exhaustive")
        ok &= r.bound_holds or r.bound_vacuous
        ok &= abs(r.max_coherence - frozen[p]) < 1e-9
        details.append(f"p={p}: max {r.max_coherence:.6f} "
                       f"(bound {r.bound:.3f} vacuous)")
    for p in (11, 13):
        d = oscillator_dictionary(FpField(p))
        r = shifted_coherence(d, mode="sampled", samples=1_000_000, seed=0)
        ok &= r.bound_holds or r.bound_vacuous
        ok &= 0.5 < r.max_coherence < 1.0
        details.append(f"p={p} sampled: max {r.max_coherence:.6f} "
                       f"(bound {r.bound:.3f} vacuous)")
    assert report(4, "shift stability 4/sqrt(p)", ok,
                  ", ".join(details)), details


def test_criterion_05_egorov_relation(report):
    worst = 0.0
    for p in (5, 7, 11):
        f = FpField(p)
        gens = [HeisenbergElement(1, 0, 0, f), HeisenbergElement(0, 1, 0, f),
                HeisenbergElement(0, 0, 1, f)]
        for g in split_representatives(f):
            for h in gens:
                worst = max(worst, egorov_defect(g, h))
    ok = worst <= 1e-9
    assert report(5, "Egorov relation over R x generators", ok,
                  f"worst defect {worst:.2e}"), worst


def test_criterion_06_bruhat_totality(report):
    checked = 0
    bad = 0
    for p in (5, 7):
        for g in sl2_elements(FpField(p)):
            checked += 1
            if bruhat(g).reconstruct() != g:
                bad += 1
    ok = bad == 0
    assert report(6, "Bruhat round-trip totality", ok,
                  f"{checked} elements, {bad} mismatches"), bad


def test_criterion_07_explicit_formula_crosscheck(report):
    details = []
    ok = True
    for p in (7, 11):
        f = FpField(p)
        r = f.mult_generator()
        dec = eig_unitary(rho(diagonal(r, f)).matrix)
        singles = [dec.bases[i][:, 0] for i in range(len(dec.bases))
                   if dec.multiplicities[i] == 1]
        doubles = [i for i in range(len(dec.bases))
                   if dec.multiplicities[i] == 2]
        ok &= len(singles) == p - 2 and len(doubles) == 1
        # every explicit character vector sits in a singleton eigenline
        B = _standard_basis_matrix(f)
        worst = 0.0
        matched = set()
        for m in range(p - 2):
            overlaps = [abs(np.vdot(v, B[m])) for v in singles]
            j = int(np.argmax(overlaps))
            matched.add(j)
            c = np.vdot(singles[j], B[m])
            worst = max(worst, float(np.linalg.norm(B[m] - c * singles[j])))
        ok &= worst <= 1e-8 and len(matched) == p - 2
        # the sign-character eigenspace is 2-dimensional: sigma(r) = -1
        # with eigenvectors spanning {delta_0, constants}
        k = doubles[0]
        ok &= abs(dec.eigenvalues[k] - f.legendre(r)) < 1e-9
        Q = dec.bases[k]
        delta0 = np.zeros(p, dtype=complex)
        delta0[0] = 1.0
        const = np.ones(p, dtype=complex) / math.sqrt(p)
        span = max(float(np.linalg.norm(v - Q @ (Q.conj().T @ v)))
                   for v in (delta0, const))
        ok &= span <= 1e-8
        details.append(f"p={p}: eig-match {worst:.1e}, sigma-span {span:.1e}")
    assert report(7, "character vectors vs eigenvectors", ok,
                  ", ".join(details)), details


def test_criterion_08_sparse_recovery(report):
    p = 101
    d = heisenberg_dictionary(FpField(p))
    rep = recovery_experiment(d, sparsity=5, trials=200, seed=0)
    ok = rep.success_rate == 1.0 and rep.coef_max_error <= 1e-8
    assert report(8, "exact recovery p=101 k=5", ok,
                  f"rate {rep.success_rate:.3f}, "
                  f"coef err {rep.coef_max_error:.2e}"), rep.to_dict()


def test_criterion_09_build_time_scaling(report):
    primes = (31, 61, 127)
    repeats = {31: 3, 61: 3, 127: 2}
    split_oscillator(FpField(31))  # warm caches and BLAS threads

    def build_seconds(p):
        best = float("inf")
        for _ in range(repeats[p]):
            t0 = time.perf_counter()
            split_oscillator(FpField(p))
            best = min(best, time.perf_counter() - t0)
        return best

    times = {p: build_seconds(p) for p in primes}
    rates = {p: times[p] / (p ** 4 * math.log(p)) for p in primes}
    band = max(rates.values()) / min(rates.values())
    ok = band <= 4.0
    detail = ", ".join(f"p={p}: {times[p]:.3f}s" for p in primes) \
        + f", band ratio {band:.2f} (<= 4)"
    assert report(9, "build-time scaling p^4 log p", ok, detail), detail


def test_criterion_10_deterministic_builds(tmp_path, report):
    ok = True
    details = []
    for kind, build in (("heisenberg", heisenberg_dictionary),
                        ("oscillator", oscillator_dictionary)):
        f = FpField(13)
        d1, d2 = build(f), build(f)
        ok &= np.array_equal(d1.vectors, d2.vectors)
        one, two = tmp_path / f"{kind}-1", tmp_path / f"{kind}-2"
        save_dictionary(d1, str(one))
        save_dictionary(d2, str(two))
        blob_same = (one / ATOMS_NAME).read_bytes() \
            == (two / ATOMS_NAME).read_bytes()
        m1 = json.loads((one / MANIFEST_NAME).read_text())
        m2 = json.loads((two / MANIFEST_NAME).read_text())
        m1.pop("created"), m2.pop("created")
        ok &= blob_same and (m1 == m2)
        details.append(f"{kind}: blob={'=' if blob_same else '!='}")
    assert report(10, "bit-identical builds p=13", ok,
                  ", ".join(details)), details
