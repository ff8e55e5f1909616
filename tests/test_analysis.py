"""Coherence and Gram analytics tests.

The flat cross-line spectrum of the Heisenberg dictionary gives exact
expected values for the scan plumbing (max = min = 1/sqrt(p), known
pair counts); oscillator-family numbers are frozen regressions from
exhaustive scans.
"""

import json
import tracemalloc

import numpy as np
import pytest

from oscdict import analysis
from oscdict import dictionary as dictionary_module
from oscdict.analysis import (CoherenceReport, _ScanAccumulator, coherence,
                              dictionary_bound, shifted_coherence,
                              verify_orthonormal)
from oscdict.dictionary import (Dictionary, extended_dictionary,
                                heisenberg_dictionary, nonsplit_oscillator,
                                oscillator_dictionary, split_oscillator)
from oscdict.field import FpField
from oscdict.heisenberg import HeisenbergElement, pi, shift_table
from oscdict.linalg import phase_table
from oscdict.sparse import omp
from oscdict.storage import load_dictionary, save_dictionary


def test_dictionary_bound():
    assert dictionary_bound("heisenberg", 25) == pytest.approx(0.2)
    assert dictionary_bound("oscillator", 25) == pytest.approx(0.8)
    assert dictionary_bound("oscillator_split", 16) == pytest.approx(1.0)
    assert dictionary_bound("extended", 16) == pytest.approx(1.0)


def test_coherence_heisenberg_exhaustive():
    p = 7
    d = heisenberg_dictionary(FpField(p))
    r = coherence(d)
    assert r.mode == "exhaustive" and r.seed is None
    # every cross-line pair has magnitude exactly 1/sqrt(p)
    mu = 1 / np.sqrt(p)
    assert r.max_coherence == pytest.approx(mu, abs=1e-9)
    assert r.min_coherence == pytest.approx(mu, abs=1e-9)
    # 56 atoms, 8 lines of 7: (56*55 - 8*7*6) / 2 unordered cross pairs
    assert r.pairs_evaluated == 1372
    assert r.histogram_counts.sum() == 1372
    assert r.within_group_defect < 1e-10
    assert r.bound == pytest.approx(mu)
    assert r.bound_holds and not r.bound_vacuous
    # the reported argmax pair really achieves the maximum
    i, j = r.argmax
    assert d.group_ids[i] != d.group_ids[j]
    got = abs(np.vdot(d.vectors[j], d.vectors[i]))
    assert got == pytest.approx(r.max_coherence, abs=1e-12)


def test_coherence_oscillator_vacuous_regime():
    # 4/sqrt(p) >= 1 for p <= 13: the bound holds but says nothing
    d = oscillator_dictionary(FpField(5))
    r = coherence(d)
    assert r.bound_vacuous and r.bound_holds
    assert r.max_coherence == pytest.approx(0.9834053993554028, abs=1e-9)
    assert r.max_coherence < 1.0 - 1e-6
    assert r.within_group_defect < 1e-10


def test_coherence_sampled_matches_flat_spectrum():
    p = 7
    d = heisenberg_dictionary(FpField(p))
    r = coherence(d, mode="sampled", samples=2000, seed=1)
    assert r.mode == "sampled" and r.seed == 1
    assert r.pairs_evaluated == 2000
    assert r.max_coherence == pytest.approx(1 / np.sqrt(p), abs=1e-9)
    assert r.within_group_defect is None
    # same seed, same scan
    r2 = coherence(d, mode="sampled", samples=2000, seed=1)
    assert r2.argmax == r.argmax
    assert np.array_equal(r2.histogram_counts, r.histogram_counts)


def test_coherence_is_phase_invariant():
    f = FpField(5)
    d = heisenberg_dictionary(f)
    rng = np.random.default_rng(4)
    phases = np.exp(2j * np.pi * rng.random(len(d)))
    d2 = Dictionary(d.kind, d.prime, d.vectors * phases[:, None],
                    d.group_ids, d.member_ids)
    r, r2 = coherence(d), coherence(d2)
    assert r2.max_coherence == pytest.approx(r.max_coherence, abs=1e-12)
    assert r2.min_coherence == pytest.approx(r.min_coherence, abs=1e-12)


def test_coherence_errors():
    f = FpField(5)
    d = heisenberg_dictionary(f)
    with pytest.raises(ValueError, match="two atoms"):
        coherence(Dictionary("heisenberg", 5, d.vectors[:1],
                             [0], [0]))
    with pytest.raises(ValueError, match="one group"):
        coherence(Dictionary("heisenberg", 5, d.vectors[:5],
                             [0] * 5, range(5)))
    with pytest.raises(ValueError, match="mode"):
        coherence(d, mode="psychic")


def test_report_serializes():
    d = heisenberg_dictionary(FpField(5))
    r = coherence(d)
    assert isinstance(r, CoherenceReport)
    payload = json.dumps(r.to_dict())
    back = json.loads(payload)
    assert back["kind"] == "heisenberg"
    assert back["bound_holds"] is True
    assert len(back["histogram_counts"]) == 50
    assert len(back["histogram_edges"]) == 51


def test_verify_orthonormal():
    assert verify_orthonormal(np.eye(4, dtype=complex)) == 0.0
    d = heisenberg_dictionary(FpField(7))
    for g in range(d.n_groups):
        assert verify_orthonormal(d.group_matrix(g)) < 1e-10
    dup = np.vstack([d.vectors[0], d.vectors[0]])
    assert verify_orthonormal(dup) == pytest.approx(1.0, abs=1e-10)
    assert verify_orthonormal(2 * np.eye(2, dtype=complex)) \
        == pytest.approx(3.0)


def test_shifted_coherence_exhaustive():
    p = 5
    d = split_oscillator(FpField(p))
    r = shifted_coherence(d, mode="exhaustive")
    assert r.shift_scan and r.mode == "exhaustive"
    assert r.pairs_evaluated == len(d) ** 2 * (p * p - 1)
    # frozen regression from the exhaustive scan
    assert r.max_coherence == pytest.approx(0.7897704005661063, abs=1e-9)
    i, j, tau, w = r.argmax
    assert (tau, w) != (0, 0)
    shifted = pi(HeisenbergElement(tau, w, 0, FpField(p))) @ d.vectors[j]
    got = abs(np.vdot(shifted, d.vectors[i]))
    assert got == pytest.approx(r.max_coherence, abs=1e-9)


def test_shifted_coherence_sampled_within_exhaustive_max():
    p = 5
    d = split_oscillator(FpField(p))
    exact = shifted_coherence(d, mode="exhaustive").max_coherence
    r = shifted_coherence(d, mode="sampled", samples=5000, seed=3)
    assert r.mode == "sampled" and r.seed == 3
    assert r.pairs_evaluated == 5000
    assert r.max_coherence <= exact + 1e-9
    # sampled argmax is a real achieved value too
    i, j, tau, w = r.argmax
    shifted = pi(HeisenbergElement(tau, w, 0, FpField(p))) @ d.vectors[j]
    assert abs(np.vdot(shifted, d.vectors[i])) \
        == pytest.approx(r.max_coherence, abs=1e-9)
    r2 = shifted_coherence(d, mode="sampled", samples=5000, seed=3)
    assert r2.max_coherence == r.max_coherence and r2.argmax == r.argmax


def test_shifted_coherence_bad_mode():
    d = split_oscillator(FpField(5))
    with pytest.raises(ValueError, match="mode"):
        shifted_coherence(d, mode="psychic")


def test_sampled_scans_reject_no_samples():
    d = split_oscillator(FpField(5))
    for scan in (coherence, shifted_coherence):
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples"):
                scan(d, mode="sampled", samples=samples)


def _damaged_heisenberg(field):
    """Heisenberg lines with one atom stretched and two made
    non-orthogonal, so the within-group defect is far from rounding."""
    d = heisenberg_dictionary(field)
    V = d.vectors.copy()
    V[3] *= 1.25
    V[field.p + 1] += 0.3 * V[field.p + 2]
    return Dictionary(d.kind, d.prime, V, d.group_ids, d.member_ids)


def _damaged_union(field):
    """The oscillator union with one entry of one atom of group 1 moved by
    1e-6, so its groups are no chirp orbit."""
    d = oscillator_dictionary(field)
    V = d.vectors.copy()
    V[d.group_slice(1).start + 1, 0] += 1e-6
    return Dictionary(d.kind, d.prime, V, d.group_ids, d.member_ids)


def _union_with_tail(field):
    """The oscillator union followed by a tail group: the rows of a random
    unitary, which no chirp maps onto themselves, so a scan must read
    them with weight 1."""
    d = oscillator_dictionary(field)
    p = field.p
    rng = np.random.default_rng(p)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p)))
    return Dictionary(d.kind, p, np.vstack([d.vectors, q]),
                      np.append(d.group_ids, [d.n_groups] * p),
                      np.append(d.member_ids, np.arange(p)))


_ORBIT_BUILDERS = (split_oscillator, nonsplit_oscillator,
                   oscillator_dictionary, heisenberg_dictionary)
_ORBIT_LAYOUTS = (*_ORBIT_BUILDERS, _union_with_tail)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("builder", [*_ORBIT_LAYOUTS, _damaged_heisenberg,
                                     _damaged_union])
def test_exhaustive_scan_matches_full_gram(builder, p):
    # brute force: the whole Gram at once, its i < j cross-group entries
    # in row-major order, and the histogram np.histogram gives for them
    d = builder(FpField(p))
    V, g = d.vectors, d.group_ids
    n = len(d)
    mags = np.abs(V @ V.conj().T)
    cross = (g[:, None] != g[None, :]) & np.triu(np.ones((n, n), bool), 1)
    vals = mags[cross]
    rows, cols = np.nonzero(cross)
    first = int(np.argmax(vals))
    dev = np.where(g[:, None] == g[None, :], mags, 0.0)
    dev[np.arange(n), np.arange(n)] = np.abs(np.diag(mags) - 1.0)
    r = coherence(d, mode="exhaustive")
    assert r.pairs_evaluated == vals.size
    assert r.within_group_defect == pytest.approx(dev.max(), abs=1e-14)
    assert (d.orbit_defect is not None) == (builder in _ORBIT_LAYOUTS)
    if builder in _ORBIT_LAYOUTS:
        # one computed magnitude stands for p that differ only by rounding
        assert r.min_coherence == pytest.approx(vals.min(), abs=1e-15)
        i, j = r.argmax
        assert i < j and g[i] != g[j]
        _assert_oracle_admits(r, mags[i, j], vals)
        assert dev.max() <= r.within_group_defect
        return
    assert r.max_coherence == vals.max()
    assert r.min_coherence == vals.min()
    assert r.argmax == (rows[first], cols[first])
    want = np.histogram(np.clip(vals, 0.0, 1.0),
                        bins=np.linspace(0.0, 1.0, 51))[0]
    assert np.array_equal(r.histogram_counts, want)


def test_orbit_structure_detection(tmp_path):
    # the orbit scan runs exactly on the builders' chirp orbits, reloaded
    # or not; every other layout takes the dense scan
    f = FpField(5)
    for builder in _ORBIT_BUILDERS:
        defect = builder(f).orbit_defect
        assert defect is not None and defect < 1e-14
    save_dictionary(oscillator_dictionary(f), str(tmp_path / "union"))
    assert load_dictionary(str(tmp_path / "union")).orbit_defect \
        == oscillator_dictionary(f).orbit_defect
    no_field = Dictionary("oscillator", 9, np.eye(9), range(9), [0] * 9)
    for d in (_damaged_union(f),
              extended_dictionary(oscillator_dictionary(f)), no_field):
        assert d.orbit_defect is None
    assert coherence(no_field, mode="exhaustive").max_coherence == 0.0


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
@pytest.mark.parametrize("builder", _ORBIT_BUILDERS)
def test_orbit_bound_covers_the_measured_defect(builder, p, tmp_path):
    # builds and loads take the rounding bound of chirp_orbit for their
    # orbit defect; the measured check stays the oracle it must cover
    d = builder(FpField(p))
    save_dictionary(d, str(tmp_path / "d"))
    loaded = load_dictionary(str(tmp_path / "d"))
    assert loaded.orbit_defect == d.orbit_defect
    assert dictionary_module._orbit_defect(d) <= d.orbit_defect < 1e-14


def _count_orbit_checks(monkeypatch) -> list:
    """Patch the measured orbit check to log each dictionary it reads."""
    runs = []
    check = dictionary_module._orbit_defect

    def counted(d):
        runs.append(d)
        return check(d)

    monkeypatch.setattr(dictionary_module, "_orbit_defect", counted)
    return runs


def test_built_and_loaded_orbits_skip_the_check(monkeypatch, tmp_path):
    runs = _count_orbit_checks(monkeypatch)
    f = FpField(7)
    for builder in _ORBIT_BUILDERS:
        d = builder(f)
        save_dictionary(d, str(tmp_path / builder.__name__))
        for x in (d, load_dictionary(str(tmp_path / builder.__name__))):
            coherence(x, mode="exhaustive")
            omp(x, x.vectors[3] + 0.5 * x.vectors[-1], max_support=2)
            assert x.orbit_defect is not None
    with_tail = _union_with_tail(f)
    save_dictionary(with_tail, str(tmp_path / "tail"))
    assert load_dictionary(str(tmp_path / "tail")).orbit_defect is not None
    assert runs == []


def test_hand_made_and_all_tail_layouts_run_the_check(monkeypatch,
                                                      tmp_path):
    runs = _count_orbit_checks(monkeypatch)
    f = FpField(7)
    with_tail = _union_with_tail(f)
    assert with_tail.orbit_defect is not None
    assert runs == [with_tail]
    save_dictionary(_damaged_union(f), str(tmp_path / "damaged"))
    damaged = load_dictionary(str(tmp_path / "damaged"))
    assert damaged.orbit_defect is None
    assert runs == [with_tail, damaged]


def test_auto_mode_counts_computed_magnitudes(monkeypatch):
    # with the limit between a p-th of the cross pairs and all of them,
    # auto scans chirp orbits exhaustively and samples anything else
    f = FpField(7)
    cross = coherence(oscillator_dictionary(f)).pairs_evaluated
    monkeypatch.setattr(analysis, "EXHAUSTIVE_PAIR_LIMIT", cross // 7)
    assert coherence(oscillator_dictionary(f)).mode == "exhaustive"
    assert coherence(_damaged_union(f), samples=100).mode == "sampled"
    monkeypatch.setattr(analysis, "EXHAUSTIVE_PAIR_LIMIT", cross // 7 - 1)
    assert coherence(oscillator_dictionary(f), samples=100).mode == "sampled"


def test_histogram_counts_equal_np_histogram_at_edges():
    edges = np.linspace(0.0, 1.0, 51)
    # every edge, its float neighbours, 0.0, 1.0 and values just above 1
    values = np.concatenate([edges, np.nextafter(edges, -1.0)[1:],
                             np.nextafter(edges, 2.0), [0.0, 1.0, 1.0],
                             1.0 + 1e-15 * np.arange(3)])
    rng = np.random.default_rng(5)
    values = np.concatenate([values, rng.random(10_000)])
    acc = _ScanAccumulator()
    acc.feed(values)
    want = np.histogram(np.clip(values, 0.0, 1.0), bins=edges)[0]
    assert np.array_equal(acc.counts, want)
    assert acc.counts[-1] >= 7  # 1.0 and the clipped values land last
    assert acc.counts.sum() == values.size
    acc.feed(values, weight=3)
    assert np.array_equal(acc.counts, 4 * want)
    assert acc.count == 4 * values.size


def _split_draws(d, samples, seed):
    """The (i, j) pairs the sampled coherence scan draws, in order: passes
    of min(remaining, 100_000) draws, i then j, each keeping its
    cross-group pairs."""
    gids, n = d.group_ids, len(d)
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < samples:
        m = min(samples - len(pairs), 100_000)
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        keep = gids[i] != gids[j]
        pairs += zip(i[keep].tolist(), j[keep].tolist())
    return pairs


def _pair_oracle(d, keys):
    """|<V[i], V[j]>| for each drawn (i, j): np.vdot per pair, then array
    np.abs (Python abs on a complex128 scalar can differ from it in the
    last ulp)."""
    V = d.vectors
    return np.abs(np.array([np.vdot(V[j], V[i]) for i, j in keys]))


def _shift_draws(d, samples, seed):
    """The (i, j, tau, w) the sampled shifted scan draws (one pass)."""
    n, p = d.vectors.shape
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=samples), rng.integers(0, n, size=samples)
    v = rng.integers(1, p * p, size=samples)
    return list(zip(i.tolist(), j.tolist(), (v // p).tolist(),
                    (v % p).tolist()))


def _shift_oracle(d, keys):
    """|<V[i], pi(tau, w, 0) V[j]>| for each drawn (i, j, tau, w): entry t
    of the moved row is psi(w (t + tau) - tau w / 2) V[j, t + tau], then
    np.vdot per triple and array np.abs."""
    V, p = d.vectors, d.prime
    psi, t, half = phase_table(p), np.arange(p), FpField(p).half()
    return np.abs(np.array([
        np.vdot(V[j][(t + tau) % p]
                * psi[(w * (t + tau) - half * tau * w) % p], V[i])
        for i, j, tau, w in keys]))


def _oracle_report(d, keys, vals, seed, shift_scan=False):
    """The report of a sampled scan that drew keys and computed vals:
    the first maximum in draw order, np.histogram's counts."""
    edges = np.linspace(0.0, 1.0, 51)
    p = d.prime
    return CoherenceReport(
        label="shifted-coherence" if shift_scan else "coherence", prime=p,
        kind=d.kind,
        bound=4.0 / np.sqrt(p) if shift_scan else dictionary_bound(d.kind, p),
        max_coherence=float(vals.max()), min_coherence=float(vals.min()),
        argmax=keys[int(np.argmax(vals))], mode="sampled", seed=seed,
        pairs_evaluated=vals.size,
        histogram_counts=np.histogram(np.clip(vals, 0.0, 1.0), edges)[0],
        histogram_edges=edges, shift_scan=shift_scan).to_dict()


def _assert_oracle_admits(report, at_argmax, vals):
    """The oracle fixes a scan's max, argmax and counts only up to values
    within 1e-15 of each other or of a bin edge, which rounding decides:
    the argmax must be one of the tied maxima (at_argmax is the oracle's
    value there) and each count must lie between the values clear of the
    edges and those plus the edge values either side."""
    assert report.max_coherence == pytest.approx(vals.max(), abs=1e-15)
    assert at_argmax == pytest.approx(vals.max(), abs=1e-15)
    edges = np.linspace(0.0, 1.0, 51)
    # edges lie 0.02 apart, so only the nearest can be within 1e-15
    nearest = np.rint(np.clip(vals, 0.0, 1.0) * 50).astype(np.intp)
    near = (np.abs(vals - edges[nearest]) <= 1e-15) \
        & (nearest > 0) & (nearest < 50)
    clear = np.histogram(np.clip(vals[~near], 0, 1), edges)[0]
    per_edge = np.bincount(nearest[near], minlength=51)
    counts = report.histogram_counts
    assert counts.sum() == len(vals)
    assert np.all(clear <= counts)
    assert np.all(counts <= clear + per_edge[:-1] + per_edge[1:])


def test_sampled_scans_frozen_across_chunks():
    # 10_001 samples span several chunks and end on a partial one.  Each
    # scan equals the oracle on its draws exactly; the pins are frozen
    # regression values of the draw rule
    d = split_oscillator(FpField(11))
    keys = _split_draws(d, 10_001, 2)
    r = coherence(d, mode="sampled", samples=10_001, seed=2)
    assert r.to_dict() == _oracle_report(d, keys, _pair_oracle(d, keys), 2)
    assert r.max_coherence == pytest.approx(0.8753028244566726, abs=1e-15)
    assert r.argmax == (170, 152)
    assert r.pairs_evaluated == 10_001
    assert r.histogram_counts.tolist() == [
        4990, 38, 36, 134, 54, 0, 384, 45, 0, 84, 100, 271, 155, 43, 157, 122,
        269, 343, 0, 352, 340, 99, 190, 0, 193, 357, 310, 36, 62, 88, 92, 63,
        428, 0, 0, 0, 0, 16, 92, 16, 22, 0, 0, 20, 0, 0, 0, 0, 0, 0]
    u = oscillator_dictionary(FpField(7))
    keys = _shift_draws(u, 10_001, 2)
    vals = _shift_oracle(u, keys)
    r = shifted_coherence(u, mode="sampled", samples=10_001, seed=2)
    assert r.to_dict() == _oracle_report(u, keys, vals, 2, shift_scan=True)
    assert r.max_coherence == pytest.approx(0.8356989742082698, abs=1e-15)
    # five draws tie within 1e-15 of the maximum, so which one the scan
    # reports is decided by rounding: pin the tie set, not the pick
    ties = {keys[k] for k in np.flatnonzero(vals >= vals.max() - 1e-15)}
    assert ties == {(163, 80, 1, 5), (105, 184, 3, 4), (19, 253, 4, 0),
                    (274, 59, 6, 5), (95, 240, 0, 5)}
    assert r.argmax in ties
    assert r.pairs_evaluated == 10_001
    assert r.histogram_counts.tolist() == [
        44, 72, 111, 135, 201, 263, 243, 302, 381, 384, 351, 380, 459, 463,
        455, 443, 446, 488, 451, 433, 461, 387, 346, 264, 311, 260, 237, 189,
        194, 149, 143, 112, 80, 82, 72, 84, 52, 25, 26, 4, 12, 6, 0, 0, 0, 0,
        0, 0, 0, 0]


def _extended_union(field):
    """The extended family over the oscillator union."""
    return extended_dictionary(oscillator_dictionary(field))


@pytest.mark.parametrize("builder, p", [
    (split_oscillator, 11), (nonsplit_oscillator, 11),
    (oscillator_dictionary, 7), (heisenberg_dictionary, 13),
    (_extended_union, 5), (_union_with_tail, 7), (_damaged_union, 7)])
def test_sampled_scans_equal_vdot_oracle(builder, p):
    # the whole report on the same draws, bit for bit; 5_000 samples end
    # on a partial chunk and gather, 100_100 run a second pass
    d = builder(FpField(p))
    g = d.group_ids
    for samples in (5_000, 100_100):
        keys = _split_draws(d, samples, 1)
        i, j = np.array(keys).T
        assert len(keys) == samples and np.all(g[i] != g[j])
        r = coherence(d, mode="sampled", samples=samples, seed=1)
        assert r.pairs_evaluated == samples
        assert r.to_dict() == _oracle_report(d, keys, _pair_oracle(d, keys),
                                             1)
    keys = _shift_draws(d, 5_000, 1)
    assert shifted_coherence(d, mode="sampled", samples=5_000,
                             seed=1).to_dict() \
        == _oracle_report(d, keys, _shift_oracle(d, keys), 1, shift_scan=True)


def test_sampled_scan_memory_flat_in_samples():
    # the gather buffers are allocated once per scan and each pass draws
    # at most 100_000 pairs, so the traced peak does not grow with samples
    d = heisenberg_dictionary(FpField(61))
    coherence(d, mode="sampled", samples=1_000)  # first-use imports
    peaks = []
    for samples in (200_000, 1_000_000):
        tracemalloc.start()
        try:
            coherence(d, mode="sampled", samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 8_000_000
    # equal but for a few small Python objects: repeating one scan moves
    # the peak by tens of bytes, while any array kept from pass to pass
    # would add hundreds of kilobytes
    assert abs(peaks[1] - peaks[0]) <= 1024


def _shifted_scan_by_rows(d, samples, seed):
    """The sampled shifted scan without the shift table, as a reference:
    the same draws and chunks, but each chunk gathers V[cj], moves every
    row by its own shift with take_along_axis and multiplies by psi at
    the phase index computed per entry."""
    V, p = d.vectors, d.prime
    n = len(V)
    psi, half = phase_table(p), FpField(p).half()
    rng = np.random.default_rng(seed)
    acc = _ScanAccumulator()
    remaining = samples
    while remaining > 0:
        m = min(remaining, 200_000)
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        v = rng.integers(1, p * p, size=m)
        tau, w = v // p, v % p
        for lo in range(0, m, analysis._PAIR_CHUNK):
            c = slice(lo, lo + analysis._PAIR_CHUNK)
            ci, cj, ct, cw = i[c], j[c], tau[c], w[c]
            cols = (np.arange(p) + ct[:, None]) % p
            rows = np.take_along_axis(V[cj], cols, axis=1)
            rows *= psi[(-half * ct[:, None] * cw[:, None]
                         + cw[:, None] * cols) % p]
            acc.feed(analysis._pair_magnitudes(V[ci], rows),
                     argmax_of=lambda k: (int(ci[k]), int(cj[k]),
                                          int(ct[k]), int(cw[k])))
        remaining -= m
    return CoherenceReport(
        label="shifted-coherence", prime=p, kind=d.kind,
        bound=4.0 / np.sqrt(p), max_coherence=acc.max,
        min_coherence=acc.min, argmax=acc.argmax, mode="sampled",
        seed=seed, pairs_evaluated=acc.count,
        histogram_counts=acc.counts, histogram_edges=acc.edges,
        shift_scan=True).to_dict()


_SHIFT_GATE_DICTIONARIES = [(oscillator_dictionary, 5),
                            (oscillator_dictionary, 7),
                            (oscillator_dictionary, 11),
                            (split_oscillator, 13),
                            (nonsplit_oscillator, 11)]


@pytest.mark.parametrize("builder, p", _SHIFT_GATE_DICTIONARIES)
def test_sampled_shift_scan_equals_row_by_row_scan(builder, p):
    # the shift-table scan reports exactly what the row-by-row scan did;
    # 5_000 ends on a partial chunk, 200_100 runs a second pass
    d = builder(FpField(p))
    for seed in range(4):
        for samples in (5_000, 200_100):
            assert shifted_coherence(d, mode="sampled", samples=samples,
                                     seed=seed).to_dict() \
                == _shifted_scan_by_rows(d, samples, seed)


def test_sampled_shift_gate_sees_swapped_shift(monkeypatch):
    # a table read with tau and w swapped fails the gate above
    f = FpField(7)
    d = oscillator_dictionary(f)
    want = _shifted_scan_by_rows(d, 5_000, 0)
    assert shifted_coherence(d, mode="sampled", samples=5_000,
                             seed=0).to_dict() == want
    cols, phases = shift_table(f)
    swapped = phases.reshape(7, 7, 7).transpose(1, 0, 2).reshape(49, 7)
    monkeypatch.setattr(analysis, "shift_table",
                        lambda field: (cols, swapped))
    assert shifted_coherence(d, mode="sampled", samples=5_000,
                             seed=0).to_dict() != want
