"""Gram-matrix analytics for dictionaries: coherence, orthonormality
audits, Babel sums, and stability of oscillator atoms under Heisenberg
translations.

Coherence here is always the cross-group number: atoms inside one
line/torus group are orthonormal by construction, and the interesting
bounds (1/sqrt(p) for the Heisenberg dictionary, 4/sqrt(p) for the
oscillator families) are statements about pairs from different groups.
Within-group deviations are reported separately as orthonormality
defects.  Scans are exhaustive up to 5e7 pairs and seeded-random above,
processed in fixed-size blocks so memory stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import FpField
from .linalg import phase_table

EXHAUSTIVE_PAIR_LIMIT = 50_000_000
DEFAULT_SAMPLES = 1_000_000
HISTOGRAM_BINS = 50
_BLOCK_ROWS = 256


def dictionary_bound(kind: str, p: int) -> float:
    """The proven coherence bound for a dictionary kind."""
    if kind == "heisenberg":
        return 1.0 / np.sqrt(p)
    return 4.0 / np.sqrt(p)


@dataclass
class CoherenceReport:
    """Outcome of a pairwise |<phi, psi>| scan."""

    label: str
    prime: int
    kind: str
    bound: float
    max_coherence: float
    min_coherence: float
    argmax: tuple
    mode: str
    seed: int | None
    pairs_evaluated: int
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    within_group_defect: float | None = None
    shift_scan: bool = dataclass_field(default=False)

    @property
    def bound_vacuous(self) -> bool:
        return self.bound >= 1.0

    @property
    def bound_holds(self) -> bool:
        return self.max_coherence <= self.bound + 1e-9

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "prime": self.prime,
            "kind": self.kind,
            "bound": self.bound,
            "bound_holds": bool(self.bound_holds),
            "bound_vacuous": bool(self.bound_vacuous),
            "max_coherence": self.max_coherence,
            "min_coherence": self.min_coherence,
            "argmax": list(self.argmax),
            "mode": self.mode,
            "seed": self.seed,
            "pairs_evaluated": self.pairs_evaluated,
            "within_group_defect": self.within_group_defect,
            "shift_scan": self.shift_scan,
            "histogram_counts": self.histogram_counts.tolist(),
            "histogram_edges": self.histogram_edges.tolist(),
        }


class _ScanAccumulator:
    """Order-independent reduction: max, argmax, min, histogram, count."""

    def __init__(self):
        self.max = -1.0
        self.min = 2.0
        self.argmax = ()
        self.count = 0
        self.edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
        self.counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)

    def feed(self, values: np.ndarray, argmax_of=None):
        if values.size == 0:
            return
        self.count += values.size
        self.counts += np.histogram(np.clip(values, 0.0, 1.0),
                                    bins=self.edges)[0]
        k = int(np.argmax(values))
        if values[k] > self.max:
            self.max = float(values[k])
            self.argmax = argmax_of(k) if argmax_of else ()
        self.min = min(self.min, float(values.min()))


def coherence(dictionary, mode: str = "auto", samples: int = DEFAULT_SAMPLES,
              seed: int = 0) -> CoherenceReport:
    """Cross-group coherence of a dictionary.

    mode "auto" scans exhaustively when the unordered cross-group pair
    count is at most 5e7 and falls back to seeded sampling otherwise;
    "exhaustive" and "sampled" force the choice.  The report also
    carries the worst within-group orthonormality defect (exhaustive
    scans only) and a 50-bin histogram of the evaluated magnitudes.
    """
    n = len(dictionary)
    if n < 2:
        raise ValueError("coherence needs at least two atoms")
    gids = dictionary.group_ids
    group_sizes = np.bincount(gids, minlength=dictionary.n_groups)
    cross_pairs = (n * (n - 1) - int(np.sum(group_sizes *
                                            (group_sizes - 1)))) // 2
    if cross_pairs == 0:
        raise ValueError("coherence undefined: all atoms share one group")
    if mode == "auto":
        mode = "exhaustive" if cross_pairs <= EXHAUSTIVE_PAIR_LIMIT \
            else "sampled"
    if mode == "exhaustive":
        return _coherence_exhaustive(dictionary, cross_pairs)
    if mode == "sampled":
        return _coherence_sampled(dictionary, samples, seed)
    raise ValueError(f"unknown scan mode {mode!r}")


def _coherence_exhaustive(dictionary, cross_pairs: int) -> CoherenceReport:
    V = dictionary.vectors
    gids = dictionary.group_ids
    n = len(V)
    acc = _ScanAccumulator()
    within = 0.0
    cols = np.arange(n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        mags = np.abs(V[start:stop] @ V.conj().T)
        rows = np.arange(start, stop)
        same = gids[rows][:, None] == gids[None, :]
        upper = cols[None, :] > rows[:, None]
        # within-group defect: compare the same-group sub-Gram to identity
        dev = np.where(cols[None, :] == rows[:, None],
                       np.abs(mags - 1.0), mags)
        if np.any(same):
            within = max(within, float(dev[same].max()))
        flat = np.flatnonzero(~same & upper)
        acc.feed(mags.reshape(-1)[flat],
                 argmax_of=lambda k, f=flat, s=start: (
                     s + int(f[k]) // n, int(f[k]) % n))
    assert acc.count == cross_pairs
    return CoherenceReport(
        label="coherence", prime=dictionary.prime, kind=dictionary.kind,
        bound=dictionary_bound(dictionary.kind, dictionary.prime),
        max_coherence=acc.max, min_coherence=acc.min, argmax=acc.argmax,
        mode="exhaustive", seed=None, pairs_evaluated=acc.count,
        histogram_counts=acc.counts, histogram_edges=acc.edges,
        within_group_defect=within,
    )


def _coherence_sampled(dictionary, samples: int, seed: int
                       ) -> CoherenceReport:
    V = dictionary.vectors
    gids = dictionary.group_ids
    n = len(V)
    rng = np.random.default_rng(seed)
    acc = _ScanAccumulator()
    remaining = samples
    while remaining > 0:
        m = min(4 * remaining, 400_000)
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        keep = gids[i] != gids[j]
        i, j = i[keep][:min(remaining, 100_000)], \
            j[keep][:min(remaining, 100_000)]
        if i.size == 0:
            continue
        vals = np.abs(np.einsum("ij,ij->i", V[i], V[j].conj()))
        acc.feed(vals, argmax_of=lambda k: (int(i[k]), int(j[k])))
        remaining -= i.size
    return CoherenceReport(
        label="coherence", prime=dictionary.prime, kind=dictionary.kind,
        bound=dictionary_bound(dictionary.kind, dictionary.prime),
        max_coherence=acc.max, min_coherence=acc.min, argmax=acc.argmax,
        mode="sampled", seed=seed, pairs_evaluated=acc.count,
        histogram_counts=acc.counts, histogram_edges=acc.edges,
    )


def verify_orthonormal(group: np.ndarray, tol: float = 1e-10) -> float:
    """max |<phi_i, phi_j> - delta_ij| over a stack of row vectors."""
    group = np.atleast_2d(np.asarray(group))
    gram = group @ group.conj().T
    return float(np.max(np.abs(gram - np.eye(len(group)))))


def babel_profile(dictionary, k: int) -> float:
    """Babel function B(k): max over atoms of the sum of its k largest
    inner-product magnitudes against the other atoms."""
    n = len(dictionary)
    if not 1 <= k < n:
        raise ValueError(f"babel order k={k} out of range [1, {n})")
    V = dictionary.vectors
    worst = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        mags = np.abs(V[start:stop] @ V.conj().T)
        mags[np.arange(stop - start), np.arange(start, stop)] = 0.0
        top = np.partition(mags, n - k, axis=1)[:, n - k:]
        worst = max(worst, float(top.sum(axis=1).max()))
    return worst


def _shift_phases(field: FpField, tau: int, w: int) -> tuple:
    """Column permutation and phases realizing pi(tau, w, 0) on rows."""
    p = field.p
    cols = (np.arange(p) + tau) % p
    phases = phase_table(p)[(-field.half() * tau * w + w * cols) % p]
    return cols, phases


def shifted_coherence(dictionary, mode: str = "auto",
                      samples: int = DEFAULT_SAMPLES, seed: int = 0
                      ) -> CoherenceReport:
    """max |<phi, pi(v) psi>| over atom pairs and plane shifts v != 0.

    This is the stability statement behind the extended dictionary: the
    4/sqrt(p) bound must survive every nonzero time-frequency shift of
    one atom, including psi = phi.  Exhaustive mode scans all ordered
    pairs for all p^2 - 1 shifts; sampled mode draws (i, j, v) triples.
    """
    p = dictionary.prime
    field = FpField(p)
    V = dictionary.vectors
    n = len(V)
    total = n * n * (p * p - 1)
    if mode == "auto":
        mode = "exhaustive" if total <= EXHAUSTIVE_PAIR_LIMIT else "sampled"
    acc = _ScanAccumulator()
    if mode == "exhaustive":
        for tau in range(p):
            for w in range(p):
                if tau == 0 and w == 0:
                    continue
                cols, phases = _shift_phases(field, tau, w)
                shifted = V[:, cols] * phases[None, :]
                mags = np.abs(V @ shifted.conj().T)
                acc.feed(mags.reshape(-1),
                         argmax_of=lambda k, t=tau, ww=w: (
                             k // n, k % n, t, ww))
        used_seed = None
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        remaining = samples
        while remaining > 0:
            m = min(remaining, 200_000)
            i = rng.integers(0, n, size=m)
            j = rng.integers(0, n, size=m)
            v = rng.integers(1, p * p, size=m)  # nonzero shifts only
            tau, w = v // p, v % p
            phi = V[i]
            # pi(tau, w, 0) applied row-wise with per-row shift parameters
            cols = (np.arange(p)[None, :] + tau[:, None]) % p
            expo = (-field.half() * tau[:, None] * w[:, None]
                    + w[:, None] * cols) % p
            psi_rows = np.take_along_axis(V[j], cols, axis=1) \
                * phase_table(p)[expo]
            vals = np.abs(np.einsum("ij,ij->i", phi, psi_rows.conj()))
            acc.feed(vals, argmax_of=lambda k: (int(i[k]), int(j[k]),
                                                int(tau[k]), int(w[k])))
            remaining -= m
        used_seed = seed
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    return CoherenceReport(
        label="shifted-coherence", prime=p, kind=dictionary.kind,
        bound=4.0 / np.sqrt(p),
        max_coherence=acc.max, min_coherence=acc.min, argmax=acc.argmax,
        mode=mode, seed=used_seed, pairs_evaluated=acc.count,
        histogram_counts=acc.counts, histogram_edges=acc.edges,
        shift_scan=True,
    )
