"""Gram-matrix analytics for dictionaries: coherence, orthonormality
audits, and stability of oscillator atoms under Heisenberg translations.

Coherence here is always the cross-group number: atoms inside one
line/torus group are orthonormal by construction, and the interesting
bounds (1/sqrt(p) for the Heisenberg dictionary, 4/sqrt(p) for the
oscillator families) are statements about pairs from different groups.
Within-group deviations are reported separately as orthonormality
defects.  Scans are exhaustive while they compute at most 5e7
magnitudes and seeded-random above, processed in fixed-size blocks so
memory stays flat.  An exhaustive scan of chirp orbits (every family,
whose group j*p + x is seed group j moved by the chirp M_x = rho(U(x)))
computes one magnitude per p pairs among the orbits, from the seed rows
alone, and reads the tail (the fewer than p groups after the orbits:
the Heisenberg deltas) densely, one magnitude per pair; any other
exhaustive scan forms the upper half of the Gram matrix, one row block
at a time.  The orbit defect is ``Dictionary.orbit_defect``, shared
with OMP: builds and loads set it by construction, from the rounding of
``dictionary.chirp_orbit``, which wrote their orbits; only a hand-made
or all-tail dictionary checks its atoms for it, once.

A sampled scan draws passes of min(remaining, _SAMPLE_PASS) pairs, i
then j, and keeps every cross-group one, so it evaluates exactly
``samples`` pairs.  It gathers their rows _GATHER_ROWS at a time into two
C-contiguous buffers made once per scan, so its memory does not grow
with ``samples``, and each magnitude is one BLAS zdotc (``np.vecdot``),
the call ``np.vdot`` makes: the report equals that of
np.abs(np.vdot(V[j], V[i])) on the same draws bit for bit.  Sampled
coherence reports of earlier oscdict versions, which drew up to 4x the
pairs they kept, do not reproduce for the same seed.  The sampled
shifted scan gathers its translated rows through the cached
``heisenberg.shift_table`` into buffers reused across chunks, and takes
its magnitudes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import FpField
from .heisenberg import shift_table, translate_rows

EXHAUSTIVE_PAIR_LIMIT = 50_000_000
DEFAULT_SAMPLES = 1_000_000
HISTOGRAM_BINS = 50
_BLOCK_ROWS = 256
_BLOCK_CELLS = 1 << 20  # magnitudes per block of the orbit scan: 16 MB
_SAMPLE_PASS = 100_000  # pairs drawn per pass of a sampled scan
_PAIR_CHUNK = 4096  # sampled magnitudes per accumulator feed
_GATHER_ROWS = 512  # rows per sampled gather: 0.5 MB per buffer at p = 61
_CELLS = 4096  # histogram cells; a power of two, so value * _CELLS is exact


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

    def feed(self, values: np.ndarray, argmax_of=None, weight: int = 1):
        """Take values, each standing for weight equal magnitudes."""
        if values.size == 0:
            return
        self.count += weight * values.size
        self.counts += weight * _bin_counts(values)
        k = int(np.argmax(values))
        if values[k] > self.max:
            self.max = float(values[k])
            self.argmax = argmax_of(k) if argmax_of else ()
        self.min = min(self.min, float(values.min()))


def _dyadic_cells(edges: np.ndarray) -> tuple:
    """For each cell [c, c + 1) / _CELLS: the bin its left end lies in, and
    the bin edge strictly inside it (inf where none is).  A cell is
    narrower than a bin, so it holds at most one edge."""
    left = np.arange(_CELLS + 1) / _CELLS
    bins = len(edges) - 1
    cell_bin = np.minimum(np.searchsorted(edges, left, side="right") - 1,
                          bins - 1)
    inner = np.full(_CELLS + 1, np.inf)
    for e in edges[1:-1]:
        c = int(e * _CELLS)
        if e > left[c]:
            inner[c] = e
    return cell_bin, inner


_CELL_BIN, _CELL_EDGE = _dyadic_cells(
    np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1))
_CELL_SPLIT = np.isfinite(_CELL_EDGE)
_BIN_FIRST_CELL = np.searchsorted(_CELL_BIN, np.arange(HISTOGRAM_BINS))


def _bin_counts(values: np.ndarray) -> np.ndarray:
    """np.histogram(np.clip(values, 0, 1), bins=np.linspace(0, 1, 51))[0]
    for values >= 0, with HISTOGRAM_BINS = 50, but without sorting.

    Each value falls in the dyadic cell floor(value * _CELLS) exactly;
    values above 1 are put in the last cell, as clipping would.
    Cells are counted and summed per bin; only the values in the few
    cells that a bin edge splits are compared with that edge, and those
    at or above it move up one bin.  The last bin is closed, as in
    np.histogram, so 1.0 counts in it.
    """
    scaled = values * _CELLS
    np.minimum(scaled, _CELLS, out=scaled)
    cells = scaled.astype(np.intp)
    counts = np.add.reduceat(np.bincount(cells, minlength=_CELLS + 1),
                             _BIN_FIRST_CELL)
    near = np.flatnonzero(_CELL_SPLIT.take(cells))
    if near.size:
        split = cells.take(near)
        above = split[values.take(near) >= _CELL_EDGE.take(split)]
        moved = np.bincount(_CELL_BIN.take(above), minlength=len(counts))
        counts -= moved
        counts[1:] += moved[:-1]
    return counts


def coherence(dictionary, mode: str = "auto", samples: int = DEFAULT_SAMPLES,
              seed: int = 0) -> CoherenceReport:
    """Cross-group coherence of a dictionary.

    mode "auto" scans exhaustively when the scan would compute at most
    EXHAUSTIVE_PAIR_LIMIT magnitudes (the cross-group pair count, with
    the pairs among chirp orbits counted one per p) and falls back to
    seeded sampling otherwise; "exhaustive" and "sampled" force the
    choice.  The report
    also carries the worst within-group orthonormality defect
    (exhaustive scans only) and a 50-bin histogram of the evaluated
    magnitudes.
    """
    if len(dictionary) < 2:
        raise ValueError("coherence needs at least two atoms")
    gids = dictionary.group_ids
    cross_pairs = _cross_pairs(gids)
    if cross_pairs == 0:
        raise ValueError("coherence undefined: all atoms share one group")
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown scan mode {mode!r}")
    # a chirp-orbit scan computes one magnitude per p cross pairs among
    # the orbits, and one per pair with a tail atom
    p = dictionary.prime
    orbit_defect = None
    if mode == "exhaustive" or (mode == "auto" and
                                cross_pairs // p <= EXHAUSTIVE_PAIR_LIMIT):
        orbit_defect = dictionary.orbit_defect
    computed = cross_pairs
    if orbit_defect is not None:
        _, end, _ = dictionary.orbit_seeds
        orbit_pairs = _cross_pairs(gids[:end])
        computed -= orbit_pairs - orbit_pairs // p
    if mode == "sampled" or (mode == "auto"
                             and computed > EXHAUSTIVE_PAIR_LIMIT):
        return _coherence_sampled(dictionary, samples, seed)
    acc = _ScanAccumulator()
    if orbit_defect is None:
        within = _scan_dense(dictionary.vectors, gids, acc)
    else:
        within = _scan_orbits(dictionary, orbit_defect, acc)
    assert acc.count == cross_pairs
    return CoherenceReport(
        label="coherence", prime=p, kind=dictionary.kind,
        bound=dictionary_bound(dictionary.kind, p),
        max_coherence=acc.max, min_coherence=acc.min, argmax=acc.argmax,
        mode="exhaustive", seed=None, pairs_evaluated=acc.count,
        histogram_counts=acc.counts, histogram_edges=acc.edges,
        within_group_defect=within,
    )


def _cross_pairs(gids: np.ndarray) -> int:
    """Unordered pairs of atoms in different groups."""
    n = len(gids)
    sizes = np.bincount(gids)
    return (n * (n - 1) - int(np.sum(sizes * (sizes - 1)))) // 2


def _scan_orbits(dictionary, orbit_defect: float, acc) -> float:
    """The exhaustive scan of a chirp-orbit dictionary into acc, one
    magnitude per p pairs among the orbits; returns the within-group
    defect.

    M_x is unitary and diagonal, and chirp_x' conj(chirp_x) = chirp_{x'-x},
    so |<M_x s, M_x' s'>| depends only on x' - x: the seed rows of group
    (a, 0) against group (b, d) stand for the p pairs of groups (a, x),
    (b, x + d).  Each unordered pair is met once when the seed rows of
    orbit a meet groups (a, 1..(p-1)/2) and every group of the later
    orbits.  The seed rows are conjugated instead of V, since |S V*| =
    |conj(S) V^T|.  Every orbit group's defect is at most its seed
    group's plus twice the orbit defect.  The tail atoms, whose groups
    no chirp moves onto each other, are read densely with weight 1:
    against every orbit atom, then by the dense scan among themselves,
    which also measures their within-group defect.
    """
    V = dictionary.vectors
    p = dictionary.prime
    runs, end, _ = dictionary.orbit_seeds
    seed_defect = 0.0
    for run_lo, run_hi, seeds in runs:
        m = seeds.shape[1]
        width = max(1, _BLOCK_CELLS // m)
        for lo, rows in zip(range(run_lo, run_hi, p * m), seeds):
            seed_defect = max(seed_defect, verify_orthonormal(rows))
            rows_conj = rows.conj()
            for first, last in ((lo + m, lo + (p + 1) // 2 * m),
                                (lo + p * m, end)):
                for c0 in range(first, last, width):
                    c1 = min(c0 + width, last)
                    mags = np.abs(rows_conj @ V[c0:c1].T)
                    acc.feed(mags.reshape(-1), weight=p,
                             argmax_of=lambda k: (lo + k // (c1 - c0),
                                                  c0 + k % (c1 - c0)))
    within = seed_defect + 2.0 * orbit_defect
    if end < len(V):
        tail = V[end:].conj()
        t = len(tail)
        width = max(1, _BLOCK_CELLS // t)
        for c0 in range(0, end, width):
            c1 = min(c0 + width, end)
            mags = np.abs(V[c0:c1] @ tail.T)
            acc.feed(mags.reshape(-1),
                     argmax_of=lambda k: (c0 + k // t, end + k % t))
        within = max(within, _scan_dense(V[end:], dictionary.group_ids[end:],
                                         acc, end))
    return within


def _scan_dense(V: np.ndarray, gids: np.ndarray, acc, offset: int = 0
                ) -> float:
    """The exhaustive scan of the atoms V, grouped by gids, into acc: the
    upper half of their Gram, one row block at a time.  Pairs are
    reported as indices plus offset; returns the within-group defect."""
    n = len(V)
    Vh = V.conj().T
    # group_ids are nondecreasing, so a group is a run of rows and row r's
    # cross-group partners j > r are exactly the columns [group_end[r], n)
    group_end = np.searchsorted(gids, gids, side="right")
    within = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        # the upper part of the Gram only: block columns are start..n-1
        mags = np.abs(V[start:stop] @ Vh[:, start:])
        ends = group_end[start:stop] - start
        # within-group defect: compare the same-group sub-Gram to identity
        width = int(ends[-1])
        diag = np.arange(stop - start)
        same = gids[start:stop, None] == gids[None, start:start + width]
        dev = np.where(same, mags[:, :width], 0.0)
        dev[diag, diag] = np.abs(dev[diag, diag] - 1.0)
        within = max(within, float(dev.max()))
        cross = np.arange(n - start)[None, :] >= ends[:, None]
        # mags[cross] is row-major: row r of the block holds
        # n - start - ends[r] values, so k locates by the running row counts
        row_stops = np.cumsum(n - start - ends)

        def position(k):
            r = int(np.searchsorted(row_stops, k, side="right"))
            first = int(row_stops[r - 1]) if r else 0
            return (offset + start + r,
                    offset + start + int(ends[r]) + k - first)

        acc.feed(mags[cross], argmax_of=position)
    return within


def _coherence_sampled(dictionary, samples: int, seed: int
                       ) -> CoherenceReport:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    V = dictionary.vectors
    gids = dictionary.group_ids
    n, p = V.shape
    rng = np.random.default_rng(seed)
    acc = _ScanAccumulator()
    # C-contiguous, so _pair_magnitudes runs one BLAS zdotc per row
    left = np.empty((_GATHER_ROWS, p), dtype=np.complex128)
    right = np.empty_like(left)
    mags = np.empty(_PAIR_CHUNK)
    remaining = samples
    while remaining > 0:
        m = min(remaining, _SAMPLE_PASS)
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        keep = gids[i] != gids[j]
        _feed_pairs(acc, V, i[keep], j[keep], left, right, mags)
        remaining -= int(np.count_nonzero(keep))
    return CoherenceReport(
        label="coherence", prime=dictionary.prime, kind=dictionary.kind,
        bound=dictionary_bound(dictionary.kind, dictionary.prime),
        max_coherence=acc.max, min_coherence=acc.min, argmax=acc.argmax,
        mode="sampled", seed=seed, pairs_evaluated=acc.count,
        histogram_counts=acc.counts, histogram_edges=acc.edges,
    )


def _feed_pairs(acc, V, i, j, left, right, mags):
    """Feed |<V[i[k]], V[j[k]]>| to acc, _PAIR_CHUNK pairs at a time, so
    its argmax is the first maximum in draw order.  The rows are gathered
    _GATHER_ROWS at a time into the buffers left and right, and mags
    holds one chunk's magnitudes.  A function of its own, so that one
    pass's pairs are freed before the next pass draws."""
    for lo in range(0, i.size, _PAIR_CHUNK):
        ci, cj = i[lo:lo + _PAIR_CHUNK], j[lo:lo + _PAIR_CHUNK]
        for s in range(0, ci.size, _GATHER_ROWS):
            si, sj = ci[s:s + _GATHER_ROWS], cj[s:s + _GATHER_ROWS]
            # every index is in range, and "clip" lets np.take write
            # into the buffers without a copy
            phi = np.take(V, si, 0, out=left[:si.size], mode="clip")
            psi = np.take(V, sj, 0, out=right[:si.size], mode="clip")
            _pair_magnitudes(phi, psi, out=mags[s:s + si.size])
        acc.feed(mags[:ci.size],
                 argmax_of=lambda k: (int(ci[k]), int(cj[k])))


def _pair_magnitudes(left: np.ndarray, right: np.ndarray, out=None
                     ) -> np.ndarray:
    """|<left[k], right[k]>| for each row k, into out if given.  On
    C-contiguous rows each dot is one BLAS zdotc, the call np.vdot makes,
    so every magnitude equals np.abs(np.vdot(right[k], left[k])) bit for
    bit."""
    return np.abs(np.vecdot(right, left), out=out)


def verify_orthonormal(group: np.ndarray) -> float:
    """max |<phi_i, phi_j> - delta_ij| over a stack of row vectors."""
    group = np.atleast_2d(np.asarray(group))
    gram = group @ group.conj().T
    return float(np.max(np.abs(gram - np.eye(len(group)))))


def shifted_coherence(dictionary, mode: str = "auto",
                      samples: int = DEFAULT_SAMPLES, seed: int = 0
                      ) -> CoherenceReport:
    """max |<phi, pi(v) psi>| over atom pairs and plane shifts v != 0.

    This is the stability statement behind the extended dictionary: the
    4/sqrt(p) bound must survive every nonzero time-frequency shift of
    one atom, including psi = phi.  Exhaustive mode scans all ordered
    pairs for all p^2 - 1 shifts; sampled mode draws (i, j, v) triples
    and gathers the translated rows through ``heisenberg.shift_table``
    into three chunk buffers reused across chunks and passes.
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
        for v in range(1, p * p):
            tau, w = divmod(v, p)
            mags = np.abs(V @ translate_rows(V, tau, w, field).conj().T)
            acc.feed(mags.reshape(-1), argmax_of=lambda k, t=tau, ww=w: (
                k // n, k % n, t, ww))
        used_seed = None
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = np.random.default_rng(seed)
        cols, phases = shift_table(field)
        flat = V.reshape(-1)
        left = np.empty((_PAIR_CHUNK, p), dtype=np.complex128)
        right = np.empty_like(left)
        index = np.empty((_PAIR_CHUNK, p), dtype=np.intp)
        remaining = samples
        while remaining > 0:
            m = min(remaining, 200_000)
            i = rng.integers(0, n, size=m)
            j = rng.integers(0, n, size=m)
            v = rng.integers(1, p * p, size=m)  # nonzero shifts only
            for lo in range(0, m, _PAIR_CHUNK):
                c = slice(lo, lo + _PAIR_CHUNK)
                ci, cj, cv = i[c], j[c], v[c]
                idx, phi, psi = (buf[:ci.size] for buf in (index, left, right))
                # psi_j moved by v = tau*p + w: entry t is V[j, cols[tau, t]]
                # times phases[v, t].  Every index is in range, and "clip"
                # lets np.take write into the buffers without a copy
                np.take(cols, cv // p, 0, out=idx, mode="clip")
                idx += (cj * p)[:, None]
                np.take(flat, idx, out=psi, mode="clip")
                psi *= phases[cv]
                np.take(V, ci, 0, out=phi, mode="clip")
                acc.feed(_pair_magnitudes(phi, psi),
                         argmax_of=lambda k: (int(ci[k]), int(cj[k]),
                                              *divmod(int(cv[k]), p)))
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
