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
with OMP: the rounding bound of ``dictionary.chirp_orbit`` on the orbits
that builds and loads declare (``Dictionary.orbits``).  A dictionary
that declares none (hand-made, extended or stored all-tail) takes the
dense scan, and no scan checks the atoms for orbits.

A sampled scan draws passes of min(remaining, _SAMPLE_PASS) pairs, i
then j, and keeps every cross-group one, so it evaluates exactly
``samples`` pairs.  Each magnitude is one BLAS zdotc (``np.vecdot``),
the call ``np.vdot`` makes: the report equals that of
np.abs(np.vdot(V[j], V[i])) on the same draws bit for bit.  Sampled
coherence reports of earlier oscdict versions, which drew up to 4x the
pairs they kept, do not reproduce for the same seed.  The sampled
shifted scan draws (i, j, v) triples in passes of _SHIFT_PASS and
gathers its translated rows through the cached
``heisenberg.shift_table``, taking its magnitudes the same way.

Both sampled scans run each pass on W workers, W = min(usable cores,
pass draws / _PAIR_CHUNK, _GATHER_BUDGET / _GATHER_BYTES), where the
usable cores are ``os.sched_getaffinity(0)``, so ``taskset`` bounds W;
there is no other knob.  The calling thread draws a pass with the one
generator.  Then, _SPAN draws at a time, it and W - 1 threads started
for the span claim blocks of draws in order, each as soon as it is free,
gather the block's rows into the worker's own C-contiguous buffers and
write its magnitudes into one span-long array; once all have stopped,
the calling thread feeds the span to the accumulator in draw order.  So
max, argmax (the first maximum in draw order), min, counts and histogram
are the same at every W, bit for bit; W = 1 starts no thread, and no
thread outlives its span.  The workers share _GATHER_BUDGET bytes of
buffers, at most _GATHER_BYTES each, made once per scan by the calling
thread, so memory grows neither with W nor with ``samples``.  The
gathers and the dots release the GIL, but a block takes the GIL back
between its numpy calls, so the blocks must be large: with two workers,
a Heisenberg p=61 scan of 200,000 samples took 26 ms with 0.5 MiB per
buffer, 46 ms with half of that and 68 ms with a quarter, against
37-41 ms for one worker.  More workers would need more memory, so W
stops at two.  Claiming blocks as they come free, rather than cutting
fixed shards, keeps the calling thread busy to the end of each span.  On
a 2-vCPU VM a core left idle for even 1 ms ran the next 45 ms of OMP
solves 5-8% slower, and with fixed shards the calling thread waited for
the other one: the benchmark's OMP tail after the scan rose 6-10%.  Exhaustive
scans stay on the calling thread: their BLAS-3 blocks use BLAS's own
threads, which a pool would oversubscribe.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import FpField
from .heisenberg import shift_table, translate_rows

EXHAUSTIVE_PAIR_LIMIT = 50_000_000
DEFAULT_SAMPLES = 1_000_000
HISTOGRAM_BINS = 50
_BLOCK_ROWS = 256  # rows per block of the dense scan, at most
_BLOCK_CELLS = 1 << 20  # magnitudes per block of an exhaustive scan: 16 MB
_SAMPLE_PASS = 100_000  # pairs drawn per pass of a sampled scan
_SHIFT_PASS = 200_000  # triples drawn per pass of a sampled shifted scan
_SPAN = 1 << 16  # sampled draws whose magnitudes are held at once
_PAIR_CHUNK = 4096  # sampled magnitudes per accumulator feed
_GATHER_BYTES = 1 << 20  # gather buffers of one sampled-scan worker, at most
_GATHER_BUDGET = 1 << 21  # gather buffers of all of a scan's workers
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
        k = int(values.argmax())
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
    upper half of their Gram, one block of rows at a time.  A block has
    _BLOCK_ROWS rows, fewer when more than _BLOCK_CELLS magnitudes would
    not fit them (at least one), and the scan makes no copy of V, so its
    scratch does not grow with len(V).  Pairs are reported as indices
    plus offset; returns the within-group defect."""
    n = len(V)
    step = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n))
    within = 0.0
    for start in range(0, n, step):
        stop = min(start + step, n)
        # the upper part of the Gram only: block columns are start..n-1,
        # |<V[c], V[r]>| taken as |conj(V[r]) . V[c]|, so only the block
        # is conjugated
        mags = np.abs(V[start:stop].conj() @ V[start:].T)
        # group_ids are nondecreasing, so a group is a run of rows and row
        # r's cross-group partners j > r are exactly the columns
        # [group end of r, n)
        ends = np.searchsorted(gids, gids[start:stop], side="right") - start
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
    workers = _worker_count(min(samples, _SAMPLE_PASS))
    rows = _gather_rows(2 * 16 * p, workers)  # two complex rows per draw
    # per worker; C-contiguous, so _pair_magnitudes runs one BLAS zdotc
    # per row
    buffers = [(np.empty((rows, p), dtype=np.complex128),
                np.empty((rows, p), dtype=np.complex128),
                np.empty(rows, dtype=np.complex128))
               for _ in range(workers)]

    def gather(k, lo, hi, i, j, mags):
        phi, psi, dots = (buf[:hi - lo] for buf in buffers[k])
        # every index is in range, and "clip" lets np.take write into
        # the buffers without a copy
        V.take(i[lo:hi], 0, out=phi, mode="clip")
        V.take(j[lo:hi], 0, out=psi, mode="clip")
        _pair_magnitudes(phi, psi, out=mags[lo:hi], dots=dots)

    def scan_pass(m):
        # a function of its own, so one pass's arrays are freed before
        # the next pass draws
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        # keep the cross-group pairs in place, a chunk at a time, so the
        # pass holds no pass-long array but i and j
        kept = 0
        for lo in range(0, m, _PAIR_CHUNK):
            ci, cj = i[lo:lo + _PAIR_CHUNK], j[lo:lo + _PAIR_CHUNK]
            keep = gids[ci] != gids[cj]
            count = int(np.count_nonzero(keep))
            # safe in place: kept <= lo, and ci[keep] is a copy
            i[kept:kept + count] = ci[keep]
            j[kept:kept + count] = cj[keep]
            kept += count
        i, j = i[:kept], j[:kept]
        _scan_draws(acc, gather, rows, workers,
                    lambda k: (int(i[k]), int(j[k])), i, j)
        return kept

    remaining = samples
    while remaining > 0:
        remaining -= scan_pass(min(remaining, _SAMPLE_PASS))
    return CoherenceReport(
        label="coherence", prime=dictionary.prime, kind=dictionary.kind,
        bound=dictionary_bound(dictionary.kind, dictionary.prime),
        max_coherence=acc.max, min_coherence=acc.min, argmax=acc.argmax,
        mode="sampled", seed=seed, pairs_evaluated=acc.count,
        histogram_counts=acc.counts, histogram_edges=acc.edges,
    )


def _scan_draws(acc, gather, rows, workers, draw, *draws):
    """Feed acc the magnitudes of one pass's draws, each of the arrays
    draws holding one coordinate of every draw; draw(k) names draw k.
    _SPAN draws at a time, the workers run gather(worker, lo, hi, *span,
    mags) on blocks of rows draws (see _run_blocks), each writing
    mags[lo:hi] for the span's draws [lo, hi) with the worker's own
    buffers; then acc is fed mags in draw order, _PAIR_CHUNK at a time,
    so its argmax is the first maximum in draw order and the binning's
    scratch stays small."""
    size = len(draws[0])
    mags = np.empty(min(size, _SPAN))
    for start in range(0, size, _SPAN):
        span = [a[start:start + _SPAN] for a in draws]
        out = mags[:len(span[0])]
        _run_blocks(gather, out.size, rows, workers, *span, out)
        for lo in range(0, out.size, _PAIR_CHUNK):
            acc.feed(out[lo:lo + _PAIR_CHUNK],
                     argmax_of=lambda k, s=start + lo: draw(s + k))


def _worker_count(size: int) -> int:
    """Workers for a sampled scan whose passes hold at most size draws:
    one per core this process may run on, so ``taskset`` bounds it, at
    most one per _PAIR_CHUNK draws, and no more than _GATHER_BUDGET gives
    full-sized buffers."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        cores = os.cpu_count() or 1
    return max(1, min(cores, -(-size // _PAIR_CHUNK),
                      _GATHER_BUDGET // _GATHER_BYTES))


def _gather_rows(row_bytes: int, workers: int) -> int:
    """Draws per gather block of each worker, when a draw takes row_bytes
    of a worker's buffers: _GATHER_BYTES per worker, less when the
    workers would overrun _GATHER_BUDGET, so the scan's memory does not
    grow with the worker count."""
    return max(1, min(_GATHER_BYTES, _GATHER_BUDGET // workers) // row_bytes)


def _run_blocks(job, size, step, workers, *args):
    """Call job(k, lo, hi, *args) once for each block [lo, hi) of
    range(0, size) in steps of step, on the given number of workers, each
    claiming the next block whenever it is free; k names the worker.
    Worker 0 is the calling thread and the others are threads started
    here and joined before return, so none outlives the call and one
    worker starts none.  Raises the first worker's exception, after all
    have stopped."""
    starts = iter(range(0, size, step))
    claim = threading.Lock()
    errors = [None] * workers

    def work(k):
        try:
            while True:
                with claim:
                    lo = next(starts, None)
                if lo is None:
                    return
                job(k, lo, min(lo + step, size), *args)
        except BaseException as e:  # raised below, once all have stopped
            errors[k] = e

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work(0)
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for e in errors:
        if e is not None:
            raise e


def _pair_magnitudes(left: np.ndarray, right: np.ndarray, out=None,
                     dots=None) -> np.ndarray:
    """|<left[k], right[k]>| for each row k, into out if given, by way of
    the complex buffer dots if given.  On C-contiguous rows each dot is one
    BLAS zdotc, the call np.vdot makes, so every magnitude equals
    np.abs(np.vdot(right[k], left[k])) bit for bit."""
    return np.abs(np.vecdot(right, left, out=dots), out=out)


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
    pairs for all p^2 - 1 shifts: per shift, blocks of rows i against
    chunks of translated rows j, at most _BLOCK_CELLS magnitudes and
    translated entries each (at least one row), so its scratch does not
    grow with n; each block of rows is fed whole, so the argmax is the
    first maximum in (v, i, j) order.  Sampled mode draws (i, j, v)
    triples and gathers the translated rows through
    ``heisenberg.shift_table``, each pass split across the scan's workers
    (see the module docstring).
    """
    p = dictionary.prime
    field = FpField(p)
    V = dictionary.vectors
    n = len(V)
    if n == 0:
        raise ValueError("shifted coherence needs at least one atom")
    total = n * n * (p * p - 1)
    if mode == "auto":
        mode = "exhaustive" if total <= EXHAUSTIVE_PAIR_LIMIT else "sampled"
    acc = _ScanAccumulator()
    if mode == "exhaustive":
        rows = max(1, _BLOCK_CELLS // n)
        width = max(1, _BLOCK_CELLS // max(rows, p))
        mags = np.empty((min(rows, n), n))
        for v in range(1, p * p):
            tau, w = divmod(v, p)
            for i in range(0, n, rows):
                block = V[i:i + rows]
                out = mags[:len(block)]
                for j in range(0, n, width):
                    moved = translate_rows(V[j:j + width], tau, w, field)
                    np.abs(block @ np.conjugate(moved, out=moved).T,
                           out=out[:, j:j + width])
                acc.feed(out.reshape(-1), argmax_of=lambda k, i=i, t=tau,
                         ww=w: (i + k // n, k % n, t, ww))
        used_seed = None
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = np.random.default_rng(seed)
        cols, phases = shift_table(field)
        flat = V.reshape(-1)
        workers = _worker_count(min(samples, _SHIFT_PASS))
        # an index row and three complex rows per draw
        rows = _gather_rows((8 + 3 * 16) * p, workers)
        buffers = [(np.empty((rows, p), dtype=np.intp),
                    np.empty((rows, p), dtype=np.complex128),
                    np.empty((rows, p), dtype=np.complex128),
                    np.empty((rows, p), dtype=np.complex128),
                    np.empty(rows, dtype=np.intp),
                    np.empty(rows, dtype=np.complex128))
                   for _ in range(workers)]

        def gather(k, lo, hi, i, j, v, mags):
            idx, phi, psi, ph, row, dots = (
                buf[:hi - lo] for buf in buffers[k])
            # psi_j moved by v = tau*p + w: entry t is V[j, cols[tau, t]]
            # times phases[v, t].  Every index is in range, and "clip"
            # lets np.take write into the buffers without a copy
            cols.take(np.floor_divide(v[lo:hi], p, out=row), 0, out=idx,
                      mode="clip")
            idx += np.multiply(j[lo:hi], p, out=row)[:, None]
            flat.take(idx, out=psi, mode="clip")
            psi *= phases.take(v[lo:hi], 0, out=ph, mode="clip")
            V.take(i[lo:hi], 0, out=phi, mode="clip")
            _pair_magnitudes(phi, psi, out=mags[lo:hi], dots=dots)

        def scan_pass(m):
            i = rng.integers(0, n, size=m)
            j = rng.integers(0, n, size=m)
            v = rng.integers(1, p * p, size=m)  # nonzero shifts only
            _scan_draws(acc, gather, rows, workers, lambda k: (
                int(i[k]), int(j[k]), *divmod(int(v[k]), p)), i, j, v)
            return m

        remaining = samples
        while remaining > 0:
            remaining -= scan_pass(min(remaining, _SHIFT_PASS))
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
