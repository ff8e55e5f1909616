"""Builders for the four low-coherence dictionaries in C^p.

* ``heisenberg_dictionary`` — p+1 orthonormal bases, one per line through
  the origin of the time-frequency plane, each the eigenbasis of a
  Heisenberg operator pi(l0); cross-line coherence is exactly 1/sqrt(p).
  Group x is the line through (1, x), the deltas (line (0, 1)) come last.
* ``split_oscillator`` — one orthonormal system per split torus of
  SL_2(F_p): the Weil translates rho(g) phi_chi of explicit character
  vectors, g running over the representative set R.
* ``nonsplit_oscillator`` — one orthonormal basis per non-split torus;
  the eigenbasis of rho(t0) for one reference generator t0, built by the
  character projectors of the cyclic group t0 generates (the build
  refuses unless they find p simple lines), transported to every torus.
* ``extended_dictionary`` — all Heisenberg translates pi(tau, w, 0) of an
  oscillator dictionary, p^2 copies grouped so each translated system
  stays orthonormal, each written in place from one column gather per
  time shift tau, its phase pivots read off the base's tie sets.

The first three are built the same way: one reference basis, moved to
each group by rho(g) for a conjugator g.  The exchange identity
rho(g) pi(h) rho(g)^-1 = pi(g.h) and conjugacy of the tori make every
transported vector an exact eigenvector of the target family, so one
eigenbasis per family suffices.  Every family is listed orbit-major:
only its seed groups are moved by rho, and ``chirp_orbit`` spreads each
over its orbit with the chirps M_x = rho(U(x)).  The seeds are listed
in closed form, with no enumeration of SL_2 (the split seeds
[[1, b], [0, 1]], the non-split ones from their torus keys), and moved
a bounded stack of rho(g) at a time, one product and one phase
normalization per stack.  A bundle stores only the seed rows, and its
loader runs the same ``chirp_orbit``.  Both declare the orbits they
wrote (``Dictionary(orbits=...)``), whose orbit defect is then that
function's rounding bound; no check reads the atoms, and a dictionary
that declares none (hand-made, or the extended family) is read densely.
The Heisenberg lines are one orbit, the characters rho(w) delta spread
over the lines (1, x), followed by the one line U(x) fixes, the deltas,
as a tail group.
Member order within a group is the reference order: the psi(m) order
for Heisenberg lines (member m has pi(l0)-eigenvalue psi(m)), the
character order for split tori, and the reference eigen-angle order for
non-split tori.

Every build writes its atoms once, atom-major, into one complex array
sized up front (the union runs both families through one
``_chirp_orbits`` call, the extended family computes each shift in its
own slice with O(n p) scratch in all), so it peaks near its atoms.
Every atom is unit norm and phase-normalized (its first largest-magnitude
entry is real positive), and all orderings (groups, members, shifts) are
fixed, so builds are bit-reproducible.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .field import FpField
from .heisenberg import shift_table
from .linalg import (PIVOT_TIE_TOL, phase_normalize_rows, phase_pivots,
                     phase_table)
from .sl2 import SL2Element, _nonsplit_seeds, weyl_element
from .weil import chirp_table, rho

OSCILLATOR_KINDS = ("oscillator_split", "oscillator_nonsplit", "oscillator")
_ORBIT_TOL = 1e-12  # largest orbit defect the orbit readers accept
_U = 2.0 ** -53  # unit roundoff of float64
# entries per block of chirp_orbit and per stack of seed transports: 256 KB
_CHECK_CELLS = 1 << 14
# largest residual of rho(t0)^(p+1) against a scalar on a start vector, and
# largest projection of one onto the character line absent from C^p
_LINE_TOL = 1e-8
# least distance, relative to the row maximum, of a base magnitude from the
# phase-pivot tie threshold for the extended build to rotate the base's
# pivots; it bounds the ~1e-16 relative rounding of a unimodular phase
_PIVOT_MARGIN = 1e-12


class Dictionary:
    """An ordered atom collection partitioned into orthonormal groups.

    vectors is (n_atoms, p) atom-major; group_ids must be nondecreasing
    (builders emit group-major blocks), so a group is a contiguous slice.
    orbits holds the group size of each chirp orbit, counted from atom
    0, that ``chirp_orbit`` wrote: the groups j*p + x, x = 0..p-1, of
    orbit j are equally large, and row r of group (j, x) is a unimodular
    phase times chirp_x * (row r of group (j, 0)), where chirp_x[t] =
    psi(-(x/2) t^2).  The groups after the orbits are the tail, which
    readers take densely; with no orbits every group is.  The arrays
    are not modified after construction, so the layout derived from
    them (group offsets, orbit seeds) is computed once.
    """

    def __init__(self, kind, prime, vectors, group_ids, member_ids,
                 shifts=None, *, orbits=()):
        if kind not in KINDS:
            raise ValueError(f"unknown dictionary kind {kind!r}")
        self.kind = kind
        self.prime = int(prime)
        self.vectors = np.ascontiguousarray(vectors, dtype=np.complex128)
        self.group_ids = np.asarray(group_ids, dtype=np.int64)
        self.member_ids = np.asarray(member_ids, dtype=np.int64)
        if shifts is None:
            shifts = np.zeros((len(self.vectors), 2), dtype=np.int64)
        self.shifts = np.asarray(shifts, dtype=np.int64)
        n = len(self.vectors)
        if not (len(self.group_ids) == len(self.member_ids)
                == len(self.shifts) == n):
            raise ValueError("provenance arrays out of step with atoms")
        if np.any(self.group_ids[1:] < self.group_ids[:-1]):
            raise ValueError("group ids must be nondecreasing")
        self.n_groups = int(self.group_ids[-1]) + 1 if n else 0
        # start offset of each group (groups are contiguous, may be empty)
        self._starts = np.searchsorted(self.group_ids,
                                       np.arange(self.n_groups + 1))
        self.orbits = np.asarray(orbits, dtype=np.int64)
        p, k = self.prime, len(self.orbits)
        if k:
            FpField(p)  # a ValueError unless orbits have chirps over F_p
            if (self._starts[0] or p * k > self.n_groups
                    or self.vectors.shape[1] != p or self.orbits.min() < 1
                    or np.any(np.diff(self._starts[:p * k + 1])
                              != np.repeat(self.orbits, p))):
                raise ValueError("group ids disagree with orbit layout")

    def __len__(self):
        return len(self.vectors)

    def group_slice(self, g: int) -> slice:
        return slice(int(self._starts[g]), int(self._starts[g + 1]))

    def group_matrix(self, g: int) -> np.ndarray:
        return self.vectors[self.group_slice(g)]

    @cached_property
    def orbit_defect(self) -> float | None:
        """A bound on how far the atoms are from the declared chirp
        orbits, or None when none are declared or the bound exceeds
        _ORBIT_TOL; computed once, on first use, from the seed rows
        alone (``_written_defect``).  The exhaustive scan and OMP read
        it, and take a dictionary with None densely.
        """
        if not len(self.orbits):
            return None
        bound = _written_defect(self)
        return bound if bound <= _ORBIT_TOL else None

    @cached_property
    def orbit_seeds(self) -> tuple | None:
        """The seed rows of the declared chirp orbits, or None when
        orbit_defect is None.

        Returns (runs, end, norm): one (lo, hi, seeds) per run of
        consecutive orbits with equally large groups, where atoms lo:hi
        are the run and seeds is a read-only C-contiguous (orbits, m, p)
        copy of the rows of each orbit's group (j, 0), 1/p of the run's
        atoms; the first atom of the tail (len(self) when there is
        none); and the largest norm of a seed or tail row.
        """
        if self.orbit_defect is None:
            return None
        p, sizes = self.prime, self.orbits
        starts = self._starts[:p * len(sizes) + 1:p]  # orbit bounds
        cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1), len(sizes)]
        runs = [(int(starts[a]), int(starts[b]),
                 _read_only(self.vectors[starts[a]:starts[b]]
                            .reshape(b - a, p, sizes[a], p)[:, 0]))
                for a, b in zip(cuts[:-1], cuts[1:])]
        end = int(starts[-1])
        rows = [seeds for _, _, seeds in runs] + [self.vectors[end:]]
        norm = max(float(np.linalg.norm(r, axis=-1).max(initial=0.0))
                   for r in rows)
        return runs, end, norm

    def __repr__(self):
        return (f"Dictionary(kind={self.kind!r}, p={self.prime}, "
                f"atoms={len(self)}, groups={self.n_groups})")


def _read_only(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of a that cannot be written."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def expected_size(kind: str, p: int) -> int:
    """Atom count each builder produces at a given prime."""
    n_split = p * (p + 1) // 2 * (p - 2)
    n_nonsplit = p * (p - 1) // 2 * p
    return {
        "heisenberg": p * (p + 1),
        "oscillator_split": n_split,
        "oscillator_nonsplit": n_nonsplit,
        "oscillator": n_split + n_nonsplit,
        "extended": p * p * (n_split + n_nonsplit),
    }[kind]


def chirp_orbit(seed: np.ndarray, chirp: np.ndarray,
                out: np.ndarray) -> None:
    """Write the chirp orbit of seed rows into out, shaped (p, m, p).

    out[x] holds the rows of seed times the chirp M_x.  A chirp leaves
    magnitudes alone, so seed row r keeps its phase pivot k_r across the
    orbit, and only the chirp phase there is divided out: entry t of
    out[x, r] is seed[r, t] psi(-(x/2)(t^2 - k_r^2)), the entry
    (t^2 - k_r^2) of row x of chirp = chirp_table(field).  The chirps go
    a block at a time, one take of the table's rows and one product with
    seed per block of about _CHECK_CELLS entries, so the product reads
    what the take wrote from cache.  The build and the bundle loader
    both write their atoms here, so an orbit regenerated from its group
    (j, 0) rows is the built one bit for bit.
    """
    m, p = seed.shape
    t2 = np.arange(p) ** 2 % p
    s = (t2[None, :] - t2[phase_pivots(seed)][:, None]) % p
    step = max(1, _CHECK_CELLS // (m * p))
    for x in range(0, p, step):
        block = out[x:x + step]
        np.take(chirp[x:x + step], s, axis=1, out=block, mode="clip")
        block *= seed


@cache
def _phase_defect(p: int) -> float:
    """A bound on max over a, b of |P[a - b] - P[a] conj(P[b])|, P =
    phase_table(p): how far the rounded roots of unity are from a group.

    The maximum is taken in floating point over all p^2 pairs.  The
    product P[a] conj(P[b]) rounds by at most sqrt(2) gamma_2 |P|^2 <
    3u (Higham, Lemma 3.5; |P| <= 1 + 2u), and the difference and its
    modulus by a relative 2u, so the measured maximum m gives the bound
    (1 + 4u) m + 3u, with u = 2^-53.
    """
    P = phase_table(p)
    k = np.subtract.outer(np.arange(p), np.arange(p)) % p
    m = float(np.abs(P[k] - np.multiply.outer(P, P.conj())).max())
    return (1 + 4 * _U) * m + 3 * _U


def _written_defect(d: Dictionary) -> float:
    """A bound on the orbit defect of a d whose orbits ``chirp_orbit``
    wrote.

    Entry t of row r of group (j, x) is fl(P[a - b] s[t]), where s is
    the seed row, a = -(x/2) t^2 and b = -(x/2) k_r^2 (mod p) index P =
    phase_table(p) exactly, and the orbit relation asks for
    chirp_x[t^2] conj(chirp_x[k_r^2]) s[t] = P[a] conj(P[b]) s[t].  The
    complex product rounds by at most sqrt(2) gamma_2 |P| |s[t]| < 3u
    |s[t]| (Higham, Lemma 3.5), and P[a - b] differs from P[a] conj(P[b])
    by at most the phase defect delta_P (``_phase_defect``), so every row
    is within (3u + delta_P) ||s|| of the orbit, and ||s|| is at most
    the largest computed seed-row norm times 1 + (p + 1) u.  That is
    about 1e-15 for unit seeds; seeds that are not finite, or so large
    that rounding alone passes _ORBIT_TOL, give a bound above it.
    """
    p = d.prime
    seeds = (d.vectors[lo:lo + m]
             for lo, m in zip(d._starts[::p].tolist(), d.orbits.tolist()))
    norm = max(float(np.vecdot(s, s).real.max()) for s in seeds) ** 0.5
    return (3 * _U + _phase_defect(p)) * (1 + (p + 1) * _U) * norm


def _chirp_orbits(kind: str, field: FpField, families,
                  tail=()) -> Dictionary:
    """Each (reference, seeds) family's orbit groups in turn, in one array,
    then the rows of tail, if any, as one last group.

    Group j*p + x of a family holds the rows of its reference moved by
    rho(U(x) g_j), for the seed conjugators g_j.  rho(U(x) g) =
    M_x rho(g), so each seed group is transported once and then spread
    over its orbit by ``chirp_orbit``.  The seeds go in stacks of
    _CHECK_CELLS / p^2 (at least one): reference times each stacked
    rho(g)^T in one matmul, then one phase normalization for the stack.
    The matmul runs one product per stacked operator and the
    normalization is row-wise, so the atoms are those of one transport
    per seed bit for bit (the tests hold this against that oracle).
    """
    p = field.p
    chirp = chirp_table(field)
    n = len(tail) + sum(len(seeds) * p * len(reference)
                        for reference, seeds in families)
    vectors = np.empty((n, p), dtype=np.complex128)
    group_ids = np.empty(n, dtype=np.int64)
    member_ids = np.empty(n, dtype=np.int64)
    step = max(1, _CHECK_CELLS // (p * p))  # seeds per stack of rho(g)
    lo = first_group = 0
    orbits = []  # the group size of each orbit, one per seed
    for reference, seeds in families:
        m = len(reference)
        orbits += [m] * len(seeds)
        hi = lo + len(seeds) * p * m
        out = vectors[lo:hi].reshape(len(seeds), p, m, p)
        for k in range(0, len(seeds), step):
            stack = np.stack([rho(g) for g in seeds[k:k + step]])
            moved = phase_normalize_rows(
                (reference @ stack.transpose(0, 2, 1)).reshape(-1, p))
            for block, seed in zip(out[k:k + step], moved.reshape(-1, m, p)):
                chirp_orbit(seed, chirp, block)
        group_ids[lo:hi], member_ids[lo:hi] = np.divmod(np.arange(hi - lo), m)
        group_ids[lo:hi] += first_group
        lo, first_group = hi, first_group + len(seeds) * p
    if len(tail):
        vectors[lo:] = tail
        group_ids[lo:] = first_group
        member_ids[lo:] = np.arange(n - lo)
    return Dictionary(kind, p, vectors, group_ids, member_ids,
                      orbits=orbits)


def heisenberg_dictionary(field: FpField) -> Dictionary:
    """Eigenbases of pi(l0), one per line: p(p+1) atoms.

    The deltas are the eigenbasis of pi(0,1,0), delta_m with eigenvalue
    psi(m).  A conjugator g with g.(0,1) = l0 carries them to the
    eigenbasis of pi(l0) with the same eigenvalues, so member m is the
    psi(m)-eigenvector.  Group x (x = 0..p-1) is the line through
    (1, x) = U(x) w.(0,1): the characters rho(w) delta, normalized, times
    the chirp M_x (Alltop's bases), so the p lines are one chirp orbit.
    The deltas, the line (0,1) that U(x) fixes, are group p.
    """
    p = field.p
    return _chirp_orbits("heisenberg", field,
                         [(np.eye(p), [weyl_element(field)])], tail=np.eye(p))


def _standard_basis_matrix(field: FpField) -> np.ndarray:
    """Rows are the character vectors phi_chi of the diagonal torus.

    Row m (m = 0..p-3) is the character with exponent j = m+1:
    phi(t) = zeta^(j * dlog t) / sqrt(p-1) for t != 0 and phi(0) = 0,
    where zeta = exp(2 pi i / (p-1)) and dlog is taken to the smallest
    generator.  Entry t=1 is real positive, so rows are already in the
    canonical phase.
    """
    p = field.p
    dlog = np.array(field.dlog_table())
    zeta = np.exp(2j * np.pi * np.arange(p - 1) / (p - 1))
    B = np.zeros((p - 2, p), dtype=np.complex128)
    j = np.arange(1, p - 1)[:, None]
    B[:, 1:] = zeta[(j * dlog[1:]) % (p - 1)] / np.sqrt(p - 1)
    return B


def _split_family(field: FpField) -> tuple:
    """Reference and seeds of D_O^s: the standard basis, and the
    representatives [[1, b], [0, 1]], b = 0..(p-1)/2, listed in closed
    form (they are the entries b*p of R), the first the identity."""
    return (_standard_basis_matrix(field),
            [SL2Element(1, b, 0, 1, field) for b in range((field.p + 1) // 2)])


def _nonsplit_family(field: FpField) -> tuple:
    """Reference and seeds of D_O^ns.

    The reference is an eigenbasis of A = rho(t0) for the generator t0 of
    torus 0, which rho(conjugator) moves to every torus.  t0^(p+1) = 1,
    so A^(p+1) = lam I, and the projector onto eigenvalue mu zeta^j
    (mu^(p+1) = lam, zeta = exp(2 pi i / (p+1))) is the character sum
    sum_k (mu zeta^j)^-k A^k / (p+1): one FFT over the Krylov rows
    mu^-k A^k e, k = 0..p, projects e = delta_0..delta_3 onto every line
    (delta_0 alone misses the odd lines, rho(-I) being the parity).  Each
    line keeps its largest projection, normalized, in eigen-angle order
    (eigenvalue 1 first).  The build refuses unless A^(p+1) is scalar on
    the start vectors and exactly one line, the character absent from the
    Weil representation, projects below _LINE_TOL; A^(p+1) is then scalar
    on the A-invariant Krylov space, so the p lines are eigenvectors with
    distinct eigenvalues: a simple spectrum.
    """
    p = field.p
    t0, seeds = _nonsplit_seeds(field)
    op = rho(t0)
    krylov = np.empty((p + 2, len(op), 4), dtype=np.complex128)
    krylov[0] = np.eye(len(op), 4)
    for k in range(p + 1):
        np.matmul(op, krylov[k], out=krylov[k + 1])
    lam = np.mean(np.diagonal(krylov[-1]))
    residual = np.linalg.norm(krylov[-1] - lam * krylov[0], axis=0)
    if not residual.max() <= _LINE_TOL:
        raise ValueError(f"non-split generator {t0} at p={p}: "
                         "rho(t0)^(p+1) is not scalar")
    mu = np.exp(1j * np.angle(lam) / (p + 1))
    scale = mu ** -np.arange(p + 1)
    proj = np.fft.fft(krylov[:-1] * scale[:, None, None], axis=0) / (p + 1)
    norms = np.linalg.norm(proj, axis=1)  # (line, start vector)
    lines = np.flatnonzero(norms.max(axis=1) >= _LINE_TOL)
    if len(lines) != p:
        raise ValueError(f"non-split generator {t0} at p={p}: "
                         f"{p + 1 - len(lines)} of {p + 1} character lines "
                         f"project below {_LINE_TOL}, not 1")
    best = norms[lines].argmax(axis=1)
    basis = proj[lines, :, best] / norms[lines, best][:, None]
    # shift by 1e-8 so an eigenvalue 1 rounded to angle -1e-16 ranks first
    angle = np.angle(mu * np.exp(2j * np.pi * lines / (p + 1)))
    order = np.argsort((angle + 1e-8) % (2 * np.pi))
    return phase_normalize_rows(basis[order]), seeds


def split_oscillator(field: FpField) -> Dictionary:
    """D_O^s: p(p+1)/2 split tori, p-2 atoms each."""
    return _chirp_orbits("oscillator_split", field, [_split_family(field)])


def nonsplit_oscillator(field: FpField) -> Dictionary:
    """D_O^ns: p(p-1)/2 non-split tori, p atoms each."""
    return _chirp_orbits("oscillator_nonsplit", field,
                         [_nonsplit_family(field)])


def oscillator_dictionary(field: FpField) -> Dictionary:
    """D_O = D_O^s union D_O^ns, split groups first."""
    return _chirp_orbits("oscillator", field,
                         [_split_family(field), _nonsplit_family(field)])


def extended_dictionary(base: Dictionary) -> Dictionary:
    """All plane translates pi(tau, w, 0) of an oscillator dictionary.

    Shift v = tau*p + w is enumerated (0,0), (0,1), ..., (p-1,p-1) and
    fills slice v of one (p^2, n, p) array, so slice 0 is the base
    dictionary itself, bit for bit; group ids refine to (shift, base
    group) pairs, preserving orthonormality within groups.

    Each slice is written in place, with O(n p) scratch for the whole
    build: per tau the base columns shift_table(field)[0][tau] are
    gathered once into one buffer, and per w that buffer times the shift's
    phases is the slice, rotated so each row's phase pivot is real
    positive.  This is translate_rows then phase_normalize_rows, the same
    IEEE operations, so the atoms are the same bit for bit.  A shift moves
    magnitudes only by the rounding of a unimodular phase (~1e-16
    relative), so row r's pivot is the first entry of the base's tie set
    (magnitudes within PIVOT_TIE_TOL of the row maximum top, as
    phase_pivots ties them) rotated by tau.  That holds while every base
    magnitude lies more than _PIVOT_MARGIN * top from the tie threshold;
    a base that fails this guard has phase_pivots taken on every slice
    instead.
    """
    if base.kind not in OSCILLATOR_KINDS:
        raise ValueError(f"cannot extend a {base.kind!r} dictionary")
    field = FpField(base.prime)
    p, n = field.p, len(base)
    cols, phases = shift_table(field)
    shifts = np.indices((p, p)).reshape(2, -1).T  # row v is (tau, w)
    out = np.empty((p * p, n, p), dtype=np.complex128)
    out[0] = base.vectors
    mags = np.abs(base.vectors)
    top = mags.max(axis=1, keepdims=True)
    threshold = top * (1.0 - PIVOT_TIE_TOL)
    ties = mags >= threshold  # each row's tie set, as phase_pivots takes it
    guarded = bool(np.all(np.abs(mags - threshold) > _PIVOT_MARGIN * top))
    gathered = np.empty((n, p), dtype=np.complex128)
    rotated = np.empty((n, p), dtype=bool)
    rows = np.arange(n)
    for tau in range(p):
        np.take(base.vectors, cols[tau], axis=1, out=gathered, mode="clip")
        if guarded:
            np.take(ties, cols[tau], axis=1, out=rotated, mode="clip")
            pivots = rotated.argmax(axis=1)
        for v in range(tau * p + (tau == 0), tau * p + p):  # v=0: the base
            atoms = np.multiply(gathered, phases[v], out=out[v])
            pivot = atoms[rows, pivots if guarded else phase_pivots(atoms)]
            atoms *= np.divide(np.abs(pivot), pivot, where=pivot != 0,
                               out=np.ones(n, dtype=np.complex128))[:, None]
    gids = base.group_ids + base.n_groups * np.arange(p * p)[:, None]
    return Dictionary("extended", p, out.reshape(-1, p), gids.reshape(-1),
                      np.tile(base.member_ids, p * p),
                      np.repeat(shifts, n, axis=0))


def unit_norm_defect(d: Dictionary) -> float:
    """max |  ||atom|| - 1 | over the dictionary."""
    return float(np.max(np.abs(np.linalg.norm(d.vectors, axis=1) - 1.0)))


# each kind's builder, taking F_p; its keys are the kinds Dictionary accepts
BUILDERS = {
    "heisenberg": heisenberg_dictionary,
    "oscillator_split": split_oscillator,
    "oscillator_nonsplit": nonsplit_oscillator,
    "oscillator": oscillator_dictionary,
    "extended": lambda field: extended_dictionary(
        oscillator_dictionary(field)),
}
KINDS = tuple(BUILDERS)
