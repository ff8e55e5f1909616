"""Sparse synthesis and recovery over a dictionary.

Orthogonal matching pursuit is the workhorse: greedily pick the atom
most correlated with the residual, re-fit all picked coefficients by
least squares, repeat.  For a dictionary with coherence mu this recovers
any support of size k < (1 + 1/mu)/2 exactly, which is the regime the
experiment harness operates in.

The correlation step |<atom, r>| = |V r*| reads the whole dictionary.
When the atoms are chirp orbits (``Dictionary.orbit_defect``), atom
(j, x, i) is a unimodular phase times chirp_x * (seed row i of orbit j),
with chirp_x[t] = psi(-(x/2) t^2), so the orbit correlations come from
the seed rows alone: per run of equally large orbits, one product of
its contiguous seed rows (``Dictionary.orbit_seeds``) with the p x p
matrix conj(r[t]) chirp_x[t^2] gives every x.  A run of at most p seed
rows folds t onto -t first, since chirp_x[t] depends on t^2 only.  The
magnitudes stay in (orbit, member, chirp) order, and the support and
the pick are mapped to and from atom indices by index arithmetic.  The
tail after the orbits (the Heisenberg deltas) is read densely.  So a
Heisenberg step reads 2p rows instead of p(p+1).  Built and loaded
dictionaries know their orbits by construction; only hand-made ones pay
a check of the atoms, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import FpField
from .weil import chirp_table


_EPS = float(np.finfo(np.float64).eps)


class RecoveryError(Exception):
    """Raised when the selected atoms cannot support a stable fit."""


@dataclass
class SparseRepresentation:
    """A signal written as sum of coefficients[k] * atom(support[k])."""

    support: list
    coefficients: np.ndarray
    residual_norm: float


def synthesize(dictionary, support, coefficients) -> np.ndarray:
    """Linear combination of the chosen atoms."""
    support = list(support)
    coefficients = np.asarray(coefficients, dtype=np.complex128)
    if len(support) != len(coefficients):
        raise ValueError("support and coefficients differ in length")
    n = len(dictionary)
    if any(not 0 <= i < n for i in support):
        raise IndexError("atom index out of range")
    f = np.zeros(dictionary.vectors.shape[1], dtype=np.complex128)
    for i, a in zip(support, coefficients):
        f += a * dictionary.vectors[i]
    return f


def _least_squares(atoms: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve min ||A x - f|| for the selected atom rows; refuse
    near-dependent selections."""
    A = atoms.T
    sol, _, rank, sv = np.linalg.lstsq(A, f, rcond=None)
    if rank < A.shape[1] or sv[-1] < 1e-12 * sv[0]:
        raise RecoveryError("ill-conditioned support")
    return sol


@lru_cache(maxsize=8)
def _chirp_columns(p: int) -> np.ndarray:
    """C[t, x] = chirp_x[t^2] = chirp_table[x, t^2], read-only."""
    t = np.arange(p)
    C = np.ascontiguousarray(chirp_table(FpField(p))[:, t * t % p].T)
    C.setflags(write=False)
    return C


def _orbit_order_correlations(dictionary, r: np.ndarray) -> np.ndarray:
    """|<atom, r>| for every atom of a chirp-orbit dictionary, each run of
    orbits in (orbit, member, chirp) order and the tail in atom order.

    Per run, sums = S M in one product, S the run's seed rows as one
    (orbits m, p) matrix and M = conj(r)[:, None] C: row (j, i) of sums
    holds sum_t S[j, i, t] conj(r[t]) chirp_x[t^2] for every x, which is
    the correlation of atom (j, x, i) up to a unimodular phase.  A run of
    at most p seed rows (the Heisenberg lines) costs no more to scale by
    conj(r) than M does, so it folds instead: chirp_x[t] depends on t^2
    only, so S conj(r) folded onto t = 0..(p-1)/2 times the first
    (p+1)/2 rows of C is the same sum from half the product.  The tail
    rows take the dense product.
    """
    runs, end, _ = dictionary.orbit_seeds
    p = dictionary.prime
    h = (p + 1) // 2
    C = _chirp_columns(p)
    rc = np.conj(r)
    corr = np.empty(len(dictionary))
    for lo, hi, seeds in runs:
        S = seeds.reshape(-1, p)
        out = corr[lo:hi].reshape(-1, p)
        if len(S) > p:
            np.abs(S @ (rc[:, None] * C), out=out)
        else:
            w = S * rc
            w[:, 1:h] += w[:, :h - 1:-1]
            np.abs(w[:, :h] @ C[:h], out=out)
    np.abs(dictionary.vectors[end:] @ rc, out=corr[end:])
    return corr


def _orbit_position(runs, p: int, atom: int) -> int:
    """Where an atom's correlation sits in the orbit order."""
    for lo, hi, seeds in runs:
        if lo <= atom < hi:
            m = seeds.shape[1]
            orbit, rest = divmod(atom - lo, p * m)
            x, i = divmod(rest, m)
            return lo + (orbit * m + i) * p + x
    return atom


def _orbit_atom(runs, p: int, position: int) -> int:
    """The atom whose correlation sits at a position of the orbit order."""
    for lo, hi, seeds in runs:
        if lo <= position < hi:
            m = seeds.shape[1]
            row, x = divmod(position - lo, p)
            orbit, i = divmod(row, m)
            return lo + (orbit * p + x) * m + i
    return position


def orbit_correlations(dictionary, r: np.ndarray) -> np.ndarray | None:
    """|<atom, r>| for every atom, in atom order, from the seed and tail
    rows alone (|V r*| up to rounding), or None when the atoms are not
    chirp orbits.  The same product as the OMP step, reordered."""
    if dictionary.orbit_seeds is None:
        return None
    runs, _, _ = dictionary.orbit_seeds
    corr = _orbit_order_correlations(dictionary, r)
    for lo, hi, seeds in runs:
        k, m, p = seeds.shape
        corr[lo:hi] = corr[lo:hi].reshape(k, m, p).transpose(0, 2, 1).ravel()
    return corr


def _best_atom(dictionary, residual, residual_norm, support, floor):
    """The atom the dense step |V r*| picks (the lowest index among the
    largest correlations off the support), or None where that largest
    correlation is at most floor.  residual_norm is ||r||.

    The window.  Atom (j, x, i) is a = c C[:, x] s + e, where s is its
    seed row, c = conj(chirp_x[k^2]) is within 2u of unimodular (u =
    2^-53) and ||e|| <= defect (``Dictionary.orbit_defect``), so the
    exact |<a, r>| is within defect ||r|| + 2u ||s|| ||r|| of the exact
    orbit value |sum_t s[t] conj(r[t]) C[t, x]|.  The computed orbit
    value of a long run rounds M = conj(r) C by sqrt(2) gamma_2 < 3u per
    entry (Higham, Lemma 3.5), its modulus by 2u, and the product S M by
    sqrt(2) gamma_2p sum_t |s[t]| |M[t, x]|: the real and imaginary
    parts of each entry are sums of 2p real products, and any order of
    summation, with or without fused multiply-adds, rounds such a sum by
    at most gamma_2p times the sum of the magnitudes.  That is (2 sqrt(2)
    p + 5) u ||s|| ||r|| to first order.  A folded run rounds S conj(r)
    by 3u, the fold by u and its length-(p+1)/2 product by sqrt(2)
    gamma_(p+1): less.  The dense |V r*| rounds by sqrt(2) gamma_2p ||a||
    ||r|| and its modulus by 2u.  With ||s|| <= norm and ||a|| <= norm +
    defect to first order, the two values differ by at most (defect + (4
    sqrt(2) p + 9) u (norm + defect)) ||r|| plus terms of order (p u)^2;
    the window (defect + 3 (p + 2) eps (norm + defect)) ||r||, eps = 2u,
    covers that with room for the rounding of the norms.  A tail
    correlation is two roundings of the same inner product, well inside
    it.

    So the dense pick lies within twice the window of the orbit maximum,
    and a lone atom there, clear of floor, is the dense pick.  Otherwise
    (a near tie, or a maximum not clear of floor) the dense step itself
    runs, so the pick is the dense one bit for bit.  The orbit values
    stay in orbit order; the support and the pick are mapped to and from
    it by index arithmetic.
    """
    orbits = dictionary.orbit_seeds
    if orbits is not None:
        runs, _, norm = orbits
        p = dictionary.prime
        corr = _orbit_order_correlations(dictionary, residual)
        corr[[_orbit_position(runs, p, a) for a in support]] = 0.0
        best = int(np.argmax(corr))
        top = corr[best]
        defect = dictionary.orbit_defect
        window = (defect + 3 * (p + 2) * _EPS
                  * (norm + defect)) * residual_norm
        if top - window > floor \
                and np.count_nonzero(corr >= top - 2 * window) == 1:
            return _orbit_atom(runs, p, best)
    # |<atom, r>| = |V r*|: no conjugated copy of the dictionary
    corr = np.abs(dictionary.vectors @ residual.conj())
    corr[support] = 0.0
    best = int(np.argmax(corr))
    return None if corr[best] <= floor else best


def omp(dictionary, f: np.ndarray, max_support: int,
        residual_tol: float = None) -> SparseRepresentation:
    """Orthogonal matching pursuit.

    Stops when the residual norm drops to residual_tol (default
    1e-9 * ||f||) or the support reaches max_support.  Greedy ties break
    toward the lowest atom index.  Chirp-orbit dictionaries take their
    correlations from the seed rows, with the same picks as |V r*|.
    """
    if max_support < 1:
        raise ValueError("max_support must be at least 1")
    if len(dictionary) == 0:
        raise ValueError("empty dictionary")
    f = np.asarray(f, dtype=np.complex128)
    V = dictionary.vectors
    norm_f = float(np.linalg.norm(f))
    tol = 1e-9 * norm_f if residual_tol is None else residual_tol
    floor = 1e-14 * max(norm_f, 1.0)
    support = []
    coeffs = np.zeros(0, dtype=np.complex128)
    residual, residual_norm = f, norm_f
    while len(support) < max_support and residual_norm > tol:
        best = _best_atom(dictionary, residual, residual_norm, support, floor)
        if best is None:
            break
        support.append(best)
        coeffs = _least_squares(V[support], f)
        residual = f - coeffs @ V[support]
        residual_norm = float(np.linalg.norm(residual))
    return SparseRepresentation(support, coeffs, residual_norm)


@dataclass
class RecoveryReport:
    """Aggregate outcome of repeated synthesize-then-recover trials."""

    prime: int
    kind: str
    sparsity: int
    trials: int
    seed: int
    successes: int
    coef_max_error: float
    coef_median_error: float
    failed_trials: list

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "kind": self.kind,
            "sparsity": self.sparsity,
            "trials": self.trials,
            "seed": self.seed,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "coef_max_error": self.coef_max_error,
            "coef_median_error": self.coef_median_error,
            "failed_trials": self.failed_trials,
        }


def recovery_experiment(dictionary, sparsity: int, trials: int,
                        seed: int = 0, algorithm=omp) -> RecoveryReport:
    """Monte-Carlo exact-recovery harness.

    Each trial draws a uniform support of the requested size and
    unit-magnitude random-phase coefficients (per-trial generator seeded
    by (seed, trial) so trials are independently reproducible), then
    checks the recovered support and coefficients.
    """
    n = len(dictionary)
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must be in [1, {n}], got {sparsity}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    successes = 0
    failed = []
    errors = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        support = rng.choice(n, size=sparsity, replace=False)
        coeffs = np.exp(2j * np.pi * rng.random(sparsity))
        f = synthesize(dictionary, support, coeffs)
        try:
            rep = algorithm(dictionary, f, max_support=sparsity)
        except RecoveryError:
            failed.append(t)
            continue
        if set(rep.support) != set(support.tolist()):
            failed.append(t)
            continue
        recovered = dict(zip(rep.support, rep.coefficients))
        err = max(abs(recovered[i] - c)
                  for i, c in zip(support.tolist(), coeffs))
        errors.append(err)
        successes += 1
    return RecoveryReport(
        prime=dictionary.prime, kind=dictionary.kind, sparsity=sparsity,
        trials=trials, seed=seed, successes=successes,
        coef_max_error=float(max(errors)) if errors else float("nan"),
        coef_median_error=float(np.median(errors)) if errors
        else float("nan"),
        failed_trials=failed,
    )
