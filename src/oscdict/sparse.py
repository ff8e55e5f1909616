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
the seed rows alone: fold t with -t, since chirp_x[t] depends on t^2
only, and one product with the (p+1)/2 x p table chirp_x[u^2] gives
every x.  The tail after the orbits (the Heisenberg deltas) is read
densely.  So a Heisenberg step reads 2p rows instead of p(p+1).
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


@lru_cache(maxsize=None)
def _fold_table(p: int) -> np.ndarray:
    """F[u, x] = chirp_x[u^2] for u = 0..(p-1)/2."""
    u = np.arange((p + 1) // 2)
    return np.ascontiguousarray(chirp_table(FpField(p))[:, u * u % p].T)


def orbit_correlations(dictionary, r: np.ndarray) -> np.ndarray | None:
    """|<atom, r>| for every atom from the seed and tail rows alone
    (|V r*| up to rounding), or None when the atoms are not chirp orbits.

    With W = seeds * conj(r), atom (j, x, i) correlates to
    sum_t W[j, i, t] chirp_x[t] up to a unimodular phase; folding W[-t]
    onto W[t] leaves (p+1)/2 terms, and one product with the fold table
    gives that sum for every x.  The tail rows take the dense product.
    """
    if dictionary.orbit_seeds is None:
        return None
    runs, end, _ = dictionary.orbit_seeds
    fold = _fold_table(dictionary.prime)
    h = len(fold)
    corr = np.empty(len(dictionary))
    rc = np.conj(r)
    for lo, hi, seeds in runs:
        k, m, p = seeds.shape
        w = seeds * rc
        w[..., 1:h] += w[..., :h - 1:-1]
        sums = w[..., :h].reshape(-1, h) @ fold
        np.abs(sums.reshape(k, m, p).transpose(0, 2, 1),
               out=corr[lo:hi].reshape(k, p, m))
    np.abs(dictionary.vectors[end:] @ rc, out=corr[end:])
    return corr


def _best_atom(dictionary, residual, support, floor):
    """The atom the dense step |V r*| picks (the lowest index among the
    largest correlations off the support), or None where that largest
    correlation is at most floor.

    An orbit correlation is within window of its dense value: the orbit
    defect, plus the rounding of two length-p inner products with rows
    of norm at most norm + defect, each under 2 (p + 8) eps times their
    norms (Higham's complex dot-product bound, with room for the rounded
    table entries and the fold), all times ||r||.  A tail correlation is
    two roundings of the same inner product, well inside that window.  So the dense pick
    lies within twice the window of the orbit maximum, and a lone atom
    there, clear of floor, is the dense pick.  Otherwise (a near tie, or
    a maximum not clear of floor) the dense step itself runs, so the
    pick is the dense one bit for bit.
    """
    corr = orbit_correlations(dictionary, residual)
    if corr is not None:
        corr[support] = 0.0
        best = int(np.argmax(corr))
        top = corr[best]
        defect = dictionary.orbit_defect
        _, _, norm = dictionary.orbit_seeds
        window = (defect + 4 * (dictionary.prime + 8) * _EPS
                  * (norm + defect)) * np.linalg.norm(residual)
        if top - window > floor \
                and np.count_nonzero(corr >= top - 2 * window) == 1:
            return best
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
    residual = f.copy()
    while len(support) < max_support and np.linalg.norm(residual) > tol:
        best = _best_atom(dictionary, residual, support, floor)
        if best is None:
            break
        support.append(best)
        coeffs = _least_squares(V[support], f)
        residual = f - coeffs @ V[support]
    return SparseRepresentation(support, coeffs,
                                float(np.linalg.norm(residual)))


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
