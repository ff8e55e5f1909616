"""The benchmark's workloads: one closed-loop oscdict pipeline each.

A pipeline builds a dictionary, writes and reopens its bundle, audits
coherence on the reopened copy and runs the OMP recovery experiment on
it, one stage after another.  Short stages run in several rounds per
pipeline (a round of save is one bundle write, a round of coherence is
one pass of all the workload's scans), so that their timings rest on
enough samples.  Every library call goes through its module
attribute (``dictionary.split_oscillator``, ``sparse.omp``, ...), so the
wrappers a ``spans.Tracer`` installs see it.  Output checks run after the
pipeline, outside every timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The package is imported from the checkout's own source tree, never from
# an installed copy, so the benchmark always measures the code beside it.
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oscdict  # noqa: E402
from oscdict import analysis, dictionary, sparse, storage  # noqa: E402
from oscdict.field import FpField  # noqa: E402

if Path(oscdict.__file__).resolve().parent != SRC / "oscdict":
    raise ImportError(f"oscdict imported from {oscdict.__file__}, "
                      f"not from {SRC}")

NORM_TOL = 1e-12
ORTHONORMAL_TOL = 1e-10
HEISENBERG_TOL = 1e-9
PINNED_TOL = 1e-6
BOUND_SLACK = 1e-9
COEF_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """Sizes of one pipeline.

    scans are (analysis function, mode) pairs run on the reopened bundle;
    pinned_max is the regression value of its exhaustive scan.  A nonzero
    extended_prime adds the extended family built over the oscillator
    union at that prime, followed by a sampled coherence scan of it.
    sparsity stays below (1 + 1/mu)/2 for the dictionary's coherence mu,
    where OMP must recover every support exactly.  io_rounds is the
    number of save -> load rounds and scan_rounds that of coherence
    passes (each with its own sampling seed) in one pipeline.
    """

    name: str
    builder: str
    prime: int
    scans: tuple
    sparsity: int
    trials: int
    samples: int = 200_000
    pinned_max: float | None = None
    extended_prime: int = 0
    io_rounds: int = 1
    scan_rounds: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("split-build", "split_oscillator", 37,
             (("coherence", "sampled"),), sparsity=1, trials=100,
             io_rounds=2, scan_rounds=2),
    Workload("heisenberg-recover", "heisenberg_dictionary", 61,
             (("coherence", "sampled"),), sparsity=4, trials=100,
             io_rounds=8),
    Workload("oscillator-audit", "oscillator_dictionary", 19,
             (("coherence", "exhaustive"), ("shifted_coherence", "sampled")),
             sparsity=1, trials=300, pinned_max=0.808324135,
             extended_prime=13, io_rounds=20),
)}

# The same code paths at primes that run in well under a second.
SMOKE = {
    "split-build": replace(WORKLOADS["split-build"], prime=11, trials=20,
                           samples=2_000),
    "heisenberg-recover": replace(WORKLOADS["heisenberg-recover"], prime=11,
                                  sparsity=2, trials=20, samples=2_000),
    "oscillator-audit": replace(WORKLOADS["oscillator-audit"], prime=7,
                                trials=10, samples=2_000, pinned_max=None,
                                extended_prime=5),
}

STAGES = ("build", "save", "load", "coherence", "recover")


class Outcome:
    """What one pipeline produced, with its stage times and counts."""

    def __init__(self):
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.rounds = {stage: [] for stage in STAGES}  # seconds per round
        self.total_s = 0.0
        self.omp_latencies = []
        self.built = []        # every dictionary a builder stage returned
        self.reloads_equal = []  # one per save -> load round
        self.scans = []        # (function name, report)
        self.recovery = None
        self.bundle_bytes = 0
        self.maxrss_kb = 0     # process high-water mark after this pipeline
        self.attempted = 0
        self.failed = 0
        self.error = None

    def release(self):
        """Drop the dictionaries once checked, so pipelines do not pile up
        in memory."""
        self.built = []


def _stage(out, tracer, category, fn, *args, **kwargs):
    out.attempted += 1
    t0 = time.perf_counter()
    with _span(tracer, "stage." + category):
        result = fn(*args, **kwargs)
    out.stage_s[category] += time.perf_counter() - t0
    return result


@contextlib.contextmanager
def _round(out, category):
    """One round of a stage: the time of the stage calls inside it."""
    before = out.stage_s[category]
    yield
    out.rounds[category].append(out.stage_s[category] - before)


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _timed_omp(latencies):
    """An ``algorithm=`` for recovery_experiment that times each solve."""
    def algorithm(dictionary_, f, max_support):
        t0 = time.perf_counter()
        rep = sparse.omp(dictionary_, f, max_support=max_support)
        latencies.append(time.perf_counter() - t0)
        return rep
    return algorithm


def run_pipeline(w: Workload, seed: int, bundle_dir: str,
                 tracer=None) -> Outcome:
    """One build -> save -> load -> audit -> recover pass."""
    out = Outcome()
    t0 = time.perf_counter()
    with _span(tracer, "pipeline"):
        _run_stages(w, seed, bundle_dir, tracer, out)
    out.total_s = time.perf_counter() - t0
    return out


def _run_stages(w, seed, bundle_dir, tracer, out):
    try:
        with _round(out, "build"):
            d = _stage(out, tracer, "build", getattr(dictionary, w.builder),
                       FpField(w.prime))
            out.built.append(d)
            if w.extended_prime:
                base = _stage(out, tracer, "build",
                              dictionary.oscillator_dictionary,
                              FpField(w.extended_prime))
                ext = _stage(out, tracer, "build",
                             dictionary.extended_dictionary, base)
                out.built += [base, ext]
        for _ in range(w.io_rounds):
            # Each save starts in an empty directory, and deleting the files
            # drops their dirty pages, so no writeback of an earlier round
            # competes with the next one.
            shutil.rmtree(bundle_dir, ignore_errors=True)
            with _round(out, "save"):
                _stage(out, tracer, "save", storage.save_dictionary, d,
                       bundle_dir)
            with _round(out, "load"):
                loaded = _stage(out, tracer, "load",
                                storage.load_dictionary, bundle_dir)
            out.reloads_equal.append(_bitwise_equal(d, loaded))
        for j in range(w.scan_rounds):
            with _round(out, "coherence"):
                for fn_name, mode in w.scans:
                    rep = _stage(out, tracer, "coherence",
                                 getattr(analysis, fn_name), loaded,
                                 mode=mode, samples=w.samples,
                                 seed=seed * 100 + j)
                    out.scans.append((fn_name, rep))
                if w.extended_prime:
                    rep = _stage(out, tracer, "coherence", analysis.coherence,
                                 ext, mode="sampled", samples=w.samples,
                                 seed=seed * 100 + j)
                    out.scans.append(("coherence", rep))
        with _round(out, "recover"):
            out.recovery = _stage(out, tracer, "recover",
                                  sparse.recovery_experiment, loaded,
                                  w.sparsity, w.trials, seed=seed,
                                  algorithm=_timed_omp(out.omp_latencies))
    except Exception as e:  # a failed stage ends the pipeline, not the run
        out.failed += 1
        out.error = f"{type(e).__name__}: {e}"


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def vectors_sha256(d) -> str:
    return hashlib.sha256(d.vectors.view(np.uint8).reshape(-1)).hexdigest()


class Checks:
    """Output checks of one run; each is one attempted operation."""

    def __init__(self):
        self.results = []     # (name, ok, detail)

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def _worst_group_defect(d) -> float:
    return max(analysis.verify_orthonormal(d.group_matrix(g))
               for g in range(d.n_groups))


def _bitwise_equal(a, b) -> bool:
    return (a.vectors.shape == b.vectors.shape
            and np.array_equal(a.vectors.view(np.uint64),
                               b.vectors.view(np.uint64))
            and np.array_equal(a.group_ids, b.group_ids)
            and np.array_equal(a.member_ids, b.member_ids)
            and np.array_equal(a.shifts, b.shifts))


def check_outcome(w: Workload, out: Outcome, checks: Checks,
                  reference: dict, bundle_dir: str) -> None:
    """Check one pipeline's outputs.

    reference holds the digests of the first pipeline of the run.  The
    first pipeline gets the full structural audit; later ones must be
    bit-identical to it, which carries the audit over.
    """
    if out.error is not None:
        checks.add("pipeline completed", False, out.error)
        return
    digests = [vectors_sha256(d) for d in out.built]
    digests.append(file_sha256(os.path.join(bundle_dir, storage.ATOMS_NAME)))
    if "digests" not in reference:
        reference["digests"] = digests
        for d in out.built:
            label = f"{d.kind} p={d.prime}"
            n = dictionary.expected_size(d.kind, d.prime)
            checks.add(f"{label}: atom count", len(d) == n,
                       f"{len(d)} vs expected {n}")
            defect = dictionary.unit_norm_defect(d)
            checks.add(f"{label}: unit norms", defect <= NORM_TOL,
                       f"defect {defect:.2e}")
            worst = _worst_group_defect(d)
            checks.add(f"{label}: groups orthonormal",
                       worst <= ORTHONORMAL_TOL, f"defect {worst:.2e}")
    else:
        checks.add("atoms identical to the run's first build",
                   digests == reference["digests"],
                   "atoms.bin sha256 " + digests[-1])
    checks.add("every reloaded bundle bit-equal to the built dictionary",
               len(out.reloads_equal) == w.io_rounds
               and all(out.reloads_equal),
               f"{sum(out.reloads_equal)} of {w.io_rounds} rounds")
    for fn_name, rep in out.scans:
        _check_scan(w, fn_name, rep, checks)
    rec = out.recovery
    checks.add("recovery exact on every trial",
               rec.successes == rec.trials
               and rec.coef_max_error <= COEF_TOL,
               f"{rec.successes}/{rec.trials} trials, coefficient error "
               f"{rec.coef_max_error:.2e}")


def _check_scan(w, fn_name, rep, checks):
    p = rep.prime
    label = f"{fn_name} {rep.mode} {rep.kind} p={p}"
    if rep.kind == "heisenberg":
        mu = 1.0 / math.sqrt(p)
        checks.add(f"{label}: max = 1/sqrt(p)",
                   abs(rep.max_coherence - mu) <= HEISENBERG_TOL,
                   f"{rep.max_coherence:.12f} vs {mu:.12f}")
        return
    bound = 4.0 / math.sqrt(p)
    checks.add(f"{label}: max <= 4/sqrt(p)",
               rep.max_coherence <= bound + BOUND_SLACK,
               f"{rep.max_coherence:.9f} vs {bound:.9f}")
    if rep.mode == "exhaustive" and w.pinned_max is not None:
        checks.add(f"{label}: max = pinned {w.pinned_max}",
                   abs(rep.max_coherence - w.pinned_max) <= PINNED_TOL,
                   f"{rep.max_coherence:.9f}")
