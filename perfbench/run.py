"""Run one oscdict benchmark workload and print its metrics.

    python3 perfbench/run.py --workload split-build --seed 1 --seconds 36 --trace 0

Each workload is a closed loop of one pipeline at a time (build, save,
load, coherence audit, OMP recovery; see workloads.py), repeated until
--seconds have passed.

--trace 0 runs the pipelines untraced and prints the end-to-end metrics,
the first pipeline left out as warm-up.  Each timing is the mean of the
fastest quarter of its samples in the run: stage rounds and pipeline
totals; the OMP latency percentiles are taken over the solves of the
quarter of pipelines whose recovery was fastest.  The set-up time is the
median of several fresh processes.  The fastest quarter, not the median
or the mean, because a shared host switches between fast and slow
states every few seconds: the median of a run jumps between the states,
and the mean follows how long the run spent in each.  On a 2-vCPU Xeon
VM, over five 36 s runs per workload, the worst quartile spread of a
stage time was 13% for the fastest-quarter mean, 19% for the mean and
28% for the median.  Slow phases that last minutes still move whole
runs by 20-35%.

--trace 1 alternates untraced and traced pipelines, then repeats the
traced pipeline in a child process at the default BLAS thread count, and
prints the per-layer metrics taken from the spans.

Both hold BLAS to one thread.  At the default count (one per core) on a
2-vCPU Xeon VM shared with other work, the Heisenberg pipeline at p=83
ran about twice as slow and the quartile spread of its stage times over five runs reached
15-50%, too wide for any regression bound; on one thread it stayed within
10%.  The default-thread pass keeps what users get today in view.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Operations are stage calls,
recovery trials and output checks; the exit status is 0 only when none
of them failed.  Full records (machine facts, per-pipeline values,
checks) go to perfbench/out/results/, spans to perfbench/out/spans/.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
USER_BLAS_ENV = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
# Must precede the first numpy import, which sizes the BLAS thread pool.
if "--default-threads-pass" not in sys.argv:
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from oscdict import analysis, dictionary, sparse, storage  # noqa: E402

OUT = wl.ROOT / "perfbench" / "out"
SETUP_PROBES = 7
MIN_PIPELINES = 3
CHILD_TIMEOUT_S = 90
BUILDERS = ("split_oscillator", "nonsplit_oscillator",
            "heisenberg_dictionary", "oscillator_dictionary",
            "extended_dictionary")

E2E_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "save_s": "s",
    "load_s": "s",
    "coherence_s": "s",
    "recover_s": "s",
    "omp_p50_ms": "ms",
    "omp_p90_ms": "ms",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "weil.rho.calls": "count",
    "weil.rho.self_s": "s",
    "weil.rho.p50_us": "us",
    "linalg.eig_unitary.calls": "count",
    "linalg.eig_unitary.self_s": "s",
    "linalg.eig_unitary.p50_ms": "ms",
    "linalg.eig_unitary.p90_ms": "ms",
    "linalg.phase_normalize_rows.calls": "count",
    "linalg.phase_normalize_rows.self_s": "s",
    "sl2.nonsplit_tori.s": "s",
    "sl2.nonsplit_tori.count": "count",
    "sl2.split_representatives.s": "s",
    "heisenberg.pi.calls": "count",
    "heisenberg.pi.self_s": "s",
    **{f"dictionary.{b}.self_s": "s" for b in BUILDERS},
    "dictionary.atoms": "count",
    "dictionary.bytes": "B",
    "storage.save_dictionary.s": "s",
    "storage.load_dictionary.s": "s",
    "storage.bytes_written": "B",
    "storage.bytes_read": "B",
    "storage.write_MBps": "MB/s",
    "storage.read_MBps": "MB/s",
    "analysis.coherence.s": "s",
    "analysis.coherence.pairs": "count",
    "analysis.coherence.pairs_per_s": "1/s",
    "analysis.coherence.gflops_computed": "GFLOP/s",
    "analysis.shifted_coherence.s": "s",
    "sparse.omp.calls": "count",
    "sparse.omp.self_s": "s",
    "sparse.omp.iterations": "count",
    "sparse.synthesize.s": "s",
    "sparse.success_ratio": "ratio",
    "trace.total_s": "s",
    "trace.untraced_total_s": "s",
    "trace.overhead_s": "s",
    "trace.stage_coverage": "ratio",
    "trace.absent": "count",
    "threads_default.total_s": "s",
    "threads_default.build_s": "s",
    "threads_default.linalg.eig_unitary.self_s": "s",
    "threads_default.total_ratio": "ratio",
    "threads_default.digest_match": "count",
}


# ---------------------------------------------------------------- facts

def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower()
                    and line.split()[-1].startswith("/")}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def git_commit():
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the package sources; identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((wl.SRC / "oscdict").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_THREAD_VARS
                     if k in os.environ},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


# ------------------------------------------------------------- running

def measure_setup(args, checks) -> list:
    """Seconds from starting a fresh process until it has imported the
    package and is ready to run its first pipeline."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=wl.ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        ok = line.strip() == "ready" and proc.returncode == 0
        checks.add("set-up probe ready", ok, f"exit {proc.returncode}")
        if ok:
            times.append(elapsed)
    return times


def install_wrappers(tracer):
    """Wrap the names the pipeline's callers look up, one span each."""
    wrap = tracer.wrap
    wrap(dictionary, "rho", "weil.rho")
    wrap(dictionary, "eig_unitary", "linalg.eig_unitary")
    wrap(dictionary, "phase_normalize_rows", "linalg.phase_normalize_rows")
    wrap(dictionary, "nonsplit_tori", "sl2.nonsplit_tori",
         lambda s, a, r: s.attrs.update(count=len(r)))
    wrap(dictionary, "split_representatives", "sl2.split_representatives")
    wrap(dictionary, "pi", "heisenberg.pi")
    for b in BUILDERS:
        wrap(dictionary, b, "dictionary." + b,
             lambda s, a, r: s.attrs.update(atoms=len(r),
                                            bytes=r.vectors.nbytes))
    wrap(storage, "save_dictionary", "storage.save_dictionary")
    wrap(storage, "load_dictionary", "storage.load_dictionary")
    wrap(analysis, "coherence", "analysis.coherence", _scan_work)
    wrap(analysis, "shifted_coherence", "analysis.shifted_coherence")
    wrap(sparse, "recovery_experiment", "sparse.recovery_experiment",
         lambda s, a, r: s.attrs.update(successes=r.successes,
                                        trials=r.trials))
    wrap(sparse, "omp", "sparse.omp",
         lambda s, a, r: s.attrs.update(iterations=len(r.support)))
    wrap(sparse, "synthesize", "sparse.synthesize")


def _scan_work(span, args, rep):
    """Pairs and computed flops of a coherence scan: 8 real flops per
    complex multiply-add, p of them per inner product; an exhaustive scan
    forms the whole n x n Gram matrix block by block."""
    n, p = len(args[0]), rep.prime
    products = n * n if rep.mode == "exhaustive" else rep.pairs_evaluated
    span.attrs.update(pairs=rep.pairs_evaluated, flops=8 * products * p)


def run_loop(w, seed, seconds, bundle, checks, reference, min_pipelines,
             tracer_for=lambda i: None) -> list:
    """Closed loop: pipelines back to back until `seconds` have passed,
    at least min_pipelines.  tracer_for(i) is the tracer of pipeline i,
    installed for that pipeline only."""
    outs = []
    start = time.perf_counter()
    while True:
        i = len(outs)
        tracer = tracer_for(i)
        if tracer is not None:
            install_wrappers(tracer)
        try:
            out = wl.run_pipeline(w, seed * 1000 + i, str(bundle), tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wl.check_outcome(w, out, checks, reference, str(bundle))
        out.release()
        if bundle.is_dir():
            out.bundle_bytes = sum(e.stat().st_size
                                   for e in os.scandir(bundle))
        shutil.rmtree(bundle, ignore_errors=True)
        outs.append(out)
        elapsed = time.perf_counter() - start
        if out.error or (len(outs) >= min_pipelines
                         and elapsed + out.total_s > seconds):
            return outs


def counts(outs, checks):
    attempted = sum(o.attempted for o in outs) + len(checks.results)
    failed = sum(o.failed for o in outs) + len(checks.failed)
    for o in outs:
        if o.recovery is not None:
            attempted += o.recovery.trials
            failed += o.recovery.trials - o.recovery.successes
    return attempted, failed


def check_across_runs(key, digest, checks):
    """atoms.bin must hash the same in every run of the same workload,
    source and BLAS thread counts."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        checks.add("atoms.bin identical to earlier runs of this source",
                   known[key] == digest, f"{digest} vs {known[key]}")
        return
    known[key] = digest
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quarter(n):
    return max(1, (n + 3) // 4)


def _quiet(xs):
    """Mean of the fastest quarter of xs (at least one value)."""
    if not xs:
        return 0.0
    return statistics.fmean(sorted(xs)[:_quarter(len(xs))])


def _percentile(xs, q):
    return float(np.percentile(xs, q)) if xs else 0.0


def measured(outs) -> list:
    """The pipelines that count: all but the first, which warms caches,
    the allocator and lazy imports."""
    return outs[1:] if len(outs) > 1 else outs


def e2e_metrics(outs, setup_times) -> dict:
    """Over the measured pipelines, the fastest-quarter mean of each
    stage's rounds and of the pipeline totals; OMP latency percentiles
    over the solves of the quarter of pipelines whose recovery was
    fastest (at least 100 solves, so p90 has ten beyond it).  Peak RSS
    is the high-water mark through the first pipeline, what one build ->
    audit -> recover pass needs; later pipelines only add allocator
    fragmentation, which varies from run to run."""
    first, outs = outs[0], measured(outs)
    m = {"setup_s": _median(setup_times)}
    for stage in wl.STAGES:
        m[stage + "_s"] = _quiet([t for o in outs for t in o.rounds[stage]])
    quiet = sorted(outs, key=lambda o: o.stage_s["recover"])
    solves = [t for o in quiet[:_quarter(len(outs))] for t in o.omp_latencies]
    for q in (50, 90):
        m[f"omp_p{q}_ms"] = _percentile(solves, q) * 1e3
    m["total_s"] = _quiet([o.total_s for o in outs])
    m["peak_rss_mb"] = first.maxrss_kb / 1024
    return m


def layer_metrics(tracer, n, bundle_bytes) -> dict:
    """Per-pipeline means of the traced spans, storage times per call;
    latency percentiles over all calls."""
    selfs = tracer.self_times()
    names = {s.id: s.name for s in tracer.spans}
    by = defaultdict(list)
    for s in tracer.spans:
        by[s.name].append(s)

    def calls(name):
        return len(by[name]) / n

    def secs(name):
        return sum(s.duration for s in by[name]) / n

    def per_call(name):
        return rate(sum(s.duration for s in by[name]), len(by[name]))

    def self_s(name):
        return sum(selfs[s.id] for s in by[name]) / n

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name])

    def pct(name, q):
        return _percentile([s.duration for s in by[name]], q)

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    top_builds = [s for b in BUILDERS for s in by["dictionary." + b]
                  if names[s.parent].startswith("stage.")]
    save_s = per_call("storage.save_dictionary")
    load_s = per_call("storage.load_dictionary")
    coh_s = secs("analysis.coherence")
    m = {
        "weil.rho.calls": calls("weil.rho"),
        "weil.rho.self_s": self_s("weil.rho"),
        "weil.rho.p50_us": pct("weil.rho", 50) * 1e6,
        "linalg.eig_unitary.calls": calls("linalg.eig_unitary"),
        "linalg.eig_unitary.self_s": self_s("linalg.eig_unitary"),
        "linalg.eig_unitary.p50_ms": pct("linalg.eig_unitary", 50) * 1e3,
        "linalg.eig_unitary.p90_ms": pct("linalg.eig_unitary", 90) * 1e3,
        "linalg.phase_normalize_rows.calls":
            calls("linalg.phase_normalize_rows"),
        "linalg.phase_normalize_rows.self_s":
            self_s("linalg.phase_normalize_rows"),
        "sl2.nonsplit_tori.s": secs("sl2.nonsplit_tori"),
        "sl2.nonsplit_tori.count": attr("sl2.nonsplit_tori", "count") / n,
        "sl2.split_representatives.s": secs("sl2.split_representatives"),
        "heisenberg.pi.calls": calls("heisenberg.pi"),
        "heisenberg.pi.self_s": self_s("heisenberg.pi"),
        **{f"dictionary.{b}.self_s": self_s("dictionary." + b)
           for b in BUILDERS},
        "dictionary.atoms": sum(s.attrs["atoms"] for s in top_builds) / n,
        "dictionary.bytes": sum(s.attrs["bytes"] for s in top_builds) / n,
        "storage.save_dictionary.s": save_s,
        "storage.load_dictionary.s": load_s,
        "storage.bytes_written": bundle_bytes,
        "storage.bytes_read": bundle_bytes,
        "storage.write_MBps": rate(bundle_bytes / 1e6, save_s),
        "storage.read_MBps": rate(bundle_bytes / 1e6, load_s),
        "analysis.coherence.s": coh_s,
        "analysis.coherence.pairs": attr("analysis.coherence", "pairs") / n,
        "analysis.coherence.pairs_per_s":
            rate(attr("analysis.coherence", "pairs") / n, coh_s),
        "analysis.coherence.gflops_computed":
            rate(attr("analysis.coherence", "flops") / n / 1e9, coh_s),
        "analysis.shifted_coherence.s": secs("analysis.shifted_coherence"),
        "sparse.omp.calls": calls("sparse.omp"),
        "sparse.omp.self_s": self_s("sparse.omp"),
        "sparse.omp.iterations": rate(attr("sparse.omp", "iterations"),
                                      len(by["sparse.omp"])),
        "sparse.synthesize.s": secs("sparse.synthesize"),
        "sparse.success_ratio": rate(
            attr("sparse.recovery_experiment", "successes"),
            attr("sparse.recovery_experiment", "trials")),
    }
    stage_s = sum(s.duration for s in tracer.spans
                  if s.name.startswith("stage."))
    m["trace.stage_coverage"] = rate(stage_s, secs("pipeline") * n)
    m["trace.absent"] = len(set(tracer.absent))
    return m


def run_untraced(args, w, bundle, checks, reference):
    setup_times = measure_setup(args, checks)
    outs = run_loop(w, args.seed, args.seconds, bundle, checks, reference,
                    MIN_PIPELINES)
    metrics = e2e_metrics(outs, setup_times)
    detail = {"setup_s": setup_times,
              "pipelines": [dict(o.stage_s, total_s=o.total_s) for o in outs],
              "rounds": [o.rounds for o in outs],
              "omp_solves": sum(len(o.omp_latencies)
                                for o in measured(outs))}
    return outs, metrics, detail


def run_traced(args, w, bundle, checks, reference):
    tracer = spans.Tracer()
    outs = run_loop(w, args.seed, args.seconds, bundle, checks, reference, 2,
                    lambda i: tracer if i % 2 else None)
    traced = [o.total_s for o in outs[1::2]]
    untraced = [o.total_s for o in (outs[2::2] or outs[0::2])]
    metrics = layer_metrics(tracer, max(len(traced), 1),
                            _median([o.bundle_bytes for o in outs]))
    metrics["trace.total_s"] = _median(traced)
    metrics["trace.untraced_total_s"] = _median(untraced)
    metrics["trace.overhead_s"] = _median(traced) - _median(untraced)
    dflt = run_default_threads_child(args, checks)
    metrics["threads_default.total_s"] = dflt.get("total_s", 0.0)
    metrics["threads_default.build_s"] = dflt.get("build_s", 0.0)
    metrics["threads_default.linalg.eig_unitary.self_s"] = \
        dflt.get("eig_self_s", 0.0)
    metrics["threads_default.total_ratio"] = \
        dflt.get("total_s", 0.0) / metrics["trace.total_s"] \
        if metrics["trace.total_s"] else 0.0
    # Recorded, not checked: the bytes may depend on the thread count.
    metrics["threads_default.digest_match"] = float(
        dflt.get("digest") == reference.get("digests", [None])[-1])
    spans_dir = OUT / "spans"
    spans_dir.mkdir(exist_ok=True)
    tracer.write(spans_dir / f"{_tag(args)}.jsonl")
    detail = {"absent": sorted(set(tracer.absent)), "threads_default": dflt,
              "traced_total_s": traced, "untraced_total_s": untraced}
    return outs, {k: metrics[k] for k in LAYER_UNITS}, detail


def run_default_threads_child(args, checks) -> dict:
    """The traced pipeline again, in a fresh process at the BLAS thread
    count the user's environment gives."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update({k: v for k, v in USER_BLAS_ENV.items() if v is not None})
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--default-threads-pass",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / 4), "--trace", "1"] \
        + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=wl.ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        checks.add("default-thread pass finished", False,
                   f"timeout {CHILD_TIMEOUT_S} s")
        return {}
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines)
    checks.add("default-thread pass finished", ok,
               f"exit {proc.returncode} {proc.stderr[-500:]}")
    if not ok:
        return {}
    result = json.loads(lines[-1])
    checks.add("default-thread pass outputs correct", result["failed"] == 0,
               f"{result['failed']}/{result['attempted']} failed")
    return result


def default_threads_pass(args, w, bundle) -> int:
    checks, reference = wl.Checks(), {}
    tracer = spans.Tracer()
    outs = run_loop(w, args.seed, args.seconds, bundle, checks, reference,
                    1, lambda i: tracer)
    attempted, failed = counts(outs, checks)
    eig = sum(d for s, d in tracer.self_times().items()
              if tracer.spans[s].name == "linalg.eig_unitary")
    print(json.dumps({
        "total_s": _median([o.total_s for o in outs]),
        "build_s": _median([o.stage_s["build"] for o in outs]),
        "eig_self_s": eig / len(outs),
        "digest": reference.get("digests", [None])[-1],
        "blas_threads": blas_threads(),
        "attempted": attempted,
        "failed": failed,
    }))
    return 0


def _name(args) -> str:
    return f"{'smoke-' if args.smoke else ''}{args.workload}"


def _tag(args) -> str:
    return f"{_name(args)}-seed{args.seed}-trace{args.trace}"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal roles and the smoke test's small sizes
    ap.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--default-threads-pass", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = (wl.SMOKE if args.smoke else wl.WORKLOADS)[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    bundle = OUT / f"bundle-{os.getpid()}"
    try:
        if args.default_threads_pass:
            return default_threads_pass(args, w, bundle)
        checks, reference = wl.Checks(), {}
        run = run_traced if args.trace else run_untraced
        outs, metrics, detail = run(args, w, bundle, checks, reference)
        facts = machine_facts(args.seed)
        if "digests" in reference:
            key = "|".join([_name(args), repr(w), facts["source_sha256"],
                            json.dumps(facts["blas_threads"], sort_keys=True)])
            check_across_runs(key, reference["digests"][-1], checks)
    finally:
        shutil.rmtree(bundle, ignore_errors=True)
    attempted, failed = counts(outs, checks)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    report(args, facts, metrics, units, outs, checks, attempted, failed,
           detail, reference)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0 if failed == 0 else 1


def report(args, facts, metrics, units, outs, checks, attempted, failed,
           detail, reference):
    """Human-readable lines, and the full record under perfbench/out."""
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(outs)} "
          f"pipelines, trace {args.trace}")
    for name in units:
        print(f"  {name:36s} {metrics[name]:14.6f} {units[name]}")
    print(f"  {'failed_ratio':36s} {failed / attempted:14.6f} "
          f"({failed} of {attempted} operations)")
    if reference.get("digests"):
        print(f"  atoms.bin sha256 {reference['digests'][-1]}")
    if detail.get("absent"):
        print("  absent traced names: " + " ".join(detail["absent"]))
    for name, ok, info in checks.failed:
        print(f"  FAILED {name}: {info}")
    for o in outs:
        if o.error:
            print(f"  FAILED pipeline: {o.error}")
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "facts": facts,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "checks": checks.results, "detail": detail,
              "digests": reference.get("digests")}
    (results / f"{_tag(args)}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")


if __name__ == "__main__":
    sys.exit(main())
