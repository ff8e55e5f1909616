"""Smoke test of the benchmark: every workload's code path at small primes.

    python3 perfbench/smoke.py

Runs run.py on each workload with --trace 0 and --trace 1 at the small
sizes of workloads.SMOKE, and checks that the last line of each run is the
JSON result with exactly the metrics BENCHMARK.json names.  Then checks
that a wrong pinned value fails a check, that a missing traced name is
reported as absent, and that a directory holding only the benchmark exits
nonzero without a result.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=wl.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def check_result(workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, (workload, trace, proc.stdout, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec], workload
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), \
            result["metrics"]
    return result


def check_wrong_pin_fails():
    w = replace(wl.SMOKE["oscillator-audit"], pinned_max=0.5)
    bundle = HERE / "out" / "smoke-bundle"
    try:
        out = wl.run_pipeline(w, 0, str(bundle))
        checks = wl.Checks()
        wl.check_outcome(w, out, checks, {}, str(bundle))
    finally:
        shutil.rmtree(bundle, ignore_errors=True)
    assert [name for name, _, _ in checks.failed] == \
        ["coherence exhaustive oscillator p=7: max = pinned 0.5"], \
        checks.failed


def check_absent_name_reported():
    tracer = spans.Tracer()
    tracer.wrap(wl.dictionary, "no_such_function", "dictionary.none")
    tracer.uninstall()
    assert tracer.absent == ["oscdict.dictionary.no_such_function"]


def check_bare_directory_fails():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "split-build", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, \
        (proc.returncode, proc.stdout)


def main() -> int:
    t0 = time.perf_counter()
    for name in sorted(wl.SMOKE):
        for trace in (0, 1):
            r = check_result(name, trace)
            print(f"ok  {name} --trace {trace}: {r['attempted']} operations")
    check_wrong_pin_fails()
    print("ok  a wrong pinned coherence value fails its check")
    check_absent_name_reported()
    print("ok  a missing traced name is reported as absent")
    check_bare_directory_fails()
    print("ok  a directory without the sources exits nonzero, no result")
    print(f"smoke passed in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
