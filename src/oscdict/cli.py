"""Command-line frontend: build dictionaries, audit coherence, run
sparse recovery, and self-test the algebraic invariants.

Exit codes are a stable contract:
  0  success
  1  a proven bound or invariant failed (implementation bug signal)
  2  bad input (composite prime, unknown kind, size mismatch, a build
     larger than MAX_BUNDLE_BYTES)
  3  I/O failure (missing or unwritable paths)
  4  corrupt dictionary or signal file
  5  sparse recovery failure
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .analysis import coherence, verify_orthonormal
from .dictionary import (expected_size, extended_dictionary,
                         heisenberg_dictionary, nonsplit_oscillator,
                         oscillator_dictionary, split_oscillator,
                         unit_norm_defect)
from .field import FpField, is_prime
from .heisenberg import HeisenbergElement, h_mul, pi
from .linalg import unitarity_defect
from .sl2 import (bruhat, nonsplit_tori, sl2_elements, sl2_order,
                  split_representatives)
from .sparse import RecoveryError, omp, recovery_experiment
from .storage import (CorruptDictionaryError, bundle_blob_size,
                      load_dictionary, load_signal, save_dictionary)
from .weil import egorov_defect, rho

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_CORRUPT = 4
EXIT_RECOVERY = 5

# largest atoms.bin that build will make; a build holds about twice this
MAX_BUNDLE_BYTES = 2 << 30

CLI_KINDS = {
    "heisenberg": "heisenberg",
    "oscillator-split": "oscillator_split",
    "oscillator-nonsplit": "oscillator_nonsplit",
    "oscillator": "oscillator",
    "extended": "extended",
}


def _check_prime(p: int) -> str | None:
    if p < 5:
        return f"prime must be at least 5, got {p}"
    if not is_prime(p):
        return f"{p} is not prime"
    return None


def build_kind(kind_cli: str, field: FpField):
    kind = CLI_KINDS[kind_cli]
    if kind == "heisenberg":
        return heisenberg_dictionary(field)
    if kind == "oscillator_split":
        return split_oscillator(field)
    if kind == "oscillator_nonsplit":
        return nonsplit_oscillator(field)
    if kind == "oscillator":
        return oscillator_dictionary(field)
    return extended_dictionary(oscillator_dictionary(field))


def cmd_build(args) -> int:
    msg = _check_prime(args.prime)
    if msg:
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_BAD_INPUT
    size = bundle_blob_size(expected_size(CLI_KINDS[args.kind], args.prime),
                            args.prime)
    if size > MAX_BUNDLE_BYTES:
        print(f"error: kind {args.kind} at p={args.prime} needs a "
              f"{size / 2**30:.1f} GiB bundle, over the "
              f"{MAX_BUNDLE_BYTES / 2**30:.0f} GiB limit", file=sys.stderr)
        return EXIT_BAD_INPUT
    field = FpField(args.prime)
    t0 = time.perf_counter()
    d = build_kind(args.kind, field)
    build_seconds = time.perf_counter() - t0
    try:
        save_dictionary(d, args.out)
    except OSError as e:
        print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"built kind={args.kind} p={args.prime} atoms={len(d)} "
          f"groups={d.n_groups} wall={build_seconds:.3f}s -> {args.out}")
    print(f"counts: atoms={len(d)} expected={expected_size(d.kind, d.prime)} "
          f"ops: group-builds={d.n_groups} "
          f"gram-free build, all orderings deterministic")
    return EXIT_OK


def _report_text(rep) -> str:
    lines = [
        f"label            {rep.label}",
        f"dictionary       kind={rep.kind} p={rep.prime}",
        f"mode             {rep.mode} (pairs={rep.pairs_evaluated}"
        + (f", seed={rep.seed}" if rep.seed is not None else "") + ")",
        f"max coherence    {rep.max_coherence:.12f} at {rep.argmax}",
        f"min coherence    {rep.min_coherence:.12f}",
        f"bound            {rep.bound:.12f} "
        + ("(vacuous)" if rep.bound_vacuous
           else "(holds)" if rep.bound_holds else "(VIOLATED)"),
    ]
    if rep.within_group_defect is not None:
        lines.append(f"within-group     {rep.within_group_defect:.3e}")
    nz = np.flatnonzero(rep.histogram_counts)
    for b in nz:
        lines.append(f"  [{rep.histogram_edges[b]:.2f},"
                     f"{rep.histogram_edges[b + 1]:.2f})  "
                     f"{int(rep.histogram_counts[b])}")
    return "\n".join(lines) + "\n"


def _report_csv(rep) -> str:
    rows = ["bin_lo,bin_hi,count"]
    for b in range(len(rep.histogram_counts)):
        rows.append(f"{rep.histogram_edges[b]},{rep.histogram_edges[b + 1]},"
                    f"{int(rep.histogram_counts[b])}")
    return "\n".join(rows) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_coherence(args) -> int:
    try:
        d = load_dictionary(args.dictionary)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except CorruptDictionaryError as e:
        print(f"error: corrupt dictionary: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    rep = coherence(d, mode=args.mode, samples=args.samples, seed=args.seed)
    if args.format == "json":
        text = json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _report_csv(rep)
    else:
        text = _report_text(rep)
    try:
        _emit(text, args.out)
    except OSError as e:
        print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    if rep.bound_vacuous or rep.bound_holds:
        return EXIT_OK
    print(f"error: coherence {rep.max_coherence:.6f} exceeds proven bound "
          f"{rep.bound:.6f}", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_recover(args) -> int:
    try:
        d = load_dictionary(args.dictionary)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except CorruptDictionaryError as e:
        print(f"error: corrupt dictionary: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    if args.experiment:
        report = recovery_experiment(d, args.sparsity, args.trials,
                                     seed=args.seed)
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        try:
            _emit(text, args.out)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return EXIT_IO
        return EXIT_OK
    try:
        f = load_signal(args.signal)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except CorruptDictionaryError as e:
        print(f"error: corrupt signal: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    if len(f) != d.prime:
        print(f"error: signal length {len(f)} != dictionary dimension "
              f"{d.prime}", file=sys.stderr)
        return EXIT_BAD_INPUT
    k = args.sparsity if args.sparsity else d.prime
    try:
        rep = omp(d, f, max_support=k)
    except RecoveryError as e:
        print(f"error: recovery failed: {e}", file=sys.stderr)
        return EXIT_RECOVERY
    for i, c in zip(rep.support, rep.coefficients):
        print(f"{i} {c.real:+.12e}{c.imag:+.12e}j")
    print(f"residual {rep.residual_norm:.3e}")
    return EXIT_OK


def _selftest_checks(field: FpField):
    """Yield (name, ok, detail) for the bundled invariant suite."""
    p = field.p
    rng = np.random.default_rng(20240 + p)

    squares = {(x * x) % p for x in range(1, p)}
    ok = all(field.legendre(a) == (1 if a in squares else -1)
             for a in range(1, p)) and field.legendre(0) == 0
    yield "legendre matches square table", ok, ""

    r = field.mult_generator()
    yield "generator order p-1", field.element_order(r) == p - 1, f"r={r}"

    worst = 0.0
    for _ in range(50):
        a = HeisenbergElement(*rng.integers(0, p, 3), field)
        b = HeisenbergElement(*rng.integers(0, p, 3), field)
        worst = max(worst, float(np.max(np.abs(
            pi(a) @ pi(b) - pi(h_mul(a, b))))))
    yield "pi is a homomorphism", worst <= 1e-10, f"defect {worst:.1e}"

    ok = all(bruhat(g).reconstruct() == g for g in sl2_elements(field))
    yield "Bruhat round-trip (all elements)", ok, f"{p ** 3 - p} elements"

    reps = split_representatives(field)
    yield "split representative count", len(reps) == p * (p + 1) // 2, \
        f"{len(reps)}"

    tori = nonsplit_tori(field)
    ok = (len(tori) == p * (p - 1) // 2
          and all(sl2_order(t.generator) == p + 1 for t in tori))
    yield "non-split tori (count, generator order)", ok, f"{len(tori)}"

    worst = 0.0
    gens = [HeisenbergElement(1, 0, 0, field),
            HeisenbergElement(0, 1, 0, field),
            HeisenbergElement(0, 0, 1, field)]
    for g in reps:
        for h in gens:
            worst = max(worst, egorov_defect(g, h))
    yield "Egorov relation over R x generators", worst <= 1e-9, \
        f"defect {worst:.1e}"

    worst = max(unitarity_defect(rho(g).matrix) for g in reps)
    yield "rho unitary over R", worst <= 1e-10, f"defect {worst:.1e}"

    dh = heisenberg_dictionary(field)
    ok = len(dh) == p * (p + 1) and unit_norm_defect(dh) <= 1e-12
    yield "Heisenberg dictionary size and norms", ok, f"{len(dh)} atoms"

    rep = coherence(dh, mode="exhaustive")
    mu = 1 / np.sqrt(p)
    ok = (abs(rep.max_coherence - mu) <= 1e-9
          and abs(rep.min_coherence - mu) <= 1e-9)
    yield "cross-line coherence equals 1/sqrt(p)", ok, \
        f"max {rep.max_coherence:.9f}"

    worst = max(verify_orthonormal(dh.group_matrix(g))
                for g in range(dh.n_groups))
    yield "line bases orthonormal", worst <= 1e-10, f"defect {worst:.1e}"

    ds = split_oscillator(field)
    yield "split oscillator cardinality", \
        len(ds) == p * (p + 1) * (p - 2) // 2, f"{len(ds)}"

    dn = nonsplit_oscillator(field)
    yield "non-split oscillator cardinality", \
        len(dn) == p * p * (p - 1) // 2, f"{len(dn)}"

    f = ds.vectors[7] * np.exp(0.3j)
    sr = omp(ds, f, max_support=1)
    ok = sr.support == [7] and sr.residual_norm <= 1e-10
    yield "one-sparse recovery", ok, ""


def cmd_selftest(args) -> int:
    msg = _check_prime(args.prime)
    if msg:
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_BAD_INPUT
    field = FpField(args.prime)
    failures = 0
    for name, ok, detail in _selftest_checks(field):
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {name:<42s}{suffix}")
        failures += 0 if ok else 1
    print(f"selftest p={args.prime}: "
          + ("all checks passed" if failures == 0
             else f"{failures} check(s) FAILED"))
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscdict",
        description="Deterministic low-coherence dictionaries in C^p from "
                    "Heisenberg and Weil representation eigenbases.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a dictionary bundle")
    b.add_argument("--prime", type=int, required=True)
    b.add_argument("--kind", choices=sorted(CLI_KINDS), default="heisenberg")
    b.add_argument("--out", required=True, help="output directory")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("coherence", help="audit coherence of a saved bundle")
    c.add_argument("dictionary", help="bundle directory")
    c.add_argument("--mode", choices=["auto", "exhaustive", "sampled"],
                   default="auto")
    c.add_argument("--samples", type=int, default=1_000_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.add_argument("--format", choices=["json", "text", "csv"],
                   default="text")
    c.set_defaults(func=cmd_coherence)

    r = sub.add_parser("recover", help="sparse recovery on a saved bundle")
    r.add_argument("dictionary", help="bundle directory")
    r.add_argument("--signal", default=None, help="signal file to recover")
    r.add_argument("--experiment", action="store_true",
                   help="run the Monte-Carlo recovery experiment")
    r.add_argument("--sparsity", type=int, default=0)
    r.add_argument("--trials", type=int, default=200)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_recover)

    s = sub.add_parser("selftest", help="run the invariant suite at one p")
    s.add_argument("--prime", type=int, required=True)
    s.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "recover" and not args.experiment and not args.signal:
        print("error: recover needs --signal or --experiment",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.command == "recover" and args.experiment and args.sparsity < 1:
        print("error: --experiment needs --sparsity >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
