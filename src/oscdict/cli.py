"""Command-line frontend: build dictionaries, audit coherence, run
sparse recovery, and self-test the algebraic invariants.

Exit codes are a stable contract:
  0  success
  1  a proven bound or invariant failed (implementation bug signal)
  2  bad input (composite prime, unknown kind, size mismatch, a build or
     a selftest (both oscillator families) above MAX_BUNDLE_BYTES, a
     count or sparsity out of range)
  3  I/O failure (missing or unwritable paths, a path of the wrong type)
  4  corrupt dictionary or signal file
  5  sparse recovery failure

Commands raise; ``main`` alone maps each failure to its exit code and
one ``error:`` line.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .analysis import DEFAULT_SAMPLES, coherence, verify_orthonormal
from .dictionary import (BUILDERS, expected_size, heisenberg_dictionary,
                         nonsplit_oscillator, split_oscillator,
                         unit_norm_defect)
from .field import FpField, is_prime
from .heisenberg import HeisenbergElement, h_mul, pi
from .linalg import UNIT_NORM_TOL, unitarity_defect
from .sl2 import (bruhat, nonsplit_tori, sl2_elements, sl2_order,
                  split_representatives)
from .sparse import (RecoveryError, omp, orbit_correlations,
                     recovery_experiment)
from .storage import (MAX_BUNDLE_BYTES, CorruptDictionaryError,
                      dictionary_bytes, load_dictionary, load_signal,
                      save_dictionary)
from .weil import egorov_defect, rho

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_CORRUPT = 4
EXIT_RECOVERY = 5

class BadInput(Exception):
    """A request that cannot be run as given (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error line and exit 2, like any refusal
        raise BadInput(f"{self.prog}: {message}")


def _field(p: int, kind: str) -> FpField:
    """F_p for a request holding as many atoms as one bundle of kind.

    p >= 5 is checked first (a negative p can give a positive size), then
    the size, so a huge p is refused before any trial division.
    """
    if p < 5:
        raise BadInput(f"prime must be at least 5, got {p}")
    # every build writes its atoms once into one preallocated array, so
    # it peaks near their size, which a load of the bundle allocates too
    size = dictionary_bytes(expected_size(kind, p), p)
    if size > MAX_BUNDLE_BYTES:
        raise BadInput(f"p={p} needs {size / 2**30:.3g} GiB of {kind} "
                       f"atoms, over the {MAX_BUNDLE_BYTES / 2**30:.0f} "
                       f"GiB limit")
    if not is_prime(p):
        raise BadInput(f"{p} is not prime")
    return FpField(p)


def cmd_build(args) -> int:
    kind = args.kind.replace("-", "_")
    field = _field(args.prime, kind)
    t0 = time.perf_counter()
    d = BUILDERS[kind](field)
    build_seconds = time.perf_counter() - t0
    save_dictionary(d, args.out)
    print(f"built kind={args.kind} p={args.prime} atoms={len(d)} "
          f"groups={d.n_groups} wall={build_seconds:.3f}s -> {args.out}")
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
    counts = rep.histogram_counts
    for b in np.flatnonzero(counts):
        # the last bin is closed, as in np.histogram: it holds 1.0
        close = "]" if b == len(counts) - 1 else ")"
        lines.append(f"  [{rep.histogram_edges[b]:.2f},"
                     f"{rep.histogram_edges[b + 1]:.2f}{close}  "
                     f"{int(counts[b])}")
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
    d = load_dictionary(args.dictionary)
    rep = coherence(d, mode=args.mode, samples=args.samples, seed=args.seed)
    if args.format == "json":
        text = json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _report_csv(rep)
    else:
        text = _report_text(rep)
    _emit(text, args.out)
    if rep.bound_vacuous or rep.bound_holds:
        return EXIT_OK
    print(f"error: coherence {rep.max_coherence:.6f} exceeds proven bound "
          f"{rep.bound:.6f}", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_recover(args) -> int:
    d = load_dictionary(args.dictionary)
    if args.sparsity > len(d):
        raise BadInput(f"--sparsity {args.sparsity} exceeds {len(d)} atoms")
    if args.experiment:
        report = recovery_experiment(d, args.sparsity, args.trials,
                                     seed=args.seed)
        _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
              args.out)
        return EXIT_OK
    f = load_signal(args.signal)
    if len(f) != d.prime:
        raise BadInput(f"signal length {len(f)} != dictionary dimension "
                       f"{d.prime}")
    k = args.sparsity if args.sparsity else d.prime
    rep = omp(d, f, max_support=k)
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

    worst = max(unitarity_defect(rho(g)) for g in reps)
    yield "rho unitary over R", worst <= 1e-10, f"defect {worst:.1e}"

    dh = heisenberg_dictionary(field)
    ok = len(dh) == p * (p + 1) and unit_norm_defect(dh) <= UNIT_NORM_TOL
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

    r = rng.normal(size=p) + 1j * rng.normal(size=p)
    worst = 0.0
    for d in (dh, ds, dn):
        corr = orbit_correlations(d, r)
        worst = max(worst, np.inf if corr is None else float(
            np.max(np.abs(corr - np.abs(d.vectors @ r.conj())))))
    yield "orbit correlations match |V r*|", \
        worst <= 1e-12 * np.linalg.norm(r), f"max diff {worst:.1e}"

    f = ds.vectors[7] * np.exp(0.3j)
    sr = omp(ds, f, max_support=1)
    ok = sr.support == [7] and sr.residual_norm <= 1e-10
    yield "one-sparse recovery", ok, ""


def cmd_selftest(args) -> int:
    # the checks hold the split and the non-split family at once: as many
    # atoms as their union
    field = _field(args.prime, "oscillator")
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
    parser = _Parser(
        prog="oscdict",
        description="Deterministic low-coherence dictionaries in C^p from "
                    "Heisenberg and Weil representation eigenbases.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a dictionary bundle")
    b.add_argument("--prime", type=int, required=True)
    b.add_argument("--kind", default="heisenberg",
                   choices=sorted(k.replace("_", "-") for k in BUILDERS))
    b.add_argument("--out", required=True, help="output directory")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("coherence", help="audit coherence of a saved bundle")
    c.add_argument("dictionary", help="bundle directory")
    c.add_argument("--mode", choices=["auto", "exhaustive", "sampled"],
                   default="auto")
    c.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
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


def _check_arguments(args) -> None:
    """Refuse parsed arguments that cannot be run, before any load."""
    if args.command in ("coherence", "recover") and args.seed < 0:
        # numpy seeds only non-negative integers
        raise BadInput(f"--seed must be at least 0, got {args.seed}")
    if args.command == "coherence" and args.samples < 1:
        raise BadInput(f"--samples must be at least 1, got {args.samples}")
    if args.command != "recover":
        return
    if not args.experiment and not args.signal:
        raise BadInput("recover needs --signal or --experiment")
    floor = 1 if args.experiment else 0
    if args.sparsity < floor:
        raise BadInput(f"--sparsity must be at least {floor}, "
                       f"got {args.sparsity}")
    if args.trials < 1:
        raise BadInput(f"--trials must be at least 1, got {args.trials}")


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        _check_arguments(args)
        return args.func(args)
    except BadInput as e:
        code, message = EXIT_BAD_INPUT, str(e)
    except OSError as e:
        code, message = EXIT_IO, str(e)
    except CorruptDictionaryError as e:
        code, message = EXIT_CORRUPT, f"corrupt {e.what}: {e}"
    except RecoveryError as e:
        code, message = EXIT_RECOVERY, f"recovery failed: {e}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
