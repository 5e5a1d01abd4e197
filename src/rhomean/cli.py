"""Command-line interface: reproducible batch runs with JSON artifacts.

Exit codes: 0 success, 1 computational failure (including failed gated
verification cases), 2 usage error (argparse's convention).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import jsonio, verify
from .families import bloch_family_eigenvalue_exact, spin_multiplicity
from .fixtures import get_fixture
from .linalg import Scenario, hermitian_eig
from .measures import RandomStream, sample_density
from .montecarlo import MIN_SAMPLES, estimate_mean
from .oracle import composite_haar_mean, haar_mean
from .spectral import SymbolicMatrix, cluster_spectrum, selection_rule, substitute_v


def _parse_factors(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.lower().replace("*", "x").split("x"))


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


_positive_int = _int_at_least(1)
_sample_count = _int_at_least(MIN_SAMPLES)


def _finite_float(accept, what: str):
    def real(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"must be a finite {what}, got {text}")
        return value

    return real


_tolerance = _finite_float(lambda x: x > 0, "float > 0")
_nonzero_float = _finite_float(lambda x: x != 0, "nonzero float")


def _parse_q(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        return Fraction(parts[0])
    return [Fraction(p) for p in parts]


def _load_symbolic(args) -> SymbolicMatrix:
    if args.fixture:
        fix = get_fixture(args.fixture)
        if fix.matrix is None:
            raise ValueError(f"fixture {args.fixture!r} carries no matrix payload")
        return fix.matrix
    if args.infile:
        return jsonio.symbolic_matrix_from_json(jsonio.load_json(args.infile))
    raise ValueError("provide --fixture or --in")


def _emit(obj: dict, out: str | None) -> None:
    if out:
        jsonio.dump_json(obj, out)
    else:
        sys.stdout.write(jsonio.dumps_json(obj))


def cmd_sample(args) -> int:
    spec = jsonio.parse_measure_arg(args.measure)
    rho = sample_density(spec, RandomStream(args.seed, args.stream))
    _emit(jsonio.complex_matrix_to_json(rho), args.out)
    return 0


def cmd_mean(args) -> int:
    spec = jsonio.parse_measure_arg(args.measure)
    est = estimate_mean(
        spec, args.m, args.samples, seed=args.seed, workers=args.workers
    )
    _emit(jsonio.estimate_to_json(est), args.out)
    return 0


def cmd_oracle(args) -> int:
    factors, q = args.n, args.q
    if len(factors) == 1:
        result = haar_mean(factors[0], args.m, q)
    else:
        qs = q if isinstance(q, list) else [q] * len(factors)
        result = composite_haar_mean(Scenario(factors=factors, power=args.m), qs)
    payload = jsonio.oracle_result_to_json(result)
    payload["spectrum"] = [[str(v), mult] for v, mult in result.spectrum()]
    _emit(payload, args.out)
    return 0


def cmd_spectrum(args) -> int:
    obj = jsonio.load_json(args.infile)
    # oracle and mean artifacts carry their matrix under "matrix"
    if isinstance(obj, dict) and "matrix" in obj:
        obj = obj["matrix"]
    mat = jsonio.any_matrix_to_float(obj)
    vals, vecs = hermitian_eig(mat, tol=args.tol * 100)
    dec = cluster_spectrum(vals, vecs, cluster_tol=args.tol)
    payload = {
        "clusters": [
            {"value": c.value, "multiplicity": c.multiplicity} for c in dec.clusters
        ],
        "stable": dec.stable,
        "cluster_tol": args.tol,
    }
    _emit(payload, args.out)
    return 0


def cmd_selection_rule(args) -> int:
    sym = _load_symbolic(args)
    _emit(jsonio.rational_matrix_to_json(selection_rule(sym)), args.out)
    return 0


def cmd_subst_v(args) -> int:
    sym = _load_symbolic(args)
    _emit(jsonio.complex_matrix_to_json(substitute_v(sym, args.v)), args.out)
    return 0


def cmd_ks(args) -> int:
    if args.d is not None and not 0 <= args.d <= args.m // 2:
        print(f"ks: --d must lie in [0, {args.m // 2}] for --m {args.m}", file=sys.stderr)
        return 2
    rows = []
    ds = [args.d] if args.d is not None else list(range(args.m // 2 + 1))
    for d in ds:
        mult = spin_multiplicity(args.m, d)
        val = bloch_family_eigenvalue_exact(args.m, d, args.u)
        rows.append({"d": d, "eigenvalue": str(val), "multiplicity": mult})
        print(f"d={d}  lambda={val}  multiplicity={mult}")
    if args.out:
        jsonio.dump_json({"m": args.m, "u": str(args.u), "rows": rows}, args.out)
    return 0


def cmd_verify(args) -> int:
    budget = verify.Budget(samples=args.samples, seed=args.seed, workers=args.workers)
    if args.all:
        reports = verify.run_all(budget, quick=not args.full_budget)
    elif args.case:
        reports = [verify.run_case(c, budget) for c in args.case]
    else:
        print("verify: provide --case ID (repeatable) or --all", file=sys.stderr)
        return 2
    for rep in reports:
        print(f"{rep.status:6s} {rep.case}: {rep.notes}")
    if args.out:
        jsonio.dump_json({"reports": [r.to_json() for r in reports]}, args.out)
    failed = [r for r in reports if not r.ok]
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhomean",
        description="exact and Monte Carlo means of tensor powers of random density matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse applies ``type`` to a string default, so a malformed
    # RHOMEAN_WORKERS is reported as a usage error.  Otherwise one worker per
    # CPU this process may run on, which a cpuset or taskset can make fewer
    # than the machine has.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers_default = os.environ.get("RHOMEAN_WORKERS") or cpus

    p = sub.add_parser("sample", help="draw one random density matrix")
    p.add_argument("--measure", required=True, help="measure JSON (inline or file path)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("mean", help="Monte Carlo mean of rho^(x m)")
    p.add_argument("--measure", required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--samples", type=_sample_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=workers_default)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mean)

    p = sub.add_parser("oracle", help="exact mean via the permutation-operator span")
    p.add_argument("--n", type=_parse_factors, required=True, help="dimension, or factors like 2x3x2")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--q", type=_parse_q, default="0", help="Dirichlet exponent (rational), or comma list")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("spectrum", help="clustered spectrum of a matrix JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("selection-rule", help="annihilate the 1/pi parts of a symbolic matrix")
    p.add_argument("--fixture")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_selection_rule)

    p = sub.add_parser("subst-v", help="evaluate a symbolic matrix at pi -> v")
    p.add_argument("--fixture")
    p.add_argument("--in", dest="infile")
    p.add_argument("--v", type=_nonzero_float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_subst_v)

    p = sub.add_parser("ks", help="two-level family eigenvalue/multiplicity table")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--u", type=Fraction, required=True, help="family exponent (rational)")
    p.add_argument("--d", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ks)

    p = sub.add_parser("verify", help="run verification cases")
    p.add_argument("--case", action="append", choices=sorted(verify.CASES), help="case id (repeatable)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--samples", type=_sample_count)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=workers_default)
    p.add_argument("--full-budget", action="store_true", help="use full published budgets")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"rhomean: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
