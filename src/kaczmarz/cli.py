"""Command-line front end: generate problems, solve, benchmark, and certify.

Exit codes: 0 on success, 1 on usage errors, 2 on numerical or
certification failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    certify_trace,
    iteration_complexity,
    momentum_factors,
    rate_report,
)
from .harness import (
    ExperimentSpec,
    RandomProblemSpec,
    emit_results,
    gen_random_problem,
    load_problem_from_file,
    read_matrix_market,
    run_experiment,
    write_matrix_market,
    write_trace_csv,
    read_trace_csv,
    write_vector,
)
from .linalg import Problem, smallest_nonzero_singular_value
from .solvers import SolverConfig, run

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # The CLI contract reserves exit code 1 for usage errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", help="Matrix Market file to load instead of a random problem")
    p.add_argument("--m", type=int, default=500, help="rows of the random problem")
    p.add_argument("--n", type=int, default=100, help="columns of the random problem")
    p.add_argument("--rank", type=int, default=None, help="rank (default min(m, n))")
    p.add_argument("--kappa", type=float, default=10.0, help="condition bound > 1")
    p.add_argument("--seed", type=int, default=0, help="seed for problem and solver streams")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=["cyclic", "rk", "grk", "mgrk"], default="grk")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--gamma-mode", choices=["exact", "lastrow", "frobenius"], default=None)
    p.add_argument("--prob", choices=["residual", "uniform"], default="residual")
    p.add_argument("--rse-tol", type=float, default=1e-12)
    p.add_argument("--max-iters", type=int, default=100_000)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kaczmarz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[], help="write a random problem to files")
    _add_problem_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output prefix (writes <out>_A.mtx etc.)")

    p_solve = sub.add_parser("solve", help="run one solve and emit its trace")
    _add_problem_flags(p_solve)
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out", default=None, help="trace CSV path")

    p_bench = sub.add_parser("bench", help="multi-trial, multi-method experiment")
    _add_problem_flags(p_bench)
    _add_solver_flags(p_bench)
    p_bench.add_argument("--methods", default=None,
                         help="comma list of method specs, e.g. 'grk,mgrk:beta=0.4'")
    p_bench.add_argument("--trials", type=int, default=20)
    p_bench.add_argument("--certify", action="store_true",
                         help="check each trace against its convergence bound")
    p_bench.add_argument("--config", default=None, help="key=value config file")
    p_bench.add_argument("--out", default=None, help="result file path")
    p_bench.add_argument("--format", choices=["csv", "json"], default="csv")

    p_bound = sub.add_parser("bound", help="print rate, momentum, and complexity constants")
    _add_problem_flags(p_bound)
    p_bound.add_argument("--alpha", type=float, default=1.0)
    p_bound.add_argument("--beta", type=float, default=0.0)
    p_bound.add_argument("--epsilon", type=float, default=None,
                         help="target squared error (default 1e-12 * err0)")
    p_bound.add_argument("--rho", type=float, default=0.5)
    p_bound.add_argument("--out", default=None, help="write the JSON report here")

    p_cert = sub.add_parser("certify", help="re-check a stored trace against its bound")
    p_cert.add_argument("--trace", required=True, help="trace CSV from 'solve'")
    p_cert.add_argument("--sigma-min-sq", type=float, default=None)
    p_cert.add_argument("--matrix", default=None,
                        help="recompute sigma_min from this Matrix Market file")
    return parser


def _problem_from_args(args) -> Problem:
    if args.matrix:
        return load_problem_from_file(args.matrix, seed=args.seed)
    rank = args.rank if args.rank is not None else min(args.m, args.n)
    spec = RandomProblemSpec(m=args.m, n=args.n, r=rank, kappa=args.kappa, seed=args.seed)
    return gen_random_problem(spec)


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        variant=args.method,
        alpha=args.alpha,
        beta=args.beta,
        theta=args.theta,
        gamma_mode=args.gamma_mode,
        prob_rule=args.prob,
        seed=args.seed,
        max_iters=args.max_iters,
        rse_tol=args.rse_tol,
    )


def _parse_method_spec(spec: str, base: SolverConfig) -> tuple[str, SolverConfig]:
    """'mgrk:beta=0.4:theta=0.5' -> (label, config overriding the base)."""
    parts = spec.strip().split(":")
    overrides = {"variant": parts[0]}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        key = key.strip()
        if key in ("alpha", "beta", "theta", "rse_tol"):
            overrides[key] = float(value)
        elif key in ("seed", "max_iters"):
            overrides[key] = int(value)
        elif key == "gamma_mode":
            overrides[key] = value.strip()
        elif key == "prob":
            overrides["prob_rule"] = value.strip()
        else:
            raise ValueError(f"unknown method option {key!r} in {spec!r}")
    # Momentum defaults to zero unless the spec sets it.
    if overrides["variant"] != "mgrk":
        overrides.setdefault("beta", 0.0)
    return spec.strip(), dataclasses.replace(base, **overrides)


def _read_config_file(path) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _apply_config_file(args, values: dict) -> None:
    casts = {
        "m": int, "n": int, "rank": int, "trials": int, "seed": int,
        "max_iters": int, "kappa": float, "alpha": float, "beta": float,
        "theta": float, "rse_tol": float,
        "matrix": str, "methods": str, "out": str, "format": str,
        "gamma_mode": str, "prob": str, "method": str,
    }
    for key, raw in values.items():
        if key == "certify":
            args.certify = raw.lower() in ("1", "true", "yes")
            continue
        if key not in casts:
            raise ValueError(f"unknown config key {key!r}")
        setattr(args, key, casts[key](raw))


def _cmd_gen(args) -> int:
    rank = args.rank if args.rank is not None else min(args.m, args.n)
    spec = RandomProblemSpec(m=args.m, n=args.n, r=rank, kappa=args.kappa, seed=args.seed)
    problem = gen_random_problem(spec)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_matrix_market(problem.A, f"{prefix}_A.mtx")
    write_vector(problem.b, f"{prefix}_b.mtx")
    write_vector(problem.x_star, f"{prefix}_xstar.mtx")
    print(f"wrote {prefix}_A.mtx, {prefix}_b.mtx, {prefix}_xstar.mtx")
    return 0


def _cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    config = _config_from_args(args)
    trace = run(problem, config)
    rse = trace.final_rse()
    print(f"method={config.variant.value} iters={trace.iterations} "
          f"termination={trace.termination}"
          + (f" final_rse={rse:.3e}" if rse is not None else ""))
    if args.out:
        write_trace_csv(trace, args.out)
        print(f"trace written to {args.out}")
    return NUMERICAL_ERROR if trace.termination in ("max_iters", "nonfinite") else 0


def _cmd_bench(args) -> int:
    if args.config:
        _apply_config_file(args, _read_config_file(args.config))
    if args.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {args.format!r}")
    base = _config_from_args(args)
    if args.methods:
        methods = [_parse_method_spec(s, base) for s in args.methods.split(",")]
    else:
        methods = [(args.method, base)]
    if args.matrix:
        source = args.matrix
    else:
        rank = args.rank if args.rank is not None else min(args.m, args.n)
        source = RandomProblemSpec(m=args.m, n=args.n, r=rank,
                                   kappa=args.kappa, seed=args.seed)
    spec = ExperimentSpec(source=source, methods=methods, trials=args.trials,
                          certify=args.certify, problem_seed=args.seed)
    result = run_experiment(spec)
    text = emit_results(result, format=args.format, path=args.out)
    if args.out:
        print(f"results written to {args.out}")
    else:
        print(text, end="")
    for meth in result.methods:
        print(f"# {meth.label}: mean_iters={meth.mean_iters:.1f} "
              f"mean_seconds={meth.mean_seconds:.4f} hit_max_iters={meth.hit_max_iters}",
              file=sys.stderr)
    diverged = any(t.termination == "nonfinite" for meth in result.methods for t in meth.trials)
    return NUMERICAL_ERROR if diverged else 0


def _cmd_bound(args) -> int:
    problem = _problem_from_args(args)
    sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
    rates = rate_report(problem.A, sigma_min_sq=sigma_sq)
    report = {
        "rate": dataclasses.asdict(rates),
        "momentum": None,
        "complexity": None,
    }
    try:
        report["momentum"] = dataclasses.asdict(
            momentum_factors(args.alpha, args.beta, sigma_sq, problem.A.frobenius_sq))
    except ValueError as exc:
        report["momentum"] = {"error": str(exc)}
    if problem.x_star is not None:
        err0 = float(problem.x_star @ problem.x_star)
        eps = args.epsilon if args.epsilon is not None else 1e-12 * err0
        report["complexity"] = dataclasses.asdict(
            iteration_complexity(sigma_sq, problem.A.frobenius_sq, err0, eps, args.rho))
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_certify(args) -> int:
    trace = read_trace_csv(args.trace)
    if args.sigma_min_sq is not None:
        sigma_sq = args.sigma_min_sq
    elif args.matrix:
        sigma_sq = smallest_nonzero_singular_value(read_matrix_market(args.matrix)) ** 2
    else:
        raise ValueError("certify needs --sigma-min-sq or --matrix")
    result = certify_trace(trace, sigma_sq)
    if result.passed:
        print(f"certified: {result.checked} steps satisfy the {result.mode} bound")
        return 0
    print(f"violation at k={result.first_violation} ({result.mode} bound)", file=sys.stderr)
    return NUMERICAL_ERROR


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "bound": _cmd_bound,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"kaczmarz: error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
