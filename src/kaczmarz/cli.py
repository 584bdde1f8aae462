"""Command-line front end: generate problems, solve, benchmark, and certify.

Exit codes: 0 on success, 1 on usage errors, 2 on numerical or
certification failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .analysis import (
    _check_positive,
    _check_rho,
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
    load_problem,
    read_matrix_market,
    run_experiment,
    write_matrix_market,
    write_trace_csv,
    read_trace_csv,
    write_vector,
)
from .linalg import smallest_nonzero_singular_value
from .selection import GammaMode, ProbabilityRule
from .solvers import SolverConfig, SolverVariant, run

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # Exact flag names only, so that a --methods or --config key never
    # silently stands for a longer flag.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # The CLI contract reserves exit code 1 for usage errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=500, help="rows of the random problem")
    p.add_argument("--n", type=int, default=100, help="columns of the random problem")
    p.add_argument("--rank", type=int, default=None, help="rank (default min(m, n))")
    p.add_argument("--kappa", type=float, default=10.0, help="condition bound > 1")
    p.add_argument("--seed", type=int, default=0, help="seed for problem and solver streams")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    """One flag per SolverConfig field except seed; SolverConfig holds the defaults."""
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--method", dest="variant", choices=[v.value for v in SolverVariant])
    flag("--alpha", type=float)
    flag("--beta", type=float)
    flag("--theta", type=float)
    flag("--gamma-mode", choices=[g.value for g in GammaMode])
    flag("--prob", dest="prob_rule", choices=[r.value for r in ProbabilityRule])
    flag("--rse-tol", type=float)
    flag("--max-iters", type=int)


def _yes_no(text: str) -> bool:
    """A --certify value: true, yes or 1, or false, no or 0, in any case."""
    value = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}.get(text.strip().lower())
    if value is None:
        raise argparse.ArgumentTypeError(f"expected true, false, yes, no, 1 or 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="kaczmarz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a random problem to files")
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
    p_bench.add_argument("--certify", nargs="?", const=True, default=False, type=_yes_no,
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

    for p in (p_solve, p_bench, p_bound):
        p.add_argument("--matrix", help="Matrix Market file to load instead of a random problem")

    p_cert = sub.add_parser("certify", help="re-check a stored trace against its bound")
    p_cert.add_argument("--trace", required=True, help="trace CSV from 'solve'")
    p_cert.add_argument("--sigma-min-sq", type=float, default=None)
    p_cert.add_argument("--matrix", default=None,
                        help="the trace's Matrix Market file: its ||A||_F^2 must match the "
                             "trace's, and it gives sigma_min unless --sigma-min-sq is set")
    return parser


def _flag(key: str, value: str) -> str:
    """A spec or config-file 'key=value' as the flag it stands for: '--key=value'."""
    return f"--{key.strip().replace('_', '-')}={value.strip()}"


def _config_flags(path) -> list[str]:
    """The flags a key=value config file stands for, in file order."""
    flags = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        flags.append(_flag(key, value))
    return flags


def _config_from_args(args) -> SolverConfig:
    given = vars(args)
    return SolverConfig(**{f.name: given[f.name] for f in dataclasses.fields(SolverConfig)
                           if f.name in given})


def _method_from_spec(spec: str, args) -> tuple[str, SolverConfig]:
    """'mgrk:beta=0.4' -> (label, config): the flags '--method=mgrk --beta=0.4'
    applied over the bench flags."""
    spec = spec.strip()
    variant, *options = spec.split(":")
    parser = _Parser(prog=f"kaczmarz bench --methods {spec}", add_help=False)
    _add_solver_flags(parser)
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    given = argparse.Namespace(**vars(args))
    # Momentum defaults to zero unless the spec sets it.
    if variant.strip() != "mgrk":
        given.beta = 0.0
    parser.parse_args([_flag("method", variant)]
                      + [_flag(*option.partition("=")[::2]) for option in options],
                      namespace=given)
    try:
        return spec, _config_from_args(given)
    except ValueError as exc:
        parser.error(str(exc))


def _problem_source(args) -> RandomProblemSpec | str:
    """The --matrix file, or the random problem the shape flags describe."""
    if getattr(args, "matrix", None):
        return args.matrix
    rank = args.rank if args.rank is not None else min(args.m, args.n)
    return RandomProblemSpec(m=args.m, n=args.n, r=rank, kappa=args.kappa, seed=args.seed)


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv and build the settings objects of its command.

    Every bad setting, whether from a flag, a --methods spec or a --config
    line, is a usage error found here, before any command runs.
    """
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.command == "bench" and args.config:
            # Config lines go after argv, so they override flags.
            args = parser.parse_args(argv + _config_flags(args.config))
        if args.command == "certify":
            if args.sigma_min_sq is None and not args.matrix:
                raise ValueError("certify needs --sigma-min-sq or --matrix")
            if args.sigma_min_sq is not None:
                _check_positive(sigma_min_sq=args.sigma_min_sq)
        else:
            args.source = _problem_source(args)
        if args.command == "bound":
            if args.epsilon is not None:
                _check_positive(epsilon=args.epsilon)
            _check_rho(args.rho)
        if args.command == "solve":
            args.solver = _config_from_args(args)
        if args.command == "bench":
            if args.methods:
                methods = [_method_from_spec(spec, args) for spec in args.methods.split(",")]
            else:
                solver = _config_from_args(args)
                methods = [(solver.variant.value, solver)]
            args.experiment = ExperimentSpec(source=args.source, methods=methods,
                                             trials=args.trials, certify=args.certify,
                                             problem_seed=args.seed)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    return args


def _cmd_gen(args) -> int:
    problem = gen_random_problem(args.source)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_matrix_market(problem.A, f"{prefix}_A.mtx")
    write_vector(problem.b, f"{prefix}_b.mtx")
    write_vector(problem.x_star, f"{prefix}_xstar.mtx")
    print(f"wrote {prefix}_A.mtx, {prefix}_b.mtx, {prefix}_xstar.mtx")
    return 0


def _cmd_solve(args) -> int:
    trace = run(load_problem(args.source, args.seed), args.solver)
    rse = trace.final_rse()
    print(f"method={trace.config.variant.value} iters={trace.iterations} "
          f"termination={trace.termination}"
          + (f" final_rse={rse:.3e}" if rse is not None else ""))
    if args.out:
        write_trace_csv(trace, args.out)
        print(f"trace written to {args.out}")
    return NUMERICAL_ERROR if trace.termination in ("max_iters", "nonfinite") else 0


def _cmd_bench(args) -> int:
    result = run_experiment(args.experiment)
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


def _bound_section(build, *args) -> dict:
    """A ``bound`` section: ``build(*args)`` as a dict, or ``{"error": message}``
    when the bound's hypotheses fail."""
    try:
        return dataclasses.asdict(build(*args))
    except ValueError as exc:
        return {"error": str(exc)}


def _cmd_bound(args) -> int:
    problem = load_problem(args.source, args.seed)
    sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
    frobenius_sq = problem.A.frobenius_sq
    report = {
        "rate": _bound_section(rate_report, problem.A, sigma_sq),
        "momentum": _bound_section(momentum_factors, args.alpha, args.beta, sigma_sq,
                                   frobenius_sq),
        "complexity": None,  # needs x*
    }
    if problem.x_star is not None:
        err0 = float(problem.x_star @ problem.x_star)
        eps = args.epsilon if args.epsilon is not None else 1e-12 * err0
        report["complexity"] = _bound_section(iteration_complexity, sigma_sq, frobenius_sq,
                                              err0, eps, args.rho)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_certify(args) -> int:
    trace = read_trace_csv(args.trace)
    sigma_sq = args.sigma_min_sq
    if args.matrix:
        A = read_matrix_market(args.matrix)
        # A trace of another matrix would be held to that matrix's sigma_min.
        if not abs(trace.frobenius_sq - A.frobenius_sq) <= 1e-9 * A.frobenius_sq:
            raise ValueError(f"{args.trace}: the trace's ||A||_F^2, {trace.frobenius_sq!r}, "
                             f"differs from {args.matrix}'s, {A.frobenius_sq!r}, "
                             "by more than a relative 1e-9")
        if sigma_sq is None:
            sigma_sq = smallest_nonzero_singular_value(A) ** 2
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
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"kaczmarz: error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
