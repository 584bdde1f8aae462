"""Problem generation, Matrix Market IO, and experiment orchestration.

Random test matrices are built as U D V^T with orthonormalized Gaussian
factors and a uniform spectrum in [1, kappa], so rank and conditioning are
controlled exactly.  Experiments run each configured method for a fixed
number of trials with per-trial seeds ``base + t`` and aggregate iteration
counts, wall time, and optional certification outcomes into a result that
serializes to CSV or JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .analysis import certify_trace
from .linalg import (
    InconsistentSystemError,
    Problem,
    RowAccessMatrix,
    min_norm_solution,
    smallest_nonzero_singular_value,
)
from .solvers import _STEP_COLUMNS, SolverConfig, Trace, _count, _recorded_metrics, run

__all__ = [
    "RandomProblemSpec",
    "ExperimentSpec",
    "TrialResult",
    "MethodResult",
    "ExperimentResult",
    "gen_random_problem",
    "read_matrix_market",
    "write_matrix_market",
    "write_vector",
    "load_problem_from_file",
    "run_experiment",
    "emit_results",
    "write_trace_csv",
    "read_trace_csv",
]

# The largest min(m, n) for which the harness runs a dense SVD oracle: x* of a
# Matrix Market problem (``min_norm_solution`` in ``load_problem_from_file``)
# and sigma_min for certification (``smallest_nonzero_singular_value`` in
# ``run_experiment``).  Random problems take x* from their own factors, so
# their x* costs no SVD at any size.
ORACLE_SIZE_LIMIT = 2000


@dataclass(frozen=True)
class RandomProblemSpec:
    """Shape, rank, condition bound, and seed of a synthetic problem."""

    m: int
    n: int
    r: int
    kappa: float = 10.0
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "n", "r"):
            _count(name, getattr(self, name), 1)
        if self.r > min(self.m, self.n):
            raise ValueError(f"rank {self.r} must lie in [1, min(m, n) = {min(self.m, self.n)}]")
        # Written so that NaN fails, as infinity does.
        if not 1.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and exceed 1, got {self.kappa}")
        _count("seed", self.seed, 0)


def gen_random_problem(spec: RandomProblemSpec) -> Problem:
    """Dense random problem A = U D V^T with spectrum in [1, kappa].

    U (m x r) and V (n x r) come from thin QR of standard Gaussian matrices,
    D is diagonal with entries 1 + (kappa - 1) * uniform(0, 1).  The right-hand
    side is b = A x_true for a standard Gaussian x_true.  The stored reference
    solution is the minimum-norm one, taken from the factors without an SVD:
    A^+ = V D^-1 U^T, so A^+ b = V D^-1 U^T U D V^T x_true = V V^T x_true, the
    projection of x_true onto Range(A^T), for every rank and shape.
    """
    rng = np.random.default_rng(spec.seed)
    u, _ = np.linalg.qr(rng.standard_normal((spec.m, spec.r)))
    v, _ = np.linalg.qr(rng.standard_normal((spec.n, spec.r)))
    d = 1.0 + (spec.kappa - 1.0) * rng.uniform(size=spec.r)
    a = (u * d) @ v.T
    x_true = rng.standard_normal(spec.n)
    b = a @ x_true
    matrix = RowAccessMatrix(a)
    return Problem(matrix, b, v @ (v.T @ x_true))


# -- Matrix Market ----------------------------------------------------------


def read_matrix_market(path) -> RowAccessMatrix:
    """Read a real-valued Matrix Market file (coordinate or array).

    Symmetric files are expanded to full storage.  Complex, pattern, and
    skew-symmetric files are rejected, as are matrices containing a zero row.
    Coordinate files load as CSR, array files as dense.
    """
    import scipy.io  # 1.4 MiB that only the Matrix Market functions need

    path = Path(path)
    try:
        rows, cols, entries, fmt, fieldkind, symmetry = scipy.io.mminfo(path)
    except Exception as exc:
        raise ValueError(f"{path}: not a valid Matrix Market file ({exc})") from exc
    if fieldkind == "complex":
        raise ValueError(f"{path}: complex matrices are not supported (real-valued only)")
    if fieldkind == "pattern":
        raise ValueError(f"{path}: pattern matrices carry no values; real-valued data required")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"{path}: symmetry '{symmetry}' is not supported (general or symmetric)")
    try:
        data = scipy.io.mmread(path)
    except Exception as exc:
        raise ValueError(f"{path}: failed to parse body ({exc})") from exc
    try:
        return RowAccessMatrix(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_matrix_market(A: RowAccessMatrix, path, comment: str = "") -> Path:
    """Write a matrix in Matrix Market format: coordinate for CSR storage,
    array for dense."""
    import scipy.io

    path = Path(path)
    scipy.io.mmwrite(path, sp.coo_array(A._csr) if A.is_sparse else A.to_dense(),
                     comment=comment)
    return path


def write_vector(v: np.ndarray, path, comment: str = "") -> Path:
    import scipy.io

    path = Path(path)
    scipy.io.mmwrite(path, np.asarray(v, dtype=np.float64).reshape(-1, 1), comment=comment)
    return path


def load_problem_from_file(path, seed: int = 0) -> Problem:
    """Problem from a Matrix Market matrix with a synthetic right-hand side.

    Consistency is guaranteed by construction: x_true = randn(n), b = A x_true.
    The minimum-norm reference solution is computed by the dense SVD oracle
    when the matrix is small enough; otherwise solvers fall back to
    residual-based stopping.
    """
    A = read_matrix_market(path)
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(A.n)
    b = A.matvec(x_true)
    x_star = None
    if min(A.shape) <= ORACLE_SIZE_LIMIT:
        try:
            x_star = min_norm_solution(A, b)
        except InconsistentSystemError:
            x_star = None
    return Problem(A, b, x_star)


def load_problem(source: RandomProblemSpec | str | Path, seed: int = 0) -> Problem:
    """The problem a spec generates, or a Matrix Market file with b from ``seed``."""
    if isinstance(source, RandomProblemSpec):
        return gen_random_problem(source)
    return load_problem_from_file(source, seed=seed)


# -- experiments --------------------------------------------------------------


@dataclass
class ExperimentSpec:
    """A problem source plus the labelled solver configs to race on it."""

    source: RandomProblemSpec | str | Path
    methods: list[tuple[str, SolverConfig]]
    trials: int = 20
    certify: bool = False
    keep_traces: bool = False  # attach each trial's full trace to the result
    problem_seed: int = 0      # b-synthesis seed for file sources

    def __post_init__(self):
        self.trials = _count("trials", self.trials, 1)
        labels = [label for label, _ in self.methods]
        if len(set(labels)) != len(labels):
            raise ValueError(f"method labels must be unique, got {labels}")
        if not self.methods:
            raise ValueError("at least one method is required")


@dataclass
class TrialResult:
    """One solve; every field but ``trace`` is a bench JSON key and a CSV column."""

    trial: int
    seed: int
    iters: int
    seconds: float
    final_rse: float | None
    certified: bool | None  # None when certification was not run or was refused
    refusal: str | None     # why certify_trace refused the trace; None otherwise
    termination: str
    trace: Trace | None = None  # kept only when the spec asks for it


@dataclass
class MethodResult:
    """One method's trials; its fields are the bench JSON keys, in order."""

    label: str
    mean_iters: float
    mean_seconds: float
    hit_max_iters: int  # number of trials that stopped on the iteration cap
    trials: list[TrialResult]


# The TrialResult fields written out per trial, in order.
_TRIAL_COLUMNS = [f.name for f in fields(TrialResult) if f.name != "trace"]


@dataclass
class ExperimentResult:
    problem: dict
    trials: int
    methods: list[MethodResult]

    def to_dict(self) -> dict:
        """The bench JSON: every field, and each trial without its trace.

        JSON has no infinity or NaN, so a non-finite ``final_rse`` is None; the
        trial's ``termination`` is then ``nonfinite``.
        """
        methods = [{f.name: getattr(meth, f.name) for f in fields(MethodResult)}
                   for meth in self.methods]
        for meth in methods:
            meth["trials"] = [{name: getattr(t, name) for name in _TRIAL_COLUMNS}
                              for t in meth["trials"]]
            for trial in meth["trials"]:
                if trial["final_rse"] is not None and not math.isfinite(trial["final_rse"]):
                    trial["final_rse"] = None
        return {"problem": dict(self.problem), "trials": self.trials, "methods": methods}


def _problem_summary(spec: ExperimentSpec, problem: Problem) -> dict:
    summary = {"m": problem.A.m, "n": problem.A.n, "has_x_star": problem.x_star is not None}
    if isinstance(spec.source, RandomProblemSpec):
        summary.update(source="random", rank=spec.source.r,
                       kappa=spec.source.kappa, seed=spec.source.seed)
    else:
        summary.update(source=str(spec.source), seed=spec.problem_seed)
    return summary


def run_experiment(spec: ExperimentSpec, problem: Problem | None = None) -> ExperimentResult:
    """Run every configured method for ``spec.trials`` independent solves.

    Trial t of a method uses seed ``config.seed + t`` on the shared problem;
    one ``run(problem, config, trials=spec.trials)`` call runs a method's
    trials, and each trial's ``seconds`` is that call's time divided by the
    trials.  Trials that stop on the iteration cap are kept and counted, never
    dropped.  With ``certify=True`` each trace is checked against its bound
    (skipped, reported as None, when the matrix is too large for the dense
    sigma_min oracle).  A trace whose bound's hypotheses fail (``rk``, α
    outside (0, 2), an infeasible momentum envelope) is reported as
    ``certified=None`` with ``certify_trace``'s reason in ``refusal``.
    """
    if problem is None:
        problem = load_problem(spec.source, seed=spec.problem_seed)

    sigma_min_sq = None
    if spec.certify and problem.x_star is not None and min(problem.A.shape) <= ORACLE_SIZE_LIMIT:
        sigma_min_sq = smallest_nonzero_singular_value(problem.A) ** 2

    methods = []
    for label, config in spec.methods:
        trials = []
        tic = time.perf_counter()
        traces = run(problem, config, trials=spec.trials)
        seconds = (time.perf_counter() - tic) / spec.trials
        for t, trace in enumerate(traces):
            certified = refusal = None
            if sigma_min_sq is not None:
                try:
                    certified = certify_trace(trace, sigma_min_sq).passed
                except ValueError as exc:
                    refusal = str(exc)
            trials.append(TrialResult(
                trial=t,
                seed=trace.config.seed,
                iters=trace.iterations,
                seconds=seconds,
                final_rse=trace.final_rse(),
                certified=certified,
                refusal=refusal,
                termination=trace.termination,
                trace=trace if spec.keep_traces else None,
            ))
        methods.append(MethodResult(
            label=label,
            mean_iters=float(np.mean([t.iters for t in trials])),
            mean_seconds=seconds,
            trials=trials,
            hit_max_iters=sum(t.termination == "max_iters" for t in trials),
        ))
    return ExperimentResult(problem=_problem_summary(spec, problem),
                            trials=spec.trials, methods=methods)


CSV_COLUMNS = ["method", *_TRIAL_COLUMNS]
# CSV number formats by column; other values are written as str() gives them.
_CSV_FORMATS = {"seconds": ".6f", "final_rse": ".6e"}


def _csv_row(label: str, values: dict) -> list[str]:
    """A CSV row of ``label`` and the named column values; None and absent are empty."""
    return [label] + ["" if values.get(name) is None
                      else format(values[name], _CSV_FORMATS.get(name, ""))
                      for name in _TRIAL_COLUMNS]


def emit_results(result: ExperimentResult, format: str = "csv", path=None) -> str:
    """Serialize an experiment result to CSV or JSON.

    CSV holds one row per (method, trial) followed by one summary row per
    method (trial column = "mean"), whose ``certified`` counts the certified
    trials and is empty when no trial was checked.  JSON nests the same data.
    Returns the rendered text; writes it to ``path`` when given.
    """
    if format == "json":
        text = json.dumps(result.to_dict(), indent=2, allow_nan=False)
    elif format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for meth in result.methods:
            for t in meth.trials:
                writer.writerow(_csv_row(meth.label, vars(t)))
        for meth in result.methods:
            checked = [t.certified for t in meth.trials if t.certified is not None]
            writer.writerow(_csv_row(meth.label, {
                "trial": "mean", "iters": f"{meth.mean_iters:.2f}", "seconds": meth.mean_seconds,
                "certified": sum(checked) if checked else None}))
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {format!r} (expected csv or json)")
    if path is not None:
        Path(path).write_text(text)
    return text


# -- trace files --------------------------------------------------------------

TRACE_COLUMNS = ["k", *_STEP_COLUMNS]
# The Trace fields on the metadata line beside the SolverConfig fields: all
# but the step arrays (the columns), the config itself and the iterates.
_TRACE_METADATA = [f.name for f in fields(Trace)
                   if f.name not in ("config", "final_x", "iterates", *TRACE_COLUMNS)]
# Files written before runs recorded their start lack zero_start.
_REQUIRED_METADATA = [name for name in _TRACE_METADATA if name != "zero_start"]


def write_trace_csv(trace: Trace, path) -> Path:
    """Per-iteration trace CSV with a JSON metadata comment on line one.

    The columns are ``TRACE_COLUMNS``: the step number k, then the step
    arrays in ``_STEP_COLUMNS`` order.  Values a trace does not record
    (``err_sq`` without x*, ``res_sq`` where the run kept no full residual,
    ``set_size`` and ``gamma`` for rk and cyclic) are empty fields.
    """
    meta = {
        **asdict(replace(trace.config, gamma_mode=trace.config.resolved_gamma_mode())),
        **{name: getattr(trace, name) for name in _TRACE_METADATA},
    }
    steps = (getattr(trace, name) for name in _STEP_COLUMNS)
    columns = [range(trace.iterations), *(repeat("") if s is None else s.tolist() for s in steps)]
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("# " + json.dumps(meta) + "\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(*columns))
    return path


def _trace_metadata(path: Path, meta: dict) -> dict:
    """The metadata line's ``Trace`` fields, checked: each metric a JSON number,
    null only for ``initial_err_sq`` and ``x_star_norm_sq`` and then for both
    (a run without x*), ``termination`` one of ``Trace.TERMINATIONS``, and
    ``zero_start`` true, false, or null or absent where the start is unknown."""
    values = {}
    for name in _REQUIRED_METADATA:
        value = meta[name]
        if name == "termination":
            if value not in Trace.TERMINATIONS:
                raise ValueError(f"{path}: the metadata line's termination {json.dumps(value)} "
                                 f"is not one of {', '.join(Trace.TERMINATIONS)}")
        elif value is not None:
            # JSON true and false load as bool, a subclass of int.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{path}: the metadata line's {name} is "
                                 f"{json.dumps(value)}, not a number")
            value = float(value)
        values[name] = value
    nulls = [name for name in _REQUIRED_METADATA if values[name] is None]
    if nulls not in ([], ["initial_err_sq", "x_star_norm_sq"]):
        raise ValueError(f"{path}: the metadata line's {' and '.join(nulls)} "
                         f"{'is' if len(nulls) == 1 else 'are'} null; only initial_err_sq "
                         "and x_star_norm_sq may be, and then both")
    start = values["zero_start"] = meta.get("zero_start")
    if start is not None and not isinstance(start, bool):
        raise ValueError(f"{path}: the metadata line's zero_start is {json.dumps(start)}, "
                         "not true or false")
    return values


def read_trace_csv(path) -> Trace:
    """Rebuild a trace from ``write_trace_csv`` output.

    The step arrays equal the written ones.  Which metrics the run recorded
    follows from the metadata by ``run``'s own rule, ``_recorded_metrics``, so
    a trace without steps comes back with the same None columns.  Iterates
    and ``final_x`` are not stored in the file.  A row whose field count
    differs from the header's, a blank line included, or whose k is not its
    0-based position among the rows raises ``ValueError`` naming its line; so
    does a metadata line that is not a JSON object of the trace fields or
    holds a bad setting, and one whose trace fields ``_trace_metadata``
    refuses names the field.
    """
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing metadata line")
        meta = json.loads(first[1:].strip())
        if not (isinstance(meta, dict) and meta.keys() >= set(_REQUIRED_METADATA)):
            raise ValueError(f"{path}: the metadata line is not a JSON object with the keys "
                             f"{', '.join(_REQUIRED_METADATA)}")
        values = _trace_metadata(path, meta)
        reader = csv.reader(fh)
        if next(reader, None) != TRACE_COLUMNS:
            raise ValueError(f"{path}: the column header is not {','.join(TRACE_COLUMNS)}")
        rows = []
        for row in reader:
            # The reader started below the metadata line.
            line = reader.line_num + 1
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}: line {line} has {len(row)} fields, "
                                 f"expected {len(TRACE_COLUMNS)}")
            if row[0] != str(len(rows)):
                raise ValueError(f"{path}: line {line} has k = {row[0]!r}, expected {len(rows)}")
            rows.append(row)
    columns = list(zip(*rows)) or [()] * len(TRACE_COLUMNS)
    # Older files may lack some SolverConfig fields (defaults apply) or carry
    # keys that are no longer stored (ignored).
    try:
        config = SolverConfig(**{f.name: meta[f.name] for f in fields(SolverConfig)
                                 if f.name in meta})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: the metadata line's solver settings: {exc}") from None
    recorded = _recorded_metrics(config.variant, values["initial_err_sq"] is not None)
    steps = {name: np.array(texts, dtype=recorded[name]) if name in recorded else None
             for name, texts in zip(_STEP_COLUMNS, columns[1:])}
    return Trace(final_x=None, config=config, **steps, **values)
