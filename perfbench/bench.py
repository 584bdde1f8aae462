"""Passes, timing, tracing and reporting for one workload in one process.

Imported by ``run.py`` after the BLAS thread count is fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import kaczmarz
from kaczmarz import cli, harness, linalg, solvers
from kaczmarz.linalg import RowAccessMatrix

import gate
import spans
import workloads

clock = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is repeated at least SETUP_MIN_REPEATS times and until it has taken
# SETUP_SECONDS, so that a 30 ms set-up gets as steady a median as a 1 s one.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 3, 100, 1.0

# The workload's input check runs in a child process that must end within this.
CHECK_TIMEOUT_S = 60

# Metrics of the result line, by name and unit; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s.grk": "s",
    "solve_s.mgrk": "s",
    "peak_rss_mb": "MiB",
}
SELECTION = ("active_set_gamma", "greedy_set", "sampling_distribution", "sample_index")
PER_LAYER = {
    **{f"selection.{fn}.{kind}": unit for fn in SELECTION
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "selection.set_size.mean": "rows",
    "linalg.row_image.s": "s",
    "linalg.row_image.calls": "count",
    "linalg.row_image.bytes_computed": "B",
    "linalg.image_cache.hit_ratio": "1",
    "linalg.axpy_row.s": "s",
    "linalg.axpy_row.calls": "count",
    "linalg.matvec.s": "s",
    "linalg.matvec.calls": "count",
    "solvers.run.self_s": "s",
    "solvers.iters.grk": "count",
    "solvers.iters.mgrk": "count",
    "solvers.us_per_iter.grk": "us",
    "solvers.us_per_iter.mgrk": "us",
    "harness.run_experiment.self_s": "s",
    "trace.overhead_frac": "1",
}


def trace_targets():
    """Public layer functions wrapped in the traced run, patched where callers look them up."""
    targets = [(solvers, fn, f"selection.{fn}") for fn in SELECTION]
    targets[1] += (len,)  # greedy_set: also sum the working-set sizes
    return targets + [
        (harness, "run", "solvers.run"),
        (harness, "certify_trace", "analysis.certify_trace"),
        (cli, "certify_trace", "analysis.certify_trace"),
        (harness, "min_norm_solution", "linalg.min_norm_solution"),
        (harness, "smallest_nonzero_singular_value", "linalg.smallest_nonzero_singular_value"),
        # The benchmark's own set-up calls the oracle through kaczmarz.linalg.
        (linalg, "smallest_nonzero_singular_value", "linalg.smallest_nonzero_singular_value"),
        (harness, "gen_random_problem", "harness.gen_random_problem"),
        (harness, "run_experiment", "harness.run_experiment"),
        (harness, "write_trace_csv", "harness.write_trace_csv", lambda path: path.stat().st_size),
        (cli, "read_trace_csv", "harness.read_trace_csv"),
        (cli, "main", "cli.main"),
        (RowAccessMatrix, "row_image", "linalg.row_image"),
        (RowAccessMatrix, "axpy_row", "linalg.axpy_row"),
        (RowAccessMatrix, "matvec", "linalg.matvec"),
    ]


@dataclass
class Block:
    """One method's trials within one pass."""

    seconds: float          # per trial: the run_experiment call plus any stored-trace certification
    iters: list
    certificates: list      # gate outcome of each trial's certificate
    digests: list | None    # selection digests, when the traces were kept


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.methods = workload.methods(seed)
        self.tally = gate.Tally()
        # label -> (iters, certificates, digests) of the first pass that ran the method
        self.reference = {}
        self.mismatches = []
        self.setup = None

    def check_inputs(self) -> None:
        """Run the workload's input check once, in a child process, so that its
        time and memory stay out of ``setup_s`` and ``peak_rss_mb``."""
        if self.workload.check is None:
            return
        # subprocess.run waits for the child, and kills and reaps it on timeout.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE), str(ROOT / "src")])}
        subprocess.run([sys.executable, str(HERE / "workloads.py"), self.workload.name,
                        str(self.seed)],
                       env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
                       timeout=CHECK_TIMEOUT_S)

    def build(self) -> float:
        tic = clock()
        self.setup = self.workload.build(self.seed)
        return clock() - tic

    # -- one method, one pass --------------------------------------------------

    def _certify_stored(self, trace) -> str:
        """Certify a greedy trace the way a user does: trace CSV, then `kaczmarz certify`."""
        path = harness.write_trace_csv(trace, self.workdir / f"{trace.config.variant.value}.csv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["certify", "--trace", str(path),
                             "--sigma-min-sq", repr(self.setup.sigma_min_sq)])
        message = err.getvalue()
        if code == 0:
            return gate.PASSED
        if message.startswith("violation at"):
            return gate.VIOLATED
        if message.startswith("kaczmarz: error:"):
            return gate.REFUSED
        raise RuntimeError(f"kaczmarz certify exited {code}: {message.strip()}")

    def run_method(self, meth, keep_traces: bool) -> Block | None:
        stored = meth.certify and self.workload.certify_path == "csv"
        in_memory = meth.certify and not stored
        spec = harness.ExperimentSpec(
            source=self.workload.name, methods=[(meth.label, meth.config)],
            trials=meth.trials, certify=in_memory, keep_traces=keep_traces or stored)
        tic = clock()
        try:
            trials = harness.run_experiment(spec, self.setup.problem).methods[0].trials
            if stored:
                certificates = [self._certify_stored(t.trace) for t in trials]
        except Exception:  # counted as failed solves; the benchmark keeps going
            self.tally.add_raised(meth.trials, f"{meth.label}: {traceback.format_exc(limit=4)}")
            return None
        seconds = clock() - tic
        if not stored:
            certificates = [gate.NOT_RUN if not in_memory
                            else {True: gate.PASSED, False: gate.VIOLATED, None: gate.REFUSED}[t.certified]
                            for t in trials]
        for t, cert in zip(trials, certificates):
            self.tally.add(f"{meth.label} seed {t.seed}", t.termination, t.final_rse,
                           meth.config.rse_tol, cert, meth.refusable)
        digests = ([gate.selection_digest(t.trace.selections()) for t in trials]
                   if spec.keep_traces else None)
        return Block(seconds / meth.trials, [t.iters for t in trials], certificates, digests)

    # -- passes ------------------------------------------------------------------

    def warm_up(self) -> None:
        """Untimed pass of the traced run, one trial per call so that only one
        trace is alive at a time; it records every solve's iteration count,
        certificate outcome and selection digest."""
        for meth in self.methods:
            iters, certificates, digests = [], [], []
            for t in range(meth.trials):
                cfg = replace(meth.config, seed=meth.config.seed + t)
                block = self.run_method(replace(meth, config=cfg, trials=1), keep_traces=True)
                iters += block.iters if block else [None]
                certificates += block.certificates if block else [None]
                digests += block.digests if block else [None]
            self.reference[meth.label] = (iters, certificates, digests)

    def timed_pass(self, tracer=None) -> tuple[float, dict]:
        blocks = {}
        start = clock()
        for meth in self.methods:
            if tracer is not None:
                tracer.context = meth.label
            blocks[meth.label] = self.run_method(meth, keep_traces=False)
        wall = clock() - start
        for label, block in blocks.items():
            if block is None:  # already counted as failed
                continue
            if label not in self.reference:
                self.reference[label] = (block.iters, block.certificates, block.digests)
                continue
            iters, certificates, digests = self.reference[label]
            if (block.iters != iters or block.certificates != certificates
                    or block.digests not in (None, digests)):
                self.mismatches.append(
                    f"{label}: iters {block.iters} certificates {block.certificates} "
                    f"digests {block.digests} differ from the first pass "
                    f"{iters} {certificates} {digests}")
        return wall, blocks

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and not self.mismatches


def _budgeted(seconds: float, step):
    """Call ``step()`` at least once, then again while the median duration so far fits the budget."""
    start = clock()
    durations = []
    while True:
        tic = clock()
        step()
        durations.append(clock() - tic)
        if clock() - start + statistics.median(durations) > seconds:
            return


def _summary(values, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "samples": values}


def measure_untraced(runner: Runner, seconds: float):
    runner.check_inputs()
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        setups.append(runner.build())
    passes = []
    _budgeted(seconds, lambda: passes.append(runner.timed_pass()))
    metrics = {"setup_s": _summary(setups, "s"), "wall_s": _summary([w for w, _ in passes], "s")}
    for meth in runner.methods:
        samples = [blocks[meth.label].seconds for _, blocks in passes if blocks[meth.label]]
        if samples:
            metrics[f"solve_s.{meth.label}"] = _summary(samples, "s")
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"}
    metrics["failed_frac"] = {"value": runner.tally.failed_frac, "unit": "1"}
    reported = {name: metrics[name]["value"] for name in END_TO_END if name in metrics}
    return reported, END_TO_END, metrics


def measure_traced(runner: Runner, seconds: float):
    runner.check_inputs()
    tracer = spans.Tracer()
    tracer.context = "setup"
    with tracer.installed(trace_targets()):
        runner.build()
    runner.warm_up()
    plain, traced, traced_iters = [], [], {}

    def pair():
        plain.append(runner.timed_pass()[0])
        with tracer.installed(trace_targets()):
            wall, blocks = runner.timed_pass(tracer)
        traced.append(wall)
        for label, block in blocks.items():
            traced_iters[label] = traced_iters.get(label, 0) + sum(block.iters if block else [0])

    _budgeted(seconds, pair)
    layers = layer_metrics(tracer, runner, traced_iters, len(traced))
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    layers["trace.wall_s.traced"] = _summary(traced, "s")
    layers["trace.wall_s.untraced"] = _summary(plain, "s")
    reported = {name: layers[name] for name in PER_LAYER if name in layers}
    return reported, PER_LAYER, layers


def layer_metrics(tracer: spans.Tracer, runner: Runner, iters: dict, passes: int) -> dict:
    """Per-layer numbers per traced pass; set-up spans are reported under ``setup.``."""
    labels = [meth.label for meth in runner.methods]
    total_iters = sum(iters.values())
    out = {}
    for fn in SELECTION:
        seconds, _, calls = tracer.layer(f"selection.{fn}", labels)
        out[f"selection.{fn}.s"] = seconds / passes
        out[f"selection.{fn}.calls"] = calls // passes
    sets = tracer.layer("selection.greedy_set", labels)[2]
    if sets:
        out["selection.set_size.mean"] = tracer.size("selection.greedy_set", labels) / sets
    for name in ("row_image", "axpy_row", "matvec"):
        seconds, _, calls = tracer.layer(f"linalg.{name}", labels)
        out[f"linalg.{name}.s"] = seconds / passes
        out[f"linalg.{name}.calls"] = calls // passes
    out["linalg.row_image.bytes_computed"] = out["linalg.row_image.calls"] * runner.setup.row_image_bytes
    if total_iters:
        out["linalg.image_cache.hit_ratio"] = gate.hit_ratio(
            tracer.layer("linalg.row_image", labels)[2], total_iters)
    out["solvers.run.self_s"] = tracer.layer("solvers.run", labels)[1] / passes
    for label in labels:
        out[f"solvers.iters.{label}"] = iters[label] // passes
        if not iters[label]:  # every traced solve of this method raised
            continue
        run_seconds, _, _ = tracer.layer("solvers.run", [label])
        out[f"solvers.us_per_iter.{label}"] = 1e6 * run_seconds / iters[label]
        out[f"linalg.image_cache.hit_ratio.{label}"] = gate.hit_ratio(
            tracer.layer("linalg.row_image", [label])[2], iters[label])
    for name in ("harness.run_experiment", "cli.main"):
        out[f"{name}.self_s"] = tracer.layer(name, labels)[1] / passes
    for name in ("analysis.certify_trace", "harness.write_trace_csv", "harness.read_trace_csv"):
        seconds, _, calls = tracer.layer(name, labels)
        out[f"{name}.s"] = seconds / passes
        out[f"{name}.calls"] = calls // passes
    out["harness.trace_csv.bytes"] = tracer.size("harness.write_trace_csv", labels) // passes
    out["analysis.certified_frac"] = runner.tally.certified_frac
    # Set-up, traced once.
    for name in ("linalg.min_norm_solution", "linalg.smallest_nonzero_singular_value"):
        out[f"setup.{name}.s"] = tracer.layer(name, ["setup"])[0]
    out["setup.harness.gen_random_problem.self_s"] = tracer.layer(
        "harness.gen_random_problem", ["setup"])[1]
    out["spans"] = {
        ctx: {name: dict(zip(("s", "self_s", "calls"), tracer.layer(name, [ctx])))
              for name in tracer.names() if tracer.layer(name, [ctx])[2]}
        for ctx in ["setup", *labels]
    }
    return out


def environment(args, threads: int) -> dict:
    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy),
        "machine": platform.machine(),
    }


def main(args, threads: int) -> int:
    source = Path(kaczmarz.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"perfbench: kaczmarz imported from {source}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(workloads.WORKLOADS[args.workload], args.seed, Path(tmp))
        measure = measure_traced if args.trace else measure_untraced
        reported, units, everything = measure(runner, args.seconds)
    detail = {
        "environment": environment(args, threads),
        "metrics": everything,
        "solves": {
            "attempted": runner.tally.attempted,
            "failed": runner.tally.failed,
            "failed_frac": runner.tally.failed_frac,
            "certified": runner.tally.certified,
            "certified_frac": runner.tally.certified_frac,
            "not_certifiable": runner.tally.not_certifiable,
        },
        "iters": {label: ref[0] for label, ref in runner.reference.items()},
        "certificates": {label: ref[1] for label, ref in runner.reference.items()},
        "digests": {label: ref[2] for label, ref in runner.reference.items()},
        "errors": runner.tally.errors,
        "mismatches": runner.mismatches,
    }
    for name, unit in units.items():
        print(f"{args.workload} {name} = {reported.get(name)} {unit}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    # A metric is missing (null) only when solves raised, which fails the gate.
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": {name: {"value": reported.get(name), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if runner.correct else 1
