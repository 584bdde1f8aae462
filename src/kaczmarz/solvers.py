"""Row-action solver drivers: cyclic, randomized, greedy, and momentum.

One ``run`` entry point drives all four variants behind a shared config,
stopping-rule, and trace format.  A single run is strictly sequential;
concurrent runs over the same immutable ``Problem`` are safe because all
mutable state (iterates, residual, generator, trace) is per-run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar, NamedTuple

import numpy as np

from .linalg import Problem, RowAccessMatrix, _as_vector
from .selection import (
    GammaMode,
    GreedyCertificateError,
    ProbabilityRule,
    active_set_gamma,
    greedy_set,
    sample_index,
    sampling_distribution,
)

__all__ = [
    "SolverVariant",
    "SolverConfig",
    "Trace",
    "run",
]

# Residual recomputed from scratch this often to bound incremental drift.
REFRESH_EVERY = 1000

# Cap on the bytes held by cached residual-update directions (A @ a_i).
_IMAGE_CACHE_BYTES = 64_000_000

# rk draws its uniforms this many at a time; a block is the same stream as
# that many single draws, so the selections do not depend on it.
_RK_BLOCK = 1024

# Dense rk and cyclic trials without momentum or residual step by block
# arithmetic, one batched np.matmul for every <a_i, x>, from this many trials
# on.  Below it the block's fixed cost per step outweighs what it saves.
_LOCKSTEP_TRIALS = 3

# A trace's step metrics, in trace-CSV order after the step number k, with
# their dtypes.  Each is a ``Trace`` array of one entry per step.
_STEP_COLUMNS = {"index": np.int64, "set_size": np.int64, "gamma": np.float64,
                 "err_sq": np.float64, "res_sq": np.float64}


class SolverVariant(str, Enum):
    CYCLIC = "cyclic"
    RK = "rk"
    GRK = "grk"
    MGRK = "mgrk"


def _count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; ``ValueError`` for anything else,
    a bool included."""
    try:
        if isinstance(value, bool):  # an int to operator.index, with True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


@dataclass
class SolverConfig:
    """Variant selector plus step, momentum, and stopping parameters.

    ``gamma_mode=None`` resolves per variant: the plain greedy solver uses
    the exact active-set mass, the momentum solver the full Frobenius mass.
    ``rse_tol`` bounds the relative squared error ||x - x*||^2/||x*||^2 when
    x* is known and the relative squared residual ||r||^2/||b||^2 when not.
    """

    variant: SolverVariant = SolverVariant.GRK
    alpha: float = 1.0
    beta: float = 0.0
    theta: float = 0.5
    gamma_mode: GammaMode | None = None
    prob_rule: ProbabilityRule = ProbabilityRule.RESIDUAL
    seed: int = 0
    max_iters: int = 100_000
    rse_tol: float = 1e-12

    def __post_init__(self):
        self.variant = SolverVariant(self.variant)
        if self.gamma_mode is not None:
            self.gamma_mode = GammaMode(self.gamma_mode)
        self.prob_rule = ProbabilityRule(self.prob_rule)
        # Written so that NaN fails each range check, as infinity does.
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.variant is SolverVariant.GRK and self.beta != 0.0:
            raise ValueError("the grk variant runs without momentum; use mgrk for beta > 0")
        self.seed = _count("seed", self.seed, 0)
        self.max_iters = _count("max_iters", self.max_iters, 1)
        if not 0.0 < self.rse_tol < math.inf:
            raise ValueError(f"rse_tol must be finite and positive, got {self.rse_tol}")
        # Gamma_k = ||A||_F^2 - ||a_{i_{k-1}}||^2 bounds the active-set mass only
        # when the previous step zeroed its row's residual.
        if self.gamma_mode is GammaMode.LAST_ROW and (self.alpha != 1.0 or self.beta != 0.0):
            raise ValueError("gamma_mode lastrow needs alpha = 1 and beta = 0, "
                             f"got alpha = {self.alpha} and beta = {self.beta}")

    def resolved_gamma_mode(self) -> GammaMode:
        if self.gamma_mode is not None:
            return self.gamma_mode
        if self.variant is SolverVariant.MGRK:
            return GammaMode.FROBENIUS
        return GammaMode.EXACT


@dataclass
class Trace:
    """Per-step metric arrays plus the run's initial metrics and outcome.

    Step k's metrics refer to the iterate after the step: the row it
    projected onto, ``index[k]``; the greedy set's size ``set_size[k]`` and
    threshold mass ``gamma[k]``; and the squared error ``err_sq[k]`` and
    residual ``res_sq[k]``.  ``_STEP_COLUMNS`` declares these arrays and their
    dtypes.  A metric the run does not record is None for the whole run:
    ``set_size`` and ``gamma`` for rk and cyclic, ``err_sq`` without x*,
    ``res_sq`` where the run keeps no full residual.  ``run`` says which bits
    the arrays hold.  ``zero_start`` says whether the run started from
    x0 = 0, None where that is unknown (a trace file that predates it).

    ``termination`` is one of ``TERMINATIONS``: ``rse_tol`` (error below
    ``config.rse_tol``), ``residual_tol`` (no x*, residual below
    ``config.rse_tol``), ``converged``, ``max_iters`` or ``nonfinite`` (a
    metric overflowed).  ``converged`` ends a greedy run at the rounding
    floor, by one rule in every gamma mode: every |r_i| is at most
    ``1e-14 * max(1, ||b||_inf)``, or no row reaches the mean level
    ||r||^2/gamma, so that the greedy set's certificate fails.  In exact
    arithmetic every mode's gamma bounds the active-set mass, so only rounding
    gets there: exact-mode gamma sums only over the rows above that level
    while ||r||^2 also holds the rows below it, and lastrow-mode gamma assumes
    that the previous row's residual is exactly zero.
    """

    TERMINATIONS: ClassVar[tuple[str, ...]] = (
        "rse_tol", "residual_tol", "converged", "max_iters", "nonfinite")

    termination: str
    initial_err_sq: float | None
    initial_res_sq: float
    final_x: np.ndarray | None
    config: SolverConfig
    frobenius_sq: float
    x_star_norm_sq: float | None
    index: np.ndarray
    set_size: np.ndarray | None = None
    gamma: np.ndarray | None = None
    err_sq: np.ndarray | None = None
    res_sq: np.ndarray | None = None
    zero_start: bool | None = None
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.index)

    def final_rse(self) -> float | None:
        """Relative solution error of the last iterate, if x* is known."""
        if self.initial_err_sq is None or self.x_star_norm_sq is None:
            return None
        err = self.err_sq.item(-1) if self.iterations else self.initial_err_sq
        denom = self.x_star_norm_sq if self.x_star_norm_sq > 0.0 else 1.0
        return float(err) / denom

    def selections(self) -> list[int]:
        return self.index.tolist()


def _recorded_metrics(variant: SolverVariant, known: bool) -> dict[str, type]:
    """The ``_STEP_COLUMNS`` a run records, with their dtypes: ``set_size`` and
    ``gamma`` for greedy runs, ``err_sq`` with x* known, and ``res_sq`` just
    where ``run`` keeps the full residual."""
    greedy = variant in (SolverVariant.GRK, SolverVariant.MGRK)
    kept = {"index": True, "set_size": greedy, "gamma": greedy, "err_sq": known,
            "res_sq": greedy or not known}
    return {name: dtype for name, dtype in _STEP_COLUMNS.items() if kept[name]}


def _stop_reason(errs, res, err_denom, res_denom, rse_tol) -> str | None:
    """A termination reason if some of the given trials' metrics stop it, or None.

    ``errs`` and ``res`` hold the trials' ``err_sq`` and ``res_sq``, ``()`` for
    a metric the run does not keep.  The smallest error decides when x* is
    known, the smallest residual when not.  The metrics are sums of squares,
    so their total is finite exactly when every one is; the residual is
    watched even with x* known, as greedy selection reads it and it can
    overflow first.
    """
    if not sum(errs) + sum(res) < math.inf:  # NaN fails too
        return "nonfinite"
    if errs:
        return "rse_tol" if min(errs) / err_denom <= rse_tol else None
    return "residual_tol" if min(res) / res_denom <= rse_tol else None


class _GreedyRule(NamedTuple):
    """A greedy run's selection: its gamma, set and sampling rules and the
    zero tests of its residual."""

    gamma_mode: GammaMode
    theta: float
    prob_rule: ProbabilityRule
    tau_res: float  # a residual entry at or below this in magnitude counts as zero
    loud_floor: float  # ||r||^2 above this proves some |r_i| > tau_res, with room for rounding

    @classmethod
    def of(cls, config: SolverConfig, b: np.ndarray) -> _GreedyRule:
        tau_res = 1e-14 * max(1.0, float(np.max(np.abs(b))))
        return cls(config.resolved_gamma_mode(), config.theta, config.prob_rule,
                   tau_res, 2.0 * len(b) * tau_res * tau_res)

    def select(self, A, r, scores, loud, res_sq, last_index, rng):
        """One step's sampled row, its greedy set's size and gamma; None when
        the run has converged (see ``Trace``).

        ``scores`` are r_i^2/||a_i||^2, ``loud`` the mask |r_i| > tau_res
        (read in exact mode only) and ``last_index`` the previous step's row,
        None before the first step (read in lastrow mode only).  The converged
        rule is the same in every gamma mode: no |r_i| exceeds tau_res, or
        ``greedy_set`` raises ``GreedyCertificateError``, which only the
        rounding floor does.
        ``active_set_gamma``, ``greedy_set``, ``sampling_distribution`` and
        ``sample_index`` are called by their module names, once each.
        """
        gamma = active_set_gamma(A, self.gamma_mode, loud, last_index)
        # One converged test for every gamma mode; ||r||^2 above the floor
        # proves some |r_i| > tau_res without reading r.
        if res_sq <= self.loud_floor and not np.any(np.abs(r) > self.tau_res):
            return None
        try:
            indices = greedy_set(A, scores, res_sq, gamma, self.theta)
        except GreedyCertificateError:
            # Only the rounding floor gets here, in every gamma mode: see ``Trace``.
            return None
        probs = sampling_distribution(r, indices, self.prob_rule)
        return indices.item(sample_index(probs, rng)), len(indices), gamma


class _ImageCache(dict):
    """Row images ``A.row_image(i)`` by row, kept from their first request
    while their bytes fit in ``free``.

    Dense images, a GEMV each, get ``_IMAGE_CACHE_BYTES``, and so do CSR
    images when ``A.image_bytes_bound()`` proves that all m fit.  Other CSR
    storage gets no budget: a greedy step zeroes its row's residual, so on a
    tall matrix most picks are rows never picked before, and a cache there is
    read back on few steps (0.35% of ``grk``'s and 1.75% of ``mgrk``'s on the
    20000x2000 benchmark matrix, for 1.9 and 6.4 MB held).  A recomputed
    image is bit-equal to a kept one.
    """

    def __init__(self, A: RowAccessMatrix):
        super().__init__()
        self.A = A
        fits = not A.is_sparse or A.image_bytes_bound() <= _IMAGE_CACHE_BYTES
        self.free = _IMAGE_CACHE_BYTES if fits else 0

    def image(self, i: int):
        image = self.get(i)
        if image is None:
            image = self.A.row_image(i)
            size = sum(getattr(part, "nbytes", 0) for part in image)  # a slice holds none
            if size <= self.free:
                self[i] = image
                self.free -= size
        return image


# A diverging run ends "nonfinite"; numpy need not also warn about it.
@np.errstate(over="ignore", invalid="ignore")
def run(
    problem: Problem,
    config: SolverConfig,
    x0: np.ndarray | None = None,
    capture_iterates: bool = False,
    trials: int | None = None,
) -> Trace | list[Trace]:
    """Drive solver runs to a stopping rule and record their traces.

    Starts from zero unless ``x0`` is given; an ``x0`` of the wrong length
    or with NaN or infinite entries raises ``ValueError``, and the caller's
    array is never written.  Error metrics are measured against
    ``problem.x_star``, which is the correct target for x0 = 0 (and for any
    x0 whose offset from x* lies in Range(A^T)); the trace's ``zero_start``
    records whether x0 = 0, since ``certify_trace`` vouches only for that
    start.  Each ``err_sq`` is bitwise ``np.sum((x - x_star) ** 2)`` of the
    iterate it follows.

    Without ``trials`` it returns one trace; ``trials=T`` returns the T traces
    of seeds ``config.seed + t``.  Both step one loop over a block of
    trials: the iterates form a (T, n) block and the residuals, where kept, a
    (T, m) block.  Block row t belongs to trial t for the whole call; a
    stopped trial is skipped by the per-trial step and stop test, and block
    arithmetic still runs on its rows, but nothing reads the results.  Each
    trial selects its row from its own generator, through one call each to
    ``active_set_gamma``, ``greedy_set``, ``sampling_distribution`` and
    ``sample_index`` for ``grk`` and ``mgrk``, computes its coefficient on
    Python floats and updates its row with ``axpy_row``.  Dense ``rk`` and
    ``cyclic`` trials without momentum or residual instead take one batched
    ``np.matmul`` for every <a_i, x> from T = ``_LOCKSTEP_TRIALS`` on, where
    it beats the per-trial form; both give the same bits.  Every ``res_sq``,
    ``initial_res_sq`` and ||b||^2 is numpy's pairwise sum of the squares,
    never a BLAS dot, and one row-wise ``np.add.reduce`` gives the ``res_sq``
    and the ``err_sq`` of every trial as the 1-D form does, so a trial's trace
    equals a separate run with its seed bit for bit, and identical inputs give
    identical traces.  CSR traces hold these bits at every BLAS thread count.
    Dense greedy traces hold them for a fixed BLAS build and thread count
    only: their row images are GEMVs, whose results can differ between thread
    counts.

    The full residual is kept only when the variant selects by it (``grk``,
    ``mgrk``) or the run stops on it (no x*).  Otherwise a step reads only
    its own row and records no ``res_sq``.  ``rk`` draws its uniforms
    ``_RK_BLOCK`` at a time and maps a block to rows in one search; a block
    is the same stream as that many single draws, so the selections are
    those of one ``rng.random()`` per step.  Row images are cached from
    their first request up to ``_IMAGE_CACHE_BYTES`` of rows and values,
    shared by the trials, for dense storage and for CSR storage whose images
    provably all fit; other CSR storage recomputes every image (see
    ``_ImageCache``).  Each refresh every ``REFRESH_EVERY`` steps is the
    trial's own ``matvec``.

    With momentum (beta > 0) the iterates and, where kept, the residuals
    take the heavy-ball term in one form: before the step, each pair
    (X, X_prev) and (R, R_prev) gets prev <- cur + beta (cur - prev), each
    trial's step updates its rows of prev, and prev becomes the current block.
    So an ``mgrk`` step gives (x + beta (x - x_prev)) - coeff a_i and, in the
    same order, (r + beta (r - r_prev)) - coeff A a_i.

    A trial updates its residual row on its image's rows only, which for
    CSR storage is the image's support.  The squares r_i^2 are taken once per
    step: they give the step's ``res_sq`` and, divided by ||a_i||^2, the next
    step's greedy scores.  Greedy runs also keep, in exact gamma mode, the
    mask |r_i| > tau.  A CSR step without momentum updates the squares, the
    scores and the mask on its image's support; every other step, and each
    refresh, recomputes them for the whole block.  The converged test, the
    same in every gamma mode, reads r only once ||r||^2 <= 2 m tau^2, as a
    larger ||r||^2 proves some row is above tau.
    """
    if trials is not None:
        trials = _count("trials", trials, 1)
    configs = ([config] if trials is None
               else [replace(config, seed=config.seed + t) for t in range(trials)])
    A, b, x_star = problem.A, problem.b, problem.x_star
    variant = config.variant
    alpha, beta, rse_tol = config.alpha, config.beta, config.rse_tol
    greedy = variant in (SolverVariant.GRK, SolverVariant.MGRK)
    dense = not A.is_sparse
    momentum = beta != 0.0
    known = x_star is not None
    columns = _recorded_metrics(variant, known)
    keeps_r = "res_sq" in columns
    row_norms_sq = A.row_norms_sq

    x = np.zeros(A.n) if x0 is None else _as_vector(x0, A.n, "x0")
    zero_start = not x.any()
    r = A.matvec(x) - b
    # Sums of squares are numpy's pairwise sums, never a BLAS dot: a long dot
    # runs on several OpenBLAS threads, which spin between calls and make the
    # bits depend on the thread count.
    res_sq = float(np.add.reduce(r * r))
    # Relative-metric denominators, 1 for a zero x* or b.
    res_denom = float(np.add.reduce(b * b)) or 1.0
    err_sq = x_star_norm_sq = None
    err_denom = 1.0
    if known:
        x_star_norm_sq = float(x_star @ x_star)
        err_sq = float(np.sum((x - x_star) ** 2))
        err_denom = x_star_norm_sq or 1.0
    start_reason = _stop_reason([err_sq] if known else (), [res_sq], err_denom, res_denom, rse_tol)

    # Block row t of every array and list below belongs to trial t for the
    # whole call; a stopped trial's rows stay, and nothing reads them.
    T = len(configs)
    rngs = [np.random.default_rng(cfg.seed) for cfg in configs]
    X = np.tile(x, (T, 1))
    # A momentum step writes the new iterates over X_prev, and the new
    # residuals over R_prev.  Each starts as a copy, so the first momentum term
    # is exactly zero.
    X_prev = X.copy() if momentum else None
    # ``R_sq`` holds the squares of R: each step's ||r||^2 sums them, and the
    # next step's scores divide them by the row norms.
    R = R_prev = R_sq = scores = loud = last = picks = X_star = buf = None
    # Each block row's latest metrics; () where the run records none.
    errs = res = ()
    if known:
        # One x* row per block row: a subtract of equal shapes beats a broadcast.
        X_star = np.tile(x_star, (T, 1))
        buf = np.empty_like(X)
    if keeps_r:
        R = np.tile(r, (T, 1))
        R_sq = R * R
        R_prev = R.copy() if momentum else None
        res = [res_sq] * T
        images = _ImageCache(A)  # shared by the trials
    # A CSR step without momentum updates the squares, the scores and the mask
    # on its image's support; every other step recomputes them.
    support_update = keeps_r and not dense and not momentum
    if greedy:
        rule = _GreedyRule.of(config, b)
        exact = rule.gamma_mode is GammaMode.EXACT
        scores = R_sq / row_norms_sq
        if exact:
            loud = np.abs(R) > rule.tau_res
        last = [None] * T
    elif variant is SolverVariant.RK:
        rk_cdf = row_norms_sq.cumsum()
        rk_total = rk_cdf[-1]
    batched = not keeps_r and dense and not momentum and T >= _LOCKSTEP_TRIALS
    iterates = [[x.copy()] for _ in configs] if capture_iterates else None
    # The step metrics, _RK_BLOCK steps at a time: a (steps, T) array per metric.
    chunks = []
    ends = {}  # trial -> (steps, termination, final iterate)

    steps = config.max_iters if start_reason is None else 0
    for k in range(steps):
        j = k % _RK_BLOCK
        if j == 0:
            size = min(_RK_BLOCK, config.max_iters - k)
            record = {name: np.empty((size, T), dtype) for name, dtype in columns.items()}
            if variant is SolverVariant.RK:
                u = np.stack([rng.random(size) for rng in rngs])
                picks = rk_cdf.searchsorted(u * rk_total, side="right")
                np.minimum(picks, A.m - 1, out=picks)
            elif not greedy:
                picks = np.tile(np.arange(k, k + size) % A.m, (T, 1))
            if picks is not None:
                record["index"] = picks.T
            chunks.append(record)
            rec_index, rec_size, rec_gamma, rec_err, rec_res = map(record.get, _STEP_COLUMNS)
        X_new, R_new = (X_prev, R_prev) if momentum else (X, R)
        if momentum:
            # One heavy-ball form for both blocks: see the docstring.
            for cur, prev in ((X, X_prev), (R, R_prev)):
                if cur is not None:
                    np.subtract(cur, prev, out=prev)
                    prev *= beta
                    prev += cur

        # Each trial's step on Python floats, from its own rows of the blocks.
        for p in () if batched else range(T):
            if p in ends:
                continue
            if greedy:
                pick = rule.select(A, R[p], scores[p], None if loud is None else loud[p],
                                   res[p], last[p], rngs[p])
                if pick is None:
                    # Its entry in this step's record stays unset; its trace ends before it.
                    ends[p] = (k, "converged", X[p].copy())
                    continue
                i, rec_size[j, p], rec_gamma[j, p] = pick
                last[p] = rec_index[j, p] = i
            else:
                i = picks.item(p, j)
            r_i = R.item(p, i) if keeps_r else A.row_dot(i, X[p]) - b.item(i)
            coeff = alpha * r_i / row_norms_sq.item(i)
            A.axpy_row(i, -coeff, X_new[p])
            if keeps_r:
                rows, values = images.image(i)
                r = R_new[p]
                r[rows] -= coeff * values
                if support_update:
                    r_rows = r[rows]
                    sq = r_rows * r_rows
                    R_sq[p][rows] = sq
                    if greedy:
                        scores[p][rows] = sq / row_norms_sq[rows]
                        if exact:
                            loud[p][rows] = np.abs(r_rows) > rule.tau_res
        if batched:
            column = picks[:, j]
            rows = A.to_dense().take(column, axis=0)
            coeff = alpha * (np.matmul(rows[:, None, :], X[:, :, None]).ravel() - b[column])
            coeff /= row_norms_sq[column]
            rows *= coeff[:, None]
            X -= rows
        if momentum:
            X, X_prev, R, R_prev = X_prev, X, R_prev, R

        if keeps_r:
            refresh = (k + 1) % REFRESH_EVERY == 0
            if refresh:
                # Each trial's own matvec of a fresh vector.
                for p in range(T):
                    if p in ends:
                        continue
                    R[p] = A.matvec(X[p].copy()) - b
                    if momentum:
                        R_prev[p] = A.matvec(X_prev[p].copy()) - b
            if refresh or not support_update:
                np.multiply(R, R, out=R_sq)
                if greedy:
                    np.divide(R_sq, row_norms_sq, out=scores)
                    if exact:
                        np.greater(np.abs(R), rule.tau_res, out=loud)
            res = np.add.reduce(R_sq, 1, None, rec_res[j]).tolist()
        if known:
            np.subtract(X, X_star, out=buf)
            np.multiply(buf, buf, out=buf)
            errs = np.add.reduce(buf, 1, None, rec_err[j]).tolist()
        if capture_iterates:
            for p, x_p in enumerate(X):
                if p not in ends:
                    iterates[p].append(x_p.copy())

        # One test of every trial's metrics finds whether any trial stops.
        if _stop_reason(errs, res, err_denom, res_denom, rse_tol):
            for p in range(T):
                if p in ends:
                    continue
                reason = _stop_reason(errs[p:p + 1], res[p:p + 1], err_denom, res_denom, rse_tol)
                if reason is not None:
                    ends[p] = (k + 1, reason, X[p].copy())
        if len(ends) == T:
            break

    for p in range(T):
        ends.setdefault(p, (steps, start_reason or "max_iters", X[p].copy()))
    traces = []
    for t, cfg in enumerate(configs):
        k, termination, final_x = ends[t]
        traces.append(Trace(
            termination=termination, initial_err_sq=err_sq, initial_res_sq=res_sq,
            final_x=final_x, config=cfg, frobenius_sq=A.frobenius_sq,
            x_star_norm_sq=x_star_norm_sq, zero_start=zero_start,
            iterates=iterates[t][:k + 1] if capture_iterates else None,
            **{name: np.concatenate([np.empty(0, dtype),
                                     *(chunk[name][:, t] for chunk in chunks)])[:k]
               for name, dtype in columns.items()}))
    return traces[0] if trials is None else traces
