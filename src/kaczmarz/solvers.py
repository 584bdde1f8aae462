"""Row-action solver drivers: cyclic, randomized, greedy, and momentum.

One ``run`` entry point drives all four variants behind a shared config,
stopping-rule, and trace format.  A single run is strictly sequential;
concurrent runs over the same immutable ``Problem`` are safe because all
mutable state (iterates, residual, generator, trace) is per-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import count, repeat, starmap
from typing import NamedTuple

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
    "TraceRecord",
    "Trace",
    "kaczmarz_step",
    "run",
]

# Residual recomputed from scratch this often to bound incremental drift.
REFRESH_EVERY = 1000

# Cap on the bytes held by cached residual-update directions (A @ a_i).
_IMAGE_CACHE_BYTES = 64_000_000

# rk draws its uniforms this many at a time; a block is the same stream as
# that many single draws, so the selections do not depend on it.
_RK_BLOCK = 1024

# Trials step in lockstep from this many on: rk and cyclic trials from the
# first, grk and mgrk trials from the second.  Below it the block's fixed cost
# per step outweighs what it saves.
_LOCKSTEP_TRIALS = 3
_GREEDY_LOCKSTEP_TRIALS = 4


class SolverVariant(str, Enum):
    CYCLIC = "cyclic"
    RK = "rk"
    GRK = "grk"
    MGRK = "mgrk"


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
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
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


class TraceRecord(NamedTuple):
    """One completed iteration; metrics refer to the iterate after the step.

    The fields are the trace-CSV columns, in order.
    """

    k: int
    index: int
    set_size: int | None  # greedy working-set size; None for rk and cyclic
    gamma: float | None   # greedy threshold mass; None for rk and cyclic
    err_sq: float | None  # None without x*
    res_sq: float | None  # None where the run keeps no full residual


@dataclass
class Trace:
    """Per-step metric arrays plus the run's initial metrics and outcome.

    Step k's metrics are ``index[k]``, ``set_size[k]``, ``gamma[k]``,
    ``err_sq[k]`` and ``res_sq[k]``, named as the ``TraceRecord`` fields.  A
    metric the run does not record is None for the whole run: ``set_size`` and
    ``gamma`` for rk and cyclic, ``err_sq`` without x*, ``res_sq`` where the
    run keeps no full residual.  ``records`` builds the ``TraceRecord`` list
    from the arrays each time it is read.

    ``termination`` is ``rse_tol`` (error below ``config.rse_tol``),
    ``residual_tol`` (no x*, residual below ``config.rse_tol``), ``converged``,
    ``max_iters`` or ``nonfinite`` (a metric overflowed).  ``converged`` ends
    a greedy run at the rounding floor: either every |r_i| is at most
    ``1e-14 * max(1, ||b||_inf)``, or, in exact gamma mode, the rows below
    that level carry so much of ||r||^2 that no row above it reaches the
    mean level ||r||^2/gamma, which sums only over the rows above it.
    """

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
    iterates: list[np.ndarray] | None = None

    @property
    def records(self) -> list[TraceRecord]:
        columns = [repeat(None) if col is None else col.tolist()
                   for col in (self.index, self.set_size, self.gamma, self.err_sq, self.res_sq)]
        return list(starmap(TraceRecord, zip(count(), *columns)))

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

    def err_history(self) -> np.ndarray:
        """Squared errors [initial, after step 0, after step 1, ...]."""
        if self.initial_err_sq is None or self.err_sq is None:
            raise ValueError("trace has no error metric (x* was unknown)")
        return np.concatenate(([self.initial_err_sq], self.err_sq))

    def selections(self) -> list[int]:
        return self.index.tolist()


def kaczmarz_step(
    A: RowAccessMatrix,
    b: np.ndarray,
    i: int,
    x: np.ndarray,
    x_prev: np.ndarray,
    alpha: float = 1.0,
    beta: float = 0.0,
    r: np.ndarray | None = None,
    r_prev: np.ndarray | None = None,
    image: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One relaxed projection onto <a_i, x> = b_i plus heavy-ball momentum.

    Returns ``(x_new, r_new)`` with
    ``x_new = x - coeff * a_i + beta * (x - x_prev)`` and
    ``coeff = alpha * r_i / ||a_i||^2``.  When the caller keeps the residual
    ``r = Ax - b``, r_i is read from it and ``r_new`` is its rank-1 update
    ``r - coeff * (A @ a_i) + beta * (r - r_prev)``; ``image`` is
    ``A.row_image(i)``, the pair ``(rows, values)``, when the caller has it
    cached.  Without momentum the update writes ``r[rows]`` in place and
    touches nothing else, so ``r_new`` is ``r`` and a sparse image costs
    O(len(rows)); with momentum ``r_new`` is a new array and ``r`` is left as
    it was.  Without ``r``, r_i = <a_i, x> - b_i costs O(nnz(a_i)) and
    ``r_new`` is None.
    """
    # Scalar arithmetic on Python floats: the same IEEE operations as on numpy
    # scalars, without their per-operation overhead.
    if r is None:
        r_i = A.row_dot(i, x) - b.item(i)
    else:
        r_i = r.item(i)
        if beta != 0.0 and r_prev is None:
            raise ValueError("momentum residual update needs the previous residual")
    coeff = alpha * r_i / A.row_norms_sq.item(i)
    if beta != 0.0:
        x_new = x + beta * (x - x_prev)
    else:
        x_new = x.copy()
    A.axpy_row(i, -coeff, x_new)
    if r is None:
        return x_new, None
    rows, values = A.row_image(i) if image is None else image
    if beta == 0.0:
        r[rows] -= coeff * values
        return x_new, r
    r_new = r.copy()
    r_new[rows] -= coeff * values
    r_new += beta * (r - r_prev)
    return x_new, r_new


def _err_sq(x: np.ndarray, x_star: np.ndarray, buf: np.ndarray) -> float:
    """||x - x*||^2 computed in ``buf``: the same pairwise sum, bit for bit, as
    ``np.sum((x - x_star) ** 2)``, without its two temporaries."""
    np.subtract(x, x_star, out=buf)
    np.multiply(buf, buf, out=buf)
    return float(np.add.reduce(buf))


def _stop_reason(err_sq, res_sq, err_denom, res_denom, rse_tol) -> str | None:
    """Termination reason for the current metrics, or None to keep going.

    ``err_sq`` is compared relative to ``err_denom`` when x* is known,
    ``res_sq`` relative to ``res_denom`` when not.  Both metrics are sums of
    squares, so their sum is finite exactly when every metric computed is.
    The residual is watched even when x* is known, because greedy selection
    reads it and it can overflow before the error.
    """
    if not math.isfinite((err_sq or 0.0) + (res_sq or 0.0)):
        return "nonfinite"
    if err_sq is not None:
        return "rse_tol" if err_sq / err_denom <= rse_tol else None
    return "residual_tol" if res_sq / res_denom <= rse_tol else None


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
        tau_res = 1e-14 * max(1.0, float(np.max(np.abs(b))) if len(b) else 0.0)
        return cls(config.resolved_gamma_mode(), config.theta, config.prob_rule,
                   tau_res, 2.0 * len(b) * tau_res * tau_res)

    def select(self, A, r, scores, loud, res_sq, last_index, rng):
        """One step's sampled row, its greedy set's size and gamma; None when
        the run has converged.

        ``scores`` are r_i^2/||a_i||^2 and, in exact mode, ``loud`` is the mask
        |r_i| > tau_res.  ``last_index`` is the previous step's row, None
        before the first step.  ``active_set_gamma``, ``greedy_set``,
        ``sampling_distribution`` and ``sample_index`` are called by their
        module names, once each.
        """
        exact = self.gamma_mode is GammaMode.EXACT
        gamma = active_set_gamma(A, self.gamma_mode, loud,
                                 last_index if self.gamma_mode is GammaMode.LAST_ROW else None)
        # Row norms are positive, so exact-mode gamma is zero just when no row
        # is loud.
        if exact:
            quiet = gamma == 0.0
        else:
            quiet = res_sq <= self.loud_floor and not np.any(np.abs(r) > self.tau_res)
        if quiet:
            return None
        try:
            indices = greedy_set(A, scores, res_sq, gamma, self.theta)
        except GreedyCertificateError:
            # Only the rounding floor gets here: see ``Trace``.
            if not exact:
                raise
            return None
        probs = sampling_distribution(r, indices, self.prob_rule)
        return indices.item(sample_index(probs, rng)), len(indices), gamma


class _ImageCache(dict):
    """Row images ``A.row_image(i)`` by row, kept while their bytes fit in
    ``_IMAGE_CACHE_BYTES``."""

    def __init__(self, A: RowAccessMatrix):
        super().__init__()
        self.A = A
        self.free = _IMAGE_CACHE_BYTES

    def image(self, i: int):
        image = self.get(i)
        if image is None:
            image = self.A.row_image(i)
            size = sum(getattr(part, "nbytes", 0) for part in image)  # a slice holds none
            if size <= self.free:
                self[i] = image
                self.free -= size
        return image


class _Start(NamedTuple):
    """A run's first iterate, its metrics and the relative-metric denominators."""

    x: np.ndarray
    r: np.ndarray
    err_sq: float | None
    res_sq: float
    x_star_norm_sq: float | None
    err_denom: float
    res_denom: float
    reason: str | None  # why the run stops before its first step, if it does


def _start(problem: Problem, config: SolverConfig, x0) -> _Start:
    A, b, x_star = problem.A, problem.b, problem.x_star
    x = np.zeros(A.n) if x0 is None else _as_vector(x0, A.n, "x0")
    r = A.matvec(x) - b
    x_star_norm_sq = float(x_star @ x_star) if x_star is not None else None
    err_sq = _err_sq(x, x_star, np.empty(A.n)) if x_star is not None else None
    res_sq = float(r @ r)
    b_norm_sq = float(b @ b)
    # Relative-metric denominators, 1 for a zero x* or b.
    err_denom = x_star_norm_sq if x_star is not None and x_star_norm_sq > 0.0 else 1.0
    res_denom = b_norm_sq if b_norm_sq > 0.0 else 1.0
    reason = _stop_reason(err_sq, res_sq, err_denom, res_denom, config.rse_tol)
    return _Start(x, r, err_sq, res_sq, x_star_norm_sq, err_denom, res_denom, reason)


def _trace(problem, config, start, termination, final_x, iterates, index,
           set_size=None, gamma=None, err_sq=None, res_sq=None) -> Trace:
    """The trace of a finished run; each step metric is a list, an array or None."""
    def column(values, dtype):
        return None if values is None else np.asarray(values, dtype=dtype)

    return Trace(termination=termination, initial_err_sq=start.err_sq,
                 initial_res_sq=start.res_sq, final_x=final_x, config=config,
                 frobenius_sq=problem.A.frobenius_sq, x_star_norm_sq=start.x_star_norm_sq,
                 index=column(index, np.int64), set_size=column(set_size, np.int64),
                 gamma=column(gamma, np.float64), err_sq=column(err_sq, np.float64),
                 res_sq=column(res_sq, np.float64), iterates=iterates)


# A diverging run ends "nonfinite"; numpy need not also warn about it.
@np.errstate(over="ignore", invalid="ignore")
def run(
    problem: Problem,
    config: SolverConfig,
    x0: np.ndarray | None = None,
    capture_iterates: bool = False,
    trials: int | None = None,
) -> Trace | list[Trace]:
    """Drive one solver run to a stopping rule and record its trace.

    Starts from zero unless ``x0`` is given; an ``x0`` of the wrong length
    or with NaN or infinite entries raises ``ValueError``, and the caller's
    array is never written.  Error metrics are measured against
    ``problem.x_star``, which is the correct target for x0 = 0 (and for any
    x0 whose offset from x* lies in Range(A^T)).  Identical (problem, config)
    pairs produce identical traces.  Each ``err_sq`` is bitwise
    ``np.sum((x - x_star) ** 2)`` of the iterate it follows, computed in a
    buffer kept for the run.

    With ``trials=T`` it returns the T traces of seeds ``config.seed + t``,
    each equal bit for bit to a separate ``run`` with that seed.  On a dense
    matrix with x* known, the trials step in lockstep: ``grk`` and ``mgrk``
    trials from T = ``_GREEDY_LOCKSTEP_TRIALS`` on, ``rk`` and ``cyclic``
    trials without momentum from T = ``_LOCKSTEP_TRIALS`` on.  Iterates form
    a (T, n) block, and greedy residuals a (T, m) block.  A step does the
    serial step's arithmetic, in its order, on the whole block: one batched
    ``np.matmul`` gives every trial's ``a_i @ x`` (``rk``, ``cyclic``) or
    ``r @ r`` (greedy), evaluated pair by pair as the 1-D product is, and one
    row-wise ``np.add.reduce`` gives every ``err_sq``.  Each greedy trial
    selects its row as a serial step does, with one call each to
    ``active_set_gamma``, ``greedy_set``, ``sampling_distribution`` and
    ``sample_index``, drawing from its own generator.  Their row images come
    from one cache, shared by the trials, under the same byte cap, and each
    refresh is the trial's own ``matvec``.  A trial leaves the block when it
    stops.  Every other run steps one trial after another: below the cutoffs
    the block's fixed cost per step outweighs what it saves, a CSR greedy
    step updates only its image's support where a block would update all m
    rows, and no timing shows a block beating the serial loop for runs
    without x* or for ``rk`` and ``cyclic`` with momentum.

    The full residual is kept only when the variant selects by it (``grk``,
    ``mgrk``) or the run stops on it (no x*).  Otherwise a step reads only
    its own row and records no ``res_sq``.  ``rk`` draws its uniforms
    ``_RK_BLOCK`` at a time and maps a block to rows in one search; a block
    is the same stream as that many single draws, so the selections are
    those of one ``rng.random()`` per step.

    Greedy runs keep the scores r_i^2/||a_i||^2 and, in exact gamma mode, the
    mask |r_i| > tau.  Without momentum a step updates them on
    the rows of its image only; momentum steps and the residual refresh every
    ``REFRESH_EVERY`` steps recompute them.  The other gamma modes read the
    mask only to detect a zero residual, and skip it while ||r||^2 > 2 m tau^2
    proves some row is above tau.  Row images are cached up to
    ``_IMAGE_CACHE_BYTES`` of rows and values.
    """
    if trials is None:
        return _run(problem, config, x0, capture_iterates)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    configs = [replace(config, seed=config.seed + t) for t in range(trials)]
    greedy = config.variant in (SolverVariant.GRK, SolverVariant.MGRK)
    if (trials >= (_GREEDY_LOCKSTEP_TRIALS if greedy else _LOCKSTEP_TRIALS)
            and problem.x_star is not None and not problem.A.is_sparse
            and (greedy or config.beta == 0.0)):
        return _run_lockstep(problem, configs, x0, capture_iterates)
    return [_run(problem, cfg, x0, capture_iterates) for cfg in configs]


def _run(problem: Problem, config: SolverConfig, x0, capture_iterates: bool) -> Trace:
    """One run, one step after another; see ``run``."""
    A, b = problem.A, problem.b
    m, n = A.shape
    variant = config.variant
    alpha, beta = config.alpha, config.beta
    rng = np.random.default_rng(config.seed)

    start = _start(problem, config, x0)
    x, r, err_sq, res_sq = start.x, start.r, start.err_sq, start.res_sq
    x_star = problem.x_star
    err_buf = np.empty(n)
    iterates = [x.copy()] if capture_iterates else None
    err_denom, res_denom, rse_tol = start.err_denom, start.res_denom, config.rse_tol

    greedy = variant in (SolverVariant.GRK, SolverVariant.MGRK)
    needs_residual = greedy or x_star is None
    if not needs_residual:
        r = res_sq = None
    # Momentum steps never write into x or r, so the first momentum term is
    # exactly zero.
    x_prev, r_prev = x, r
    rk = variant is SolverVariant.RK
    if rk:
        rk_cdf = A.row_norms_sq.cumsum()
        rk_total = rk_cdf[-1]
    row_norms_sq = A.row_norms_sq
    # The step metrics, one entry per step.
    index, set_sizes, gammas, errs, ress = [], [], [], [], []
    images = _ImageCache(A)
    last_index = None
    if greedy:
        rule = _GreedyRule.of(config, b)
        exact = rule.gamma_mode is GammaMode.EXACT
    # Selection state: the scores, and in exact mode the loud mask.
    scores = loud = None
    stale = True

    termination = start.reason or "max_iters"
    # A run that stops at its first iterate takes no step.
    for k in range(config.max_iters if start.reason is None else 0):
        if greedy:
            if stale:
                scores = (r * r) / row_norms_sq
                if exact:
                    loud = np.abs(r) > rule.tau_res
            picked = rule.select(A, r, scores, loud, res_sq, last_index, rng)
            if picked is None:
                termination = "converged"
                break
            i, set_size, gamma = picked
            set_sizes.append(set_size)
            gammas.append(gamma)
        elif rk:
            j = k % _RK_BLOCK
            if j == 0:
                u = rng.random(min(_RK_BLOCK, config.max_iters - k))
                picks = rk_cdf.searchsorted(u * rk_total, side="right")
                picks = np.minimum(picks, m - 1, out=picks).tolist()
            i = picks[j]
        else:
            i = k % m

        image = images.image(i) if needs_residual else None
        x_new, r_new = kaczmarz_step(A, b, i, x, x_prev, alpha, beta, r, r_prev, image)
        x_prev, x = x, x_new
        r_prev, r = r, r_new
        last_index = i
        index.append(i)

        if needs_residual:
            refresh = (k + 1) % REFRESH_EVERY == 0
            if refresh:
                r = A.matvec(x) - b
                if beta != 0.0:
                    r_prev = A.matvec(x_prev) - b
            res_sq = float(r @ r)
            ress.append(res_sq)
            stale = refresh or beta != 0.0
            if greedy and not stale:
                rows = image[0]
                r_rows = r[rows]
                scores[rows] = (r_rows * r_rows) / row_norms_sq[rows]
                if exact:
                    loud[rows] = np.abs(r_rows) > rule.tau_res
        if x_star is not None:
            err_sq = _err_sq(x, x_star, err_buf)
            errs.append(err_sq)
        if capture_iterates:
            iterates.append(x.copy())

        reason = _stop_reason(err_sq, res_sq, err_denom, res_denom, rse_tol)
        if reason is not None:
            termination = reason
            break

    return _trace(problem, config, start, termination, x.copy(), iterates, index,
                  set_sizes if greedy else None, gammas if greedy else None,
                  errs if x_star is not None else None, ress if needs_residual else None)


def _keep_rows(keep: np.ndarray, pos, blocks: tuple) -> tuple:
    """The rows ``keep`` selects of each block (None stays None), and of
    ``pos``, the block rows' rows in the current chunk."""
    pos = np.flatnonzero(keep) if type(pos) is slice else pos[keep]
    return pos, [None if block is None else block[keep] for block in blocks]


def _run_lockstep(problem: Problem, configs: list[SolverConfig], x0,
                  capture_iterates: bool) -> list[Trace]:
    """Trials of one dense run with x* known, stepped together: ``grk``,
    ``mgrk``, and ``rk`` or ``cyclic`` without momentum.  Row p of the block
    ``X``, and for greedy variants of ``R``, ``X_prev`` and ``R_prev``, belongs
    to trial ``live[p]``.  See ``run``."""
    A, b, x_star = problem.A, problem.b, problem.x_star
    config = configs[0]
    m = A.m
    trials = len(configs)
    alpha, beta = config.alpha, config.beta
    rse_tol, max_iters = config.rse_tol, config.max_iters
    start = _start(problem, config, x0)
    err_denom, res_denom = start.err_denom, start.res_denom
    variant = config.variant
    rk = variant is SolverVariant.RK
    greedy = variant in (SolverVariant.GRK, SolverVariant.MGRK)
    if rk:
        rk_cdf = A.row_norms_sq.cumsum()
        rk_total = rk_cdf[-1]
    row_norms_sq = A.row_norms_sq
    dense = A.to_dense()
    rngs = [np.random.default_rng(cfg.seed) for cfg in configs]
    live = np.arange(trials)
    X = np.tile(start.x, (trials, 1))
    buf = np.empty_like(X)
    iterates = [[start.x.copy()] for _ in configs] if capture_iterates else None
    # The greedy block state: residuals, ||r||^2, the last picks and the
    # previous iterates and residuals for momentum.
    R = res = idx = X_prev = R_prev = None
    # The recorded step metrics, each an integer or a float column.
    columns = {"index": np.int64, "err_sq": np.float64}
    if greedy:
        columns.update(set_size=np.int64, gamma=np.float64, res_sq=np.float64)
        rule = _GreedyRule.of(config, b)
        exact = rule.gamma_mode is GammaMode.EXACT
        R = np.tile(start.r, (trials, 1))
        res = np.full(trials, start.res_sq)
        if beta != 0.0:
            # Momentum steps never write into X or R, so the first momentum term
            # is exactly zero.
            X_prev, R_prev = X, R
        images = _ImageCache(A)  # shared by the trials
    # Chunks of up to _RK_BLOCK steps: the trials in the block when the chunk
    # starts, and their step metrics, one row of each per trial.  Row
    # ``pos[p]`` of the current chunk belongs to block row p.
    chunks = []
    ends = {}  # trial -> (steps, termination, final iterate)

    steps = max_iters if start.reason is None else 0
    for k in range(steps):
        j = k % _RK_BLOCK
        if j == 0:
            size = min(_RK_BLOCK, max_iters - k)
            if rk:
                u = np.stack([rngs[t].random(size) for t in live.tolist()])
                picks = rk_cdf.searchsorted(u * rk_total, side="right")
                np.minimum(picks, m - 1, out=picks)
            elif greedy:
                picks = np.empty((len(live), size), dtype=np.int64)
            else:
                picks = np.tile(np.arange(k, k + size) % m, (len(live), 1))
            record = {name: np.empty(picks.shape, dtype) for name, dtype in columns.items()}
            record["index"] = picks
            errs = record["err_sq"]
            chunks.append((live, record))
            pos = slice(None)

        if greedy:
            # Each trial's selection, drawn from its own generator as in the
            # serial run.
            scores = R * R
            scores /= row_norms_sq
            loud = np.abs(R) > rule.tau_res if exact else None
            picked = [rule.select(A, R[p], scores[p], None if loud is None else loud[p], rss,
                                  None if idx is None else idx.item(p), rngs[t])
                      for p, (t, rss) in enumerate(zip(live.tolist(), res.tolist()))]
            if None in picked:
                keep = np.array([step is not None for step in picked])
                for p in np.flatnonzero(~keep).tolist():
                    ends[live.item(p)] = (k, "converged", X[p].copy())
                if not keep.any():
                    break
                pos, (live, X, buf, R, res, X_prev, R_prev) = _keep_rows(
                    keep, pos, (live, X, buf, R, res, X_prev, R_prev))
                picked = [step for step in picked if step is not None]
            idx, sizes, gammas = map(np.array, zip(*picked))
            record["index"][pos, j] = idx
            record["set_size"][pos, j] = sizes
            record["gamma"][pos, j] = gammas
        else:
            idx = picks[pos, j]

        # The scalar step's arithmetic, in its order, on every trial at once.
        rows = dense.take(idx, axis=0)
        if greedy:
            coeff = alpha * R[np.arange(len(idx)), idx]
        else:
            coeff = alpha * (np.matmul(rows[:, None, :], X[:, :, None]).ravel() - b[idx])
        coeff /= row_norms_sq[idx]
        rows *= coeff[:, None]
        if beta != 0.0:
            X_new = X - X_prev
            X_new *= beta
            X_new += X
            X_new -= rows
            X_prev, X = X, X_new
        else:
            X -= rows

        if greedy:
            # coeff * (A @ a_i) per trial, from the shared cache of row images.
            image_rows = np.empty((len(idx), m))
            for p, (i, c) in enumerate(zip(idx.tolist(), coeff.tolist())):
                np.multiply(images.image(i)[1], c, out=image_rows[p])
            if beta != 0.0:
                R_new = R - image_rows
                drift = R - R_prev
                drift *= beta
                R_new += drift
                R_prev, R = R, R_new
            else:
                R -= image_rows
            if (k + 1) % REFRESH_EVERY == 0:
                # Each trial's own matvec of a fresh vector, as in the serial run.
                for p in range(len(idx)):
                    R[p] = A.matvec(X[p].copy()) - b
                    if beta != 0.0:
                        R_prev[p] = A.matvec(X_prev[p].copy()) - b
            res = np.matmul(R[:, None, :], R[:, :, None]).ravel()
            record["res_sq"][pos, j] = res

        np.subtract(X, x_star, out=buf)
        np.multiply(buf, buf, out=buf)
        err = np.add.reduce(buf, axis=1)
        errs[pos, j] = err
        if capture_iterates:
            for t, x in zip(live.tolist(), X):
                iterates[t].append(x.copy())

        # Division by err_denom is monotone, so the smallest error decides
        # whether any trial is below the tolerance; NaN fails the test too.
        if (np.minimum.reduce(err) / err_denom > rse_tol
                and np.maximum.reduce(err + res if greedy else err) < math.inf):
            continue
        reasons = [_stop_reason(e, r, err_denom, res_denom, rse_tol)
                   for e, r in zip(err.tolist(), res.tolist() if greedy else repeat(None))]
        keep = np.array([reason is None for reason in reasons])
        for p in np.flatnonzero(~keep).tolist():
            ends[live.item(p)] = (k + 1, reasons[p], X[p].copy())
        if not keep.any():
            break
        pos, (live, X, buf, R, res, idx, X_prev, R_prev) = _keep_rows(
            keep, pos, (live, X, buf, R, res, idx, X_prev, R_prev))

    for p, t in enumerate(live.tolist()):
        ends.setdefault(t, (steps, start.reason or "max_iters", X[p].copy()))
    traces = []
    for t, cfg in enumerate(configs):
        k, termination, x = ends[t]
        own = [(record, p) for members, record in chunks
               for p in np.flatnonzero(members == t).tolist()]
        metrics = {name: np.concatenate([record[name][p] for record, p in own])[:k]
                   if own else [] for name in columns}
        traces.append(_trace(problem, cfg, start, termination, x,
                             iterates[t] if capture_iterates else None, **metrics))
    return traces
