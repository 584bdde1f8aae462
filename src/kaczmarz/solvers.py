"""Row-action solver drivers: cyclic, randomized, greedy, and momentum.

One ``run`` entry point drives all four variants behind a shared config,
stopping-rule, and trace format.  A single run is strictly sequential;
concurrent runs over the same immutable ``Problem`` are safe because all
mutable state (iterates, residual, generator, trace) is per-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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
    """Per-iteration records plus the run's initial metrics and outcome.

    ``termination`` is ``rse_tol`` (error below ``config.rse_tol``),
    ``residual_tol`` (no x*, residual below ``config.rse_tol``), ``converged``,
    ``max_iters`` or ``nonfinite`` (a metric overflowed).  ``converged`` ends
    a greedy run at the rounding floor: either every |r_i| is at most
    ``1e-14 * max(1, ||b||_inf)``, or, in exact gamma mode, the rows below
    that level carry so much of ||r||^2 that no row above it reaches the
    mean level ||r||^2/gamma, which sums only over the rows above it.
    """

    records: list[TraceRecord]
    termination: str
    initial_err_sq: float | None
    initial_res_sq: float
    final_x: np.ndarray | None
    config: SolverConfig
    frobenius_sq: float
    x_star_norm_sq: float | None
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def final_rse(self) -> float | None:
        """Relative solution error of the last iterate, if x* is known."""
        if self.initial_err_sq is None or self.x_star_norm_sq is None:
            return None
        err = self.records[-1].err_sq if self.records else self.initial_err_sq
        denom = self.x_star_norm_sq if self.x_star_norm_sq > 0.0 else 1.0
        return float(err) / denom

    def err_history(self) -> np.ndarray:
        """Squared errors [initial, after step 0, after step 1, ...]."""
        if self.initial_err_sq is None:
            raise ValueError("trace has no error metric (x* was unknown)")
        return np.array([self.initial_err_sq] + [rec.err_sq for rec in self.records])

    def selections(self) -> list[int]:
        return [rec.index for rec in self.records]


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
    if r is None:
        r_i = A.row_dot(i, x) - b[i]
    else:
        r_i = r[i]
        if beta != 0.0 and r_prev is None:
            raise ValueError("momentum residual update needs the previous residual")
    coeff = alpha * r_i / A.row_norms_sq[i]
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


def _stop_reason(err_sq, res_sq, x_star_norm_sq, b_norm_sq, config) -> str | None:
    """Termination reason for the current metrics, or None to keep going.

    Both metrics are sums of squares, so their sum is finite exactly when every
    metric computed is.  The residual is watched even when x* is known,
    because greedy selection reads it and it can overflow before the error.
    """
    if not math.isfinite((err_sq or 0.0) + (res_sq or 0.0)):
        return "nonfinite"
    if err_sq is not None:
        denom = x_star_norm_sq if x_star_norm_sq > 0.0 else 1.0
        return "rse_tol" if err_sq / denom <= config.rse_tol else None
    denom = b_norm_sq if b_norm_sq > 0.0 else 1.0
    return "residual_tol" if res_sq / denom <= config.rse_tol else None


# A diverging run ends "nonfinite"; numpy need not also warn about it.
@np.errstate(over="ignore", invalid="ignore")
def run(
    problem: Problem,
    config: SolverConfig,
    x0: np.ndarray | None = None,
    capture_iterates: bool = False,
) -> Trace:
    """Drive one solver run to a stopping rule and record its trace.

    Starts from zero unless ``x0`` is given; an ``x0`` of the wrong length
    or with NaN or infinite entries raises ``ValueError``, and the caller's
    array is never written.  Error metrics are measured against
    ``problem.x_star``, which is the correct target for x0 = 0 (and for any
    x0 whose offset from x* lies in Range(A^T)).  Identical (problem, config)
    pairs produce identical traces.

    The full residual is kept only when the variant selects by it (``grk``,
    ``mgrk``) or the run stops on it (no x*).  Otherwise a step reads only
    its own row and records ``res_sq=None``.

    Greedy runs keep the scores r_i^2/||a_i||^2 and, in exact gamma mode, the
    mask |r_i| > tau.  Without momentum a step updates them on
    the rows of its image only; momentum steps and the residual refresh every
    ``REFRESH_EVERY`` steps recompute them.  The other gamma modes read the
    mask only to detect a zero residual, and skip it while ||r||^2 > 2 m tau^2
    proves some row is above tau.  Row images are cached up to
    ``_IMAGE_CACHE_BYTES`` of rows and values.
    """
    A, b = problem.A, problem.b
    m, n = A.shape
    variant = config.variant
    gamma_mode = config.resolved_gamma_mode()
    alpha, beta, theta = config.alpha, config.beta, config.theta
    rng = np.random.default_rng(config.seed)

    x = np.zeros(n) if x0 is None else _as_vector(x0, n, "x0")
    r = A.matvec(x) - b

    x_star = problem.x_star
    x_star_norm_sq = float(x_star @ x_star) if x_star is not None else None
    b_norm_sq = float(b @ b)
    b_inf = float(np.max(np.abs(b))) if m else 0.0
    # Floating-point test for "this residual entry is zero".
    tau_res = 1e-14 * max(1.0, b_inf)

    err_sq = float(np.sum((x - x_star) ** 2)) if x_star is not None else None
    res_sq = float(r @ r)
    iterates = [x.copy()] if capture_iterates else None

    trace = Trace(
        records=[],
        termination="max_iters",
        initial_err_sq=err_sq,
        initial_res_sq=res_sq,
        final_x=None,
        config=config,
        frobenius_sq=A.frobenius_sq,
        x_star_norm_sq=x_star_norm_sq,
        iterates=iterates,
    )

    reason = _stop_reason(err_sq, res_sq, x_star_norm_sq, b_norm_sq, config)
    if reason is not None:
        trace.termination = reason
        trace.final_x = x.copy()
        return trace

    greedy = variant in (SolverVariant.GRK, SolverVariant.MGRK)
    needs_residual = greedy or x_star is None
    if not needs_residual:
        r = res_sq = None
    # Momentum steps never write into x or r, so the first momentum term is
    # exactly zero.
    x_prev, r_prev = x, r
    rk_cdf = np.cumsum(A.row_norms_sq) if variant is SolverVariant.RK else None
    image_cache: dict[int, tuple[np.ndarray | slice, np.ndarray]] = {}
    cache_bytes = 0
    last_index = None
    exact = gamma_mode is GammaMode.EXACT
    # ||r||^2 above this proves some |r_i| > tau_res, with room for rounding.
    loud_floor = 2.0 * m * tau_res * tau_res
    # Selection state: the scores, and in exact mode the loud mask.
    scores = loud = None
    stale = True

    for k in range(config.max_iters):
        set_size = gamma_rec = None

        if greedy:
            if stale:
                scores = (r * r) / A.row_norms_sq
                if exact:
                    loud = np.abs(r) > tau_res
            last = last_index if gamma_mode is GammaMode.LAST_ROW else None
            gamma = active_set_gamma(A, gamma_mode, loud, last)
            # Row norms are positive, so exact-mode gamma is zero just when no row
            # is loud.
            if exact:
                quiet = gamma == 0.0
            else:
                quiet = res_sq <= loud_floor and not np.any(np.abs(r) > tau_res)
            if quiet:
                trace.termination = "converged"
                break
            try:
                indices = greedy_set(A, scores, res_sq, gamma, theta)
            except GreedyCertificateError:
                # Only the rounding floor gets here: see ``Trace``.
                if not exact:
                    raise
                trace.termination = "converged"
                break
            probs = sampling_distribution(r, indices, config.prob_rule)
            i = int(indices[sample_index(probs, rng)])
            set_size, gamma_rec = len(indices), gamma
        elif variant is SolverVariant.RK:
            u = rng.random() * rk_cdf[-1]
            i = min(int(np.searchsorted(rk_cdf, u, side="right")), m - 1)
        else:
            i = k % m

        image = None
        if needs_residual:
            image = image_cache.get(i)
            if image is None:
                image = A.row_image(i)
                size = sum(getattr(part, "nbytes", 0) for part in image)  # a slice holds none
                if cache_bytes + size <= _IMAGE_CACHE_BYTES:
                    image_cache[i] = image
                    cache_bytes += size
        x_new, r_new = kaczmarz_step(A, b, i, x, x_prev, alpha, beta, r, r_prev, image)
        x_prev, x = x, x_new
        r_prev, r = r, r_new
        last_index = i

        if needs_residual:
            refresh = (k + 1) % REFRESH_EVERY == 0
            if refresh:
                r = A.matvec(x) - b
                if beta != 0.0:
                    r_prev = A.matvec(x_prev) - b
            res_sq = float(r @ r)
            stale = refresh or beta != 0.0
            if greedy and not stale:
                rows = image[0]
                r_rows = r[rows]
                scores[rows] = (r_rows * r_rows) / A.row_norms_sq[rows]
                if exact:
                    loud[rows] = np.abs(r_rows) > tau_res
        if x_star is not None:
            err_sq = float(np.sum((x - x_star) ** 2))
        trace.records.append(TraceRecord(k, i, set_size, gamma_rec, err_sq, res_sq))
        if capture_iterates:
            iterates.append(x.copy())

        reason = _stop_reason(err_sq, res_sq, x_star_norm_sq, b_norm_sq, config)
        if reason is not None:
            trace.termination = reason
            break

    trace.final_x = x.copy()
    return trace
