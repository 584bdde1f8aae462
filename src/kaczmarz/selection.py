"""Greedy row selection: threshold masses, working sets, and sampling.

The greedy methods score each row by its squared residual normalized by the
squared row norm, keep the rows whose score clears a threshold mixing the
maximum score with the mean-level term ``||r||^2 / gamma``, and then sample
one working row from that set.  The solver keeps the scores, ||r||^2 and the
mask of rows with nonzero residual up to date between steps and passes them
in, so these functions do not recompute them from r.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .linalg import RowAccessMatrix

__all__ = [
    "GreedyCertificateError",
    "GammaMode",
    "ProbabilityRule",
    "active_set_gamma",
    "greedy_set",
    "sampling_distribution",
    "sample_index",
]


class GreedyCertificateError(ValueError):
    """A greedy working set fails, or cannot be held to, the ||r||^2/gamma certificate."""


class GammaMode(str, Enum):
    """How the threshold mass gamma_k is computed each iteration."""

    EXACT = "exact"          # sum of squared norms over rows with nonzero residual
    LAST_ROW = "lastrow"     # Frobenius mass minus the previously projected row
    FROBENIUS = "frobenius"  # full Frobenius mass (classic greedy rule)


class ProbabilityRule(str, Enum):
    RESIDUAL = "residual"  # p_i proportional to r_i^2 over the working set
    UNIFORM = "uniform"


def active_set_gamma(
    A: RowAccessMatrix,
    mode: GammaMode,
    loud: np.ndarray | None = None,
    last_index: int | None = None,
) -> float:
    """Threshold mass gamma_k.

    Exact mode sums ``||a_i||^2`` over the rows in the boolean mask ``loud``,
    the caller's floating-point stand-in for "residual is nonzero" (the
    solver uses ``|r_i| > 1e-14 * max(1, ||b||_inf)``); an empty mask gives
    0.0, and anything but a boolean array of length m raises ``ValueError``.
    Last-row mode needs ``last_index`` from the previous iteration (``None``
    means the first iteration, where the full Frobenius mass applies).  It
    subtracts the row's mass from ||A||_F^2, unless the row holds more than
    half of it, where the difference would cancel and the other rows are
    summed instead.  Only exact mode reads ``loud``.
    """
    if type(mode) is not GammaMode:
        mode = GammaMode(mode)
    if mode is GammaMode.EXACT:
        if not (isinstance(loud, np.ndarray) and loud.dtype.kind == "b"
                and loud.shape == (A.m,)):
            raise ValueError(f"exact mode needs a boolean row mask of length {A.m}")
        return float(np.add.reduce(A.row_norms_sq[loud]))
    gamma = A.frobenius_sq
    if mode is GammaMode.LAST_ROW and last_index is not None:
        norm = A.row_norms_sq.item(last_index)
        if norm <= 0.5 * gamma:
            gamma -= norm
        else:
            # The difference would cancel; at most one row holds this much.
            rest = A.row_norms_sq
            gamma = np.add.reduce(rest[:last_index]) + np.add.reduce(rest[last_index + 1:])
    return float(gamma)


def greedy_set(
    A: RowAccessMatrix,
    scores: np.ndarray,
    rss: float,
    gamma: float,
    theta: float = 0.5,
) -> np.ndarray:
    """Sorted indices of the rows whose score clears the mixed threshold.

    ``scores`` holds r_i^2/||a_i||^2 and ``rss`` is ||r||^2 for the same
    residual r; the solver keeps both up to date between steps.  Keeps every
    i with ``scores[i] >= theta*max + (1-theta)*rss/gamma`` (ties included).
    The best-scoring row is always a member, so the set is never empty for
    a nonzero residual.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if len(scores) != A.m:
        raise ValueError(f"scores have length {len(scores)}, expected {A.m}")
    if rss == 0.0:
        raise ValueError("residual is zero: system already solved")
    if not math.isfinite(rss):
        raise GreedyCertificateError(f"||r||^2 = {rss!r} is not finite")

    best = int(scores.argmax())
    top = scores.item(best)
    threshold = theta * top + (1.0 - theta) * rss / gamma
    mask = scores >= threshold
    mask[best] = True  # guard against the argmax dropping out to rounding
    indices = mask.nonzero()[0]

    # Every member is certified to sit at or above the mean level ||r||^2/gamma.
    # Members other than the best clear the threshold, so the members'
    # minimum is read only when the threshold and the best do not settle it.
    floor = (rss / gamma) * (1.0 - 1e-9)
    if not (threshold >= floor and top >= floor
            or np.minimum.reduce(scores[indices]) >= floor):
        raise GreedyCertificateError(
            f"greedy member below the ||r||^2/gamma certificate (||r||^2 = {rss:.6g}, "
            f"gamma = {gamma:.6g}): gamma is below the active-set mass")
    return indices


def sampling_distribution(
    r: np.ndarray, indices: np.ndarray, rule: ProbabilityRule
) -> np.ndarray:
    """Selection probabilities over the working-set rows ``indices``.

    Residual rule: p_i proportional to r_i^2 restricted to the working set.
    Uniform rule: 1/|set|.  Probabilities are normalized to sum to one.
    """
    if type(rule) is not ProbabilityRule:
        rule = ProbabilityRule(rule)
    size = len(indices)
    if size == 0:
        raise ValueError("working set is empty")
    if rule is ProbabilityRule.UNIFORM:
        return np.full(size, 1.0 / size)
    weights = np.asarray(r, dtype=np.float64)[indices]
    weights *= weights
    total = float(np.add.reduce(weights))
    if total <= 0.0:
        raise ValueError("all working-set residuals are zero")
    return weights / total


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from ``probs``; deterministic given the generator state.

    Returns a position into ``probs`` (the caller maps it back to a row).
    """
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    size = len(cdf)
    if size == 0:
        raise ValueError("cannot sample from an empty distribution")
    total = cdf.item(-1)
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return min(int(cdf.searchsorted(rng.random() * total, side="right")), size - 1)
