"""Greedy row selection: threshold masses, working sets, and sampling.

The greedy methods score each row by its squared residual normalized by the
squared row norm, keep the rows whose score clears a threshold mixing the
maximum score with the mean-level term ``||r||^2 / gamma``, and then sample
one working row from that set.  ``solvers.run`` is the only caller of the four
functions here: it keeps the scores, ||r||^2 and the mask of rows with
nonzero residual up to date between steps and passes them in, so these
functions do not recompute them from r.  Each states the input contract that
``run`` keeps for it, and checks none of it.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .linalg import RowAccessMatrix

__all__ = ["GammaMode", "ProbabilityRule"]


class GammaMode(str, Enum):
    """How the threshold mass gamma_k is computed each iteration."""

    EXACT = "exact"          # sum of squared norms over rows with nonzero residual
    LAST_ROW = "lastrow"     # Frobenius mass minus the previously projected row
    FROBENIUS = "frobenius"  # full Frobenius mass (classic greedy rule)


class ProbabilityRule(str, Enum):
    RESIDUAL = "residual"  # p_i proportional to r_i^2 over the working set
    UNIFORM = "uniform"


def active_set_gamma(A: RowAccessMatrix, mode: GammaMode, loud: np.ndarray | None = None,
                     last_index: int | None = None) -> float:
    """Threshold mass gamma_k; ``run`` is the only caller.

    ``mode`` is a ``GammaMode`` member.  Exact mode sums ``||a_i||^2`` over
    the rows in ``loud``, a boolean mask of shape (m,) and the caller's
    floating-point stand-in for "residual is nonzero" (the solver uses
    ``|r_i| > 1e-14 * max(1, ||b||_inf)``); an empty mask gives 0.0.
    Last-row mode needs ``last_index`` from the previous iteration (``None``
    means the first iteration, where the full Frobenius mass applies).  It
    subtracts the row's mass from ||A||_F^2, unless the row holds more than
    half of it, where the difference would cancel and the other rows are
    summed instead.  Only exact mode reads ``loud``.
    """
    if mode is GammaMode.EXACT:
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


def greedy_set(scores: np.ndarray, rss: float, gamma: float, theta: float) -> np.ndarray:
    """Sorted indices of the rows whose score clears the mixed threshold, or an
    empty array when the set fails its certificate; ``run`` is the only caller.

    ``scores`` holds the m ratios r_i^2/||a_i||^2 and ``rss`` is ||r||^2 for
    the same residual r, with 0 < ``rss`` < inf, 0 < ``gamma`` < inf and
    ``theta`` in [0, 1].  Keeps every i with ``scores[i] >= theta*max +
    (1-theta)*rss/gamma`` (ties included); the best-scoring row is always a
    member.  The certificate holds when every member sits at or above the mean
    level rss/gamma, up to a relative 1e-9.  It fails when gamma is below the
    mass of the rows holding rss: in ``run``, only at the rounding floor.
    """
    best = int(scores.argmax())
    top = scores.item(best)
    threshold = theta * top + (1.0 - theta) * rss / gamma
    mask = scores >= threshold
    mask[best] = True  # guard against the argmax dropping out to rounding
    indices = mask.nonzero()[0]

    # Members other than the best clear the threshold, so the members'
    # minimum is read only when the threshold and the best do not settle it.
    floor = (rss / gamma) * (1.0 - 1e-9)
    if not (threshold >= floor and top >= floor
            or np.minimum.reduce(scores[indices]) >= floor):
        return indices[:0]
    return indices


def sampling_distribution(r: np.ndarray, indices: np.ndarray, rule: ProbabilityRule) -> np.ndarray:
    """Selection probabilities over the working-set rows ``indices``; ``run``
    is the only caller.

    ``r`` is the float64 residual, ``indices`` a nonempty set from
    ``greedy_set`` and ``rule`` a ``ProbabilityRule`` member.  Residual rule:
    p_i proportional to r_i^2 restricted to the working set; the weights sum
    to a positive total, as the set holds the best-scoring row, whose r_i is
    nonzero.  Uniform rule: 1/|set|.  Probabilities sum to one.
    """
    if rule is ProbabilityRule.UNIFORM:
        return np.full(len(indices), 1.0 / len(indices))
    weights = r[indices]
    weights *= weights
    return weights / float(np.add.reduce(weights))


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from ``probs``, deterministic given the generator
    state; ``run`` is the only caller.

    ``probs`` is a nonempty float64 array that sums to one, as
    ``sampling_distribution`` returns it.  Returns a position into ``probs``
    (the caller maps it back to a row).
    """
    cdf = probs.cumsum()
    return min(int(cdf.searchsorted(rng.random() * cdf.item(-1), side="right")), len(cdf) - 1)
