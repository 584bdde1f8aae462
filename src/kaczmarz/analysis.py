"""Closed-form convergence constants and pathwise trace certification.

Everything here is pure arithmetic on (sigma_min^2, ||A||_F^2, gamma, alpha,
beta) plus checks of recorded solver traces against the implied bounds:

* per-step contraction factor 1 - alpha(2 - alpha) sigma^2/gamma_k for the
  greedy solver,
* the k-step envelopes (plain and momentum),
* iteration-complexity constants from both the in-expectation and the
  pathwise rate.

Every entry point refuses a sigma_min^2 or ||A||_F^2 that is not finite and
positive with ``ValueError``: a NaN would make every bound pass vacuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RowAccessMatrix
from .solvers import Trace

__all__ = [
    "RateReport",
    "MomentumReport",
    "ComplexityReport",
    "CertificationResult",
    "gamma_leaveout",
    "grk_bounds",
    "rate_report",
    "momentum_factors",
    "beta_upper",
    "iteration_complexity",
    "certify_trace",
]

# Relative slack absorbed by pathwise certification, scaled by the initial error.
CERT_SLACK_SCALE = 1e-9


@dataclass(frozen=True)
class RateReport:
    """Per-step and k-step rate constants for the greedy solver family."""

    sigma_min_sq: float
    frob_sq: float
    gamma_leaveout: float
    grk_expectation_factor: float  # per-step factor of the classic averaged rate
    igrk_factor: float             # per-step factor 1 - sigma^2/gamma (tighter)
    first_step_factor: float       # 1 - sigma^2/||A||_F^2, the k = 1 factor


@dataclass(frozen=True)
class MomentumReport:
    """Constants of the two-term momentum recursion and its envelope."""

    alpha: float
    beta: float
    sigma_min_sq: float
    frob_sq: float
    gamma1: float
    gamma2: float
    q: float
    delta: float
    feasible: bool               # gamma1 + gamma2 < 1, so the envelope applies
    beta_upper: float | None     # largest provably safe beta (alpha <= 1 only)
    tau1: float
    tau2: float

    def envelope(self, k: int, err0_sq: float = 1.0) -> float:
        """Bound on the squared error after step k: q^k ((1 + delta) err0)."""
        if not self.feasible:
            raise ValueError("recursion constants infeasible (gamma1 + gamma2 >= 1)")
        return self.q**k * ((1.0 + self.delta) * err0_sq)


@dataclass(frozen=True)
class ComplexityReport:
    """Iteration counts guaranteeing squared error <= epsilon."""

    K1: float  # from the in-expectation rate, with confidence level rho
    K2: float  # from the pathwise rate; always <= K1
    epsilon: float
    rho: float


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of checking a trace against its convergence bound."""

    passed: bool
    first_violation: int | None
    checked: int
    mode: str  # "per_step" or "envelope"


def gamma_leaveout(A: RowAccessMatrix) -> float:
    """Largest leave-one-row-out mass max_i (||A||_F^2 - ||a_i||^2).

    This bounds the active-set mass from the second iteration onward, since
    the previously projected row has zero residual.
    """
    if A.m < 2:
        raise ValueError("leave-one-out mass needs at least two rows")
    return float(A.frobenius_sq - A.row_norms_sq.min())


def _check_positive(**values: float) -> None:
    """Refuse each named value (sigma_min_sq, frob_sq, epsilon) unless finite and positive."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _grk_factors(sigma_min_sq: float, frob_sq: float, gamma: float) -> tuple[float, float, float]:
    """The greedy solver's per-step factors ``(expectation, pathwise, first step)``:
    1 - (frob/gamma + 1)/2 * sigma^2/frob, 1 - sigma^2/gamma and 1 - sigma^2/frob.

    They are contraction factors only under sigma^2 <= gamma < frob; outside
    it the pathwise factor turns negative, so that is refused."""
    _check_positive(sigma_min_sq=sigma_min_sq, frob_sq=frob_sq)
    if not sigma_min_sq <= gamma < frob_sq:
        raise ValueError(f"need sigma_min_sq <= gamma < frob_sq, got "
                         f"{sigma_min_sq}, {gamma}, {frob_sq}")
    expectation = 1.0 - 0.5 * (frob_sq / gamma + 1.0) * sigma_min_sq / frob_sq
    return expectation, 1.0 - sigma_min_sq / gamma, 1.0 - sigma_min_sq / frob_sq


def grk_bounds(
    sigma_min_sq: float, frob_sq: float, gamma: float, k: int
) -> tuple[float, float]:
    """The two k-step error-ratio bounds for the greedy solver.

    Returns ``(expectation_bound, deterministic_bound)``:

    * expectation form: (1 - (frob/gamma + 1)/2 * sigma^2/frob)^(k-1) * (1 - sigma^2/frob)
    * tight pathwise form: (1 - sigma^2/gamma)^(k-1) * (1 - sigma^2/frob)

    The second is never larger than the first; needs sigma^2 <= gamma < frob.
    """
    exp_step, det_step, first = _grk_factors(sigma_min_sq, frob_sq, gamma)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0, 1.0
    return exp_step ** (k - 1) * first, det_step ** (k - 1) * first


def rate_report(A: RowAccessMatrix, sigma_min_sq: float) -> RateReport:
    """Rate constants for ``A`` with smallest nonzero squared singular value
    ``sigma_min_sq``.

    The factors are those of ``grk_bounds`` with gamma = ``gamma_leaveout(A)``,
    under the same hypothesis sigma^2 <= gamma, which fails for instance on
    a rank-one matrix, whose sigma^2 is all of ||A||_F^2.
    """
    frob, gamma = A.frobenius_sq, gamma_leaveout(A)
    return RateReport(float(sigma_min_sq), frob, gamma, *_grk_factors(sigma_min_sq, frob, gamma))


def _check_momentum_hypotheses(alpha: float, beta: float) -> None:
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if beta == 0.0:
        if not 0.0 < alpha < 2.0:
            raise ValueError(f"with beta = 0, alpha must lie in (0, 2), got {alpha}")
    elif not 0.0 < alpha < 1.0 + beta:
        raise ValueError(f"with beta > 0, alpha must lie in (0, 1 + beta), got {alpha}")


def _taus(alpha: float, sigma_min_sq: float, frob_sq: float) -> tuple[float, float, float]:
    """The ratio sigma^2/frob and the momentum constants
    tau1 = 4 - 3 alpha sigma^2/frob and tau2 = (2 alpha - alpha^2) sigma^2/frob.

    sigma^2 <= ||A||_F^2 holds for every matrix, so a larger sigma^2 comes from
    rounding or bad input and is refused."""
    _check_positive(sigma_min_sq=sigma_min_sq, frob_sq=frob_sq)
    if sigma_min_sq > frob_sq:
        raise ValueError(f"need sigma_min_sq <= frob_sq, got {sigma_min_sq}, {frob_sq}")
    ratio = sigma_min_sq / frob_sq
    return ratio, 4.0 - 3.0 * alpha * ratio, (2.0 * alpha - alpha**2) * ratio


def momentum_factors(
    alpha: float, beta: float, sigma_min_sq: float, frob_sq: float
) -> MomentumReport:
    """Two-term recursion constants for the momentum solver.

    gamma1 = 2 b^2 + 3 b + 1 - (3 a b + 2 a - a^2) sigma^2/frob,
    gamma2 = 2 b^2 + b, with envelope base q = (gamma1 + sqrt(gamma1^2
    + 4 gamma2)) / 2 (or gamma1 when gamma2 = 0) and offset delta = q - gamma1.
    The envelope applies only when gamma1 + gamma2 < 1, which for alpha <= 1
    means beta < ``beta_upper``.
    """
    _check_momentum_hypotheses(alpha, beta)
    ratio, tau1, tau2 = _taus(alpha, sigma_min_sq, frob_sq)
    gamma1 = 2.0 * beta**2 + 3.0 * beta + 1.0 - (3.0 * alpha * beta + 2.0 * alpha - alpha**2) * ratio
    gamma2 = 2.0 * beta**2 + beta
    if gamma2 > 0.0:
        q = 0.5 * (gamma1 + math.sqrt(gamma1**2 + 4.0 * gamma2))
    else:
        q = gamma1
    delta = q - gamma1
    bound = beta_upper(alpha, sigma_min_sq, frob_sq) if alpha <= 1.0 else None
    return MomentumReport(
        alpha=alpha, beta=beta, sigma_min_sq=sigma_min_sq, frob_sq=frob_sq,
        gamma1=gamma1, gamma2=gamma2, q=q, delta=delta,
        feasible=gamma1 + gamma2 < 1.0, beta_upper=bound, tau1=tau1, tau2=tau2,
    )


def beta_upper(alpha: float, sigma_min_sq: float, frob_sq: float) -> float:
    """Largest momentum weight with a provable envelope, for alpha in (0, 1].

    ``momentum_factors`` is feasible exactly for beta in [0, bound), where
    bound = (sqrt(tau1^2 + 16 tau2) - tau1) / 8 is the positive root of
    gamma1 + gamma2 = 1, that is of 4 beta^2 + tau1 beta - tau2 = 0.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    _, tau1, tau2 = _taus(alpha, sigma_min_sq, frob_sq)
    return 0.125 * (math.sqrt(tau1**2 + 16.0 * tau2) - tau1)


def _check_rho(rho: float) -> None:
    """Refuse a confidence level rho outside (0, 1), NaN included."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")


def iteration_complexity(
    sigma_min_sq: float, frob_sq: float, err0_sq: float, epsilon: float, rho: float
) -> ComplexityReport:
    """Iteration counts K1 (expectation route) and K2 (pathwise route).

    K1 = (frob/sigma^2) ln(err0 / (epsilon rho)) guarantees the target with
    probability 1 - rho; K2 = (frob/sigma^2) ln(err0 / epsilon) guarantees it
    outright and is never larger.
    """
    _check_positive(sigma_min_sq=sigma_min_sq, frob_sq=frob_sq)
    if not 0.0 < epsilon < err0_sq:
        raise ValueError(f"need 0 < epsilon < err0_sq, got {epsilon}, {err0_sq}")
    _check_rho(rho)
    scale = frob_sq / sigma_min_sq
    return ComplexityReport(
        K1=scale * math.log(err0_sq / (epsilon * rho)),
        K2=scale * math.log(err0_sq / epsilon),
        epsilon=epsilon,
        rho=rho,
    )


def certify_trace(trace: Trace, sigma_min_sq: float) -> CertificationResult:
    """Check a recorded trace against its convergence bound, step by step.

    Runs without momentum are held to the per-step contraction
    ``err_{k+1} <= (1 - alpha(2 - alpha) sigma^2/gamma_k) err_k + slack`` using
    the gamma recorded at each step, which follows from
    ``err_{k+1} = err_k - alpha(2 - alpha) r_i^2/||a_i||^2``; momentum runs are
    held to ``MomentumReport.envelope``, ``err_{k+1} <= q^k (1 + delta) err_0
    + slack``.  The slack is ``CERT_SLACK_SCALE`` times the initial squared
    error, absorbing floating-point accumulation only.  Returns the first
    violating step, if any.

    A bound is asserted only where its hypotheses hold.  ``ValueError``
    refuses a trace without the error metric or (rk, cyclic) gamma, one
    that did not start from x0 = 0 (both bounds need x0 - x* in Range(A^T),
    which x0 = 0 meets, x* being the minimum-norm solution), a
    ``sigma_min_sq`` or recorded ||A||_F^2 that is not finite and positive,
    an initial squared error that is not finite and nonnegative, a recorded
    gamma that is not finite and positive or that exceeds the recorded
    ||A||_F^2 by more than a relative 1e-12 (a genuine gamma exceeds it by
    rounding at most, and a larger one loosens the per-step bound), alpha
    outside (0, 2) without momentum or (0, 1 + beta) with it, and an
    infeasible momentum envelope, naming ``beta_upper`` when alpha <= 1.  A
    NaN error is a violation.
    """
    if trace.initial_err_sq is None or trace.err_sq is None:
        raise ValueError("trace has no error metric; run with a known x_star to certify")
    alpha, beta = trace.config.alpha, trace.config.beta
    _check_momentum_hypotheses(alpha, beta)
    _check_positive(sigma_min_sq=sigma_min_sq, frob_sq=trace.frobenius_sq)
    err0 = trace.initial_err_sq
    if not 0.0 <= err0 < math.inf:
        raise ValueError(f"initial_err_sq must be finite and nonnegative, got {err0}")
    slack = CERT_SLACK_SCALE * err0
    # Both bounds rest on greedy selection; rk and cyclic record no gamma.
    if trace.gamma is None:
        raise ValueError("trace has no gamma; certification applies to greedy traces only")
    if not trace.zero_start:
        raise ValueError("trace starts from a nonzero x0; the bounds need x0 - x* in "
                         "Range(A^T), which only x0 = 0 is known to meet")
    if not np.all((trace.gamma > 0.0) & (trace.gamma < math.inf)):
        raise ValueError("every recorded gamma must be finite and positive")
    # Each gamma sums row norms out of ||A||_F^2; 1e-12 covers the rounding.
    top = float(trace.gamma.max(initial=0.0))
    if not top <= trace.frobenius_sq * (1.0 + 1e-12):
        raise ValueError(f"a recorded gamma, {top!r}, exceeds the recorded ||A||_F^2, "
                         f"{trace.frobenius_sq!r}, by more than a relative 1e-12")
    errs = trace.err_sq
    checked = len(errs)

    if beta == 0.0:
        mode = "per_step"
        # The scalar bound's operations, in its order, on every step at once.
        prev = np.concatenate(([err0], errs[:-1]))
        bound = (1.0 - alpha * (2.0 - alpha) * sigma_min_sq / trace.gamma) * prev + slack
    else:
        mode = "envelope"
        report = momentum_factors(alpha, beta, sigma_min_sq, trace.frobenius_sq)
        if not report.feasible:
            reason = (f"momentum constants infeasible (gamma1 + gamma2 = "
                      f"{report.gamma1 + report.gamma2:.6g} >= 1); no envelope to certify against")
            if report.beta_upper is not None:
                reason += f"; beta = {beta} is not below beta_upper = {report.beta_upper:.6g}"
            raise ValueError(reason)
        # The scalar envelope at each step: np.power need not round as ** does.
        bound = np.array([report.envelope(k, err0) for k in range(checked)]) + slack
    violated = np.flatnonzero(~(errs <= bound))  # a NaN error fails too
    first = violated.item(0) if violated.size else None
    return CertificationResult(first is None, first, checked, mode)
