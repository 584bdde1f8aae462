import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kaczmarz.analysis import (
    CERT_SLACK_SCALE,
    CertificationResult,
    beta_upper,
    certify_trace,
    gamma_leaveout,
    grk_bounds,
    iteration_complexity,
    momentum_factors,
    rate_report,
)
from kaczmarz.harness import RandomProblemSpec, gen_random_problem
from kaczmarz.linalg import Problem, RowAccessMatrix, smallest_nonzero_singular_value
from kaczmarz.solvers import SolverConfig, run

DIAG = RowAccessMatrix([[1.0, 0.0], [0.0, 2.0]])


class TestGammaLeaveout:
    def test_identity(self):
        assert gamma_leaveout(RowAccessMatrix(np.eye(2))) == 1.0

    def test_distinct_rows(self):
        assert gamma_leaveout(DIAG) == 4.0

    def test_equal_row_norms(self):
        for m in (2, 5, 9):
            A = RowAccessMatrix(3.0 * np.eye(m))
            assert gamma_leaveout(A) == pytest.approx((m - 1) * 9.0)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            gamma_leaveout(RowAccessMatrix([[1.0, 2.0]]))

    def test_strictly_below_frobenius(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            A = RowAccessMatrix(rng.standard_normal((int(rng.integers(2, 20)), 4)) + 0.1)
            assert gamma_leaveout(A) < A.frobenius_sq


class TestGrkBounds:
    def test_first_step_factors_agree(self):
        exp, det = grk_bounds(1.0, 5.0, 4.0, k=1)
        assert exp == det == pytest.approx(1.0 - 1.0 / 5.0)

    def test_hand_example_k2(self):
        exp, det = grk_bounds(1.0, 5.0, 4.0, k=2)
        assert det == pytest.approx(0.6, rel=1e-12)
        assert exp == pytest.approx(0.62, rel=1e-12)

    def test_sigma_equals_gamma_collapses(self):
        _, det = grk_bounds(1.0, 5.0, 1.0, k=2)
        assert det == 0.0
        _, det3 = grk_bounds(1.0, 5.0, 1.0, k=7)
        assert det3 == 0.0

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError):
            grk_bounds(2.0, 5.0, 1.0, k=1)  # sigma^2 > gamma
        with pytest.raises(ValueError):
            grk_bounds(1.0, 4.0, 4.0, k=1)  # gamma not below frob
        with pytest.raises(ValueError):
            grk_bounds(0.0, 5.0, 4.0, k=1)

    def test_deterministic_never_above_expectation(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            frob = float(rng.uniform(1.0, 100.0))
            gamma = float(rng.uniform(0.1, 0.999)) * frob
            sigma = float(rng.uniform(0.0, 1.0)) * gamma
            if sigma <= 0.0:
                continue
            for k in (1, 2, 5, 20):
                exp, det = grk_bounds(sigma, frob, gamma, k)
                assert det <= exp + 1e-15


class TestRateReport:
    def test_factor_ordering_random_triples(self):
        # The tight per-step factor beats the averaged one whenever gamma < frob.
        rng = np.random.default_rng(47)
        for _ in range(1000):
            frob = float(rng.uniform(0.5, 200.0))
            gamma = float(rng.uniform(0.05, 0.999)) * frob
            sigma = float(rng.uniform(1e-6, 1.0)) * gamma
            tight = 1.0 - sigma / gamma
            averaged = 1.0 - 0.5 * (frob / gamma + 1.0) * sigma / frob
            assert tight < averaged

    def test_report_fields(self):
        report = rate_report(DIAG)
        assert report.sigma_min_sq == pytest.approx(1.0)
        assert report.frob_sq == 5.0
        assert report.gamma_leaveout == 4.0
        assert report.igrk_factor == pytest.approx(0.75)
        assert report.first_step_factor == pytest.approx(0.8)
        assert report.grk_expectation_factor == pytest.approx(1 - 0.5 * (5 / 4 + 1) / 5)
        assert 0.0 <= report.igrk_factor <= report.grk_expectation_factor < 1.0

    def test_rank_one_matrix_is_refused(self):
        # sigma^2 = ||A||_F^2 = 12 exceeds the leave-one-out mass 10, where the
        # pathwise factor 1 - sigma^2/gamma would read -0.2.
        A = RowAccessMatrix([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert gamma_leaveout(A) == 10.0
        with pytest.raises(ValueError, match="sigma_min_sq <= gamma < frob_sq"):
            rate_report(A)
        with pytest.raises(ValueError, match="sigma_min_sq <= gamma < frob_sq"):
            grk_bounds(smallest_nonzero_singular_value(A) ** 2, A.frobenius_sq, 10.0, k=2)

    def test_bound_curve(self):
        report = rate_report(DIAG)
        bounds = [grk_bounds(report.sigma_min_sq, report.frob_sq, report.gamma_leaveout, k)
                  for k in (0, 1, 2)]
        np.testing.assert_allclose([det for _, det in bounds], [1.0, 0.8, 0.6], rtol=1e-12)
        assert bounds[2][0] == pytest.approx(0.62, rel=1e-12)
        # The k = 2 bounds are the report's per-step factors times the first step's.
        assert bounds[2] == (report.grk_expectation_factor * report.first_step_factor,
                             report.igrk_factor * report.first_step_factor)


class TestMomentumFactors:
    def test_beta_zero_exact_collapse(self):
        # gamma1 = 1 - (2*1 - 1^2) * 0.2 = 0.8 by direct substitution.
        rep = momentum_factors(1.0, 0.0, 1.0, 5.0)
        assert rep.gamma1 == pytest.approx(0.8, rel=1e-12)
        assert rep.gamma2 == 0.0
        assert rep.q == rep.gamma1  # exact, no square root involved
        assert rep.delta == 0.0
        assert rep.feasible

    def test_infeasible_beta(self):
        rep = momentum_factors(1.0, 0.1, 1.0, 5.0)
        assert rep.gamma1 == pytest.approx(1.06, rel=1e-12)
        assert rep.gamma2 == pytest.approx(0.12, rel=1e-12)
        assert not rep.feasible

    def test_feasible_beta_hand_value(self):
        rep = momentum_factors(1.0, 0.05, 1.0, 5.0)
        assert rep.gamma1 == pytest.approx(0.925, rel=1e-12)
        assert rep.gamma2 == pytest.approx(0.055, rel=1e-12)
        assert rep.feasible
        assert rep.q == pytest.approx(0.9810617128172885, rel=1e-9)
        assert rep.gamma1 + rep.gamma2 <= rep.q < 1.0
        assert rep.delta == pytest.approx(rep.q - rep.gamma1)

    def test_alpha_hypotheses(self):
        with pytest.raises(ValueError):
            momentum_factors(2.0, 0.0, 1.0, 5.0)  # alpha must be < 2 when beta = 0
        momentum_factors(1.9, 0.0, 1.0, 5.0)
        with pytest.raises(ValueError):
            momentum_factors(1.2, 0.1, 1.0, 5.0)  # alpha must be < 1 + beta
        momentum_factors(1.05, 0.1, 1.0, 5.0)

    def test_sigma_above_frobenius_is_refused(self):
        # sigma^2 <= ||A||_F^2 always; here rounding gives 12.000000000000005 > 12,
        # which read gamma1 = -4.4e-16 with feasible=True.
        A = RowAccessMatrix([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        sigma_sq = smallest_nonzero_singular_value(A) ** 2
        assert sigma_sq > A.frobenius_sq == 12.0
        with pytest.raises(ValueError, match="sigma_min_sq <= frob_sq"):
            momentum_factors(1.0, 0.0, sigma_sq, A.frobenius_sq)
        with pytest.raises(ValueError, match="sigma_min_sq <= frob_sq"):
            beta_upper(1.0, sigma_sq, A.frobenius_sq)
        trace = run(Problem(A, [1.0, 1.0, 2.0], x_star=[0.5, 0.5]),
                    SolverConfig(variant="mgrk", beta=0.1, seed=0))
        with pytest.raises(ValueError, match="sigma_min_sq <= frob_sq"):
            certify_trace(trace, sigma_sq)

    def test_sum_is_nondecreasing_in_beta(self):
        for alpha in (0.5, 1.0):
            for ratio in (0.05, 0.2):
                bound = beta_upper(alpha, ratio, 1.0)
                betas = np.linspace(0.0, bound * 0.999, 60)
                sums = [momentum_factors(alpha, b, ratio, 1.0).gamma1
                        + momentum_factors(alpha, b, ratio, 1.0).gamma2 for b in betas]
                assert np.all(np.diff(sums) >= -1e-15)

    def test_q_lower_bounded_by_beta_zero_rate(self):
        # q(beta) >= gamma1 + gamma2 >= q(0) on the feasible range.
        alpha, sigma_sq, frob = 1.0, 1.0, 5.0
        q0 = momentum_factors(alpha, 0.0, sigma_sq, frob).q
        bound = beta_upper(alpha, sigma_sq, frob)
        for b in np.linspace(0.0, bound * 0.99, 25):
            rep = momentum_factors(alpha, b, sigma_sq, frob)
            assert rep.q >= q0 - 1e-15


class TestBetaUpper:
    def test_vanishing_ratio_limit(self):
        assert beta_upper(1.0, 1e-12, 1.0) == pytest.approx(0.0, abs=1e-11)

    def test_hand_value(self):
        assert beta_upper(1.0, 1.0, 5.0) == pytest.approx(0.05523431780746363, rel=1e-9)

    def test_round_trip_feasibility(self):
        for sigma_sq, frob in ((1.0, 5.0), (0.3, 11.0), (2.0, 7.5)):
            bound = beta_upper(1.0, sigma_sq, frob)
            assert momentum_factors(1.0, 0.9 * bound, sigma_sq, frob).feasible
            assert not momentum_factors(1.0, 1.1 * bound, sigma_sq, frob).feasible

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            beta_upper(1.5, 1.0, 5.0)
        with pytest.raises(ValueError):
            beta_upper(0.0, 1.0, 5.0)


class TestIterationComplexity:
    def test_hand_example(self):
        rep = iteration_complexity(1.0, 5.0, 5.0, 5e-12, 0.5)
        assert rep.K2 == pytest.approx(138.15510557964274, rel=1e-9)
        assert rep.K1 == pytest.approx(141.62084148244247, rel=1e-9)

    def test_rho_to_one_closes_gap(self):
        rep = iteration_complexity(1.0, 5.0, 1.0, 1e-8, 1 - 1e-12)
        assert rep.K1 == pytest.approx(rep.K2, rel=1e-9)

    def test_unit_logs(self):
        rep = iteration_complexity(1.0, 5.0, 1.0, math.exp(-1.0), math.exp(-1.0))
        assert rep.K2 == pytest.approx(5.0, rel=1e-12)
        assert rep.K1 == pytest.approx(10.0, rel=1e-12)

    def test_k2_never_exceeds_k1(self):
        for rho in (0.1, 0.5, 0.9, 0.999):
            rep = iteration_complexity(0.7, 9.0, 3.0, 1e-9, rho)
            assert rep.K2 <= rep.K1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            iteration_complexity(1.0, 5.0, 1.0, 2.0, 0.5)  # epsilon >= err0
        with pytest.raises(ValueError):
            iteration_complexity(1.0, 5.0, 1.0, 1e-3, 1.0)  # rho not in (0, 1)


class TestCertifyTrace:
    def _hand_trace(self):
        problem = Problem(DIAG, [1.0, 4.0], x_star=[1.0, 2.0])
        return run(problem, SolverConfig(variant="grk", seed=0))

    def test_hand_trace_passes(self):
        result = certify_trace(self._hand_trace(), sigma_min_sq=1.0)
        assert result.passed and result.first_violation is None
        assert result.checked == 2 and result.mode == "per_step"

    def test_zero_iteration_trace_passes_vacuously(self):
        # x* = 0, so the run from zero stops before its first step.
        problem = Problem(DIAG, [0.0, 0.0], x_star=[0.0, 0.0])
        trace = run(problem, SolverConfig(variant="grk"))
        result = certify_trace(trace, sigma_min_sq=1.0)
        assert result.passed and result.checked == 0

    def test_nonzero_start_refused(self):
        # A rank-6 problem: a random x0 leaves x0 - x* outside Range(A^T), and
        # the genuine run then "violates" the bound at step 2.
        problem = gen_random_problem(RandomProblemSpec(m=60, n=10, r=6, seed=1))
        sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
        x0 = np.random.default_rng(0).standard_normal(10)
        trace = run(problem, SolverConfig(variant="grk", seed=1), x0=x0)
        assert (trace.termination, trace.iterations, trace.zero_start) == ("converged", 66, False)
        assert certify_trace(replace(trace, zero_start=True), sigma_sq).first_violation == 2
        for start in (False, None):
            with pytest.raises(ValueError, match=r"x0 - x\* in Range\(A\^T\)"):
                certify_trace(replace(trace, zero_start=start), sigma_sq)
        # Even a start at x* itself, where no step runs, is refused.
        at_star = run(Problem(DIAG, [1.0, 4.0], x_star=[1.0, 2.0]), SolverConfig(variant="grk"),
                      x0=[1.0, 2.0])
        assert at_star.iterations == 0 and at_star.zero_start is False
        with pytest.raises(ValueError, match="nonzero x0"):
            certify_trace(at_star, sigma_min_sq=1.0)

    def test_zero_start_recorded(self):
        problem = gen_random_problem(RandomProblemSpec(m=60, n=10, r=6, seed=1))
        config = SolverConfig(variant="grk", seed=1)
        # An explicit zero x0, -0.0 included, is a zero start.
        for x0 in (None, np.zeros(10), -np.zeros(10)):
            trace = run(problem, config, x0=x0)
            assert trace.zero_start is True
            assert certify_trace(trace, smallest_nonzero_singular_value(problem.A) ** 2).passed

    def test_corrupted_trace_reports_violation_index(self):
        rng = np.random.default_rng(53)
        mat = rng.standard_normal((20, 6))
        A = RowAccessMatrix(mat)
        b = mat @ rng.standard_normal(6)
        from kaczmarz.linalg import min_norm_solution, smallest_nonzero_singular_value

        problem = Problem(A, b, x_star=min_norm_solution(A, b))
        trace = run(problem, SolverConfig(variant="grk", seed=1, max_iters=50))
        sigma_sq = smallest_nonzero_singular_value(A) ** 2
        assert certify_trace(trace, sigma_sq).passed
        trace.err_sq[3] = trace.initial_err_sq * 10.0
        result = certify_trace(trace, sigma_sq)
        assert not result.passed
        assert result.first_violation == 3

    def test_missing_error_metric_rejected(self):
        problem = Problem(DIAG, [1.0, 4.0])  # no x_star
        trace = run(problem, SolverConfig(variant="grk", seed=0))
        with pytest.raises(ValueError, match="error metric"):
            certify_trace(trace, sigma_min_sq=1.0)

    # With momentum, a cyclic trace was held to the greedy momentum envelope and
    # reported a violation instead of being refused.
    @pytest.mark.parametrize("variant", ["rk", "cyclic"])
    @pytest.mark.parametrize("beta", [0.0, 0.001])
    def test_non_greedy_trace_rejected(self, variant, beta):
        problem = gen_random_problem(RandomProblemSpec(m=100, n=5, r=5, kappa=1.5, seed=0))
        trace = run(problem, SolverConfig(variant=variant, beta=beta, seed=0))
        sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
        assert beta < beta_upper(1.0, sigma_sq, problem.A.frobenius_sq)
        with pytest.raises(ValueError, match="no gamma"):
            certify_trace(trace, sigma_sq)

    def test_infeasible_momentum_rejected(self):
        problem = Problem(DIAG, [1.0, 4.0], x_star=[1.0, 2.0])
        trace = run(problem, SolverConfig(variant="mgrk", beta=0.9, seed=0, max_iters=500))
        with pytest.raises(ValueError, match="infeasible"):
            certify_trace(trace, sigma_min_sq=1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relaxed_steps_certify(self, seed):
        problem = gen_random_problem(RandomProblemSpec(m=200, n=40, r=40, kappa=3.0, seed=0))
        sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
        trace = run(problem, SolverConfig(variant="grk", alpha=0.1, seed=seed))
        assert trace.termination == "rse_tol"
        assert certify_trace(trace, sigma_sq).passed
        # The unrelaxed factor 1 - sigma^2/gamma_k does not hold for these steps.
        unrelaxed = replace(trace, config=replace(trace.config, alpha=1.0))
        assert not certify_trace(unrelaxed, sigma_sq).passed

    def test_step_size_outside_proven_range_refused(self):
        problem = gen_random_problem(RandomProblemSpec(m=200, n=40, r=40, kappa=3.0, seed=0))
        trace = run(problem, SolverConfig(variant="grk", alpha=2.5, seed=0, max_iters=300))
        with pytest.raises(ValueError, match="alpha"):
            certify_trace(trace, sigma_min_sq=1.0)

    def test_benchmark_momentum_lies_outside_the_proven_range(self):
        # The dense-multitrial benchmark matrix and its mgrk setting, beta = 0.4.
        problem = gen_random_problem(RandomProblemSpec(m=1000, n=100, r=100, kappa=10.0, seed=0))
        sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
        bound = beta_upper(1.0, sigma_sq, problem.A.frobenius_sq)
        assert bound == pytest.approx(1.0999e-4, rel=1e-3)
        assert not momentum_factors(1.0, 0.4, sigma_sq, problem.A.frobenius_sq).feasible
        trace = run(problem, SolverConfig(variant="mgrk", beta=0.4, seed=1))
        assert trace.termination == "rse_tol"
        with pytest.raises(ValueError, match=f"beta = 0.4 is not below beta_upper = {bound:.6g}$"):
            certify_trace(trace, sigma_sq)

    @staticmethod
    def _fifty_grk_steps():
        problem = gen_random_problem(RandomProblemSpec(m=60, n=10, r=10, seed=1))
        trace = run(problem, SolverConfig(variant="grk", seed=1, max_iters=50))
        assert certify_trace(trace, 1.0).passed
        return trace

    # This test's traces, and those of the next two, were once certified.
    def test_nan_error_is_a_violation(self):
        trace = self._fifty_grk_steps()
        trace.err_sq[10] = math.nan
        trace.err_sq[11] = 1e6 * trace.initial_err_sq
        assert certify_trace(trace, 1.0) == CertificationResult(False, 10, 50, "per_step")
        momentum = replace(_MGRK_TRACE, err_sq=_MGRK_TRACE.err_sq.copy())
        momentum.err_sq[3] = math.nan
        assert certify_trace(momentum, 1.0) == CertificationResult(
            False, 3, momentum.iterations, "envelope")

    @pytest.mark.parametrize("err0", [math.inf, math.nan, -1.0])
    def test_bad_initial_error_is_refused(self, err0):
        trace = replace(self._fifty_grk_steps(), initial_err_sq=err0)
        with pytest.raises(ValueError, match="initial_err_sq must be finite and nonnegative"):
            certify_trace(trace, 1.0)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_gamma_is_refused(self, gamma):
        trace = self._fifty_grk_steps()
        trace.err_sq[:] = trace.initial_err_sq * 1.5 ** np.arange(1, 51)
        trace.gamma[:] = gamma
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            certify_trace(trace, 1.0)

    # A gamma of 1e300 makes each per-step factor 1, so a trace whose error
    # never falls was once certified.  A genuine trace's largest gamma is
    # ||A||_F^2 itself, and a gamma a rounding step above it is kept.
    @pytest.mark.parametrize("gamma_mode", ["exact", "lastrow", "frobenius"])
    def test_gamma_above_the_frobenius_mass_is_refused(self, gamma_mode):
        problem = gen_random_problem(RandomProblemSpec(m=60, n=10, r=10, seed=1))
        trace = run(problem, SolverConfig(variant="grk", gamma_mode=gamma_mode, seed=1))
        frob, sigma_sq = trace.frobenius_sq, smallest_nonzero_singular_value(problem.A) ** 2
        assert trace.gamma.max() == frob
        assert certify_trace(trace, sigma_sq).passed
        trace.gamma[0] = np.nextafter(frob, math.inf)
        assert certify_trace(trace, sigma_sq).passed
        trace.err_sq[:] = trace.initial_err_sq
        for gamma in (frob * (1.0 + 1e-11), 1e300):
            trace.gamma[:] = gamma
            with pytest.raises(ValueError, match=r"exceeds the recorded \|\|A\|\|_F\^2, "
                                                 r".*, by more than a relative 1e-12"):
                certify_trace(trace, sigma_sq)

    def test_envelope_is_the_scalar_bound_at_every_step(self):
        report = momentum_factors(1.0, 0.05, 1.0, _MGRK_TRACE.frobenius_sq)
        err0 = _MGRK_TRACE.initial_err_sq
        slack = CERT_SLACK_SCALE * err0
        edge = [report.envelope(k, err0) + slack for k in range(_MGRK_TRACE.iterations)]
        assert certify_trace(replace(_MGRK_TRACE, err_sq=np.array(edge)), 1.0).passed
        for k in range(len(edge)):
            above = np.array(edge)
            above[k] = np.nextafter(above[k], math.inf)
            result = certify_trace(replace(_MGRK_TRACE, err_sq=above), 1.0)
            assert result.first_violation == k

    def test_over_relaxed_momentum_refusal_names_no_beta_upper(self):
        problem = Problem(DIAG, [1.0, 4.0], x_star=[1.0, 2.0])
        trace = run(problem, SolverConfig(variant="mgrk", alpha=1.5, beta=0.9, seed=0,
                                          max_iters=50))
        with pytest.raises(ValueError, match="no envelope to certify against$"):
            certify_trace(trace, sigma_min_sq=1.0)


def _stub_matrix(frob_sq):
    """What rate_report reads of a matrix, with any Frobenius mass."""
    return SimpleNamespace(m=2, frobenius_sq=frob_sq, row_norms_sq=np.array([1.0, 1.0]))


_HAND = Problem(DIAG, [1.0, 4.0], x_star=[1.0, 2.0])
_GRK_TRACE = run(_HAND, SolverConfig(variant="grk", seed=0))
_MGRK_TRACE = run(_HAND, SolverConfig(variant="mgrk", beta=0.05, seed=0, max_iters=200))

# Every analysis entry point as a function of (sigma_min_sq, frob_sq); sigma = 1,
# frob = 5 is valid for each.
ENTRY_POINTS = {
    "grk_bounds": lambda s, f: grk_bounds(s, f, 4.0, 3),
    "rate_report": lambda s, f: rate_report(_stub_matrix(f), s),
    "momentum_factors": lambda s, f: momentum_factors(1.0, 0.05, s, f),
    "beta_upper": lambda s, f: beta_upper(1.0, s, f),
    "iteration_complexity": lambda s, f: iteration_complexity(s, f, 1.0, 1e-3, 0.5),
    "certify_trace per_step": lambda s, f: certify_trace(replace(_GRK_TRACE, frobenius_sq=f), s),
    "certify_trace envelope": lambda s, f: certify_trace(replace(_MGRK_TRACE, frobenius_sq=f), s),
}
BAD_SPECTRA = [math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_valid_spectrum_accepted(entry):
    ENTRY_POINTS[entry](1.0, 5.0)


@pytest.mark.parametrize("quantity", ["sigma_min_sq", "frob_sq"])
@pytest.mark.parametrize("value", BAD_SPECTRA)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_invalid_spectrum_refused(entry, value, quantity):
    args = {"sigma_min_sq": 1.0, "frob_sq": 5.0, quantity: value}
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](args["sigma_min_sq"], args["frob_sq"])
