import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kaczmarz
from kaczmarz.linalg import RowAccessMatrix
from kaczmarz.selection import (
    GammaMode,
    GreedyCertificateError,
    ProbabilityRule,
    active_set_gamma,
    greedy_set,
    sample_index,
    sampling_distribution,
)

DIAG = RowAccessMatrix([[1.0, 0.0], [0.0, 2.0]])
EYE2 = RowAccessMatrix(np.eye(2))


def gamma_of(A, r, mode, last_index=None, tau_res=0.0):
    return active_set_gamma(A, mode, np.abs(r) > tau_res, last_index)


def select(A, r, gamma, theta=0.5):
    """greedy_set on the scores and ||r||^2 of residual ``r``."""
    r = np.asarray(r, dtype=np.float64)
    return greedy_set(A, (r * r) / A.row_norms_sq, float(r @ r), gamma, theta)


class TestActiveSetGamma:
    def test_exact_all_active(self):
        assert gamma_of(DIAG, np.array([-1.0, -4.0]), GammaMode.EXACT) == 5.0

    def test_exact_one_active(self):
        assert gamma_of(DIAG, np.array([-1.0, 0.0]), GammaMode.EXACT) == 1.0

    def test_frobenius_ignores_residual(self):
        for r in ([-1.0, -4.0], [0.5, 0.0], [1e-30, 1e-30]):
            assert gamma_of(DIAG, np.array(r), GammaMode.FROBENIUS) == 5.0
        assert active_set_gamma(DIAG, GammaMode.FROBENIUS) == 5.0

    def test_last_row_mode(self):
        assert active_set_gamma(DIAG, GammaMode.LAST_ROW, last_index=None) == 5.0
        assert active_set_gamma(DIAG, GammaMode.LAST_ROW, last_index=1) == 1.0

    def test_exact_quiet_residual_signals_converged(self):
        gamma = gamma_of(DIAG, np.array([1e-16, -1e-16]), GammaMode.EXACT, tau_res=1e-14)
        assert gamma == 0.0

    def test_tau_res_filters_noise(self):
        gamma = gamma_of(DIAG, np.array([-1.0, 1e-15]), GammaMode.EXACT, tau_res=1e-14)
        assert gamma == 1.0

    def test_exact_mode_needs_a_row_mask(self):
        with pytest.raises(ValueError, match="mask"):
            active_set_gamma(DIAG, GammaMode.EXACT)
        with pytest.raises(ValueError, match="mask"):
            active_set_gamma(DIAG, GammaMode.EXACT, np.ones(3, dtype=bool))

    def test_exact_mode_refuses_an_integer_mask(self):
        # An integer 0/1 array would index rows 1, 0 and 0 and give 6.0, not 1.0.
        diag3 = RowAccessMatrix(np.diag([1.0, 2.0, 3.0]))
        assert active_set_gamma(diag3, GammaMode.EXACT, np.array([True, False, False])) == 1.0
        with pytest.raises(ValueError, match="boolean row mask"):
            active_set_gamma(diag3, GammaMode.EXACT, np.array([1, 0, 0]))
        with pytest.raises(ValueError, match="boolean row mask"):
            active_set_gamma(diag3, GammaMode.EXACT, [True, False, False])

    def test_last_row_mode_sums_the_rest_beside_a_dominant_row(self):
        # 8.9e7 + 1.19 - 8.9e7 keeps only about 8 digits of 1.19.
        A = RowAccessMatrix([[np.sqrt(8.9e7), 0.0], [0.0, np.sqrt(1.19)]])
        assert A.frobenius_sq - A.row_norms_sq[0] != A.row_norms_sq[1]
        assert active_set_gamma(A, GammaMode.LAST_ROW, last_index=0) == A.row_norms_sq[1]
        assert active_set_gamma(A, GammaMode.LAST_ROW, last_index=1) == \
            A.frobenius_sq - A.row_norms_sq[1]


class TestGreedySet:
    def test_hand_threshold_selects_heavy_row(self):
        # scores (1, 4); threshold 0.5*(4 + 17/5) = 3.7 keeps only row 1.
        assert list(select(DIAG, [-1.0, -4.0], gamma=5.0, theta=0.5)) == [1]

    def test_symmetric_rows_both_kept(self):
        assert list(select(EYE2, [-1.0, -1.0], gamma=2.0, theta=0.5)) == [0, 1]

    def test_theta_one_keeps_argmax_only(self):
        assert list(select(EYE2, [-1.0, -2.0], gamma=2.0, theta=1.0)) == [1]

    def test_zero_residual_rejected(self):
        with pytest.raises(ValueError, match="already solved"):
            select(DIAG, np.zeros(2), gamma=5.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            select(DIAG, [-1.0, -4.0], gamma=0.0)

    def test_gamma_below_active_mass_raises_typed_error(self):
        # Scores are [1, 8] and ||r||^2 = 17: with gamma = 1 no row reaches 17.
        # At theta = 0 the threshold is 17 itself, and only the best row is kept.
        for theta in (0.0, 0.5, 1.0):
            with pytest.raises(GreedyCertificateError, match="certificate"):
                select(DIAG, [-1.0, -4.0], gamma=1.0, theta=theta)

    def test_overflowing_residual_raises_typed_error(self):
        # Each r_i^2 is finite but ||r||^2 overflows, as in a diverging run.
        with np.errstate(over="ignore"):
            with pytest.raises(GreedyCertificateError):
                select(DIAG, [1.0e154, 1.3e154], gamma=5.0)

    @pytest.mark.parametrize("theta", [-0.1, 1.5, float("nan")])
    def test_theta_outside_the_unit_interval_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must lie in"):
            select(DIAG, [-1.0, -4.0], gamma=5.0, theta=theta)

    def test_scores_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="scores have length 3, expected 2"):
            greedy_set(DIAG, np.ones(3), 3.0, 5.0)

    def test_residual_with_infinite_squares_rejected(self):
        # Every r_i^2 is inf, so every score would clear an inf threshold.
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                select(DIAG, [1e200, 3e200], gamma=5.0)

    def test_certificate_check_survives_optimize_flag(self):
        code = ("import numpy as np\n"
                "from kaczmarz.linalg import RowAccessMatrix\n"
                "from kaczmarz.selection import GreedyCertificateError, greedy_set\n"
                "A = RowAccessMatrix([[1.0, 0.0], [0.0, 2.0]])\n"
                "try:\n"
                "    greedy_set(A, np.array([1.0, 8.0]), 17.0, gamma=1.0)\n"
                "except GreedyCertificateError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(3)\n")
        src = str(Path(kaczmarz.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert proc.returncode == 0

    def test_argmax_always_member(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m, n = int(rng.integers(2, 30)), int(rng.integers(2, 10))
            A = RowAccessMatrix(rng.standard_normal((m, n)) + 0.1)
            r = rng.standard_normal(m)
            theta = float(rng.uniform())
            gamma = A.frobenius_sq
            indices = select(A, r, gamma, theta)
            scores = r**2 / A.row_norms_sq
            assert len(indices) >= 1
            assert int(np.argmax(scores)) in indices

    def test_members_clear_mean_level_certificate(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            m = int(rng.integers(2, 40))
            A = RowAccessMatrix(rng.standard_normal((m, 5)) + 0.05)
            r = rng.standard_normal(m)
            gamma = gamma_of(A, r, GammaMode.EXACT)
            indices = select(A, r, gamma, theta=0.5)
            scores = r**2 / A.row_norms_sq
            level = float(r @ r) / gamma
            assert np.all(scores[indices] >= level * (1.0 - 1e-9))

    def test_scaling_covariance(self):
        # Replacing (A, b) by (cA, cb) scales every ratio identically.
        rng = np.random.default_rng(31)
        for c in (2.0, -3.0, 1e-3, 1e4):
            mat = rng.standard_normal((12, 4))
            x = rng.standard_normal(4)
            b = rng.standard_normal(12)
            A1, A2 = RowAccessMatrix(mat), RowAccessMatrix(c * mat)
            r1 = mat @ x - b
            r2 = c * mat @ x - c * b
            g1 = gamma_of(A1, r1, GammaMode.EXACT)
            g2 = gamma_of(A2, r2, GammaMode.EXACT)
            assert list(select(A1, r1, g1)) == list(select(A2, r2, g2))


class TestSamplingDistribution:
    def test_singleton(self):
        for rule in ProbabilityRule:
            probs = sampling_distribution(np.array([-1.0, -4.0]), np.array([1]), rule)
            np.testing.assert_allclose(probs, [1.0])

    def test_symmetric_residuals(self):
        probs = sampling_distribution(
            np.array([-1.0, -1.0]), np.array([0, 1]), ProbabilityRule.RESIDUAL)
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_residual_proportional(self):
        probs = sampling_distribution(
            np.array([-1.0, -2.0]), np.array([0, 1]), ProbabilityRule.RESIDUAL)
        np.testing.assert_allclose(probs, [0.2, 0.8])

    def test_uniform(self):
        probs = sampling_distribution(
            np.array([-1.0, -2.0, 5.0]), np.array([0, 1, 2]), ProbabilityRule.UNIFORM)
        np.testing.assert_allclose(probs, [1 / 3] * 3)

    @pytest.mark.parametrize("rule", list(ProbabilityRule))
    def test_empty_working_set_rejected(self, rule):
        with pytest.raises(ValueError, match="working set is empty"):
            sampling_distribution(np.array([-1.0, -4.0]), np.array([], dtype=np.intp), rule)

    def test_all_zero_residuals_rejected(self):
        with pytest.raises(ValueError, match="all working-set residuals are zero"):
            sampling_distribution(np.array([0.0, -4.0, 0.0]), np.array([0, 2]),
                                  ProbabilityRule.RESIDUAL)

    def test_sums_to_one(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            m = int(rng.integers(1, 50))
            r = rng.standard_normal(m) + 0.01
            probs = sampling_distribution(r, np.arange(m), ProbabilityRule.RESIDUAL)
            assert abs(probs.sum() - 1.0) <= 1e-15


class TestSampleIndex:
    def test_singleton_any_seed(self):
        for seed in range(5):
            assert sample_index(np.array([1.0]), np.random.default_rng(seed)) == 0

    def test_reproducible(self):
        draws1 = [sample_index(np.array([0.5, 0.5]), rng)
                  for rng in [np.random.default_rng(99)] for _ in range(50)]
        draws2 = [sample_index(np.array([0.5, 0.5]), rng)
                  for rng in [np.random.default_rng(99)] for _ in range(50)]
        assert draws1 == draws2

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(123)
        probs = np.array([0.2, 0.8])
        hits = sum(sample_index(probs, rng) == 1 for _ in range(100_000))
        assert 0.79 <= hits / 100_000 <= 0.81

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_index(np.array([]), np.random.default_rng(0))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            sample_index(np.array([0.2, 0.2]), np.random.default_rng(0))

    def test_nan_probabilities_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            sample_index(np.array([np.nan, np.nan]), np.random.default_rng(0))
