import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kaczmarz import solvers
from kaczmarz.analysis import certify_trace
from kaczmarz.harness import (
    RandomProblemSpec,
    gen_random_problem,
    load_problem,
    read_trace_csv,
    write_trace_csv,
)
from kaczmarz.linalg import (
    Problem,
    RowAccessMatrix,
    min_norm_solution,
    smallest_nonzero_singular_value,
)
from kaczmarz.selection import GammaMode
from kaczmarz.solvers import (
    _LOCKSTEP_TRIALS,
    _RK_BLOCK,
    REFRESH_EVERY,
    SolverConfig,
    SolverVariant,
    Trace,
    run,
)
from trace_checks import assert_same_steps

DIAG_PROBLEM = Problem(
    RowAccessMatrix([[1.0, 0.0], [0.0, 2.0]]), [1.0, 4.0], x_star=[1.0, 2.0])


def random_problem(m, n, rank=None, seed=0, kappa=10.0):
    rng = np.random.default_rng(seed)
    rank = rank or n
    u, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    d = 1.0 + (kappa - 1.0) * rng.uniform(size=rank)
    mat = (u * d) @ v.T
    A = RowAccessMatrix(mat)
    b = mat @ rng.standard_normal(n)
    return Problem(A, b, x_star=min_norm_solution(A, b))


class TestConfig:
    def test_defaults_resolve_per_variant(self):
        # Every construction holds a member; None resolves per variant.
        for variant in SolverVariant:
            default = "frobenius" if variant is SolverVariant.MGRK else "exact"
            for mode in (None, *GammaMode, *(g.value for g in GammaMode)):
                config = SolverConfig(variant=variant, gamma_mode=mode)
                assert config.gamma_mode is GammaMode(mode or default)
        # replace keeps the resolved mode unless None is passed again.
        grk = SolverConfig(variant="grk")
        assert replace(grk, variant="mgrk").gamma_mode is GammaMode.EXACT
        assert replace(grk, variant="mgrk", gamma_mode=None).gamma_mode is GammaMode.FROBENIUS

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(beta=-0.1)
        # run passes theta and the enum members to the selection functions
        # unchecked, so the config is the one place that refuses bad values.
        for theta in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="theta must lie in"):
                SolverConfig(theta=theta)
        for bad in ({"gamma_mode": "bogus"}, {"prob_rule": "bogus"}):
            with pytest.raises(ValueError, match="bogus"):
                SolverConfig(**bad)
        with pytest.raises(ValueError):
            SolverConfig(variant="grk", beta=0.5)
        SolverConfig(variant="mgrk", beta=0.5)  # momentum variant allows it
        # A bool once passed as 0 or 1, so JSON true loaded as seed 1.
        for bad in ({"seed": -1}, {"seed": 1.5}, {"seed": True}, {"max_iters": 10.5},
                    {"max_iters": 0}, {"max_iters": True}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                SolverConfig(**bad)
        # numpy integers are stored as int, which the trace metadata's JSON takes.
        config = SolverConfig(seed=np.int64(3), max_iters=np.uint8(7))
        assert (type(config.seed), type(config.max_iters)) == (int, int)

    @pytest.mark.parametrize("rows, b, x_star", [
        ([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0], [1.0]),
        ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0], [1.0, 1.0]),
    ])
    def test_lastrow_needs_exact_projection(self, rows, b, x_star):
        # On these systems a relaxed lastrow run put gamma below the active-set mass.
        with pytest.raises(ValueError, match="lastrow"):
            SolverConfig(variant="grk", alpha=0.5, gamma_mode="lastrow")
        with pytest.raises(ValueError, match="lastrow"):
            SolverConfig(variant="mgrk", beta=0.1, gamma_mode="lastrow")
        problem = Problem(RowAccessMatrix(rows), b, x_star=x_star)
        trace = run(problem, SolverConfig(variant="grk", gamma_mode="lastrow"))
        assert trace.termination == "rse_tol"
        sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
        assert certify_trace(trace, sigma_sq).passed


def err_history(trace):
    """Squared errors [initial, after step 0, after step 1, ...]."""
    return np.concatenate(([trace.initial_err_sq], trace.err_sq))


def row_residual_after(problem, i, x):
    """|<a_i, x> - b_i| for the row a step projected onto and the iterate after it."""
    return abs(problem.A.row_dot(i, x) - problem.b[i])


def project(x, a_i, b_i, alpha=1.0, known=False):
    """One cyclic step from x on the system <a_i, x> = b_i; x itself when it
    already lies on the hyperplane.  With x* known the step reads r_i from the
    row, without it from the kept residual."""
    A = RowAccessMatrix([a_i])
    problem = Problem(A, [b_i], x_star=min_norm_solution(A, [b_i]) if known else None)
    trace = run(problem, SolverConfig(variant="cyclic", alpha=alpha, max_iters=1),
                x0=np.asarray(x, dtype=float), capture_iterates=True)
    return trace.iterates[-1]


KNOWN = pytest.mark.parametrize("known", [True, False], ids=["row-dot", "residual"])


@KNOWN
class TestKaczmarzProject:
    def test_full_step_lands_on_hyperplane(self, known):
        out = project(np.zeros(2), [0.0, 2.0], 4.0, known=known)
        np.testing.assert_allclose(out, [0.0, 2.0])

    def test_point_on_hyperplane_unchanged(self, known):
        x = np.array([3.0, 2.0])
        out = project(x, [0.0, 2.0], 4.0, known=known)
        np.testing.assert_allclose(out, x)

    def test_half_step(self, known):
        out = project(np.zeros(2), [1.0, 0.0], 1.0, alpha=0.5, known=known)
        np.testing.assert_allclose(out, [0.5, 0.0])


def cyclic_run(rows, b, beta=0.0, alpha=1.0, x0=None, known=False, max_iters=2):
    """A cyclic run on rows x = b that captures its iterates, one step per row in turn."""
    A = RowAccessMatrix(rows)
    problem = Problem(A, b, x_star=min_norm_solution(A, b) if known else None)
    config = SolverConfig(variant="cyclic", alpha=alpha, beta=beta, max_iters=max_iters,
                          rse_tol=1e-300)
    return run(problem, config, x0=x0, capture_iterates=True)


@KNOWN
class TestMomentumStep:
    def test_beta_zero_matches_projection(self, known):
        # The second step, where a momentum term would first be nonzero, is the
        # plain projection of the first step's iterate.
        trace = cyclic_run([[1.0, 2.0], [3.0, -1.0]], [0.7, 2.0],
                                x0=np.array([0.3, -1.2]), known=known)
        np.testing.assert_allclose(trace.iterates[2],
                                   project(trace.iterates[1], [3.0, -1.0], 2.0),
                                   rtol=1e-15, atol=1e-15)

    def test_hand_example(self, known):
        # Step 0 projects [0, 0] onto x_2 = 2; step 1 adds 0.3 * ([0, 2] - [0, 0])
        # and projects onto x_1 = 1.
        trace = cyclic_run([[0.0, 1.0], [1.0, 0.0]], [2.0, 1.0], beta=0.3, known=known)
        np.testing.assert_allclose(trace.iterates, [[0.0, 0.0], [0.0, 2.0], [1.0, 2.6]])

    def test_first_step_reduces_to_projection(self, known):
        x = np.array([1.0, -2.0])
        trace = cyclic_run([[0.0, 2.0], [1.0, 1.0]], [4.0, 1.0], beta=0.9, x0=x,
                                known=known, max_iters=1)
        np.testing.assert_allclose(trace.iterates[1], project(x, [0.0, 2.0], 4.0))


class TestResidualUpdate:
    @pytest.mark.parametrize("storage", [np.array, sp.csr_array], ids=["dense", "csr"])
    def test_projection_zeroes_row(self, storage):
        # Exact-mode gamma sums the rows whose kept residual is above the zero
        # test, so after the first step it leaves out just the projected row.
        base = random_problem(10, 4, seed=2)
        A = RowAccessMatrix(storage(base.A.to_dense()))
        trace = run(Problem(A, base.b), SolverConfig(variant="grk", max_iters=2))
        assert trace.iterations == 2
        np.testing.assert_allclose(trace.gamma[0], A.frobenius_sq, rtol=1e-14)
        i = trace.index[0]
        np.testing.assert_allclose(trace.gamma[1], A.frobenius_sq - A.row_norms_sq[i],
                                   rtol=1e-14)

    @KNOWN
    def test_matches_rank_one_formula_3x3(self, known):
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        x0 = rng.standard_normal(3)
        alpha = 0.8
        trace = cyclic_run(mat, b, alpha=alpha, x0=x0, known=known)
        x = x0
        for i, x_new in enumerate(trace.iterates[1:]):
            r = mat @ x - b
            x = x - alpha * r[i] / (mat[i] @ mat[i]) * mat[i]
            np.testing.assert_allclose(x_new, x, rtol=1e-13, atol=1e-14)
            if not known:
                # The kept residual after each rank-1 update; step 1 read its row 1.
                np.testing.assert_allclose(trace.res_sq[i], np.sum((mat @ x_new - b) ** 2),
                                           rtol=1e-12)

    def test_drift_after_500_random_steps(self):
        # rk draws the same rows with and without x*; without it each step reads
        # r_i from the residual kept by 500 rank-1 updates.
        problem = random_problem(30, 12, seed=9)
        config = SolverConfig(variant="rk", seed=10, max_iters=500, rse_tol=1e-300)
        kept = run(Problem(problem.A, problem.b), config)
        exact = run(problem, config)
        assert kept.iterations == exact.iterations == 500
        assert kept.selections() == exact.selections()
        x = kept.final_x
        assert np.linalg.norm(x - exact.final_x) <= 1e-10 * np.linalg.norm(x)
        norm = np.linalg.norm(problem.A.matvec(x) - problem.b)
        assert abs(np.sqrt(kept.res_sq[-1]) - norm) <= 1e-10 * max(1.0, norm)


class TestRunHandTrace:
    def test_two_step_solve(self):
        trace = run(DIAG_PROBLEM, SolverConfig(variant="grk", seed=0), capture_iterates=True)
        assert trace.iterations == 2
        assert trace.termination == "rse_tol"
        assert trace.selections() == [1, 0]
        assert trace.gamma.tolist() == [5.0, 1.0]
        assert trace.set_size.tolist() == [1, 1]
        np.testing.assert_allclose(trace.iterates[1], [0.0, 2.0])
        np.testing.assert_allclose(trace.iterates[2], [1.0, 2.0])
        np.testing.assert_allclose(err_history(trace), [5.0, 1.0, 0.0])

    def test_final_rse_needs_x_star(self):
        trace = run(Problem(DIAG_PROBLEM.A, DIAG_PROBLEM.b), SolverConfig(variant="grk", seed=0))
        assert trace.termination == "residual_tol" and trace.iterations == 2
        assert trace.final_rse() is None

    def test_start_at_solution_terminates_immediately(self):
        for variant in SolverVariant:
            trace = run(DIAG_PROBLEM, SolverConfig(variant=variant,
                                                   beta=0.3 if variant == SolverVariant.MGRK else 0.0),
                        x0=DIAG_PROBLEM.x_star)
            assert trace.iterations == 0
            assert trace.termination == "rse_tol"

    @pytest.mark.parametrize("x0", [[np.nan, 0.0], [0.0, np.inf], [0.0, -np.inf], [0.0, 0.0, 0.0]])
    def test_bad_start_refused(self, x0):
        with pytest.raises(ValueError, match="x0"):
            run(DIAG_PROBLEM, SolverConfig(variant="grk"), x0=np.array(x0))

    @pytest.mark.parametrize("variant, beta", [("grk", 0.0), ("mgrk", 0.3), ("rk", 0.0)])
    def test_start_left_unmodified(self, variant, beta):
        x0 = np.array([0.5, -1.0])
        x0.setflags(write=False)  # a write into it would raise
        trace = run(DIAG_PROBLEM, SolverConfig(variant=variant, beta=beta, seed=0), x0=x0)
        assert trace.iterations > 0
        np.testing.assert_array_equal(x0, [0.5, -1.0])


class TestRunBehavior:
    def test_seed_determinism(self):
        problem = random_problem(40, 10, seed=14)
        cfg = SolverConfig(variant="grk", seed=77)
        t1, t2 = run(problem, cfg), run(problem, cfg)
        assert t1.selections() == t2.selections()
        assert_same_steps(t1, t2)
        assert t1.termination == t2.termination

    def test_different_seeds_differ(self):
        problem = random_problem(60, 10, seed=14, kappa=30.0)
        s1 = run(problem, SolverConfig(variant="grk", prob_rule="uniform", seed=1)).selections()
        s2 = run(problem, SolverConfig(variant="grk", prob_rule="uniform", seed=2)).selections()
        assert s1 != s2

    def test_mgrk_beta_zero_equals_grk_frobenius(self):
        problem = random_problem(35, 8, seed=15)
        grk = run(problem, SolverConfig(variant="grk", gamma_mode="frobenius", seed=5))
        mgrk = run(problem, SolverConfig(variant="mgrk", beta=0.0,
                                         gamma_mode="frobenius", seed=5))
        assert grk.selections() == mgrk.selections()
        assert_same_steps(grk, mgrk)

    def test_monotone_error_without_momentum(self):
        problem = random_problem(50, 12, seed=16, kappa=20.0)
        for alpha in (0.5, 1.0, 1.5):
            trace = run(problem, SolverConfig(variant="grk", alpha=alpha, seed=3,
                                              max_iters=400))
            errs = err_history(trace)
            assert np.all(np.diff(errs) <= 1e-12 * errs[0])

    def test_zeroed_previous_row(self):
        problem = random_problem(45, 9, seed=17)
        trace = run(problem, SolverConfig(variant="grk", seed=4, max_iters=300),
                    capture_iterates=True)
        tol = 1e-10 * np.max(np.abs(problem.b))
        assert all(row_residual_after(problem, i, x) <= tol
                   for i, x in zip(trace.selections(), trace.iterates[1:]))

    def test_range_confinement(self):
        problem = random_problem(12, 6, rank=4, seed=18)
        mat = problem.A.to_dense()
        pinv = np.linalg.pinv(mat)
        nullspace_proj = np.eye(6) - pinv @ mat
        trace = run(problem, SolverConfig(variant="grk", seed=6, max_iters=200),
                    capture_iterates=True)
        for x in trace.iterates:
            gap = np.linalg.norm(nullspace_proj @ (x - problem.x_star))
            assert gap <= 1e-8

    def test_cyclic_visits_rows_in_order(self):
        problem = random_problem(7, 4, seed=19)
        trace = run(problem, SolverConfig(variant="cyclic", max_iters=14, rse_tol=1e-30))
        assert trace.selections() == [k % 7 for k in range(14)]
        assert trace.termination == "max_iters"

    def test_rk_converges(self):
        problem = random_problem(60, 10, seed=20, kappa=3.0)
        trace = run(problem, SolverConfig(variant="rk", seed=8, max_iters=50_000))
        assert trace.termination == "rse_tol"
        assert trace.final_rse() <= 1e-12

    def test_residual_stopping_without_x_star(self):
        base = random_problem(30, 8, seed=21, kappa=3.0)
        problem = Problem(base.A, base.b)  # drop the reference solution
        trace = run(problem, SolverConfig(variant="grk", seed=9, rse_tol=1e-14))
        assert trace.termination == "residual_tol"
        assert trace.initial_err_sq is None
        b_norm_sq = float(problem.b @ problem.b)
        assert trace.res_sq[-1] / b_norm_sq <= 1e-14

    def test_rse_tol_bounds_the_residual_without_x_star(self):
        base = random_problem(30, 8, seed=21, kappa=3.0)
        problem = Problem(base.A, base.b)
        trace = run(problem, SolverConfig(variant="grk", seed=9, rse_tol=1e-4))
        assert trace.termination == "residual_tol"
        b_norm_sq = float(problem.b @ problem.b)
        assert trace.res_sq[-1] / b_norm_sq <= 1e-4
        assert np.all(trace.res_sq[:-1] / b_norm_sq > 1e-4)

    def test_max_iters_reported(self):
        problem = random_problem(50, 10, seed=22, kappa=50.0)
        trace = run(problem, SolverConfig(variant="grk", seed=10, max_iters=5))
        assert trace.termination == "max_iters"
        assert trace.iterations == 5

    def test_sparse_matrix_run(self):
        rng = np.random.default_rng(23)
        dense = rng.standard_normal((40, 12))
        dense[np.abs(dense) < 1.0] = 0.0
        dense[:, 0] += 1.0
        A = RowAccessMatrix(sp.csr_array(dense))
        b = A.matvec(rng.standard_normal(12))
        problem = Problem(A, b, x_star=min_norm_solution(A, b))
        trace = run(problem, SolverConfig(variant="grk", seed=11))
        assert trace.termination == "rse_tol"

    def test_momentum_residual_refresh_consistency(self):
        # Incrementally maintained residual stays close to A x - b across
        # refresh boundaries, momentum on.
        problem = random_problem(30, 10, seed=24, kappa=30.0)
        cfg = SolverConfig(variant="mgrk", beta=0.3, seed=12, max_iters=2500,
                           rse_tol=1e-28)
        trace = run(problem, cfg, capture_iterates=True)
        for res_sq, x in zip(trace.res_sq[::250].tolist(), trace.iterates[1::250]):
            exact = float(np.sum((problem.A.matvec(x) - problem.b) ** 2))
            assert res_sq == pytest.approx(exact, rel=1e-6, abs=1e-20)


class TestGammaModeOrdering:
    def test_exact_leq_lastrow_leq_frobenius_along_trace(self):
        from kaczmarz.selection import GammaMode, ProbabilityRule, active_set_gamma, \
            greedy_set, sample_index, sampling_distribution

        problem = random_problem(40, 10, seed=25)
        A, b = problem.A, problem.b
        rng = np.random.default_rng(13)
        x = np.zeros(10)
        last = None
        tau = 1e-14 * max(1.0, np.max(np.abs(b)))
        for k in range(150):
            r = A.matvec(x) - b
            if np.max(np.abs(r)) <= tau:
                break
            g_exact = active_set_gamma(A, GammaMode.EXACT, np.abs(r) > tau)
            g_last = active_set_gamma(A, GammaMode.LAST_ROW, last_index=last)
            g_frob = active_set_gamma(A, GammaMode.FROBENIUS)
            slack = 1e-9 * g_frob
            if k >= 1:
                assert g_exact <= g_last + slack
            assert g_last <= g_frob + slack
            indices = greedy_set(r * r / A.row_norms_sq, float(r @ r), g_exact, 0.5)
            probs = sampling_distribution(r, indices, ProbabilityRule.RESIDUAL)
            i = int(indices[sample_index(probs, rng)])
            x = x - (r[i] / A.row_norms_sq[i]) * A.to_dense()[i]
            last = i


def reference_row_action(problem, config, x0=None, capture=False, keep_residual=None):
    """One run of ``config`` as a plain loop over full vectors; returns its Trace.

    It keeps the residual r = Ax - b where ``keep_residual`` says, by default
    where ``run`` keeps it (grk, mgrk and runs without x*), by full rank-1 and
    momentum updates, recomputed every ``REFRESH_EVERY`` steps; otherwise a step
    reads r_i from the row.  Greedy steps recompute the scores and the mask from
    r and call the four selection functions themselves, by their ``solvers``
    names, so a test that patches one patches it here too.  rk draws one
    ``rng.random()`` per step.  ||r||^2 and ||b||^2 are ``np.add.reduce`` of the
    squares, as in ``run``.
    """
    A, b, x_star = problem.A, problem.b, problem.x_star
    m, n = A.shape
    mat, norms = A.to_dense(), A.row_norms_sq
    greedy = config.variant in ("grk", "mgrk")
    if keep_residual is None:
        keep_residual = greedy or x_star is None
    mode = config.gamma_mode
    tau = 1e-14 * max(1.0, np.max(np.abs(b)))
    x_star_sq = float(np.add.reduce(x_star * x_star)) if x_star is not None else None
    err_denom = (x_star_sq or 1.0) if x_star is not None else None
    res_denom = float(np.add.reduce(b * b)) or 1.0
    rng = np.random.default_rng(config.seed)
    cdf = np.cumsum(norms)

    def stop(err_sq, res_sq):
        if not np.isfinite((err_sq or 0.0) + (res_sq or 0.0)):
            return "nonfinite"
        if err_sq is not None:
            return "rse_tol" if err_sq / err_denom <= config.rse_tol else None
        return "residual_tol" if res_sq / res_denom <= config.rse_tol else None

    x = x_prev = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = r_prev = A.matvec(x) - b
    initial_err = float(np.sum((x - x_star) ** 2)) if x_star is not None else None
    initial_res = res_sq = float(np.add.reduce(r * r))
    termination = stop(initial_err, res_sq)
    steps = {name: [] for name in ("index", "set_size", "gamma", "err_sq", "res_sq")}
    iterates = [x.copy()]
    last = None
    for k in range(config.max_iters if termination is None else 0):
        if greedy:
            scores = r * r / norms
            loud = np.abs(r) > tau
            if not loud.any():
                termination = "converged"
                break
            gamma = solvers.active_set_gamma(A, mode, loud, last)
            indices = solvers.greedy_set(scores, res_sq, gamma, config.theta)
            if not indices.size:
                # A failed certificate.  Once more with ||r||^2 over the rows
                # gamma sums, where those are not all rows: the loud rows, or
                # every row but the last.
                if mode == "exact" or mode == "lastrow" and last is not None:
                    rows = loud if mode == "exact" else np.arange(m) != last
                    rss = float(np.add.reduce(r * r, where=rows))
                    if rss != 0.0:
                        indices = solvers.greedy_set(scores, rss, gamma, config.theta)
                if not indices.size:
                    termination = "converged"
                    break
            probs = solvers.sampling_distribution(r, indices, config.prob_rule)
            i = int(indices[solvers.sample_index(probs, rng)])
            steps["set_size"].append(len(indices))
            steps["gamma"].append(gamma)
        elif config.variant == "rk":
            i = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), m - 1)
        else:
            i = k % m
        r_i = r[i] if keep_residual else A.row_dot(i, x) - b[i]
        coeff = config.alpha * r_i / norms[i]
        x_new = (x + config.beta * (x - x_prev) if config.beta else x) - coeff * mat[i]
        r_new = (r + config.beta * (r - r_prev) if config.beta else r) - coeff * A.matvec(mat[i])
        if (k + 1) % REFRESH_EVERY == 0:
            r_new, r = A.matvec(x_new) - b, A.matvec(x) - b
        x_prev, x, r_prev, r = x, x_new, r, r_new
        last = i
        steps["index"].append(i)
        err_sq = float(np.sum((x - x_star) ** 2)) if x_star is not None else None
        res_sq = float(np.add.reduce(r * r))
        steps["err_sq"].append(err_sq)
        steps["res_sq"].append(res_sq)
        iterates.append(x.copy())
        termination = stop(err_sq, res_sq if keep_residual else None)
        if termination is not None:
            break
    recorded = {"index": True, "set_size": greedy, "gamma": greedy,
                "err_sq": x_star is not None, "res_sq": keep_residual}
    return Trace(termination=termination or "max_iters", initial_err_sq=initial_err,
                 initial_res_sq=initial_res,
                 final_x=x.copy(), config=config, frobenius_sq=A.frobenius_sq,
                 x_star_norm_sq=x_star_sq, zero_start=not iterates[0].any(),
                 iterates=iterates if capture else None,
                 **{name: np.array(values, dtype=np.int64 if name in ("index", "set_size")
                                   else np.float64) if recorded[name] else None
                    for name, values in steps.items()})


@pytest.mark.parametrize("variant, beta", [("cyclic", 0.0), ("rk", 0.0), ("grk", 0.0),
                                           ("mgrk", 0.4)])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_err_sq_is_bitwise_numpy_sum_of_squares(variant, beta, storage):
    problem = (random_problem(60, 10, seed=34, kappa=3.0) if storage == "dense"
               else sparse_problem(60, 10, seed=35))
    trace = run(problem, SolverConfig(variant=variant, beta=beta, seed=5, max_iters=400),
                capture_iterates=True)
    x_star = problem.x_star
    assert trace.initial_err_sq == float(np.sum((trace.iterates[0] - x_star) ** 2))
    assert len(trace.iterates) == trace.iterations + 1 > 30
    for err_sq, x in zip(trace.err_sq.tolist(), trace.iterates[1:]):
        assert err_sq == float(np.sum((x - x_star) ** 2))


def test_x_star_norm_is_numpy_sum_of_squares():
    # It sets every rse_tol stop and final_rse.  A BLAS dot sums in another
    # order here (0x1.3bfa312785c36p+12 against ...c33p+12), and for long
    # vectors in an order that depends on the BLAS thread count.
    x_star = np.random.default_rng(3).standard_normal(5000)
    A = RowAccessMatrix(sp.csr_array(([1.0, 2.0], ([0, 1], [0, 4999])), shape=(2, 5000)))
    problem = Problem(A, A.matvec(x_star), x_star=x_star)
    trace = run(problem, SolverConfig(variant="rk", max_iters=1))
    assert trace.x_star_norm_sq == float(np.add.reduce(x_star * x_star))


# A CSR greedy run with m >= 12000, no x*, printed as JSON: the initial ||r||^2,
# the termination and every step column.  OpenBLAS splits a dot over threads from
# m = 10000 on.
_CSR_RUN = """
import json, sys
import numpy as np
import scipy.sparse as sp
from kaczmarz.linalg import Problem, RowAccessMatrix
from kaczmarz.solvers import SolverConfig, run
rng = np.random.default_rng(7)
m, n = 12000, 1200
A = RowAccessMatrix(sp.random_array((m, n), density=6 / n, format="csr", rng=rng)
                    + sp.csr_array((np.ones(m), (np.arange(m), np.arange(m) % n)), shape=(m, n)))
problem = Problem(A, A.matvec(rng.standard_normal(n)))
trace = run(problem, SolverConfig(variant=sys.argv[1], beta=float(sys.argv[2]), seed=1,
                                  max_iters=300))
print(json.dumps([trace.initial_res_sq, trace.termination,
                  *(None if col is None else col.tolist()
                    for col in (trace.index, trace.set_size, trace.gamma, trace.err_sq,
                                trace.res_sq))]))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU: two BLAS threads would not run in parallel")
@pytest.mark.parametrize("variant, beta", [("grk", 0.0), ("mgrk", 0.3)])
def test_csr_trace_does_not_depend_on_blas_threads(variant, beta):
    src = str(Path(solvers.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _CSR_RUN, variant, str(beta)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(json.loads(proc.stdout))
    assert len(outputs[0]) == 7 and len(outputs[0][2]) == 300
    assert outputs[0] == outputs[1]


def sparse_problem(m, n, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((m, n))
    dense[np.abs(dense) < 1.0] = 0.0
    dense[:, 0] += 1.0
    A = RowAccessMatrix(sp.csr_array(dense))
    b = A.matvec(rng.standard_normal(n))
    return Problem(A, b, x_star=min_norm_solution(A, b))


class TestResidualFreePath:
    @pytest.mark.parametrize("variant", ["rk", "cyclic"])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_matches_full_residual_reference(self, variant, storage):
        problem = (random_problem(80, 12, seed=30, kappa=4.0) if storage == "dense"
                   else sparse_problem(80, 12, seed=31))
        config = SolverConfig(variant=variant, seed=7, max_iters=20_000, rse_tol=1e-10)
        trace = run(problem, config)
        reference = reference_row_action(problem, config, keep_residual=True)
        assert trace.termination == reference.termination == "rse_tol"
        assert trace.selections() == reference.selections()
        x_ref = reference.final_x
        assert np.linalg.norm(trace.final_x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_block_draws_cross_blocks_and_stop_mid_block(self):
        problem = random_problem(80, 12, seed=30, kappa=20.0)
        config = SolverConfig(variant="rk", seed=7, max_iters=20_000, rse_tol=1e-12)
        trace = run(problem, config)
        assert trace.termination == "rse_tol"
        assert trace.iterations > 3 * _RK_BLOCK and trace.iterations % _RK_BLOCK != 0
        assert_same_run(trace, reference_row_action(problem, config))

    @pytest.mark.parametrize("max_iters", [1, _RK_BLOCK - 1, _RK_BLOCK, _RK_BLOCK + 1])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_block_draws_up_to_max_iters(self, max_iters, storage):
        problem = (random_problem(80, 12, seed=30, kappa=20.0) if storage == "dense"
                   else sparse_problem(80, 12, seed=31))
        config = SolverConfig(variant="rk", seed=11, max_iters=max_iters, rse_tol=1e-300)
        trace = run(problem, config)
        assert trace.termination == "max_iters"
        assert trace.iterations == max_iters
        assert_same_run(trace, reference_row_action(problem, config))

    @pytest.mark.parametrize("variant", ["rk", "cyclic"])
    def test_steps_carry_no_residual(self, variant):
        problem = random_problem(40, 8, seed=32, kappa=3.0)
        trace = run(problem, SolverConfig(variant=variant, seed=2, max_iters=300),
                    capture_iterates=True)
        assert trace.iterations and trace.res_sq is None
        tol = 1e-10 * np.max(np.abs(problem.b))
        assert all(row_residual_after(problem, i, x) <= tol
                   for i, x in zip(trace.selections(), trace.iterates[1:]))

    @pytest.mark.parametrize("variant", ["rk", "cyclic"])
    def test_residual_stopping_without_x_star(self, variant):
        base = random_problem(30, 8, seed=33, kappa=3.0)
        problem = Problem(base.A, base.b)
        trace = run(problem, SolverConfig(variant=variant, seed=4, max_iters=50_000,
                                          rse_tol=1e-14), capture_iterates=True)
        assert trace.termination == "residual_tol"
        for res_sq, x in zip(trace.res_sq.tolist(), trace.iterates[1:]):
            exact = float(np.sum((problem.A.matvec(x) - problem.b) ** 2))
            assert res_sq == pytest.approx(exact, rel=1e-6, abs=1e-24)
        b_norm_sq = float(problem.b @ problem.b)
        assert trace.res_sq[-1] / b_norm_sq <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 40), n=st.integers(1, 10),
           alpha=st.floats(0.05, 1.95), variant=st.sampled_from(["rk", "cyclic"]))
    def test_error_nonincreasing_for_relaxed_steps(self, seed, m, n, alpha, variant):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((m, n))
        A = RowAccessMatrix(mat)
        b = mat @ rng.standard_normal(n)
        problem = Problem(A, b, x_star=min_norm_solution(A, b))
        trace = run(problem, SolverConfig(variant=variant, alpha=alpha, seed=seed,
                                          max_iters=200))
        errs = err_history(trace)
        assert np.all(np.diff(errs) <= 1e-12 * errs[0])


class TestNonfinite:
    def test_diverging_momentum_run_ends_nonfinite(self):
        problem = random_problem(200, 40, seed=0, kappa=3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(problem, SolverConfig(variant="mgrk", beta=3.0, seed=0, max_iters=5000))
        assert trace.termination == "nonfinite"
        assert not np.isfinite(trace.res_sq[-1])
        assert np.all(np.isfinite(trace.res_sq[:-1]))

    def test_diverging_residual_free_run_ends_nonfinite(self):
        problem = random_problem(30, 6, seed=34, kappa=3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(problem, SolverConfig(variant="cyclic", alpha=3.0, max_iters=100_000))
        assert trace.termination == "nonfinite"
        assert trace.iterations and trace.res_sq is None
        assert not np.isfinite(trace.err_sq[-1])

    @pytest.mark.parametrize("config", [SolverConfig(variant="mgrk", beta=3.0, max_iters=5000),
                                        SolverConfig(variant="grk", alpha=2.5, max_iters=5000)])
    def test_diverging_run_ends_without_numpy_warnings(self, config):
        problem = random_problem(200, 40, seed=0, kappa=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(problem, config)
        assert trace.termination == "nonfinite"


def gaussian_problem(seed, m, n, known=True, sparsity=0.0):
    """Consistent m x n Gaussian system; entries below ``sparsity`` in size are zeroed."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, n))
    mat[np.abs(mat) < sparsity] = 0.0
    mat[np.arange(m), rng.integers(0, n, size=m)] += 2.0  # no zero rows
    b = mat @ rng.standard_normal(n)
    A = RowAccessMatrix(mat)
    return Problem(A, b, x_star=min_norm_solution(A, b) if known else None)


class TestPathwiseProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 40), n=st.integers(1, 10),
           mode_alpha=st.one_of(
               st.tuples(st.sampled_from(["exact", "frobenius"]), st.floats(0.05, 1.95)),
               st.tuples(st.just("lastrow"), st.just(1.0))))
    def test_grk_contracts_on_every_step(self, seed, m, n, mode_alpha):
        gamma_mode, alpha = mode_alpha
        problem = gaussian_problem(seed, m, n)
        trace = run(problem, SolverConfig(variant="grk", alpha=alpha, gamma_mode=gamma_mode,
                                          seed=seed, max_iters=300))
        sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
        result = certify_trace(trace, sigma_sq)
        assert result.passed, result

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 40), n=st.integers(1, 10),
           variant=st.sampled_from(["grk", "mgrk"]))
    def test_dense_and_csr_storage_agree(self, seed, m, n, variant):
        dense = gaussian_problem(seed, m, n, sparsity=0.7)
        csr = Problem(RowAccessMatrix(sp.csr_array(dense.A.to_dense())), dense.b,
                      x_star=dense.x_star)
        config = SolverConfig(variant=variant, beta=0.3 if variant == "mgrk" else 0.0,
                              seed=seed, max_iters=300)
        t_dense, t_csr = run(dense, config), run(csr, config)
        assert t_csr.selections() == t_dense.selections()
        assert t_csr.termination == t_dense.termination
        assert (np.linalg.norm(t_csr.final_x - t_dense.final_x)
                <= 1e-10 * np.linalg.norm(t_dense.final_x))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 30), n=st.integers(1, 8),
           variant=st.sampled_from(["cyclic", "rk", "grk", "mgrk"]), known=st.booleans())
    def test_same_seed_same_trace(self, seed, m, n, variant, known):
        problem = gaussian_problem(seed, m, n, known=known)
        config = SolverConfig(variant=variant, beta=0.2 if variant == "mgrk" else 0.0,
                              seed=seed, max_iters=200)
        first, second = run(problem, config), run(problem, config)
        assert_same_steps(first, second)
        assert np.array_equal(first.final_x, second.final_x)


def rounding_floor_problem(seed, storage=np.array, known=False):
    """A 30 x 8 system whose greedy runs reach the rounding floor of their residual."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((30, 8))
    mat[np.abs(mat) < 0.5] = 0.0
    mat[:, 0] += 1.0
    A = RowAccessMatrix(storage(mat))
    b = A.matvec(rng.standard_normal(8))
    return Problem(A, b, x_star=min_norm_solution(A, b) if known else None)


class TestRoundingFloor:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("storage", [np.array, sp.csr_array], ids=["dense", "csr"])
    @pytest.mark.parametrize("variant, gamma_mode, beta", [
        ("grk", "exact", 0.0), ("grk", "lastrow", 0.0), ("grk", "frobenius", 0.0),
        ("mgrk", "exact", 0.3), ("mgrk", "lastrow", 0.0), ("mgrk", "frobenius", 0.3)])
    def test_greedy_run_below_any_tolerance_ends_converged(self, seed, storage, variant,
                                                           gamma_mode, beta):
        # Exact-mode gamma sums only the rows above the zero test, while ||r||^2
        # also holds the rows below it; at the rounding floor no score reaches
        # ||r||^2/gamma, and the run must stop there rather than raise.
        problem = rounding_floor_problem(seed, storage)
        trace = run(problem, SolverConfig(variant=variant, gamma_mode=gamma_mode,
                                          beta=beta, rse_tol=1e-300))
        assert trace.termination == "converged"
        assert trace.res_sq[-1] <= 1e-20 * float(problem.b @ problem.b)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 12), n=st.integers(1, 6),
           decades=st.integers(0, 14),
           variant_beta=st.sampled_from([("grk", 0.0), ("mgrk", 0.3), ("mgrk", 0.0)]),
           gamma_mode=st.sampled_from(["exact", "lastrow", "frobenius"]),
           storage=st.sampled_from(["dense", "csr"]), trials=st.sampled_from([1, 3]))
    def test_converged_only_with_no_row_of_gamma_above_tau(self, seed, m, n, decades,
                                                           variant_beta, gamma_mode, storage,
                                                           trials):
        # Rows whose norms span up to 14 decades leave the quiet rows at the
        # rounding floor holding much of ||r||^2.  A run may end converged only
        # where no row that gamma sums has |r_i| > tau: the loud rows in exact
        # mode, every row but the previous one in lastrow mode, every row in
        # frobenius mode.
        variant, beta = variant_beta
        assume(gamma_mode != "lastrow" or beta == 0.0)
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(0, decades, (m, 1))
        A = RowAccessMatrix(mat if storage == "dense" else sp.csr_array(mat))
        problem = Problem(A, A.matvec(rng.standard_normal(n)))
        select, stops = solvers._GreedyRule.select, []

        def checked(rule, A, r, scores, loud, res_sq, last_index, rng):
            pick = select(rule, A, r, scores, loud, res_sq, last_index, rng)
            if pick is None:
                rows = np.abs(r) > rule.tau_res
                if rule.gamma_mode == "lastrow" and last_index is not None:
                    rows[last_index] = False
                stops.append(np.flatnonzero(rows).tolist())
            return pick

        config = SolverConfig(variant=variant, beta=beta, gamma_mode=gamma_mode, seed=seed,
                              max_iters=2000, rse_tol=1e-300)
        with mock.patch.object(solvers._GreedyRule, "select", checked):
            traces = run(problem, config, trials=trials)
        assert stops == [[]] * sum(trace.termination == "converged" for trace in traces)


class TestSelectionContract:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 12), n=st.integers(1, 6),
           decades=st.integers(0, 14),
           variant_beta=st.sampled_from([("grk", 0.0), ("mgrk", 0.0), ("mgrk", 0.4),
                                         ("mgrk", 3.0)]),
           gamma_mode=st.sampled_from(["exact", "lastrow", "frobenius"]),
           prob_rule=st.sampled_from(["residual", "uniform"]), theta=st.floats(0.0, 1.0),
           storage=st.sampled_from(["dense", "csr"]), trials=st.sampled_from([1, 3]),
           known=st.booleans())
    def test_run_keeps_the_input_contract_of_each_selection_call(
            self, seed, m, n, decades, variant_beta, gamma_mode, prob_rule, theta, storage,
            trials, known):
        # The four selection functions check none of their inputs; run is their
        # only caller, and every call it makes must meet their contract.  beta = 3
        # diverges, and run must end such a trial nonfinite before it selects.
        variant, beta = variant_beta
        if gamma_mode == "lastrow":
            beta = 0.0  # lastrow needs alpha = 1 and beta = 0
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(0, decades, (m, 1))
        A = RowAccessMatrix(mat if storage == "dense" else sp.csr_array(mat))
        b = A.matvec(rng.standard_normal(n))
        problem = Problem(A, b, x_star=min_norm_solution(A, b) if known else None)
        original = {name: getattr(solvers, name) for name in (
            "active_set_gamma", "greedy_set", "sampling_distribution", "sample_index")}

        def active_set_gamma(A, mode, loud, last_index):
            assert type(mode) is solvers.GammaMode
            if mode is solvers.GammaMode.EXACT:
                assert loud.dtype == bool and loud.shape == (m,)
            return original["active_set_gamma"](A, mode, loud, last_index)

        def greedy_set(scores, rss, gamma, theta):
            assert 0.0 < gamma < math.inf and 0.0 < rss < math.inf
            assert 0.0 <= theta <= 1.0 and len(scores) == m
            indices = original["greedy_set"](scores, rss, gamma, theta)
            if indices.size:  # a passed certificate
                assert scores.argmax() in indices
                assert np.min(scores[indices]) >= rss / gamma * (1.0 - 1e-9)
            return indices

        def sampling_distribution(r, indices, rule):
            assert type(rule) is solvers.ProbabilityRule and indices.size
            assert np.add.reduce(r[indices] ** 2) > 0.0
            return original["sampling_distribution"](r, indices, rule)

        def sample_index(probs, rng):
            assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) <= 1e-9
            return original["sample_index"](probs, rng)

        config = SolverConfig(variant=variant, beta=beta, gamma_mode=gamma_mode,
                              prob_rule=prob_rule, theta=theta, seed=seed, max_iters=400,
                              rse_tol=1e-300)
        with mock.patch.object(solvers, "active_set_gamma", active_set_gamma), \
                mock.patch.object(solvers, "greedy_set", greedy_set), \
                mock.patch.object(solvers, "sampling_distribution", sampling_distribution), \
                mock.patch.object(solvers, "sample_index", sample_index):
            run(problem, config, trials=trials)

    # Deterministic edge cases of the same contract, each at the place that now
    # guarantees what a selection function once checked for itself.

    @staticmethod
    def record_calls(monkeypatch):
        """Wrap the four selection names in ``solvers``; each call appends
        (name, args, result) to the returned list, with copies of the array
        arguments, which run updates in place after the call."""
        calls = []
        for name in ("active_set_gamma", "greedy_set", "sampling_distribution",
                     "sample_index"):
            def recorded(*args, _name=name, _original=getattr(solvers, name)):
                kept = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
                result = _original(*args)
                calls.append((_name, kept, result))
                return result

            monkeypatch.setattr(solvers, name, recorded)
        return calls

    @pytest.mark.parametrize("gamma_mode", ["exact", "lastrow", "frobenius"])
    def test_config_strings_reach_selection_as_members(self, monkeypatch, gamma_mode):
        # active_set_gamma and sampling_distribution compare with `is`, so a
        # string that slipped past SolverConfig would silently pick a wrong branch.
        calls = self.record_calls(monkeypatch)
        for prob_rule in ("residual", "uniform"):
            calls.clear()
            run(DIAG_PROBLEM, SolverConfig(variant="grk", gamma_mode=gamma_mode,
                                           prob_rule=prob_rule, seed=0))
            modes = [args[1] for name, args, _ in calls if name == "active_set_gamma"]
            rules = [args[2] for name, args, _ in calls if name == "sampling_distribution"]
            assert modes and rules
            assert all(mode is solvers.GammaMode(gamma_mode) for mode in modes)
            assert all(rule is solvers.ProbabilityRule(prob_rule) for rule in rules)

    @pytest.mark.parametrize("storage", [np.array, sp.csr_array], ids=["dense", "csr"])
    def test_exact_mode_mask_marks_the_loud_rows(self, monkeypatch, storage):
        # Row 1 starts with a zero residual, so gamma_0 sums rows 0 and 2 only:
        # 1 + 9 = 10.  An integer 0/1 mask would index rows 1, 0, 1 and give 9.
        calls = self.record_calls(monkeypatch)
        A = RowAccessMatrix(storage(np.diag([1.0, 2.0, 3.0])))
        problem = Problem(A, [1.0, 0.0, 3.0], x_star=[1.0, 0.0, 1.0])
        trace = run(problem, SolverConfig(variant="grk", gamma_mode="exact", seed=0))
        assert trace.termination == "rse_tol" and trace.gamma[0] == 10.0
        masks = [(args[2], result) for name, args, result in calls
                 if name == "active_set_gamma"]
        assert len(masks) == trace.iterations
        for loud, gamma in masks:
            assert loud.dtype == bool and loud.shape == (3,)
            assert gamma == float(A.row_norms_sq[loud].sum())

    @pytest.mark.parametrize("gamma_mode", ["exact", "lastrow", "frobenius"])
    def test_quiet_start_ends_converged_before_greedy_set(self, monkeypatch, gamma_mode):
        # Every |r_i| is nonzero but at most tau = 4e-14, and rse_tol is too
        # small to stop the run: select's converged test must end it before
        # greedy_set sees a residual with no row above tau.
        calls = self.record_calls(monkeypatch)
        problem = Problem(DIAG_PROBLEM.A, DIAG_PROBLEM.b)
        trace = run(problem, SolverConfig(variant="grk", gamma_mode=gamma_mode,
                                          rse_tol=1e-300),
                    x0=np.array([1.0 + 2**-52, 2.0 - 2**-51]))
        assert 0.0 < trace.initial_res_sq
        assert trace.termination == "converged" and trace.iterations == 0
        assert [name for name, _, _ in calls] == ["active_set_gamma"]

    @pytest.mark.parametrize("b", [[1.0e154, 1.3e154], [1e200, 3e200]],
                             ids=["finite-squares", "infinite-squares"])
    def test_overflowing_residual_never_reaches_selection(self, monkeypatch, b):
        # ||r||^2 at x0 = 0 overflows, though in the first case each r_i^2 is
        # finite: run's stop test ends the run nonfinite before any selection.
        calls = self.record_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(Problem(DIAG_PROBLEM.A, b), SolverConfig(variant="grk"))
        assert trace.termination == "nonfinite" and trace.iterations == 0
        assert trace.initial_res_sq == math.inf
        assert calls == []


def assert_same_run(trace, reference):
    """Bit-equal runs: the step columns compare as ``assert_same_steps`` does, so
    NaN and the sign of zero count, and a failure names its first differing step."""
    assert trace.config == reference.config
    assert trace.termination == reference.termination
    assert_same_steps(trace, reference)
    assert (trace.initial_err_sq, trace.initial_res_sq) == \
        (reference.initial_err_sq, reference.initial_res_sq)
    assert np.array_equal(trace.final_x, reference.final_x, equal_nan=True)
    assert (trace.iterates is None) == (reference.iterates is None)
    if trace.iterates is not None:
        assert len(trace.iterates) == len(reference.iterates) == trace.iterations + 1
        assert all(np.array_equal(x, y, equal_nan=True)
                   for x, y in zip(trace.iterates, reference.iterates))


def separate_run(problem, config, x0=None, capture=False):
    """A run of one trial, checked against the reference loop."""
    trace = run(problem, config, x0=x0, capture_iterates=capture)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_run(trace, reference_row_action(problem, config, x0=x0, capture=capture))
    return trace


def assert_trials_equal_separate_runs(problem, config, x0, capture, trials):
    traces = run(problem, config, x0=x0, capture_iterates=capture, trials=trials)
    assert len(traces) == trials
    for t, trace in enumerate(traces):
        assert_same_run(trace, separate_run(problem, replace(config, seed=config.seed + t),
                                            x0, capture))


# Greedy settings the trials tests draw from; lastrow needs alpha = 1 and beta = 0.
GAMMA_MODES = st.sampled_from([None, "exact", "lastrow", "frobenius"])
PROB_RULES = st.sampled_from(["residual", "uniform"])
ALPHAS = st.sampled_from([1.0, 0.7])
STARTS = st.sampled_from(["zero", "random", "x_star"])


def start_vector(start, seed, problem):
    return {"zero": None,
            "random": np.random.default_rng(seed).standard_normal(problem.A.n),
            "x_star": problem.x_star}[start]


class TestTrials:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 40), n=st.integers(1, 8),
           variant_beta=st.sampled_from([("rk", 0.0), ("rk", 0.3), ("cyclic", 0.0),
                                         ("cyclic", 0.3), ("grk", 0.0), ("mgrk", 0.3)]),
           gamma_mode=GAMMA_MODES, prob_rule=PROB_RULES, alpha=ALPHAS,
           storage=st.sampled_from(["dense", "csr"]), known=st.booleans(), start=STARTS,
           capture=st.booleans(), max_iters=st.sampled_from([7, 3000]),
           trials=st.integers(1, 9))
    def test_trials_equal_separate_runs(self, seed, m, n, variant_beta, gamma_mode, prob_rule,
                                        alpha, storage, known, start, capture, max_iters, trials):
        variant, beta = variant_beta
        assume(gamma_mode != "lastrow" or (alpha == 1.0 and beta == 0.0))
        problem = gaussian_problem(seed, m, n, known=known, sparsity=0.5)
        if storage == "csr":
            problem = Problem(RowAccessMatrix(sp.csr_array(problem.A.to_dense())), problem.b,
                              x_star=problem.x_star)
        config = SolverConfig(variant=variant, alpha=alpha, beta=beta, gamma_mode=gamma_mode,
                              prob_rule=prob_rule, seed=seed, max_iters=max_iters)
        assert_trials_equal_separate_runs(problem, config, start_vector(start, seed, problem),
                                          capture, trials)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 40), n=st.integers(1, 8),
           variant_beta=st.sampled_from([("grk", 0.0), ("mgrk", 0.3), ("mgrk", 0.0)]),
           gamma_mode=st.sampled_from(["exact", "lastrow", "frobenius"]),
           prob_rule=PROB_RULES, alpha=ALPHAS, start=STARTS,
           capture=st.booleans(), max_iters=st.sampled_from([7, 3000]),
           trials=st.integers(2, 9))
    def test_greedy_trials_equal_separate_runs(self, seed, m, n, variant_beta, gamma_mode,
                                               prob_rule, alpha, start, capture, max_iters,
                                               trials):
        # Dense with x* known, every gamma mode.
        variant, beta = variant_beta
        assume(gamma_mode != "lastrow" or (alpha == 1.0 and beta == 0.0))
        problem = gaussian_problem(seed, m, n, sparsity=0.5)
        config = SolverConfig(variant=variant, alpha=alpha, beta=beta, gamma_mode=gamma_mode,
                              prob_rule=prob_rule, seed=seed, max_iters=max_iters)
        assert_trials_equal_separate_runs(problem, config, start_vector(start, seed, problem),
                                          capture, trials)

    @pytest.mark.parametrize("block", [64, _RK_BLOCK])
    @pytest.mark.parametrize("variant", ["rk", "cyclic"])
    def test_trials_stop_across_chunks(self, monkeypatch, block, variant):
        # Trials stop at different steps, past the first chunk of draws; in chunks of
        # 64 steps rk trials stop in different chunks, so later chunks draw for fewer.
        monkeypatch.setattr(solvers, "_RK_BLOCK", block)
        problem = random_problem(80, 12, seed=30, kappa=20.0)
        config = SolverConfig(variant=variant, alpha=0.9, seed=7, max_iters=20_000)
        traces = run(problem, config, capture_iterates=True, trials=6)
        steps = [trace.iterations for trace in traces]
        assert min(steps) > 2 * block
        if variant == "rk" and block == 64:
            assert len({k // block for k in steps}) > 1
        for t, trace in enumerate(traces):
            assert trace.termination == "rse_tol"
            assert_same_run(trace, separate_run(problem, replace(config, seed=7 + t),
                                                capture=True))

    def test_momentum_trials_with_a_long_tail(self):
        # The first of 6 trials stops at step 24473 and the last at 25609; the
        # stopped trials' rows keep taking the heavy-ball term all that while.
        problem = gen_random_problem(RandomProblemSpec(m=100, n=20, r=20, kappa=20, seed=0))
        config = SolverConfig(variant="rk", beta=0.3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = run(problem, config, capture_iterates=True, trials=6)
        steps = [trace.iterations for trace in traces]
        assert (min(steps), max(steps)) == (24473, 25609)
        for t, trace in enumerate(traces):
            assert trace.termination == "rse_tol"
            assert_same_run(trace, run(problem, replace(config, seed=t), capture_iterates=True))

    def test_diverging_trials_end_nonfinite(self):
        problem = random_problem(30, 6, seed=34, kappa=3.0)
        config = SolverConfig(variant="rk", alpha=3.0, max_iters=100_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = run(problem, config, trials=4)
        for t, trace in enumerate(traces):
            assert trace.termination == "nonfinite"
            with np.errstate(over="ignore", invalid="ignore"):
                assert_same_run(trace, separate_run(problem, replace(config, seed=t)))

    @pytest.mark.parametrize("variant, alpha, beta", [("grk", 3.0, 0.0), ("mgrk", 1.0, 3.0)])
    def test_diverging_greedy_trials_end_nonfinite(self, variant, alpha, beta):
        problem = random_problem(30, 6, seed=34, kappa=3.0)
        config = SolverConfig(variant=variant, alpha=alpha, beta=beta, max_iters=100_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = run(problem, config, trials=4)
        for t, trace in enumerate(traces):
            assert trace.termination == "nonfinite"
            assert_same_run(trace, separate_run(problem, replace(config, seed=t)))

    @pytest.mark.parametrize("variant, known, storage, beta, batched", [
        ("rk", True, "dense", 0.0, True), ("cyclic", True, "dense", 0.0, True),
        ("grk", True, "dense", 0.0, False), ("mgrk", True, "dense", 0.3, False),
        ("rk", False, "dense", 0.0, False), ("grk", False, "dense", 0.0, False),
        ("rk", True, "csr", 0.0, False), ("grk", True, "csr", 0.0, False),
        ("cyclic", True, "dense", 0.3, False)])
    def test_batched_form_from_the_cutoff(self, monkeypatch, variant, known, storage, beta,
                                          batched):
        # Only dense rk and cyclic trials without momentum or residual take the
        # batched form, from the cutoff on; it updates the iterates without axpy_row.
        problem = random_problem(40, 8, seed=3, kappa=3.0)
        A = problem.A if storage == "dense" else RowAccessMatrix(sp.csr_array(problem.A.to_dense()))
        problem = Problem(A, problem.b, x_star=problem.x_star if known else None)
        updates, axpy_row = [], RowAccessMatrix.axpy_row

        def counted(self, i, coeff, out):
            updates.append(i)
            return axpy_row(self, i, coeff, out)

        monkeypatch.setattr(RowAccessMatrix, "axpy_row", counted)
        config = SolverConfig(variant=variant, beta=beta, seed=5, max_iters=500)
        for trials, per_trial in ((_LOCKSTEP_TRIALS - 1, True), (_LOCKSTEP_TRIALS, not batched)):
            updates.clear()
            traces = run(problem, config, trials=trials)
            steps = [i for trace in traces for i in trace.selections()]
            assert sorted(updates) == (sorted(steps) if per_trial else [])

    @pytest.mark.parametrize("trials", [0, 2.5, True, False])
    def test_trials_must_be_positive(self, trials):
        # True once ran one trial and returned its trace; 2.5 raised TypeError.
        with pytest.raises(ValueError, match="trials"):
            run(DIAG_PROBLEM, SolverConfig(), trials=trials)

    def test_rk_trials_round_trip_and_refuse_certification(self, tmp_path):
        problem = random_problem(60, 10, seed=4, kappa=3.0)
        traces = run(problem, SolverConfig(variant="rk", seed=2, max_iters=4000), trials=4)
        for t, trace in enumerate(traces):
            assert trace.set_size is None and trace.gamma is None and trace.res_sq is None
            loaded = read_trace_csv(write_trace_csv(trace, tmp_path / f"{t}.csv"))
            assert_same_steps(loaded, trace)
            assert loaded.index.dtype == np.int64 and np.array_equal(loaded.index, trace.index)
            assert np.array_equal(loaded.err_sq, trace.err_sq)
        with pytest.raises(ValueError, match="no gamma"):
            certify_trace(traces[0], smallest_nonzero_singular_value(problem.A) ** 2)


    @pytest.mark.parametrize("variant, beta", [("grk", 0.0), ("mgrk", 0.3)])
    def test_greedy_trials_past_the_residual_refresh(self, variant, beta):
        # 1500 steps: a residual refresh at step 1000.
        problem = random_problem(60, 10, seed=31, kappa=100.0)
        config = SolverConfig(variant=variant, beta=beta, seed=3, max_iters=1500)
        traces = run(problem, config, trials=4)
        for t, trace in enumerate(traces):
            assert trace.termination == "max_iters" and trace.iterations == 1500
            assert_same_run(trace, separate_run(problem, replace(config, seed=3 + t)))

    @pytest.mark.parametrize("prob_rule", ["residual", "uniform"])
    @pytest.mark.parametrize("variant, beta", [("grk", 0.0), ("mgrk", 0.3)])
    def test_greedy_trials_with_large_sets(self, prob_rule, variant, beta):
        # Sets of dozens of rows, of different sizes in one step's trials.
        problem = random_problem(400, 20, seed=9, kappa=5.0)
        config = SolverConfig(variant=variant, beta=beta, theta=0.1, prob_rule=prob_rule,
                              seed=11, max_iters=300)
        traces = run(problem, config, trials=5)
        assert max(trace.set_size.max() for trace in traces) > 64
        for t, trace in enumerate(traces):
            assert_same_run(trace, separate_run(problem, replace(config, seed=11 + t)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("variant, gamma_mode, beta", [
        ("grk", "exact", 0.0), ("grk", "lastrow", 0.0), ("grk", "frobenius", 0.0),
        ("mgrk", "exact", 0.3), ("mgrk", "lastrow", 0.0), ("mgrk", "frobenius", 0.3)])
    def test_converged_trials_stop_at_their_own_steps(self, seed, variant, gamma_mode, beta):
        # The rounding-floor systems: every trial ends converged at its own step,
        # and the others keep stepping.
        problem = rounding_floor_problem(seed, known=True)
        config = SolverConfig(variant=variant, gamma_mode=gamma_mode, beta=beta,
                              rse_tol=1e-300, seed=seed)
        traces = run(problem, config, trials=6)
        assert len({trace.iterations for trace in traces}) > 1
        for t, trace in enumerate(traces):
            assert trace.termination == "converged"
            assert_same_run(trace, separate_run(problem, replace(config, seed=seed + t)))

    @pytest.mark.parametrize("gamma_mode", ["exact", "lastrow", "frobenius"])
    def test_certificate_error_as_in_separate_runs(self, monkeypatch, gamma_mode):
        # A failed certificate ends a run converged in every gamma mode, for
        # trials as for a separate run.
        problem = random_problem(40, 8, seed=5, kappa=3.0)
        original = solvers.greedy_set

        def failing(scores, rss, gamma, theta):
            if rss < 1e-8:
                return np.empty(0, dtype=np.intp)
            return original(scores, rss, gamma, theta)

        monkeypatch.setattr(solvers, "greedy_set", failing)
        config = SolverConfig(variant="grk", gamma_mode=gamma_mode, seed=1)
        traces = run(problem, config, trials=4)
        for t, trace in enumerate(traces):
            assert trace.termination == "converged"
            assert_same_run(trace, separate_run(problem, replace(config, seed=1 + t)))

    @pytest.mark.parametrize("variant, beta", [("grk", 0.0), ("mgrk", 0.3)])
    def test_greedy_trials_capture_iterates(self, variant, beta):
        problem = random_problem(50, 8, seed=6, kappa=4.0)
        config = SolverConfig(variant=variant, beta=beta, alpha=0.7, seed=8)
        traces = run(problem, config, capture_iterates=True, trials=5)
        for t, trace in enumerate(traces):
            assert len(trace.iterates) == trace.iterations + 1
            assert_same_run(trace, separate_run(problem, replace(config, seed=8 + t),
                                                capture=True))

    @pytest.mark.parametrize("variant, beta", [("grk", 0.0), ("mgrk", 0.3)])
    def test_greedy_trials_round_trip(self, tmp_path, variant, beta):
        problem = random_problem(60, 10, seed=4, kappa=3.0)
        sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
        traces = run(problem, SolverConfig(variant=variant, beta=beta, seed=2),
                     trials=4)
        for t, trace in enumerate(traces):
            loaded = read_trace_csv(write_trace_csv(trace, tmp_path / f"{t}.csv"))
            assert_same_steps(loaded, trace)
            assert loaded.set_size.dtype == np.int64
            if variant == "grk":
                assert certify_trace(loaded, sigma_sq).passed

    @pytest.mark.parametrize("variant, beta, gamma_mode", [
        ("grk", 0.0, None), ("grk", 0.0, "lastrow"), ("mgrk", 0.4, None)])
    def test_trials_call_the_selection_functions_as_separate_runs_do(
            self, monkeypatch, variant, beta, gamma_mode):
        # The benchmark's selection spans wrap these module names; a run of T
        # trials makes one call to each per trial and step, as separate runs do,
        # and one more greedy_set call per failed certificate.
        calls = Counter()
        for name in ("greedy_set", "active_set_gamma", "sampling_distribution",
                     "sample_index"):
            def counted(*args, _name=name, _original=getattr(solvers, name)):
                calls[_name] += 1
                result = _original(*args)
                if _name == "greedy_set" and not result.size:
                    calls["failed certificates"] += 1
                return result

            monkeypatch.setattr(solvers, name, counted)
        problem = rounding_floor_problem(0, known=True)
        config = SolverConfig(variant=variant, beta=beta, gamma_mode=gamma_mode, seed=4,
                              rse_tol=1e-300)
        trials = 5
        separate = [run(problem, replace(config, seed=4 + t)) for t in range(trials)]
        expected = calls.copy()
        calls.clear()
        run(problem, config, trials=trials)
        assert calls == expected
        # Each step calls all four, and the select that ends a converged run the
        # first one and maybe greedy_set; a failed certificate costs exactly one
        # greedy_set call more than the steps take.
        assert all(trace.termination == "converged" for trace in separate)
        steps = sum(trace.iterations for trace in separate)
        assert expected["sample_index"] == expected["sampling_distribution"] == steps
        assert expected["active_set_gamma"] == steps + trials
        assert expected["greedy_set"] == steps + expected["failed certificates"]


def test_lastrow_gamma_of_a_dominant_row_keeps_its_certificate():
    # ||A||_F^2 - ||a_0||^2 would cancel to a few 1e-9 below ||a_1||^2, under the
    # active-set mass, so greedy_set's certificate failed for every seed and the
    # run ended converged after 2 steps, at a relative residual of 4.5e-9.
    mat = np.zeros((2, 10))
    mat[0, [1, 4, 8]] = [3.0, -5.0, 2.0]
    mat[1, [0, 4, 6]] = [0.7, 0.5, -0.6]
    mat[0] *= np.sqrt(8.9e7 / (mat[0] @ mat[0]))
    mat[1] *= np.sqrt(1.19 / (mat[1] @ mat[1]))
    A = RowAccessMatrix(mat)
    problem = Problem(A, A.matvec(np.random.default_rng(0).standard_normal(10)))
    b_sq = float(problem.b @ problem.b)
    for rse_tol in (1e-12, 1e-30):
        for seed in range(40):
            trace = run(problem, SolverConfig(variant="grk", gamma_mode="lastrow", seed=seed,
                                              rse_tol=rse_tol))
            # The tolerance, or the rounding floor below it.
            assert trace.res_sq[-1] <= max(rse_tol, 1e-20) * b_sq, (seed, rse_tol)


def test_lastrow_run_at_the_rounding_floor_ends_converged(tmp_path):
    # Rounding leaves the projected row's residual above zero, which lastrow's
    # gamma assumes it is, and leaves the quiet rows that exact-mode gamma
    # skips above zero; with ||r||^2 over every row no member reaches
    # ||r||^2/gamma, and a run that stopped there would end converged after 9,
    # 4, 12 and 9 steps at a relative error up to 9.4e-3.  With the
    # certificate retried over gamma's own rows, every mode reaches the
    # frobenius run's steps and error.
    path = tmp_path / "lr.mtx"
    scipy.io.mmwrite(path, np.array([[1e6, -1e6, 1e6], [0.0, 1e-5, 0.0]]))
    for seed in range(4):
        problem = load_problem(path, seed=seed)
        lastrow, exact, frobenius = (
            run(problem, SolverConfig(variant="grk", gamma_mode=mode, seed=seed))
            for mode in ("lastrow", "exact", "frobenius"))
        assert frobenius.iterations == {0: 11, 1: 16, 2: 14, 3: 11}[seed]
        assert frobenius.final_rse() < {0: 3e-6, 1: 2e-8, 2: 6e-8, 3: 3e-6}[seed]
        for trace in (lastrow, exact, frobenius):
            assert trace.termination == "converged"
            assert np.array_equal(trace.index, frobenius.index)
            assert np.array_equal(trace.final_x, frobenius.final_x)
            assert trace.final_rse() == frobenius.final_rse()


def image_bytes(image):
    return sum(getattr(part, "nbytes", 0) for part in image)


class TestImageCache:
    """The cache's admission rule, a budget by storage and bound, and its
    full-budget branch."""

    @staticmethod
    def record_caches(monkeypatch):
        made = []

        class Recording(solvers._ImageCache):
            def __init__(self, A):
                super().__init__(A)
                made.append(self)

        monkeypatch.setattr(solvers, "_ImageCache", Recording)
        return made

    @pytest.mark.parametrize("storage", ["dense", "csr", "csr-full-column", "csr-heavy-columns"])
    def test_image_bytes_bound(self, storage):
        if storage == "dense":
            A = random_problem(50, 8, seed=1).A
        elif storage == "csr":
            A = sparse_problem(80, 12, seed=31).A
        elif storage == "csr-full-column":
            # One column in every row: each image covers all m rows, so the bound is tight.
            A = RowAccessMatrix(sp.csr_array(np.arange(1.0, 31.0)[:, None]))
        else:
            # Few rows and many full columns: sum_j nnz(column j)^2 = 30 * 4^2 is
            # far above m^2 = 16, the bound, which each image meets by covering all
            # m rows.
            A = RowAccessMatrix(sp.csr_array(np.arange(1.0, 121.0).reshape(4, 30)))
            counts = np.diff(A._csc_copy().indptr)
            assert counts @ counts > A.m * A.m
        total = sum(image_bytes(A.row_image(i)) for i in range(A.m))
        bound = A.image_bytes_bound()
        assert total <= bound
        if storage != "csr":
            assert total == bound

    def test_each_admission_branch(self, monkeypatch):
        made = self.record_caches(monkeypatch)
        dense = random_problem(60, 10, seed=31, kappa=100.0)
        csr = sparse_problem(80, 12, seed=31)
        config = SolverConfig(variant="grk", seed=3, max_iters=1500)
        # The default budget holds every image of both problems.
        references = {"dense": run(dense, config), "csr": run(csr, config)}
        for storage, budget, kept in (
                ("dense", solvers._IMAGE_CACHE_BYTES, True),
                ("dense", 0, False),  # dense keeps first requests up to any budget
                ("csr", solvers._IMAGE_CACHE_BYTES, True),
                ("csr", csr.A.image_bytes_bound(), True),
                ("csr", csr.A.image_bytes_bound() - 1, False)):  # CSR gets no budget
            problem = dense if storage == "dense" else csr
            monkeypatch.setattr(solvers, "_IMAGE_CACHE_BYTES", budget)
            trace = run(problem, config)
            assert_same_run(trace, references[storage])
            cache = made[-1]
            picks = set(trace.index.tolist())
            assert set(cache) == (picks if kept else set())
            assert cache.free == (budget if kept else 0) - sum(map(image_bytes, cache.values()))
            assert cache.free >= 0

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("variant, beta", [("grk", 0.0), ("mgrk", 0.3)])
    @pytest.mark.parametrize("images", [0, 3])
    def test_full_budget_keeps_every_trace(self, monkeypatch, storage, variant, beta, images):
        # A budget of no image or of about three images fills up, so later
        # dense images are recomputed, and it is below the CSR bound, so every
        # CSR image is; each trial's trace keeps the bits of a run whose budget
        # holds every image.
        problem = (random_problem(60, 10, seed=31, kappa=100.0) if storage == "dense"
                   else sparse_problem(80, 12, seed=31))
        config = SolverConfig(variant=variant, beta=beta, seed=3, max_iters=1500)
        expected = run(problem, config, trials=3)
        made = self.record_caches(monkeypatch)
        budget = images * image_bytes(problem.A.row_image(0))
        assert budget < problem.A.image_bytes_bound()
        monkeypatch.setattr(solvers, "_IMAGE_CACHE_BYTES", budget)
        for trace, reference in zip(run(problem, config, trials=3), expected):
            assert_same_run(trace, reference)
        cache = made[-1]
        if storage == "csr":
            assert not cache and cache.free == 0
            return
        held = sum(map(image_bytes, cache.values()))
        assert cache.free == budget - held >= 0
        # The budget was full: more rows were requested than it held.
        assert len({i for t in expected for i in t.index.tolist()}) > len(cache)
        if images:
            assert cache


@pytest.mark.parametrize("variant, beta", [("grk", 0.0), ("mgrk", 0.3)])
def test_int32_csr_input_runs_on_intp_indices(variant, beta):
    # scipy.io.mmread and most scipy constructors give int32 indices; storage
    # widens them to intp, so images index without a cast and traces keep
    # their bits.
    csr = sparse_problem(80, 12, seed=31).A._csr
    built = {}
    for dtype in (np.int32, np.int64):
        matrix = sp.csr_array((csr.data, csr.indices.astype(dtype), csr.indptr.astype(dtype)),
                              shape=csr.shape)
        assert matrix.indices.dtype == dtype
        A = RowAccessMatrix(matrix)
        for arr in (A._csr.indices, A._csr.indptr, A._csc_copy().indices,
                    A._csc_copy().indptr, A.row_image(5)[0]):
            assert arr.dtype == np.intp
        b = A.matvec(np.random.default_rng(2).standard_normal(A.n))
        built[dtype] = run(Problem(A, b), SolverConfig(variant=variant, beta=beta, seed=5,
                                                        max_iters=400), trials=2)
    for trace, reference in zip(built[np.int32], built[np.int64]):
        assert_same_run(trace, reference)
