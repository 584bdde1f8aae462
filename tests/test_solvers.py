import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczmarz.analysis import certify_trace
from kaczmarz.linalg import (
    Problem,
    RowAccessMatrix,
    min_norm_solution,
    smallest_nonzero_singular_value,
)
from kaczmarz.solvers import (
    SolverConfig,
    SolverVariant,
    kaczmarz_step,
    run,
)

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
        assert SolverConfig(variant="grk").resolved_gamma_mode().value == "exact"
        assert SolverConfig(variant="mgrk").resolved_gamma_mode().value == "frobenius"
        assert SolverConfig(variant="grk", gamma_mode="lastrow").resolved_gamma_mode().value == "lastrow"

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(beta=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(theta=1.5)
        with pytest.raises(ValueError):
            SolverConfig(variant="grk", beta=0.5)
        SolverConfig(variant="mgrk", beta=0.5)  # momentum variant allows it

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


def row_residual_after(problem, rec, x):
    """|<a_i, x> - b_i| for the row a record projected onto and the iterate after it."""
    return abs(problem.A.row_dot(rec.index, x) - problem.b[rec.index])


def one_row(a_i, b_i):
    """A single-equation system <a_i, x> = b_i for stepping on row 0."""
    return RowAccessMatrix([a_i]), np.array([b_i], dtype=float)


def project(x, a_i, b_i, alpha=1.0):
    A, b = one_row(a_i, b_i)
    x = np.asarray(x, dtype=float)
    return kaczmarz_step(A, b, 0, x, x, alpha)[0]


class TestKaczmarzProject:
    def test_full_step_lands_on_hyperplane(self):
        out = project(np.zeros(2), [0.0, 2.0], 4.0)
        np.testing.assert_allclose(out, [0.0, 2.0])

    def test_point_on_hyperplane_unchanged(self):
        x = np.array([3.0, 2.0])
        out = project(x, [0.0, 2.0], 4.0)
        np.testing.assert_allclose(out, x)

    def test_half_step(self):
        out = project(np.zeros(2), [1.0, 0.0], 1.0, alpha=0.5)
        np.testing.assert_allclose(out, [0.5, 0.0])


class TestMomentumStep:
    def test_beta_zero_matches_projection(self):
        x, x_prev = np.array([0.3, -1.2]), np.array([5.0, 5.0])
        A, b = one_row([1.0, 2.0], 0.7)
        np.testing.assert_array_equal(
            kaczmarz_step(A, b, 0, x, x_prev, 1.0, 0.0)[0],
            project(x, [1.0, 2.0], 0.7))

    def test_hand_example(self):
        A, b = one_row([1.0, 0.0], 1.0)
        out, _ = kaczmarz_step(A, b, 0, np.array([0.0, 2.0]), np.zeros(2), alpha=1.0, beta=0.3)
        np.testing.assert_allclose(out, [1.0, 2.6])

    def test_first_step_reduces_to_projection(self):
        x = np.array([1.0, -2.0])
        A, b = one_row([0.0, 2.0], 4.0)
        np.testing.assert_allclose(
            kaczmarz_step(A, b, 0, x, x.copy(), 1.0, 0.9)[0],
            project(x, [0.0, 2.0], 4.0))


class TestResidualUpdate:
    def test_projection_zeroes_row(self):
        problem = random_problem(10, 4, seed=2)
        A, b = problem.A, problem.b
        x = np.zeros(4)
        r = A.matvec(x) - b
        _, r_new = kaczmarz_step(A, b, 3, x, x, r=r)
        assert abs(r_new[3]) <= 1e-12 * np.max(np.abs(b))

    def test_matches_rank_one_formula_3x3(self):
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((3, 3))
        A = RowAccessMatrix(mat)
        b = rng.standard_normal(3)
        x = rng.standard_normal(3)
        r = mat @ x - b
        i, alpha = 1, 0.8
        scale = alpha * r[i] / A.row_norms_sq[i]
        x_new = x - scale * mat[i]
        out_x, out_r = kaczmarz_step(A, b, i, x, x, alpha, r=r)
        np.testing.assert_allclose(out_x, x_new, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(out_r, mat @ x_new - b, rtol=1e-12, atol=1e-14)
        # Without the residual the step reads r_i from the row alone.
        np.testing.assert_allclose(kaczmarz_step(A, b, i, x, x, alpha)[0], x_new,
                                   rtol=1e-14, atol=1e-15)

    def test_drift_after_500_random_steps(self):
        problem = random_problem(30, 12, seed=9)
        A, b = problem.A, problem.b
        rng = np.random.default_rng(10)
        x = np.zeros(12)
        r = A.matvec(x) - b
        for _ in range(500):
            i = int(rng.integers(30))
            x, r = kaczmarz_step(A, b, i, x, x, r=r)
        exact = A.matvec(x) - b
        assert np.linalg.norm(r - exact) <= 1e-10 * max(1.0, np.linalg.norm(exact))

    def test_momentum_needs_previous_residual(self):
        problem = random_problem(5, 3, seed=1)
        x = np.zeros(3)
        r = problem.A.matvec(x) - problem.b
        with pytest.raises(ValueError):
            kaczmarz_step(problem.A, problem.b, 0, x, x, 0.5, beta=0.4, r=r)


class TestRunHandTrace:
    def test_two_step_solve(self):
        trace = run(DIAG_PROBLEM, SolverConfig(variant="grk", seed=0), capture_iterates=True)
        assert trace.iterations == 2
        assert trace.termination == "rse_tol"
        assert trace.selections() == [1, 0]
        assert [rec.gamma for rec in trace.records] == [5.0, 1.0]
        assert [rec.set_size for rec in trace.records] == [1, 1]
        np.testing.assert_allclose(trace.iterates[1], [0.0, 2.0])
        np.testing.assert_allclose(trace.iterates[2], [1.0, 2.0])
        np.testing.assert_allclose(trace.err_history(), [5.0, 1.0, 0.0])

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
        assert [r.err_sq for r in t1.records] == [r.err_sq for r in t2.records]
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
        assert [r.err_sq for r in grk.records] == [r.err_sq for r in mgrk.records]

    def test_monotone_error_without_momentum(self):
        problem = random_problem(50, 12, seed=16, kappa=20.0)
        for alpha in (0.5, 1.0, 1.5):
            trace = run(problem, SolverConfig(variant="grk", alpha=alpha, seed=3,
                                              max_iters=400))
            errs = trace.err_history()
            assert np.all(np.diff(errs) <= 1e-12 * errs[0])

    def test_zeroed_previous_row(self):
        problem = random_problem(45, 9, seed=17)
        trace = run(problem, SolverConfig(variant="grk", seed=4, max_iters=300),
                    capture_iterates=True)
        tol = 1e-10 * np.max(np.abs(problem.b))
        assert all(row_residual_after(problem, rec, x) <= tol
                   for rec, x in zip(trace.records, trace.iterates[1:]))

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
        assert trace.records[-1].res_sq / b_norm_sq <= 1e-14

    def test_rse_tol_bounds_the_residual_without_x_star(self):
        base = random_problem(30, 8, seed=21, kappa=3.0)
        problem = Problem(base.A, base.b)
        trace = run(problem, SolverConfig(variant="grk", seed=9, rse_tol=1e-4))
        assert trace.termination == "residual_tol"
        b_norm_sq = float(problem.b @ problem.b)
        assert trace.records[-1].res_sq / b_norm_sq <= 1e-4
        assert all(rec.res_sq / b_norm_sq > 1e-4 for rec in trace.records[:-1])

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
        for rec, x in zip(trace.records[::250], trace.iterates[1::250]):
            exact = float(np.sum((problem.A.matvec(x) - problem.b) ** 2))
            assert rec.res_sq == pytest.approx(exact, rel=1e-6, abs=1e-20)


class TestGammaModeOrdering:
    def test_exact_leq_lastrow_leq_frobenius_along_trace(self):
        from kaczmarz.selection import GammaMode, active_set_gamma, greedy_set, \
            sample_index, sampling_distribution

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
            indices = greedy_set(A, r * r / A.row_norms_sq, float(r @ r), g_exact)
            probs = sampling_distribution(r, indices, "residual")
            i = int(indices[sample_index(probs, rng)])
            x = x - (r[i] / A.row_norms_sq[i]) * A.to_dense()[i]
            last = i


def reference_row_action(problem, variant, seed, max_iters, rse_tol):
    """rk/cyclic as a loop that keeps the full residual r = Ax - b by rank-1 updates."""
    A, b, x_star = problem.A, problem.b, problem.x_star
    m, n = A.shape
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(A.row_norms_sq)
    x = np.zeros(n)
    r = A.matvec(x) - b
    selections = []
    for k in range(max_iters):
        if variant == "rk":
            i = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), m - 1)
        else:
            i = k % m
        coeff = r[i] / A.row_norms_sq[i]
        x = x - coeff * A.to_dense()[i]
        rows, values = A.row_image(i)
        r[rows] -= coeff * values
        selections.append(i)
        if np.sum((x - x_star) ** 2) / (x_star @ x_star) <= rse_tol:
            break
    return selections, x


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
        trace = run(problem, SolverConfig(variant=variant, seed=7, max_iters=20_000,
                                          rse_tol=1e-10))
        selections, x_ref = reference_row_action(problem, variant, 7, 20_000, 1e-10)
        assert trace.termination == "rse_tol"
        assert trace.selections() == selections
        assert np.linalg.norm(trace.final_x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("variant", ["rk", "cyclic"])
    def test_records_carry_no_residual(self, variant):
        problem = random_problem(40, 8, seed=32, kappa=3.0)
        trace = run(problem, SolverConfig(variant=variant, seed=2, max_iters=300),
                    capture_iterates=True)
        assert all(rec.res_sq is None for rec in trace.records)
        tol = 1e-10 * np.max(np.abs(problem.b))
        assert all(row_residual_after(problem, rec, x) <= tol
                   for rec, x in zip(trace.records, trace.iterates[1:]))

    @pytest.mark.parametrize("variant", ["rk", "cyclic"])
    def test_residual_stopping_without_x_star(self, variant):
        base = random_problem(30, 8, seed=33, kappa=3.0)
        problem = Problem(base.A, base.b)
        trace = run(problem, SolverConfig(variant=variant, seed=4, max_iters=50_000,
                                          rse_tol=1e-14), capture_iterates=True)
        assert trace.termination == "residual_tol"
        for rec, x in zip(trace.records, trace.iterates[1:]):
            exact = float(np.sum((problem.A.matvec(x) - problem.b) ** 2))
            assert rec.res_sq == pytest.approx(exact, rel=1e-6, abs=1e-24)
        b_norm_sq = float(problem.b @ problem.b)
        assert trace.records[-1].res_sq / b_norm_sq <= 1e-14

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
        errs = trace.err_history()
        assert np.all(np.diff(errs) <= 1e-12 * errs[0])


class TestNonfinite:
    def test_diverging_momentum_run_ends_nonfinite(self):
        problem = random_problem(200, 40, seed=0, kappa=3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(problem, SolverConfig(variant="mgrk", beta=3.0, seed=0, max_iters=5000))
        assert trace.termination == "nonfinite"
        assert not np.isfinite(trace.records[-1].res_sq)
        assert all(np.isfinite(rec.res_sq) for rec in trace.records[:-1])

    def test_diverging_residual_free_run_ends_nonfinite(self):
        problem = random_problem(30, 6, seed=34, kappa=3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(problem, SolverConfig(variant="cyclic", alpha=3.0, max_iters=100_000))
        assert trace.termination == "nonfinite"
        assert trace.records[-1].res_sq is None
        assert not np.isfinite(trace.records[-1].err_sq)

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
        assert first.records == second.records
        assert np.array_equal(first.final_x, second.final_x)


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
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((30, 8))
        mat[np.abs(mat) < 0.5] = 0.0
        mat[:, 0] += 1.0
        A = RowAccessMatrix(storage(mat))
        b = A.matvec(rng.standard_normal(8))
        trace = run(Problem(A, b), SolverConfig(variant=variant, gamma_mode=gamma_mode,
                                                beta=beta, rse_tol=1e-300))
        assert trace.termination == "converged"
        assert trace.records[-1].res_sq <= 1e-20 * float(b @ b)
