"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1-3 share one 50-problem greedy-solver suite; criterion 7
needs the external ash958 matrix and skips itself when the file is absent.
"""

import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from kaczmarz.analysis import (
    beta_upper,
    certify_trace,
    gamma_leaveout,
    iteration_complexity,
    momentum_factors,
)
from kaczmarz.harness import (
    ExperimentSpec,
    RandomProblemSpec,
    gen_random_problem,
    load_problem_from_file,
    run_experiment,
)
from kaczmarz.linalg import Problem, RowAccessMatrix, smallest_nonzero_singular_value
from kaczmarz.solvers import SolverConfig, run

SLACK_SCALE = 1e-9


@contextmanager
def verdict(criterion: str, detail: str = ""):
    try:
        yield
    except AssertionError:
        print(f"\n[{criterion}] FAIL")
        raise
    print(f"\n[{criterion}] PASS  {detail}".rstrip())


def _suite_problems():
    # m x 50 problems covering full/deficient rank and two condition levels.
    combos = [(m, rank, kappa)
              for m in (100, 500) for rank in (50, 35) for kappa in (5.0, 40.0)]
    for i in range(50):
        m, rank, kappa = combos[i % len(combos)]
        yield RandomProblemSpec(m=m, n=50, r=rank, kappa=kappa, seed=i)


@pytest.fixture(scope="module")
def greedy_suite():
    """50 exact-mode greedy runs with their spectral constants."""
    suite = []
    for spec in _suite_problems():
        problem = gen_random_problem(spec)
        sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
        gamma = gamma_leaveout(problem.A)
        # The pathwise checks constrain every executed iteration; a fixed
        # budget keeps the 50-problem sweep in seconds.
        trace = run(problem, SolverConfig(variant="grk", gamma_mode="exact",
                                          seed=1000 + spec.seed, max_iters=1200),
                    capture_iterates=True)
        suite.append((spec, problem, trace, sigma_sq, gamma))
    return suite


def test_criterion_1_per_step_contraction(greedy_suite):
    total_steps = 0
    with verdict("criterion 1: per-step contraction",
                 "zero violations across all iterations of 50 runs"):
        for spec, problem, trace, sigma_sq, _ in greedy_suite:
            slack = SLACK_SCALE * trace.initial_err_sq
            prev = trace.initial_err_sq
            for k, (gamma, err_sq) in enumerate(zip(trace.gamma.tolist(), trace.err_sq.tolist())):
                bound = (1.0 - sigma_sq / gamma) * prev + slack
                assert err_sq <= bound, f"violation at k={k} on {spec}: {err_sq} > {bound}"
                prev = err_sq
            total_steps += trace.iterations
            result = certify_trace(trace, sigma_sq)
            assert result.passed, f"certifier disagrees on {spec}: {result}"
        assert total_steps > 0
    print(f"    checked {total_steps} iterations")


def test_criterion_2_global_deterministic_bound(greedy_suite):
    with verdict("criterion 2: global k-step bound",
                 "pathwise on the same 50-run suite"):
        for spec, problem, trace, sigma_sq, gamma in greedy_suite:
            assert sigma_sq <= gamma < trace.frobenius_sq
            err0 = trace.initial_err_sq
            slack = SLACK_SCALE * err0
            first = 1.0 - sigma_sq / trace.frobenius_sq
            step = 1.0 - sigma_sq / gamma
            # err_sq[k - 1] belongs to the iterate after step k - 1.
            for k, err_sq in enumerate(trace.err_sq.tolist(), 1):
                bound = step ** (k - 1) * first * err0 + slack
                assert err_sq <= bound, f"violation at k={k} on {spec}: {err_sq} > {bound}"


def test_criterion_3_zeroed_previous_row(greedy_suite):
    with verdict("criterion 3: previously hit row has zero residual"):
        for spec, problem, trace, _, _ in greedy_suite:
            tol = 1e-10 * np.max(np.abs(problem.b))
            worst = max((abs(problem.A.row_dot(i, x) - problem.b[i])
                         for i, x in zip(trace.selections(), trace.iterates[1:])), default=0.0)
            assert worst <= tol, f"{spec}: |r[i_prev]| = {worst} > {tol}"


def test_criterion_4_momentum_envelope():
    combos = [(rank, kappa) for rank in (40, 28) for kappa in (3.0, 8.0)]
    with verdict("criterion 4: momentum envelope",
                 "beta = 0.9 * feasible bound on 20 problems"):
        for i in range(20):
            rank, kappa = combos[i % len(combos)]
            spec = RandomProblemSpec(m=150, n=40, r=rank, kappa=kappa, seed=200 + i)
            problem = gen_random_problem(spec)
            sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
            beta = 0.9 * beta_upper(1.0, sigma_sq, problem.A.frobenius_sq)
            report = momentum_factors(1.0, beta, sigma_sq, problem.A.frobenius_sq)
            assert report.feasible
            trace = run(problem, SolverConfig(variant="mgrk", alpha=1.0, beta=beta,
                                              seed=300 + i, max_iters=30_000))
            err0 = trace.initial_err_sq
            slack = SLACK_SCALE * err0
            for k, err_sq in enumerate(trace.err_sq.tolist()):
                bound = report.q ** k * (1.0 + report.delta) * err0 + slack
                assert err_sq <= bound, f"violation at k={k} on {spec}: {err_sq} > {bound}"
            assert certify_trace(trace, sigma_sq).passed


def test_criterion_5_iteration_complexity():
    with verdict("criterion 5: reaches target within K2",
                 "epsilon = 1e-10 * err0; K2 <= K1 for rho in {0.1, 0.5, 0.9}"):
        for i in range(20):
            rank = 25 if i % 2 == 0 else 18
            kappa = 2.0 if i % 4 < 2 else 6.0
            spec = RandomProblemSpec(m=100, n=25, r=rank, kappa=kappa, seed=400 + i)
            problem = gen_random_problem(spec)
            sigma_sq = smallest_nonzero_singular_value(problem.A) ** 2
            err0 = float(np.add.reduce(problem.x_star * problem.x_star))  # x0 = 0; as run sums it
            epsilon = 1e-10 * err0
            k2 = (problem.A.frobenius_sq / sigma_sq) * math.log(err0 / epsilon)
            # Squared error <= epsilon is exactly RSE <= 1e-10 since err0 = ||x*||^2.
            trace = run(problem, SolverConfig(variant="grk", gamma_mode="exact",
                                              seed=500 + i, rse_tol=1e-10,
                                              max_iters=int(math.ceil(k2)) + 1))
            assert trace.termination == "rse_tol", f"{spec}: did not converge"
            assert trace.iterations <= k2, (
                f"{spec}: {trace.iterations} iterations > K2 = {k2:.1f}")
            assert trace.err_sq[-1] <= epsilon * (1.0 + 1e-9)
            for rho in (0.1, 0.5, 0.9):
                rep = iteration_complexity(sigma_sq, problem.A.frobenius_sq,
                                           err0, epsilon, rho)
                assert rep.K2 <= rep.K1


def test_criterion_6_momentum_speedup():
    spec = ExperimentSpec(
        source=RandomProblemSpec(m=1000, n=100, r=100, kappa=10.0, seed=2026),
        methods=[
            ("grk", SolverConfig(variant="grk", seed=0, max_iters=200_000)),
            ("mgrk", SolverConfig(variant="mgrk", alpha=1.0, beta=0.4, theta=0.5,
                                  gamma_mode="frobenius", seed=0, max_iters=200_000)),
        ],
        trials=20)
    result = run_experiment(spec)
    grk, mgrk = result.methods
    ratio = mgrk.mean_iters / grk.mean_iters
    with verdict("criterion 6: momentum speedup",
                 f"mean iters {mgrk.mean_iters:.1f} vs {grk.mean_iters:.1f} "
                 f"(ratio {ratio:.3f} <= 0.8)"):
        assert grk.hit_max_iters == 0 and mgrk.hit_max_iters == 0
        assert mgrk.mean_iters <= 0.8 * grk.mean_iters, f"ratio {ratio:.3f} > 0.8"


def _find_ash958():
    candidates = [os.environ.get("KACZMARZ_ASH958", "")]
    here = Path(__file__).resolve().parent
    for base in (here.parent, here):
        candidates += [str(base / "data" / "ash958.mtx"), str(base / "ash958.mtx")]
    for cand in candidates:
        if cand and Path(cand).is_file():
            return Path(cand)
    return None


def test_criterion_7_ash958_spot_check():
    path = _find_ash958()
    if path is None:
        print("\n[criterion 7: ash958 spot check] SKIP  (data/ash958.mtx not present)")
        pytest.skip("ash958.mtx not available; criterion skipped, not failed")
    problem = load_problem_from_file(path, seed=42)
    spec = ExperimentSpec(
        source=str(path),
        methods=[
            ("grk", SolverConfig(variant="grk", gamma_mode="frobenius",
                                 seed=0, max_iters=200_000)),
            ("mgrk", SolverConfig(variant="mgrk", beta=0.1, seed=0, max_iters=200_000)),
        ],
        trials=20)
    result = run_experiment(spec, problem=problem)
    grk, mgrk = result.methods
    with verdict("criterion 7: ash958 spot check",
                 f"grk {grk.mean_iters:.1f} in [1100, 2100], "
                 f"mgrk {mgrk.mean_iters:.1f} in [1000, 1900]"):
        assert 1100 <= grk.mean_iters <= 2100
        assert 1000 <= mgrk.mean_iters <= 1900
        assert mgrk.mean_iters < grk.mean_iters


def test_criterion_8_hand_oracle_trace():
    A = RowAccessMatrix([[1.0, 0.0], [0.0, 2.0]])
    problem = Problem(A, [1.0, 4.0], x_star=[1.0, 2.0])
    trace = run(problem, SolverConfig(variant="grk", gamma_mode="exact", seed=0),
                capture_iterates=True)
    with verdict("criterion 8: 2x2 hand trace",
                 "selections (row 2 then row 1), gammas (5, 1), factors (0.8, 0)"):
        assert trace.iterations == 2 and trace.termination == "rse_tol"
        assert trace.selections() == [1, 0]  # rows 2 then 1, zero-based
        assert trace.set_size.tolist() == [1, 1]
        np.testing.assert_allclose(trace.iterates[1], [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(trace.iterates[2], [1.0, 2.0], atol=1e-12)
        gammas = trace.gamma.tolist()
        assert abs(gammas[0] - 5.0) <= 1e-12 and abs(gammas[1] - 1.0) <= 1e-12
        sigma_sq = smallest_nonzero_singular_value(A) ** 2
        factors = [1.0 - sigma_sq / g for g in gammas]
        assert abs(factors[0] - 0.8) <= 1e-12 and abs(factors[1]) <= 1e-12
        errs = np.concatenate(([trace.initial_err_sq], trace.err_sq))
        np.testing.assert_allclose(errs, [5.0, 1.0, 0.0], atol=1e-12)
        assert errs[1] <= factors[0] * errs[0] + 1e-12
        assert errs[2] <= factors[1] * errs[1] + 1e-12


def test_criterion_9_analysis_formula_units():
    with verdict("criterion 9: analysis formulas",
                 "momentum, beta bound, and complexity constants at 1e-9 relative"):
        # Substitution at alpha=1, beta=0, ratio 0.2 (the formula gives
        # 1 - (2 - 1) * 0.2 = 0.8); exact collapse q = gamma1, delta = 0.
        rep = momentum_factors(1.0, 0.0, 1.0, 5.0)
        assert abs(rep.gamma1 - 0.8) <= 1e-9 * 0.8
        assert rep.gamma2 == 0.0 and rep.q == rep.gamma1 and rep.delta == 0.0

        rep = momentum_factors(1.0, 0.1, 1.0, 5.0)
        assert abs(rep.gamma1 - 1.06) <= 1e-9 * 1.06
        assert abs(rep.gamma2 - 0.12) <= 1e-9 * 0.12
        assert not rep.feasible

        rep = momentum_factors(1.0, 0.05, 1.0, 5.0)
        assert abs(rep.gamma1 - 0.925) <= 1e-9 * 0.925
        assert abs(rep.gamma2 - 0.055) <= 1e-9 * 0.055
        assert rep.feasible
        assert abs(rep.q - 0.9810617128172885) <= 1e-9 * rep.q

        bound = beta_upper(1.0, 1.0, 5.0)
        assert abs(bound - 0.05523431780746363) <= 1e-9 * bound
        assert momentum_factors(1.0, 0.9 * bound, 1.0, 5.0).feasible
        assert not momentum_factors(1.0, 1.1 * bound, 1.0, 5.0).feasible
        assert beta_upper(1.0, 1e-14, 1.0) <= 1e-12  # vanishing-ratio limit

        rep = iteration_complexity(1.0, 5.0, 5.0, 5e-12, 0.5)
        assert abs(rep.K2 - 138.15510557964274) <= 1e-9 * rep.K2
        assert abs(rep.K1 - 141.62084148244247) <= 1e-9 * rep.K1
        rep = iteration_complexity(1.0, 5.0, 1.0, math.exp(-1.0), math.exp(-1.0))
        assert abs(rep.K2 - 5.0) <= 1e-9 * 5.0
        assert abs(rep.K1 - 10.0) <= 1e-9 * 10.0
