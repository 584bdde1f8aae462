"""The benchmark's workloads: seeded problem builders and the methods raced on them.

The ``--seed`` argument seeds the solvers' random streams on every workload and
the sparse generator; the solvers only ever receive the generated ``Problem``.
The reason each workload exists sits beside its definition; ``BENCHMARK.json``
repeats it in one line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from kaczmarz import harness, linalg
from kaczmarz.solvers import SolverConfig


@dataclass(frozen=True)
class Method:
    label: str           # also the solver variant name
    config: SolverConfig
    trials: int
    certify: bool        # whether the benchmark certifies this method's traces
    refusable: bool = False  # whether certify_trace may refuse them: rk and cyclic
                             # record no gamma, and mgrk with beta=0.4 has an
                             # infeasible envelope; a refused grk trace fails


@dataclass(frozen=True)
class Setup:
    problem: linalg.Problem
    sigma_min_sq: float | None   # oracle for certification; None when not certified
    row_image_bytes: int         # bytes one row_image call reads and writes, computed
                                 # from array sizes for the current algorithm


@dataclass(frozen=True)
class Workload:
    name: str
    build: object                # build(seed) -> Setup
    methods: object              # methods(seed) -> tuple[Method, ...]
    certify_path: str            # "memory" (run_experiment) or "csv" (stored trace + cli)
    check: object = None         # check(seed) raises when the seed's inputs are unusable;
                                 # run once per run in a child process, outside set-up
                                 # (see bench.Runner.check_inputs and main below)


def _config(variant: str, seed: int, rse_tol: float, beta: float = 0.0) -> SolverConfig:
    return SolverConfig(variant=variant, beta=beta, seed=seed, rse_tol=rse_tol)


# The dense generator draws the spectrum uniformly from [1, kappa], so at 1000x100
# sigma_min, and with it the iteration count, moves by up to 50% between problem
# seeds.  Dense workloads therefore keep one matrix and take the benchmark seed for
# the solvers' random streams only, which keeps time to tolerance comparable
# across seeds.
DENSE_PROBLEM_SEED = 0


def _dense_setup(m: int, n: int, kappa: float) -> Setup:
    spec = harness.RandomProblemSpec(m=m, n=n, r=min(m, n), kappa=kappa, seed=DENSE_PROBLEM_SEED)
    problem = harness.gen_random_problem(spec)
    sigma_min = linalg.smallest_nonzero_singular_value(problem.A)
    # The generator draws every singular value from [1, kappa].
    if not 1.0 - 1e-8 <= sigma_min <= kappa * (1.0 + 1e-8):
        raise ValueError(f"sigma_min {sigma_min!r} lies outside the generated spectrum [1, {kappa}]")
    # GEMV: read A and a_i, write A a_i.
    return Setup(problem, sigma_min**2, 8 * (m * n + n + m))


# -- dense-multitrial ---------------------------------------------------------
# The `kaczmarz bench --certify` use: many cheap seeded trials on one small
# matrix.  It is bound by selection and driver overhead, and the 64 MB image
# cache holds every one of the 1000 rows, so residual updates mostly hit.
# Lockstep multi-trial execution shows here.


def _dense_multitrial_methods(seed: int):
    tol = 1e-12
    return (
        Method("grk", _config("grk", seed, tol), 8, True),
        Method("mgrk", _config("mgrk", seed, tol, beta=0.4), 8, True, refusable=True),
        Method("rk", _config("rk", seed, tol), 8, True, refusable=True),
    )


# -- dense-tall ---------------------------------------------------------------
# row_image is a GEMV on a 5000x500 matrix and dominates; the image cache holds
# only 1600 of the 5000 rows.  The same matrix carries variants that need the
# full residual (grk, mgrk) and variants that do not (rk, cyclic), so a residual
# change that helps one group at the other's cost shows within this workload.
# One trial per method is the case where lockstep execution is bypassed.  Greedy
# traces are certified on the stored-trace path: trace CSV, then `kaczmarz certify`.


def _dense_tall_methods(seed: int):
    tol = 1e-8
    return (
        Method("grk", _config("grk", seed, tol), 1, True),
        Method("mgrk", _config("mgrk", seed, tol, beta=0.4), 1, True, refusable=True),
        Method("rk", _config("rk", seed, tol), 1, False),
        Method("cyclic", _config("cyclic", seed, tol), 1, False),
    )


# -- sparse-tall --------------------------------------------------------------
# The only workload on the CSR path, where row_image densifies a_i and then runs
# a full SpMV.  No certification: a dense sigma_min at this size would dominate
# set-up.  rk is left out because it needs about 60k steps to reach the tolerance.


def sparse_tall_matrix(seed: int, m: int = 20000, n: int = 2000, per_row: int = 7):
    """CSR matrix with ``per_row`` distinct uniform columns per row and N(0,1) values,
    plus a Gaussian ``x_true``; the same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    cols = np.sort(rng.integers(0, n, size=(m, per_row)), axis=1)
    while True:
        dup = np.flatnonzero((np.diff(cols, axis=1) == 0).any(axis=1))
        if dup.size == 0:
            break
        cols[dup] = np.sort(rng.integers(0, n, size=(dup.size, per_row)), axis=1)
    values = rng.standard_normal((m, per_row))
    indptr = np.arange(0, m * per_row + 1, per_row)
    matrix = sp.csr_array((values.ravel(), cols.ravel(), indptr), shape=(m, n))
    return matrix, rng.standard_normal(n)


def full_column_rank(matrix) -> bool:
    """Cholesky of the Gram matrix succeeds with pivots clear of rounding."""
    gram = (matrix.T @ matrix).toarray()
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    pivots_sq = np.diag(chol) ** 2
    return bool(pivots_sq.min() > gram.shape[0] * np.finfo(float).eps * pivots_sq.max())


def check_sparse_rank(seed: int) -> None:
    """The seed's sparse matrix has full column rank, so x_true is the minimum-norm
    solution.  The check holds a dense Gram matrix and its factor (64 MB), so it
    is kept out of set-up time and the measured process's peak memory."""
    if not full_column_rank(sparse_tall_matrix(seed)[0]):
        raise ValueError(f"seed {seed}: generated sparse matrix is not of full column rank")


def _sparse_setup(seed: int) -> Setup:
    matrix, x_true = sparse_tall_matrix(seed)
    A = linalg.RowAccessMatrix(matrix)
    # Full column rank (check_sparse_rank) makes x_true the minimum-norm solution;
    # no SVD runs.
    problem = linalg.Problem(A, A.matvec(x_true), x_star=x_true)
    m, n = matrix.shape
    # Densify a_i, then SpMV: read the CSR arrays and the dense row, write A a_i.
    csr_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return Setup(problem, None, csr_bytes + 8 * n + 8 * n + 8 * m)


def _sparse_tall_methods(seed: int):
    tol = 1e-6
    return (
        Method("grk", _config("grk", seed, tol), 1, False),
        Method("mgrk", _config("mgrk", seed, tol, beta=0.4), 1, False),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-multitrial", lambda seed: _dense_setup(1000, 100, 10.0),
                 _dense_multitrial_methods, "memory"),
        Workload("dense-tall", lambda seed: _dense_setup(5000, 500, 2.0),
                 _dense_tall_methods, "csv"),
        Workload("sparse-tall", _sparse_setup, _sparse_tall_methods, "memory",
                 check=check_sparse_rank),
    )
}


def main(argv) -> int:
    """``workloads.py NAME SEED``: run workload NAME's input check on SEED; exit 0 if it holds."""
    name, seed = argv
    WORKLOADS[name].check(int(seed))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
