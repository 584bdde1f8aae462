import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaczmarz.linalg import (
    InconsistentSystemError,
    Problem,
    RowAccessMatrix,
    min_norm_solution,
    smallest_nonzero_singular_value,
)
from kaczmarz.solvers import SolverConfig, run
from trace_checks import assert_same_steps

DIAG = [[1.0, 0.0], [0.0, 2.0]]


def full_image(A, i):
    """A.row_image(i) as a dense m-vector."""
    rows, values = A.row_image(i)
    image = np.zeros(A.m)
    image[rows] = values
    return image


class TestRowAccessMatrix:
    def test_cached_norms_dense(self):
        A = RowAccessMatrix(DIAG)
        assert A.shape == (2, 2)
        np.testing.assert_allclose(A.row_norms_sq, [1.0, 4.0])
        assert A.frobenius_sq == 5.0 == A.row_norms_sq.sum()

    def test_cached_norms_sparse(self):
        A = RowAccessMatrix(sp.coo_array(([2.0, 1.0, 0.0], ([1, 0, 1], [1, 0, 0])), shape=(2, 2)))
        assert A.is_sparse
        np.testing.assert_allclose(A.row_norms_sq, [1.0, 4.0])
        assert A.frobenius_sq == 5.0 == A.row_norms_sq.sum()
        # Stored in canonical CSR: sorted, distinct, nonzero column indices.
        np.testing.assert_array_equal(A._csr.indptr, [0, 1, 2])
        np.testing.assert_array_equal(A._csr.indices, [0, 1])
        np.testing.assert_array_equal(A._csr.data, [1.0, 2.0])

    def test_zero_row_rejected_dense(self):
        with pytest.raises(ValueError, match="row 1"):
            RowAccessMatrix([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])

    def test_zero_row_rejected_sparse(self):
        mat = sp.csr_array(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="row 1"):
            RowAccessMatrix(mat)

    def test_explicit_zero_entries_do_not_mask_zero_row(self):
        # A stored zero is still a zero row.
        mat = sp.coo_array(([0.0, 1.0], ([0, 1], [1, 0])), shape=(2, 2))
        with pytest.raises(ValueError, match="row 0"):
            RowAccessMatrix(mat)

    def test_row_access_and_axpy(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((6, 4))
        A = RowAccessMatrix(dense)
        S = RowAccessMatrix(sp.csr_array(dense))
        x = rng.standard_normal(4)
        for i in range(6):
            assert A.row_dot(i, x) == pytest.approx(dense[i] @ x)
            assert S.row_dot(i, x) == pytest.approx(dense[i] @ x)
            out_a, out_s = x.copy(), x.copy()
            A.axpy_row(i, 0.7, out_a)
            S.axpy_row(i, 0.7, out_s)
            np.testing.assert_allclose(out_a, x + 0.7 * dense[i])
            np.testing.assert_allclose(out_s, out_a)

    def test_row_image(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((5, 3))
        A = RowAccessMatrix(dense)
        S = RowAccessMatrix(sp.csr_array(dense))
        for i in range(5):
            np.testing.assert_allclose(full_image(A, i), dense @ dense[i])
            np.testing.assert_allclose(full_image(S, i), dense @ dense[i], rtol=1e-13)

    def test_dense_sparse_residual_agreement(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((40, 17))
        dense[np.abs(dense) < 0.8] = 0.0
        dense[:, 0] = 1.0  # keep every row nonzero
        A = RowAccessMatrix(dense)
        S = RowAccessMatrix(sp.csr_array(dense))
        x = rng.standard_normal(17)
        b = rng.standard_normal(40)
        rd = A.matvec(x) - b
        rs = S.matvec(x) - b
        scale = np.max(np.abs(rd))
        np.testing.assert_allclose(rs, rd, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("storage", [np.array, sp.csr_array])
    def test_non_finite_entries_rejected(self, storage):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="NaN or infinite"):
                RowAccessMatrix(storage(np.array([[1.0, bad], [0.0, 1.0]])))

    def test_immutability(self):
        A = RowAccessMatrix(DIAG)
        with pytest.raises(ValueError):
            A.to_dense()[0, 0] = 9.0
        with pytest.raises(ValueError):
            A.row_norms_sq[0] = 9.0


class TestSmallestSingularValue:
    def test_identity(self):
        assert smallest_nonzero_singular_value(RowAccessMatrix(np.eye(2))) == pytest.approx(1.0)

    def test_diagonal(self):
        assert smallest_nonzero_singular_value(RowAccessMatrix(DIAG)) == pytest.approx(1.0)

    def test_rank_deficient_skips_zero(self):
        # A^T A = diag(5, 0): the only nonzero singular value is sqrt(5).
        A = RowAccessMatrix([[1.0, 0.0], [2.0, 0.0]])
        assert smallest_nonzero_singular_value(A) == pytest.approx(2.23606797749979, rel=1e-12)

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((30, 8))
        got = smallest_nonzero_singular_value(RowAccessMatrix(mat))
        assert got == pytest.approx(np.linalg.svd(mat, compute_uv=False).min(), rel=1e-12)


class TestMinNormSolution:
    def test_identity(self):
        A = RowAccessMatrix(np.eye(2))
        np.testing.assert_allclose(min_norm_solution(A, [1.0, 2.0]), [1.0, 2.0])

    def test_rank_deficient_minimal_norm(self):
        A = RowAccessMatrix([[1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(min_norm_solution(A, [1.0, 2.0]), [1.0, 0.0], atol=1e-12)

    def test_diagonal(self):
        A = RowAccessMatrix(DIAG)
        np.testing.assert_allclose(min_norm_solution(A, [1.0, 4.0]), [1.0, 2.0])

    def test_inconsistent_system_rejected(self):
        A = RowAccessMatrix([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(InconsistentSystemError):
            min_norm_solution(A, [1.0, 0.0])


class TestProblem:
    def test_consistency_enforced(self):
        A = RowAccessMatrix(DIAG)
        Problem(A, [1.0, 4.0], x_star=[1.0, 2.0])
        with pytest.raises(InconsistentSystemError):
            Problem(A, [1.0, 4.0], x_star=[1.0, 0.0])

    def test_shape_checks(self):
        A = RowAccessMatrix(DIAG)
        with pytest.raises(ValueError):
            Problem(A, [1.0, 4.0, 5.0])

    def test_non_finite_vectors_rejected(self):
        A = RowAccessMatrix(DIAG)
        with pytest.raises(ValueError, match="b has NaN or infinite"):
            Problem(A, [np.inf, 1.0])
        with pytest.raises(ValueError, match="x_star has NaN or infinite"):
            Problem(A, [1.0, 4.0], x_star=[np.nan, 2.0])


def test_spectral_lower_bound_on_range_vectors():
    # ||A(x - x*)||^2 >= sigma_min^2 ||x - x*||^2 when x - x* lies in Range(A^T).
    rng = np.random.default_rng(19)
    for trial in range(20):
        m, n = rng.integers(4, 25), rng.integers(3, 12)
        mat = rng.standard_normal((m, n))
        A = RowAccessMatrix(mat)
        x_true = rng.standard_normal(n)
        b = mat @ x_true
        x_star = min_norm_solution(A, b)
        sigma_sq = smallest_nonzero_singular_value(A) ** 2
        # Project a random direction onto Range(A^T) and offset from x*.
        q, _ = np.linalg.qr(mat.T)
        rank = np.linalg.matrix_rank(mat)
        d = q[:, :rank] @ (q[:, :rank].T @ rng.standard_normal(n))
        x = x_star + d
        lhs = float(np.linalg.norm(mat @ (x - x_star)) ** 2)
        rhs = sigma_sq * float(np.linalg.norm(x - x_star) ** 2)
        assert lhs >= rhs * (1.0 - 1e-9)


# Seeded sparse test matrices: banded, random density, and a tall case with
# about 2 nonzeros per row shaped like ash958.  Each row has at least one entry.


def banded_matrix(m=300, n=120, half_width=3, seed=0):
    rng = np.random.default_rng(seed)
    centre = (np.arange(m) * n) // m
    cols = np.clip(centre[:, None] + np.arange(-half_width, half_width + 1), 0, n - 1)
    rows = np.repeat(np.arange(m), cols.shape[1])
    coo = sp.coo_array((rng.standard_normal(rows.size), (rows, cols.ravel())), shape=(m, n))
    return sp.csr_array(coo)  # duplicates at the clipped edges are summed


def random_density_matrix(m=250, n=90, density=0.05, seed=0):
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    mask[np.arange(m), rng.integers(0, n, m)] = True
    return sp.csr_array(np.where(mask, rng.standard_normal((m, n)), 0.0))


def two_per_row_matrix(m=958, n=292, seed=0):
    rng = np.random.default_rng(seed)
    cols = np.sort(np.stack([rng.permutation(n)[:2] for _ in range(m)]), axis=1)
    values = rng.standard_normal((m, 2))
    return sp.csr_array((values.ravel(), cols.ravel(), np.arange(0, 2 * m + 1, 2)), shape=(m, n))


def mixed_sparse_array(seed, m, n, density):
    """Dense m x n array with about ``density`` of its entries nonzero, at least
    one per row, and magnitudes spread over 10^-4..10^4; at low density it has
    empty columns and single-entry rows, and rows share columns at any."""
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    mask[np.arange(m), rng.integers(0, n, m)] = True
    values = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-4, 5, (m, n))
    return np.where(mask, values, 0.0)


def spmv_row_image(self, i):
    """The reference formula: densify a_i, then a full CSR SpMV, with every
    row as the support."""
    lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
    a_i = np.zeros(self.n)
    a_i[self._csr.indices[lo:hi]] = self._csr.data[lo:hi]
    return np.arange(self.m), self._csr @ a_i


class TestSparseRowImage:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 12), n=st.integers(1, 12),
           density=st.floats(0.0, 1.0))
    @example(seed=0, m=1, n=9, density=0.5)
    @example(seed=1, m=9, n=1, density=0.5)
    @example(seed=2, m=12, n=12, density=0.0)  # single-entry rows, empty columns
    def test_gather_equals_spmv(self, seed, m, n, density):
        dense = mixed_sparse_array(seed, m, n, density)
        csr = sp.csr_array(dense)
        S = RowAccessMatrix(csr)
        for i in range(m):
            rows, values = S.row_image(i)
            spmv = csr @ dense[i]
            assert np.all(np.diff(rows) > 0)  # sorted and distinct
            assert np.array_equal(values, spmv[rows])
            assert not np.delete(spmv, rows).any()  # the image is zero off rows
            scale = float(np.max(np.abs(dense) @ np.abs(dense[i])))
            np.testing.assert_allclose(full_image(S, i), S.to_dense() @ dense[i], rtol=1e-12,
                                       atol=1e-12 * scale)

    def test_csc_copy_is_lazy_and_read_only(self):
        S = RowAccessMatrix(banded_matrix(m=20, n=8))
        assert S._csc is None
        S.row_image(3)
        for arr in (S._csc.data, S._csc.indices, S._csc.indptr):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("matrix", [banded_matrix, random_density_matrix,
                                        two_per_row_matrix])
    @pytest.mark.parametrize("config", [SolverConfig(variant="grk", max_iters=1500),
                                        SolverConfig(variant="mgrk", beta=0.3, max_iters=1500)],
                             ids=["grk", "mgrk"])
    @pytest.mark.parametrize("with_x_star", [True, False])
    def test_traces_match_the_spmv_formula(self, monkeypatch, matrix, config, with_x_star):
        A = RowAccessMatrix(matrix())
        b = A.matvec(np.random.default_rng(1).standard_normal(A.n))
        problem = Problem(A, b, x_star=min_norm_solution(A, b) if with_x_star else None)
        gathered = run(problem, config)
        monkeypatch.setattr(RowAccessMatrix, "row_image", spmv_row_image)
        reference = run(problem, config)
        assert gathered.termination == reference.termination
        assert_same_steps(gathered, reference)
        assert np.array_equal(gathered.final_x, reference.final_x)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 15), n=st.integers(1, 10),
           density=st.floats(0.0, 0.6),
           mode_beta=st.sampled_from([("exact", 0.0), ("exact", 0.3), ("lastrow", 0.0),
                                      ("frobenius", 0.0), ("frobenius", 0.3)]),
           prob_rule=st.sampled_from(["residual", "uniform"]), with_x_star=st.booleans(),
           max_iters=st.just(300))
    # Ill-conditioned enough to run past the REFRESH_EVERY = 1000 residual refresh.
    @example(seed=0, m=15, n=10, density=0.3, mode_beta=("exact", 0.0), prob_rule="residual",
             with_x_star=False, max_iters=1500)
    # A last row with nearly all of ||A||_F^2, where gamma once cancelled below the
    # active-set mass and the run raised GreedyCertificateError.
    @example(seed=344, m=2, n=10, density=0.25, mode_beta=("lastrow", 0.0),
             prob_rule="residual", with_x_star=False, max_iters=300)
    def test_support_updates_equal_full_updates(self, seed, m, n, density, mode_beta,
                                                prob_rule, with_x_star, max_iters):
        """Updating r and the selection state on the image's support only gives the
        same steps and iterate as updating every row."""
        gamma_mode, beta = mode_beta
        dense = mixed_sparse_array(seed, m, n, density)
        A = RowAccessMatrix(sp.csr_array(dense))
        b = A.matvec(np.random.default_rng(seed).standard_normal(n))
        problem = Problem(A, b, x_star=min_norm_solution(A, b) if with_x_star else None)
        config = SolverConfig(variant="mgrk" if beta else "grk", beta=beta,
                              gamma_mode=gamma_mode, prob_rule=prob_rule, seed=seed,
                              max_iters=max_iters, rse_tol=1e-30)
        gathered = run(problem, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RowAccessMatrix, "row_image", spmv_row_image)
            reference = run(problem, config)
        assert gathered.termination == reference.termination
        assert_same_steps(gathered, reference)
        assert np.array_equal(gathered.final_x, reference.final_x)
