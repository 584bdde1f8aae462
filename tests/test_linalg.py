import numpy as np
import pytest
import scipy.sparse as sp

from kaczmarz.linalg import (
    InconsistentSystemError,
    Problem,
    RowAccessMatrix,
    min_norm_solution,
    smallest_nonzero_singular_value,
)

DIAG = [[1.0, 0.0], [0.0, 2.0]]


class TestRowAccessMatrix:
    def test_cached_norms_dense(self):
        A = RowAccessMatrix(DIAG)
        assert A.shape == (2, 2)
        np.testing.assert_allclose(A.row_norms_sq, [1.0, 4.0])
        assert A.frobenius_sq == 5.0
        A.validate()

    def test_cached_norms_sparse(self):
        A = RowAccessMatrix(sp.csr_array(np.array(DIAG)))
        assert A.is_sparse
        np.testing.assert_allclose(A.row_norms_sq, [1.0, 4.0])
        assert A.frobenius_sq == 5.0
        A.validate()

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
            np.testing.assert_allclose(S.row(i), dense[i])
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
            np.testing.assert_allclose(A.row_image(i), dense @ dense[i])
            np.testing.assert_allclose(S.row_image(i), dense @ dense[i], rtol=1e-13)

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
