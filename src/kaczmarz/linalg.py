"""Row-access matrices and the dense spectral oracles built on top of them.

Every solver in this package touches the matrix only through per-row dot
products, row axpy updates, row images A a_i, and full matvecs, so dense and
CSR storage sit behind a single class that caches the squared row norms once
at construction.  The SVD-based helpers (smallest nonzero singular value,
minimum-norm solution) are analysis and test utilities for desk-scale
matrices; they never run on the solver hot path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "InconsistentSystemError",
    "RowAccessMatrix",
    "Problem",
    "smallest_nonzero_singular_value",
    "min_norm_solution",
]

# Consistency test for Ax = b, relative to max(1, ||b||_2).
CONSISTENCY_RTOL = 1e-8


class InconsistentSystemError(ValueError):
    """Raised when a right-hand side is not (numerically) in Range(A)."""


def _as_vector(v, length: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).ravel()
    if arr.shape[0] != length:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {length}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has NaN or infinite entries")
    return arr


class RowAccessMatrix:
    """An immutable m-by-n matrix with cached squared row norms.

    Accepts a dense 2-D array-like or any scipy sparse matrix (stored in
    canonical CSR form).  NaN or infinite entries and rows with zero norm are
    rejected outright: every row must define a hyperplane for projection
    methods to make sense.  ``row_image`` returns one format for both storage
    kinds, ``(rows, values)``: a full slice and a dense vector for dense
    storage, the image's support and its entries for sparse storage.  Sparse
    storage builds a CSC copy (8 bytes plus the index itemsize per nonzero)
    on the first ``row_image`` or ``image_bytes_bound`` call, for its column
    gather.
    """

    def __init__(self, matrix):
        if sp.issparse(matrix):
            csr = sp.csr_array(matrix, dtype=np.float64, copy=True)
            csr.sum_duplicates()
            csr.sort_indices()
            csr.eliminate_zeros()
            if csr.shape[0] < 1 or csr.shape[1] < 1:
                raise ValueError("matrix must have at least one row and column")
            self._dense = None
            self._csr = csr
            self._csc = None
            values = csr.data
            sq = csr.copy()
            sq.data **= 2
            self.row_norms_sq = np.asarray(sq.sum(axis=1)).ravel()
            for arr in (csr.data, csr.indices, csr.indptr):
                arr.setflags(write=False)
        else:
            dense = np.array(matrix, dtype=np.float64, copy=True, order="C")
            if dense.ndim != 2:
                raise ValueError(f"expected a 2-D matrix, got ndim={dense.ndim}")
            if dense.shape[0] < 1 or dense.shape[1] < 1:
                raise ValueError("matrix must have at least one row and column")
            self._dense = dense
            self._csr = None
            values = dense
            self.row_norms_sq = np.einsum("ij,ij->i", dense, dense)
            dense.setflags(write=False)

        if not np.isfinite(values).all():
            raise ValueError("matrix has NaN or infinite entries")
        zero_rows = np.flatnonzero(self.row_norms_sq == 0.0)
        if zero_rows.size:
            raise ValueError(
                f"row {int(zero_rows[0])} has zero norm "
                f"({zero_rows.size} zero row(s) total); all rows must be nonzero"
            )
        self.row_norms_sq.setflags(write=False)
        self.frobenius_sq = float(self.row_norms_sq.sum())

    # -- shape -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._dense.shape if self._dense is not None else self._csr.shape

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]

    @property
    def is_sparse(self) -> bool:
        return self._csr is not None

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return f"RowAccessMatrix({self.m}x{self.n}, {kind})"

    # -- row access ---------------------------------------------------------

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """<a_i, x> without densifying sparse rows."""
        if self._dense is not None:
            return float(self._dense[i] @ x)
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return float(self._csr.data[lo:hi] @ x[self._csr.indices[lo:hi]])

    def axpy_row(self, i: int, coeff: float, out: np.ndarray) -> None:
        """In-place out += coeff * a_i."""
        if self._dense is not None:
            out += coeff * self._dense[i]
        else:
            lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
            out[self._csr.indices[lo:hi]] += coeff * self._csr.data[lo:hi]

    def row_image(self, i: int) -> tuple[np.ndarray | slice, np.ndarray]:
        """A @ a_i, the image of row i, as ``(rows, values)`` with
        ``(A @ a_i)[rows] == values`` and zero elsewhere.

        This is the rank-1 residual-update direction, so a caller updates
        ``r[rows]`` only.  Dense storage returns ``rows = slice(None)`` and the
        GEMV.  Sparse storage gathers sum_{j in supp(a_i)} a_ij A[:, j] from
        the CSC copy in O(sum of those columns' nnz) instead of a full SpMV;
        it is no faster when those columns hold a large share of nnz(A).
        ``rows`` is then the sorted, distinct set of rows the gather touches,
        and each value adds its terms in ascending column order, as CSR SpMV
        does, so ``values`` is bitwise ``(csr @ densified a_i)[rows]``.
        """
        if self._dense is not None:
            return slice(None), self._dense @ self._dense[i]
        csc = self._csc_copy()
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        cols = self._csr.indices[lo:hi]
        starts = csc.indptr[cols]
        counts = csc.indptr[cols + 1] - starts
        # Positions of the gathered entries in the CSC arrays, column by column.
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        pos = shift + np.arange(shift.size)
        weights = np.repeat(self._csr.data[lo:hi], counts) * csc.data[pos]
        hit = csc.indices[pos]
        image = np.bincount(hit, weights=weights, minlength=self.m)
        # The distinct rows hit, by a sort: np.unique took about 7x as long here.
        hit = np.sort(hit)
        first = np.empty(hit.size, dtype=bool)
        first[:1] = True
        np.not_equal(hit[1:], hit[:-1], out=first[1:])
        rows = hit[first]
        return rows, image[rows]

    def image_bytes_bound(self) -> int:
        """An upper bound on the bytes of the arrays ``row_image`` returns for
        all m rows together.

        A dense image holds 8m bytes.  A CSR image's support has at most as
        many rows as the columns of its row hold nonzeros, so the m images
        hold at most sum_j nnz(column j)^2 entries, each a float64 value and
        a row index of the CSC copy's dtype: an O(n) sum over column counts.
        """
        if self._dense is not None:
            return 8 * self.m * self.m
        csc = self._csc_copy()
        counts = np.diff(csc.indptr).astype(np.int64)
        return int(counts @ counts) * (8 + csc.indices.itemsize)

    def _csc_copy(self) -> sp.csc_array:
        """The read-only CSC copy of sparse storage, built on first use."""
        csc = self._csc
        if csc is None:
            # Concurrent first calls may each build a copy; the copies are equal.
            csc = sp.csc_array(self._csr)
            for arr in (csc.data, csc.indices, csc.indptr):
                arr.setflags(write=False)
            self._csc = csc
        return csc

    # -- whole-matrix products ----------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense @ x
        return self._csr @ x

    def to_dense(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        return self._csr.toarray()


class Problem:
    """A consistent linear system Ax = b with an optional reference solution.

    ``x_star`` is the minimum-norm solution (the limit of all solvers here
    when started from zero); when present it must satisfy the system to
    within ``CONSISTENCY_RTOL``.
    """

    def __init__(self, A: RowAccessMatrix, b, x_star=None):
        if not isinstance(A, RowAccessMatrix):
            A = RowAccessMatrix(A)
        self.A = A
        self.b = _as_vector(b, A.m, "b")
        self.b.setflags(write=False)
        if x_star is not None:
            x_star = _as_vector(x_star, A.n, "x_star")
            _check_solves(A, x_star, self.b, "x_star does not solve the system: ||Ax*-b||")
            x_star.setflags(write=False)
        self.x_star = x_star

    def __repr__(self) -> str:
        star = "with x*" if self.x_star is not None else "no x*"
        return f"Problem({self.A!r}, {star})"


def _check_solves(A: RowAccessMatrix, x: np.ndarray, b: np.ndarray, what: str) -> None:
    """``InconsistentSystemError`` headed ``what`` unless ||Ax - b|| is within
    ``CONSISTENCY_RTOL * max(1, ||b||)``."""
    gap = float(np.linalg.norm(A.matvec(x) - b))
    limit = CONSISTENCY_RTOL * max(1.0, float(np.linalg.norm(b)))
    if gap > limit:
        raise InconsistentSystemError(f"{what} = {gap:.3e} > {limit:.3e}")


def _nonzero_svd(A: RowAccessMatrix, compute_uv: bool):
    """The dense thin SVD of A cut to its singular values above the standard
    numerical-rank cutoff max(m, n) * sigma_max * eps: ``s``, or ``(u, s, vt)``
    with ``compute_uv``.  sigma_max lies above its own cutoff, so only a zero
    matrix has none, and it raises ``ValueError``."""
    svd = np.linalg.svd(A.to_dense(), full_matrices=False, compute_uv=compute_uv)
    s = svd[1] if compute_uv else svd
    if s[0] == 0.0:
        raise ValueError("matrix is numerically zero")
    keep = s > max(A.m, A.n) * float(s[0]) * np.finfo(np.float64).eps
    return (svd[0][:, keep], s[keep], svd[2][keep]) if compute_uv else s[keep]


def smallest_nonzero_singular_value(A: RowAccessMatrix) -> float:
    """Smallest singular value above the numerical-rank cutoff.

    Computed by full dense SVD, without singular vectors, so intended for
    desk-scale matrices (min(m, n) up to roughly 2000).
    """
    return float(_nonzero_svd(A, compute_uv=False)[-1])


def min_norm_solution(A: RowAccessMatrix, b) -> np.ndarray:
    """Least-Euclidean-norm solution of a consistent system Ax = b.

    Uses the same SVD and rank cutoff as ``smallest_nonzero_singular_value``.
    Raises ``InconsistentSystemError`` when b is not in Range(A).
    """
    b = _as_vector(b, A.m, "b")
    u, s, vt = _nonzero_svd(A, compute_uv=True)
    x = vt.T @ ((u.T @ b) / s)
    _check_solves(A, x, b, "system is inconsistent: best residual ||Ax-b||")
    return x
