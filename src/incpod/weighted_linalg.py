"""Inner products, factorizations, and small dense SVDs in a weighted metric.

All routines work with respect to a symmetric positive definite weight
matrix M, i.e. the inner product (x, y)_M = y^T M x and the induced norm.
M may be dense or sparse; banded sparse matrices (FEM mass matrices) get a
banded Cholesky factorization.
"""

from __future__ import annotations

import re

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import InvalidInputError, NotPositiveDefiniteError, RankDeficientError

__all__ = [
    "WeightMatrix",
    "m_inner",
    "m_norm",
    "modified_gram_schmidt_weighted",
    "small_svd",
    "weighted_operator_norm",
    "m_orthonormality_defect",
]


def _pivot_from_message(exc):
    """Pull the 0-based pivot index out of a LAPACK 'leading minor' message."""
    match = re.search(r"(\d+)", str(exc))
    return int(match.group(1)) - 1 if match else -1


class WeightMatrix:
    """Symmetric positive definite weight matrix with a cached Cholesky factor.

    Parameters
    ----------
    entries : (m, m) array_like or sparse matrix
        Symmetric matrix defining the inner product. Symmetry is checked
        exactly on the stored entries.

    Instances are immutable after construction (the cached factor is filled
    in lazily but never changes), so they are safe to share across threads.
    """

    def __init__(self, entries):
        if scipy.sparse.issparse(entries):
            entries = entries.tocsr().astype(np.float64)
        else:
            entries = np.asarray(entries, dtype=np.float64)
            if entries.ndim != 2:
                raise ValueError("weight matrix must be 2-dimensional")
        if entries.shape[0] != entries.shape[1]:
            raise ValueError(f"weight matrix must be square, got {entries.shape}")
        asym = abs(entries - entries.T)
        asym_max = asym.max() if asym.size or scipy.sparse.issparse(asym) else 0.0
        if asym_max != 0.0:
            raise ValueError("weight matrix is not symmetric")
        self.entries = entries
        self._chol = None

    @property
    def dim(self):
        return self.entries.shape[0]

    @property
    def is_sparse(self):
        return scipy.sparse.issparse(self.entries)

    def matvec(self, x):
        return self.entries @ x

    def diagonal(self):
        return self.entries.diagonal()

    @property
    def chol(self):
        """Lower-triangular L with M = L L^T (computed on first access)."""
        if self._chol is None:
            self._chol = self._factorize()
        return self._chol

    def _factorize(self):
        if not self.is_sparse:
            try:
                return scipy.linalg.cholesky(self.entries, lower=True)
            except scipy.linalg.LinAlgError as exc:
                raise NotPositiveDefiniteError(
                    f"weight matrix is not positive definite: {exc}",
                    pivot=_pivot_from_message(exc),
                ) from exc

        # Banded path: FEM mass matrices are tridiagonal per block, so the
        # factor stays banded and the cost is O(m * bandwidth^2).
        m = self.dim
        coo = self.entries.tocoo()
        bandwidth = int(np.max(np.abs(coo.row - coo.col))) if coo.nnz else 0
        ab = np.zeros((bandwidth + 1, m))
        for off in range(bandwidth + 1):
            ab[off, : m - off] = self.entries.diagonal(-off)
        try:
            cb = scipy.linalg.cholesky_banded(ab, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"weight matrix is not positive definite: {exc}",
                pivot=_pivot_from_message(exc),
            ) from exc
        diagonals = [cb[off, : m - off] for off in range(bandwidth + 1)]
        offsets = [-off for off in range(bandwidth + 1)]
        return scipy.sparse.diags(diagonals, offsets, shape=(m, m)).tocsr()

    def apply_lt(self, A):
        """Return L^T @ A."""
        return self.chol.T @ A

    def solve_lt(self, B):
        """Solve L^T X = B by back substitution."""
        if self.is_sparse:
            return scipy.sparse.linalg.spsolve_triangular(
                self.chol.T.tocsr(), B, lower=False
            )
        return scipy.linalg.solve_triangular(self.chol, B, lower=True, trans="T")


def _check_vector(x, m, name):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({m},)")
    return x


def m_inner(x, y, M):
    """Weighted inner product (x, y)_M = y^T M x."""
    x = _check_vector(x, M.dim, "x")
    y = _check_vector(y, M.dim, "y")
    return float(y @ (M.matvec(x)))


def m_norm(x, M):
    """Weighted norm (|x^T M x|)^(1/2).

    The absolute value guards against a tiny negative x^T M x produced by
    round-off; the result is never NaN for finite input.
    """
    x = _check_vector(x, M.dim, "x")
    return float(np.sqrt(abs(x @ M.matvec(x))))


def modified_gram_schmidt_weighted(V, M):
    """M-orthonormalize the columns of V by modified Gram-Schmidt.

    Every column is passed through the projection sweep twice
    (reorthogonalization, "twice is enough") before normalization.

    Parameters
    ----------
    V : (m, k) ndarray
        Numerically full-rank columns.
    M : WeightMatrix

    Returns
    -------
    (m, k) ndarray with max|V^T M V - I| at round-off level, spanning the
    same column space as the input.

    Raises :class:`RankDeficientError` for a column whose post-projection
    M-norm is at or below 1e-14 times its original M-norm.
    """
    V = np.array(V, dtype=np.float64, copy=True)
    if V.ndim != 2 or V.shape[0] != M.dim:
        raise ValueError(f"V has shape {V.shape}, expected ({M.dim}, k)")
    k = V.shape[1]
    MQ = np.empty_like(V)  # cache of M @ q_j for finished columns
    for i in range(k):
        u = V[:, i]
        norm0 = m_norm(u, M)
        for _sweep in range(2):
            for j in range(i):
                u = u - (MQ[:, j] @ u) * V[:, j]
        nrm = m_norm(u, M)
        if nrm <= 1e-14 * norm0 or norm0 == 0.0:
            raise RankDeficientError(
                f"column {i} is numerically rank deficient", column=i
            )
        V[:, i] = u / nrm
        MQ[:, i] = M.matvec(V[:, i])
    return V


def small_svd(Q):
    """Thin standard SVD of a small dense matrix.

    Returns (V_Q, sigma_Q, W_Q) with Q = V_Q @ diag(sigma_Q) @ W_Q.T, where
    for Q of shape (a, b) V_Q is (a, r), W_Q is (b, r) and r = min(a, b);
    sigma_Q is nonnegative and descending. A square Q gets its full SVD.
    The QR-based LAPACK driver is used for its orthogonality and residual
    accuracy at these sizes.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise InvalidInputError("matrix contains non-finite entries")
    V_Q, sigma, Wh = scipy.linalg.svd(Q, full_matrices=False, lapack_driver="gesvd")
    return V_Q, sigma, Wh.T


def weighted_operator_norm(A, M):
    """Operator norm of A mapping (R^n, euclidean) to (R^m, M-norm).

    Equals the largest singular value of L^T A where M = L L^T.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        A = A[:, None]
    if A.shape[0] != M.dim:
        raise ValueError(f"A has {A.shape[0]} rows, expected {M.dim}")
    if A.shape[1] == 0:
        return 0.0
    S = M.apply_lt(A)
    return float(scipy.linalg.svdvals(S)[0])


def m_orthonormality_defect(V, M):
    """max |V^T M V - I|, the M-orthonormality residual used in invariants."""
    V = np.asarray(V, dtype=np.float64)
    G = V.T @ (M.entries @ V)
    return float(np.max(np.abs(G - np.eye(V.shape[1]))))
