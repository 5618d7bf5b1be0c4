"""Inner products, factorizations, and small dense SVDs in a weighted metric.

All routines work with respect to a symmetric positive definite weight
matrix M, i.e. the inner product (x, y)_M = y^T M x and the induced norm.
With M's Cholesky factorization M = L L^T, these are the Euclidean inner
product and norm of L^T x and L^T y: ``M.apply_lt(x)`` maps x there.
M is held as its lower band, whichever way it was built, which serves its
products and its banded Cholesky factor, so that one matrix computes one
set of bits. M-orthonormal columns come from a QR in these coordinates.

Everything here runs without scipy: products with M, the Cholesky factor
with ``apply_lt``/``solve_lt``, ``small_svd`` and ``weighted_operator_norm``.
The factor is one call of LAPACK's band Cholesky ``dpbtrf`` from numpy's
own OpenBLAS (see ``_lapack``). Only the scipy view that ``entries``
returns, for callers outside the package (the benchmark's launcher),
imports scipy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import _lapack
from .errors import InvalidInputError, NotPositiveDefiniteError, RankDeficientError

__all__ = [
    "WeightMatrix",
    "column_blocks",
    "modified_gram_schmidt_weighted",
    "small_svd",
    "weighted_operator_norm",
    "m_orthonormality_defect",
]


class WeightMatrix:
    """Symmetric positive definite weight matrix with a cached Cholesky factor.

    Parameters
    ----------
    entries : (m, m) array_like
        Symmetric matrix defining the inner product. Symmetry is checked
        exactly.

    M is held as its lower band alone, in LAPACK's lower band storage
    ``band[d, j] = M[j + d, j]``, up to its last nonzero diagonal;
    :meth:`from_band` builds one from the band, without a dense copy. It
    takes O(m * bandwidth) memory and work per product: FEM mass matrices
    are tridiagonal per block, bandwidth one, but a single far off-diagonal
    entry widens the whole band, and a full M is a band of m diagonals.
    ``matvec`` starts each row from +0.0 and adds its diagonals in
    ascending column order, as scipy's ``csr_matvec`` sums a row, so for a
    finite operand it equals ``entries @ x`` bit for bit: a zero inside the
    band adds a signed zero, which changes no finite sum.

    Instances are immutable after construction (the cached factor is filled
    in lazily but never changes), so they are safe to share across threads.
    """

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 2:
            raise ValueError("weight matrix must be 2-dimensional")
        if entries.shape[0] != entries.shape[1]:
            raise ValueError(f"weight matrix must be square, got {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("weight matrix has non-finite entries")
        if entries.size and abs(entries - entries.T).max() != 0.0:
            raise ValueError("weight matrix is not symmetric")
        m = entries.shape[0]
        band = np.zeros((max(m, 1), m))
        for d in range(m):
            band[d, : m - d] = entries.diagonal(-d)
        self._hold(band)

    @classmethod
    def from_band(cls, band):
        """M from its lower band, a (bandwidth + 1, m) array with
        ``band[d, j] = M[j + d, j]``, without scipy. The entries past the
        matrix's end, ``band[d, m - d:]``, are not used but must be finite."""
        self = cls.__new__(cls)
        band = np.array(band, dtype=np.float64)
        if band.ndim != 2 or not 1 <= band.shape[0] <= max(band.shape[1], 1):
            raise ValueError(f"a band has shape (bandwidth + 1, m), got {band.shape}")
        if not np.isfinite(band).all():
            raise ValueError("weight matrix has non-finite entries")
        self._hold(band)
        return self

    def _hold(self, band):
        """Keep ``band``, a new float64 array, as M. Its entries past the
        matrix's end and its signed zeros become +0.0, and its zero
        diagonals past the last nonzero one are dropped, so that the band,
        and with it the factor and every product, depends on the matrix's
        values alone."""
        m = band.shape[1]
        for d in range(1, band.shape[0]):
            band[d, m - d :] = 0.0
        band += 0.0  # -0.0 + 0.0 is +0.0
        self._m = m
        self._band = band[: np.flatnonzero(band.any(axis=1)).max(initial=0) + 1]
        self._chol = None

    @property
    def entries(self):
        """The matrix as a new scipy CSR matrix on each access, for callers
        outside this module."""
        return _band_to_scipy(self._band)

    def lower_entries(self):
        """The nonzero entries on and below the diagonal as (rows, cols,
        values), ordered by row, then column."""
        # T[i, b - d] = M[i, i - d]: T's row-major order is by row, then column
        b, m = self._band.shape[0] - 1, self._m
        T = np.zeros((m, b + 1))
        for d in range(b + 1):
            T[d:, b - d] = self._band[d, : m - d]
        rows, t = np.nonzero(T)
        return rows, rows - b + t, T[rows, t]

    @property
    def dim(self):
        return self._m

    def matvec(self, x):
        """M @ x for x of shape (m,) or (m, w), equal to ``entries @ x`` bit
        for bit for a finite x."""
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self._m:
            raise ValueError(f"operand has shape {x.shape}, expected {self._m} rows")
        m = self._m
        band = self._band if x.ndim == 1 else self._band[:, :, None]
        y = np.zeros(x.shape)
        for d in range(band.shape[0] - 1, 0, -1):  # left of the diagonal, farthest first
            y[d:] += band[d, : m - d] * x[: m - d]
        y += band[0] * x
        for d in range(1, band.shape[0]):  # right of it, mirrored
            y[: m - d] += band[d, : m - d] * x[d:]
        return y

    def _factor(self):
        """The band of the Cholesky factor M = L L^T, ``band[d, j] =
        L[j + d, j]``, computed on first use by one call of LAPACK's
        ``dpbtrf`` at O(m * bandwidth^2). LAPACK's info j > 0, a leading
        minor of order j that is not positive, is the error's pivot j - 1."""
        if self._chol is None:
            L, info = _lapack.pbtrf(self._band)
            if info:
                raise NotPositiveDefiniteError(
                    f"weight matrix is not positive definite (leading minor of order {info})",
                    pivot=info - 1,
                )
            self._chol = L
        return self._chol

    def apply_lt(self, A, out=None):
        """Return L^T @ A, written into ``out``, a float64 array of A's shape
        that does not overlap it, when one is given, else a new array. Row j
        is the sum of ``L[j + d, j] * A[j + d]`` over the band's rows d, in
        ascending order as in a CSR product with L^T; a new array has A's
        layout. A 2-D A is taken in tiles of at most :data:`BLOCK` rows by
        BLOCK columns, so that no temporary is larger than a tile; the tiles
        do not change the bits."""
        L = self._factor()
        A = np.asarray(A, dtype=np.float64)
        m = self._m
        if A.ndim == 1:
            out = np.multiply(L[0], A, out=out)
            for d in range(1, L.shape[0]):
                out[: m - d] += L[d, : m - d] * A[d:]
            return out
        if out is None:
            out = np.empty_like(A)
        band = L[:, :, None]  # a column per row of A
        for rows in column_blocks(m):
            for cols in column_blocks(A.shape[1]):
                o = out[rows, cols]
                np.multiply(band[0, rows], A[rows, cols], out=o)
                for d in range(1, L.shape[0]):
                    # the tile's rows i to j - 1 have a row i + d < m below them
                    i, j = rows.start, max(rows.start, min(rows.stop, m - d))
                    o[: j - i] += band[d, i:j] * A[i + d : j + d, cols]
        return out

    def solve_lt(self, B):
        """Solve L^T X = B by one LAPACK band triangular solve, ``dtbtrs``
        on the band of L; X is a new Fortran-ordered array of B's shape."""
        return _lapack.trsv_lt(self._factor(), B)


BLOCK = 128  # columns per block of the column-blocked products


def column_blocks(n):
    """Slices of at most :data:`BLOCK` columns that cover n columns in order."""
    return [slice(j, min(j + BLOCK, n)) for j in range(0, n, BLOCK)]


def _band_to_scipy(band):
    """A new scipy CSR matrix of a symmetric matrix from its lower band."""
    import scipy.sparse

    m = band.shape[1]
    offsets = range(1 - band.shape[0], band.shape[0])
    diagonals = [band[abs(k), : m - abs(k)] for k in offsets]
    return scipy.sparse.diags(diagonals, offsets, shape=(m, m)).tocsr()


def modified_gram_schmidt_weighted(V, M):
    """M-orthonormalize the columns of V, an (m, k) array, by one Householder
    QR in Cholesky coordinates; the name, of the Gram-Schmidt loops this
    replaced, stays while the benchmark's tracer wraps it (ROADMAP item 12).

    With M = L L^T, S = L^T V = Q R is numpy's reduced QR, Q's columns
    flipped so that diag(R) > 0: in exact arithmetic the Gram-Schmidt basis,
    result^T M V = R. It is backward stable whatever the conditioning of S
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, ch. 19). Returns L^-T Q as a new C-ordered array, the layout of a
    restored checkpoint's Q, on which the next projection's bits depend.

    Raises :class:`RankDeficientError` for the first column i whose |R_ii|,
    its M-norm after projection on the columns before it, is at or below
    1e-14 ||S[:, i]||, and for k > m at column m.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] != M.dim:
        raise ValueError(f"V has shape {V.shape}, expected ({M.dim}, k)")
    S = M.apply_lt(V)
    Q, R = np.linalg.qr(S)
    d = np.diagonal(R)
    # the first short column, else d.size: column m if k > m
    short = np.flatnonzero(np.abs(d) <= 1e-14 * np.linalg.norm(S[:, : d.size], axis=0))
    i = int(short[0]) if short.size else d.size
    if i < V.shape[1]:
        raise RankDeficientError(f"column {i} is numerically rank deficient", column=i)
    return np.ascontiguousarray(M.solve_lt(Q * np.sign(d)))


def small_svd(Q):
    """Thin standard SVD of a small dense matrix.

    Returns (V_Q, sigma_Q, W_Q) with Q = V_Q @ diag(sigma_Q) @ W_Q.T, where
    for Q of shape (a, b) V_Q is (a, r), W_Q is (b, r) and r = min(a, b);
    sigma_Q is nonnegative and descending. A square Q gets its full SVD.
    The driver is numpy's LAPACK ``gesdd``. For min(a, b) <= 25 it solves
    the bidiagonal problem by QR iteration, as ``gesvd`` does; above that it
    switches to divide and conquer, which is faster.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise InvalidInputError("matrix contains non-finite entries")
    V_Q, sigma, Wh = np.linalg.svd(Q, full_matrices=False)
    return V_Q, sigma, Wh.T


def weighted_operator_norm(A, M):
    """Operator norm of A mapping (R^n, euclidean) to (R^m, M-norm).

    Equals the largest singular value of S = L^T A where M = L L^T, taken
    as the square root of the largest eigenvalue of a Gram matrix from
    numpy's ``eigvalsh``. ``A`` is an array, whose smaller Gram matrix is
    used, S S^T (m <= n) or S^T S, or an iterator of A's column blocks
    (m x w arrays), whose m x m Gram matrix is summed block by block, so
    that A and S are never whole. S is divided by its largest absolute
    entry, so that squaring it neither underflows nor overflows, and the
    scale multiplies the result back; a block is divided by the largest
    entry so far, and the sum is rescaled when a block holds a larger one.
    The Gram matrix squares the condition number of S, but the rounding
    errors of the product and of ``eigvalsh`` are both relative to the
    largest eigenvalue, so that one keeps its accuracy: on the FHN verify
    grid and on scaled random matrices the result is within 1.1e-15,
    relative, of ``svdvals(S)[0]``.

    A with no columns has norm 0.0; a non-finite S is a ValueError.
    """
    scale, G = _scaled_gram(A, M)
    if G is None:
        return 0.0
    top = np.linalg.eigvalsh(G)[-1]
    return scale * math.sqrt(max(float(top), 0.0))


def _scaled_gram(A, M):
    """(scale, G) for :func:`weighted_operator_norm`: the largest absolute
    entry of S = L^T A and the Gram matrix of S / scale, or None if S is
    empty or zero. Blocks after the first add to G's lower triangle only,
    the one ``eigvalsh`` reads, by one BLAS ``dsyrk`` each, so that they make
    no m x m temporary."""
    blocked = isinstance(A, Iterator)
    scale, G = 0.0, None
    for block in A if blocked else [A]:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim == 1:
            block = block[:, None]
        if block.shape[0] != M.dim:
            raise ValueError(f"A has {block.shape[0]} rows, expected {M.dim}")
        if block.shape[1] == 0:
            continue
        S = M.apply_lt(block)
        top = float(np.maximum(S.max(), -S.min()))  # NaN propagates, no |S| copy
        if not np.isfinite(top):
            raise ValueError("array must not contain infs or NaNs")
        if top == 0.0:
            continue
        if top > scale:
            if G is not None:
                G *= (scale / top) ** 2
            scale = top
        S /= scale
        if G is None:
            G = S.T @ S if not blocked and S.shape[0] > S.shape[1] else S @ S.T
        else:
            _lapack.syrk_lower(G, S)
    return scale, G


def m_orthonormality_defect(V, M):
    """max |V^T M V - I|, the M-orthonormality residual used in invariants."""
    V = np.asarray(V, dtype=np.float64)
    G = V.T @ M.matvec(V)
    return float(np.max(np.abs(G - np.eye(V.shape[1]))))
