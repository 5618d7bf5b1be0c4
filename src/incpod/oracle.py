"""Exact batch weighted SVD and exact error computations.

Everything here materializes the full data matrix and exists to validate
the streaming results; the exact decomposition routes through a Cholesky
factorization of the weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .incremental import Tolerances, flush, reconstruct, run_stream
from .weighted_linalg import weighted_operator_norm

__all__ = [
    "ExactSvd",
    "SweepRow",
    "exact_weighted_svd",
    "exact_error",
    "tolerance_sweep",
]


@dataclass(frozen=True)
class ExactSvd:
    """Core SVD with respect to the weighted inner product: V (m, k) with
    V^T M V = I, sigma positive descending, W (n, k) orthonormal."""

    V: np.ndarray
    sigma: np.ndarray
    W: np.ndarray

    @property
    def k(self):
        return self.sigma.size


def exact_weighted_svd(U, M):
    """Core SVD of U in the M-inner product via S = L^T U.

    A standard SVD of S is computed and the left factor is mapped back with
    a triangular back substitution. Singular values below
    1e-14 * sigma_1 are dropped together with their vectors. W is a copy
    of the kept columns, so it does not hold the whole right factor alive.
    """
    import scipy.linalg

    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != M.dim:
        raise ValueError(f"U has shape {U.shape}, expected ({M.dim}, n)")
    S = M.apply_lt(U)
    V_hat, sigma, Wh = scipy.linalg.svd(S, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        keep = 0
    else:
        keep = int(np.count_nonzero(sigma >= 1e-14 * sigma[0]))
    V = M.solve_lt(V_hat[:, :keep]) if keep else np.zeros((M.dim, 0))
    return ExactSvd(V=np.asarray(V), sigma=sigma[:keep], W=Wh[:keep].T.copy())


def exact_error(U, state, M):
    """Weighted operator-norm distance between U and the streamed result;
    a state with an open run is a ValueError (:func:`reconstruct`)."""
    U = np.asarray(U, dtype=np.float64)
    R = reconstruct(state)  # a new array: the difference goes into it
    if U.shape != R.shape:
        raise ValueError(
            f"data matrix has shape {U.shape} but the state reconstructs {R.shape}"
        )
    return weighted_operator_norm(np.subtract(U, R, out=R), M)


@dataclass(frozen=True)
class SweepRow:
    """One tolerance-grid cell. ``state`` carries the streamed result, its
    event counts included, beyond the serialized columns."""

    tol: float
    tol_sv: float
    rank: int
    exact_error: float
    incr_error_bound: float
    state: object

    def csv_values(self):
        return (self.tol, self.tol_sv, self.rank, self.exact_error, self.incr_error_bound)


def _as_matrix(snapshots):
    U = np.asarray(snapshots, dtype=np.float64)
    if U.ndim != 2:
        raise InvalidInputError("snapshots must form an m x s matrix")
    return U


def tolerance_sweep(snapshots, M, tol_grid):
    """Run the streaming decomposition once per tolerance pair.

    ``snapshots`` is an m x s matrix. Returns one :class:`SweepRow` per
    pair with the final rank, the exact operator-norm error against the full
    matrix, and the incrementally accumulated bound, of the flushed state.
    """
    U = _as_matrix(snapshots)
    rows = []
    for tols in tol_grid:
        if not isinstance(tols, Tolerances):
            tols = Tolerances(*tols)
        state = flush(run_stream(iter(U.T), M, tols), M, tols)
        rows.append(
            SweepRow(
                tol=tols.tol,
                tol_sv=tols.tol_sv,
                rank=state.k,
                exact_error=exact_error(U, state, M),
                incr_error_bound=state.e,
                state=state,
            )
        )
    return rows
