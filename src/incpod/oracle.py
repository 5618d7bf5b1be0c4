"""Exact batch weighted SVD and exact error computations.

Everything here reads the full data matrix U and exists to validate the
streaming results. Beyond U, the oracle builds one m x n array: S = L^T U,
over which LAPACK's ``dgesdd`` writes the longer factor of the exact SVD
(M = L L^T is the weight's Cholesky factorization). The exact SVD is kept
in the coordinates of S, as a streamed state is, so that the two compare
without M. The exact errors go
through U - V diag(sigma) W^T 128 columns at a time, and a sweep keeps the
streamed state of its tightest cell only.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import _lapack
from .errors import InvalidInputError
from .incremental import Tolerances, flush, low_rank_factors, reconstruct, run_stream
from .weighted_linalg import WeightMatrix, column_blocks, weighted_operator_norm

__all__ = [
    "ExactSvd",
    "SweepRow",
    "exact_weighted_svd",
    "exact_error",
    "tolerance_sweep",
]


@dataclass(frozen=True)
class ExactSvd:
    """Core SVD with respect to the weighted inner product, in the
    coordinates of a streamed state: Q = L^T V (m, k) with orthonormal
    columns, sigma positive descending, W (n, k) orthonormal, and the
    weight M = L L^T that maps Q to the M-orthonormal V."""

    Q: np.ndarray
    sigma: np.ndarray
    W: np.ndarray
    M: WeightMatrix

    @property
    def k(self):
        return self.sigma.size

    @property
    def V(self):
        """The left singular vectors V = L^-T Q (m, k), from one triangular
        solve on each access."""
        return self.M.solve_lt(self.Q)


def exact_weighted_svd(U, M):
    """Core SVD of U in the M-inner product via S = L^T U.

    A standard SVD of S (LAPACK's ``dgesdd``, see :func:`_lapack.gesdd`) is
    computed in place; its left factor is Q. S is Fortran-ordered when U is
    and a sparse M's band computes it; otherwise (a C-ordered U, a dense M)
    S is copied into Fortran order first. Singular values below
    1e-14 * sigma_1 are dropped together with their vectors. Q and W are
    copies of the kept columns, so that neither holds a whole factor alive.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != M.dim:
        raise ValueError(f"U has shape {U.shape}, expected ({M.dim}, n)")
    Q, sigma, Wh = _lapack.gesdd(np.asfortranarray(M.apply_lt(U)))
    if sigma.size == 0 or sigma[0] == 0.0:
        keep = 0
    else:
        keep = int(np.count_nonzero(sigma >= 1e-14 * sigma[0]))
    return ExactSvd(Q=Q[:, :keep].copy(order="F"), sigma=sigma[:keep], W=Wh[:keep].T.copy(), M=M)


def exact_error(U, state):
    """Weighted operator-norm distance, in the state's weight ``state.M``,
    between U and the streamed result; a state with an open run is a
    ValueError (:func:`low_rank_factors`).

    For m <= n the difference goes to :func:`weighted_operator_norm` over
    :func:`column_blocks`, so that no m x n array is built; for m > n it
    goes whole, so that the Gram matrix is n x n. Either way its bits are
    those of U - :func:`reconstruct` (state)."""
    U = np.asarray(U, dtype=np.float64)
    VS, W = low_rank_factors(state)
    if U.shape != (VS.shape[0], W.shape[0]):
        raise ValueError(
            f"data matrix has shape {U.shape} but the state reconstructs "
            f"{(VS.shape[0], W.shape[0])}"
        )
    m, n = U.shape
    if m > n:
        R = reconstruct(state)  # a new array: the difference goes into it
        return weighted_operator_norm(np.subtract(U, R, out=R), state.M)
    return weighted_operator_norm(_differences(U, VS, W), state.M)


def _differences(U, VS, W):
    """U - VS W^T, a block of :func:`column_blocks` at a time."""
    for cols in column_blocks(U.shape[1]):
        D = VS @ W[cols].T
        yield np.subtract(U[:, cols], D, out=D)


@dataclass(frozen=True)
class SweepRow:
    """One tolerance-grid cell: the streamed state's singular values and
    its truncation counts, which cap the bound at T_p tol + T_sv tol_sv.
    ``state``, the streamed result itself, is kept for the sweep's tightest
    cell only (see :func:`tolerance_sweep`) and is None in the others."""

    tol: float
    tol_sv: float
    rank: int
    exact_error: float
    incr_error_bound: float
    sigma: np.ndarray
    T_p: int
    T_sv: int
    state: object

    def csv_values(self):
        return (self.tol, self.tol_sv, self.rank, self.exact_error, self.incr_error_bound)


def _as_matrix(snapshots):
    U = np.asarray(snapshots, dtype=np.float64)
    if U.ndim != 2:
        raise InvalidInputError("snapshots must form an m x s matrix")
    return U


def _sweep_row(U, M, tols):
    state = flush(run_stream(iter(U.T), M, tols), tols)
    return SweepRow(
        tol=tols.tol,
        tol_sv=tols.tol_sv,
        rank=state.k,
        exact_error=exact_error(U, state),
        incr_error_bound=state.e,
        sigma=state.sigma,
        T_p=state.T_p,
        T_sv=state.T_sv,
        state=state,
    )


def _row(U, M, grid, i):
    """The row of cell i; its state is kept if the cell has the grid's
    smallest (tol, tol_sv), else it is None."""
    row = _sweep_row(U, M, grid[i])
    tightest = min(range(len(grid)), key=lambda c: (grid[c].tol, grid[c].tol_sv))
    return row if i == tightest else replace(row, state=None)


def _fork_context(cells):
    """The ``fork`` context of the sweep's pool if the sweep has two cells,
    two cores to run them on, and the caller runs one Python thread and
    numpy's OpenBLAS one thread, else None. A forked child of a process
    with other threads can hang on a lock one of them held; a BLAS that
    runs more threads already uses the cores: with a worker that had a pool
    of its own, a 500-node verify took 44 s instead of 10.
    ``multiprocessing`` is imported only here, so that importing the
    package does not pay for it."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else 1
    if cells < 2 or cores < 2 or threading.active_count() != 1 or _lapack.get_num_threads() != 1:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _claim(left):
    """The next cell to compute, counting down; negative when none is left."""
    with left.get_lock():
        left.value -= 1
        return left.value


_pool_cells = None  # (U, M, grid, left) in the sweep's worker


def _init_worker(*cells):
    """Keep the sweep's inputs in the pool's worker, and end the worker when
    the process that forked it dies (a killed ``verify``): the worker holds
    both ends of the pool's pipes, so it would otherwise wait for ever."""
    global _pool_cells
    _pool_cells = cells
    from multiprocessing import connection, parent_process

    parent = parent_process().sentinel
    threading.Thread(target=lambda: connection.wait([parent]) and os._exit(1), daemon=True).start()


def _worker_cells():
    """The worker's one task: the rows of the cells it claims, by index."""
    U, M, grid, left = _pool_cells
    rows = {}
    while (i := _claim(left)) >= 0:
        rows[i] = _row(U, M, grid, i)
    return rows


def tolerance_sweep(snapshots, M, tol_grid):
    """Run the streaming decomposition once per tolerance pair.

    ``snapshots`` is an m x s matrix. Returns one :class:`SweepRow` per
    pair, in grid order, with the final rank, the exact operator-norm error
    against the full matrix, the incrementally accumulated bound, the
    singular values and the truncation counts of the flushed state. Only the row of the grid's
    smallest (tol, tol_sv) keeps the state itself, so that a sweep holds
    one streamed state beyond the cells in progress.

    Cells are computed last first, so that the small-tolerance cells, the
    most expensive, start first. A grid of two cells or more is shared
    between this process and the one worker of a forked process pool when
    :func:`_fork_context` allows it: the worker inherits U, M and the grid
    (copy-on-write, never pickled), both processes claim cells from a shared
    counter, and the worker returns its rows once none is left. Each cell's
    arithmetic is serial, so the rows are the same bits either way. A failed
    cell raises here with its own type and stops the claims.
    """
    U = _as_matrix(snapshots)
    grid = [tols if isinstance(tols, Tolerances) else Tolerances(*tols) for tols in tol_grid]
    ctx = _fork_context(len(grid))
    if ctx is None:
        return [_row(U, M, grid, i) for i in reversed(range(len(grid)))][::-1]
    from concurrent.futures import ProcessPoolExecutor

    left = ctx.Value("i", len(grid))
    pool = ProcessPoolExecutor(1, ctx, initializer=_init_worker, initargs=(U, M, grid, left))
    try:
        theirs, rows = pool.submit(_worker_cells), {}
        while not theirs.done() and (i := _claim(left)) >= 0:  # done: failed or none left
            rows[i] = _row(U, M, grid, i)
        rows.update(theirs.result())
    except BaseException:
        with left.get_lock():
            left.value = 0  # the worker claims no further cell
        raise
    finally:
        pool.shutdown()
    return [rows[i] for i in range(len(grid))]
