"""Exact batch weighted SVD and exact error computations.

Everything here materializes the full data matrix and exists to validate
the streaming results; the exact decomposition routes through a Cholesky
factorization of the weight matrix.
"""

from __future__ import annotations

import os
import pickle
import tempfile
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

    A standard SVD of S (numpy's LAPACK ``gesdd``) is computed and the left
    factor is mapped back with a triangular back substitution. Singular
    values below 1e-14 * sigma_1 are dropped together with their vectors.
    W is a copy of the kept columns, so it does not hold the whole right
    factor alive.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != M.dim:
        raise ValueError(f"U has shape {U.shape}, expected ({M.dim}, n)")
    S = M.apply_lt(U)
    V_hat, sigma, Wh = np.linalg.svd(S, full_matrices=False)
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


def _sweep_row(U, M, tols):
    state = flush(run_stream(iter(U.T), M, tols), M, tols)
    return SweepRow(
        tol=tols.tol,
        tol_sv=tols.tol_sv,
        rank=state.k,
        exact_error=exact_error(U, state, M),
        incr_error_bound=state.e,
        state=state,
    )


def _run_cells(i, claim, put, U, M, grid):
    """Compute cell ``i``, then the cells ``claim`` hands out, until it
    returns a negative index; ``put(i, row)`` receives each row."""
    while i >= 0:
        put(i, _sweep_row(U, M, grid[i]))
        i = claim()


def _thread_count():
    """Threads of this process, native ones included; 0 if unknown."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _fork_context(cells):
    """The ``fork`` context if the sweep has two cells, two cores to run
    them on and this process runs one thread, else None. A second thread is
    most often a BLAS pool (no ``OPENBLAS_NUM_THREADS=1``), which already
    uses the cores: with a worker that had a pool of its own, a 500-node
    verify took 44 s instead of 10. ``multiprocessing`` is imported only
    here, so that importing the package does not pay for it."""
    affinity = getattr(os, "sched_getaffinity", None)
    if cells < 2 or affinity is None or len(affinity(0)) < 2 or _thread_count() != 1:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _worker(claim, stop, results, U, M, grid):
    """Body of the forked worker: it appends ``(i, row)`` to ``results`` for
    every cell it computes and ``(-1, exception)`` if one fails, which also
    stops further claims. A record is pickled whole before it is written,
    so one that does not pickle writes nothing; the flush is needed because
    multiprocessing ends the process without flushing Python's buffers."""

    def put(i, result):
        results.write(pickle.dumps((i, result), pickle.HIGHEST_PROTOCOL))

    try:
        _run_cells(claim(), claim, put, U, M, grid)
    except BaseException as exc:
        stop()
        put(-1, exc)
    finally:
        results.flush()


def _forked_sweep(ctx, U, M, grid, rows):
    """Fill ``rows`` from this process and one forked worker, which share U
    copy-on-write and claim cells from a shared counter, highest index
    first. This process claims its first cell before the fork, so it always
    computes at least one. The worker appends its rows to an unlinked
    temporary file that it inherits, and this process reads them once the
    worker has exited: a row (its state included) is larger than a pipe's
    buffer, and the file is gone even if the command is killed."""
    left = ctx.Value("i", len(grid))

    def claim():
        with left.get_lock():
            left.value -= 1
            return left.value

    def stop():
        with left.get_lock():
            left.value = 0

    first = claim()
    with tempfile.TemporaryFile() as results:
        worker = ctx.Process(target=_worker, args=(claim, stop, results, U, M, grid), daemon=True)
        worker.start()
        try:
            _run_cells(first, claim, rows.__setitem__, U, M, grid)
        except BaseException:
            stop()
            raise
        finally:
            worker.join()
        results.seek(0)
        while True:
            try:
                i, result = pickle.load(results)
            except (EOFError, pickle.UnpicklingError):  # the end, or a cut record
                break
            if i < 0:
                raise result
            rows[i] = result
    lost = [i for i, row in enumerate(rows) if row is None]
    if lost:
        raise RuntimeError(
            f"sweep worker exited with code {worker.exitcode} without cells {lost}"
        )


def tolerance_sweep(snapshots, M, tol_grid):
    """Run the streaming decomposition once per tolerance pair.

    ``snapshots`` is an m x s matrix. Returns one :class:`SweepRow` per
    pair, in grid order, with the final rank, the exact operator-norm error
    against the full matrix, and the incrementally accumulated bound, of the
    flushed state.

    Cells are computed last first, so that the small-tolerance cells, the
    most expensive, start first. A grid of two cells or more is shared
    between this process and one forked worker when two cores are usable,
    the ``fork`` start method exists and this process runs a single thread
    (BLAS pinned to one); each cell's arithmetic is serial, so the rows are
    the same bits either way.
    """
    U = _as_matrix(snapshots)
    grid = [tols if isinstance(tols, Tolerances) else Tolerances(*tols) for tols in tol_grid]
    rows = [None] * len(grid)
    ctx = _fork_context(len(grid))
    if ctx is None:
        for i in reversed(range(len(grid))):
            rows[i] = _sweep_row(U, M, grid[i])
    else:
        _forked_sweep(ctx, U, M, grid, rows)
    return rows
