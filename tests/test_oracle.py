import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from incpod import _lapack, oracle
from incpod.cli import VERIFY_GRID
from incpod.errors import IntegrationFailureError, InvalidInputError
from incpod.fhn import FhnParams, Mesh1D, build_weight_matrix, simulate
from incpod.incremental import SvdState, Tolerances, flush, reconstruct, run_stream
from incpod.oracle import exact_error, exact_weighted_svd, tolerance_sweep
from incpod.weighted_linalg import (
    WeightMatrix,
    m_orthonormality_defect,
    weighted_operator_norm,
)

from conftest import engineered_pair, m_orthonormal_columns, random_weight


@pytest.fixture(scope="module")
def fhn_small():
    """verify's input on a small FHN data set: U (80 x 689) and M."""
    mesh = Mesh1D(40)
    return simulate(FhnParams(), mesh, 2.5).columns, build_weight_matrix(mesh)


def state_from_triple(V, sigma, W, M):
    return SvdState(
        Q=M.apply_lt(V), sigma=np.asarray(sigma, float).copy(), W0=W.copy(),
        Wp=np.eye(W.shape[1]), n=W.shape[0], M=M,
    )


class TestExactWeightedSvd:
    def test_identity(self):
        ex = exact_weighted_svd(np.eye(2), WeightMatrix(np.eye(2)))
        assert np.allclose(ex.sigma, [1.0, 1.0], atol=1e-15)

    def test_drops_zero_singular_values(self):
        ex = exact_weighted_svd(np.diag([3.0, 0.0]), WeightMatrix(np.eye(2)))
        assert ex.k == 1
        assert np.allclose(ex.sigma, [3.0], atol=1e-15)

    def test_residual_and_orthonormality(self, rng):
        for _ in range(10):
            m, n = int(rng.integers(3, 25)), int(rng.integers(2, 15))
            M = random_weight(rng, m)
            U = rng.standard_normal((m, n))
            ex = exact_weighted_svd(U, M)
            assert m_orthonormality_defect(ex.V, M) <= 1e-12
            recon = (ex.V * ex.sigma) @ ex.W.T
            assert np.max(np.abs(U - recon)) <= 1e-12 * ex.sigma[0]

    def test_w_owns_a_copy_of_the_kept_columns(self, rng):
        # rank 4 of 12: the kept columns are a third of the right factor
        U = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 30))
        M = random_weight(rng, 12)
        ex = exact_weighted_svd(U, M)
        _, _, Wh = scipy.linalg.svd(M.apply_lt(U), full_matrices=False)
        assert ex.k == 4
        assert ex.W.flags.owndata
        assert np.array_equal(ex.W, Wh.T[:, :4])

    def test_q_owns_a_copy_of_the_kept_columns_of_the_left_factor(self, rng):
        # Q is the left factor of S = L^T U, V = L^-T Q is built from it
        U = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 30))
        M = random_weight(rng, 12)
        ex = exact_weighted_svd(U, M)
        u, _, _ = np.linalg.svd(M.apply_lt(U), full_matrices=False)
        assert ex.k == 4 and ex.M is M
        assert ex.Q.flags.owndata and ex.Q.shape == (12, 4)
        assert np.abs(np.abs(ex.Q) - np.abs(u[:, :4])).max() <= 1e-14
        assert same_bits(ex.V, M.solve_lt(ex.Q))

    @pytest.mark.parametrize("weight", ["dense", "fhn"])
    def test_sigma_matches_svdvals_of_scaled_data(self, rng, fhn_small, weight):
        # L from scipy's Cholesky of the dense M, independent of the package's
        if weight == "fhn":
            U, M = fhn_small
        else:
            U, M = rng.standard_normal((30, 45)), random_weight(rng, 30)
        L = scipy.linalg.cholesky(M.entries.toarray(), lower=True)
        expected = scipy.linalg.svdvals(L.T @ U)
        ex = exact_weighted_svd(U, M)
        assert np.max(np.abs(ex.sigma - expected[: ex.k])) <= 1e-14 * expected[0]

    @pytest.mark.parametrize("weight", ["dense", "fhn"])
    def test_layout_of_u_does_not_change_the_bits(self, rng, fhn_small, weight):
        # a Fortran-ordered U (as verify reads it) is decomposed in place; a
        # C-ordered one is copied first: the factors are the same bits, and
        # numpy's svd of S = L^T U gives them too
        if weight == "fhn":
            U, M = fhn_small
        else:
            U, M = rng.standard_normal((30, 45)), random_weight(rng, 30)
        C, F = np.ascontiguousarray(U), np.asfortranarray(U)
        a, b = exact_weighted_svd(C, M), exact_weighted_svd(F, M)
        _, sigma, _ = np.linalg.svd(M.apply_lt(C), full_matrices=False)
        assert same_bits(a.sigma, sigma[: a.k])
        for x, y in ((a.sigma, b.sigma), (a.Q, b.Q), (a.W, b.W)):
            assert same_bits(x, y)
        assert same_bits(F, C)  # U is only read

    @pytest.mark.parametrize("weight", ["dense", "fhn"])
    def test_tall_u_is_decomposed_in_place(self, rng, monkeypatch, weight):
        # m >= 11n/6, dgesdd's switch MNTHR: the left factor of S = L^T U is
        # written over S, within 1e-15 of numpy's; sigma and W are numpy's bits
        M = random_weight(rng, 120) if weight == "dense" else build_weight_matrix(Mesh1D(60))
        U = rng.standard_normal((120, 40))
        calls, gesdd = [], _lapack.gesdd
        monkeypatch.setattr(_lapack, "gesdd", lambda S: calls.append((S.copy(), S)) or gesdd(S))
        ex = exact_weighted_svd(U, M)
        ((S0, S),) = calls
        u, s, vt = np.linalg.svd(S0, full_matrices=False)
        assert ex.k == 40
        assert same_bits(ex.sigma, s) and same_bits(ex.W, vt.T)
        assert np.abs(S - u).max() <= 1e-15  # S holds the left factor
        assert m_orthonormality_defect(ex.V, M) <= 1e-13

    def test_identity_weight_matches_standard_svd(self, rng):
        U = rng.standard_normal((12, 7))
        ex = exact_weighted_svd(U, WeightMatrix(np.eye(12)))
        expected = np.linalg.svd(U, compute_uv=False)
        assert np.allclose(ex.sigma, expected, rtol=1e-12)


class TestTruncationErrorIdentities:
    def test_rank_r_truncation_error_is_next_singular_value(self, rng):
        # exact operator-norm error of the rank-r truncated SVD
        for _ in range(8):
            m, n = int(rng.integers(6, 20)), int(rng.integers(5, 15))
            M = random_weight(rng, m)
            U = rng.standard_normal((m, n))
            ex = exact_weighted_svd(U, M)
            for r in range(1, ex.k):
                trunc = (ex.V[:, :r] * ex.sigma[:r]) @ ex.W[:, :r].T
                err = weighted_operator_norm(U - trunc, M)
                assert err == pytest.approx(ex.sigma[r], rel=1e-11)

    def test_projected_column_error_is_residual_norm(self, rng):
        # appending the basis projection of c instead of c costs exactly p
        for _ in range(8):
            m, n = int(rng.integers(6, 20)), int(rng.integers(2, 10))
            M = random_weight(rng, m)
            U = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            ex = exact_weighted_svd(U, M)
            proj = ex.V @ (ex.V.T @ M.matvec(c))
            lhs = weighted_operator_norm(
                np.column_stack([U, c]) - np.column_stack([U, proj]), M
            )
            r = c - proj
            assert lhs == pytest.approx(np.sqrt(r @ M.matvec(r)), rel=1e-11)


class TestExactError:
    def test_zero_for_exact_state(self, rng):
        M = random_weight(rng, 10)
        U = rng.standard_normal((10, 6))
        ex = exact_weighted_svd(U, M)
        s = state_from_triple(ex.V, ex.sigma, ex.W, M)
        assert exact_error(U, s) <= 1e-12 * ex.sigma[0]

    def test_rank_r_truncated_state(self, rng):
        M = random_weight(rng, 12)
        U = rng.standard_normal((12, 8))
        ex = exact_weighted_svd(U, M)
        r = 3
        s = state_from_triple(ex.V[:, :r], ex.sigma[:r], ex.W[:, :r], M)
        assert exact_error(U, s) == pytest.approx(ex.sigma[r], rel=1e-11)

    def test_inputs_unmodified(self, rng):
        # the difference U - R is formed in the array reconstruct returns
        M = random_weight(rng, 12)
        U = rng.standard_normal((12, 30))
        tols = Tolerances(0.5, 0.5)
        state = flush(run_stream(iter(U.T), M, tols), tols)
        arrays = (U, state.Q, state.sigma, state.W0, state.Wp)
        before = [a.copy() for a in arrays]
        e = exact_error(U, state)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert e > 0.0 and e == weighted_operator_norm(U - reconstruct(state), M)

    def test_fhn_sweep_cells_match_svdvals(self, fhn_small):
        # verify's nine cells on a small FHN data set, against all
        # singular values of L^T (U - R); only the tightest row keeps its
        # state, and a cell's stream is deterministic, so each runs again
        U, M = fhn_small
        for row, tols in zip(tolerance_sweep(U, M, VERIFY_GRID), VERIFY_GRID):
            state = flush(run_stream(iter(U.T), M, tols), tols)
            assert (state.k, state.e) == (row.rank, row.incr_error_bound)
            S = M.apply_lt(U - reconstruct(state))
            expected = scipy.linalg.svdvals(S)[0]
            assert row.exact_error == pytest.approx(expected, rel=1e-12, abs=0)

    def test_shape_mismatch(self, rng):
        M = random_weight(rng, 5)
        U = rng.standard_normal((5, 4))
        ex = exact_weighted_svd(U, M)
        s = state_from_triple(ex.V, ex.sigma, ex.W, M)
        with pytest.raises(ValueError):
            exact_error(rng.standard_normal((5, 6)), s)


class TestMemory:
    """Beyond U, the oracle holds O(m^2 + n k) numbers: one m x n array for
    the exact SVD, none for a sweep cell. tracemalloc sees numpy's data
    buffers, the binding's workspaces among them."""

    @pytest.fixture(scope="class")
    def wide_rank_4(self):
        # noiseless rank 4, so that the state's and the exact SVD's k stay at
        # 4 and their n x k arrays small; the FHN weight of 30 nodes (m = 60)
        M = build_weight_matrix(Mesh1D(30))
        rng = np.random.default_rng(4)
        U = np.asfortranarray(rng.standard_normal((M.dim, 4)) @ rng.standard_normal((4, 20_000)))
        return U, M

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sweep_cell_builds_no_m_by_n_array(self, monkeypatch, wide_rank_4):
        U, M = wide_rank_4
        monkeypatch.setattr(oracle, "_fork_context", lambda cells: None)
        M.apply_lt(U[:, :1])  # the cached factor is not the cell's
        tols = Tolerances(1e-8, 1e-8)
        (row,), peak = self.traced_peak(lambda: tolerance_sweep(U, M, [tols]))
        assert row.rank == 4 and row.state.n == U.shape[1]
        assert peak < 0.5 * U.nbytes, f"{peak / U.nbytes:.2f} x U"

    def test_exact_svd_builds_one_m_by_n_array(self, wide_rank_4):
        U, M = wide_rank_4
        M.apply_lt(U[:, :1])
        ex, peak = self.traced_peak(lambda: exact_weighted_svd(U, M))
        assert ex.k == 4
        assert peak < 1.25 * U.nbytes, f"{peak / U.nbytes:.2f} x U"


class TestOracleIncrementalAgreement:
    def test_values_and_leading_vectors(self, rng):
        M = random_weight(rng, 30)
        sigmas = np.geomspace(10.0, 1e-3, 8)
        U, _, _, _ = engineered_pair(rng, M, 18, sigmas)
        state = run_stream(iter(U.T), M, Tolerances(1e-300, 1e-300))
        ex = exact_weighted_svd(U, M)
        assert np.max(np.abs(state.sigma[: ex.k] - ex.sigma)) <= 1e-11 * ex.sigma[0]
        # leading vectors with a healthy spectral gap agree to angle 1e-8
        for j in range(ex.k):
            gap_prev = np.inf if j == 0 else ex.sigma[j - 1] - ex.sigma[j]
            gap_next = (
                ex.sigma[j] - ex.sigma[j + 1] if j + 1 < ex.k else ex.sigma[j]
            )
            if min(gap_prev, gap_next) < 1e-6 * ex.sigma[0]:
                continue
            v_ex, v_in = ex.V[:, j], state.V[:, j]
            cos = v_ex @ M.matvec(v_in)
            d = v_in - cos * v_ex
            sin = np.sqrt(abs(d @ M.matvec(d)))
            assert sin <= 1e-8


class TestToleranceSweep:
    def test_no_truncation_grid(self, rng):
        M = random_weight(rng, 15)
        U = rng.standard_normal((15, 10))
        rows = tolerance_sweep(U, M, [Tolerances(1e-300, 1e-300)])
        assert len(rows) == 1
        row = rows[0]
        sigma1 = exact_weighted_svd(U, M).sigma[0]
        assert row.incr_error_bound == 0.0
        assert row.exact_error <= 1e-10 * sigma1

    def test_domination_on_grid(self, rng):
        M = random_weight(rng, 20)
        base_sigmas = np.geomspace(5.0, 1e-12, 14)
        U, _, _, _ = engineered_pair(rng, M, 25, base_sigmas)
        grid = [
            Tolerances(t, tsv)
            for t in (1e-4, 1e-8)
            for tsv in (1e-4, 1e-8)
        ]
        rows = tolerance_sweep(U, M, grid)
        sigma1 = exact_weighted_svd(U, M).sigma[0]
        assert len(rows) == 4
        for row in rows:
            assert row.exact_error <= row.incr_error_bound + 1e-10 * sigma1
            assert row.incr_error_bound <= row.T_p * row.tol + row.T_sv * row.tol_sv

    def test_leading_zero_columns(self, rng):
        # the state has a (zero) row of W for every stream column, so the
        # exact error compares it with U as it is
        M = random_weight(rng, 12)
        U = m_orthonormal_columns(rng, M, 3) @ rng.standard_normal((3, 9))
        U[:, :3] = 0.0
        (row,) = tolerance_sweep(U, M, [Tolerances(1e-8, 1e-8)])
        assert row.state.n == 9 and row.state.W.shape == (9, 3)
        assert row.exact_error == exact_error(U, row.state)
        assert row.exact_error <= row.incr_error_bound + 1e-12

    def test_accepts_tolerance_pairs(self, rng):
        M = random_weight(rng, 6)
        U = rng.standard_normal((6, 4))
        rows = tolerance_sweep(U, M, [(1e-8, 1e-8)])
        assert rows[0].tol == 1e-8

    def test_empty_stream(self):
        with pytest.raises(InvalidInputError):
            tolerance_sweep(np.zeros((4, 0)), WeightMatrix(np.eye(4)), [Tolerances()])


def use_cores(monkeypatch, count):
    """``count`` usable cores, and a BLAS of one thread whatever the
    environment sets."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(oracle._lapack, "get_num_threads", lambda: 1)


def forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("the sweep started a process")

    monkeypatch.setattr(os, "fork", fork)


def split_cells(monkeypatch, path, in_worker=None):
    """Record the pid and tolerances of every cell in ``path``, and make the
    split between this process and the pool's worker deterministic: this
    process's first cell waits until the worker has started every other cell
    (only one if ``in_worker``, which replaces the row computation in the
    worker, is given). Returns a function that reads the records as
    (pid, tol, tol_sv)."""
    caller, real = os.getpid(), oracle._sweep_row

    def started():
        return [
            (int(pid), float(tol), float(tol_sv))
            for pid, tol, tol_sv in (line.split() for line in path.read_text().splitlines())
        ]

    def sweep_row(U, M, tols):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {tols.tol!r} {tols.tol_sv!r}\n")
        if os.getpid() != caller:
            return (in_worker or real)(U, M, tols)
        expected = 1 if in_worker else len(VERIFY_GRID) - 1
        deadline = time.monotonic() + 60.0
        while sum(pid != caller for pid, *_ in started()) < expected:
            assert time.monotonic() < deadline, "the sweep worker started too few cells"
            time.sleep(0.01)
        return real(U, M, tols)

    monkeypatch.setattr(oracle, "_sweep_row", sweep_row)
    return started


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


# a two-cell sweep on two cores whose cells record their pid in argv[1] and
# sleep: the caller and the pool's worker each sit in a cell
SLEEPING_SWEEP = """
import os, sys, time
import numpy as np
from incpod import oracle
from incpod.weighted_linalg import WeightMatrix

os.sched_getaffinity = lambda pid: {0, 1}
oracle._lapack.get_num_threads = lambda: 1

def sweep_row(U, M, tols):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(600)

oracle._sweep_row = sweep_row
oracle.tolerance_sweep(np.eye(3), WeightMatrix(np.eye(3)), [(1e-8, 1e-8), (1e-10, 1e-10)])
"""


class TestForkedSweep:
    """With two usable cores, a grid of two cells or more is shared between
    the caller and the one worker of a forked process pool."""

    def test_worker_rows_equal_serial_rows(self, monkeypatch, fhn_small, tmp_path):
        U, M = fhn_small
        use_cores(monkeypatch, 1)
        with monkeypatch.context() as m:
            forbid_fork(m)
            serial = tolerance_sweep(U, M, VERIFY_GRID)
        use_cores(monkeypatch, 2)
        started = split_cells(monkeypatch, tmp_path / "cells")
        threads = threading.active_count()
        forked = tolerance_sweep(U, M, VERIFY_GRID)
        # every cell ran once: one in the caller, the others in the worker
        cells = started()
        assert sorted(c[1:] for c in cells) == sorted((t.tol, t.tol_sv) for t in VERIFY_GRID)
        assert sum(c[0] == os.getpid() for c in cells) == 1
        # the pool and its threads are gone
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert [(r.tol, r.tol_sv) for r in forked] == [(t.tol, t.tol_sv) for t in VERIFY_GRID]
        # the rows' scalars are the same bits; only the tightest row keeps
        # its state, and that one's is the same too
        tight = [(t.tol, t.tol_sv) for t in VERIFY_GRID].index((1e-12, 1e-12))
        for i, (a, b) in enumerate(zip(serial, forked)):
            assert a.rank == b.rank and (a.T_p, a.T_sv) == (b.T_p, b.T_sv)
            for x, y in (
                (a.exact_error, b.exact_error),
                (a.incr_error_bound, b.incr_error_bound),
                (a.sigma, b.sigma),
            ):
                assert same_bits(x, y)
            if i != tight:
                assert a.state is None and b.state is None
        a, b = serial[tight].state, forked[tight].state
        assert a.n == b.n and (a.T_p, a.T_sv) == (b.T_p, b.T_sv)
        for x, y in ((a.sigma, b.sigma), (a.V, b.V), (a.W, b.W)):
            assert same_bits(x, y)

    def test_worker_exception_keeps_its_type(self, monkeypatch, fhn_small, tmp_path):
        U, M = fhn_small
        use_cores(monkeypatch, 2)

        def fail(U, M, tols):
            raise IntegrationFailureError(f"cell {tols} failed", t_reached=1.25)

        started = split_cells(monkeypatch, tmp_path / "cells", in_worker=fail)
        with pytest.raises(IntegrationFailureError, match="failed") as info:
            tolerance_sweep(U, M, VERIFY_GRID)
        assert info.value.t_reached == 1.25
        # the failure stops the claims: the worker started one cell, and the
        # caller stopped once it saw the failure
        cells = started()
        assert sum(c[0] != os.getpid() for c in cells) == 1
        assert len(cells) < len(VERIFY_GRID)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_without_a_row_raises(self, monkeypatch, fhn_small, tmp_path):
        # concurrent.futures' BrokenProcessPool is a RuntimeError
        U, M = fhn_small
        use_cores(monkeypatch, 2)
        split_cells(monkeypatch, tmp_path / "cells", in_worker=lambda U, M, tols: os._exit(7))
        with pytest.raises(RuntimeError, match="terminated abruptly"):
            tolerance_sweep(U, M, VERIFY_GRID)
        assert multiprocessing.active_children() == []

    def test_caller_exception_joins_the_worker(self, monkeypatch, fhn_small, tmp_path):
        U, M = fhn_small
        use_cores(monkeypatch, 2)
        parent, real = os.getpid(), oracle._sweep_row
        started = tmp_path / "worker_cells"

        def sweep_row(U, M, tols):
            if os.getpid() == parent:
                raise InvalidInputError("caller's cell failed")
            with open(started, "a") as fh:
                fh.write("x")
            return real(U, M, tols)

        monkeypatch.setattr(oracle, "_sweep_row", sweep_row)
        with pytest.raises(InvalidInputError, match="caller's cell"):
            tolerance_sweep(U, M, VERIFY_GRID)
        assert multiprocessing.active_children() == []
        # the failure stops the claims: the worker finished the cell it had
        # claimed, if any, and started no other
        assert len(started.read_text() if started.exists() else "") <= 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_killed_caller_leaves_no_worker(self, tmp_path):
        # SIGKILL skips every cleanup of the caller; the worker ends itself
        record = tmp_path / "pids"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        child = subprocess.Popen([sys.executable, "-c", SLEEPING_SWEEP, str(record)], env=env)
        pids = set()
        try:
            deadline = time.monotonic() + 60.0
            while len(pids) < 2:
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
                pids = set(map(int, record.read_text().split())) if record.exists() else set()
            (worker,) = pids - {child.pid}
            child.kill()
            child.wait()
            deadline = time.monotonic() + 10.0
            while running(worker):
                assert time.monotonic() < deadline, "the sweep worker outlived its caller"
                time.sleep(0.01)
        finally:
            child.kill()
            child.wait()
            for pid in pids:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_second_thread_starts_no_process(self, monkeypatch, rng):
        # a Python thread besides the caller's keeps the sweep in this
        # process: a forked child could hang on a lock that thread held
        use_cores(monkeypatch, 2)
        forbid_fork(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            M = random_weight(rng, 8)
            rows = tolerance_sweep(rng.standard_normal((8, 5)), M, VERIFY_GRID[:2])
        finally:
            release.set()
            other.join()
        assert [row.tol_sv for row in rows] == [1e-8, 1e-10]

    def test_blas_threads_start_no_process(self, monkeypatch, rng):
        # a BLAS that runs a second thread already uses the cores: the sweep
        # stays in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(oracle._lapack, "get_num_threads", lambda: 2)
        forbid_fork(monkeypatch)
        M = random_weight(rng, 8)
        rows = tolerance_sweep(rng.standard_normal((8, 5)), M, VERIFY_GRID[:2])
        assert [row.tol_sv for row in rows] == [1e-8, 1e-10]

    def test_one_cell_grid_starts_no_process(self, monkeypatch, rng):
        use_cores(monkeypatch, 2)
        forbid_fork(monkeypatch)
        M = random_weight(rng, 8)
        (row,) = tolerance_sweep(rng.standard_normal((8, 5)), M, [Tolerances(1e-8, 1e-8)])
        assert row.rank == 5
