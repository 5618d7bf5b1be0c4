import numpy as np
import pytest
import scipy.linalg

from incpod.cli import VERIFY_GRID
from incpod.errors import InvalidInputError
from incpod.fhn import FhnParams, Mesh1D, build_weight_matrix, simulate
from incpod.incremental import SvdState, Tolerances, flush, reconstruct, run_stream
from incpod.oracle import exact_error, exact_weighted_svd, tolerance_sweep
from incpod.weighted_linalg import (
    WeightMatrix,
    m_inner,
    m_norm,
    m_orthonormality_defect,
    weighted_operator_norm,
)

from conftest import engineered_pair, m_orthonormal_columns, random_weight


def state_from_triple(V, sigma, W):
    return SvdState(
        V=V.copy(), sigma=np.asarray(sigma, float).copy(), W0=W.copy(),
        Wp=np.eye(W.shape[1]), n=W.shape[0],
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
            assert lhs == pytest.approx(m_norm(c - proj, M), rel=1e-11)


class TestExactError:
    def test_zero_for_exact_state(self, rng):
        M = random_weight(rng, 10)
        U = rng.standard_normal((10, 6))
        ex = exact_weighted_svd(U, M)
        s = state_from_triple(ex.V, ex.sigma, ex.W)
        assert exact_error(U, s, M) <= 1e-12 * ex.sigma[0]

    def test_rank_r_truncated_state(self, rng):
        M = random_weight(rng, 12)
        U = rng.standard_normal((12, 8))
        ex = exact_weighted_svd(U, M)
        r = 3
        s = state_from_triple(ex.V[:, :r], ex.sigma[:r], ex.W[:, :r])
        assert exact_error(U, s, M) == pytest.approx(ex.sigma[r], rel=1e-11)

    def test_inputs_unmodified(self, rng):
        # the difference U - R is formed in the array reconstruct returns
        M = random_weight(rng, 12)
        U = rng.standard_normal((12, 30))
        tols = Tolerances(0.5, 0.5)
        state = flush(run_stream(iter(U.T), M, tols), M, tols)
        arrays = (U, state.V, state.sigma, state.W0, state.Wp)
        before = [a.copy() for a in arrays]
        e = exact_error(U, state, M)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert e > 0.0 and e == weighted_operator_norm(U - reconstruct(state), M)

    def test_fhn_sweep_cells_match_svdvals(self):
        # verify's nine cells on a small FHN data set, against all
        # singular values of L^T (U - R)
        mesh = Mesh1D(40)
        U = simulate(FhnParams(), mesh, 2.5).columns
        M = build_weight_matrix(mesh)
        for row in tolerance_sweep(U, M, VERIFY_GRID):
            S = M.apply_lt(U - reconstruct(row.state))
            expected = scipy.linalg.svdvals(S)[0]
            assert row.exact_error == pytest.approx(expected, rel=1e-12, abs=0)

    def test_shape_mismatch(self, rng):
        M = random_weight(rng, 5)
        U = rng.standard_normal((5, 4))
        ex = exact_weighted_svd(U, M)
        s = state_from_triple(ex.V, ex.sigma, ex.W)
        with pytest.raises(ValueError):
            exact_error(rng.standard_normal((5, 6)), s, M)


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
            cos = m_inner(v_in, v_ex, M)
            sin = m_norm(v_in - cos * v_ex, M)
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
            assert row.incr_error_bound <= row.state.T_p * row.tol + row.state.T_sv * row.tol_sv

    def test_leading_zero_columns(self, rng):
        # the state has a (zero) row of W for every stream column, so the
        # exact error compares it with U as it is
        M = random_weight(rng, 12)
        U = m_orthonormal_columns(rng, M, 3) @ rng.standard_normal((3, 9))
        U[:, :3] = 0.0
        (row,) = tolerance_sweep(U, M, [Tolerances(1e-8, 1e-8)])
        assert row.state.n == 9 and row.state.W.shape == (9, 3)
        assert row.exact_error == exact_error(U, row.state, M)
        assert row.exact_error <= row.incr_error_bound + 1e-12

    def test_accepts_tolerance_pairs(self, rng):
        M = random_weight(rng, 6)
        U = rng.standard_normal((6, 4))
        rows = tolerance_sweep(U, M, [(1e-8, 1e-8)])
        assert rows[0].tol == 1e-8

    def test_empty_stream(self):
        with pytest.raises(InvalidInputError):
            tolerance_sweep(np.zeros((4, 0)), WeightMatrix(np.eye(4)), [Tolerances()])
