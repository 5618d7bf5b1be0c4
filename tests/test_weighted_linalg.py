import numpy as np
import pytest
import scipy.sparse

from incpod.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    RankDeficientError,
)
from incpod.weighted_linalg import (
    WeightMatrix,
    m_inner,
    m_norm,
    m_orthonormality_defect,
    modified_gram_schmidt_weighted,
    small_svd,
    weighted_operator_norm,
)

from conftest import random_spd, random_weight


class TestWeightMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.ones((2, 3)))

    def test_sparse_input_kept_sparse(self):
        M = WeightMatrix(scipy.sparse.eye(5))
        assert M.is_sparse
        assert M.dim == 5


class TestMInner:
    def test_orthogonal_standard_basis(self):
        M = WeightMatrix(np.eye(2))
        assert m_inner([1.0, 0.0], [0.0, 1.0], M) == 0.0

    def test_diagonal_direct_sum(self):
        M = WeightMatrix(np.diag([1.0, 4.0]))
        assert m_inner([1.0, 1.0], [1.0, 1.0], M) == 5.0

    def test_cholesky_split_oracle(self, rng):
        # oracle: (x, y)_M = (L^T y) . (L^T x) for M = L L^T
        for _ in range(20):
            m = rng.integers(2, 30)
            L = np.tril(rng.standard_normal((m, m)))
            np.fill_diagonal(L, np.abs(np.diagonal(L)) + 1.0)
            M = WeightMatrix((L @ L.T + (L @ L.T).T) / 2.0)
            x = rng.standard_normal(m)
            y = rng.standard_normal(m)
            expected = (M.chol.T @ y) @ (M.chol.T @ x)
            got = m_inner(x, y, M)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_dimension_mismatch(self):
        M = WeightMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m_inner([1.0, 2.0], [1.0, 2.0, 3.0], M)


class TestMNorm:
    def test_euclidean(self):
        assert m_norm([3.0, 4.0], WeightMatrix(np.eye(2))) == 5.0

    def test_zero_vector(self):
        assert m_norm(np.zeros(2), WeightMatrix(np.eye(2))) == 0.0

    def test_diagonal(self):
        assert m_norm([1.0, -1.0], WeightMatrix(np.diag([2.0, 2.0]))) == 2.0

    def test_squared_equals_inner(self, rng):
        for _ in range(20):
            M = random_weight(rng, 10)
            x = rng.standard_normal(10)
            assert m_norm(x, M) ** 2 == pytest.approx(
                m_inner(x, x, M), rel=1e-14
            )

    def test_no_nan_from_negative_roundoff(self):
        # force a tiny negative quadratic form through the absolute value
        M = WeightMatrix(np.eye(2))
        assert np.isfinite(m_norm([1e-200, 0.0], M))


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(WeightMatrix(np.eye(3)).chol, np.eye(3))

    def test_diagonal(self):
        L = WeightMatrix(np.diag([4.0, 9.0])).chol
        assert np.allclose(L, np.diag([2.0, 3.0]), atol=0)

    def test_two_by_two_roundtrip(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        L = WeightMatrix(M).chol
        assert np.max(np.abs(M - L @ L.T)) <= 1e-14

    @pytest.mark.parametrize("m", [5, 50, 200])
    def test_random_spd_roundtrip(self, rng, m):
        M = random_spd(rng, m)
        L = WeightMatrix(M).chol
        assert np.max(np.abs(M - L @ L.T)) <= 1e-12 * np.max(np.abs(M))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            WeightMatrix(np.diag([1.0, -1.0])).chol
        assert exc.value.pivot >= 0

    def test_sparse_banded_roundtrip(self):
        m = 40
        M = scipy.sparse.diags(
            [np.full(m - 1, -1.0), np.full(m, 4.0), np.full(m - 1, -1.0)],
            [-1, 0, 1],
        )
        W = WeightMatrix(M)
        L = W.chol
        assert scipy.sparse.issparse(L)
        err = np.max(np.abs((M - L @ L.T).toarray()))
        assert err <= 1e-12 * 4.0

    def test_sparse_not_positive_definite(self):
        M = scipy.sparse.diags([1.0, -2.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            WeightMatrix(M).chol

    def test_solve_lt_inverts_apply_lt(self, rng):
        for sparse in (False, True):
            M = random_spd(rng, 12)
            W = WeightMatrix(scipy.sparse.csr_matrix(M) if sparse else M)
            B = rng.standard_normal((12, 3))
            X = W.solve_lt(B)
            assert np.allclose(W.apply_lt(X), B, atol=1e-12)


class TestModifiedGramSchmidt:
    def test_idempotent_on_orthonormal_input(self, rng):
        M = random_weight(rng, 15)
        V = modified_gram_schmidt_weighted(rng.standard_normal((15, 4)), M)
        V2 = modified_gram_schmidt_weighted(V, M)
        assert np.max(np.abs(V2 - V)) <= 1e-14

    def test_classical_two_column_case(self):
        M = WeightMatrix(np.eye(2))
        Q = modified_gram_schmidt_weighted(np.array([[1.0, 1.0], [0.0, 1.0]]), M)
        assert np.max(np.abs(Q.T @ Q - np.eye(2))) <= 1e-14

    def test_random_weighted_residual(self, rng):
        M = random_weight(rng, 20)
        V = modified_gram_schmidt_weighted(rng.standard_normal((20, 5)), M)
        assert m_orthonormality_defect(V, M) <= 1e-13

    def test_ill_conditioned_input(self, rng):
        # columns with condition number up to ~1e8 still orthogonalize
        M = random_weight(rng, 30)
        base = rng.standard_normal((30, 6))
        U, s, Vt = np.linalg.svd(base, full_matrices=False)
        s = np.geomspace(1.0, 1e-8, 6)
        V = modified_gram_schmidt_weighted((U * s) @ Vt, M)
        assert m_orthonormality_defect(V, M) <= 1e-10 * 6

    def test_rank_deficient_column(self, rng):
        M = random_weight(rng, 10)
        v = rng.standard_normal(10)
        with pytest.raises(RankDeficientError) as exc:
            modified_gram_schmidt_weighted(np.column_stack([v, v]), M)
        assert exc.value.column == 1


class TestSmallSvd:
    def test_diagonal(self):
        V, s, W = small_svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0], atol=0)
        assert np.allclose(np.abs(V), np.eye(2), atol=1e-15)
        assert np.allclose(np.abs(W), np.eye(2), atol=1e-15)

    def test_permutation(self):
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        V, s, W = small_svd(Q)
        assert np.allclose(s, [1.0, 1.0], atol=1e-15)
        assert np.max(np.abs((V * s) @ W.T - Q)) <= 1e-14

    def test_eigen_oracle_on_gram_matrix(self, rng):
        # oracle: singular values = sqrt of eigenvalues of Q^T Q
        for _ in range(10):
            Q = rng.standard_normal((6, 6))
            _, s, _ = small_svd(Q)
            expected = np.sqrt(np.sort(np.linalg.eigvalsh(Q.T @ Q))[::-1])
            assert np.allclose(s, expected, rtol=1e-12, atol=1e-12)

    def test_factors_orthogonal_and_reproduce(self, rng):
        for _ in range(10):
            n = rng.integers(2, 9)
            Q = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 7)
            V, s, W = small_svd(Q)
            assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-13
            assert np.max(np.abs(W.T @ W - np.eye(n))) <= 1e-13
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
            assert np.max(np.abs((V * s) @ W.T - Q)) <= 1e-13 * np.max(np.abs(Q))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            small_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(3, 8), (8, 3)], ids=["wide", "tall"])
    def test_rectangular_is_thin(self, rng, shape):
        # a run's flush decomposes the wide k x (k + j) matrix [diag(sigma) D]
        Q = rng.standard_normal(shape)
        V, s, W = small_svd(Q)
        r = min(shape)
        assert V.shape == (shape[0], r) and s.shape == (r,) and W.shape == (shape[1], r)
        assert np.max(np.abs(V.T @ V - np.eye(r))) <= 1e-14
        assert np.max(np.abs(W.T @ W - np.eye(r))) <= 1e-14
        assert np.max(np.abs((V * s) @ W.T - Q)) <= 1e-14 * np.max(np.abs(Q)) * 10
        assert np.allclose(s, np.linalg.svd(Q, compute_uv=False), rtol=1e-13, atol=0)

    def test_non_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            small_svd(np.ones(3))


class TestWeightedOperatorNorm:
    def test_diagonal(self):
        assert weighted_operator_norm(np.diag([5.0, 2.0]), WeightMatrix(np.eye(2))) == 5.0

    def test_zero_matrix(self):
        assert weighted_operator_norm(np.zeros((3, 2)), WeightMatrix(np.eye(3))) == 0.0

    def test_eigen_oracle(self, rng):
        # oracle: norm^2 = largest eigenvalue of A^T M A
        for _ in range(10):
            m, n = rng.integers(2, 20), rng.integers(1, 15)
            M = random_weight(rng, m)
            A = rng.standard_normal((m, n))
            expected = np.sqrt(np.max(np.linalg.eigvalsh(A.T @ (M.entries @ A))))
            assert weighted_operator_norm(A, M) == pytest.approx(expected, rel=1e-11)

    def test_identity_weight_is_spectral_norm(self, rng):
        A = rng.standard_normal((8, 5))
        got = weighted_operator_norm(A, WeightMatrix(np.eye(8)))
        assert got == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_operator_norm(np.ones((3, 2)), WeightMatrix(np.eye(2)))
