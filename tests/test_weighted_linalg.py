import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from incpod.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    RankDeficientError,
)
from incpod.fhn import Mesh1D, build_weight_matrix
from incpod.io_formats import read_weight_matrix, write_weight_matrix
from incpod.weighted_linalg import (
    BLOCK,
    WeightMatrix,
    column_blocks,
    m_orthonormality_defect,
    modified_gram_schmidt_weighted,
    small_svd,
    weighted_operator_norm,
)

from conftest import random_spd, random_weight


class TestWeightMatrix:
    # asymmetric inside the lower band (a different value) or past it (an
    # entry with no mirror, above or below the diagonal)
    ASYMMETRIC = (
        [[1.0, 2.0], [0.0, 1.0]],
        [[4.0, -1.0, 0.5], [-1.0, 4.0, 0.0], [0.0, 0.0, 3.0]],
        [[4.0, -1.0, 0.0], [-1.0, 4.0, 0.0], [0.5, 0.0, 3.0]],
    )

    def test_rejects_asymmetric(self):
        for A in self.ASYMMETRIC:
            with pytest.raises(ValueError, match="not symmetric"):
                WeightMatrix(np.array(A))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_sparse(self, value):
        for band in ([[value, 1.0]], [[1.0, 1.0], [0.5, value]]):  # inside or past the end
            with pytest.raises(ValueError, match="non-finite"):
                WeightMatrix.from_band(band)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_dense_without_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                WeightMatrix(np.diag([value, 1.0]))

    def test_sparse_input_kept_sparse(self):
        M = WeightMatrix.from_band(np.ones((1, 5)))
        assert M.is_sparse
        assert M.dim == 5
        assert not WeightMatrix(np.eye(5)).is_sparse

    def test_scipy_matrix_is_refused(self):
        # numpy's own conversion refuses a scipy matrix, so that it is never
        # taken as some other array
        for sparse in (scipy.sparse.csr_matrix(np.eye(3)), scipy.sparse.eye(3)):
            with pytest.raises((TypeError, ValueError)):
                WeightMatrix(sparse)

    def test_file_round_trip_keeps_the_file_and_csr_arrays(self, tmp_path, rng):
        built = build_weight_matrix(Mesh1D(60))
        write_weight_matrix(tmp_path / "fhn.wm", built)
        read = read_weight_matrix(tmp_path / "fhn.wm")
        write_weight_matrix(tmp_path / "again.wm", read)
        assert (tmp_path / "again.wm").read_bytes() == (tmp_path / "fhn.wm").read_bytes()
        a, b = built.entries, read.entries
        for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)):
            assert x.tobytes() == y.tobytes()
        for x in (rng.standard_normal(built.dim), rng.standard_normal((built.dim, 40))):
            assert built.matvec(x).tobytes() == read.matvec(x).tobytes()

    def test_apply_lt_into_out(self, rng):
        # the product written into a given array, whatever it held and in
        # either order, has the bits of a new one
        for M in (WeightMatrix(random_spd(rng, 40)), build_weight_matrix(Mesh1D(20))):
            for shape, order in (((40,), "C"), ((40, 64), "C"), ((40, 64), "F")):
                x, out = rng.standard_normal(shape), np.full(shape, np.nan, order=order)
                assert M.apply_lt(x, out=out) is out
                assert out.tobytes() == M.apply_lt(x).tobytes()


class TestMInner:
    """The M-inner product (x, y)_M = y^T M x, which the package takes as
    the Euclidean one of L^T x and L^T y (M = L L^T) in its streamed and
    exact decompositions."""

    def test_cholesky_split_oracle(self, rng):
        # oracle: (x, y)_M = (L^T y) . (L^T x) for M = L L^T
        for _ in range(20):
            m = rng.integers(2, 30)
            L = np.tril(rng.standard_normal((m, m)))
            np.fill_diagonal(L, np.abs(np.diagonal(L)) + 1.0)
            M = WeightMatrix((L @ L.T + (L @ L.T).T) / 2.0)
            x = rng.standard_normal(m)
            y = rng.standard_normal(m)
            expected = M.apply_lt(y) @ M.apply_lt(x)
            got = y @ M.matvec(x)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_dimension_mismatch(self):
        M = WeightMatrix(np.eye(3))
        for W in (M, WeightMatrix.from_band(np.ones((1, 3)))):
            for operand in (np.ones(2), np.ones((3, 3, 2)), np.float64(1.0)):
                with pytest.raises(ValueError, match="operand has shape"):
                    W.matvec(operand)


def assert_apply_lt_is_one_product(M, rng, order, n):
    """``apply_lt`` of a sparse M keeps the bits of one product over the
    band's rows and A's layout."""
    A = np.array(rng.standard_normal((M.dim, n)), order=order)
    A[::3, ::2] = -0.0
    L = M._factor()
    expected = L[0][:, None] * A
    for d in range(1, L.shape[0]):
        expected[:-d] += L[d, :-d][:, None] * A[d:]
    got = M.apply_lt(A)
    assert got.tobytes() == expected.tobytes()
    assert got.flags.f_contiguous == (order == "F" or n == 1)
    assert M.apply_lt(A[:, 0]).tobytes() == expected[:, 0].tobytes()


def cholesky_factor(W):
    """The dense L with M = L L^T, as L^T = ``apply_lt`` of the identity."""
    return W.apply_lt(np.eye(W.dim)).T


def lower_band(A, depth):
    """LAPACK's lower band storage of A, dense or sparse: row d holds A[j + d, j]."""
    return np.array([np.pad(A.diagonal(-d), (0, d)) for d in range(depth + 1)])


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky_factor(WeightMatrix(np.eye(3))), np.eye(3))

    def test_diagonal(self):
        L = cholesky_factor(WeightMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(L, np.diag([2.0, 3.0]), atol=0)

    def test_two_by_two_roundtrip(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        L = cholesky_factor(WeightMatrix(M))
        assert np.max(np.abs(M - L @ L.T)) <= 1e-14

    @pytest.mark.parametrize("m", [5, 50, 200])
    def test_random_spd_roundtrip(self, rng, m):
        M = random_spd(rng, m)
        L = cholesky_factor(WeightMatrix(M))
        assert np.max(np.abs(M - L @ L.T)) <= 1e-12 * np.max(np.abs(M))

    # LAPACK's 0-based pivot: the first leading minor that is not positive
    NOT_POSITIVE = [
        (np.diag([1.0, 1.0, -1.0, 1.0]), 2),
        (np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1), 1),  # minor [[1, 1], [1, 1]]
    ]

    def test_not_positive_definite(self):
        for M, pivot in self.NOT_POSITIVE:
            with pytest.raises(NotPositiveDefiniteError) as exc:
                WeightMatrix(M).apply_lt(np.eye(len(M)))
            assert exc.value.pivot == pivot

    def test_sparse_banded_roundtrip(self):
        m = 40
        W = WeightMatrix.from_band([np.full(m, 4.0), np.full(m, -1.0)])
        M = W.entries.toarray()
        L = cholesky_factor(W)
        assert np.array_equal(L, np.tril(L))
        err = np.max(np.abs(M - L @ L.T))
        assert err <= 1e-12 * 4.0

    def test_sparse_not_positive_definite(self):
        for M, pivot in [(np.diag([1.0, -2.0, 1.0]), 1)] + self.NOT_POSITIVE:
            W = WeightMatrix.from_band(lower_band(M, len(M) - 1))
            with pytest.raises(NotPositiveDefiniteError) as exc:
                W.apply_lt(np.eye(len(M)))
            assert exc.value.pivot == pivot

    def test_solve_lt_inverts_apply_lt(self, rng):
        for sparse in (False, True):
            M = random_spd(rng, 12)
            W = WeightMatrix.from_band(lower_band(M, 11)) if sparse else WeightMatrix(M)
            B = rng.standard_normal((12, 3))
            X = W.solve_lt(B)
            assert np.allclose(W.apply_lt(X), B, atol=1e-12)

    @pytest.mark.parametrize("shape", [(60,), (60, 5), (60, 0)], ids=["vector", "block", "empty"])
    def test_solve_lt_recovers_apply_lt(self, rng, shape):
        X = rng.standard_normal(shape)
        for W in (WeightMatrix(random_spd(rng, 60)), build_weight_matrix(Mesh1D(30))):
            Y = W.solve_lt(W.apply_lt(X))
            assert Y.shape == X.shape
            assert np.max(np.abs(Y - X), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 3 * BLOCK + 5])
    def test_band_apply_lt_in_blocks_equals_one_product(self, rng, order, n):
        # the product over the band's rows at once, as it was taken before
        # it went a block of columns at a time: the same bits, and the
        # layout of A kept
        assert_apply_lt_is_one_product(build_weight_matrix(Mesh1D(30)), rng, order, n)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, BLOCK + 3])
    @pytest.mark.parametrize("weight", ["fem", "bandwidth_four"])
    def test_band_apply_lt_in_tiles_equals_one_product(self, rng, order, n, weight):
        # tiles of rows as well: the FEM weight of 200 nodes is three tiles
        # of rows and a part, and at bandwidth four, m = 2 BLOCK + 2 ends
        # in a tile of two rows, fewer than the band
        if weight == "fem":
            M = build_weight_matrix(Mesh1D(200))
        else:
            band = rng.uniform(-1.0, 1.0, (5, 2 * BLOCK + 2))
            band[0] += 9.0  # diagonally dominant, so positive definite
            M = WeightMatrix.from_band(band)
        assert_apply_lt_is_one_product(M, rng, order, n)

    def test_band_apply_lt_of_a_narrow_operand_peaks_at_its_result(self):
        # with 40 columns one block of columns is the whole of A; the
        # temporaries are held to a tile of rows, so the product takes
        # little more than its result
        M = build_weight_matrix(Mesh1D(3000))
        A = np.random.default_rng(3).standard_normal((M.dim, 40))
        M.apply_lt(A[:, :1])  # the factor is cached before the measurement
        tracemalloc.start()
        try:
            S = M.apply_lt(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.shape == A.shape
        assert peak <= 1.1 * A.nbytes, f"{peak / A.nbytes:.2f} x A"

    def test_band_factor_equals_lapack_on_fhn_weight(self):
        W = build_weight_matrix(Mesh1D(60))
        expected = scipy.linalg.cholesky_banded(lower_band(W.entries, 1), lower=True)
        assert np.array_equal(lower_band(cholesky_factor(W), 1), expected)

    def test_band_factor_near_lapack_at_bandwidth_four(self, rng):
        # diagonally dominant, so positive definite
        m = 80
        off = [rng.uniform(-1.0, 1.0, m - d) for d in range(1, 5)]
        M = scipy.sparse.diags(off[::-1] + [9.0 + rng.random(m)] + off, range(-4, 5))
        expected = scipy.linalg.cholesky_banded(lower_band(M, 4), lower=True)
        got = lower_band(cholesky_factor(WeightMatrix.from_band(lower_band(M, 4))), 4)
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("pivot", [0, 23, 49], ids=["first", "middle", "last"])
    def test_sparse_pivot_is_exact(self, pivot):
        # pentadiagonal and positive definite, but for one diagonal entry
        # that leaves a negative Schur complement at ``pivot``
        m = 50
        main = np.full(m, 6.0)
        main[pivot] = 0.5 if pivot else -1.0
        W = WeightMatrix.from_band([main, np.full(m, -2.0), np.full(m, 1.0)])
        with pytest.raises(NotPositiveDefiniteError, match=f"order {pivot + 1}") as exc:
            W.apply_lt(np.ones(m))
        assert exc.value.pivot == pivot

    def test_dense_pivot_by_bisection_is_exact(self, rng):
        # M = L L^T but for its entry (37, 37), which leaves a Schur
        # complement of -1 there: the minor of order 38 is the first that
        # is not positive
        L = np.tril(rng.standard_normal((50, 50)))
        np.fill_diagonal(L, np.abs(np.diagonal(L)) + 1.0)
        M = L @ L.T
        M = (M + M.T) / 2.0
        M[37, 37] -= L[37, 37] ** 2 + 1.0
        with pytest.raises(NotPositiveDefiniteError, match="order 38") as exc:
            WeightMatrix(M).solve_lt(np.ones(50))
        assert exc.value.pivot == 37
        assert scipy.linalg.lapack.dpotrf(M, lower=1)[1] == 38  # LAPACK's 1-based info


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

    def test_stream_shapes_against_gesvd(self, rng):
        """1000 matrices of the two shapes a stream decomposes, the bordered
        [diag(s) d; 0 p] of a growth column (p = 0 in every other one) and
        the [diag(s) D] of a flush, with spread, clustered and graded (down to
        1e-14 s_1) values, against gesvd with vectors (the driver before
        gesdd). The bounds grow with the order n = max(a, b): on clustered
        values gesvd itself leaves residuals up to 8.5 n eps ||B||, and its
        values with and without vectors differ by up to 49 eps s_1;
        the two drivers' values differ by up to 0.82 n eps s_1."""
        eps = np.finfo(float).eps
        for i in range(1000):
            k = int(rng.integers(1, 61))
            scale = 10.0 ** rng.integers(-5, 5)
            s = scale * [
                np.sort(rng.random(k))[::-1],
                np.sort(1.0 + 1e-12 * rng.random(k))[::-1],
                np.geomspace(1.0, 1e-14, k),
            ][i % 3]
            if i % 2:
                D = rng.standard_normal((k, int(rng.integers(1, 33))))
                B = np.hstack([np.diag(s), D * s[0] * 10.0 ** rng.integers(-16, 0)])
            else:
                B = np.diag(np.append(s, 0.0))
                B[:k, k] = rng.standard_normal(k) * s[0] * 10.0 ** rng.integers(-3, 2)
                if i % 4:
                    B[k, k] = abs(rng.standard_normal()) * s[0] * 10.0 ** rng.integers(-16, 1)
            V, sigma, W = small_svd(B)
            r, n = min(B.shape), max(B.shape)
            norm = np.linalg.norm(B, 2)
            assert np.linalg.norm((V * sigma) @ W.T - B, 2) <= 10.0 * n * eps * norm
            assert np.max(np.abs(V.T @ V - np.eye(r))) <= 1e-14 * k
            assert np.max(np.abs(W.T @ W - np.eye(r))) <= 1e-14 * k
            gesvd = scipy.linalg.svd(B, full_matrices=False, lapack_driver="gesvd")[1]
            assert np.max(np.abs(sigma - gesvd)) <= 2.0 * n * eps * sigma[0]


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


def banded_weight(m):
    """A sparse tridiagonal SPD weight, as a 1D FEM mass matrix is."""
    return WeightMatrix.from_band([np.full(m, 4.0), np.full(m, 1.0)])


def svdvals_norm(A, M):
    """The reference: the largest singular value of L^T A from all of them."""
    return scipy.linalg.svdvals(M.apply_lt(A))[0]


class TestOperatorNormFromGram:
    @pytest.mark.parametrize("weight", ["dense", "banded"])
    @pytest.mark.parametrize(
        "shape, rank",
        [((30, 7), 7), ((12, 40), 12), ((25, 25), 25), ((30, 40), 4), ((40, 9), 2)],
        ids=["tall", "wide", "square", "rank_deficient_wide", "rank_deficient_tall"],
    )
    def test_matches_svdvals(self, rng, weight, shape, rank):
        m, n = shape
        M = random_weight(rng, m) if weight == "dense" else banded_weight(m)
        A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        expected = svdvals_norm(A, M)
        assert weighted_operator_norm(A, M) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale", [1e-200, 1e150, 1e160])
    def test_scaled_input_scales_the_norm(self, rng, scale):
        # squaring the unscaled entries would underflow to 0 or overflow to inf
        M = banded_weight(20)
        A = rng.standard_normal((20, 30))
        got = weighted_operator_norm(A * scale, M)
        assert got == pytest.approx(svdvals_norm(A, M) * scale, rel=1e-12, abs=0)

    def test_vector(self, rng):
        M = banded_weight(15)
        x = rng.standard_normal(15)
        assert weighted_operator_norm(x, M) == pytest.approx(np.sqrt(x @ M.matvec(x)), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        for M in (WeightMatrix(np.eye(4)), banded_weight(4)):
            A = np.ones((4, 3))
            A[2, 1] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                weighted_operator_norm(A, M)

    @pytest.mark.parametrize("weight", ["dense", "banded"])
    @pytest.mark.parametrize("shape", [(30, 700), (12, 40), (40, 9)], ids=["wide", "one_block", "tall"])
    def test_column_blocks_match_the_whole_array(self, rng, weight, shape):
        # an iterator of column blocks sums the m x m Gram matrix block by
        # block; for a tall A it is m x m too, and the result is the same
        m, n = shape
        M = random_weight(rng, m) if weight == "dense" else banded_weight(m)
        A = rng.standard_normal((m, 5)) @ rng.standard_normal((5, n)) + rng.standard_normal((m, n))
        blocks = (A[:, cols] for cols in column_blocks(n))
        got = weighted_operator_norm(blocks, M)
        assert got == pytest.approx(svdvals_norm(A, M), rel=2e-15, abs=0)
        if n <= BLOCK and m <= n:  # one block: the array's own path
            assert got == weighted_operator_norm(A, M)

    def test_blocks_of_very_different_scales(self, rng):
        # each block is divided by the largest entry so far; a block with a
        # larger one rescales the sum, so nothing underflows or overflows
        M = banded_weight(20)
        A = rng.standard_normal((20, 90))
        scales = [1e-200, 1.0, 1e150, 1e-300, 1e160, 3.0]
        blocks = [A[:, 15 * i : 15 * (i + 1)] * s for i, s in enumerate(scales)]
        expected = svdvals_norm(np.hstack(blocks) / 1e160, M) * 1e160
        got = weighted_operator_norm(iter(blocks), M)
        assert got == pytest.approx(expected, rel=1e-12, abs=0)
        assert weighted_operator_norm(iter([blocks[0]]), M) == pytest.approx(
            svdvals_norm(A[:, :15], M) * 1e-200, rel=1e-12, abs=0
        )

    def test_block_edge_cases(self, rng):
        M = banded_weight(6)
        assert weighted_operator_norm(iter([]), M) == 0.0
        assert weighted_operator_norm(iter([np.zeros((6, 0)), np.zeros((6, 3))]), M) == 0.0
        x = rng.standard_normal(6)
        # a vector is one column; as a block its Gram matrix is m x m
        expected = np.sqrt(x @ M.matvec(x))
        assert weighted_operator_norm(iter([x]), M) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(ValueError, match="rows"):
            weighted_operator_norm(iter([np.ones((6, 2)), np.ones((5, 2))]), M)
        bad = np.ones((6, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            weighted_operator_norm(iter([np.ones((6, 2)), bad]), M)

    def test_input_unmodified(self, rng):
        M = WeightMatrix(np.eye(6))  # L = I: L^T A must still be a copy
        A = rng.standard_normal((6, 4)) * 1e-200
        before = A.copy()
        weighted_operator_norm(A, M)
        assert np.array_equal(A, before)


class TestColumnBlocks:
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 383, 384, 511, 688, 2451, 20_000])
    def test_partition(self, n):
        # BLOCK columns each, in order, and the remainder in a last block
        blocks = column_blocks(n)
        assert [j for cols in blocks for j in range(n)[cols]] == list(range(n))
        widths = [cols.stop - cols.start for cols in blocks]
        assert widths == [BLOCK] * (n // BLOCK) + [n % BLOCK] * (n % BLOCK > 0)
