from fractions import Fraction

import numpy as np
import pytest

import incpod.incremental
from incpod.errors import FormatError, InvalidInputError, RankDeficientError
from incpod.fhn import Mesh1D, build_weight_matrix
from incpod.incremental import (
    RUN,
    SvdState,
    Tolerances,
    UpdateReport,
    flush,
    pod_output,
    reconstruct,
    run_stream,
    update,
)
from incpod.oracle import exact_error, exact_weighted_svd
from incpod.weighted_linalg import (
    WeightMatrix,
    m_orthonormality_defect,
    small_svd,
    weighted_operator_norm,
)

from conftest import m_orthonormal_columns, random_weight

EXACT = Tolerances(tol=1e-300, tol_sv=1e-300)


def stream_matrix(U, M, tols, **kw):
    return run_stream(iter(np.asarray(U, dtype=float).T), M, tols, **kw)


def first_update(c, M, tols=EXACT, keep_w=True):
    """The update of the empty state by its first column, and its report."""
    return update(SvdState.empty(M.dim, keep_w=keep_w), c, M, tols)


def started(c, M, keep_w=True):
    """The state after one nonzero column."""
    return first_update(c, M, keep_w=keep_w)[0]


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.tol == 1e-10 and t.tol_sv == 1e-10

    @pytest.mark.parametrize("bad", [dict(tol=0.0), dict(tol_sv=-1.0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Tolerances(**bad)


class TestInitialize:
    """The first column is an ordinary update of the empty state."""

    def test_empty_state(self):
        s = SvdState.empty(3)
        assert s.V.shape == (3, 0) and s.sigma.shape == (0,) and s.k == 0
        assert s.W0.shape == (0, 0) and s.Wp.shape == (0, 0) and s.W.shape == (0, 0)
        assert s.n == 0 and s.e == 0.0 and s.T_p == 0 and s.T_sv == 0
        assert SvdState.empty(3, keep_w=False).W is None

    def test_euclidean(self):
        s, rep = first_update([3.0, 4.0], WeightMatrix(np.eye(2)))
        assert np.allclose(s.sigma, [5.0], atol=0)
        assert np.allclose(s.V[:, 0], [0.6, 0.8], atol=1e-16)
        assert s.W.shape == (1, 1) and s.W[0, 0] == 1.0
        assert s.e == 0.0 and s.k == 1 and s.n == 1
        assert s.T_p == 0 and s.T_sv == 0
        assert rep == UpdateReport(p=5.0, e_p=0.0, e_sv=0.0, rank_grew=True,
                                   reorthogonalized=False)

    def test_weighted(self):
        s = started([1.0, 0.0], WeightMatrix(np.diag([4.0, 1.0])))
        assert np.allclose(s.sigma, [2.0], atol=0)
        assert s.V[0, 0] == 0.5

    def test_zero_column(self):
        # an ordinary non-growing update: p = 0 adds nothing to e, n counts
        # the column and W gets a (zero-width) row for it
        s, rep = first_update(np.zeros(3), WeightMatrix(np.eye(3)), Tolerances())
        assert s.k == 0 and s.e == 0.0 and s.n == 1 and s.T_p == 0 and s.T_sv == 0
        assert s.V.shape == (3, 0) and s.W.shape == (1, 0)
        assert rep.p == 0.0 and not rep.rank_grew and not rep.reorthogonalized

    def test_small_first_column_is_p_truncated(self):
        # 0 < p < tol: projected onto the empty basis like any later column
        s, rep = first_update([1e-12, 0.0], WeightMatrix(np.eye(2)), Tolerances(1e-10, 1e-10))
        assert s.k == 0 and s.n == 1 and s.T_p == 1
        assert rep.e_p == rep.p == 1e-12 and s.e >= 1e-12

    def test_skip_w(self):
        s = started([1.0, 1.0], WeightMatrix(np.eye(2)), keep_w=False)
        assert s.W is None and s.W0 is None and s.k == 1


class TestUpdate:
    def test_orthogonal_growth(self):
        M = WeightMatrix(np.eye(2))
        s = started([1.0, 0.0], M)
        s, rep = update(s, np.array([0.0, 1.0]), M, Tolerances(1e-12, 1e-12))
        assert s.k == 2
        assert np.allclose(s.sigma, [1.0, 1.0], atol=1e-15)
        assert s.e == 0.0
        assert rep.rank_grew and rep.e_p == 0.0

    def test_column_in_span_keeps_rank(self, rng):
        M = random_weight(rng, 8)
        U = rng.standard_normal((8, 3))
        s = stream_matrix(U, M, EXACT)
        d = rng.standard_normal(3)
        c = s.V @ d  # exactly representable in the basis
        prev = reconstruct(s).copy()
        proj = s.V @ (s.V.T @ M.matvec(c))
        s, rep = update(s, c, M, Tolerances(tol=1e-8, tol_sv=1e-300))
        assert s.k == 3 and not rep.rank_grew
        assert rep.p <= 1e-12
        assert np.max(np.abs(reconstruct(s) - np.column_stack([prev, proj]))) <= 1e-10

    def test_exactness_oracle_random_streams(self, rng):
        # oracle: exact weighted SVD of the assembled matrix
        for _ in range(5):
            m = int(rng.integers(10, 31))
            n = int(rng.integers(2, 13))
            M = random_weight(rng, m)
            U = rng.standard_normal((m, n))
            state = stream_matrix(U, M, Tolerances(1e-15, 1e-15))
            ex = exact_weighted_svd(U, M)
            assert state.k == ex.k
            assert np.max(np.abs(state.sigma - ex.sigma)) <= 1e-11 * ex.sigma[0]

    def test_planted_p_truncation(self, rng):
        M = random_weight(rng, 12)
        U = rng.standard_normal((12, 4))
        s = stream_matrix(U, M, EXACT)
        v_perp = rng.standard_normal(12)
        v_perp -= s.V @ (s.V.T @ M.matvec(v_perp))
        v_perp -= s.V @ (s.V.T @ M.matvec(v_perp))
        v_perp /= np.sqrt(v_perp @ M.matvec(v_perp))
        magnitude = 1e-9
        c = s.V @ rng.standard_normal(4) + magnitude * v_perp
        e_before, tp_before = s.e, s.T_p
        s, rep = update(s, c, M, Tolerances(tol=1e-8, tol_sv=1e-300))
        assert s.T_p == tp_before + 1
        assert 0.0 < rep.e_p < 1e-8
        assert rep.p == pytest.approx(magnitude, abs=1e-14)
        assert s.e == pytest.approx(e_before + rep.p, rel=1e-15)

    def test_rank_capped_at_dimension(self, rng):
        M = random_weight(rng, 4)
        U = rng.standard_normal((4, 10))
        s = stream_matrix(U, M, Tolerances(1e-12, 1e-300))
        assert s.k <= 4
        assert s.n == 10

    def test_invariants_along_stream(self, rng):
        M = random_weight(rng, 15)
        U = rng.standard_normal((15, 20))
        tols = Tolerances(tol=1e-6, tol_sv=1e-6)
        s = SvdState.empty(15)
        e_prev = 0.0
        for i in range(20):
            s, rep = update(s, U[:, i], M, tols)
            assert m_orthonormality_defect(s.V, M) <= 1e-10 * s.k
            assert np.max(np.abs(s.W.T @ s.W - np.eye(s.k))) <= 1e-10 * s.k
            assert np.all(s.sigma > 0)
            assert np.all(np.diff(s.sigma) <= 0)
            assert s.e >= e_prev
            assert s.e == pytest.approx(e_prev + rep.e_p + rep.e_sv, abs=1e-18, rel=1e-12)
            # never below the exact real sum of the terms
            assert Fraction(s.e) >= Fraction(e_prev) + Fraction(rep.e_p) + Fraction(rep.e_sv)
            assert s.k <= min(15, s.n)
            assert 0.0 <= rep.e_p < tols.tol
            assert 0.0 <= rep.e_sv <= tols.tol_sv
            assert rep.e_p == 0.0 or not rep.rank_grew
            e_prev = s.e

    def test_tiny_term_is_not_rounded_away(self):
        # e = 1.0 plus an in-span residual of about 5e-17: round to nearest
        # would leave e at 1.0, below the exact sum
        M = WeightMatrix(np.eye(3))
        s = stream_matrix(np.eye(3)[:, :2], M, EXACT)
        s.e = 1.0
        s, rep = update(s, np.array([1.0, 1.0, 5e-17]), M, Tolerances(1e-8, 1e-300))
        assert 0.0 < rep.e_p < 1e-16 and s.T_p == 1
        assert Fraction(s.e) >= Fraction(1.0) + Fraction(rep.e_p)
        assert s.e == np.nextafter(1.0, 2.0)

    def test_layout_independent_arithmetic(self, rng):
        # strided column views and contiguous copies must produce
        # bit-identical update sequences
        M = random_weight(rng, 12)
        U = rng.standard_normal((12, 15))
        tols = Tolerances(1e-6, 1e-6)
        a, b = SvdState.empty(12), SvdState.empty(12)
        for i in range(15):
            a, ra = update(a, U[:, i], M, tols)  # strided view
            b, rb = update(b, U[:, i].copy(), M, tols)  # contiguous
            assert ra.p == rb.p and ra.e_p == rb.e_p and ra.e_sv == rb.e_sv
        assert a.e == b.e
        assert np.array_equal(a.V, b.V)

    @pytest.mark.parametrize("drift", [0.0, 1e-6])
    def test_drifted_basis_is_reorthogonalized(self, rng, drift):
        M = random_weight(rng, 8)
        U = rng.standard_normal((8, 5))
        s = stream_matrix(U[:, :4], M, Tolerances())
        s.Q[:, -1] += drift * s.Q[:, 0]
        s, rep = update(s, U[:, 4], M, Tolerances())
        assert rep.reorthogonalized == (drift > 0.0)
        assert m_orthonormality_defect(s.V, M) <= 1e-13

    def test_rank_one_stream_is_not_reorthogonalized(self, rng):
        # multiples of one vector: V has one column, so the drift probe has
        # no pair of columns to compare and must not fire
        M = random_weight(rng, 8)
        v = rng.standard_normal(8)
        s = SvdState.empty(8)
        for a in rng.uniform(0.5, 2.0, 20) * rng.choice([-1.0, 1.0], 20):
            s, rep = update(s, a * v, M, Tolerances())
            assert s.k == 1 and not rep.reorthogonalized
        assert m_orthonormality_defect(s.V, M) <= 1e-13

    def test_failed_update_leaves_state_unchanged(self):
        # two equal basis vectors: the grown basis is rank deficient, so the
        # reorthogonalization raises after the rotation has been computed
        M = WeightMatrix(np.eye(4))  # L = I: Q is V
        v = np.array([1.0, 0.0, 0.0, 0.0])
        Q, sigma, W = np.column_stack([v, v]), np.array([2.0, 1.0]), np.eye(2)
        s = SvdState(Q=Q.copy(), sigma=sigma.copy(), W0=W.copy(), Wp=np.eye(2), n=2)
        with pytest.raises(RankDeficientError):
            update(s, np.array([1.0, 0.5, 0.0, 0.0]), M, Tolerances())
        assert np.array_equal(s.Q, Q) and np.array_equal(s.W, W)
        assert np.array_equal(s.W0, W) and np.array_equal(s.Wp, np.eye(2))
        assert np.array_equal(s.sigma, sigma) and s.k == 2 and s.n == 2
        assert s.e == 0.0 and s.T_p == 0 and s.T_sv == 0

    def test_aggressive_truncation_counters_and_cap(self, rng):
        M = random_weight(rng, 20)
        base = m_orthonormal_columns(rng, M, 3)
        coeffs = rng.standard_normal((3, 30))
        U = base @ coeffs + 1e-6 * rng.standard_normal((20, 30))
        tols = Tolerances(tol=1e-4, tol_sv=1e-4)
        s = stream_matrix(U, M, tols)
        assert s.T_p > 0
        assert s.e <= s.T_p * tols.tol + s.T_sv * tols.tol_sv

    def test_sv_truncation_records_first_discarded(self, rng):
        M = WeightMatrix(np.eye(6))
        s = started(np.array([10.0, 0, 0, 0, 0, 0]), M)
        c = np.array([0.0, 1e-6, 0, 0, 0, 0])
        s, rep = update(s, c, M, Tolerances(tol=1e-12, tol_sv=1e-3))
        assert s.k == 1
        assert rep.e_sv == pytest.approx(1e-6, rel=1e-12)
        assert s.T_sv == 1

    def test_all_values_below_tolsv_keeps_rank_one(self, rng):
        M = WeightMatrix(np.eye(4))
        s = started(np.array([1e-6, 0, 0, 0.0]), M)
        s, rep = update(s, np.array([0, 1e-7, 0, 0.0]), M, Tolerances(tol=1e-12, tol_sv=1.0))
        assert s.k == 1
        assert rep.e_sv == pytest.approx(1e-7, rel=1e-10)

    def test_wrong_length_column(self):
        M = WeightMatrix(np.eye(3))
        s = started([1.0, 0.0, 0.0], M)
        with pytest.raises(ValueError):
            update(s, np.ones(4), M, Tolerances())

    def test_nonfinite_column(self):
        M = WeightMatrix(np.eye(2))
        s = started([1.0, 0.0], M)
        with pytest.raises(InvalidInputError):
            update(s, np.array([np.inf, 0.0]), M, Tolerances())
        with pytest.raises(InvalidInputError):
            first_update(np.array([0.0, np.nan]), M)

    def test_keep_w_false_update(self, rng):
        M = random_weight(rng, 6)
        U = rng.standard_normal((6, 4))
        s = stream_matrix(U, M, EXACT, keep_w=False)
        assert s.W is None and s.k == 4
        with pytest.raises(ValueError):
            reconstruct(s)


def mixed_stream(rng, M, n=300, zeros=3):
    """Leading zero columns, then columns whose rank grows to 8 over the
    first 80, with noise of 1e-10 everywhere and of 1e-6 in every tenth
    column. At MIXED_TOLS the rank grows and is truncated again at nearly
    every column, and some columns are projected."""
    base = m_orthonormal_columns(rng, M, 8)
    coeffs = rng.standard_normal((8, n)) * np.geomspace(1.0, 1e-3, 8)[:, None]
    coeffs *= np.arange(8)[:, None] < 1 + np.arange(n)[None, :] // 10
    U = base @ coeffs + 1e-10 * rng.standard_normal((M.dim, n))
    U[:, ::10] += 1e-6 * rng.standard_normal((M.dim, U[:, ::10].shape[1]))
    U[:, :zeros] = 0.0
    return U


MIXED_TOLS = Tolerances(tol=1e-8, tol_sv=1e-5)


class TestFactoredW:
    def test_w_never_feeds_back(self, rng):
        M = random_weight(rng, 20)
        U = mixed_stream(rng, M)
        with_w = stream_matrix(U, M, MIXED_TOLS, keep_w=True)
        without = stream_matrix(U, M, MIXED_TOLS, keep_w=False)
        assert with_w.T_p > 0 and with_w.T_sv > 0 and with_w.k > 1
        assert np.array_equal(with_w.V, without.V)
        assert np.array_equal(with_w.sigma, without.sigma)
        assert (with_w.e, with_w.T_p, with_w.T_sv, with_w.n) == (
            without.e, without.T_p, without.T_sv, without.n
        )

    def test_factors_match_eager_reference(self, rng):
        # the eager rotation W <- [W W_Q[:k, :r]; W_Q[k, :r]] of every
        # column, from the same small SVD that update computes
        M = random_weight(rng, 20)
        U = mixed_stream(rng, M, zeros=3)
        s = SvdState.empty(20)
        W_ref, folds = np.zeros((0, 0)), 0
        for c in U.T:
            Q, sigma, W0, k = s.Q, s.sigma, s.W0, s.k
            d = Q.T @ M.apply_lt(c)  # in Cholesky coordinates, as update
            res = M.apply_lt(c) - Q @ d
            p = float(np.sqrt(res @ res))
            B = np.zeros((k + 1, k + 1))
            B[:k, :k] = np.diag(sigma)
            B[:k, k] = d
            B[k, k] = 0.0 if p < MIXED_TOLS.tol else p
            _, _, W_Q = small_svd(B)

            s, rep = update(s, c, M, MIXED_TOLS)
            r = k + rep.rank_grew
            W_ref = np.vstack([W_ref @ W_Q[:k, :r], W_Q[k, :r][None, :]])[:, : s.k]
            folds += s.W0 is not W0
            assert s.W.shape == W_ref.shape and np.abs(s.W - W_ref).max(initial=0.0) <= 1e-13
            assert s.W0.shape[0] + s.Wp.shape[0] - s.W0.shape[1] == s.n
            assert s.Wp.shape[0] <= 2 * s.k + 1
        assert s.T_p > 0 and s.T_sv > 0
        assert folds > 0
        assert np.max(np.abs(s.W.T @ s.W - np.eye(s.k))) <= 1e-12


class TestZeroRowStructure:
    def test_exactly_one_zero_singular_value(self, rng):
        # bordered matrix with zero bottom row: null space is span{e_{k+1}}
        for _ in range(20):
            k = int(rng.integers(1, 9))
            Q = np.zeros((k + 1, k + 1))
            Q[:k, :k] = np.diag(np.sort(rng.uniform(0.5, 10.0, k))[::-1])
            Q[:k, k] = rng.standard_normal(k)
            V_Q, s, _ = small_svd(Q)
            assert np.count_nonzero(s < 1e-13 * s[0]) == 1
            last = V_Q[:, -1]
            e_last = np.zeros(k + 1)
            e_last[-1] = 1.0
            assert min(
                np.max(np.abs(last - e_last)), np.max(np.abs(last + e_last))
            ) <= 1e-12


class TestErrorBound:
    def test_fresh_state_zero(self):
        assert SvdState.empty(2).e == 0.0
        s = started([1.0, 2.0], WeightMatrix(np.eye(2)))
        assert s.e == 0.0

    def test_zero_after_exact_updates(self, rng):
        M = random_weight(rng, 10)
        s = stream_matrix(rng.standard_normal((10, 6)), M, EXACT)
        assert s.e == 0.0
        assert s.T_p == 0 and s.T_sv == 0

    def test_capped_by_event_counts(self, rng):
        M = random_weight(rng, 12)
        tols = Tolerances(tol=1e-3, tol_sv=1e-3)
        base = m_orthonormal_columns(rng, M, 2)
        U = base @ rng.standard_normal((2, 25)) + 1e-5 * rng.standard_normal((12, 25))
        s = stream_matrix(U, M, tols)
        assert s.e <= s.T_p * tols.tol + s.T_sv * tols.tol_sv


class TestReconstruct:
    def test_rank_one_roundtrip(self):
        s = started([3.0, 4.0], WeightMatrix(np.eye(2)))
        assert np.allclose(reconstruct(s), [[3.0], [4.0]], atol=1e-15)

    def test_two_orthogonal_columns(self):
        M = WeightMatrix(np.eye(2))
        U = np.array([[2.0, 0.0], [0.0, 3.0]])
        s = stream_matrix(U, M, Tolerances(1e-14, 1e-14))
        assert np.max(np.abs(reconstruct(s) - U)) <= 1e-14

    def test_random_stream(self, rng):
        M = random_weight(rng, 25)
        U = rng.standard_normal((25, 12))
        s = stream_matrix(U, M, Tolerances(1e-15, 1e-15))
        err = weighted_operator_norm(U - reconstruct(s), M)
        assert err <= 1e-11 * weighted_operator_norm(U, M)


class TestPodOutput:
    def test_single_mode(self):
        s = started([3.0, 4.0], WeightMatrix(np.eye(2)))
        modes, eigs = pod_output(s)
        assert np.allclose(eigs, [25.0], atol=0)
        assert modes.shape == (2, 1)

    def test_two_modes(self):
        s = SvdState(
            Q=np.eye(2), sigma=np.array([3.0, 1.0]), W0=np.eye(2), Wp=np.eye(2), n=2,
            M=WeightMatrix(np.eye(2)),
        )
        _, eigs = pod_output(s)
        assert np.allclose(eigs, [9.0, 1.0], atol=0)

    def test_eigenvalues_nonincreasing(self, rng):
        M = random_weight(rng, 10)
        s = stream_matrix(rng.standard_normal((10, 8)), M, Tolerances())
        _, eigs = pod_output(s)
        assert np.all(np.diff(eigs) <= 0)


class TestRunStream:
    def test_skips_leading_zero_columns(self, rng):
        # leading zeros are ordinary updates that leave the rank at 0: n
        # counts them, W has a zero row for each, and nothing else moves
        M = random_weight(rng, 5)
        U = rng.standard_normal((5, 4))
        U[:, :2] = 0.0
        state = run_stream(iter(U.T), M, EXACT)
        plain = run_stream(iter(U[:, 2:].T), M, EXACT)
        assert state.n == 4 and plain.n == 2
        assert np.array_equal(state.V, plain.V)
        assert np.array_equal(state.sigma, plain.sigma)
        assert (state.e, state.T_p, state.T_sv) == (plain.e, plain.T_p, plain.T_sv)
        assert state.W.shape == (4, 2)
        assert np.array_equal(state.W[:2], np.zeros((2, 2)))
        assert np.max(np.abs(state.W[2:] - plain.W)) <= 1e-15
        assert np.max(np.abs(reconstruct(state) - U)) <= 1e-13

    def test_resume_passes_over_consumed_columns(self, rng):
        M = random_weight(rng, 6)
        U = rng.standard_normal((6, 12))
        U[:, :2] = 0.0
        tols = Tolerances(1e-8, 1e-8)
        full = run_stream(iter(U.T), M, tols)
        seen = []
        part = run_stream(iter(U[:, :7].T), M, tols,
                          on_column=lambda s, r: seen.append((s.n, type(r))))
        assert seen == [(n, UpdateReport) for n in range(1, 8)]
        # a state cut inside the leading zeros resumes like any other
        inside = update(SvdState.empty(6), U[:, 0], M, tols)[0]
        for cut in (part, inside):
            resumed = run_stream(iter(U.T), M, tols, state=cut)
            assert resumed.n == full.n and resumed.e == full.e
            assert np.array_equal(resumed.V, full.V) and np.array_equal(resumed.W, full.W)

    def test_resume_over_short_stream_rejected(self, rng):
        M = random_weight(rng, 6)
        U = rng.standard_normal((6, 8))
        state = run_stream(iter(U.T), M, EXACT)
        with pytest.raises(FormatError):
            run_stream(iter(U[:, :5].T), M, EXACT, state=state)

    def test_growth_column_reuses_its_projection(self, rng, monkeypatch):
        # one product L^T c for the projection; the second pass, the new
        # direction and the drift probe reuse it, with no product with M
        M = random_weight(rng, 10)
        U = rng.standard_normal((10, 4))
        tols = Tolerances(1e-8, 1e-8)
        by_update, by_stream = (run_stream(iter(U[:, :3].T), M, tols) for _ in range(2))
        assert by_update.k == 3 and by_update.j == 0
        calls = {"matvec": 0, "apply_lt": 0}
        for name in calls:

            def counted(self, *a, _orig=getattr(WeightMatrix, name), _name=name, **kw):
                calls[_name] += 1
                return _orig(self, *a, **kw)

            monkeypatch.setattr(WeightMatrix, name, counted)
        _, rep = update(by_update, U[:, 3], M, tols)
        assert rep.rank_grew and not rep.reorthogonalized
        assert calls == {"matvec": 0, "apply_lt": 1}
        calls.update(matvec=0, apply_lt=0)
        assert run_stream(iter(U.T), M, tols, state=by_stream).k == 4
        assert calls == {"matvec": 0, "apply_lt": 1}

    def test_passed_projection_is_bitwise_the_recomputed_one(self, rng):
        # every column goes through update (no p < tol): growth, non-growing
        # updates at full rank and sigma-truncations of the small columns
        M = random_weight(rng, 12)
        U = rng.standard_normal((12, 40))
        U[:, 3::5] *= 1e-9
        tols = Tolerances(1e-300, 1e-6)
        reports = []
        got = flush(run_stream(iter(U.T), M, tols, on_column=lambda s, r: reports.append(r)), tols)
        ref = SvdState.empty(M.dim)
        for c in U.T:
            ref, _ = update(ref, c, M, tols)
        assert any(r.rank_grew for r in reports) and got.k == M.dim
        assert any(not r.rank_grew and r.e_p > 0.0 for r in reports) and got.T_sv > 0
        for name in ("V", "sigma", "W0", "Wp"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert (got.n, got.e, got.T_p, got.T_sv) == (ref.n, ref.e, ref.T_p, ref.T_sv)

    def test_all_zero_stream_rejected(self):
        # a stream that ends at rank 0, with or without columns
        M = WeightMatrix(np.eye(3))
        for n in (0, 3):
            with pytest.raises(InvalidInputError):
                run_stream(iter(np.zeros((3, n)).T), M, EXACT)


class TestBlockProjection:
    @pytest.mark.parametrize("k", [1, 7, 40])
    @pytest.mark.parametrize("weight", ["dense", "fem"])
    def test_column_bits_depend_on_the_column_and_its_position(self, rng, weight, k):
        # each column's d, res and p keep their bits whatever the other
        # positions hold: other columns, zeros, or nothing drawn
        M = random_weight(rng, 60) if weight == "dense" else build_weight_matrix(Mesh1D(500))
        Q = M.apply_lt(m_orthonormal_columns(rng, M, k))
        cols = list(rng.standard_normal((RUN, M.dim)) * np.geomspace(1.0, 1e-8, RUN)[:, None])
        others = list(rng.standard_normal((RUN, M.dim)))
        block = incpod.incremental._Block(M.dim)

        def projections(columns, pos):
            block.project(Q, columns, pos, M)
            return {i: [np.array(a).tobytes() for a in block[i]] for i in range(pos, RUN)}

        whole = projections(cols, 0)
        for pos in (1, 13, RUN - 1):
            assert projections(cols[pos:], pos) == {i: whole[i] for i in range(pos, RUN)}
        for i in (0, 5, RUN - 1):
            alone = projections([cols[i]], i)[i]
            mixed = projections(others[:i] + [cols[i]] + others[i + 1 :], 0)[i]
            assert alone == mixed == whole[i]
            d, res, p = block[i]
            # and they are the one-column projection's up to round-off
            ref = incpod.incremental._project(Q, cols[i], M)
            for got, want in zip((d, res, p), ref):
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * np.max(np.abs(want))


def run_data(rng, M, n=200, zeros=2):
    """Leading zero columns, then a rank-6 signal whose directions appear
    every 15 columns, noise of 1e-10 everywhere and of 1e-8 in every 30th
    column from column 100 on. At RUN_TOLS the new directions grow the
    rank, the noisy columns grow it and are sigma-truncated again, and the
    other columns are p-truncated, in runs that reach n = 0 (mod RUN)."""
    base = m_orthonormal_columns(rng, M, 6)
    coeffs = rng.standard_normal((6, n)) * np.geomspace(1.0, 1e-3, 6)[:, None]
    coeffs *= np.arange(6)[:, None] < 1 + np.arange(n)[None, :] // 15
    U = base @ coeffs + 1e-10 * rng.standard_normal((M.dim, n))
    U[:, 100::30] += 1e-8 * rng.standard_normal((M.dim, U[:, 100::30].shape[1]))
    U[:, :zeros] = 0.0
    return U


RUN_TOLS = Tolerances(tol=1e-8, tol_sv=1e-6)


def sequential(U, M, tols):
    """Test-local reference: one update per column, no runs. Returns the
    state and the (n, k, T_p, T_sv) of every column."""
    s, rows = SvdState.empty(M.dim), []
    for c in U.T:
        s, _ = update(s, c, M, tols)
        rows.append((s.n, s.k, s.T_p, s.T_sv))
    return s, rows


class TestRuns:
    def test_matches_sequential_updates(self, rng, monkeypatch):
        M = random_weight(rng, 20)
        U = run_data(rng, M)
        ref, ref_rows = sequential(U, M, RUN_TOLS)

        calls = {"small_svd": 0, "update": 0}
        for name in calls:

            def counted(*a, _orig=getattr(incpod.incremental, name), _name=name):
                calls[_name] += 1
                return _orig(*a)

            monkeypatch.setattr(incpod.incremental, name, counted)
        rows, closed_at = [], []

        def on_column(s, rep):
            rows.append((s.n, s.k, s.T_p, s.T_sv))
            if s.j == 0 and not rep.rank_grew and rep.e_p > 0.0:
                closed_at.append(s.n)

        s = flush(run_stream(iter(U.T), M, RUN_TOLS, on_column=on_column), RUN_TOLS)
        assert rows == ref_rows
        assert ref.T_p > 100 and ref.T_sv > 0 and ref.k == 6
        # runs closed by the n = 0 (mod RUN) rule, and one thin SVD per run
        # or growth column instead of one per column
        assert closed_at and all(n % RUN == 0 for n in closed_at)
        assert calls["update"] < U.shape[1] // 4
        assert calls["small_svd"] <= calls["update"] + U.shape[1] // RUN + 1
        assert (s.n, s.k, s.T_p, s.T_sv) == (ref.n, ref.k, ref.T_p, ref.T_sv)
        assert np.max(np.abs(s.sigma - ref.sigma)) <= 1e-12 * ref.sigma[0]
        assert np.max(np.abs(reconstruct(s) - reconstruct(ref))) <= 1e-12
        assert s.e == pytest.approx(ref.e, rel=1e-7)
        assert s.e <= s.T_p * RUN_TOLS.tol + s.T_sv * RUN_TOLS.tol_sv
        assert m_orthonormality_defect(s.V, M) <= 1e-13
        assert np.max(np.abs(s.W.T @ s.W - np.eye(s.k))) <= 1e-13

    def test_each_column_projected_against_the_current_v(self, rng, monkeypatch):
        # the projection that decides a column, the one update receives for
        # a growth column, is against the V the column meets; a column
        # drawn into a block and re-projected after a growth in that block
        # is projected twice, no column more often
        M = random_weight(rng, 20)
        U = np.asfortranarray(run_data(rng, M))  # contiguous columns: each keeps its id
        inc = incpod.incremental
        project, block_project, block_item = inc._project, inc._Block.project, inc._Block.__getitem__
        times, drawn, made = {}, [], []  # projections per column, every column drawn, every projection

        def count(c):
            drawn.append(c)  # keeps each id unique while the stream runs
            times[id(c)] = times.get(id(c), 0) + 1

        def counted_project(Q, c, M):
            count(c)
            made.append(project(Q, c, M))
            return made[-1]

        def counted_block(self, Q, columns, pos, M):
            for c in columns:
                count(c)
            return block_project(self, Q, columns, pos, M)

        def recorded_item(self, i):
            made.append(block_item(self, i))
            return made[-1]

        def check(projection, Q, c):
            d, res, p = projection
            d_ref, res_ref, p_ref = project(Q, c, M)
            scale = np.sqrt(c @ M.matvec(c)) * 1e-13
            assert d.shape == d_ref.shape and np.max(np.abs(d - d_ref), initial=0.0) <= scale
            assert np.max(np.abs(res - res_ref)) <= scale and abs(p - p_ref) <= scale

        state = SvdState.empty(M.dim)  # run_stream updates this object in place
        met, decided, received, grew = [state.Q], [], [], []

        def recording_update(s, c, M, tols, projection=None):
            received.append(projection is made[-1])
            check(projection, s.Q, U[:, s.n])
            return update(s, c, M, tols, projection)

        def on_column(s, rep):
            # the column's p, and its coefficients while it stays in the
            # open run, are those of its projection against the Q it met
            c, Q = U[:, s.n - 1], met[-1]
            d_ref, _, p_ref = project(Q, c, M)
            scale = np.sqrt(c @ M.matvec(c)) * 1e-13
            assert abs(rep.p - p_ref) <= scale
            if s.j:
                assert np.max(np.abs(s.run[:, -1] - d_ref)) <= scale
            decided.append(rep.p)
            met.append(s.Q)
            grew.append(rep.rank_grew)

        monkeypatch.setattr(inc, "_project", counted_project)
        monkeypatch.setattr(inc._Block, "project", counted_block)
        monkeypatch.setattr(inc._Block, "__getitem__", recorded_item)
        monkeypatch.setattr(inc, "update", recording_update)
        s = run_stream(iter(U.T), M, RUN_TOLS, state=state, on_column=on_column)
        # leading zero, growth and p-truncated columns are all among them
        assert s is state
        assert not U[:, 0].any() and any(grew) and s.T_p > 100
        assert len(decided) == U.shape[1] and len(times) == U.shape[1]
        assert received and all(received)
        assert max(times.values()) == 2 and 1 in times.values()
        assert sum(times.values()) < 2 * U.shape[1]

    def test_callback_free_spans_match_reported_ones(self, rng, monkeypatch):
        # with no callback a span is one copy and a loop over its p: the
        # state is bitwise the one a run with a no-op callback ends in; a
        # fourth direction enters at column 150, inside a block
        M = random_weight(rng, 20)
        coeffs = rng.standard_normal((4, 630))
        coeffs[3, :150] = 0.0
        U = m_orthonormal_columns(rng, M, 4) @ coeffs + 1e-12 * rng.standard_normal((20, 630))
        inc = incpod.incremental
        spans, append = [], inc._append

        def recorded(state, d, p, tols, on_column):
            spans.append(len(p))
            return append(state, d, p, tols, on_column)

        monkeypatch.setattr(inc, "_append", recorded)
        states = [run_stream(iter(U.T), M, RUN_TOLS, on_column=on_column)
                  for on_column in (None, lambda s, r: None)]
        assert spans.count(RUN - 1) >= 10 and any(1 < w < RUN - 1 for w in spans)
        free, reported = states
        assert free.k == 4 and free.n == reported.n == U.shape[1]
        assert free.j == reported.j == U.shape[1] % RUN > 0
        for name in ("Q", "sigma", "W0", "Wp", "run"):
            assert np.array_equal(getattr(free, name), getattr(reported, name)), name
        assert (free.e, free.T_p, free.T_sv) == (reported.e, reported.T_p, reported.T_sv)

    def test_no_product_with_m_outside_the_reorthogonalization(self, rng, monkeypatch):
        # growth, runs, blocks and flushes, and V built at the end, meet M
        # only through L^T and its solve; a drifted basis is reorthogonalized
        # by Gram-Schmidt, which alone calls matvec
        M = random_weight(rng, 20)
        U = run_data(rng, M)
        inc = incpod.incremental
        calls, inside = [], []
        matvec, mgs = WeightMatrix.matvec, inc.modified_gram_schmidt_weighted

        def counted(self, *a, **kw):
            calls.append(bool(inside))
            return matvec(self, *a, **kw)

        def reorthogonalize(*a):
            inside.append(1)
            try:
                return mgs(*a)
            finally:
                inside.pop()

        monkeypatch.setattr(WeightMatrix, "matvec", counted)
        monkeypatch.setattr(inc, "modified_gram_schmidt_weighted", reorthogonalize)
        s = flush(run_stream(iter(U[:, :150].T), M, RUN_TOLS), RUN_TOLS)
        pod_output(s)
        assert s.T_p > 50 and s.k == 6 and calls == []
        s.Q[:, -1] += 1e-6 * s.Q[:, 0]
        s = flush(run_stream(iter(U.T), M, RUN_TOLS, state=s), RUN_TOLS)
        assert calls and all(calls)

    def test_open_run_is_refused(self, rng):
        M = random_weight(rng, 8)
        U = m_orthonormal_columns(rng, M, 2) @ rng.standard_normal((2, 10))
        s = run_stream(iter(U.T), M, RUN_TOLS)
        assert s.j == 8 and s.W.shape == (2, 2)  # the run's columns have no W rows yet
        for read in (reconstruct, pod_output, lambda s: exact_error(U, s)):
            with pytest.raises(ValueError, match="open run"):
                read(s)
        flush(s, RUN_TOLS)
        assert s.j == 0 and s.D is None and s.n == 10
        assert np.max(np.abs(reconstruct(s) - U)) <= 1e-13
        assert flush(s, RUN_TOLS) is s and s.n == 10  # nothing left to close

    def test_update_closes_the_open_run(self, rng):
        M = random_weight(rng, 8)
        U = m_orthonormal_columns(rng, M, 2) @ rng.standard_normal((2, 10))
        s = run_stream(iter(U[:, :9].T), M, RUN_TOLS)
        assert s.j == 7
        s, rep = update(s, U[:, 9], M, RUN_TOLS)
        assert s.j == 0 and s.n == 10 and not rep.rank_grew
        assert np.max(np.abs(reconstruct(s) - U)) <= 1e-13

    def test_failed_flush_leaves_state_unchanged(self, rng, monkeypatch):
        # the flush inside the column that closes a run raises: the column
        # is not consumed and the run stays open as it was
        M = random_weight(rng, 8)
        U = m_orthonormal_columns(rng, M, 2) @ rng.standard_normal((2, RUN))
        s = run_stream(iter(U[:, : RUN - 1].T), M, RUN_TOLS)
        before = (s.n, s.j, s.e, s.T_p, s.D[:, : s.j].copy(), s.Q, s.sigma, s.Wp)

        def broken(_):
            raise RankDeficientError("forced", column=0)

        monkeypatch.setattr(incpod.incremental, "small_svd", broken)
        with pytest.raises(RankDeficientError):
            run_stream(iter(U.T), M, RUN_TOLS, state=s)
        assert (s.n, s.j, s.e, s.T_p) == before[:4]
        assert np.array_equal(s.D[:, : s.j], before[4])
        assert s.Q is before[5] and s.sigma is before[6] and s.Wp is before[7]


def test_v_stays_m_orthonormal_over_a_long_stream():
    # the benchmark's synthetic stream at 20,000 columns: rank 40, singular
    # values from 1 to 1e-6, and noise of 1e-11 under the FEM mass weight of
    # 500 nodes (m = 1000), made 500 columns at a time
    M = build_weight_matrix(Mesh1D(500))
    rng = np.random.default_rng(18)
    V = M.solve_lt(np.linalg.qr(rng.standard_normal((M.dim, 40)))[0])
    V *= np.geomspace(1.0, 1e-6, 40) / np.sqrt(20_000)

    def columns():
        for _ in range(40):
            chunk = V @ rng.standard_normal((40, 500)) + 1e-11 * rng.standard_normal((M.dim, 500))
            yield from chunk.T

    tols = Tolerances(1e-9, 1e-9)
    s = flush(run_stream(columns(), M, tols, keep_w=False), tols)
    assert s.n == 20_000 and s.k == 40
    assert m_orthonormality_defect(s.V, M) <= 1e-13
