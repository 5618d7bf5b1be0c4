import numpy as np
import pytest

from incpod.cli import _mode_errors
from incpod.errors import AmbiguousAlignmentError, PreconditionViolationError
from incpod.fhn import FhnParams, Mesh1D, build_weight_matrix, simulate
from incpod.incremental import Tolerances, flush, run_stream
from incpod.oracle import exact_weighted_svd
from incpod.perturbation import (
    align_singular_pair,
    bound_sequence,
    singular_value_gap_check,
    vector_bound_check,
)

from conftest import engineered_pair, random_weight, rank_one_perturbation

# independent evaluation of E_1 = 2(1 - sqrt(((2 - 0.2)^2 - 1)/(4 - 1)))
E1_SIGMA_2_1_EPS_01 = 0.2718024804245706


class TestSingularValueGapCheck:
    def test_identical_sequences(self):
        assert singular_value_gap_check([3.0, 1.0], [3.0, 1.0], 0.0)

    def test_within_eps(self):
        assert singular_value_gap_check([2.0, 1.0], [2.05, 0.98], 0.05)
        assert not singular_value_gap_check([2.0, 1.0], [2.06, 0.98], 0.05)

    def test_zero_padding(self):
        assert singular_value_gap_check([2.0, 1.0, 0.3], [2.0, 1.0], 0.3)
        assert not singular_value_gap_check([2.0, 1.0, 0.3], [2.0, 1.0], 0.2)

    def test_constructed_perturbation(self, rng):
        # oracle: ||E|| <= eps forces |sigma_l - sigma~_l| <= eps
        for _ in range(10):
            m, n = int(rng.integers(4, 15)), int(rng.integers(3, 12))
            M = random_weight(rng, m)
            U = rng.standard_normal((m, n))
            eps = 10.0 ** rng.uniform(-8, -2)
            E = rank_one_perturbation(rng, M, n, eps)
            ex = exact_weighted_svd(U, M)
            pert = exact_weighted_svd(U + E, M)
            assert singular_value_gap_check(ex.sigma, pert.sigma, eps * (1 + 1e-10))


class TestBoundSequence:
    def test_first_entry_is_eps(self):
        seq = bound_sequence([2.0, 1.0], 0.1, 1)
        assert seq.eps_seq[0] == 0.1

    def test_e1_spot_value(self):
        seq = bound_sequence([2.0, 1.0], 0.1, 1)
        assert seq.E_seq[0] == pytest.approx(E1_SIGMA_2_1_EPS_01, abs=1e-12)

    def test_gap_condition_boundary(self):
        assert bound_sequence([2.0, 1.0], 0.5, 1).gap_ok[0]
        assert not bound_sequence([2.0, 1.0], 0.51, 1).gap_ok[0]

    def test_invalid_tail_marked(self):
        # gap fails at j=1: everything downstream is NaN, gap_ok False
        seq = bound_sequence([2.0, 1.0, 0.5, 0.25], 0.51, 3)
        assert not seq.gap_ok.any()
        assert np.isfinite(seq.eps_seq[0])
        assert np.isnan(seq.E_seq).all()
        assert np.isnan(seq.eps_seq[1:]).all()

    def test_eps_strictly_increasing_when_E_positive(self):
        seq = bound_sequence([16.0, 8.0, 4.0, 2.0], 1e-8, 3)
        assert seq.gap_ok.all()
        assert np.all(np.diff(seq.eps_seq) > 0)
        assert np.all((seq.E_seq >= 0) & (seq.E_seq <= 2.0))

    def test_decay_in_eps(self):
        # E_1 decays at least linearly in eps; E_j for j >= 2 inherits a
        # square root per level (eps_j consumes sqrt(E_{j-1})), so halving
        # eps shrinks E_j by at least 2^(1/2^(j-1)).
        sigmas = [16.0, 8.0, 4.0, 2.0]
        eps = 1e-8
        first = bound_sequence(sigmas, eps, 3).E_seq
        prev = first
        factors = np.array([2.0 ** (0.5 ** (j - 1)) for j in range(1, 4)])
        for _ in range(8):
            eps /= 2.0
            cur = bound_sequence(sigmas, eps, 3).E_seq
            assert np.all(cur <= prev / factors * (1 + 1e-6))
            prev = cur
        assert np.all(cur < first)
        assert cur[0] <= first[0] / 2.0**8 * (1 + 1e-6)  # E_1 fully linear

    @pytest.mark.parametrize(
        "sigmas", [[2.0, 2.0, 1.0], [2.0, 1.0, -0.5], [1.0, 2.0, 3.0], [2.0]]
    )
    def test_preconditions(self, sigmas):
        with pytest.raises(PreconditionViolationError):
            bound_sequence(sigmas, 0.1, len(sigmas) - 1 if len(sigmas) > 1 else 1)

    def test_nonpositive_eps(self):
        with pytest.raises(PreconditionViolationError):
            bound_sequence([2.0, 1.0], 0.0, 1)


def unit_vector(rng, m):
    """A random column of some Q = L^T V: a unit vector in the 2-norm."""
    q = rng.standard_normal(m)
    return q / np.linalg.norm(q)


class TestAlignSingularPair:
    def test_already_aligned(self, rng):
        q = unit_vector(rng, 6)
        w = rng.standard_normal(4)
        q2, w2 = align_singular_pair(q, w, q, w)
        assert np.array_equal(q2, q) and np.array_equal(w2, w)

    def test_negated_pair(self, rng):
        q = unit_vector(rng, 6)
        w = rng.standard_normal(4)
        q2, w2 = align_singular_pair(q, w, -q, -w)
        assert np.array_equal(q2, q) and np.array_equal(w2, w)

    def test_projection_nonnegative_after_alignment(self, rng):
        q = unit_vector(rng, 8)
        near = q + 0.1 * rng.standard_normal(8)
        near /= np.linalg.norm(near)
        sign = rng.choice([-1.0, 1.0])
        q2, _ = align_singular_pair(q, np.ones(3), sign * near, np.ones(3))
        assert q2 @ q >= 0.0

    def test_orthogonal_is_ambiguous(self):
        with pytest.raises(AmbiguousAlignmentError):
            align_singular_pair(np.array([1.0, 0.0]), np.ones(2), np.array([0.0, 1.0]), np.ones(2))


class TestVectorBoundCheck:
    def test_exact_pair_passes_everywhere(self, rng):
        M = random_weight(rng, 12)
        U, _, _, _ = engineered_pair(rng, M, 10, [16.0, 8.0, 4.0, 2.0, 1.0])
        ex = exact_weighted_svd(U, M)
        rows = vector_bound_check(ex, ex, eps=1e-15, k=3)
        assert all(r.gap_ok for r in rows)
        assert all(r.v_ok and r.w_ok for r in rows)
        assert all(r.v_err <= 1e-12 for r in rows)

    def test_rank_one_perturbation_bounds_hold(self, rng):
        for _ in range(10):
            M = random_weight(rng, 14)
            n = 12
            U, _, _, _ = engineered_pair(rng, M, n, [16.0, 8.0, 4.0, 2.0, 1.0])
            eps = 1e-9
            pert = exact_weighted_svd(U + rank_one_perturbation(rng, M, n, eps), M)
            ex = exact_weighted_svd(U, M)
            rows = vector_bound_check(ex, pert, eps=eps, k=3)
            for r in rows:
                if r.gap_ok:
                    assert r.v_ok and r.w_ok

    def test_gap_violation_marked_not_applicable(self, rng):
        M = random_weight(rng, 10)
        U, _, _, _ = engineered_pair(rng, M, 8, [2.0, 1.0, 0.5, 0.25])
        ex = exact_weighted_svd(U, M)
        rows = vector_bound_check(ex, ex, eps=0.51, k=2)
        assert not rows[0].gap_ok
        assert rows[0].v_ok is None and rows[0].w_ok is None

    def test_rank_too_small_rejected(self, rng):
        M = random_weight(rng, 8)
        U, _, _, _ = engineered_pair(rng, M, 6, [4.0, 2.0, 1.0])
        ex = exact_weighted_svd(U, M)
        lowrank = exact_weighted_svd((ex.V[:, :1] * ex.sigma[:1]) @ ex.W[:, :1].T, M)
        with pytest.raises(PreconditionViolationError):
            vector_bound_check(ex, lowrank, eps=1e-6, k=2)

    @pytest.mark.parametrize("weight", ["dense", "fhn"])
    def test_errors_in_q_match_the_m_space_formula(self, rng, weight):
        # report's mode errors and the v_err of the check, taken on Q = L^T V
        # columns, against ||v - v~||_M = sqrt((v - v~)^T M (v - v~)) after
        # sign alignment, on a streamed state whose truncations move its modes
        if weight == "fhn":
            mesh = Mesh1D(40)
            U, M = simulate(FhnParams(), mesh, 2.5).columns, build_weight_matrix(mesh)
            tols = Tolerances(1e-10, 1e-10)
        else:
            M = random_weight(rng, 30)
            U, _, _, _ = engineered_pair(rng, M, 50, np.geomspace(10.0, 1e-8, 12))
            tols = Tolerances(1e-6, 1e-6)
        state = flush(run_stream(iter(U.T), M, tols), tols)
        ex = exact_weighted_svd(U, M)
        count = min(ex.k, state.k)
        V_ex, V_in = ex.V, state.V
        expected = []
        for j in range(count):
            v_ex, v_in = V_ex[:, j], V_in[:, j]
            if v_ex @ M.matvec(v_in) < 0.0:
                v_in = -v_in
            d = v_ex - v_in
            expected.append(np.sqrt(d @ M.matvec(d)))
        expected = np.array(expected)
        assert count >= 5 and expected.max() > 1e-9  # the modes did move
        assert np.abs(np.array(_mode_errors(ex, state, count)) - expected).max() <= 1e-14
        rows = [r for r in vector_bound_check(ex, state, state.e, 4) if r.gap_ok]
        assert rows
        for r in rows:
            assert abs(r.v_err - expected[r.j - 1]) <= 1e-14
