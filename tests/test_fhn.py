import numpy as np
import pytest
import scipy.sparse

from incpod import _lapack
from incpod.cli import main
from incpod.errors import IntegrationFailureError, InvalidInputError
from incpod.fhn import (
    FhnParams,
    Mesh1D,
    SnapshotSet,
    _FhnSystem,
    _interleave,
    _stack,
    assemble_fem,
    build_weight_matrix,
    neumann_forcing,
    simulate,
)


def _unband(ab):
    """Dense matrix of LAPACK band storage with 3 sub- and 3 superdiagonals."""
    m = ab.shape[1]
    return sum(np.diag(ab[3 - o, max(o, 0) : m + min(o, 0)], o) for o in range(-3, 4))


def _dense(rows):
    """The tridiagonal matrix of its (3, n) rows, ``rows[k, i] = S[i, i + k - 1]``."""
    return np.diag(rows[0, 1:], -1) + np.diag(rows[1]) + np.diag(rows[2, :-1], 1)


def reference_fem(mesh):
    """The P1 mass and stiffness matrices as scipy CSR, assembled from their
    diagonals independently of the package."""
    n, h = mesh.nodes, mesh.h
    main_m = np.full(n, 2.0 * h / 3.0)
    main_m[0] = main_m[-1] = h / 3.0
    off_m = np.full(n - 1, h / 6.0)
    main_k = np.full(n, 2.0 / h)
    main_k[0] = main_k[-1] = 1.0 / h
    off_k = np.full(n - 1, -1.0 / h)
    return (scipy.sparse.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr"),
            scipy.sparse.diags([off_k, main_k, off_k], [-1, 0, 1], format="csr"))


def reference_system(params, mesh):
    """(mass, M_sys, A) as CSR: the stacked blocks from scipy's
    ``block_diag`` and ``bmat``, permuted to the interleaved order. A row of
    the permuted A keeps its stacked order of entries, v then w."""
    p = params
    mass, stiff = reference_fem(mesh)
    perm = _interleave(np.arange(2 * mesh.nodes))
    msys = scipy.sparse.block_diag([mass, mass], format="csr")[perm][:, perm]
    A = scipy.sparse.bmat(
        [[-p.mu * stiff, -(1.0 / p.mu) * mass], [p.b * mass, -p.gamma * mass]], format="csr"
    )[perm][:, perm]
    return mass, msys, A


def csr_band(S):
    """LAPACK band storage (3 sub- and superdiagonals) of a sparse S."""
    m = S.shape[0]
    ab = np.zeros((7, m), order="F")
    for o in range(-3, 4):
        ab[3 - o, max(o, 0) : m + min(o, 0)] = S.diagonal(o)
    return ab


def signed_vectors(rng, m, count):
    """Random vectors over 16 decades with +0.0 and -0.0 entries."""
    Y = rng.standard_normal((count, m)) * 10.0 ** rng.integers(-8, 8, (count, m))
    Y[rng.random((count, m)) < 0.1] = 0.0
    Y[rng.random((count, m)) < 0.1] = -0.0
    return Y


class TestTypes:
    def test_param_defaults(self):
        p = FhnParams()
        assert (p.mu, p.b, p.gamma, p.c_const) == (0.015, 0.5, 2.0, 0.05)

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            FhnParams(mu=0.0)

    def test_mesh_spacing(self):
        assert Mesh1D(5).h == 0.25

    def test_mesh_too_small(self):
        with pytest.raises(InvalidInputError):
            Mesh1D(1)

    def test_snapshot_times_must_increase(self):
        with pytest.raises(ValueError):
            SnapshotSet(
                times=np.array([0.1, 0.1]),
                columns=np.zeros((2, 2)),
                weights=np.ones(2),
            )


class TestAssembly:
    def test_single_element_mass(self):
        mass, _ = assemble_fem(Mesh1D(2))
        expected = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        assert np.allclose(_dense(mass), expected, atol=1e-16)

    def test_single_element_stiffness(self):
        _, stiff = assemble_fem(Mesh1D(2))
        assert np.allclose(_dense(stiff), [[1.0, -1.0], [-1.0, 1.0]], atol=0)

    @pytest.mark.parametrize("n", [2, 17, 100])
    def test_stiffness_annihilates_constants(self, n):
        _, stiff = assemble_fem(Mesh1D(n))
        assert np.max(np.abs(_dense(stiff) @ np.ones(n))) <= 1e-14 * (2.0 / Mesh1D(n).h)

    @pytest.mark.parametrize("n", [2, 17, 100])
    def test_mass_partition_of_unity(self, n):
        mass, _ = assemble_fem(Mesh1D(n))
        assert np.ones(n) @ (_dense(mass) @ np.ones(n)) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 17, 100])
    def test_bands_hold_the_reference_entries(self, n):
        for rows, reference in zip(assemble_fem(Mesh1D(n)), reference_fem(Mesh1D(n))):
            assert rows.shape == (3, n) and rows[0, 0] == rows[2, -1] == 0.0
            assert np.array_equal(_dense(rows), reference.toarray())


class TestWeightMatrix:
    def test_block_structure(self):
        M = build_weight_matrix(Mesh1D(2))
        mass = _dense(assemble_fem(Mesh1D(2))[0])
        full = M.entries.toarray()
        assert M.dim == 4
        assert np.allclose(full[:2, :2], mass, atol=0)
        assert np.allclose(full[2:, 2:], mass, atol=0)
        assert np.max(np.abs(full[:2, 2:])) == 0.0

    def test_spd_at_large_scale(self):
        M = build_weight_matrix(Mesh1D(50000))
        y = M.apply_lt(np.ones(M.dim))  # banded factorization must succeed
        assert y.shape == (100000,) and np.isfinite(y).all()

    def test_constant_function_norm(self):
        # quadrature oracle: integral of 1 over (0, 1) is 1
        mesh = Mesh1D(37)
        M = build_weight_matrix(mesh)
        coeffs = np.concatenate([np.ones(mesh.nodes), np.zeros(mesh.nodes)])
        assert np.sqrt(coeffs @ M.matvec(coeffs)) == pytest.approx(1.0, abs=1e-12)


class TestForcing:
    def test_zero_at_t0(self):
        assert neumann_forcing(0.0, FhnParams()) == 0.0

    def test_scales_with_amplitude(self):
        p0 = FhnParams(bc_amplitude=0.0)
        assert neumann_forcing(0.3, p0) == 0.0
        p = FhnParams()
        assert neumann_forcing(0.2, p) == pytest.approx(
            0.015 * 50000 * 0.008 * np.exp(-3.0), rel=1e-15
        )


class TestSystem:
    @pytest.fixture
    def system(self):
        params, mesh = FhnParams(), Mesh1D(12)
        y = np.random.default_rng(5).uniform(-0.5, 1.2, 2 * mesh.nodes)
        return params, mesh, _FhnSystem(params, mesh), y

    def test_rhs_matches_the_field_equations(self, system):
        # in the stacked order: the system works on the interleaved one
        params, mesh, sys_, y = system
        p, n = params, mesh.nodes
        mass, stiff = reference_fem(mesh)
        v, w = y[:n], y[n:]
        ones = np.ones(n)
        Fv = (-p.mu * (stiff @ v) - (mass @ w) / p.mu
              + (mass @ (v * (v - 0.1) * (1.0 - v))) / p.mu
              + (p.c_const / p.mu) * (mass @ ones))
        Fv[0] += neumann_forcing(0.2, p)
        Fw = p.b * (mass @ v) - p.gamma * (mass @ w) + p.c_const * (mass @ ones)
        F = _stack(sys_.rhs(0.2, _interleave(y)))
        assert np.allclose(F, np.concatenate([Fv, Fw]), rtol=0, atol=1e-12)

    def test_jacobian_matches_central_differences(self, system):
        _, _, sys_, y = system
        y = _interleave(y)
        dy = np.random.default_rng(6).standard_normal(y.size)
        step = 1e-5
        fd = (sys_.rhs(0.2, y + step * dy) - sys_.rhs(0.2, y - step * dy)) / (2 * step)
        J = _unband(sys_.jacobian(y))
        assert np.allclose(J @ dy, fd, rtol=0, atol=1e-7 * np.abs(fd).max())

    def test_iteration_matrix_is_the_permuted_sparse_one(self, system):
        # P (M_sys - dh J) P^T from the stacked sparse operators
        params, mesh, sys_, y = system
        p, n = params, mesh.nodes
        mass, stiff = reference_fem(mesh)
        msys = scipy.sparse.block_diag([mass, mass])
        A = scipy.sparse.bmat([[-p.mu * stiff, -mass / p.mu], [p.b * mass, -p.gamma * mass]])
        v = y[:n]
        g_prime = np.concatenate([(-3.0 * v**2 + 2.2 * v - 0.1) / p.mu, np.zeros(n)])
        dh = 0.0371
        stacked = (msys - dh * (A + msys @ scipy.sparse.diags(g_prime))).toarray()
        P = np.eye(2 * n)[_interleave(np.arange(2 * n))]
        ab = sys_.iteration_matrix(_interleave(y), dh)
        assert ab.shape == (7, 2 * n)
        expected = P @ stacked @ P.T
        assert np.abs(_unband(ab) - expected).max() <= 1e-14 * np.abs(expected).max()


    @pytest.mark.parametrize("nodes", [2, 12, 200, 500])
    def test_products_equal_the_permuted_csr_bitwise(self, nodes, rng):
        # scipy's CSR product sums a row's stored entries in order from +0.0
        params, mesh = FhnParams(), Mesh1D(nodes)
        sys_ = _FhnSystem(params, mesh)
        mass, msys, A = reference_system(params, mesh)
        # all -0.0: a row of signed-zero terms sums to +0.0
        for y in [np.full(2 * nodes, -0.0), *signed_vectors(rng, 2 * nodes, 100)]:
            assert (sys_.A @ y).tobytes() == (A @ y).tobytes()
            assert (sys_.msys @ y).tobytes() == (msys @ y).tobytes()
            assert (sys_.mass @ y[0::2]).tobytes() == (mass @ y[0::2]).tobytes()
            F = A @ y + sys_._b_const
            F[0::2] += (mass @ (y[0::2] * (y[0::2] - 0.1) * (1.0 - y[0::2]))) / params.mu
            F[0] += neumann_forcing(0.2, params)
            assert sys_.rhs(0.2, y).tobytes() == F.tobytes()

    @pytest.mark.parametrize("nodes", [2, 12, 200])
    def test_bands_equal_the_permuted_csr_bitwise(self, nodes):
        params, mesh = FhnParams(), Mesh1D(nodes)
        sys_ = _FhnSystem(params, mesh)
        mass, msys, A = reference_system(params, mesh)
        assert sys_.A_band.tobytes() == csr_band(A).tobytes()
        assert sys_.msys_band.tobytes() == csr_band(msys).tobytes()
        mass_one = mass @ np.ones(nodes)
        b_const = np.concatenate([(params.c_const / params.mu) * mass_one,
                                  params.c_const * mass_one])
        assert sys_._b_const.tobytes() == _interleave(b_const).tobytes()


class TestSimulate:
    def test_zero_forced_system_stays_at_rest(self):
        params = FhnParams(bc_amplitude=0.0, c_const=0.0)
        mesh = Mesh1D(40)
        snaps = simulate(params, mesh, 1.0)
        M = build_weight_matrix(mesh)
        norms = np.sqrt(np.einsum("ij,ij->j", snaps.columns, M.matvec(snaps.columns)))
        assert max(norms) <= 1e-10

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(InvalidInputError):
            simulate(FhnParams(), Mesh1D(10), 0.0)

    def test_step_budget_failure_reports_time(self):
        with pytest.raises(IntegrationFailureError) as exc:
            simulate(FhnParams(), Mesh1D(10), 10.0, max_steps=3)
        assert exc.value.t_reached >= 0.0

    @pytest.fixture
    def singular_factor(self, monkeypatch):
        # dgbtrf's info 1: U[0, 0] is exactly zero
        monkeypatch.setattr(_lapack.BandLU, "factor", lambda self, ab: 1)

    def test_singular_iteration_matrix_reports_time(self, singular_factor):
        with pytest.raises(IntegrationFailureError) as exc:
            simulate(FhnParams(), Mesh1D(10), 1.0)
        assert exc.value.t_reached == 0.0

    def test_singular_iteration_matrix_exit_code(self, singular_factor, tmp_path):
        assert main(["simulate", "--nodes", "10", "--t-final", "1",
                     "--output", str(tmp_path / "x")]) == 3

    def test_weights_are_sqrt_of_time_steps(self):
        snaps = simulate(FhnParams(), Mesh1D(30), 0.5)
        dts = np.diff(np.concatenate([[0.0], snaps.times]))
        assert np.array_equal(snaps.weights, np.sqrt(dts))

    def test_deterministic_repeat(self):
        a = simulate(FhnParams(), Mesh1D(25), 0.3)
        b = simulate(FhnParams(), Mesh1D(25), 0.3)
        assert np.array_equal(a.columns, b.columns)
        assert np.array_equal(a.times, b.times)

    def test_v_component_stays_bounded(self):
        # sanity envelope for the excitable dynamics
        mesh = Mesh1D(100)
        snaps = simulate(FhnParams(), mesh, 10.0)
        v = snaps.raw_columns()[: mesh.nodes, :]
        assert np.max(np.abs(v)) <= 5.0


class TestSelfConvergence:
    def test_mesh_refinement_order(self):
        # successive-refinement differences must shrink by >= 3x (P1 gives ~4x)
        t_final = 0.5
        x_fine = np.linspace(0.0, 1.0, 4001)

        def final_profile(n):
            mesh = Mesh1D(n)
            snaps = simulate(FhnParams(), mesh, t_final, rtol=1e-9, atol=1e-11)
            raw = snaps.raw_columns()[:, -1]
            v = np.interp(x_fine, mesh.x, raw[: mesh.nodes])
            w = np.interp(x_fine, mesh.x, raw[mesh.nodes :])
            return v, w

        def l2(u):
            return np.sqrt(np.trapezoid(u**2, x_fine))

        v1, w1 = final_profile(250)
        v2, w2 = final_profile(500)
        v3, w3 = final_profile(1000)
        d12 = np.hypot(l2(v1 - v2), l2(w1 - w2))
        d23 = np.hypot(l2(v2 - v3), l2(w2 - w3))
        assert d12 >= 3.0 * d23
