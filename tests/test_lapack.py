"""The ctypes binding of numpy's OpenBLAS against scipy's LAPACK wrappers
and numpy's own ``cholesky``.

Both call the same routines, so the factors, pivots and solutions must
agree bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack as scipy_lapack

from incpod import _lapack
from incpod.errors import NotPositiveDefiniteError
from incpod.fhn import FhnParams, Mesh1D, _FhnSystem, assemble_fem, build_weight_matrix
from incpod.weighted_linalg import WeightMatrix

KL = KU = 3


def fhn_iteration_matrix(nodes, seed):
    y = np.random.default_rng(seed).uniform(-0.5, 1.2, 2 * nodes)
    return _FhnSystem(FhnParams(), Mesh1D(nodes)).iteration_matrix(y, 0.0371)


def random_band(rng, m):
    """A general band matrix with KL sub- and KU superdiagonals in band
    storage, weakly diagonally dominant so that it pivots now and then."""
    ab = rng.standard_normal((KL + KU + 1, m))
    ab[KU] *= 2.0
    return ab


def dgbtrf_storage(ab):
    """The band under KL zero rows, the room for the factor's fill-in, as
    scipy's ``dgbtrf`` takes it."""
    return np.vstack([np.zeros((KL, ab.shape[1])), ab]).copy(order="F")


def assert_lu_matches_scipy(ab, rng, solves=50):
    m = ab.shape[1]
    lu, piv, info = scipy_lapack.dgbtrf(dgbtrf_storage(ab), KL, KU)
    ours = _lapack.BandLU(m, KL, KU)
    assert ours.factor(ab) == info == 0
    assert ours._ab.tobytes() == lu.tobytes()
    assert np.array_equal(ours._ipiv - 1, piv)  # scipy returns 0-based pivots
    for b in rng.standard_normal((solves, m)) * 10.0 ** rng.integers(-6, 6, (solves, m)):
        b[rng.random(m) < 0.1] = -0.0
        x = ours.solve(b)
        assert x.tobytes() == scipy_lapack.dgbtrs(lu, KL, KU, b, piv)[0].tobytes()


@pytest.mark.parametrize("nodes", [12, 200, 500])
def test_band_lu_on_the_fhn_iteration_matrix(nodes, rng):
    assert_lu_matches_scipy(fhn_iteration_matrix(nodes, seed=nodes), rng)


@pytest.mark.parametrize("m", [1, 7, 400, 1000])
def test_band_lu_on_random_bands(m, rng):
    for _ in range(3):
        assert_lu_matches_scipy(random_band(rng, m), rng, solves=20)


def test_band_lu_refactors_and_solves_do_not_alias(rng):
    # the second factor starts from the first one's fill-in rows, which
    # dgbtrf does not read: it equals a factor from zeroed rows
    ours = _lapack.BandLU(50, KL, KU)
    first, second = random_band(rng, 50), random_band(rng, 50)
    kept = first.copy()
    b = rng.standard_normal(50)
    ours.factor(first)
    x1 = ours.solve(b)
    assert ours._ab[:KL].any()
    ours.factor(second)
    x2 = ours.solve(b)
    lu, piv, _ = scipy_lapack.dgbtrf(dgbtrf_storage(second), KL, KU)
    assert ours._ab.tobytes() == lu.tobytes()
    assert x2.tobytes() == scipy_lapack.dgbtrs(lu, KL, KU, b, piv)[0].tobytes()
    assert not np.array_equal(x1, x2)
    assert np.array_equal(first, kept)  # input left alone


def test_band_lu_reports_an_exactly_zero_pivot(rng):
    ab = random_band(rng, 30)
    ab[:, 11] = 0.0  # column 11 is zero, so U[11, 11] is exactly zero
    info = scipy_lapack.dgbtrf(dgbtrf_storage(ab), KL, KU)[2]
    assert _lapack.BandLU(30, KL, KU).factor(ab) == info == 12


@pytest.mark.parametrize("nodes", [40, 200, 500])
def test_band_cholesky_on_the_fhn_weight(nodes):
    mass, _ = assemble_fem(Mesh1D(nodes))
    band = np.tile(mass[1:], 2)  # the lower band of diag(mass, mass)
    expected, info = scipy_lapack.dpbtrf(band, lower=1)
    L, ours = _lapack.pbtrf(band)
    assert ours == info == 0
    assert L.tobytes() == expected.tobytes()
    assert build_weight_matrix(Mesh1D(nodes))._factor().tobytes() == expected.tobytes()


def spd_band(rng, m, kd):
    """The lower band of a diagonally dominant, so SPD, matrix."""
    band = rng.uniform(-1.0, 1.0, (kd + 1, m))
    band[0] = 2.0 * kd + 1.0 + rng.random(m)
    return band


@pytest.mark.parametrize("m", [1, 60, 1000])
def test_band_cholesky_on_random_bands_of_bandwidth_four(m, rng):
    band = spd_band(rng, m, 4)
    expected, info = scipy_lapack.dpbtrf(band, lower=1)
    L, ours = _lapack.pbtrf(band)
    assert ours == info == 0
    assert L.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pivot", [0, 17, 59])
def test_band_cholesky_pivot_is_lapacks(pivot, rng):
    band = spd_band(rng, 60, 4)
    band[0, pivot] = -1.0
    info = scipy_lapack.dpbtrf(band, lower=1)[1]
    assert _lapack.pbtrf(band)[1] == info == pivot + 1
    with pytest.raises(NotPositiveDefiniteError) as exc:
        WeightMatrix.from_band(band)._factor()
    assert exc.value.pivot == pivot


def random_verify_weight(m, seed):
    """The dense weight of ``verify --random m n seed``."""
    A = np.random.default_rng(seed).standard_normal((m, m))
    return ((A @ A.T) + (A @ A.T).T) / 2.0 + m * np.eye(m)


def assert_potrf_is_numpys(M):
    L, info = _lapack.potrf(M)
    assert info == 0
    assert L.flags.c_contiguous
    assert L.tobytes() == np.linalg.cholesky(M).tobytes()  # with its zero upper triangle


@pytest.mark.parametrize("m", [1, 2, 3, 17, 64, 129, 400])
def test_dense_cholesky_equals_numpy_bitwise(m, rng):
    for _ in range(3):
        A = rng.standard_normal((m, m))
        M = A @ A.T + 10.0 ** rng.uniform(-3, 1) * np.eye(m)
        assert_potrf_is_numpys((M + M.T) / 2.0)


@pytest.mark.parametrize("m, seed", [(60, 0), (200, 3)])
def test_dense_cholesky_on_the_random_verify_weights(m, seed):
    M = random_verify_weight(m, seed)
    assert_potrf_is_numpys(M)
    assert WeightMatrix(M)._factor().tobytes() == np.linalg.cholesky(M).tobytes()


def test_dense_cholesky_of_an_empty_matrix():
    L, info = _lapack.potrf(np.zeros((0, 0)))
    assert info == 0 and L.shape == (0, 0)


def first_nonpositive_minor(M):
    """The order of the first leading block that numpy cannot factor, by
    trying every order in turn."""
    for j in range(1, M.shape[0] + 1):
        try:
            np.linalg.cholesky(M[:j, :j])
        except np.linalg.LinAlgError:
            return j
    return 0


@pytest.mark.parametrize("m", [1, 5, 40])
def test_dense_cholesky_pivot_is_the_first_nonpositive_minor(m, rng):
    for _ in range(20):
        A = rng.standard_normal((m, m))
        M = A @ A.T + rng.uniform(-2.0, 2.0, m) * np.eye(m) * m ** 0.5
        M = (M + M.T) / 2.0
        order = first_nonpositive_minor(M)
        assert _lapack.potrf(M)[1] == order
        if order:
            with pytest.raises(NotPositiveDefiniteError, match=f"order {order}\\)") as exc:
                WeightMatrix(M).apply_lt(np.ones(m))
            assert exc.value.pivot == order - 1


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def svd_inputs():
    """(id, matrix) pairs: both orientations, the square case, the wide and
    tall shapes past LAPACK's 11/6 aspect switch (the wide ones narrower
    than the chunks of about 4m + 7 columns in which dgesdd multiplies Vt;
    the tall ones from just past it, 74 x 40, to 2000 x 300), a
    rank-deficient and an all-zero matrix."""
    rng = np.random.default_rng(22)
    low_rank = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
    return [
        ("m<n", rng.standard_normal((25, 40))),
        ("m>n", rng.standard_normal((60, 40))),
        ("m=n", rng.standard_normal((25, 25))),
        ("n>=11m/6", rng.standard_normal((30, 60))),
        ("m>=11n/6", rng.standard_normal((120, 20))),
        ("74x40", rng.standard_normal((74, 40))),
        ("120x40", rng.standard_normal((120, 40))),
        ("1000x100", rng.standard_normal((1000, 100))),
        ("2000x300", rng.standard_normal((2000, 300))),
        ("fhn_size", rng.standard_normal((400, 688)) * np.geomspace(1.0, 1e-12, 688)),
        ("rank_3", low_rank),
        ("rank_3_wide", low_rank.T.copy()),
        ("zero_wide", np.zeros((5, 8))),
        ("zero_tall", np.zeros((8, 5))),
        ("one_row", rng.standard_normal((1, 7))),
        ("one_column", rng.standard_normal((7, 1))),
    ]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name, A", svd_inputs(), ids=[name for name, _ in svd_inputs()])
def test_gesdd_equals_numpy_svd_bitwise(name, A, order):
    A = np.array(A, order=order)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if not A.flags.f_contiguous:
        with pytest.raises(ValueError, match="Fortran-ordered"):
            _lapack.gesdd(A)
    S = np.asfortranarray(A)  # a copy for a C-ordered A, as the oracle makes
    U, sigma, Vt = _lapack.gesdd(S)
    assert same_bits(sigma, s) and same_bits(Vt, vt)
    m, n = A.shape
    if m >= int(n * 11 / 6):  # dgesdd's MNTHR: there numpy's JOBZ='S' forms U in other steps
        assert U.shape == u.shape and np.abs(U - u).max() <= 1e-15
    else:
        assert same_bits(U, u)
    assert (Vt if m < n else U) is S  # the longer factor is written over the input


def test_gesdd_tall_allocates_no_m_by_n_array():
    # U is the input, so the new arrays (s, Vt and LAPACK's workspace) are
    # O(n^2), far below the m x n that a new U would take
    S = np.asfortranarray(np.random.default_rng(7).standard_normal((20_000, 20)))
    tracemalloc.start()
    try:
        U = _lapack.gesdd(S)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert U is S
    assert peak < 0.1 * S.nbytes, f"{peak / S.nbytes:.2f} x S"


@pytest.mark.parametrize("m, n", [(25, 118), (60, 2000)])
def test_gesdd_wide_chunks_move_only_the_last_bits_of_vt(m, n):
    A = np.random.default_rng(m).standard_normal((m, n))
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    U, sigma, Vt = _lapack.gesdd(np.asfortranarray(A))
    assert same_bits(U, u) and same_bits(sigma, s) and Vt.shape == vt.shape
    assert np.abs(Vt - vt).max() <= 1e-15


def test_gesdd_nan_is_a_linalg_error():
    A = np.asfortranarray(np.ones((6, 4)))
    A[2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(A)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        _lapack.gesdd(A)


@pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
def test_gesdd_empty(shape):
    U, sigma, Vt = _lapack.gesdd(np.zeros(shape, order="F"))
    u, s, vt = np.linalg.svd(np.zeros(shape), full_matrices=False)
    assert U.shape == u.shape and sigma.shape == s.shape and Vt.shape == vt.shape


@pytest.mark.parametrize("shape", [(60,), (60, 7), (60, 0)], ids=["vector", "block", "empty"])
def test_triangular_solves_of_l_transposed(shape, rng):
    # dtrtrs on a dense factor, the same call as scipy's; dtbtrs on the band
    # of the FHN weight's factor, against a dense solve of that factor
    B = rng.standard_normal(shape)
    dense = WeightMatrix(fhn_random_spd(rng, 60))._factor()
    X = _lapack.trsv_lt(dense, B, band=False)
    # the C-ordered L's buffer is L^T in column-major order, solved as upper
    expected, info = scipy_lapack.dtrtrs(dense.T, B.reshape(60, -1), lower=0, trans=0)
    assert info == 0 and X.shape == B.shape and X.flags.f_contiguous
    assert X.tobytes() == expected.reshape(shape).tobytes()
    band = build_weight_matrix(Mesh1D(30))._factor()
    L = sum(np.diag(band[d, : 60 - d], -d) for d in range(band.shape[0]))
    X = _lapack.trsv_lt(band, B, band=True)
    assert X.shape == B.shape and X.flags.f_contiguous
    assert np.allclose(X, np.linalg.solve(L.T, B.reshape(60, -1)).reshape(shape),
                       rtol=1e-13, atol=1e-13)


def fhn_random_spd(rng, m):
    A = rng.standard_normal((m, m))
    return A @ A.T + m * np.eye(m)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("w", [1, 5, 300])
def test_syrk_adds_to_the_lower_triangle_only(order, w, rng):
    G = rng.standard_normal((40, 40))
    S = np.array(rng.standard_normal((40, w)), order=order)
    before = G.copy()
    _lapack.syrk_lower(G, S)
    lower = np.tril_indices(40)
    assert np.allclose(G[lower], (before + S @ S.T)[lower], rtol=1e-13, atol=1e-12)
    assert np.array_equal(np.triu(G, 1), np.triu(before, 1))


def test_syrk_needs_a_c_ordered_gram_matrix(rng):
    with pytest.raises(ValueError):
        _lapack.syrk_lower(np.zeros((4, 4), order="F"), rng.standard_normal((4, 2)))


def test_thread_count_reads_back_what_was_set():
    before = _lapack.get_num_threads()
    try:
        for count in (2, 1):
            _lapack.set_num_threads(count)
            assert _lapack.get_num_threads() == count
    finally:
        _lapack.set_num_threads(before)
