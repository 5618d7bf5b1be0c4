"""LAPACK's band LU, band Cholesky, band triangular solve and in-place SVD,
BLAS's symmetric rank-k update, and the thread count of the OpenBLAS in
numpy's wheels.

numpy >= 2.0 wheels link ``numpy._core._multiarray_umath`` against
scipy-openblas, whose LAPACK, with 64-bit integers, a ``CDLL`` of that
extension finds as ``scipy_<routine>_64_``. A routine is looked up on first
use, not on import; a missing one is a :class:`LapackUnavailableError`.
"""

import ctypes
import functools

import numpy as np

from .errors import LapackUnavailableError

REQUIREMENT = "incpod needs the OpenBLAS that numpy's wheels (numpy >= 2.0) bundle"


@functools.cache
def _symbol(name):
    try:
        f = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), name)
    except (AttributeError, OSError) as exc:
        raise LapackUnavailableError(f"{REQUIREMENT}: {exc}") from None
    f.restype = None
    return f


def _routine(name):
    """The LAPACK routine ``name`` with 64-bit integers."""
    return _symbol(f"scipy_{name}_64_")


def set_num_threads(count):
    """Run the BLAS of numpy's OpenBLAS on ``count`` threads from now on, and
    return the count before, for the caller to restore. How a product is
    split between threads can change its bits, so a caller that fixes the
    count gets the same bits in any environment."""
    setter, before = _symbol("scipy_openblas_set_num_threads64_"), get_num_threads()
    setter(ctypes.c_int(count))
    return before


def get_num_threads():
    """The number of threads the BLAS of numpy's OpenBLAS runs on."""
    f = _symbol("scipy_openblas_get_num_threads64_")
    f.restype = ctypes.c_int
    return f()


def _refs(*values):
    """Fortran arguments: bytes as a char*, an array as its data (the caller
    keeps it alive), an int or a ctypes integer by reference."""
    return [
        ctypes.c_char_p(v) if isinstance(v, bytes)
        else ctypes.c_void_p(v.ctypes.data) if isinstance(v, np.ndarray)
        else ctypes.byref(ctypes.c_int64(v) if isinstance(v, int) else v)
        for v in values
    ]


class BandLU:
    """``dgbtrf`` and ``dgbtrs`` for m x m matrices with kl sub- and ku
    superdiagonals, one factor at a time, in buffers that every call reuses,
    so that all arguments are built once."""

    def __init__(self, m, kl, ku):
        self._ab, self._kl = np.zeros((2 * kl + ku + 1, m), order="F"), kl
        self._b, self._ipiv, self._info = np.zeros(m), np.zeros(m, np.int64), ctypes.c_int64()
        trans, m_, kl_, ku_, one, ab, ldab, ipiv, b, info = _refs(
            b"N", m, kl, ku, 1, self._ab, self._ab.shape[0], self._ipiv, self._b, self._info
        )
        self._factor = functools.partial(_routine("dgbtrf"), m_, m_, kl_, ku_, ab, ldab, ipiv, info)
        self._solve = functools.partial(
            _routine("dgbtrs"), trans, m_, kl_, ku_, one, ab, ldab, ipiv, b, m_, info,
            ctypes.c_size_t(1),  # the hidden length of the string TRANS
        )

    def factor(self, ab):
        """Factor a copy of the band ``ab``, shape (kl + ku + 1, m) in
        LAPACK's band storage: entry (r, c) at row ku + r - c of column c.
        It goes below the kl rows of the factor's fill-in, which ``dgbtrf``
        does not read on entry. Returns LAPACK's info: 0, or i > 0 if
        U[i - 1, i - 1] is exactly zero."""
        self._ab[self._kl :] = ab
        self._factor()
        return self._info.value

    def solve(self, b):
        """x with A x = b for the last factored A, as a new array."""
        self._b[...] = b
        self._solve()
        return self._b.copy()


def pbtrf(ab):
    """``dpbtrf`` on a copy of the lower band ``ab``, shape (kd + 1, m), of an
    SPD M. Returns the lower band of L with M = L L^T and LAPACK's info: 0,
    or j > 0 if the leading minor of order j is not positive."""
    L, info = np.array(ab, dtype=np.float64, order="F"), ctypes.c_int64()
    kd = L.shape[0] - 1
    _routine("dpbtrf")(*_refs(b"L", L.shape[1], kd, L, kd + 1, info), ctypes.c_size_t(1))
    return np.ascontiguousarray(L), info.value


def trsv_lt(L, B):
    """X with L^T X = B, as a new Fortran-ordered array of B's shape, by one
    ``dtbtrs`` on the lower band of L, shape (kd + 1, m) with
    ``band[d, j] = L[j + d, j]``. L must have a nonzero diagonal."""
    X, L = np.array(B, dtype=np.float64, order="F"), np.asfortranarray(L)
    m, kd = X.shape[0], L.shape[0] - 1
    nrhs = 1 if X.ndim == 1 else X.shape[1]
    info = ctypes.c_int64()
    strings = [ctypes.c_size_t(1)] * 3  # the hidden lengths of UPLO, TRANS and DIAG
    args = _refs(b"L", b"T", b"N", m, kd, nrhs, L, kd + 1, X, max(m, 1), info)
    _routine("dtbtrs")(*args, *strings)
    if info.value:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info.value})")
    return X


def syrk_lower(G, S):
    """Add S S^T to the lower triangle of the C-ordered (m, m) ``G`` in place,
    for an (m, w) ``S`` in either order, by one ``dsyrk`` with beta = 1.
    Column-major, G's buffer holds G^T, so its lower triangle is LAPACK's
    upper one; a C-ordered S is S^T (w, m), and ``TRANS='T'`` forms A^T A."""
    if not (G.flags.c_contiguous and G.flags.writeable and G.dtype == np.float64):
        raise ValueError("syrk_lower updates a writeable C-ordered float64 array")
    S = S if S.flags.f_contiguous else np.ascontiguousarray(S)
    m, w = S.shape
    trans, lda = (b"N", max(m, 1)) if S.flags.f_contiguous else (b"T", max(w, 1))
    one = ctypes.c_double(1.0)
    args = _refs(b"U", trans, m, w, one, S, lda, one, G, max(m, 1))
    _routine("dsyrk")(*args, ctypes.c_size_t(1), ctypes.c_size_t(1))


def gesdd(A):
    """Thin SVD A = U diag(s) Vt by ``dgesdd`` with JOBZ='O' and LAPACK's
    optimal workspace, which is queried first. ``A`` must be a
    Fortran-ordered float64 array; it is destroyed, and the longer factor
    is written over it: for m < n, Vt (m x n) is A and U (m x m) a new
    array; for m >= n, U (m x n) is A and Vt (n x n) new. Returns (U, s,
    Vt) with s descending. A failed SVD (info != 0: no convergence, or a NaN
    in A) is a ``LinAlgError``, as numpy's."""
    if A.dtype != np.float64 or not A.flags.f_contiguous or not A.flags.writeable:
        raise ValueError("gesdd overwrites a writeable Fortran-ordered float64 array")
    m, n = A.shape
    r = min(m, n)
    if r == 0:
        return np.zeros((m, r)), np.zeros(0), np.zeros((r, n))
    s = np.empty(r)
    if m < n:
        U, Vt, ldu, ldvt = np.empty((m, m), order="F"), A, m, 1
    else:
        U, Vt, ldu, ldvt = A, np.empty((n, n), order="F"), 1, n
    iwork, info, size = np.empty(8 * r, np.int64), ctypes.c_int64(), np.empty(1)
    svd = functools.partial(_routine("dgesdd"), *_refs(b"O", m, n, A, m, s, U, ldu, Vt, ldvt))
    jobz_length = ctypes.c_size_t(1)  # the hidden length of the string JOBZ
    svd(*_refs(size, -1, iwork, info), jobz_length)  # the workspace query
    work = np.empty(int(size[0]))
    svd(*_refs(work, work.size, iwork, info), jobz_length)
    if info.value:
        raise np.linalg.LinAlgError(f"SVD did not converge (dgesdd info {info.value})")
    return U, s, Vt
