"""LAPACK's band LU and band Cholesky from the OpenBLAS in numpy's wheels.

numpy >= 2.0 wheels link ``numpy._core._multiarray_umath`` against
scipy-openblas, whose LAPACK, with 64-bit integers, a ``CDLL`` of that
extension finds as ``scipy_<routine>_64_``. A routine is looked up on first
use, not on import.
"""

import ctypes
import functools

import numpy as np

REQUIREMENT = "incpod needs the OpenBLAS that numpy's wheels (numpy >= 2.0) bundle"


@functools.cache
def _routine(name):
    try:
        f = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), f"scipy_{name}_64_")
    except (AttributeError, OSError) as exc:
        raise ImportError(f"{REQUIREMENT}: {exc}") from None
    f.restype = None
    return f


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
        self._ab = np.zeros((2 * kl + ku + 1, m), order="F")
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
        """Factor a copy of ``ab``, in ``dgbtrf``'s storage. Returns LAPACK's
        info: 0, or i > 0 if U[i - 1, i - 1] is exactly zero."""
        self._ab[...] = ab
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
