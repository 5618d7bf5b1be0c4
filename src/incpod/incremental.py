"""Streaming SVD update with two truncations and a running error bound.

The state machine consumes one data column at a time and maintains a core
SVD (V, sigma, W) of an approximate data matrix, together with a scalar e
that bounds the weighted operator-norm distance between the true data
matrix and the approximation. Truncation happens in two places: a new
column whose out-of-basis residual norm p falls below ``tol`` is projected
into the current basis (adding p to the bound), and trailing singular
values at or below ``tol_sv`` are dropped after each update (adding the
largest dropped value to the bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import FormatError, InvalidInputError
from .weighted_linalg import modified_gram_schmidt_weighted, small_svd

__all__ = [
    "Tolerances",
    "SvdState",
    "UpdateReport",
    "update",
    "reconstruct",
    "pod_output",
    "run_stream",
]


@dataclass(frozen=True)
class Tolerances:
    """Truncation thresholds: ``tol`` for the residual norm p, ``tol_sv``
    for trailing singular values."""

    tol: float = 1e-10
    tol_sv: float = 1e-10

    def __post_init__(self):
        if not (self.tol > 0.0 and self.tol_sv > 0.0):
            raise ValueError("tolerances must be positive")


@dataclass
class SvdState:
    """Running decomposition: V (m, k) M-orthonormal, sigma descending
    positive, and the orthonormal right vectors W (n, k) kept as two factors,
    both None when right vectors are skipped:

        W = diag(W0, I) @ Wp = vstack([W0 @ Wp[:k0], Wp[k0:]])

    ``W0`` (n0, k0) holds the rows already rotated at the last fold;
    ``Wp`` (k0 + n - n0, k) holds the small rotations accumulated since then
    and the rows appended after it. ``W`` builds the product on each access.

    ``n`` counts every column consumed, zero columns included; each has a
    row of W. ``e`` is the accumulated error bound, each term added with
    upward rounding so that it is never below the exact real sum of its
    terms; ``T_p`` and ``T_sv`` count the truncation events that contributed
    to it. Single-owner mutable state: one update at a time.
    """

    V: np.ndarray
    sigma: np.ndarray
    W0: np.ndarray | None
    Wp: np.ndarray | None
    n: int
    e: float = 0.0
    T_p: int = 0
    T_sv: int = 0

    @classmethod
    def empty(cls, m, keep_w=True):
        """The rank-0 decomposition of no columns, where every stream starts:
        its first :func:`update` is the initialization."""
        W0, Wp = (np.zeros((0, 0)), np.zeros((0, 0))) if keep_w else (None, None)
        return cls(V=np.zeros((m, 0)), sigma=np.zeros(0), W0=W0, Wp=Wp, n=0)

    @property
    def k(self):
        """Current rank, the number of singular values kept."""
        return self.sigma.size

    @property
    def W(self):
        """Right singular vectors (n, k), built from the factors; None when
        they are skipped."""
        if self.Wp is None:
            return None
        return _right_vectors(self.W0, self.Wp)


def _right_vectors(W0, Wp):
    k0 = W0.shape[1]
    return np.vstack([W0 @ Wp[:k0], Wp[k0:]])


@dataclass(frozen=True)
class UpdateReport:
    """Per-column diagnostics of one update step."""

    p: float
    e_p: float
    e_sv: float
    rank_grew: bool
    reorthogonalized: bool


def update(state, c, M, tols):
    """Fold one new column into the decomposition, all or nothing.

    Follows the bordered-matrix update: with d = V^T M c and p the M-norm
    of the residual c - V d, the small matrix [diag(sigma) d; 0 p] is
    decomposed in full. When p >= tol and the rank is below the ambient
    dimension, the residual direction joins the basis and the rank grows by
    one; otherwise it is discarded and p is added to the error bound.
    Trailing singular values at or below tol_sv are then truncated, adding
    the largest one dropped. Finally a basis of two or more columns is
    reorthogonalized when its first and last columns have drifted more than
    tol out of M-orthogonality.

    From :meth:`SvdState.empty` (k = 0) the first update is the
    initialization: Q = [p], so V = c / p, sigma = p and W = [1]. A column
    with p < tol, a zero column in particular, is an ordinary non-growing
    update at any rank: it adds p to e and a row to W, and n counts it.

    The right vectors are rotated lazily (Brand, LAA 415, 2006): the small
    rotation and the new row go into ``Wp`` only, at O(k^3) with no n term.
    When ``Wp`` has more than 2k rows it is folded into ``W0`` (``W0 <- W``,
    ``Wp <- I``), an O(n k0 k) product once every k or so columns. Nothing
    here reads W, so V, sigma and e do not depend on whether it is kept.

    ``state`` is assigned only after the last step that can raise, so an
    exception (a bad column, or a :class:`RankDeficientError` from the
    reorthogonalization) leaves it as it was.

    Returns ``(state, UpdateReport)``.
    """
    V, sigma, W0, Wp = state.V, state.sigma, state.W0, state.Wp
    m, k = V.shape
    c = np.ascontiguousarray(c, dtype=np.float64)  # layout-independent bits
    if c.shape != (m,):
        raise ValueError(f"column has shape {c.shape}, expected ({m},)")
    if not np.isfinite(c).all():
        raise InvalidInputError("column contains non-finite entries")

    Mc = M.matvec(c)
    d = V.T @ Mc
    res = c - V @ d
    p = float(np.sqrt(abs(res @ M.matvec(res))))

    Q = np.zeros((k + 1, k + 1))
    Q[:k, :k] = np.diag(sigma)
    Q[:k, k] = d
    # as the paper writes it, p enters Q whenever p >= tol, even at full
    # rank where the residual direction is then discarded
    Q[k, k] = 0.0 if p < tols.tol else p
    V_Q, sigma_Q, W_Q = small_svd(Q)

    grow = p >= tols.tol and k < m
    if grow:
        # One extra projection pass before normalizing: the raw residual
        # carries cancellation round-off of size eps*||c||, which p may not
        # dominate. Re-projecting shrinks the in-span contamination to
        # eps*||res|| so the new direction stays M-orthogonal to V at
        # machine level regardless of how small p is. Exact arithmetic:
        # a no-op.
        res2 = res - V @ (V.T @ M.matvec(res))
        p2 = float(np.sqrt(abs(res2 @ M.matvec(res2))))
        j = res2 / p2 if p2 > 0.0 else res / p
        V = np.hstack([V, j[:, None]])
    r = k + grow
    V = V @ V_Q[:r, :r]
    sigma = sigma_Q[:r]
    if Wp is not None:
        Wp = np.vstack([Wp @ W_Q[:k, :r], W_Q[k, :r][None, :]])
    e_p = 0.0 if grow else p

    # Singular value truncation: keep the leading values above tol_sv,
    # never fewer than one.
    keep = max(1, int(np.count_nonzero(sigma > tols.tol_sv)))
    e_sv = 0.0
    if keep < r:
        e_sv = float(sigma[keep])
        V, sigma = V[:, :keep], sigma[:keep]
        if Wp is not None:
            Wp = Wp[:, :keep]
    if Wp is not None and Wp.shape[0] > 2 * Wp.shape[1]:
        W0, Wp = _right_vectors(W0, Wp), np.eye(Wp.shape[1])

    # at rank one V[:, -1] is V[:, 0]: there is no pair to compare
    reorthogonalized = (
        V.shape[1] >= 2 and abs(float(V[:, -1] @ M.matvec(V[:, 0]))) > tols.tol
    )
    if reorthogonalized:
        V = modified_gram_schmidt_weighted(V, M)

    state.V, state.sigma, state.W0, state.Wp = V, sigma, W0, Wp
    state.n += 1
    # step each rounded sum up to the next float: e stays >= the exact sum
    if e_p > 0.0:
        state.e = math.nextafter(state.e + e_p, math.inf)
        state.T_p += 1
    if e_sv > 0.0:
        state.e = math.nextafter(state.e + e_sv, math.inf)
        state.T_sv += 1

    report = UpdateReport(
        p=p,
        e_p=e_p,
        e_sv=e_sv,
        rank_grew=grow,
        reorthogonalized=reorthogonalized,
    )
    return state, report


def reconstruct(state):
    """Dense m x n matrix V diag(sigma) W^T of the approximate data."""
    if state.Wp is None:
        raise ValueError("right singular vectors were not maintained")
    return (state.V * state.sigma) @ state.W.T


def pod_output(state):
    """POD modes (the M-orthonormal columns of V) and eigenvalues sigma^2."""
    return state.V, state.sigma**2


def run_stream(columns, M, tols, keep_w=True, state=None, on_column=None):
    """Feed an iterable of columns through :func:`update`, one at a time.

    The stream starts from :meth:`SvdState.empty`, or from ``state``, a
    restored decomposition of a prefix of this stream: the ``state.n``
    columns it consumed are passed over (a :class:`FormatError` if the
    stream ends first) and the remaining ones update it.
    ``on_column(state, report)`` is called after every update with its
    :class:`UpdateReport`. A stream that ends at rank 0 (no columns, or only
    columns with p < tol) raises :class:`InvalidInputError`.

    Returns the final state.
    """
    columns = iter(columns)
    if state is None:
        state = SvdState.empty(M.dim, keep_w=keep_w)
    else:
        passed = sum(1 for _ in islice(columns, state.n))
        if passed < state.n:
            raise FormatError(
                f"stream ends after {passed} of the {state.n} columns the state consumed"
            )
    for c in columns:
        state, report = update(state, c, M, tols)
        if on_column is not None:
            on_column(state, report)
    if state.k == 0:
        raise InvalidInputError("stream contained no usable columns")
    return state
