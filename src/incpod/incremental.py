"""Streaming SVD update with two truncations and a running error bound.

The state machine consumes one data column at a time and maintains a core
SVD (V, sigma, W) of an approximate data matrix, together with a scalar e
that bounds the weighted operator-norm distance between the true data
matrix and the approximation. With the weight's Cholesky factorization
M = L L^T, the M-inner product of x and y is the Euclidean one of L^T x and
L^T y, so the state keeps Q = L^T V, whose columns are orthonormal, and
each column c enters as s = L^T c: the stream is the Euclidean algorithm on
the columns of L^T U, with no product with M, and V = L^-T Q is built on
demand. Truncation happens in two places: a new
column whose out-of-basis residual norm p falls below ``tol`` is projected
into the current basis (adding p to the bound), and trailing singular
values at or below ``tol_sv`` are dropped after each update (adding the
largest dropped value to the bound).

A projected column leaves span(V) unchanged, so :func:`run_stream` folds a
run of them with one thin SVD (a flush) instead of one small SVD each, and
while Q is unchanged it projects the rest of a block of columns as one
fixed-width product, then adds the leading span of those with p < tol
to the run in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .errors import FormatError, InvalidInputError
from .weighted_linalg import (
    WeightMatrix,
    column_blocks,
    modified_gram_schmidt_weighted,
    small_svd,
)

__all__ = [
    "RUN",
    "Tolerances",
    "SvdState",
    "UpdateReport",
    "update",
    "flush",
    "low_rank_factors",
    "reconstruct",
    "pod_output",
    "run_stream",
]

# The most columns a run holds. Runs close at absolute n = 0 (mod RUN), so an
# interrupted stream splits into the same runs as an uninterrupted one.
RUN = 64


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
    """Running decomposition: Q = L^T V (m, k) with orthonormal columns, so
    that V = L^-T Q is M-orthonormal, sigma descending positive, and the
    orthonormal right vectors W kept as two factors, both None when right
    vectors are skipped:

        W = diag(W0, I) @ Wp = vstack([W0 @ Wp[:k0], Wp[k0:]])

    ``W0`` (n0, k0) holds the rows already rotated at the last fold;
    ``Wp`` (k0 + n - j - n0, k) holds the small rotations accumulated since
    then and the rows appended after it. ``W`` builds the product on each
    access.

    ``D`` (k, RUN) holds in its first ``j`` columns the open run: the
    coefficients d = Q^T L^T c = V^T M c of consumed columns with p < tol
    that are not yet folded into Q, sigma and W (see :func:`flush`). Those
    columns have no row of W yet, so W has n - j rows; with j = 0 the run
    is closed.

    ``n`` counts every column consumed, zero columns and the open run
    included. ``e`` is the accumulated error bound, each term added with
    upward rounding so that it is never below the exact real sum of its
    terms; ``T_p`` and ``T_sv`` count the truncation events that contributed
    to it. ``M`` is the weight matrix the state was streamed in, whose factor
    L maps Q to V; :func:`update`, :func:`run_stream` and
    ``io_formats.restore`` set it, and every function that reads V or
    checkpoints the state takes it from here. Single-owner mutable state:
    one update at a time.
    """

    Q: np.ndarray
    sigma: np.ndarray
    W0: np.ndarray | None
    Wp: np.ndarray | None
    n: int
    e: float = 0.0
    T_p: int = 0
    T_sv: int = 0
    D: np.ndarray | None = None
    j: int = 0
    M: WeightMatrix | None = field(default=None, repr=False, compare=False)

    @classmethod
    def empty(cls, m, keep_w=True):
        """The rank-0 decomposition of no columns, where every stream starts:
        its first :func:`update` is the initialization."""
        W0, Wp = (np.zeros((0, 0)), np.zeros((0, 0))) if keep_w else (None, None)
        return cls(Q=np.zeros((m, 0)), sigma=np.zeros(0), W0=W0, Wp=Wp, n=0)

    @property
    def k(self):
        """Current rank, the number of singular values kept."""
        return self.sigma.size

    @property
    def run(self):
        """Coefficients (k, j) of the open run's columns."""
        return self.D[:, : self.j] if self.j else np.zeros((self.k, 0))

    @property
    def V(self):
        """The left singular vectors V = L^-T Q (m, k), M-orthonormal, from
        one triangular solve on each access."""
        if not self.k:
            return np.zeros((self.Q.shape[0], 0))
        if self.M is None:
            raise ValueError("the state has no weight matrix to map Q to V")
        return self.M.solve_lt(self.Q)

    @property
    def W(self):
        """Right singular vectors (n - j, k), built from the factors; None
        when they are skipped."""
        if self.Wp is None:
            return None
        return _right_vectors(self.W0, self.Wp)


def _right_vectors(W0, Wp):
    """[W0 @ Wp[:k0]; Wp[k0:]] in one new array, the product written into
    its rows (the same bits as a product on its own)."""
    n0, k0 = W0.shape
    W = np.empty((n0 + Wp.shape[0] - k0, Wp.shape[1]))
    np.matmul(W0, Wp[:k0], out=W[:n0])
    W[n0:] = Wp[k0:]
    return W


class UpdateReport(NamedTuple):
    """Per-column diagnostics of one update step."""

    p: float
    e_p: float
    e_sv: float
    rank_grew: bool
    reorthogonalized: bool


def _shaped(c, m):
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (m,):
        raise ValueError(f"column has shape {c.shape}, expected ({m},)")
    return c


def _column(c, m):
    c = _shaped(np.ascontiguousarray(c, dtype=np.float64), m)  # layout-independent bits
    if not np.isfinite(c).all():
        raise InvalidInputError("column contains non-finite entries")
    return c


def _project(Q, c, M):
    """The projection of c in Cholesky coordinates: s = L^T c, d = Q^T s,
    the residual res = s - Q d and its norm p, the M-norm of c - V d."""
    s = M.apply_lt(c)
    d = Q.T @ s
    res = s - Q @ d
    return d, res, float(np.sqrt(res @ res))


class _Block:
    """The projections of up to RUN columns against one Q, as :func:`_project`
    computes them for one, in two Fortran-ordered (m, RUN) buffers that
    every block reuses.

    Column i of the block sits at position i, the others are zero, and
    every product has the same shape, RUN columns wide, so that a
    column's bits depend only on Q, the column and its position: a resumed
    stream, which recomputes the positions from n, projects it to the same
    bits as an uninterrupted one.
    """

    def __init__(self, m):
        self.C = np.zeros((m, RUN), order="F")  # the columns, then Q D
        self.R = np.empty((m, RUN), order="F")  # S = L^T C, then the residuals S - Q D

    def project(self, Q, columns, pos, M):
        """Project ``columns``, float64 of shape (m,), at positions pos,
        pos + 1, ...; the projection of position i is ``self[i]`` until the
        next call. One ``isfinite`` over the block checks them: returns the
        number of leading finite columns, and the ones from the first
        non-finite column on are left zero."""
        C, R = self.C, self.R
        end = pos + len(columns)
        C[:, :pos] = 0.0
        C[:, end:] = 0.0
        for i, c in enumerate(columns, pos):
            C[:, i] = c
        finite = np.isfinite(C[:, pos:end]).all(axis=0)
        count = len(columns) if finite.all() else int(finite.argmin())
        C[:, pos + count : end] = 0.0
        M.apply_lt(C, out=R)
        self.D = Q.T @ R
        R -= np.matmul(Q, self.D, out=C)
        self.p = np.sqrt(np.einsum("ij,ij->j", R, R))
        return count

    def __getitem__(self, i):
        """(d, res, p) of position i, views valid until the next
        :meth:`project`."""
        return self.D[:, i], self.R[:, i], float(self.p[i])


def _rotate(state, Q, B, tols, columns, e_p):
    """The tail that :func:`update` and a flush share, ending in the one
    assignment to ``state``.

    ``B`` is the small matrix of the step, its first k rows those of the
    rank-k state; ``Q`` holds its r = ``Q.shape[1]`` left basis vectors.
    The thin SVD B = V_B diag(s) W_B^T rotates Q <- Q V_B[:r, :r] and the
    right factor Wp <- [Wp W_B[:k, :r]; W_B[k:, :r]] (its rows past k are
    the step's new rows of W). Then the keep rule drops the trailing values
    at or below tol_sv (never the first), the fold rule moves Wp into W0
    when it has more than 2k rows, and the drift probe reorthogonalizes a
    basis of two or more columns whose first and last columns have drifted
    more than tol out of orthogonality (:func:`_orthonormalized`). Only
    then is the state assigned: the run is closed, n grows by ``columns``
    and e_p, then the largest value dropped, go into e.

    Returns ``(e_sv, reorthogonalized)``; e_sv is 0.0 if nothing was dropped.
    """
    k, r = state.k, Q.shape[1]
    W0, Wp = state.W0, state.Wp
    V_B, sigma_B, W_B = small_svd(B)
    Q = Q @ V_B[:r, :r]
    sigma = sigma_B[:r]
    if Wp is not None:
        Wp = np.vstack([Wp @ W_B[:k, :r], W_B[k:, :r]])

    keep = max(1, int(np.count_nonzero(sigma > tols.tol_sv)))
    e_sv = 0.0
    if keep < r:
        # copies, not views: a restored checkpoint holds contiguous arrays,
        # and the next projection must see the same layout to give the same bits
        e_sv = float(sigma[keep])
        Q, sigma = Q[:, :keep].copy(), sigma[:keep]
        if Wp is not None:
            Wp = Wp[:, :keep].copy()
    if Wp is not None and Wp.shape[0] > 2 * Wp.shape[1]:
        W0, Wp = _right_vectors(W0, Wp), np.eye(Wp.shape[1])

    # at rank one Q[:, -1] is Q[:, 0]: there is no pair to compare
    reorthogonalized = Q.shape[1] >= 2 and abs(float(Q[:, -1] @ Q[:, 0])) > tols.tol
    if reorthogonalized:
        Q = _orthonormalized(Q)

    state.Q, state.sigma, state.W0, state.Wp = Q, sigma, W0, Wp
    state.D, state.j = None, 0
    state.n += columns
    _charge(state, e_p, e_sv)
    return e_sv, reorthogonalized


def _orthonormalized(Q):
    """Q's columns orthonormalized by modified Gram-Schmidt in the Euclidean
    inner product, the weight of Cholesky coordinates: the M-orthonormal
    basis of V = L^-T Q in exact arithmetic."""
    return modified_gram_schmidt_weighted(Q, WeightMatrix.from_band(np.ones((1, Q.shape[0]))))


def _charge(state, e_p, e_sv=0.0):
    # step each rounded sum up to the next float: e stays >= the exact sum
    if e_p > 0.0:
        state.e = math.nextafter(state.e + e_p, math.inf)
        state.T_p += 1
    if e_sv > 0.0:
        state.e = math.nextafter(state.e + e_sv, math.inf)
        state.T_sv += 1


def _bordered(sigma, D, border):
    """The small matrix [diag(sigma) D] of a rank-k state and its run D
    (k, j); with ``border``, one zero row and one zero column more."""
    k, j = D.shape
    B = np.zeros((k + border, k + j + border))
    B[:k, :k] = np.diag(sigma)
    B[:k, k : k + j] = D
    return B


def update(state, c, M, tols, projection=None):
    """Fold one new column into the decomposition, all or nothing.

    Follows the bordered-matrix update: with s = L^T c, d = Q^T s = V^T M c
    and p the norm of the residual s - Q d, the M-norm of c - V d, the small
    matrix [diag(sigma) d; 0 p] is decomposed. When p >= tol and the rank is below the ambient
    dimension, the residual direction joins the basis and the rank grows by
    one; otherwise it is discarded and p is added to the error bound.
    Trailing singular values at or below tol_sv are then truncated, adding
    the largest one dropped. Finally a basis of two or more columns is
    reorthogonalized when its first and last columns have drifted more than
    tol out of orthogonality.

    From :meth:`SvdState.empty` (k = 0) the first update is the
    initialization: the small matrix is [p], so Q = s / p, sigma = p and
    W = [1]. A column
    with p < tol, a zero column in particular, is an ordinary non-growing
    update at any rank: it adds p to e and a row to W, and n counts it.

    An open run is closed by the same small SVD: its coefficients D (k, j)
    join the bordered matrix as [diag(sigma) D d; 0 0 p], and W gets a row
    for each of its columns and for c. In exact arithmetic this is
    :func:`flush` followed by the update of c, with one SVD instead of two.

    The right vectors are rotated lazily (Brand, LAA 415, 2006): the small
    rotation and the new row go into ``Wp`` only, at O(k^3) with no n term.
    When ``Wp`` has more than 2k rows it is folded into ``W0`` (``W0 <- W``,
    ``Wp <- I``), an O(n k0 k) product once every k or so columns. Nothing
    here reads W, so V, sigma and e do not depend on whether it is kept.

    ``state`` is assigned, ``state.M = M`` last, only after the last step
    that can raise, so an exception (a bad column, or a
    :class:`RankDeficientError` from the reorthogonalization) leaves it as
    it was.

    ``projection`` is the ``(d, res, p)`` of c against ``state.Q``
    (:func:`_project`) when the caller has already computed it (:func:`run_stream` does, to
    decide between the run and this update); c is then not checked or
    projected again.

    Returns ``(state, UpdateReport)``.
    """
    Q = state.Q
    m, k = Q.shape
    if projection is None:
        c = _column(c, m)
        projection = _project(Q, c, M)
    d, res, p = projection
    B = _bordered(state.sigma, state.run, True)
    B[:k, -1] = d
    # as the paper writes it, p enters B whenever p >= tol, even at full
    # rank where the residual direction is then discarded
    B[k, -1] = 0.0 if p < tols.tol else p

    grow = p >= tols.tol and k < m
    if grow:
        # One extra projection pass before normalizing: the raw residual
        # carries cancellation round-off of size eps*||s||, which p may not
        # dominate. Re-projecting shrinks the in-span contamination to
        # eps*||res|| so the new direction stays orthogonal to Q at
        # machine level regardless of how small p is. Exact arithmetic:
        # a no-op.
        res2 = res - Q @ (Q.T @ res)
        p2 = float(np.sqrt(res2 @ res2))
        u = res2 / p2 if p2 > 0.0 else res / p
        Q = np.hstack([Q, u[:, None]])
    e_p = 0.0 if grow else p
    e_sv, reorthogonalized = _rotate(state, Q, B, tols, 1, e_p)
    state.M = M
    report = UpdateReport(
        p=p,
        e_p=e_p,
        e_sv=e_sv,
        rank_grew=grow,
        reorthogonalized=reorthogonalized,
    )
    return state, report


def flush(state, tols):
    """Close the open run, if any, and return the state.

    The run's columns c_i added V d_i to the approximate matrix and left
    span(V) unchanged, so it is V [diag(sigma) D] diag(W, I)^T. One thin SVD
    [diag(sigma) D] = V_B diag(s) W_B^T gives Q <- Q V_B, sigma <- s and
    W <- [W W_B[:k]; W_B[k:]], the state that one :func:`update` per column
    gives in exact arithmetic, where appending columns lowers no singular
    value (interlacing) and so truncates none. The keep rule still runs and
    adds what it drops to e; so do the fold rule and the drift probe.
    All or nothing, as :func:`update`.
    """
    if state.j:
        _rotate(state, state.Q, _bordered(state.sigma, state.run, False), tols, 0, 0.0)
    return state


def _append(state, d, p, tols, on_column):
    """Add w columns with p < tol at rank k >= 1 to the open run in one
    step: their coefficients ``d`` (k, w) and the list ``p`` of their p.

    One copy puts d into the run. Each p enters e in column order, as
    :func:`_charge` adds it, and n and j count each column; ``on_column``,
    if given, sees the state after each, with its report. The column that
    reaches absolute n = 0 (mod RUN), the last if any, ends the run with a
    flush, whose e_sv goes to its report.
    """
    n, j, w = state.n, state.j, len(p)
    D = state.D if j else np.empty((state.k, RUN))
    D[:, j : j + w] = d  # past the run's j columns until each is counted
    state.D = D
    closes = (n + w) % RUN == 0
    counted = w - closes
    e, T_p = state.e, state.T_p
    for i, p_i in enumerate(p[:counted], 1):
        if p_i > 0.0:  # rounded up, as _charge adds it
            e = math.nextafter(e + p_i, math.inf)
            T_p += 1
        if on_column is not None:
            state.n, state.j, state.e, state.T_p = n + i, j + i, e, T_p
            on_column(state, UpdateReport(p_i, p_i, 0.0, False, False))
    state.n, state.j, state.e, state.T_p = n + counted, j + counted, e, T_p
    if not closes:
        return
    B = _bordered(state.sigma, D[:, : j + w], False)
    e_sv, reorthogonalized = _rotate(state, state.Q, B, tols, 1, p[-1])
    if on_column is not None:
        on_column(state, UpdateReport(p[-1], p[-1], e_sv, False, reorthogonalized))


def _consume(state, c, tols, on_column, projection=None):
    """One column, checked and projected against ``state.Q`` unless its
    ``projection`` is given: appended to the run at rank k >= 1 with
    p < tol, else an :func:`update`. Returns the state."""
    if projection is None:
        c = _column(c, state.M.dim)
        projection = _project(state.Q, c, state.M)
    d, _, p = projection
    if state.k and p < tols.tol:
        _append(state, d[:, None], [p], tols, on_column)
        return state
    state, report = update(state, c, state.M, tols, projection)
    if on_column is not None:
        on_column(state, report)
    return state


def _closed(state):
    if state.j:
        raise ValueError(f"the state has an open run of {state.j} columns; flush it first")
    return state


def low_rank_factors(state):
    """(V diag(sigma), W), whose product V diag(sigma) W^T is the
    approximate data, V built from Q; the run must be closed
    (:func:`flush`)."""
    if _closed(state).Wp is None:
        raise ValueError("right singular vectors were not maintained")
    return state.V * state.sigma, state.W


def reconstruct(state):
    """Dense m x n matrix V diag(sigma) W^T of the approximate data; the
    run must be closed (:func:`flush`). It is built over
    :func:`column_blocks`, as ``oracle.exact_error`` builds the difference
    to the data, so that the two hold the same bits."""
    VS, W = low_rank_factors(state)
    R = np.empty((VS.shape[0], W.shape[0]))
    for cols in column_blocks(W.shape[0]):
        R[:, cols] = VS @ W[cols].T
    return R


def pod_output(state):
    """POD modes (the M-orthonormal columns of V, built from Q) and
    eigenvalues sigma^2; the run must be closed (:func:`flush`)."""
    _closed(state)
    return state.V, state.sigma**2


def run_stream(columns, M, tols, keep_w=True, state=None, on_column=None):
    """Feed an iterable of columns through the decomposition, one at a time.

    The stream starts from :meth:`SvdState.empty`, or from ``state``, a
    restored decomposition of a prefix of this stream: the ``state.n``
    columns it consumed are passed over (a :class:`FormatError` if the
    stream ends first) and the remaining ones update it. Either way the
    state's weight matrix is set to ``M``.

    A column at rank k >= 1 with p < tol joins the open run (see
    :func:`flush`); every other column, p >= tol or at rank 0, goes
    through :func:`update`, which closes the run in its own small SVD.
    Runs also close at absolute n = 0 (mod RUN), so where they close does
    not depend on where a stream was interrupted.

    Columns are projected against Q in blocks of RUN, at absolute
    positions pos = n mod RUN. When pos >= 1 and every earlier column of
    the block joined the run (``state.j == pos``), Q has not changed since
    the block began, and the block's remaining columns, up to RUN - pos,
    are drawn from the stream and projected together (:class:`_Block`).
    The longest span of them from pos on with p < tol joins the run in one
    step (:func:`_append`); :func:`update` gets the block projection of the
    first column with p >= tol, and the block's later columns are
    projected one at a time against the Q it leaves. Every other column
    (at rank 0, at position 0 or after a growth) is projected on its own.
    Whether a column is block-projected depends on n and j alone, and its
    bits on Q, the column and its position, so a resumed stream projects
    every column to the same bits as an uninterrupted one.

    ``on_column(state, report)`` is called after every column, a span's
    included, with the state as it stands after that column and its
    :class:`UpdateReport`; a flush's e_sv goes to the report of the column
    that closes the run. A drawn column's shape is checked as it is drawn,
    and a block's finiteness by one check over the block. A column that
    is not finite or has the wrong shape, or an error of the stream
    itself, is raised when its turn comes: the columns before it, drawn
    with it in one block, are consumed and reported first. A stream that
    ends at rank 0 (no columns, or only columns with p < tol) raises
    :class:`InvalidInputError`.

    Returns the final state with its run still open: :func:`flush` closes
    it, and :func:`reconstruct` and :func:`pod_output` refuse it until then.
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
    state.M = M
    m, block = M.dim, None
    for c in columns:
        pos = state.n % RUN
        if not (pos and state.j == pos):
            state = _consume(state, c, tols, on_column)
            continue
        drawn, error = [], None
        try:
            for c in chain([c], islice(columns, RUN - pos - 1)):
                drawn.append(_shaped(c, m))
        except Exception as exc:  # raised in its turn, after the columns before it
            error = exc
        block = block or _Block(m)
        finite = block.project(state.Q, drawn, pos, M)
        if finite < len(drawn):
            error = InvalidInputError("column contains non-finite entries")
        end = pos + finite
        below = block.p[pos:end] < tols.tol
        stop = end if below.all() else pos + int(below.argmin())
        if stop > pos:
            _append(state, block.D[:, pos:stop], block.p[pos:stop].tolist(), tols, on_column)
        if stop < end:
            state = _consume(state, drawn[stop - pos], tols, on_column, block[stop])
        for c in drawn[stop - pos + 1 : finite]:
            state = _consume(state, c, tols, on_column)
        if error is not None:
            raise error
    if state.k == 0:
        raise InvalidInputError("stream contained no usable columns")
    return state
