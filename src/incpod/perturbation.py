"""Singular value/vector perturbation bounds driven by an operator-norm gap.

Given reference singular values sigma_1 > ... > sigma_{k+1} > 0 and a
perturbation size eps, the recursion

    eps_j = j*eps + 2 * sum_{i<j} (eps_i + sigma_i * sqrt(E_i))
    E_j   = 2 * (1 - sqrt(((sigma_j - 2 eps_j)^2 - sigma_{j+1}^2)
                          / (sigma_j^2 - sigma_{j+1}^2)))

bounds the vector errors ||v_j - v~_j||_M <= sqrt(E_j) and
||w_j - w~_j|| <= sqrt(E_j) + 2 eps_j / sigma_j, valid whenever the gap
condition eps_j <= (sigma_j - sigma_{j+1}) / 2 holds. Once the gap
condition fails at some j, every later quantity consumes an invalid E and
the whole tail is marked invalid rather than silently computed.

The decompositions compared carry Q = L^T V (M = L L^T), in which the
M-inner product is the Euclidean one: (v~, v)_M = q~ . q and
||v - v~||_M = ||q - q~||, so the measured errors need no product with M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousAlignmentError, PreconditionViolationError

__all__ = [
    "BoundSequence",
    "VectorBoundRow",
    "singular_value_gap_check",
    "bound_sequence",
    "align_singular_pair",
    "vector_bound_check",
]


@dataclass(frozen=True)
class BoundSequence:
    """The recursion output. Entries after the first gap failure are NaN
    with ``gap_ok`` False."""

    eps_seq: np.ndarray
    E_seq: np.ndarray
    gap_ok: np.ndarray


def singular_value_gap_check(sigmas_exact, sigmas_approx, eps):
    """True iff |sigma_l - sigma~_l| <= eps for every l, sequences padded
    with zeros to a common length. Non-strict, absorbing round-off."""
    a = np.asarray(sigmas_exact, dtype=np.float64)
    b = np.asarray(sigmas_approx, dtype=np.float64)
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    if n == 0:
        return True
    return bool(np.max(np.abs(a - b)) <= eps)


def bound_sequence(sigmas, eps, k):
    """Evaluate the eps_j / E_j recursion for j = 1..k.

    ``sigmas`` must supply at least k+1 strictly decreasing positive
    values; ``eps`` must be positive. Violations raise
    :class:`PreconditionViolationError`.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if k < 1:
        raise PreconditionViolationError("k must be at least 1")
    if sigmas.size < k + 1:
        raise PreconditionViolationError(
            f"need {k + 1} singular values, got {sigmas.size}"
        )
    sigmas = sigmas[: k + 1]
    if not np.all(sigmas > 0.0):
        raise PreconditionViolationError("singular values must be positive")
    if not np.all(np.diff(sigmas) < 0.0):
        raise PreconditionViolationError("singular values must be distinct (strictly decreasing)")
    if not eps > 0.0:
        raise PreconditionViolationError("eps must be positive")

    eps_seq = np.full(k, np.nan)
    E_seq = np.full(k, np.nan)
    gap_ok = np.zeros(k, dtype=bool)
    tail_sum = 0.0  # running sum of (eps_i + sigma_i * sqrt(E_i))
    valid = True
    for j in range(1, k + 1):
        if not valid:
            break
        eps_j = j * eps + 2.0 * tail_sum
        eps_seq[j - 1] = eps_j
        sig_j, sig_next = sigmas[j - 1], sigmas[j]
        if eps_j <= (sig_j - sig_next) / 2.0:
            gap_ok[j - 1] = True
            # E_j = 2(1 - sqrt(ratio)) with
            # ratio = ((sig_j - 2 eps_j)^2 - sig_{j+1}^2)/(sig_j^2 - sig_{j+1}^2),
            # evaluated through 1 - ratio = 4 eps_j (sig_j - eps_j)/(...) to
            # avoid the cancellation in 1 - sqrt(1 - small).
            u = 4.0 * eps_j * (sig_j - eps_j) / (sig_j**2 - sig_next**2)
            E_j = 2.0 * u / (1.0 + np.sqrt(max(1.0 - u, 0.0)))
            E_seq[j - 1] = E_j
            tail_sum += eps_j + sig_j * np.sqrt(E_j)
        else:
            valid = False  # E_j undefined; the tail feeds on it
    return BoundSequence(eps_seq=eps_seq, E_seq=E_seq, gap_ok=gap_ok)


def align_singular_pair(q_exact, w_exact, q_approx, w_approx):
    """Rescale the approximate pair by one sign so q~ . q = (v~, v)_M >= 0,
    for left vectors given as columns of Q = L^T V.

    Both vectors must be rescaled by the same constant: flipping only one
    of them would break the singular-pair relation. An exactly zero
    projection coefficient is reported as :class:`AmbiguousAlignmentError`
    rather than guessed.
    """
    q_approx = np.asarray(q_approx, dtype=np.float64)
    r = float(q_approx @ np.asarray(q_exact, dtype=np.float64))
    if r == 0.0:
        raise AmbiguousAlignmentError(
            "approximate vector is exactly M-orthogonal to the reference"
        )
    s = 1.0 if r > 0.0 else -1.0
    return s * q_approx, s * np.asarray(w_approx, dtype=np.float64)


@dataclass(frozen=True)
class VectorBoundRow:
    """One j of the vector-bound report. ``v_ok``/``w_ok`` are None when
    the gap condition made the bound inapplicable."""

    j: int
    sigma_j: float
    eps_j: float
    E_j: float
    gap_ok: bool
    v_err: float
    v_bound: float
    w_err: float
    w_bound: float
    v_ok: bool | None
    w_ok: bool | None

    def csv_values(self):
        return (
            self.j,
            self.sigma_j,
            self.eps_j,
            self.E_j,
            self.gap_ok,
            self.v_err,
            self.v_bound,
            self.w_err,
            self.w_bound,
        )


def vector_bound_check(exact, approx, eps, k):
    """Check the per-vector perturbation bounds for j = 1..k.

    ``exact`` and ``approx`` carry (Q, sigma, W) triples, Q = L^T V in one
    weight: an :class:`~incpod.oracle.ExactSvd` or a streamed state. Pairs
    are sign aligned before differencing, and v_err = ||q_j - q~_j||, the
    M-norm of v_j - v~_j. Rows where the gap condition fails are marked
    not-applicable and no assertion is made about them. A bound holds when
    the measured error exceeds it by at most 1e-10.
    """
    if min(exact.sigma.size, approx.sigma.size) < 1:
        raise PreconditionViolationError("decompositions must be nonempty")
    if approx.sigma.size < k:
        raise PreconditionViolationError(
            f"approximate decomposition has rank {approx.sigma.size}, need {k}"
        )
    seq = bound_sequence(exact.sigma, eps, k)
    W_exact, W_approx = exact.W, approx.W  # a streamed state builds W on access
    rows = []
    for j in range(1, k + 1):
        applicable = bool(seq.gap_ok[j - 1])
        sigma_j = float(exact.sigma[j - 1])
        eps_j = float(seq.eps_seq[j - 1])
        E_j = float(seq.E_seq[j - 1])
        if applicable:
            q_a, w_a = align_singular_pair(
                exact.Q[:, j - 1], W_exact[:, j - 1], approx.Q[:, j - 1], W_approx[:, j - 1]
            )
            v_err = float(np.linalg.norm(exact.Q[:, j - 1] - q_a))
            w_err = float(np.linalg.norm(W_exact[:, j - 1] - w_a))
            v_bound = float(np.sqrt(E_j))
            w_bound = float(np.sqrt(E_j) + 2.0 * eps_j / sigma_j)
            v_ok = v_err <= v_bound + 1e-10
            w_ok = w_err <= w_bound + 1e-10
        else:
            v_err = w_err = v_bound = w_bound = np.nan
            v_ok = w_ok = None
        rows.append(
            VectorBoundRow(
                j=j,
                sigma_j=sigma_j,
                eps_j=eps_j,
                E_j=E_j,
                gap_ok=applicable,
                v_err=v_err,
                v_bound=v_bound,
                w_err=w_err,
                w_bound=w_bound,
                v_ok=v_ok,
                w_ok=w_ok,
            )
        )
    return rows
