"""1D FitzHugh-Nagumo snapshot generator on a piecewise-linear FEM grid.

The two-field system on (0, 1)

    v_t = mu v_xx - w/mu + f(v)/mu + c/mu,   f(v) = v (v - 0.1)(1 - v)
    w_t = b v - gamma w + c

with Neumann data v_x(t, 0) = -A t^3 exp(-15 t), v_x(t, 1) = 0 and zero
initial conditions is discretized with continuous piecewise linear
elements on equally spaced nodes. The nonlinearity is handled with
interpolated coefficients: f is evaluated nodewise and multiplied by the
mass matrix, so no quadrature of the cubic is needed. Snapshots are the
stacked coefficient vectors [v; w] at the accepted times of an adaptive
implicit integrator, scaled by sqrt of the local time step (rectangle-rule
quadrature weights in time).

Inside the integrator the unknowns are interleaved, [v_1, w_1, v_2, w_2,
...]: every operator then couples node i only to nodes i-1..i+1, so the
iteration matrix is banded with three sub- and three superdiagonals and is
factored with LAPACK's band LU, which ``_lapack`` calls from numpy's own
OpenBLAS. The operators are assembled as bands on numpy alone, so the
module loads no scipy. Snapshots are returned in the stacked order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import BandLU
from .errors import IntegrationFailureError, InvalidInputError
from .weighted_linalg import WeightMatrix

__all__ = [
    "FhnParams",
    "Mesh1D",
    "SnapshotSet",
    "assemble_fem",
    "build_weight_matrix",
    "neumann_forcing",
    "simulate",
]

# TR-BDF2: one-step, L-stable, second order, with an embedded third-order
# error weight vector. Both implicit stages share the iteration matrix
# M - (g/2) h J.
_GAMMA = 2.0 - math.sqrt(2.0)
_D = _GAMMA / 2.0  # shared implicit coefficient; also the b3 weight
_B1 = math.sqrt(2.0) / 4.0  # = b2
_EHAT = ((1.0 - math.sqrt(2.0)) / 3.0, 1.0 / 3.0, (math.sqrt(2.0) - 2.0) / 3.0)

# step control: first step, smallest step before giving up, and the Newton
# iteration cap and tolerance (on the error-weighted rms of the update)
_H0 = 1e-4
_H_MIN = 1e-13
_NEWTON_MAXITER = 8
_NEWTON_TOL = 0.03

# sub- and superdiagonals of every operator in the interleaved order
_BW = 3


@dataclass(frozen=True)
class FhnParams:
    """Physical constants; ``bc_amplitude`` scales the boundary flux pulse."""

    mu: float = 0.015
    b: float = 0.5
    gamma: float = 2.0
    c_const: float = 0.05
    bc_amplitude: float = 50000.0

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("diffusion coefficient mu must be positive")


@dataclass(frozen=True)
class Mesh1D:
    """Equally spaced nodes on [0, 1]."""

    nodes: int

    def __post_init__(self):
        if self.nodes < 2:
            raise InvalidInputError("mesh needs at least 2 nodes")

    @property
    def h(self):
        return 1.0 / (self.nodes - 1)

    @property
    def x(self):
        return np.linspace(0.0, 1.0, self.nodes)


@dataclass
class SnapshotSet:
    """Accepted-time snapshot columns, scaled by their sqrt(dt) weights."""

    times: np.ndarray
    columns: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def count(self):
        return self.times.size

    @property
    def m(self):
        return self.columns.shape[0]

    def raw_columns(self):
        """Unscale: divide each column by its stored weight."""
        return self.columns / self.weights


def assemble_fem(mesh):
    """P1 mass and stiffness matrices on the unit interval, each as its rows:
    a (3, n) array with ``rows[k, i] = S[i, i + k - 1]``, zero past either
    end.

    Mass: interior diagonal 2h/3, off-diagonal h/6, boundary diagonal h/3.
    Stiffness (Neumann): interior diagonal 2/h, off-diagonal -1/h,
    boundary diagonal 1/h.
    """
    n, h = mesh.nodes, mesh.h
    mass, stiffness = np.full((3, n), h / 6.0), np.full((3, n), -1.0 / h)
    mass[1], stiffness[1] = 2.0 * h / 3.0, 2.0 / h
    mass[1, [0, -1]], stiffness[1, [0, -1]] = h / 3.0, 1.0 / h
    mass[0, 0] = mass[2, -1] = stiffness[0, 0] = stiffness[2, -1] = 0.0
    return mass, stiffness


def build_weight_matrix(mesh):
    """Weight matrix for the stacked [v; w] coefficient vector: the
    product-L2 inner product, i.e. block diagonal (mass, mass). The lower
    band of the mass matrix is its diagonal and superdiagonal rows."""
    mass, _ = assemble_fem(mesh)
    return WeightMatrix.from_band(np.tile(mass[1:], 2))


def neumann_forcing(t, params):
    """Weak-form boundary term added to the first v equation.

    Integration by parts of mu v_xx against the first basis function
    leaves -mu v_x(t,0) phi_1(0) = mu A t^3 exp(-15 t).
    """
    return params.mu * params.bc_amplitude * t**3 * np.exp(-15.0 * t)


def _f_cubic(v):
    return v * (v - 0.1) * (1.0 - v)


def _f_cubic_prime(v):
    return -3.0 * v**2 + 2.2 * v - 0.1


def _interleave(y):
    """Stacked [v; w] -> interleaved [v_1, w_1, v_2, w_2, ...]."""
    out = np.empty_like(y)
    out[0::2], out[1::2] = np.split(y, 2)
    return out


def _stack(y):
    """Interleaved [v_1, w_1, v_2, w_2, ...] -> stacked [v; w]."""
    return np.concatenate([y[0::2], y[1::2]])


class _RowSums:
    """A sparse operator by the terms of its rows: row r of ``op @ x`` sums
    ``coef[k, r] * x[r + offsets[k, r]]`` from +0.0 in the order of k, as
    scipy's CSR product sums a row's stored entries. A term past either end
    of x has coefficient zero and reads the zero padding of a buffer that
    every product reuses."""

    def __init__(self, offsets, coef):
        self._coef, self._index = coef, np.arange(coef.shape[1]) + offsets + _BW
        self._padded = np.zeros(coef.shape[1] + 2 * _BW)

    def __matmul__(self, x):
        self._padded[_BW:-_BW] = x
        terms = self._padded.take(self._index, mode="clip")  # all in range; skips the check
        terms *= self._coef
        return np.add.reduce(terms, axis=0, initial=0.0)

    def band(self):
        """LAPACK band storage: entry (r, c) at row _BW + r - c of column c."""
        m = self._coef.shape[1]
        col = self._index - _BW
        inside = (0 <= col) & (col < m)
        ab = np.zeros((2 * _BW + 1, m), order="F")
        ab[(_BW + np.arange(m) - col)[inside], col[inside]] = self._coef[inside]
        return ab


class _FhnSystem:
    """Semidiscrete system M_sys y' = A y + M_sys g(y) + b(t) in the
    interleaved unknowns y = [v_1, w_1, v_2, w_2, ...].

    In the stacked order A = [[-mu K, -M/mu], [b M, -gamma M]] and
    M_sys = diag(M, M). Both are assembled once in the interleaved order, as
    row terms for products and in band storage for the iteration matrix. Row
    2i + f of A sums v, then w, at nodes i - 1, i, i + 1, as the permuted CSR
    of the stacked blocks stored it, so every snapshot stays bit for bit. The
    cubic enters through the nodal g(y), f(v)/mu on the v entries and 0 on
    the w entries. So only the column scaling M_sys diag(g'(y)) of the
    Jacobian changes with the state, and M_sys g(y) is M f(v)/mu on the v
    entries and 0 on the w entries.
    """

    def __init__(self, params, mesh):
        p = self.params = params
        n = mesh.nodes
        mass, stiff = assemble_fem(mesh)
        blocks = ([-p.mu * stiff, -(1.0 / p.mu) * mass], [p.b * mass, -p.gamma * mass])
        coef = np.empty((6, 2 * n))
        offsets = np.empty((6, 2), dtype=np.intp)
        for f, block_row in enumerate(blocks):
            coef[:, f::2] = np.concatenate(block_row)
            offsets[:, f] = [2 * s + g - f for g in (0, 1) for s in (-1, 0, 1)]
        self.A = _RowSums(np.tile(offsets, n), coef)
        self.msys = _RowSums(np.array([[-2], [0], [2]]), np.repeat(mass, 2, axis=1))
        self.mass = _RowSums(np.array([[-1], [0], [1]]), mass)
        self.msys_band, self.A_band = self.msys.band(), self.A.band()
        mass_one = self.mass @ np.ones(n)
        self._b_const = _interleave(
            np.concatenate([(p.c_const / p.mu) * mass_one, p.c_const * mass_one])
        )

    def rhs(self, t, y):
        F = self.A @ y + self._b_const
        F[0::2] += (self.mass @ _f_cubic(y[0::2])) / self.params.mu
        F[0] += neumann_forcing(t, self.params)
        return F

    def jacobian(self, y):
        """A + M_sys diag(g'(y)) in band storage: column j of M_sys scaled by
        g'_j, which is f'(v)/mu on the v entries and 0 on the w entries."""
        g_prime = np.zeros_like(y)
        g_prime[0::2] = _f_cubic_prime(y[0::2]) / self.params.mu
        return self.A_band + self.msys_band * g_prime

    def iteration_matrix(self, y, dh):
        """M_sys - dh J(y) in band storage."""
        return self.msys_band - dh * self.jacobian(y)


def _scaled_rms(vec, scale):
    r = vec / scale
    return math.sqrt(r @ r / r.size)


def simulate(params, mesh, t_final, rtol=1e-6, atol=1e-8, max_steps=1_000_000):
    """Integrate the semidiscrete system from zero initial data to t_final.

    Uses TR-BDF2 with Newton inner solves on the banded iteration matrix,
    factored once per step, and a filtered embedded error estimate solved
    with the same factor; the step sequence is fully deterministic for
    fixed inputs. Returns a :class:`SnapshotSet` with one column per
    accepted step (the zero initial state is excluded), in the stacked
    order [v; w] and scaled by sqrt(dt). ``rtol`` and ``atol`` weight the local error estimate;
    ``max_steps`` caps the attempted steps.

    Raises :class:`IntegrationFailureError` with the last reached time if
    the step size underflows, the step budget runs out or the iteration
    matrix is singular.
    """
    if not t_final > 0.0:
        raise InvalidInputError("t_final must be positive")
    sys_ = _FhnSystem(params, mesh)
    lu = BandLU(2 * mesh.nodes, _BW, _BW)

    t = 0.0
    y = np.zeros(2 * mesh.nodes)
    f_now = sys_.rhs(t, y)
    h = min(_H0, t_final)

    times, columns, weights = [], [], []
    steps = 0
    while t < t_final:
        if steps >= max_steps:
            raise IntegrationFailureError(
                f"step budget {max_steps} exhausted at t={t:.6g}", t_reached=t
            )
        if h < _H_MIN:
            raise IntegrationFailureError(f"step size underflow at t={t:.6g}", t_reached=t)
        h = min(h, t_final - t)
        steps += 1

        if lu.factor(sys_.iteration_matrix(y, _D * h)):
            raise IntegrationFailureError(f"singular iteration matrix at t={t:.6g}", t_reached=t)
        wt = atol + rtol * np.abs(y)

        def stage(y_guess, t_stage, rhs_fixed):
            """Solve M(Y - y) = rhs_fixed + d*h*F(t_stage, Y) by Newton."""
            Y = y_guess.copy()
            for _ in range(_NEWTON_MAXITER):
                G = sys_.msys @ (Y - y) - rhs_fixed - (_D * h) * sys_.rhs(t_stage, Y)
                delta = lu.solve(-G)
                Y += delta
                if _scaled_rms(delta, wt) <= _NEWTON_TOL:
                    return Y
            return None

        y2 = stage(y, t + _GAMMA * h, (_D * h) * f_now)
        f2 = None if y2 is None else sys_.rhs(t + _GAMMA * h, y2)
        y3 = None if y2 is None else stage(y2, t + h, h * (_B1 * f_now + _B1 * f2))
        if y3 is None:
            h *= 0.25
            continue
        f3 = sys_.rhs(t + h, y3)

        est_rhs = h * (_EHAT[0] * f_now + _EHAT[1] * f2 + _EHAT[2] * f3)
        est = lu.solve(est_rhs)
        err = _scaled_rms(est, atol + rtol * np.maximum(np.abs(y), np.abs(y3)))

        if err <= 1.0:
            t_prev = t
            t = t + h
            y = y3
            f_now = f3
            times.append(t)
            weights.append(np.sqrt(t - t_prev))  # dt from recorded times
            columns.append(_stack(y) * weights[-1])
            h = h * min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0) if err > 0 else 5.0))
        else:
            h = h * max(0.1, min(0.5, 0.9 * err ** (-1.0 / 3.0)))

    return SnapshotSet(
        times=np.asarray(times), columns=np.column_stack(columns), weights=np.asarray(weights)
    )
