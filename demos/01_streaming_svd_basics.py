"""Streaming SVD in a weighted inner product, checked against the oracle.

Feeds random columns one at a time through the incremental update and
compares the result with an exact batch decomposition of the assembled
matrix: singular values, reconstruction, and the running error bound.
"""

import numpy as np

from incpod import (
    SvdState,
    Tolerances,
    WeightMatrix,
    exact_error,
    exact_weighted_svd,
    update,
)

rng = np.random.default_rng(42)

# A weighted inner product: any symmetric positive definite matrix works.
# Here, a random well-conditioned one.
m, n = 40, 25
Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
X = (Q * np.geomspace(1.0, 8.0, m)) @ Q.T
M = WeightMatrix((X + X.T) / 2.0)

U = rng.standard_normal((m, n))

# Stream the columns, starting from the empty (rank-0) decomposition: the
# first update is the initialization. With tolerances far below round-off
# nothing is ever truncated, so the update is exact and the error bound
# stays at zero.
tols = Tolerances(tol=1e-300, tol_sv=1e-300)
state = SvdState.empty(m)
for j in range(n):
    state, report = update(state, U[:, j], M, tols)

exact = exact_weighted_svd(U, M)
print("exact rank:", exact.k, " streamed rank:", state.k)
print("max singular value deviation:",
      np.max(np.abs(state.sigma - exact.sigma)))
# the state carries the weight it was streamed in, so the exact error
# (a weighted operator norm) needs no M
print("reconstruction error (weighted operator norm):", exact_error(U, state))
print("running error bound e:", state.e)

# Now give the data a decaying spectrum (the typical POD situation) and
# stream with practical tolerances. Both truncations engage, the rank
# stays low, and the accumulated bound e dominates the true error.
decayed = (exact.V * np.geomspace(5.0, 1e-10, exact.k)) @ exact.W.T
tols = Tolerances(tol=1e-6, tol_sv=1e-6)
state = SvdState.empty(m)
for j in range(n):
    state, report = update(state, decayed[:, j], M, tols)

err = exact_error(decayed, state)
print("\ndecaying spectrum, truncation at 1e-6:")
print(f"  rank {state.k} (down from {n}), T_p={state.T_p}, T_sv={state.T_sv}")
print(f"  exact error  {err:.3e}")
print(f"  error bound  {state.e:.3e}  (dominates: {err <= state.e})")
print(f"  corollary cap T_p*tol + T_sv*tol_sv = {state.T_p * 1e-6 + state.T_sv * 1e-6:.3e}")
