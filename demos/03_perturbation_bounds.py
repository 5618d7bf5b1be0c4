"""Singular value and vector perturbation bounds in action.

Builds a matrix with a prescribed weighted spectrum, adds a rank-one
perturbation of known operator norm, and checks the a-priori bounds: the
singular values move by at most eps, and where the gap condition holds the
singular vectors move by at most sqrt(E_j) (left) and
sqrt(E_j) + 2 eps_j / sigma_j (right).
"""

import numpy as np

from incpod import WeightMatrix, exact_weighted_svd
from incpod.perturbation import (
    bound_sequence,
    singular_value_gap_check,
    vector_bound_check,
)
from incpod.weighted_linalg import modified_gram_schmidt_weighted

rng = np.random.default_rng(7)
m, n = 30, 20

A = rng.standard_normal((m, m))
M = WeightMatrix(((A @ A.T) + (A @ A.T).T) / 2.0 + m * np.eye(m))

# engineered spectrum with healthy gaps so the recursion stays applicable
sigmas = np.array([16.0, 8.0, 4.0, 2.0, 1.0])
V = modified_gram_schmidt_weighted(rng.standard_normal((m, sigmas.size)), M)
W, _ = np.linalg.qr(rng.standard_normal((n, sigmas.size)))
U = (V * sigmas) @ W.T

# rank-one perturbation with weighted operator norm exactly eps
eps = 1e-9
# with M = L L^T, the M-norm of u is the 2-norm of L^T u
u = rng.standard_normal(m)
u /= np.linalg.norm(M.apply_lt(u))
z = rng.standard_normal(n)
z /= np.linalg.norm(z)
U_pert = U + eps * np.outer(u, z)

exact = exact_weighted_svd(U, M)
pert = exact_weighted_svd(U_pert, M)

print("singular values within eps of each other:",
      singular_value_gap_check(exact.sigma, pert.sigma, eps * (1 + 1e-12)))

seq = bound_sequence(exact.sigma, eps, k=3)
print("\nrecursion (eps_j grows fast; only small j stay applicable):")
for j in range(3):
    print(f"  j={j + 1}: eps_j={seq.eps_seq[j]:.3e}  E_j={seq.E_seq[j]:.3e}  "
          f"gap ok: {seq.gap_ok[j]}")

# both decompositions carry Q = L^T V, in which |v_j - v~_j|_M = |q_j - q~_j|
print("\nvector bounds:")
rows = vector_bound_check(exact, pert, eps=eps, k=3)
for r in rows:
    if r.gap_ok:
        print(f"  j={r.j}: |v_j - v~_j|_M = {r.v_err:.3e} <= {r.v_bound:.3e}  "
              f"|w_j - w~_j| = {r.w_err:.3e} <= {r.w_bound:.3e}")
    else:
        print(f"  j={r.j}: gap condition failed, bound not applicable")
