import numpy as np
import pytest

from incpod.weighted_linalg import WeightMatrix, modified_gram_schmidt_weighted


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spd(rng, m, cond=10.0):
    """Well-conditioned SPD matrix with exact symmetry."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    vals = np.geomspace(1.0, cond, m)
    M = (Q * vals) @ Q.T
    return (M + M.T) / 2.0


def random_weight(rng, m, cond=10.0):
    return WeightMatrix(random_spd(rng, m, cond))


def m_unit_vector(rng, M):
    """Random vector with M-norm one: with M = L L^T, the M-norm of v is
    the 2-norm of L^T v."""
    v = rng.standard_normal(M.dim)
    return v / np.linalg.norm(M.apply_lt(v))


def m_orthonormal_columns(rng, M, k):
    """Random M-orthonormal (m, k) matrix."""
    return modified_gram_schmidt_weighted(rng.standard_normal((M.dim, k)), M)


def engineered_pair(rng, M, n, sigmas):
    """Matrix with prescribed weighted singular values, plus its factors."""
    m = M.dim
    k = len(sigmas)
    V = m_orthonormal_columns(rng, M, k)
    W, _ = np.linalg.qr(rng.standard_normal((n, k)))
    U = (V * np.asarray(sigmas)) @ W.T
    return U, V, np.asarray(sigmas, dtype=float), W


def rank_one_perturbation(rng, M, n, eps):
    """Perturbation with weighted operator norm exactly eps."""
    u = m_unit_vector(rng, M)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return eps * np.outer(u, v)
