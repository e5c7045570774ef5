"""Monte Carlo and dynamic-programming references that only the tests read."""

import math

import numpy as np

from lqgames import certify
from lqgames.model import StructuredGain
from lqgames.sim import batch_rollout
from lqgames.zo import gain_dims, sample_unit_sphere


def monte_carlo_objective(game, K, L, count, rng, chunk=200_000):
    """Sample mean and standard error of the single-trajectory cost."""
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < count:
        c = min(chunk, count - done)
        costs, _ = batch_rollout(game, K, L, c, rng)
        total += math.fsum(costs)
        total_sq += math.fsum(costs * costs)
        done += c
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, math.sqrt(var / count)


def smoothed_objective_fd(game, K, L, side, r, count, rng):
    """High-accuracy Monte Carlo reference for the smoothed-objective gradient.

    Averages exact model objectives (not rollouts) of sphere-perturbed gains,
    so its only error is the directional sampling noise.  Used to validate
    the rollout-based estimator's unbiasedness.
    """
    p, m, dim = gain_dims(game, side)
    U = sample_unit_sphere(game, side, count, rng)
    acc = np.zeros((game.horizon, p, m))
    for i in range(count):
        pert = StructuredGain(side, r * U[..., i])
        if side == "K":
            val = certify.objective(game, K + pert, L)
        else:
            val = certify.objective(game, K, L + pert)
        acc += val * U[..., i]
    return StructuredGain(side, (dim / r) * acc / count)


def smoothed_gradient(game, K, L, side, r):
    """Gradient of the r-smoothed objective, (dim / r) E_u[G(gain + r u) u], by exact quadrature.

    For a gain side of total dimension 3, so u is uniform on S^2.  Its height
    z is then uniform on [-1, 1], so 4 Gauss-Legendre nodes in z times 16
    equispaced azimuths give the mean of every polynomial in u of degree <= 7
    exactly: the result is exact whenever G is a polynomial of degree <= 6 in
    the gain, as on a scalar game with deterministic noise and horizon 3.
    """
    p, m, dim = gain_dims(game, side)
    if dim != 3:
        raise ValueError(f"the quadrature covers a gain of dimension 3, got {dim}")
    z, wz = np.polynomial.legendre.leggauss(4)
    phi = 2.0 * np.pi * np.arange(16) / 16
    rho = np.sqrt(1.0 - z * z)[:, None]
    nodes = np.stack([rho * np.cos(phi), rho * np.sin(phi), np.repeat(z[:, None], 16, axis=1)],
                     axis=-1).reshape(-1, 3)
    weights = np.repeat(wz / 2.0, 16) / 16
    acc = np.zeros(dim)
    for u, w in zip(nodes, weights):
        pert = StructuredGain(side, (r * u).reshape(game.horizon, p, m))
        val = (certify.objective(game, K + pert, L) if side == "K"
               else certify.objective(game, K, L + pert))
        acc += w * val * u
    return StructuredGain(side, ((dim / r) * acc).reshape(game.horizon, p, m))


def zo_gradient_samples(game, K, L, side, r, count, rng):
    """The terms (dim / r) cost_c U_c that ``zo_gradient`` averages, shape (dim, count).

    Draws exactly what ``zo_gradient`` draws from ``rng``, so the mean over
    samples matches it on a generator in the same state.
    """
    _, _, dim = gain_dims(game, side)
    U = sample_unit_sphere(game, side, count, rng)
    perturb = {"K_perturb": r * U} if side == "K" else {"L_perturb": r * U}
    costs, _ = batch_rollout(game, K, L, count, rng, **perturb)
    return (dim / r) * costs * U.reshape(dim, count)


def first_index(predicate, limit=1000):
    """The first i in range(limit) with ``predicate(i)``, or None.

    A test that needs a random event, such as a stream whose first gate
    attempt fails and second passes, searches stream indices for one instead
    of pinning an index that holds for one bit generator only.
    """
    return next((i for i in range(limit) if predicate(i)), None)


def primal_value(game, K):
    """G(K, L(K)): the objective after exact inner maximization."""
    return certify.expected_cost(game, certify.feasible_best_response(game, K).P_blocks)


def lqr_cost_oracle(game):
    """Classical finite-horizon LQR cost by dynamic programming (D ignored).

    Separate code path used to cross-check solve_nash when the disturbance
    channel vanishes.
    """
    g = game
    N = g.horizon
    Ps = [g.Q[N]]
    for h in range(N - 1, -1, -1):
        BtP = g.B[h].T @ Ps[0]
        K = np.linalg.solve(g.Ru[h] + BtP @ g.B[h], BtP @ g.A[h])
        P = g.Q[h] + g.A[h].T @ Ps[0] @ (g.A[h] - g.B[h] @ K)
        Ps.insert(0, 0.5 * (P + P.T))
    return sum(float(np.trace(P_h @ cov)) for P_h, cov in zip(Ps, g.noise.covariance_blocks))
