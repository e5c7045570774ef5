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
