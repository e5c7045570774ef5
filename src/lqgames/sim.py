"""Seeded stochastic trajectory engine for the model-free setting.

Rollouts follow x_{h+1} = (A_h - B_h K_h - D_h L_h) x_h + xi_h.  All batch
operations draw from counter-based Philox streams addressed by explicit
indices, so results are bit-reproducible for a fixed seed regardless of how
work is scheduled: a stream's normals may be drawn ahead on another thread
(``PrefetchedNormals``) without changing any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LqGame, StructuredGain


@dataclass(frozen=True)
class RngStream:
    """A named, counter-based random stream.

    Identical (seed, indices) always produce bit-identical draws; distinct
    index tuples give statistically independent streams.
    """

    seed: int
    indices: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.indices)
        return np.random.Generator(np.random.Philox(seq))

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.indices + tuple(indices))


class PrefetchedNormals:
    """A generator whose next standard normals were drawn ahead into a buffer.

    ``buffer`` must hold ``rng.standard_normal(out=buffer)``, so ``rng``
    stands right after it.  Normals are handed out from the buffer in order,
    then from ``rng``: any chunking gives the draws of the plain generator.
    Any other draw must come after the buffer is used up.
    """

    def __init__(self, rng: np.random.Generator, buffer: np.ndarray):
        self._rng = rng
        self._buffer = buffer.reshape(-1)
        self._pos = 0

    def standard_normal(self, size) -> np.ndarray:
        n = math.prod(size) if isinstance(size, tuple) else int(size)
        head = self._buffer[self._pos:self._pos + n]  # a view: never handed out twice
        self._pos += head.size
        if head.size < n:
            head = np.concatenate((head, self._rng.standard_normal(n - head.size)))
        return head.reshape(size)

    def uniform(self, low, high, size) -> np.ndarray:
        if self._pos < self._buffer.size:
            raise RuntimeError("uniform draw requested before the prefetched normals were used")
        return self._rng.uniform(low, high, size)


def batch_rollout(game: LqGame, K: StructuredGain, L: StructuredGain, count: int,
                  rng: np.random.Generator, *,
                  K_perturb: np.ndarray | None = None,
                  L_perturb: np.ndarray | None = None,
                  return_states: bool = False):
    """Simulate ``count`` independent trajectories in one vectorized pass.

    ``K_perturb`` / ``L_perturb`` optionally add a per-sample gain offset of
    shape (count, N, p, m); this is how zeroth-order perturbations enter.
    Returns (costs, states) with states of shape (count, N+1, m) or None.

    Each stage forms the closed loop A - B K - D L and the combined cost
    Q + K' Ru K - L' Rw L once; a perturbation du = dK x adds
    du' ((Ru + Ru') K x + Ru du) to the cost and -B du to the next state
    (dw = dL x likewise, with -Rw and D).
    """
    N, m = game.horizon, game.m
    xi = game.noise.sample(count, rng)  # (count, N+1, m)
    x = xi[:, 0, :]
    costs = np.zeros(count)
    states = np.empty((count, N + 1, m)) if return_states else None
    for h in range(N):
        if states is not None:
            states[:, h, :] = x
        Kh, Lh = K.blocks[h], L.blocks[h]
        Ru, Rw = game.Ru[h], game.Rw[h]
        closed = game.A[h] - game.B[h] @ Kh - game.D[h] @ Lh
        weight = game.Q[h] + Kh.T @ Ru @ Kh - Lh.T @ Rw @ Lh
        costs += np.einsum("ci,ci->c", x @ weight, x)
        x_next = x @ closed.T + xi[:, h + 1, :]
        for perturb, gain, R, G, sign in ((K_perturb, Kh, Ru, game.B[h], 1.0),
                                          (L_perturb, Lh, Rw, game.D[h], -1.0)):
            if perturb is None:
                continue
            delta = np.einsum("cpm,cm->cp", perturb[:, h], x)
            cross = x @ ((R + R.T) @ gain).T + delta @ R.T
            costs += sign * np.einsum("cp,cp->c", delta, cross)
            x_next -= delta @ G.T
        x = x_next
    costs += np.einsum("ci,ci->c", x @ game.Q[N], x)
    if states is not None:
        states[:, N, :] = x
    return costs, states


def mean_covariance_blocks(states: np.ndarray) -> np.ndarray:
    """Mean per-stage second moments over a batch of state arrays, shape (N+1, m, m)."""
    count = states.shape[0]
    return np.array([states[:, h, :].T @ states[:, h, :] / count for h in range(states.shape[1])])


def monte_carlo_objective(game: LqGame, K: StructuredGain, L: StructuredGain,
                          count: int, rng: np.random.Generator,
                          chunk: int = 200_000) -> tuple[float, float]:
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
