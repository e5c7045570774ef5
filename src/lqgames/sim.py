"""Seeded stochastic trajectory engine for the model-free setting.

Rollouts follow x_{h+1} = (A_h - B_h K_h - D_h L_h) x_h + xi_h.  All batch
operations draw from SFC64 streams addressed by explicit indices, so results
are bit-reproducible for a fixed seed regardless of how work is scheduled: a
stream's normals may be drawn ahead on another thread (``PrefetchedNormals``)
without changing any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LqGame, StructuredGain


@dataclass(frozen=True)
class RngStream:
    """A named random stream: SFC64 seeded by ``SeedSequence(seed, spawn_key=indices)``.

    Identical (seed, indices) always produce bit-identical draws; distinct
    index tuples give statistically independent streams, because SeedSequence
    hashes the spawn key into the generator's whole initial state.  SFC64
    draws a normal faster than Philox or PCG64; changing it changes every
    draw.
    """

    seed: int
    indices: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.indices)
        return np.random.Generator(np.random.SFC64(seq))

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.indices + tuple(indices))


class PrefetchedNormals:
    """A generator whose next standard normals were drawn ahead into buffers.

    ``buffers`` must hold ``rng.standard_normal(out=b)`` for each ``b`` in
    turn, so ``rng`` stands right after the last one.  Normals are handed out
    from the buffers in order, then from ``rng``: any chunking gives the draws
    of the plain generator.  A buffer is dropped once it is used up, so its
    memory goes as soon as nothing handed out still views it.  Any other draw
    must come after the buffers are used up.
    """

    def __init__(self, rng: np.random.Generator, buffers):
        self._rng = rng
        self._buffers = [b.reshape(-1) for b in buffers]
        self._pos = 0
        self._drop_used()

    def _drop_used(self) -> None:
        while self._buffers and self._pos == self._buffers[0].size:
            del self._buffers[0]
            self._pos = 0

    def standard_normal(self, size) -> np.ndarray:
        n = math.prod(size) if isinstance(size, tuple) else int(size)
        parts = []
        while n and self._buffers:
            head = self._buffers[0][self._pos:self._pos + n]  # a view: never handed out twice
            self._pos += head.size
            n -= head.size
            parts.append(head)
            self._drop_used()
        if n or not parts:
            parts.append(self._rng.standard_normal(n))
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(size)

    def uniform(self, low, high, size) -> np.ndarray:
        if self._buffers:
            raise RuntimeError("uniform draw requested before the prefetched normals were used")
        return self._rng.uniform(low, high, size)


def batch_rollout(game: LqGame, K: StructuredGain, L: StructuredGain, count: int,
                  rng: np.random.Generator, *,
                  K_perturb: np.ndarray | None = None,
                  L_perturb: np.ndarray | None = None,
                  return_states: bool = False):
    """Simulate ``count`` independent trajectories in one vectorized pass.

    Every batch array is stage-major with the sample index last, so each
    stage works on contiguous (m, count) states.  ``K_perturb`` /
    ``L_perturb`` optionally add a per-sample gain offset of shape
    (N, p, m, count); this is how zeroth-order perturbations enter.  Returns
    (costs, states) with states of shape (N+1, m, count) or None; the states
    overwrite the noise draws, each once it has been added.

    Each stage forms the closed loop A - B K - D L and the combined cost
    Q + K' Ru K - L' Rw L once; a perturbation du = dK x adds
    du' ((Ru + Ru') K x + Ru du) to the cost and -B du to the next state
    (dw = dL x likewise, with -Rw and D).
    """
    N = game.horizon
    xi = game.noise.sample(count, rng)  # (N+1, m, count)
    costs = np.zeros(count)
    for h in range(N):
        x, x_next = xi[h], xi[h + 1]
        Kh, Lh = K.blocks[h], L.blocks[h]
        Ru, Rw = game.Ru[h], game.Rw[h]
        closed = game.A[h] - game.B[h] @ Kh - game.D[h] @ Lh
        weight = game.Q[h] + Kh.T @ Ru @ Kh - Lh.T @ Rw @ Lh
        costs += np.einsum("ic,ic->c", weight @ x, x)
        x_next += closed @ x
        for perturb, gain, R, G, sign in ((K_perturb, Kh, Ru, game.B[h], 1.0),
                                          (L_perturb, Lh, Rw, game.D[h], -1.0)):
            if perturb is None:
                continue
            delta = np.einsum("pjc,jc->pc", perturb[h], x)
            cross = ((R + R.T) @ gain) @ x + R @ delta
            costs += sign * np.einsum("pc,pc->c", delta, cross)
            x_next -= G @ delta
    costs += np.einsum("ic,ic->c", game.Q[N] @ xi[N], xi[N])
    return costs, (xi if return_states else None)


def mean_covariance_blocks(states: np.ndarray) -> np.ndarray:
    """Mean per-stage second moments of stage-major states (N+1, m, count), shape (N+1, m, m)."""
    return np.einsum("hic,hjc->hij", states, states) / states.shape[2]
