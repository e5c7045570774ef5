"""Single-point zeroth-order gradient estimation and the nested model-free solver.

Gradient estimates use one fresh perturbed-cost trajectory per sample plus
an independent unperturbed trajectory for the covariance estimate, then
precondition by the estimated covariance to form a natural gradient step.
The updates are purely simulation-driven; only the shared outer driver reads
the model, for the trace's gap, margin and anchored-set columns.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .exact import DivergenceError, _check_numbers, _outer_descent
from .model import LqGame, StructuredGain, zero_gain
from .sim import PrefetchedNormals, RngStream, batch_rollout, mean_covariance_blocks
from .trace import RunTrace

# stream purpose indices: keep stable so runs are reproducible across versions.
# Each estimation step draws from ``stream.child(_COST, 0)`` and
# ``stream.child(_COV, 0)``; the trailing 0 is part of the contract too.
# So are the bit generator and the draw layout: ZO
# traces made before the streams moved from Philox to SFC64, or before each
# batch was drawn in its stage-major layout (sphere normals as one
# (dim, count) array, noise as one (N+1, m, count) array), are not reproduced
# by this version.
_COST, _COV = 0, 1


@dataclass(frozen=True)
class ZoConfig:
    r1: float = 0.5
    r2: float = 0.08
    M1: int = 10_000
    M2: int = 10_000
    tau1: float = 0.04
    tau2: float = 4.67e-4
    T_in: int = 10
    T: int = 60

    def __post_init__(self):
        _check_numbers(positive={"r1": self.r1, "r2": self.r2,
                                 "tau1": self.tau1, "tau2": self.tau2},
                       counts={"M1": self.M1, "M2": self.M2, "T_in": self.T_in, "T": self.T})
        for name, r in (("r1", self.r1), ("r2", self.r2)):
            if r * r == 0.0:  # the estimator divides by r^2
                raise ValueError(f"{name} is too small to square, got {r!r}")


def gain_dims(game: LqGame, side: Literal["K", "L"]) -> tuple[int, int, int]:
    """(stage rows, stage cols, total free dimension) of a gain side."""
    p = game.d if side == "K" else game.n
    return p, game.m, p * game.m * game.horizon


def sample_unit_sphere(game: LqGame, side: Literal["K", "L"], count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Uniform draws on the unit Frobenius sphere of the structured subspace.

    ``rng`` fills one (dim, count) array of standard normals, so sample c is
    its c-th column.  Returns stage blocks with the sample index last, shape
    (N, p, m, count); the lift of each draw has Frobenius norm exactly 1.
    The columns are normalised in place, so the result is the drawn array
    itself: a draw-ahead buffer of exactly ``count * dim`` normals is returned
    without a copy.
    """
    p, m, dim = gain_dims(game, side)
    U = rng.standard_normal((dim, count))
    sq_norms = np.einsum("ic,ic->c", U, U)
    while (sq_norms == 0.0).any():  # probability-zero guard
        bad = sq_norms == 0.0
        U[:, bad] = rng.standard_normal((dim, int(bad.sum())))
        sq_norms = np.einsum("ic,ic->c", U, U)
    U /= np.sqrt(sq_norms)
    return U.reshape(game.horizon, p, m, count)


def zo_gradient(game: LqGame, K: StructuredGain, L: StructuredGain,
                side: Literal["K", "L"], r: float, count: int,
                rng: np.random.Generator) -> StructuredGain:
    """Single-point estimate of the objective gradient w.r.t. one gain side.

    Each sample perturbs the chosen side on a radius-r sphere, rolls out one
    trajectory, and weights the direction by (dim / r) times the incurred
    cost.  Unbiased for the gradient of the r-smoothed objective.
    """
    _, _, dim = gain_dims(game, side)
    rU = sample_unit_sphere(game, side, count, rng)
    rU *= r  # in place: a fresh (N, p, m, count) copy costs more in page faults than in arithmetic
    perturb = {"K_perturb": rU} if side == "K" else {"L_perturb": rU}
    costs, _ = batch_rollout(game, K, L, count, rng, **perturb)
    blocks = (dim / (r * r)) * (rU.reshape(-1, count) @ costs).reshape(rU.shape[:-1]) / count
    return StructuredGain(side, blocks)


def _apply_covariance_gate(game: LqGame, blocks: np.ndarray) -> tuple[np.ndarray, bool]:
    """Enforce lambda_min >= phi/2 on stacked blocks before inversion; returns (blocks, gated)."""
    phi_half = game.noise.phi / 2.0
    lam = float(np.linalg.eigvalsh(0.5 * (blocks + blocks.swapaxes(1, 2)))[:, 0].min())
    if lam >= phi_half:
        return blocks, False
    return blocks + (phi_half - lam) * np.eye(blocks.shape[1]), True


def natural_step(grad: StructuredGain, cov_blocks: np.ndarray) -> StructuredGain:
    """Right-precondition a structured gradient by stacked block covariance solves."""
    cov = cov_blocks[:grad.horizon]
    return StructuredGain(grad.side, np.linalg.solve(cov.swapaxes(1, 2),
                                                     grad.blocks.swapaxes(1, 2)).swapaxes(1, 2))


class _DrawAhead:
    """One single-worker pool that draws gradient-stream normals ahead of the steps that read them.

    A step's gradient (COST) stream depends only on its indices, never on the
    iterate, so its leading normals can be drawn before the step runs, into
    two buffers: the sphere directions, then the Gaussian noise.  ``steps``
    lists a run's estimation steps in order as (stream, side, count).  Taking
    one step's normals queues the next step's sphere directions, which the
    helper draws while this thread runs the gradient rollout; the next step
    queues its noise normals when it starts, once this step's buffers are
    freed, and its covariance rollout overlaps them.  Buffers are allocated
    on this thread; the helper thread starts on the first request and calls
    only ``Generator.standard_normal(out=...)``, and a draw that raises there
    raises again from ``take``.  Leaving the ``with`` block joins it.
    """

    def __init__(self, game: LqGame, steps=()):
        keys = [(stream.child(_COST, 0), side, count) for stream, side, count in steps]
        self._game = game
        self._next = dict(zip(keys, keys[1:]))
        # key -> (generator, buffer sizes, futures of the buffers queued so far)
        self._queued: dict = {}
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lqgames-draw-ahead")

    def __enter__(self) -> "_DrawAhead":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown()

    def request(self, stream: RngStream, side: Literal["K", "L"], count: int,
                parts: int = 2) -> None:
        """Queue the first ``parts`` buffers of ``stream``'s leading normals, if not queued yet."""
        key = (stream, side, count)
        if key not in self._queued:
            _, _, dim = gain_dims(self._game, side)
            self._queued[key] = (stream.generator(),
                                 (count * dim, count * self._game.noise.normals_per_sample), [])
        rng, sizes, futures = self._queued[key]
        while len(futures) < parts:
            # each buffer stays under numpy's 4 MiB huge-page threshold at desk scale
            buffer = np.empty(sizes[len(futures)])
            futures.append(self._pool.submit(rng.standard_normal, out=buffer))

    def take(self, stream: RngStream, side: Literal["K", "L"], count: int) -> PrefetchedNormals:
        """The generator of ``stream`` with its leading normals drawn; queues the next step's."""
        key = (stream, side, count)
        self.request(*key)
        rng, _, futures = self._queued.pop(key)
        if key in self._next:
            self.request(*self._next[key], parts=1)
        return PrefetchedNormals(rng, [future.result() for future in futures])


def _estimate_step(game: LqGame, K: StructuredGain, L: StructuredGain,
                   side: Literal["K", "L"], r: float, count: int,
                   stream: RngStream, ahead: _DrawAhead) -> tuple[StructuredGain, bool]:
    """One (covariance, gradient) estimation round; returns (step, gated).

    It spends 2 * count trajectories.  The two rollouts draw from
    independent streams whose draws do not depend on the iterate.
    ``ahead``'s helper draws the gradient stream's leading normals while
    this thread runs the covariance rollout.  Every draw is the plain one,
    and every traced function runs on this thread.
    """
    cost_stream = stream.child(_COST, 0)
    ahead.request(cost_stream, side, count)
    _, states = batch_rollout(game, K, L, count, stream.child(_COV, 0).generator(),
                              return_states=True)
    cov = mean_covariance_blocks(states)
    del states  # freed before the gradient rollout allocates its own
    if not np.isfinite(cov).all():
        raise DivergenceError(f"the covariance estimate for a step on {side} is not "
                              "finite; likely cause: the inner ascent on L diverged")
    cov, gated = _apply_covariance_gate(game, cov)
    grad = zo_gradient(game, K, L, side, r, count, ahead.take(cost_stream, side, count))
    try:
        step = natural_step(grad, cov)
    except np.linalg.LinAlgError:
        raise DivergenceError(f"the covariance estimate for a step on {side} is singular; "
                              "likely cause: the inner ascent on L diverged") from None
    # the raw gradient is 2 F Sigma, so the natural-gradient direction
    # matching the exact solver's F/E updates is half the preconditioned
    # estimate
    return step.scale(0.5), gated


def _inner_steps(stream: RngStream, config: ZoConfig) -> list:
    """The inner loop's estimation steps as (stream, side, count)."""
    return [(stream.child(k), "L", config.M1) for k in range(config.T_in)]


def inner_zo_oracle(game: LqGame, K: StructuredGain, L0: StructuredGain,
                    config: ZoConfig, stream: RngStream,
                    ahead: _DrawAhead | None = None) -> tuple[StructuredGain, int, int]:
    """Model-free inner maximization: T_in preconditioned ascent steps on L.

    Returns (L, samples used, gate hits).  ``ahead`` is the caller's
    draw-ahead helper; without it one is made for these steps.
    """
    steps = _inner_steps(stream, config)
    L = L0
    gate_hits = 0
    with _DrawAhead(game, steps) if ahead is None else contextlib.nullcontext(ahead) as ahead:
        for step_stream, _, _ in steps:
            step, gated = _estimate_step(game, K, L, "L", config.r1, config.M1, step_stream, ahead)
            gate_hits += gated
            L = L + step.scale(config.tau1)
    return L, 2 * config.M1 * len(steps), gate_hits


def outer_zo_npg(game: LqGame, K0: StructuredGain, config: ZoConfig, seed: int = 0,
                 nash_value: float | None = None) -> tuple[StructuredGain, RunTrace]:
    """Model-free nested natural policy gradient on K.

    Calls the inner oracle once per outer iteration, then forms the outer
    gradient estimate against the fixed inner output.  The trace logs the
    model-based primal gap, estimated natural-gradient norm, margins, and
    cumulative sample counts; the step itself never reads the model.  Every
    draw comes from a stream of ``seed``.  One helper thread draws each
    step's gradient stream while the step before it runs; it is joined
    before this returns or raises.
    """
    root = RngStream(seed)
    steps = []
    for t in range(config.T):
        steps += _inner_steps(root.child(0, t), config)
        steps.append((root.child(1, t), "K", config.M2))

    with _DrawAhead(game, steps) as ahead:
        def zo_step(t, K, br):
            L_t, inner_used, inner_hits = inner_zo_oracle(
                game, K, zero_gain(game, "L"), config, root.child(0, t), ahead)
            step, gated = _estimate_step(game, K, L_t, "K", config.r2, config.M2,
                                         root.child(1, t), ahead)
            return step, (inner_used, 2 * config.M2, inner_hits + gated)

        return _outer_descent(game, K0, zo_step, config.T, config.tau2, nash_value,
                              batch=(config.M1, config.M2))
