"""Single-point zeroth-order gradient estimation and the nested model-free solver.

Gradient estimates use one fresh perturbed-cost trajectory per sample plus
an independent unperturbed trajectory for the covariance estimate, then
precondition by the estimated covariance to form a natural gradient step.
The model is touched only for diagnostics (gap logging and feasibility
reports); the updates themselves are purely simulation-driven.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import certify
from .exact import _check_numbers, _outer_descent
from .model import LqGame, StructuredGain, zero_gain
from .sim import PrefetchedNormals, RngStream, batch_rollout, mean_covariance_blocks
from .trace import RunTrace

# stream purpose indices: keep stable so runs are reproducible across versions
_COST, _COV = 0, 1


class CovarianceGateError(RuntimeError):
    """Estimated covariance failed the invertibility gate twice."""


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
    gate_policy: Literal["regularize", "reject-and-resample"] = "regularize"
    seed: int = 0

    def __post_init__(self):
        _check_numbers(positive={"r1": self.r1, "r2": self.r2,
                                 "tau1": self.tau1, "tau2": self.tau2},
                       counts={"M1": self.M1, "M2": self.M2, "T_in": self.T_in, "T": self.T})
        if self.gate_policy not in ("regularize", "reject-and-resample"):
            raise ValueError(f"unknown gate policy {self.gate_policy!r}")


def gain_dims(game: LqGame, side: Literal["K", "L"]) -> tuple[int, int, int]:
    """(stage rows, stage cols, total free dimension) of a gain side."""
    p = game.d if side == "K" else game.n
    return p, game.m, p * game.m * game.horizon


def sample_unit_sphere(game: LqGame, side: Literal["K", "L"], count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Uniform draws on the unit Frobenius sphere of the structured subspace.

    Returns stage blocks of shape (count, N, p, m); the lift of each draw has
    Frobenius norm exactly 1.
    """
    p, m, dim = gain_dims(game, side)
    flat = rng.standard_normal((count, dim))
    sq_norms = np.einsum("ci,ci->c", flat, flat)
    while (sq_norms == 0.0).any():  # probability-zero guard
        bad = sq_norms == 0.0
        flat[bad] = rng.standard_normal((int(bad.sum()), dim))
        sq_norms = np.einsum("ci,ci->c", flat, flat)
    flat /= np.sqrt(sq_norms)[:, None]
    return flat.reshape(count, game.horizon, p, m)


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
    rU *= r  # in place: a fresh (count, N, p, m) copy costs more in page faults than in arithmetic
    perturb = {"K_perturb": rU} if side == "K" else {"L_perturb": rU}
    costs, _ = batch_rollout(game, K, L, count, rng, **perturb)
    blocks = (dim / (r * r)) * (costs @ rU.reshape(count, -1)).reshape(rU.shape[1:]) / count
    return StructuredGain(side, blocks)


def _apply_covariance_gate(game: LqGame, blocks: np.ndarray, policy: str) -> tuple[np.ndarray, bool]:
    """Enforce lambda_min >= phi/2 on stacked blocks before inversion; returns (blocks, gated)."""
    phi_half = game.noise.phi / 2.0
    lam = float(np.linalg.eigvalsh(0.5 * (blocks + blocks.swapaxes(1, 2)))[:, 0].min())
    if lam >= phi_half:
        return blocks, False
    if policy == "regularize":
        bump = phi_half - lam
        return blocks + bump * np.eye(blocks.shape[1]), True
    return blocks, True  # reject policy: caller resamples


def natural_step(grad: StructuredGain, cov_blocks: np.ndarray) -> StructuredGain:
    """Right-precondition a structured gradient by stacked block covariance solves."""
    cov = cov_blocks[:grad.horizon]
    return StructuredGain(grad.side, np.linalg.solve(cov.swapaxes(1, 2),
                                                     grad.blocks.swapaxes(1, 2)).swapaxes(1, 2))


def _estimate_step(game: LqGame, K: StructuredGain, L: StructuredGain,
                   side: Literal["K", "L"], r: float, count: int,
                   stream: RngStream, policy: str) -> tuple[StructuredGain, int, int]:
    """One (gradient, covariance) estimation round; returns (step, gate hits, samples).

    An attempt's two rollouts draw from independent streams whose draws do
    not depend on the iterate.  A helper thread therefore draws the gradient
    stream's leading normals (sphere directions, then Gaussian noise) while
    this thread runs the covariance rollout.  The helper calls only numpy and
    is joined before its buffer is read, so every draw is the plain one.
    """
    _, _, dim = gain_dims(game, side)
    prefetch = count * (dim + game.noise.normals_per_sample)
    gate_hits = 0
    samples = 0
    for attempt in range(2):
        cost_rng = stream.child(_COST, attempt).generator()
        normals = np.empty(prefetch)
        helper = threading.Thread(target=cost_rng.standard_normal, kwargs={"out": normals})
        helper.start()
        try:
            _, states = batch_rollout(game, K, L, count,
                                      stream.child(_COV, attempt).generator(),
                                      return_states=True)
            cov = mean_covariance_blocks(states)
            del states  # freed before the gradient rollout allocates its own
        finally:
            helper.join()
        grad = zo_gradient(game, K, L, side, r, count, PrefetchedNormals(cost_rng, normals))
        samples += 2 * count
        cov, gated = _apply_covariance_gate(game, cov, policy)
        if gated:
            gate_hits += 1
            if policy == "reject-and-resample" and attempt == 0:
                continue
            if policy == "reject-and-resample":
                raise CovarianceGateError(
                    f"covariance gate failed twice (phi/2 = {game.noise.phi / 2:g})")
        # the raw gradient is 2 F Sigma, so the natural-gradient direction
        # matching the exact solver's F/E updates is half the preconditioned
        # estimate
        return natural_step(grad, cov).scale(0.5), gate_hits, samples
    raise AssertionError("unreachable")


def inner_zo_oracle(game: LqGame, K: StructuredGain, L0: StructuredGain,
                    config: ZoConfig, stream: RngStream,
                    diagnostics: bool = False) -> tuple[StructuredGain, list[float], int, int]:
    """Model-free inner maximization: T_in preconditioned ascent steps on L.

    Returns (L, gap trace, samples used, gate hits).  The gap trace is
    model-based and purely diagnostic; it never feeds the update.
    """
    L = L0
    gap_trace: list[float] = []
    samples = 0
    gate_hits = 0
    opt_val = None
    if diagnostics:
        opt_val = certify.primal_value(game, K)
    for k in range(config.T_in):
        if diagnostics:
            gap_trace.append(opt_val - certify.objective(game, K, L))
        step, hits, used = _estimate_step(
            game, K, L, "L", config.r1, config.M1, stream.child(k), config.gate_policy)
        gate_hits += hits
        samples += used
        L = L + step.scale(config.tau1)
    if diagnostics:
        gap_trace.append(opt_val - certify.objective(game, K, L))
    return L, gap_trace, samples, gate_hits


def outer_zo_npg(game: LqGame, K0: StructuredGain, config: ZoConfig,
                 nash_value: float | None = None) -> tuple[StructuredGain, RunTrace]:
    """Model-free nested natural policy gradient on K.

    Calls the inner oracle once per outer iteration, then forms the outer
    gradient estimate against the fixed inner output.  The trace logs the
    model-based primal gap, estimated natural-gradient norm, margins, and
    cumulative sample counts; the step itself never reads the model.
    """
    root = RngStream(config.seed)

    def zo_step(t, K, br):
        L_t, _, inner_used, inner_hits = inner_zo_oracle(
            game, K, zero_gain(game, "L"), config, root.child(0, t))
        step, outer_hits, outer_used = _estimate_step(
            game, K, L_t, "K", config.r2, config.M2, root.child(1, t), config.gate_policy)
        return step, (inner_used, outer_used, inner_hits + outer_hits)

    return _outer_descent(game, K0, zo_step, config.T, config.tau2, nash_value,
                          batch=(config.M1, config.M2))


def smoothed_objective_fd(game: LqGame, K: StructuredGain, L: StructuredGain,
                          side: Literal["K", "L"], r: float, count: int,
                          rng: np.random.Generator) -> StructuredGain:
    """High-accuracy Monte Carlo reference for the smoothed-objective gradient.

    Averages exact model objectives (not rollouts) of sphere-perturbed gains,
    so its only error is the directional sampling noise.  Used to validate
    the rollout-based estimator's unbiasedness.
    """
    p, m, dim = gain_dims(game, side)
    U = sample_unit_sphere(game, side, count, rng)
    acc = np.zeros((game.horizon, p, m))
    for i in range(count):
        pert = StructuredGain(side, r * U[i])
        if side == "K":
            val = certify.objective(game, K + pert, L)
        else:
            val = certify.objective(game, K, L + pert)
        acc += val * U[i]
    return StructuredGain(side, (dim / r) * acc / count)
