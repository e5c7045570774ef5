"""Deterministic nested natural policy gradient with exact gradients.

Inner loop ascends the maximizer's natural gradient; the outer loop descends
the minimizer's, using either an approximately or exactly maximized inner
solution.  No projections or line searches: feasibility is maintained
implicitly by small enough stepsizes.  The outer loop is shared with the
model-free solver in ``zo``, which supplies its own step oracle.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from . import certify
from .model import LqGame, StructuredGain, zero_gain
from .trace import RunTrace, TraceRow

DIVERGENCE_FACTOR = 10.0


class SolverStop(RuntimeError):
    """A run stopped early; ``_outer_descent`` attaches its partial ``trace``."""

    trace: RunTrace | None = None


class DivergenceError(SolverStop):
    """An iterate or estimate left the feasible set, turned non-finite or blew
    past the divergence guard."""


class InnerLoopError(SolverStop):
    """A gap-mode inner loop reached ``inner_cap`` before ``eps1``."""


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_numbers(positive: dict[str, float], counts: dict[str, int]) -> None:
    """Raise ValueError unless every ``positive`` value is a finite number > 0
    and every ``counts`` value an integer >= 1."""
    for name, value in positive.items():
        if not (_is_finite_real(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True)
class ExactSolverConfig:
    tau1: float = 0.1
    tau2: float = 4.67e-4
    inner_mode: Literal["fixed", "gap", "exact"] = "exact"
    T_in: int = 10
    eps1: float = 1e-6
    inner_cap: int = 100_000
    T: int = 300
    stop_gap: float | None = None

    def __post_init__(self):
        _check_numbers(positive={"tau1": self.tau1, "tau2": self.tau2, "eps1": self.eps1},
                       counts={"T_in": self.T_in, "inner_cap": self.inner_cap, "T": self.T})
        if self.stop_gap is not None and not _is_finite_real(self.stop_gap):
            raise ValueError(f"stop_gap must be a finite number or null, got {self.stop_gap!r}")
        if self.inner_mode not in ("fixed", "gap", "exact"):
            raise ValueError(f"unknown inner mode {self.inner_mode!r}")


def inner_npg_exact(game: LqGame, K: StructuredGain, L0: StructuredGain,
                    config: ExactSolverConfig,
                    br: certify.BestResponse | None = None
                    ) -> tuple[StructuredGain, list[float], np.ndarray]:
    """Natural gradient ascent on L at fixed K; returns (L, gap trace, P).

    ``P`` holds the value blocks of the returned L, already computed for its
    gap.  In gap mode the loop stops once the suboptimality against the exact
    best response ``br`` drops below ``eps1``.  ``br`` must be feasible; when
    not given it is computed here, raising NashInfeasibleError for an
    infeasible K.
    """
    if br is None:
        br = certify.feasible_best_response(game, K)
    opt_val = certify.expected_cost(game, br.P_blocks)
    gap_mode = config.inner_mode == "gap"
    limit = config.T_in if config.inner_mode == "fixed" else config.inner_cap
    L = L0
    gaps: list[float] = []
    for k in range(limit + 1):
        P = certify.value_blocks(game, K, L)
        gaps.append(opt_val - certify.expected_cost(game, P))
        if k == limit or (gap_mode and gaps[-1] <= config.eps1):
            break
        L = L + certify.natural_gradients(game, K, L, "L", P).scale(config.tau1)
    if gap_mode and gaps[-1] > config.eps1:
        raise InnerLoopError(
            f"inner loop failed to reach gap {config.eps1:g} in {limit} iterations "
            f"(last gap {gaps[-1]:g})")
    return L, gaps, P


# (direction, (inner samples, outer samples, gate hits) spent on it or None)
StepOracle = Callable[[int, StructuredGain, certify.BestResponse],
                      tuple[StructuredGain, tuple[int, int, int] | None]]


# an iterate that overflows fails best_response_L's finiteness test and ends
# the run with DivergenceError, so numpy's float warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def _outer_descent(game: LqGame, K0: StructuredGain, step_oracle: StepOracle,
                   T: int, tau2: float, nash_value: float | None,
                   stop_gap: float | None = None,
                   batch: tuple[int, int] | None = None) -> tuple[StructuredGain, RunTrace]:
    """Outer loop shared by the nested solvers: K <- K - tau2 * step_oracle(t, K, br).

    The best response ``br`` of each iterate is computed once; the
    feasibility and divergence guards, the primal gap, lambda_min(H) and the
    anchored-set test all read it.  ``batch`` gives the (M1, M2) sample
    batches of a stochastic oracle, whose trace accumulates its sample and
    gate counts; it is None for an exact oracle.  A SolverStop raised here or
    by the oracle leaves with the rows recorded so far as its ``trace``.
    """
    cause = f"stepsize tau2={tau2:g} too large"
    if batch is not None:
        cause += f" or sample batches M1={batch[0]}, M2={batch[1]} too small"
    if nash_value is None:
        nash_value = certify.solve_nash(game).value
    khat_bound = certify.khat_bound(
        game, certify.feasible_best_response(game, K0, "the initial gain K0"))
    K = K0
    trace = RunTrace(stochastic=batch is not None)
    initial_obj: float | None = None
    totals = (0, 0, 0)
    t0 = time.perf_counter()
    try:
        for t in range(T):
            br = certify.best_response_L(game, K)
            if not br.feasible:
                what = ("is not finite" if math.isnan(br.lam_min)
                        else f"left the feasible set (lambda_min={br.lam_min:g})")
                raise DivergenceError(
                    f"iterate {t} {what} at stage {br.violating_stage}; likely cause: {cause}")
            primal = certify.expected_cost(game, br.P_blocks)
            if initial_obj is None:
                initial_obj = primal
            if primal > DIVERGENCE_FACTOR * initial_obj:
                raise DivergenceError(
                    f"objective {primal:g} exceeded {DIVERGENCE_FACTOR:g}x its initial value; "
                    f"likely cause: {cause}")
            step, counts = step_oracle(t, K, br)
            gap = primal - nash_value
            row = TraceRow(
                t=t, objective_gap=gap, frob_F=step.frobenius_norm(), lambda_min_H=br.min_margin,
                in_Khat=certify.in_Khat_set(br, khat_bound),
                wallclock_ms=(time.perf_counter() - t0) * 1e3)
            if batch is not None:
                totals = tuple(a + b for a, b in zip(totals, counts))
                row.samples_used_inner, row.samples_used_outer, row.covariance_gate_hits = totals
            trace.append(row)
            if stop_gap is not None and gap <= stop_gap:
                return K, trace
            K = K - step.scale(tau2)
    except SolverStop as exc:
        exc.trace = trace
        raise
    return K, trace


def outer_npg_exact(game: LqGame, K0: StructuredGain,
                    config: ExactSolverConfig,
                    nash_value: float | None = None) -> tuple[StructuredGain, RunTrace]:
    """Nested natural gradient descent on K with exact gradients.

    ``inner_mode="exact"`` uses the closed-form best response each step; the
    other modes run the inner ascent loop.  Records gap, gradient norm,
    disturbance margin, and anchored-set membership per iterate.
    """
    def exact_step(t, K, br):
        if config.inner_mode == "exact":
            L, P = br.L, br.P_blocks
        else:
            L, _, P = inner_npg_exact(game, K, zero_gain(game, "L"), config, br)
        return certify.natural_gradients(game, K, L, "K", P), None

    return _outer_descent(game, K0, exact_step, config.T, config.tau2, nash_value,
                          stop_gap=config.stop_gap)
