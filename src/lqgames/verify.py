"""Executable checks of the solver's structural identities and inequalities.

Each check compares an analytic quantity against an independent oracle
(finite differences, dense lifted arithmetic, or eigenvalue tests) and emits
a CheckReport.  The property suite aggregates them over randomized instances
and is fully deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from . import certify
from .model import LqGame, StructuredGain, isotropic_noise, scalar_demo_game, zero_gain

BRUTE_FORCE_DIM_CAP = 64


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check."""

    name: str
    instance: str
    passed: bool
    margins: dict[str, float] = field(default_factory=dict)
    tolerance: float = 0.0
    seed: int = 0

    def to_json_line(self) -> str:
        doc = {
            "name": self.name,
            "instance": self.instance,
            "passed": self.passed,
            "margins": {k: float(v) for k, v in self.margins.items()},
            "tolerance": self.tolerance,
            "seed": self.seed,
        }
        return json.dumps(doc, sort_keys=True)


def write_reports(reports: Sequence[CheckReport], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(r.to_json_line() + "\n" for r in reports))


def summary_table(reports: Sequence[CheckReport]) -> str:
    width = max(len(r.name) for r in reports) if reports else 4
    lines = [f"{'check'.ljust(width)}  status  instance"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {status}    {r.instance}")
    n_fail = sum(not r.passed for r in reports)
    lines.append(f"{len(reports)} checks, {n_fail} failing")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Dense lifted operators
# ---------------------------------------------------------------------------

def _block_diag(blocks: np.ndarray) -> np.ndarray:
    count, r, c = blocks.shape
    out = np.zeros((count * r, count * c))
    for i, b in enumerate(blocks):
        out[i * r:(i + 1) * r, i * c:(i + 1) * c] = b
    return out


def full_gain(gain: StructuredGain) -> np.ndarray:
    """The lifted gain matrix [diag(blocks) | 0]."""
    N, p, m = gain.blocks.shape
    return np.hstack([_block_diag(gain.blocks), np.zeros((N * p, m))])


def full_closed_loop(game: LqGame, K: StructuredGain, L: StructuredGain) -> np.ndarray:
    """Lifted closed loop: stage block h of A - B K - D L maps x_h to x_{h+1}."""
    m, N = game.m, game.horizon
    full = np.zeros((m * (N + 1), m * (N + 1)))
    for h, blk in enumerate(certify.closed_loop_blocks(game, K, L)):
        full[(h + 1) * m:(h + 2) * m, h * m:(h + 1) * m] = blk
    return full


def full_Sigma(game: LqGame, K: StructuredGain, L: StructuredGain) -> np.ndarray:
    """Lifted state second moment: the (finite, by nilpotency) Lyapunov series
    of the closed loop over the lifted noise covariance."""
    Acl = full_closed_loop(game, K, L)
    term = _block_diag(game.noise.covariance_blocks)
    Sigma = np.zeros_like(term)
    for _ in range(game.horizon + 1):
        Sigma += term
        term = Acl @ term @ Acl.T
    return Sigma


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def analytic_gradient(game: LqGame, K: StructuredGain, L: StructuredGain,
                      side: Literal["K", "L"]) -> StructuredGain:
    """Raw objective gradient 2 F_h Sigma_h (or 2 E_h Sigma_h) per stage."""
    G = certify.natural_gradients(game, K, L, side)
    S = certify.covariance_blocks(game, K, L)
    return StructuredGain(side, 2.0 * G.blocks @ S[:-1])


def finite_diff_gradient(game: LqGame, K: StructuredGain, L: StructuredGain,
                         side: Literal["K", "L"], step: float = 1e-6) -> StructuredGain:
    """Central-difference objective gradient over each in-pattern coordinate."""
    if step <= 0:
        raise ValueError("step must be positive")
    base = K if side == "K" else L
    out = np.zeros(base.blocks.shape)
    for idx in np.ndindex(out.shape):
        delta = np.zeros(out.shape)
        delta[idx] = step
        hi = StructuredGain(side, base.blocks + delta)
        lo = StructuredGain(side, base.blocks - delta)
        if side == "K":
            f_hi = certify.objective(game, hi, L)
            f_lo = certify.objective(game, lo, L)
        else:
            f_hi = certify.objective(game, K, hi)
            f_lo = certify.objective(game, K, lo)
        out[idx] = (f_hi - f_lo) / (2.0 * step)
    return StructuredGain(side, out)


def brute_force_value_oracle(game: LqGame, K: StructuredGain, L: StructuredGain) -> float:
    """Objective via dense lifted arithmetic; independent of the stage path.

    Builds the full cost operator M and the lifted state second moment
    (``full_Sigma``), and returns Tr(M Sigma).  Capped at lifted dimension 64.
    """
    dim = game.m * (game.horizon + 1)
    if dim > BRUTE_FORCE_DIM_CAP:
        raise ValueError(f"lifted dimension {dim} exceeds brute-force cap {BRUTE_FORCE_DIM_CAP}")
    Kf, Lf = full_gain(K), full_gain(L)
    M = _block_diag(game.Q) + Kf.T @ _block_diag(game.Ru) @ Kf - Lf.T @ _block_diag(game.Rw) @ Lf
    return float(np.trace(M @ full_Sigma(game, K, L)))


# ---------------------------------------------------------------------------
# Inequality monitors
# ---------------------------------------------------------------------------

def check_descent(game: LqGame, K_t: StructuredGain, K_next: StructuredGain,
                  tau2: float, slack: float = 0.0, seed: int = 0,
                  instance: str = "", br: certify.BestResponse | None = None,
                  br_next: certify.BestResponse | None = None) -> CheckReport:
    """One-step descent test for the outer update.

    Verifies G(K+) - G(K) <= tau2*slack - (tau2*phi/4) Tr(F'F), with F the
    natural gradient at (K_t, L(K_t)).  ``slack`` is a configured allowance
    for inexact inner solves and estimation noise, not an analytic constant.
    ``br`` and ``br_next`` are the feasible best responses of K_t and K_next,
    computed here when not given.
    """
    phi = game.noise.phi
    if br is None:
        br = certify.feasible_best_response(game, K_t)
    if br_next is None:
        br_next = certify.feasible_best_response(game, K_next)
    val_t = certify.expected_cost(game, br.P_blocks)
    val_next = certify.expected_cost(game, br_next.P_blocks)
    F = certify.natural_gradients(game, K_t, br.L, "K", br.P_blocks)
    lhs = val_next - val_t
    rhs = tau2 * slack - (tau2 * phi / 4.0) * F.frobenius_norm() ** 2
    tol = 1e-12 * (1.0 + abs(val_t))
    return CheckReport(
        name="descent", instance=instance, passed=bool(lhs <= rhs + tol),
        margins={"lhs": lhs, "rhs": rhs, "trF2": F.frobenius_norm() ** 2},
        tolerance=tol, seed=seed)


def check_gradient_domination(game: LqGame, K: StructuredGain, nash_value: float,
                              seed: int = 0, instance: str = "") -> CheckReport:
    """Gap-to-gradient ratio monitor.

    Asserts gap >= 0 and flags near-zero gradient with a large gap, which
    would contradict gradient domination.  The ratio itself is reported so a
    sweep can form an empirical domination constant.
    """
    br = certify.feasible_best_response(game, K)
    gap = certify.expected_cost(game, br.P_blocks) - nash_value
    F = certify.natural_gradients(game, K, br.L, "K", br.P_blocks)
    trF2 = F.frobenius_norm() ** 2
    at_optimum = gap <= 1e-8 * (1.0 + abs(nash_value))
    violated = trF2 <= 1e-16 and not at_optimum
    ratio = gap / trF2 if trF2 > 1e-16 else float("nan")
    return CheckReport(
        name="gradient-domination", instance=instance,
        passed=bool(gap >= -1e-10 * (1.0 + abs(nash_value)) and not violated),
        margins={"gap": gap, "trF2": trF2, "ratio": ratio},
        tolerance=1e-10, seed=seed)


# ---------------------------------------------------------------------------
# Randomized instances
# ---------------------------------------------------------------------------

def random_game(rng: np.random.Generator, m: int = 3, d: int = 2, n: int = 2,
                horizon: int = 3, rw_scale: float = 5.0) -> LqGame:
    """A random instance built to satisfy the saddle-point existence condition.

    ``rw_scale`` inflates Rw; the default keeps essentially every draw
    feasible, while small values produce adversarial infeasible instances.
    """
    def psd(k, bump):
        G = rng.standard_normal((k, k)) / np.sqrt(k)
        return G @ G.T + bump * np.eye(k)

    A = tuple(rng.standard_normal((m, m)) / np.sqrt(m) for _ in range(horizon))
    B = tuple(rng.standard_normal((m, d)) / np.sqrt(m) for _ in range(horizon))
    D = tuple(0.3 * rng.standard_normal((m, n)) / np.sqrt(m) for _ in range(horizon))
    Q = tuple(psd(m, 0.1) for _ in range(horizon + 1))
    Ru = tuple(psd(d, 1.0) for _ in range(horizon))
    Rw = tuple(rw_scale * psd(n, 1.0) for _ in range(horizon))
    return LqGame(A=A, B=B, D=D, Q=Q, Ru=Ru, Rw=Rw,
                  noise=isotropic_noise(m, horizon, sigma=0.5))


def random_feasible_gain(game: LqGame, Kstar: StructuredGain,
                         rng: np.random.Generator, scale: float = 0.3) -> StructuredGain:
    """A random admissible gain: bounded in-pattern perturbation of the Nash gain.

    Halves the perturbation radius until the candidate passes the
    admissibility test; terminates because the Nash gain itself is interior.
    """
    direction = StructuredGain("K", [rng.standard_normal(Kstar.block_shape)
                                     for _ in range(Kstar.horizon)])
    while True:
        K = Kstar + direction.scale(scale)
        if certify.best_response_L(game, K).feasible:
            return K
        scale *= 0.5


def random_gain_pair(game: LqGame, Kstar: StructuredGain, Lstar: StructuredGain,
                     rng: np.random.Generator, scale: float = 0.3
                     ) -> tuple[StructuredGain, StructuredGain]:
    K = random_feasible_gain(game, Kstar, rng, scale)
    L = Lstar + StructuredGain("L", [scale * rng.standard_normal(Lstar.block_shape)
                                     for _ in range(Lstar.horizon)])
    return K, L


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def _check_trace_identity(game, K, L, tol=1e-10) -> tuple[bool, float]:
    """Dual Lyapunov pairing: Tr(P . noise cov) == Tr(stage cost . Sigma)."""
    P = certify.value_blocks(game, K, L)
    cov = game.noise.covariance_blocks
    backward = sum(float(np.trace(p @ c)) for p, c in zip(P, cov))
    M = certify.stage_cost_blocks(game, K, L)
    S = certify.covariance_blocks(game, K, L)
    forward = sum(float(np.trace(m @ s)) for m, s in zip(M, S))
    err = abs(backward - forward) / (1.0 + abs(backward))
    return err <= tol, err


def _check_ordering(game, K, L, tol=1e-9) -> tuple[bool, float]:
    """Value under any L is dominated by the value under the best response."""
    P = certify.value_blocks(game, K, L)
    br = certify.best_response_L(game, K)
    slack = min(float(np.linalg.eigvalsh(0.5 * ((pb - p) + (pb - p).T)).min())
                for p, pb in zip(P, br.P_blocks))
    return slack >= -tol, slack


def _check_lyapunov_sum(game, K, L, tol=1e-12) -> tuple[bool, float]:
    """Dense nilpotent Lyapunov series matches the stage covariance recursion."""
    Sigma = full_Sigma(game, K, L)
    ref = _block_diag(certify.covariance_blocks(game, K, L))
    err = float(np.abs(Sigma - ref).max()) / (1.0 + float(np.abs(ref).max()))
    return err <= tol, err


def _check_fd_gradient(game, K, L, tol=1e-6) -> tuple[bool, float]:
    worst = 0.0
    for side in ("K", "L"):
        ana = analytic_gradient(game, K, L, side)
        fd = finite_diff_gradient(game, K, L, side, step=1e-6)
        num = (ana - fd).frobenius_norm()
        den = 1.0 + ana.frobenius_norm()
        worst = max(worst, num / den)
    return worst <= tol, worst


def _check_value_difference(game, K, K2, L, tol=1e-9) -> tuple[bool, float]:
    """Cost-difference identity for a gain change on the minimizer's side.

    G(K2,L) - G(K,L) = sum_h Tr(Sigma2_h [d'F + F'd + d'(Ru+B'P B)d]) with
    F, P at (K,L) and Sigma2 the covariance under (K2,L).
    """
    g = game
    P = certify.value_blocks(game, K, L)
    F = certify.natural_gradients(game, K, L, "K", P)
    S2 = certify.covariance_blocks(game, K2, L)
    total = 0.0
    for h in range(g.horizon):
        dlt = K2.blocks[h] - K.blocks[h]
        R = g.Ru[h] + g.B[h].T @ P[h + 1] @ g.B[h]
        forcing = dlt.T @ F.blocks[h] + F.blocks[h].T @ dlt + dlt.T @ R @ dlt
        total += float(np.trace(forcing @ S2[h]))
    direct = certify.objective(game, K2, L) - certify.objective(game, K, L)
    err = abs(direct - total) / (1.0 + abs(direct))
    return err <= tol, err


def run_property_suite(seed: int = 0, instances: int = 20,
                       ordering_pairs: int = 50) -> list[CheckReport]:
    """All structural checks over randomized small instances; deterministic."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    reports: list[CheckReport] = []

    def add(name, instance, ok, margin_name, margin, tol):
        reports.append(CheckReport(name=name, instance=instance, passed=bool(ok),
                                   margins={margin_name: float(margin)},
                                   tolerance=tol, seed=seed))

    # randomized feasible instances
    for i in range(instances):
        m, d, n, N = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                      int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        game = random_game(rng, m=m, d=d, n=n, horizon=N)
        tag = f"random-{i} (m={m},d={d},n={n},N={N})"
        nash = certify.solve_nash(game)
        K, L = random_gain_pair(game, nash.Kstar, nash.Lstar, rng)

        ok, err = _check_trace_identity(game, K, L)
        add("trace-identity", tag, ok, "rel_err", err, 1e-10)
        ok, err = _check_lyapunov_sum(game, K, L)
        add("lyapunov-finite-sum", tag, ok, "max_err", err, 1e-12)
        ok, err = _check_fd_gradient(game, K, L)
        add("finite-diff-gradient", tag, ok, "rel_err", err, 1e-6)
        K2 = random_feasible_gain(game, nash.Kstar, rng)
        ok, err = _check_value_difference(game, K, K2, L)
        add("value-difference", tag, ok, "rel_err", err, 1e-9)

        bf = brute_force_value_oracle(game, K, L)
        obj = certify.objective(game, K, L)
        err = abs(bf - obj) / (1.0 + abs(obj))
        add("brute-force-objective", tag, err <= 1e-10, "rel_err", err, 1e-10)

        worst = np.inf
        for _ in range(ordering_pairs):
            Kp, Lp = random_gain_pair(game, nash.Kstar, nash.Lstar, rng)
            ok, slack = _check_ordering(game, Kp, Lp)
            worst = min(worst, slack)
        add("best-response-ordering", tag, worst >= -1e-9, "min_slack", worst, 1e-9)

        reports.append(check_gradient_domination(
            game, K, nash.value, seed=seed, instance=tag))

    # descent along the 20 iterates of an exact run (inner_mode "exact") on
    # the scalar game, one best response per iterate
    game = scalar_demo_game()
    tau2 = 0.05
    K = zero_gain(game, "K")
    br = certify.feasible_best_response(game, K)
    worst = -np.inf
    for t in range(19):  # the steps between the 20 iterates
        F = certify.natural_gradients(game, K, br.L, "K", br.P_blocks)
        K_next = K - F.scale(tau2)
        br_next = certify.feasible_best_response(game, K_next)
        rep = check_descent(game, K, K_next, tau2, seed=seed, instance=f"scalar-exact t={t}",
                            br=br, br_next=br_next)
        worst = max(worst, rep.margins["lhs"] - rep.margins["rhs"])
        K, br = K_next, br_next
    add("descent-along-run", "scalar-exact", worst <= 1e-12, "max_violation", worst, 1e-12)

    # adversarial instance: Rw too small must be reported infeasible
    bad = random_game(rng, m=2, d=2, n=2, horizon=3, rw_scale=1e-4)
    infeasible = not certify.best_response_L(bad, zero_gain(bad, "K")).feasible
    add("adversarial-infeasible", "rw-too-small", infeasible,
        "reported_infeasible", float(infeasible), 0.0)

    reports.sort(key=lambda r: (r.name, r.instance))
    return reports
