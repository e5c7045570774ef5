"""Model-based value computation and the Riccati Nash solver.

All quantities decompose stage-wise thanks to the nilpotent lifted closed
loop: value matrices come from a backward recursion, state covariances from
a forward recursion, and the exact Nash solution from a generalized Riccati
difference recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import CompactOperators, LqGame, StructuredGain, build_compact

# "PSD" means lambda_min >= -PSD_TOL * (1 + ||.||); H is declared singular
# below PD_TOL relative to its norm.
PSD_TOL = 1e-10
PD_TOL = 1e-10


class NashInfeasibleError(RuntimeError):
    """The instance violates the saddle-point existence condition.

    A non-positive disturbance margin at some stage means the upper value of
    the game is unbounded: the maximizer can profit without limit.
    """

    def __init__(self, stage: int, lam_min: float):
        self.stage = stage
        self.lam_min = lam_min
        super().__init__(
            f"existence condition fails at stage {stage}: "
            f"lambda_min(Rw - D'P*D) = {lam_min:.6e} <= 0; "
            "the upper value of the game is unbounded")


def _ops(game_or_ops) -> CompactOperators:
    if isinstance(game_or_ops, CompactOperators):
        return game_or_ops
    return build_compact(game_or_ops)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def stage_cost_blocks(ops: CompactOperators, K: StructuredGain, L: StructuredGain) -> list[np.ndarray]:
    """Blocks of Q + K'RuK - L'RwL (terminal block is plain Q_N)."""
    g = ops.game
    out = [g.Q[h] + K.blocks[h].T @ g.Ru[h] @ K.blocks[h] - L.blocks[h].T @ g.Rw[h] @ L.blocks[h]
           for h in range(g.horizon)]
    out.append(g.Q[g.horizon])
    return out


def value_blocks(ops, K: StructuredGain, L: StructuredGain) -> list[np.ndarray]:
    """Backward recursion for the value matrix blocks P_0..P_N."""
    ops = _ops(ops)
    g = ops.game
    M = stage_cost_blocks(ops, K, L)
    acl = ops.closed_loop_blocks(K, L)
    P = [None] * (g.horizon + 1)
    P[g.horizon] = g.Q[g.horizon]
    for h in range(g.horizon - 1, -1, -1):
        P[h] = _sym(M[h] + acl[h].T @ P[h + 1] @ acl[h])
    return P


def expected_cost(ops, P: Sequence[np.ndarray]) -> float:
    """Tr(P Sigma_0) for value blocks P: the expected total cost they price."""
    cov = _ops(ops).game.noise.covariance_blocks
    return float(sum(np.trace(p @ c) for p, c in zip(P, cov)))


def covariance_blocks(ops, K: StructuredGain, L: StructuredGain) -> list[np.ndarray]:
    """Forward recursion for the per-stage state second moments."""
    ops = _ops(ops)
    g = ops.game
    acl = ops.closed_loop_blocks(K, L)
    cov = g.noise.covariance_blocks
    S = [cov[0]]
    for h in range(g.horizon):
        S.append(_sym(acl[h] @ S[h] @ acl[h].T + cov[h + 1]))
    return S


def objective(ops, K: StructuredGain, L: StructuredGain) -> float:
    """Tr(P Sigma_0), the expected total cost under (K, L)."""
    ops = _ops(ops)
    return expected_cost(ops, value_blocks(ops, K, L))


def disturbance_margin_blocks(ops, P: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Blocks of H = Rw - D'PD (stage h uses P_{h+1})."""
    ops = _ops(ops)
    g = ops.game
    return [g.Rw[h] - g.D[h].T @ P[h + 1] @ g.D[h] for h in range(g.horizon)]


def natural_gradients(ops, K: StructuredGain, L: StructuredGain,
                      P: Sequence[np.ndarray] | None = None) -> tuple[StructuredGain, StructuredGain]:
    """Natural-gradient pair (F, E); the raw gradients are 2 F Sigma, 2 E Sigma."""
    ops = _ops(ops)
    g = ops.game
    if P is None:
        P = value_blocks(ops, K, L)
    F, E = [], []
    for h in range(g.horizon):
        Pn = P[h + 1]
        AL = g.A[h] - g.D[h] @ L.blocks[h]
        AK = g.A[h] - g.B[h] @ K.blocks[h]
        F.append((g.Ru[h] + g.B[h].T @ Pn @ g.B[h]) @ K.blocks[h] - g.B[h].T @ Pn @ AL)
        E.append((-g.Rw[h] + g.D[h].T @ Pn @ g.D[h]) @ L.blocks[h] - g.D[h].T @ Pn @ AK)
    return (StructuredGain("K", tuple(F)), StructuredGain("L", tuple(E)))


@dataclass(frozen=True)
class ValueCertificate:
    """Everything the model-based path knows about a gain pair."""

    P_blocks: tuple[np.ndarray, ...]
    Sigma_blocks: tuple[np.ndarray, ...]
    F: StructuredGain
    E: StructuredGain
    H_blocks: tuple[np.ndarray, ...]
    objective: float

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "P_blocks": [p.tolist() for p in self.P_blocks],
            "Sigma_blocks": [s.tolist() for s in self.Sigma_blocks],
            "F_blocks": [b.tolist() for b in self.F.blocks],
            "E_blocks": [b.tolist() for b in self.E.blocks],
            "H_blocks": [h.tolist() for h in self.H_blocks],
        }


def certificate(ops, K: StructuredGain, L: StructuredGain) -> ValueCertificate:
    ops = _ops(ops)
    P = value_blocks(ops, K, L)
    S = covariance_blocks(ops, K, L)
    F, E = natural_gradients(ops, K, L, P)
    H = disturbance_margin_blocks(ops, P)
    return ValueCertificate(tuple(P), tuple(S), F, E, tuple(H), expected_cost(ops, P))


@dataclass(frozen=True)
class BestResponse:
    """Stage-wise inner maximizer L(K) with its value recursion."""

    L: StructuredGain
    P_blocks: tuple[np.ndarray, ...]
    H_blocks: tuple[np.ndarray, ...]
    feasible: bool
    violating_stage: int | None = None
    lam_min: float | None = None

    @property
    def min_margin(self) -> float:
        return min(float(np.linalg.eigvalsh(h).min()) for h in self.H_blocks)


def best_response_L(ops, K: StructuredGain) -> BestResponse:
    """Exact inner maximization via the stage-wise Riccati recursion.

    Returns ``feasible=False`` (never raises) when some stage margin
    Rw - D'PD fails to be positive definite or the value recursion leaves
    the PSD cone.
    """
    ops = _ops(ops)
    g = ops.game
    N = g.horizon
    P: list[np.ndarray | None] = [None] * (N + 1)
    P[N] = g.Q[N]
    Lb: list[np.ndarray] = [np.zeros((g.n, g.m))] * N
    Hb: list[np.ndarray] = [np.zeros((g.n, g.n))] * N
    feasible = True
    stage = None
    lam_bad = None
    for h in range(N - 1, -1, -1):
        Pn = P[h + 1]
        H = _sym(g.Rw[h] - g.D[h].T @ Pn @ g.D[h])
        Hb[h] = H
        lam = float(np.linalg.eigvalsh(H).min())
        if lam <= PD_TOL * (1.0 + float(np.linalg.norm(H, 2))):
            feasible = False
            stage = h
            lam_bad = lam
            # keep recursing with the unregularized value so the report is
            # complete, but skip the (ill-defined) response at this stage
            AK = g.A[h] - g.B[h] @ K.blocks[h]
            P[h] = _sym(g.Q[h] + K.blocks[h].T @ g.Ru[h] @ K.blocks[h] + AK.T @ Pn @ AK)
            continue
        PD = Pn @ g.D[h]
        Ptil = _sym(Pn + PD @ np.linalg.solve(H, PD.T))
        AK = g.A[h] - g.B[h] @ K.blocks[h]
        Lb[h] = -np.linalg.solve(H, g.D[h].T @ Pn @ AK)
        P[h] = _sym(g.Q[h] + K.blocks[h].T @ g.Ru[h] @ K.blocks[h] + AK.T @ Ptil @ AK)
    if feasible:
        for h, p in enumerate(P):
            lam = float(np.linalg.eigvalsh(p).min())
            if lam < -PSD_TOL * (1.0 + float(np.linalg.norm(p, 2))):
                feasible = False
                stage = h
                lam_bad = lam
                break
    return BestResponse(
        L=StructuredGain("L", tuple(Lb)),
        P_blocks=tuple(P),
        H_blocks=tuple(Hb),
        feasible=feasible,
        violating_stage=stage,
        lam_min=lam_bad,
    )


def primal_value(ops, K: StructuredGain) -> float:
    """G(K, L(K)): the objective after exact inner maximization."""
    ops = _ops(ops)
    br = best_response_L(ops, K)
    if not br.feasible:
        raise NashInfeasibleError(br.violating_stage or 0, br.lam_min or 0.0)
    return expected_cost(ops, br.P_blocks)


@dataclass(frozen=True)
class NashSolution:
    Pstar_blocks: tuple[np.ndarray, ...]
    Kstar: StructuredGain
    Lstar: StructuredGain
    value: float
    margin: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "margin": self.margin,
            "Kstar_blocks": [b.tolist() for b in self.Kstar.blocks],
            "Lstar_blocks": [b.tolist() for b in self.Lstar.blocks],
            "Pstar_blocks": [p.tolist() for p in self.Pstar_blocks],
        }


def solve_nash(game_or_ops) -> NashSolution:
    """Exact Nash equilibrium via the generalized Riccati difference recursion.

    Gains are recovered per stage by eliminating the maximizer's first-order
    condition, then the result is post-verified for stationarity.
    """
    ops = _ops(game_or_ops)
    g = ops.game
    N = g.horizon
    P: list[np.ndarray | None] = [None] * (N + 1)
    P[N] = g.Q[N]
    Kb: list[np.ndarray] = [None] * N
    Lb: list[np.ndarray] = [None] * N
    margin = np.inf
    for h in range(N - 1, -1, -1):
        Pn = P[h + 1]
        lamP = float(np.linalg.eigvalsh(_sym(Pn)).min())
        H = _sym(g.Rw[h] - g.D[h].T @ Pn @ g.D[h])
        lamH = float(np.linalg.eigvalsh(H).min())
        if lamH <= 0.0 or lamP < -PSD_TOL * (1.0 + float(np.linalg.norm(Pn, 2))):
            raise NashInfeasibleError(h, lamH if lamH <= 0.0 else lamP)
        margin = min(margin, lamH)
        Lam = np.eye(g.m) + (g.B[h] @ np.linalg.solve(g.Ru[h], g.B[h].T)
                             - g.D[h] @ np.linalg.solve(g.Rw[h], g.D[h].T)) @ Pn
        try:
            inner = np.linalg.solve(Lam, g.A[h])
        except np.linalg.LinAlgError as exc:
            cond = np.linalg.cond(Lam)
            raise np.linalg.LinAlgError(
                f"singular stage operator at stage {h} (cond ~ {cond:.3e})") from exc
        P[h] = _sym(g.Q[h] + g.A[h].T @ Pn @ inner)
        # eliminate L from its first-order condition, solve for K
        PD = Pn @ g.D[h]
        Ptil = _sym(Pn + PD @ np.linalg.solve(H, PD.T))
        Kb[h] = np.linalg.solve(g.Ru[h] + g.B[h].T @ Ptil @ g.B[h], g.B[h].T @ Ptil @ g.A[h])
        Lb[h] = -np.linalg.solve(H, g.D[h].T @ Pn @ (g.A[h] - g.B[h] @ Kb[h]))
    Kstar = StructuredGain("K", tuple(Kb))
    Lstar = StructuredGain("L", tuple(Lb))
    value = expected_cost(ops, P)
    F, E = natural_gradients(ops, Kstar, Lstar, P)
    resF, resE = F.frobenius_norm(), E.frobenius_norm()
    if max(resF, resE) > 1e-8 * (1.0 + abs(value)):
        raise np.linalg.LinAlgError(
            f"Nash gain recovery failed stationarity check: |F|={resF:.3e}, |E|={resE:.3e}")
    return NashSolution(tuple(P), Kstar, Lstar, value, float(margin))


@dataclass(frozen=True)
class FeasibilityReport:
    member: bool
    value_psd: bool
    margin_pd: bool
    lambda_min_P: float
    lambda_min_H: float
    violating_stage: int | None = None


def in_feasible_set(ops, K: StructuredGain) -> FeasibilityReport:
    """Membership in the admissible set: P_{K,L(K)} PSD and Rw - D'PD PD."""
    ops = _ops(ops)
    br = best_response_L(ops, K)
    lamH = br.min_margin
    lamP = min(float(np.linalg.eigvalsh(p).min()) for p in br.P_blocks)
    normH = max(float(np.linalg.norm(h, 2)) for h in br.H_blocks)
    normP = max(float(np.linalg.norm(p, 2)) for p in br.P_blocks)
    margin_pd = lamH > PD_TOL * (1.0 + normH)
    value_psd = lamP >= -PSD_TOL * (1.0 + normP)
    stage = br.violating_stage if not (margin_pd and value_psd) else None
    return FeasibilityReport(
        member=bool(margin_pd and value_psd),
        value_psd=bool(value_psd),
        margin_pd=bool(margin_pd),
        lambda_min_P=lamP,
        lambda_min_H=lamH,
        violating_stage=stage,
    )


@dataclass(frozen=True)
class KhatReport:
    member: bool
    slack: float
    lambda_min_P: float


def anchor_certificate(ops, K0: StructuredGain) -> BestResponse:
    """Best-response certificate of the starting gain, reused for set tests."""
    ops = _ops(ops)
    br = best_response_L(ops, K0)
    if not br.feasible:
        raise NashInfeasibleError(br.violating_stage or 0, br.lam_min or 0.0)
    return br


def in_Khat_set(ops, K: StructuredGain, K0_certificate: BestResponse) -> KhatReport:
    """Membership of K in the anchored sublevel set around a feasible start."""
    ops = _ops(ops)
    return khat_report(best_response_L(ops, K), khat_bound(ops, K0_certificate))


def khat_bound(ops, K0_certificate: BestResponse) -> tuple[np.ndarray, ...]:
    """Upper blocks P_0 + lambda_min(H_0) / (2 |D|^2) * I of the anchored set.

    Fixed by the anchor, so a run computes them once.
    """
    ops = _ops(ops)
    shift = K0_certificate.min_margin / (2.0 * ops.norm_D() ** 2)
    return tuple(P0 + shift * np.eye(P0.shape[0]) for P0 in K0_certificate.P_blocks)


def khat_report(br: BestResponse, bound_blocks: Sequence[np.ndarray]) -> KhatReport:
    """Anchored-set test on the best-response certificate ``br`` of a gain.

    Tests 0 <= P_{K,L(K)} <= ``bound_blocks`` (from ``khat_bound``) blockwise
    by eigenvalue decomposition of the differences.
    """
    if not br.feasible:
        return KhatReport(member=False, slack=-np.inf, lambda_min_P=br.lam_min or -np.inf)
    slack = np.inf
    lamP = np.inf
    for P, bound in zip(br.P_blocks, bound_blocks):
        slack = min(slack, float(np.linalg.eigvalsh(_sym(bound - P)).min()))
        lamP = min(lamP, float(np.linalg.eigvalsh(_sym(P)).min()))
    normP = max(float(np.linalg.norm(p, 2)) for p in br.P_blocks)
    member = slack >= -PSD_TOL * (1.0 + normP) and lamP >= -PSD_TOL * (1.0 + normP)
    return KhatReport(member=bool(member), slack=float(slack), lambda_min_P=float(lamP))


def lqr_cost_oracle(game: LqGame) -> float:
    """Classical finite-horizon LQR cost by dynamic programming (D ignored).

    Separate code path used to cross-check solve_nash when the disturbance
    channel vanishes.
    """
    g = game
    N = g.horizon
    total = 0.0
    Ps = [g.Q[N]]
    for h in range(N - 1, -1, -1):
        BtP = g.B[h].T @ Ps[0]
        K = np.linalg.solve(g.Ru[h] + BtP @ g.B[h], BtP @ g.A[h])
        Ps.insert(0, _sym(g.Q[h] + g.A[h].T @ Ps[0] @ (g.A[h] - g.B[h] @ K)))
    for P_h, cov in zip(Ps, g.noise.covariance_blocks):
        total += float(np.trace(P_h @ cov))
    return total
