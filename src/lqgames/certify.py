"""Model-based value computation and the Riccati Nash solver.

All quantities decompose stage-wise thanks to the nilpotent lifted closed
loop: value matrices come from a backward recursion, state covariances from
a forward recursion, and the exact Nash solution from a generalized Riccati
difference recursion.  Every function works on the stacked stage arrays of
``LqGame`` and ``StructuredGain``: stage-wise terms are formed for all stages
at once, and only the recursions loop over the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .model import LqGame, StructuredGain

# "PSD" means lambda_min >= -PSD_TOL * (1 + ||.||); H is declared singular
# below PD_TOL relative to its norm.
PSD_TOL = 1e-10
PD_TOL = 1e-10


class NashInfeasibleError(RuntimeError):
    """The instance, or the named ``gain``, violates the saddle-point existence condition.

    A non-positive disturbance margin at some stage means the maximizer can
    profit without limit: against every gain (the upper value of the game is
    unbounded) or against the given one (the gain is infeasible).
    """

    def __init__(self, stage: int, lam_min: float, gain: str | None = None):
        self.stage = stage
        self.lam_min = lam_min
        condition = f"lambda_min(Rw - D'P*D) = {lam_min:.6e} <= 0"
        if gain is None:
            message = (f"existence condition fails at stage {stage}: {condition}; "
                       "the upper value of the game is unbounded")
        else:
            message = (f"{gain} is infeasible at stage {stage}: {condition}; "
                       "the maximizer's payoff against it is unbounded")
        super().__init__(message)


def _T(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _T(a))


def closed_loop_blocks(game: LqGame, K: StructuredGain, L: StructuredGain) -> np.ndarray:
    """Stage blocks of A - B K - D L, shape (N, m, m)."""
    return game.A - game.B @ K.blocks - game.D @ L.blocks


def stage_cost_blocks(game: LqGame, K: StructuredGain, L: StructuredGain) -> np.ndarray:
    """Blocks of Q + K'RuK - L'RwL, shape (N+1, m, m); the last is plain Q_N."""
    Kb, Lb = K.blocks, L.blocks
    M = game.Q.copy()
    M[:-1] += _T(Kb) @ game.Ru @ Kb - _T(Lb) @ game.Rw @ Lb
    return M


def value_blocks(game: LqGame, K: StructuredGain, L: StructuredGain) -> np.ndarray:
    """Backward recursion for the value matrix blocks P_0..P_N, shape (N+1, m, m)."""
    M = stage_cost_blocks(game, K, L)
    acl = closed_loop_blocks(game, K, L)
    P = np.empty_like(M)
    P[-1] = game.Q[-1]
    for h in range(game.horizon - 1, -1, -1):
        P[h] = _sym(M[h] + acl[h].T @ P[h + 1] @ acl[h])
    return P


def expected_cost(game: LqGame, P: np.ndarray) -> float:
    """Tr(P Sigma_0) for value blocks P: the expected total cost they price."""
    return float(np.einsum("hij,hji->", P, game.noise.covariance_blocks))


def covariance_blocks(game: LqGame, K: StructuredGain, L: StructuredGain) -> np.ndarray:
    """Forward recursion for the per-stage state second moments, shape (N+1, m, m)."""
    acl = closed_loop_blocks(game, K, L)
    cov = game.noise.covariance_blocks
    S = np.empty_like(cov)
    S[0] = cov[0]
    for h in range(game.horizon):
        S[h + 1] = _sym(acl[h] @ S[h] @ acl[h].T + cov[h + 1])
    return S


def objective(game: LqGame, K: StructuredGain, L: StructuredGain) -> float:
    """Tr(P Sigma_0), the expected total cost under (K, L)."""
    return expected_cost(game, value_blocks(game, K, L))


def natural_gradients(game: LqGame, K: StructuredGain, L: StructuredGain,
                      side: Literal["K", "L"], P: np.ndarray | None = None) -> StructuredGain:
    """Natural gradient F (side "K") or E (side "L"); raw gradients are 2 F Sigma, 2 E Sigma."""
    if P is None:
        P = value_blocks(game, K, L)
    Pn = P[1:]
    if side == "K":
        BtP = _T(game.B) @ Pn
        AL = game.A - game.D @ L.blocks
        return StructuredGain("K", (game.Ru + BtP @ game.B) @ K.blocks - BtP @ AL)
    DtP = _T(game.D) @ Pn
    AK = game.A - game.B @ K.blocks
    return StructuredGain("L", (DtP @ game.D - game.Rw) @ L.blocks - DtP @ AK)


@dataclass(frozen=True)
class ValueCertificate:
    """Everything the model-based path knows about a gain pair."""

    P_blocks: np.ndarray
    Sigma_blocks: np.ndarray
    F: StructuredGain
    E: StructuredGain
    H_blocks: np.ndarray
    objective: float

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "P_blocks": self.P_blocks.tolist(),
            "Sigma_blocks": self.Sigma_blocks.tolist(),
            "F_blocks": self.F.blocks.tolist(),
            "E_blocks": self.E.blocks.tolist(),
            "H_blocks": self.H_blocks.tolist(),
        }


def certificate(game: LqGame, K: StructuredGain, L: StructuredGain) -> ValueCertificate:
    P = value_blocks(game, K, L)
    S = covariance_blocks(game, K, L)
    F = natural_gradients(game, K, L, "K", P)
    E = natural_gradients(game, K, L, "L", P)
    H = game.Rw - _T(game.D) @ P[1:] @ game.D  # stage h uses P_{h+1}
    return ValueCertificate(P, S, F, E, H, expected_cost(game, P))


@dataclass(frozen=True)
class BestResponse:
    """Stage-wise inner maximizer L(K) with its value recursion.

    ``H_eigvals`` and ``P_eigvals`` hold the ascending eigenvalues of each
    margin block H_h = Rw_h - D_h' P_{h+1} D_h and value block P_h (NaN where
    a block is not finite), so set tests need no further decomposition.
    """

    L: StructuredGain
    P_blocks: np.ndarray
    H_blocks: np.ndarray
    H_eigvals: np.ndarray
    P_eigvals: np.ndarray
    feasible: bool
    violating_stage: int | None = None
    lam_min: float | None = None

    @property
    def min_margin(self) -> float:
        return float(self.H_eigvals[:, 0].min())


def _eigvalsh_finite(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric blocks; NaN for a non-finite input,
    on which LAPACK may raise or return finite values."""
    if np.isfinite(blocks).all():
        return np.linalg.eigvalsh(blocks)
    return np.full(blocks.shape[:-1], np.nan)


def _margin_ok(w: np.ndarray) -> np.ndarray:
    """Positive definiteness of margin blocks from their ascending eigenvalues ``w``."""
    return w[..., 0] > PD_TOL * (1.0 + np.maximum(-w[..., 0], w[..., -1]))


def _best_response_pass(game: LqGame, K: StructuredGain, checked: bool) -> BestResponse:
    """One backward recursion of ``best_response_L``.  ``checked`` tests each margin
    before its solve; unchecked, all are tested in one batch at the end, which gives
    the same bits when every test passes and else only a meaningful ``feasible``."""
    g = game
    N, m, n = g.horizon, g.m, g.n
    Kb = K.blocks
    AK = g.A - g.B @ Kb
    base = g.Q[:-1] + _T(Kb) @ g.Ru @ Kb
    Dt = _T(g.D)
    P = np.empty_like(g.Q)
    P[N] = g.Q[N]
    Lb = np.zeros((N, n, m))
    Hb = np.empty_like(g.Rw)
    wH = np.empty((N, n))
    rhs = np.empty((n, 2 * m))
    feasible, stage, lam_bad = True, None, None
    for h in range(N - 1, -1, -1):
        Pn = P[h + 1]
        DtP = Dt[h] @ Pn
        H = Hb[h] = _sym(g.Rw[h] - DtP @ g.D[h])
        if checked:
            w = wH[h] = _eigvalsh_finite(H)
            if not _margin_ok(w):
                feasible = False
                stage = h
                lam_bad = float(w[0])
                # keep recursing with the unregularized value so the report is
                # complete, but skip the (ill-defined) response at this stage
                P[h] = _sym(base[h] + AK[h].T @ Pn @ AK[h])
                continue
        # one solve for H^-1 D'P and H^-1 D'P AK (the same bits as two)
        rhs[:, :m] = DtP
        rhs[:, m:] = DtP @ AK[h]
        X = np.linalg.solve(H, rhs)
        Lb[h] = -X[:, m:]
        Ptil = _sym(Pn + DtP.T @ X[:, :m])
        P[h] = _sym(base[h] + AK[h].T @ Ptil @ AK[h])
    if not checked:
        wH = _eigvalsh_finite(Hb)
        feasible = bool(_margin_ok(wH).all())
    wP = _eigvalsh_finite(P)
    if feasible:
        bad = ~(wP[:, 0] >= -PSD_TOL * (1.0 + np.abs(wP).max(axis=1)))
        if bad.any():
            feasible = False
            stage = int(np.argmax(bad))
            lam_bad = float(wP[stage, 0])
    return BestResponse(L=StructuredGain("L", Lb), P_blocks=P, H_blocks=Hb, H_eigvals=wH,
                        P_eigvals=wP, feasible=feasible, violating_stage=stage, lam_min=lam_bad)


def best_response_L(game: LqGame, K: StructuredGain) -> BestResponse:
    """Exact inner maximization via the stage-wise Riccati recursion.

    Returns ``feasible=False`` (never raises or warns) when some stage margin
    Rw - D'PD fails to be positive definite, the value recursion leaves the
    PSD cone, or a margin or value block is not finite (``lam_min`` is then
    NaN).  ||H||_2 and ||P||_2 are the largest |eigenvalue| of the blocks.
    A failed test, or a solve that raises, in the unchecked pass reruns the
    recursion checked per stage, whose report is returned.
    """
    with np.errstate(all="ignore"):
        try:
            br = _best_response_pass(game, K, checked=False)
            if br.feasible:
                return br
        except np.linalg.LinAlgError:
            pass
        return _best_response_pass(game, K, checked=True)


def feasible_best_response(game: LqGame, K: StructuredGain,
                           name: str = "the gain K") -> BestResponse:
    """``best_response_L``, raising NashInfeasibleError naming K when K is infeasible."""
    br = best_response_L(game, K)
    if not br.feasible:
        raise NashInfeasibleError(br.violating_stage or 0, br.lam_min or 0.0, gain=name)
    return br


@dataclass(frozen=True)
class NashSolution:
    Pstar_blocks: np.ndarray
    Kstar: StructuredGain
    Lstar: StructuredGain
    value: float
    margin: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "margin": self.margin,
            "Kstar_blocks": self.Kstar.blocks.tolist(),
            "Lstar_blocks": self.Lstar.blocks.tolist(),
            "Pstar_blocks": self.Pstar_blocks.tolist(),
        }


def solve_nash(game: LqGame) -> NashSolution:
    """Exact Nash equilibrium via the generalized Riccati difference recursion.

    Gains are recovered per stage by eliminating the maximizer's first-order
    condition, then the result is post-verified for stationarity.
    """
    g = game
    N = g.horizon
    # B Ru^-1 B' - D Rw^-1 D' for every stage
    coupling = g.B @ np.linalg.solve(g.Ru, _T(g.B)) - g.D @ np.linalg.solve(g.Rw, _T(g.D))
    P = np.empty_like(g.Q)
    P[N] = g.Q[N]
    Kb = np.empty((N, g.d, g.m))
    Lb = np.empty((N, g.n, g.m))
    margin = np.inf
    for h in range(N - 1, -1, -1):
        Pn = P[h + 1]
        wP = np.linalg.eigvalsh(Pn)
        H = _sym(g.Rw[h] - g.D[h].T @ Pn @ g.D[h])
        lamH = float(np.linalg.eigvalsh(H)[0])
        lamP = float(wP[0])
        if lamH <= 0.0 or lamP < -PSD_TOL * (1.0 + float(np.abs(wP).max())):
            raise NashInfeasibleError(h, lamH if lamH <= 0.0 else lamP)
        margin = min(margin, lamH)
        Lam = np.eye(g.m) + coupling[h] @ Pn
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
    Kstar = StructuredGain("K", Kb)
    Lstar = StructuredGain("L", Lb)
    value = expected_cost(g, P)
    F = natural_gradients(g, Kstar, Lstar, "K", P)
    E = natural_gradients(g, Kstar, Lstar, "L", P)
    resF, resE = F.frobenius_norm(), E.frobenius_norm()
    if max(resF, resE) > 1e-8 * (1.0 + abs(value)):
        raise np.linalg.LinAlgError(
            f"Nash gain recovery failed stationarity check: |F|={resF:.3e}, |E|={resE:.3e}")
    return NashSolution(P, Kstar, Lstar, value, float(margin))


def khat_bound(game: LqGame, K0_certificate: BestResponse) -> np.ndarray:
    """Upper blocks P_0 + lambda_min(H_0) / (2 |D|^2) * I of the anchored set.

    Fixed by the anchor, so a run computes them once.
    """
    norm_D = float(np.linalg.norm(game.D, 2, axis=(1, 2)).max())
    shift = K0_certificate.min_margin / (2.0 * norm_D ** 2)
    return K0_certificate.P_blocks + shift * np.eye(game.m)


def in_Khat_set(br: BestResponse, bound_blocks: np.ndarray) -> bool:
    """Whether the gain certified by ``br`` lies in the anchored sublevel set.

    Tests P_{K,L(K)} <= ``bound_blocks`` (from ``khat_bound``) blockwise by
    eigenvalue decomposition of the differences.  A feasible ``br`` already
    certifies P_{K,L(K)} >= 0, and an infeasible one is outside the set.
    """
    if not br.feasible:
        return False
    slack = np.linalg.eigvalsh(_sym(bound_blocks - br.P_blocks))[:, 0].min()
    return bool(slack >= -PSD_TOL * (1.0 + np.abs(br.P_eigvals).max()))
