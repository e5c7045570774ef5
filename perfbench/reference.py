"""Independent reference values for the benchmark's correctness checks.

These recursions share no code with ``lqgames``: games are read from the
saved-game JSON format with ``json`` and numpy alone, and the arithmetic takes
another route than the package does (a stacked saddle-point solve for the
Nash gains, an explicit maximizer gain plus policy evaluation for the best
response).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def load_game(path: Path) -> dict:
    """Stage matrices and noise covariances of a saved game file."""
    doc = json.loads(Path(path).read_text())
    stages = doc["stages"]
    game = {k: [np.array(s[k], dtype=float) for s in stages] for k in ("A", "B", "D", "Q", "Ru", "Rw")}
    game["Q"].append(np.array(doc["terminal_Q"], dtype=float))
    game["cov"] = [np.array(c, dtype=float) for c in doc["noise"]["covariance_blocks"]]
    game["N"] = len(stages)
    return game


def _expected_cost(game: dict, P: list[np.ndarray]) -> float:
    # row 0 of the noise covariances is x_0 (cost-to-go P_0); row h+1 is
    # the stage-h disturbance, which enters x_{h+1}
    return float(sum(np.sum(p * c) for p, c in zip(P, game["cov"])))


def nash_value(game: dict) -> float:
    """Saddle value by the generalized Riccati recursion.

    Each stage solves the joint first-order conditions of both players,
    [Ru + B'PB, B'PD; D'PB, D'PD - Rw] [K; L] = [B'PA; D'PA], and evaluates
    the closed loop A - BK - DL.
    """
    N = game["N"]
    P = [None] * (N + 1)
    P[N] = game["Q"][N]
    for h in range(N - 1, -1, -1):
        A, B, D = game["A"][h], game["B"][h], game["D"][h]
        Ru, Rw, Pn = game["Ru"][h], game["Rw"][h], P[h + 1]
        if np.linalg.eigvalsh(Rw - D.T @ Pn @ D).min() <= 0:
            raise ValueError(f"reference Nash recursion: no saddle point at stage {h}")
        BD = np.hstack([B, D])
        S = BD.T @ Pn @ BD
        d = B.shape[1]
        S[:d, :d] += Ru
        S[d:, d:] -= Rw
        KL = np.linalg.solve(S, BD.T @ Pn @ A)
        K, L = KL[:d], KL[d:]
        Acl = A - B @ K - D @ L
        Pc = game["Q"][h] + K.T @ Ru @ K - L.T @ Rw @ L + Acl.T @ Pn @ Acl
        P[h] = 0.5 * (Pc + Pc.T)
    return _expected_cost(game, P)


def primal_value(game: dict, K: list[np.ndarray]) -> float:
    """G(K, L(K)): the cost of K against the maximizer's exact best response.

    The maximizer's gain W (w = W x) comes from the stage-wise first-order
    condition, then the pair (K, W) is evaluated by its own Lyapunov-type
    recursion.
    """
    N = game["N"]
    P = [None] * (N + 1)
    P[N] = game["Q"][N]
    for h in range(N - 1, -1, -1):
        A, B, D = game["A"][h], game["B"][h], game["D"][h]
        Ru, Rw, Pn = game["Ru"][h], game["Rw"][h], P[h + 1]
        AK = A - B @ K[h]
        H = Rw - D.T @ Pn @ D
        if np.linalg.eigvalsh(H).min() <= 0:
            raise ValueError(f"reference best response: gain infeasible at stage {h}")
        W = np.linalg.solve(H, D.T @ Pn @ AK)
        Acl = AK + D @ W
        Pc = game["Q"][h] + K[h].T @ Ru @ K[h] - W.T @ Rw @ W + Acl.T @ Pn @ Acl
        P[h] = 0.5 * (Pc + Pc.T)
    return _expected_cost(game, P)
