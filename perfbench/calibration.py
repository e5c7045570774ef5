"""Fixed reference computation that measures how fast the machine runs now.

The host this benchmark was built on changes speed by up to 2x within
seconds, as other tenants load it, so a round's wall time alone moves with
the host as much as with the program.  ``Calibration`` times a fixed piece of work that shares
nothing with ``lqgames``: the reference best-response value of the
horizon-10 game (small per-stage numpy algebra in a Python loop, as in the
exact solvers) and a batch of Gaussian draws and (20000 x 3) array products
(as in the ZO rollouts).  The solver process runs it before every round and
after the last one, and ``run.py`` rescales each round's wall time by the
calibration times around it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from reference import load_game, primal_value

HERE = Path(__file__).resolve().parent

# repetitions of each part; together they take a median 0.3 s on a 2.1-GHz
# Xeon vCPU (run.CALIBRATION_REF_S)
SMALL_REPS = 300
BATCH_REPS = 80
BATCH_SHAPE = (20000, 3)


class Calibration:
    def __init__(self):
        self.game = load_game(HERE / "games" / "h10.json")
        cfg = json.loads((HERE / "configs" / "exact_nested_h10.json").read_text())
        self.K = [np.array(b) for b in cfg["initial_gain"]]
        self.A = self.game["A"][0]
        self()  # warm-up: first calls into numpy.linalg pay lazy set-up

    def __call__(self) -> float:
        """Seconds the fixed work takes now."""
        t0 = time.perf_counter()
        for _ in range(SMALL_REPS):
            primal_value(self.game, self.K)
        rng = np.random.default_rng(0)
        for _ in range(BATCH_REPS):
            X = rng.standard_normal(BATCH_SHAPE)
            Y = X @ self.A.T
            Y += X
            (Y * Y).sum(axis=0)
        return time.perf_counter() - t0
