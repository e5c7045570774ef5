"""Finite-horizon zero-sum linear-quadratic games.

Exact Nash solutions via a generalized Riccati recursion, nested natural
policy gradient solvers (exact and sampled zeroth-order), and executable
verification of the underlying structural identities.  The package exports
the game containers and their I/O, the solver entry points with their
configs, results and errors; the oracles they are built from live in their
modules.
"""

from .certify import NashInfeasibleError, NashSolution, solve_nash
from .exact import DivergenceError, ExactSolverConfig, outer_npg_exact
from .model import (LqGame, ModelError, NoiseModel, StructuredGain, benchmark_game,
                    benchmark_initial_gain, isotropic_noise, load_game, save_game,
                    time_invariant_game)
from .trace import RunTrace, TraceRow
from .verify import CheckReport, run_property_suite
from .zo import ZoConfig, outer_zo_npg

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "DivergenceError", "ExactSolverConfig", "LqGame", "ModelError",
    "NashInfeasibleError", "NashSolution", "NoiseModel", "RunTrace", "StructuredGain",
    "TraceRow", "ZoConfig", "benchmark_game", "benchmark_initial_gain", "isotropic_noise",
    "load_game", "outer_npg_exact", "outer_zo_npg", "run_property_suite", "save_game",
    "solve_nash", "time_invariant_game",
]
