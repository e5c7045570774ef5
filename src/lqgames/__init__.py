"""Finite-horizon zero-sum linear-quadratic games.

Exact Nash solutions via a generalized Riccati recursion, nested natural
policy gradient solvers (exact and sampled zeroth-order), and executable
verification of the underlying structural identities.
"""

from .certify import (BestResponse, NashInfeasibleError, NashSolution,
                      ValueCertificate, best_response_L, certificate,
                      feasible_best_response, in_Khat_set, khat_bound,
                      natural_gradients, objective, solve_nash)
from .exact import DivergenceError, ExactSolverConfig, inner_npg_exact, outer_npg_exact
from .model import (LqGame, ModelError, NoiseModel, StructuredGain,
                    benchmark_game, benchmark_initial_gain, deterministic_noise,
                    isotropic_noise, load_game, resolve_game,
                    save_game, scalar_demo_game, time_invariant_game, zero_gain)
from .sim import RngStream, batch_rollout
from .trace import RunTrace, TraceRow
from .verify import (CheckReport, brute_force_value_oracle, check_descent,
                     check_gradient_domination, finite_diff_gradient,
                     run_property_suite)
from .zo import CovarianceGateError, ZoConfig, inner_zo_oracle, outer_zo_npg, zo_gradient

__version__ = "0.1.0"

__all__ = [
    "BestResponse", "CheckReport", "CovarianceGateError", "DivergenceError",
    "ExactSolverConfig", "LqGame", "ModelError", "NashInfeasibleError",
    "NashSolution", "NoiseModel", "RngStream", "RunTrace", "StructuredGain",
    "TraceRow", "ValueCertificate", "ZoConfig", "batch_rollout",
    "benchmark_game", "benchmark_initial_gain", "best_response_L",
    "brute_force_value_oracle", "certificate", "check_descent",
    "check_gradient_domination", "deterministic_noise",
    "feasible_best_response", "finite_diff_gradient", "in_Khat_set", "khat_bound",
    "inner_npg_exact", "inner_zo_oracle", "isotropic_noise",
    "load_game", "natural_gradients", "objective",
    "outer_npg_exact", "outer_zo_npg", "resolve_game",
    "run_property_suite", "save_game", "scalar_demo_game", "solve_nash",
    "time_invariant_game", "zero_gain", "zo_gradient",
]
