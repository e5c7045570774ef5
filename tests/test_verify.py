import json

import numpy as np
import pytest

from lqgames import certify, verify
from lqgames.exact import ExactSolverConfig, outer_npg_exact
from lqgames.model import (StructuredGain, benchmark_game, benchmark_initial_gain,
                           scalar_demo_game, zero_gain)


def test_brute_force_matches_certify_scalar():
    g = scalar_demo_game()
    K = StructuredGain("K", [np.array([[0.5]])])
    L = StructuredGain("L", [np.array([[-0.1]])])
    assert verify.brute_force_value_oracle(g, K, L) == pytest.approx(
        certify.objective(g, K, L), abs=1e-12)


def test_brute_force_matches_certify_benchmark():
    g = benchmark_game()
    K = benchmark_initial_gain()
    L = zero_gain(g, "L")
    assert verify.brute_force_value_oracle(g, K, L) == pytest.approx(
        certify.objective(g, K, L), abs=1e-10)


def test_fd_gradient_matches_analytic():
    g = benchmark_game()
    K = benchmark_initial_gain()
    L = zero_gain(g, "L")
    for side in ("K", "L"):
        a = verify.analytic_gradient(g, K, L, side)
        f = verify.finite_diff_gradient(g, K, L, side)
        denom = max(1.0, a.frobenius_norm())
        assert (a - f).frobenius_norm() / denom <= 1e-6


def test_analytic_gradient_is_2FSigma():
    g = scalar_demo_game()
    K = StructuredGain("K", [np.array([[0.7]])])
    L = StructuredGain("L", [np.array([[0.1]])])
    F = certify.natural_gradients(g, K, L, "K")
    E = certify.natural_gradients(g, K, L, "L")
    S = certify.covariance_blocks(g, K, L)
    gK = verify.analytic_gradient(g, K, L, "K")
    assert gK.blocks[0] == pytest.approx(2 * F.blocks[0] * S[0][0, 0])
    gL = verify.analytic_gradient(g, K, L, "L")
    assert gL.blocks[0] == pytest.approx(2 * E.blocks[0] * S[0][0, 0])


def test_gradient_domination_at_interior_point():
    game = benchmark_game()
    sol = certify.solve_nash(game)
    rep = verify.check_gradient_domination(game, benchmark_initial_gain(), sol.value)
    assert rep.passed


def test_descent_along_exact_run():
    game = scalar_demo_game()
    cfg = ExactSolverConfig(inner_mode="exact", tau2=0.05, T=20)
    K = StructuredGain("K", [np.array([[0.8]])])
    br = certify.best_response_L(game, K)
    for _ in range(10):
        F = certify.natural_gradients(game, K, br.L, "K")
        K_next = K - F.scale(0.05)
        rep = verify.check_descent(game, K, K_next, 0.05)
        assert rep.passed
        K = K_next
        br = certify.best_response_L(game, K)


def test_random_game_valid_and_deterministic():
    g1 = verify.random_game(np.random.default_rng(5), m=2, d=2, n=1, horizon=3)
    g2 = verify.random_game(np.random.default_rng(5), m=2, d=2, n=1, horizon=3)
    for a, b in zip(g1.A, g2.A):
        assert np.array_equal(a, b)
    certify.solve_nash(g1)  # must be a feasible instance


def test_random_feasible_gain_is_feasible():
    rng = np.random.default_rng(9)
    g = verify.random_game(rng)
    sol = certify.solve_nash(g)
    for _ in range(5):
        K = verify.random_feasible_gain(g, sol.Kstar, rng)
        assert certify.best_response_L(g, K).feasible


def test_property_suite_all_green():
    reports = verify.run_property_suite(seed=0, instances=5, ordering_pairs=10)
    assert reports
    assert all(r.passed for r in reports)


def test_property_suite_deterministic():
    a = verify.run_property_suite(seed=3, instances=3, ordering_pairs=5)
    b = verify.run_property_suite(seed=3, instances=3, ordering_pairs=5)
    assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]


def test_reports_json_round_trip(tmp_path):
    reports = verify.run_property_suite(seed=1, instances=2, ordering_pairs=4)
    path = tmp_path / "reports.jsonl"
    verify.write_reports(reports, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(reports)
    doc = json.loads(lines[0])
    assert set(doc) >= {"name", "instance", "passed", "margins", "tolerance", "seed"}
    table = verify.summary_table(reports)
    assert "0 failing" in table


def test_property_suite_one_best_response_per_gain(monkeypatch):
    # the descent check's 20 iterates and the adversarial instance: one
    # best response each
    calls = []
    best_response_L = certify.best_response_L

    def counting(game, K):
        calls.append(K)
        return best_response_L(game, K)

    monkeypatch.setattr(certify, "best_response_L", counting)
    verify.run_property_suite(seed=0, instances=0)
    assert len(calls) <= 22
