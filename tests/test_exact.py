import numpy as np
import pytest

from lqgames import certify, exact
from lqgames.exact import (DivergenceError, ExactSolverConfig, inner_npg_exact,
                           outer_npg_exact)
from lqgames.model import (StructuredGain, benchmark_game, benchmark_initial_gain,
                           scalar_demo_game, zero_gain)
from lqgames.zo import ZoConfig, outer_zo_npg


@pytest.fixture(scope="module")
def scalar():
    return scalar_demo_game()


def test_config_validation():
    with pytest.raises(ValueError):
        ExactSolverConfig(tau2=0.0)
    with pytest.raises(ValueError):
        ExactSolverConfig(inner_mode="bogus")


@pytest.mark.parametrize("bad", [
    {"tau1": float("nan")}, {"tau2": float("inf")}, {"eps1": float("nan")},
    {"stop_gap": float("nan")}, {"T": 2.5}, {"T_in": 3.0}, {"inner_cap": "100"},
])
def test_config_rejects_nonfinite_and_noninteger(bad):
    with pytest.raises(ValueError):
        ExactSolverConfig(**bad)


def test_inner_one_step_scalar(scalar):
    # L1 = L0 + tau1 * E = 0 + 0.1 * (-0.25)
    K = StructuredGain("K", [np.array([[0.5]])])
    cfg = ExactSolverConfig(tau1=0.1, inner_mode="fixed", T_in=1)
    L, gaps, _ = inner_npg_exact(scalar, K, zero_gain(scalar, "L"), cfg)
    assert L.blocks[0][0, 0] == pytest.approx(-0.025)
    assert len(gaps) == 2  # pre-update gap plus the post-loop gap


def test_inner_gap_mode_converges(scalar):
    K = StructuredGain("K", [np.array([[0.5]])])
    cfg = ExactSolverConfig(tau1=0.1, inner_mode="gap", eps1=1e-10)
    L, gaps, _ = inner_npg_exact(scalar, K, zero_gain(scalar, "L"), cfg)
    br = certify.best_response_L(scalar, K)
    assert abs(L.blocks[0][0, 0] - br.L.blocks[0][0, 0]) <= 1e-4
    assert gaps[-1] <= 1e-10
    # monotone ascent toward the best response value
    assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))


def test_inner_stationary_at_best_response(scalar):
    K = StructuredGain("K", [np.array([[0.5]])])
    br = certify.best_response_L(scalar, K)
    cfg = ExactSolverConfig(inner_mode="gap", eps1=1e-8)
    L, gaps, _ = inner_npg_exact(scalar, K, br.L, cfg)
    assert len(gaps) == 1  # already within tolerance, no iterations needed
    assert L.blocks[0][0, 0] == pytest.approx(br.L.blocks[0][0, 0])


def test_outer_scalar_converges_to_nash(scalar):
    sol = certify.solve_nash(scalar)
    K0 = StructuredGain("K", [np.array([[0.8]])])
    cfg = ExactSolverConfig(inner_mode="exact", tau2=0.2, T=200)
    K, trace = outer_npg_exact(scalar, K0, cfg, nash_value=sol.value)
    assert abs(K.blocks[0][0, 0] - sol.Kstar.blocks[0][0, 0]) <= 1e-8
    assert trace.final_gap() <= 1e-8


def test_outer_stationary_at_nash(scalar):
    sol = certify.solve_nash(scalar)
    cfg = ExactSolverConfig(inner_mode="exact", tau2=0.2, T=5)
    K, trace = outer_npg_exact(scalar, sol.Kstar, cfg, nash_value=sol.value)
    assert abs(K.blocks[0][0, 0] - sol.Kstar.blocks[0][0, 0]) <= 1e-12
    assert all(g <= 1e-12 for g in trace.gaps())


def test_outer_monotone_gap_benchmark():
    game = benchmark_game()
    cfg = ExactSolverConfig(inner_mode="exact", tau2=4.67e-4, T=100)
    _, trace = outer_npg_exact(game, benchmark_initial_gain(), cfg)
    gaps = trace.gaps()
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert all(row.in_Khat for row in trace.rows)


def test_outer_stop_gap_short_circuits():
    game = benchmark_game()
    cfg = ExactSolverConfig(inner_mode="exact", tau2=4.67e-4, T=10_000,
                            stop_gap=1.0)
    _, trace = outer_npg_exact(game, benchmark_initial_gain(), cfg)
    assert len(trace.rows) < 10_000
    assert trace.final_gap() <= 1.0


def _exact_run(tau2):
    cfg = ExactSolverConfig(inner_mode="exact", tau2=tau2, T=50)
    return outer_npg_exact(benchmark_game(), benchmark_initial_gain(), cfg)


def _zo_run(tau2):
    cfg = ZoConfig(r1=2.0, r2=0.18, M1=1000, M2=1000, T_in=2, tau2=tau2, T=50)
    return outer_zo_npg(benchmark_game(), benchmark_initial_gain(), cfg)


@pytest.mark.parametrize("run", [_exact_run, _zo_run], ids=["exact", "zo"])
def test_outer_divergence_guard(run):
    with pytest.raises(DivergenceError) as exc:
        run(2e-3)
    assert len(exc.value.trace.rows) >= 1  # partial trace preserved


def test_outer_fixed_inner_mode_tracks_exact(scalar):
    sol = certify.solve_nash(scalar)
    K0 = StructuredGain("K", [np.array([[0.8]])])
    cfg = ExactSolverConfig(inner_mode="fixed", T_in=50, tau1=0.1,
                            tau2=0.2, T=200)
    K, trace = outer_npg_exact(scalar, K0, cfg, nash_value=sol.value)
    assert trace.final_gap() <= 1e-6


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(certify, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(certify, name, counted)
    return calls


@pytest.mark.parametrize("inner_mode", ["exact", "gap"])
def test_outer_one_best_response_per_iterate(scalar, monkeypatch, inner_mode):
    sol = certify.solve_nash(scalar)
    K0 = StructuredGain("K", [np.array([[0.8]])])
    calls = _count_calls(monkeypatch, "best_response_L")
    cfg = ExactSolverConfig(inner_mode=inner_mode, tau2=0.2, T=5)
    _, trace = outer_npg_exact(scalar, K0, cfg, nash_value=sol.value)
    assert len(trace.rows) == 5
    assert len(calls) == 5 + 1  # the anchor plus one per row


def test_outer_zo_one_best_response_per_iterate(monkeypatch):
    g = scalar_demo_game()
    sol = certify.solve_nash(g)
    calls = _count_calls(monkeypatch, "best_response_L")
    # radii 0.5 keep the batch-50 estimates tame: runs on all of 300 seeds tried complete
    cfg = ZoConfig(r1=0.5, r2=0.5, M1=50, M2=50, tau1=0.2, tau2=0.05, T_in=2, T=3)
    _, trace = outer_zo_npg(g, sol.Kstar, cfg, nash_value=sol.value)
    assert len(trace.rows) == 3
    assert len(calls) == 3 + 1


def test_inner_gap_mode_one_value_recursion_per_step(scalar, monkeypatch):
    K = StructuredGain("K", [np.array([[0.5]])])
    br = certify.best_response_L(scalar, K)
    calls = _count_calls(monkeypatch, "value_blocks")
    cfg = ExactSolverConfig(tau1=0.1, inner_mode="gap", eps1=1e-10)
    _, gaps, _ = inner_npg_exact(scalar, K, zero_gain(scalar, "L"), cfg, br)
    assert len(gaps) > 2
    # one per inner step plus the final check, each recording one gap
    assert len(calls) == len(gaps)


def test_outer_gap_mode_reuses_inner_value_blocks(scalar, monkeypatch):
    # the step's natural gradient reads the value blocks of the inner loop's
    # final gap check instead of recomputing them
    sol = certify.solve_nash(scalar)
    inner_gaps = []
    inner = exact.inner_npg_exact

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        inner_gaps.append(len(out[1]))
        return out

    monkeypatch.setattr(exact, "inner_npg_exact", recorded)
    calls = _count_calls(monkeypatch, "value_blocks")
    cfg = ExactSolverConfig(inner_mode="gap", tau1=0.1, eps1=1e-10, tau2=0.2, T=5)
    outer_npg_exact(scalar, StructuredGain("K", [np.array([[0.8]])]), cfg,
                    nash_value=sol.value)
    assert len(inner_gaps) == 5
    assert len(calls) == sum(inner_gaps)
