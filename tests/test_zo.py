import dataclasses

import numpy as np
import pytest

from lqgames import certify, zo
from lqgames.model import (NoiseModel, StructuredGain, benchmark_game,
                           benchmark_initial_gain, isotropic_noise, lift_gain,
                           scalar_demo_game, zero_gain)
from lqgames.sim import RngStream, batch_rollout, mean_covariance_blocks


def k_half():
    return lift_gain([np.array([[0.5]])], side="K")


def test_config_validation():
    with pytest.raises(ValueError):
        zo.ZoConfig(r2=0.0)
    with pytest.raises(ValueError):
        zo.ZoConfig(M1=0)
    with pytest.raises(ValueError):
        zo.ZoConfig(gate_policy="drop")


@pytest.mark.parametrize("bad", [
    {"tau2": float("nan")}, {"r1": float("inf")}, {"tau1": float("inf")},
    {"M1": 10.5}, {"M2": 1e4}, {"T": 2.5}, {"T_in": "10"}, {"M1": True},
])
def test_config_rejects_nonfinite_and_noninteger(bad):
    with pytest.raises(ValueError):
        zo.ZoConfig(**bad)


def test_gain_dims():
    g = benchmark_game()
    assert zo.gain_dims(g, "K") == (3, 3, 45)
    assert zo.gain_dims(g, "L") == (3, 3, 45)
    s = scalar_demo_game()
    assert zo.gain_dims(s, "L") == (1, 1, 1)


def test_sphere_samples_unit_norm():
    g = benchmark_game()
    U = zo.sample_unit_sphere(g, "K", 128, RngStream(0).generator())
    assert U.shape == (128, 5, 3, 3)
    norms = np.linalg.norm(U.reshape(128, -1), axis=1)
    assert np.allclose(norms, 1.0)


def test_sphere_second_moment_isotropic():
    g = scalar_demo_game()
    U = zo.sample_unit_sphere(g, "L", 200_000, RngStream(1).generator())
    flat = U.reshape(200_000, -1)
    second = flat.T @ flat / 200_000
    # dim = 1: the draw is +-1 with equal probability, second moment exactly 1
    assert second[0, 0] == pytest.approx(1.0)
    assert abs(flat.mean()) <= 3.0 / np.sqrt(200_000)


def test_zo_gradient_single_sample_identity():
    # deterministic-zero noise: estimate is exactly (dim / r) * cost * U
    g = scalar_demo_game(deterministic=True)
    K, L = k_half(), zero_gain(scalar_demo_game(), "L")
    r = 0.1
    est = zo.zo_gradient(g, K, L, "L", r, 1, RngStream(9).generator())
    rng = RngStream(9).generator()
    U = zo.sample_unit_sphere(g, "L", 1, rng)
    costs, _ = batch_rollout(g, K, L, 1, rng, L_perturb=r * U)
    assert est.blocks[0] == pytest.approx((1.0 / r) * costs[0] * U[0, 0])


def test_zo_gradient_unbiased_scalar():
    # frozen oracle: grad_L G at (K=0.5, L=0) is 2 E Sigma = -0.5 at stage 0
    g = scalar_demo_game(deterministic=True)
    K, L = k_half(), zero_gain(scalar_demo_game(), "L")
    M = 200_000
    est = zo.zo_gradient(g, K, L, "L", 1e-3, M, RngStream(2).generator())
    # standard error of the single-point estimator ~ (d/r) * E[c] / sqrt(M)
    se = (1.0 / 1e-3) * 1.5 / np.sqrt(M)
    assert abs(est.blocks[0][0, 0] - (-0.5)) <= 3.0 * se


def test_zo_gradient_structured_output():
    g = benchmark_game()
    est = zo.zo_gradient(g, benchmark_initial_gain(), zero_gain(g, "L"),
                         "K", 0.1, 16, RngStream(0).generator())
    assert isinstance(est, StructuredGain)
    assert est.side == "K"
    assert est.blocks.shape == (g.horizon, g.d, g.m)


def test_natural_step_inverts_covariance():
    rng = np.random.default_rng(0)
    blocks = tuple(rng.standard_normal((1, 2)) for _ in range(3))
    grad = StructuredGain("K", blocks)
    a = rng.standard_normal((4, 2, 2))
    cov = a @ a.transpose(0, 2, 1) + np.eye(2)
    step = zo.natural_step(grad, cov)
    for h, b in enumerate(step.blocks):
        assert np.allclose(b @ cov[h], grad.blocks[h])


def test_covariance_gate_regularize():
    g = benchmark_game()
    rank_one = np.zeros((6, 3, 3))
    fixed, gated = zo._apply_covariance_gate(g, rank_one, "regularize")
    assert gated
    lam = min(np.linalg.eigvalsh(b).min() for b in fixed)
    assert lam >= g.noise.phi / 2 - 1e-12


def test_covariance_gate_pass_through():
    g = benchmark_game()
    good = np.array([np.eye(3)] * 6)
    fixed, gated = zo._apply_covariance_gate(g, good, "regularize")
    assert not gated
    assert np.array_equal(fixed, good)


def test_reject_and_resample_raises_after_two_failures():
    # M = 1 gives rank-one covariance blocks, so the gate always trips
    g = benchmark_game()
    cfg = zo.ZoConfig(M1=1, M2=1, T_in=1, gate_policy="reject-and-resample")
    with pytest.raises(zo.CovarianceGateError):
        zo.inner_zo_oracle(g, benchmark_initial_gain(), zero_gain(g, "L"),
                           cfg, RngStream(0))


def test_inner_oracle_tracks_best_response_scalar():
    # the single-point estimator noise floor at M1=2000 is ~0.1; see the
    # batch-scaling companion test for the tighter large-M bound
    g = scalar_demo_game()
    K = k_half()
    br = certify.best_response_L(g, K)
    cfg = zo.ZoConfig(r1=0.05, M1=2000, T_in=50, tau1=0.2)
    hits = 0
    for seed in range(10):
        L, samples, _ = zo.inner_zo_oracle(g, K, zero_gain(g, "L"), cfg, RngStream(seed))
        assert samples == 2 * 2000 * 50
        if abs(L.blocks[0][0, 0] - br.L.blocks[0][0, 0]) <= 0.25:
            hits += 1
    assert hits >= 8


def test_inner_oracle_error_shrinks_with_batch():
    g = scalar_demo_game()
    K = k_half()
    br = certify.best_response_L(g, K)
    cfg = zo.ZoConfig(r1=0.05, M1=100_000, T_in=50, tau1=0.2)
    L, *_ = zo.inner_zo_oracle(g, K, zero_gain(g, "L"), cfg, RngStream(0))
    assert abs(L.blocks[0][0, 0] - br.L.blocks[0][0, 0]) <= 0.03


def test_inner_oracle_deterministic():
    g = scalar_demo_game()
    cfg = zo.ZoConfig(r1=0.05, M1=500, T_in=5, tau1=0.2)
    a, *_ = zo.inner_zo_oracle(g, k_half(), zero_gain(g, "L"), cfg, RngStream(4))
    b, *_ = zo.inner_zo_oracle(g, k_half(), zero_gain(g, "L"), cfg, RngStream(4))
    assert np.array_equal(a.blocks[0], b.blocks[0])


def test_outer_zo_stays_near_nash_scalar():
    g = scalar_demo_game()
    sol = certify.solve_nash(g)
    cfg = zo.ZoConfig(r1=0.05, r2=0.05, M1=2000, M2=2000, tau1=0.2,
                      tau2=0.05, T_in=10, T=10, seed=0)
    K, trace = zo.outer_zo_npg(g, sol.Kstar, cfg, nash_value=sol.value)
    assert abs(K.blocks[0][0, 0] - sol.Kstar.blocks[0][0, 0]) <= 0.2
    assert trace.stochastic
    assert len(trace.rows) == 10
    inner = [r.samples_used_inner for r in trace.rows]
    outer = [r.samples_used_outer for r in trace.rows]
    assert all(b >= a for a, b in zip(inner, inner[1:]))
    assert all(b >= a for a, b in zip(outer, outer[1:]))


def test_outer_zo_deterministic_for_seed():
    g = scalar_demo_game()
    cfg = zo.ZoConfig(r1=0.05, r2=0.05, M1=500, M2=500, tau1=0.2,
                      tau2=0.05, T_in=3, T=4, seed=7)
    K1, t1 = zo.outer_zo_npg(g, k_half(), cfg)
    K2, t2 = zo.outer_zo_npg(g, k_half(), cfg)
    assert np.array_equal(K1.blocks[0], K2.blocks[0])
    assert t1.gaps() == t2.gaps()


def test_smoothed_objective_reference_matches_estimator():
    # exact-model MC reference and rollout estimator agree in expectation
    g = scalar_demo_game(deterministic=True)
    K, L = k_half(), zero_gain(scalar_demo_game(), "L")
    ref = zo.smoothed_objective_fd(g, K, L, "L", 0.05, 50_000,
                                   RngStream(3).generator())
    est = zo.zo_gradient(g, K, L, "L", 0.05, 200_000, RngStream(4).generator())
    assert abs(ref.blocks[0][0, 0] - est.blocks[0][0, 0]) <= 0.05


def _serial_estimate_step(game, K, L, side, r, count, stream, policy):
    """The estimation round with every draw taken from a plain generator, in turn."""
    gate_hits = samples = 0
    for attempt in range(2):
        grad = zo.zo_gradient(game, K, L, side, r, count,
                              stream.child(zo._COST, attempt).generator())
        _, states = batch_rollout(game, K, L, count,
                                  stream.child(zo._COV, attempt).generator(),
                                  return_states=True)
        samples += 2 * count
        cov, gated = zo._apply_covariance_gate(game, mean_covariance_blocks(states), policy)
        gate_hits += gated
        if gated and policy == "reject-and-resample":
            if attempt == 0:
                continue
            raise zo.CovarianceGateError("covariance gate failed twice")
        return zo.natural_step(grad, cov).scale(0.5), gate_hits, samples


def _tiny_bound_game():
    """Truncated-Gaussian noise whose bound rejects about half the draws."""
    g = benchmark_game()
    blocks = np.broadcast_to(0.05 * np.eye(g.m), (g.horizon + 1, g.m, g.m))
    noise = NoiseModel(kind="truncated-gaussian", covariance_blocks=blocks,
                       bound=float(np.sqrt(0.05 * 2.4)))
    return dataclasses.replace(g, noise=noise)


@pytest.mark.parametrize("case", ["tiny-bound", "scaled-uniform", "count-1", "resample"])
@pytest.mark.parametrize("side", ["K", "L"])
def test_estimate_step_matches_serial_draws(case, side):
    # the gradient stream's normals are drawn ahead on a helper thread; the
    # step, gate hits and sample counts stay bitwise those of serial draws
    g, count, stream, policy = benchmark_game(), 300, RngStream(12, (0, 3)), "regularize"
    expect_hits = 0
    if case == "tiny-bound":
        g = _tiny_bound_game()
        # rejection redraws run, so the gradient rollout reads past the buffer
        a, b = RngStream(1).generator(), RngStream(1).generator()
        g.noise.sample(count, a)
        b.standard_normal(count * g.noise.normals_per_sample)
        assert not np.array_equal(a.standard_normal(5), b.standard_normal(5))
        expect_hits = 1  # truncation shrinks the covariance below phi/2
    elif case == "scaled-uniform":
        g = dataclasses.replace(g, noise=isotropic_noise(g.m, g.horizon, kind="scaled-uniform"))
    elif case == "count-1":
        count, expect_hits = 1, 1  # rank-one covariance: the gate regularizes
    else:
        # the first attempt's covariance fails the gate, the second passes
        count, stream, policy, expect_hits = 20, RngStream(12, (0, 1)), "reject-and-resample", 1
    K, L = benchmark_initial_gain(), lift_gain([0.1 * np.ones((g.n, g.m))] * g.horizon, side="L")
    step, hits, samples = zo._estimate_step(g, K, L, side, 0.2, count, stream, policy)
    ref, ref_hits, ref_samples = _serial_estimate_step(g, K, L, side, 0.2, count, stream, policy)
    assert np.array_equal(step.blocks, ref.blocks)
    assert (hits, samples) == (ref_hits, ref_samples)
    assert hits == expect_hits
