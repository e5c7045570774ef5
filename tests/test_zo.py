import dataclasses
import sys
import threading

import numpy as np
import pytest

from helpers import first_index, smoothed_objective_fd, zo_gradient_samples
from lqgames import certify, zo
from lqgames.exact import _outer_descent
from lqgames.model import (NoiseModel, StructuredGain, benchmark_game,
                           benchmark_initial_gain, isotropic_noise,
                           scalar_demo_game, zero_gain)
from lqgames.sim import RngStream, batch_rollout, mean_covariance_blocks


def k_half():
    return StructuredGain("K", [np.array([[0.5]])])


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
    assert U.shape == (5, 3, 3, 128)
    norms = np.linalg.norm(U.reshape(-1, 128), axis=0)
    assert np.allclose(norms, 1.0)


def test_sphere_second_moment_isotropic():
    g = scalar_demo_game()
    U = zo.sample_unit_sphere(g, "L", 200_000, RngStream(1).generator())
    flat = U.reshape(-1, 200_000)
    second = flat @ flat.T / 200_000
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
    assert est.blocks[0] == pytest.approx((1.0 / r) * costs[0] * U[0, ..., 0])


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
    # on the scalar game the L-sphere is {-1, +1}, so the r-smoothed gradient
    # is exactly the central difference (G(L + r) - G(L - r)) / 2r of the model
    # objective; the rollout estimator and the exact-model Monte Carlo
    # reference each match it within three standard errors
    g = scalar_demo_game(deterministic=True)
    K, L, r = k_half(), zero_gain(g, "L"), 0.05
    plus, minus = (certify.objective(g, K, L + StructuredGain("L", [np.array([[s * r]])]))
                   for s in (1.0, -1.0))
    exact = (plus - minus) / (2 * r)
    count = 200_000
    samples = zo_gradient_samples(g, K, L, "L", r, count, RngStream(4).generator())[0]
    est = zo.zo_gradient(g, K, L, "L", r, count, RngStream(4).generator())
    assert est.blocks[0, 0, 0] == pytest.approx(samples.mean())
    assert abs(samples.mean() - exact) <= 3.0 * samples.std(ddof=1) / np.sqrt(count)
    # the reference averages G(L + r u) u / r over u = +-1, equally likely
    count = 50_000
    ref = smoothed_objective_fd(g, K, L, "L", r, count, RngStream(3).generator())
    se = np.sqrt(((plus ** 2 + minus ** 2) / (2 * r * r) - exact ** 2) / count)
    assert abs(ref.blocks[0, 0, 0] - exact) <= 3.0 * se


def _serial_estimate_step(game, K, L, side, r, count, stream, policy):
    """The estimation round with every draw taken from a plain generator, in turn.

    An attempt that fails the gate under ``reject-and-resample`` runs no
    gradient rollout.
    """
    gate_hits = samples = 0
    for attempt in range(2):
        _, states = batch_rollout(game, K, L, count,
                                  stream.child(zo._COV, attempt).generator(),
                                  return_states=True)
        cov, gated = zo._apply_covariance_gate(game, mean_covariance_blocks(states), policy)
        gate_hits += gated
        if gated and policy == "reject-and-resample":
            samples += count
            if attempt == 0:
                continue
            raise zo.CovarianceGateError("covariance gate failed twice")
        grad = zo.zo_gradient(game, K, L, side, r, count,
                              stream.child(zo._COST, attempt).generator())
        samples += 2 * count
        return zo.natural_step(grad, cov).scale(0.5), gate_hits, samples


def _gate_fails(game, K, L, count, stream, attempt):
    """Whether an attempt's covariance estimate fails the gate, drawn as in ``_estimate_step``."""
    _, states = batch_rollout(game, K, L, count, stream.child(zo._COV, attempt).generator(),
                              return_states=True)
    return zo._apply_covariance_gate(game, mean_covariance_blocks(states), "reject-and-resample")[1]


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
    K, L = benchmark_initial_gain(), StructuredGain("L", [0.1 * np.ones((g.n, g.m))] * g.horizon)
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
        # a stream whose first attempt's covariance fails the gate and whose second passes
        count, policy, expect_hits = 20, "reject-and-resample", 1
        k = first_index(lambda k: [_gate_fails(g, K, L, count, RngStream(12, (0, k)), attempt)
                                   for attempt in range(2)] == [True, False])
        assert k is not None
        stream = RngStream(12, (0, k))
    with zo._DrawAhead(g) as ahead:
        step, hits, samples = zo._estimate_step(g, K, L, side, 0.2, count, stream, policy, ahead)
    ref, ref_hits, ref_samples = _serial_estimate_step(g, K, L, side, 0.2, count, stream, policy)
    assert np.array_equal(step.blocks, ref.blocks)
    assert (hits, samples) == (ref_hits, ref_samples)
    assert hits == expect_hits
    # a rejected attempt spends only its covariance trajectories
    assert samples == (3 if case == "resample" else 2) * count


def _serial_outer_zo_npg(game, K0, cfg):
    """The outer loop with every estimation step drawn in turn by ``_serial_estimate_step``."""
    root = RngStream(cfg.seed)

    def serial_step(t, K, br):
        L, inner_used, inner_hits = zero_gain(game, "L"), 0, 0
        for k in range(cfg.T_in):
            step, hits, used = _serial_estimate_step(game, K, L, "L", cfg.r1, cfg.M1,
                                                     root.child(0, t).child(k), cfg.gate_policy)
            L = L + step.scale(cfg.tau1)
            inner_used, inner_hits = inner_used + used, inner_hits + hits
        step, hits, used = _serial_estimate_step(game, K, L, "K", cfg.r2, cfg.M2, root.child(1, t),
                                                 cfg.gate_policy)
        return step, (inner_used, used, inner_hits + hits)

    return _outer_descent(game, K0, serial_step, cfg.T, cfg.tau2, None, batch=(cfg.M1, cfg.M2))


def _completes_after_gate_hit(game, cfg):
    """Whether a serial run ends without stopping, after some attempt failed the gate."""
    try:
        _, trace = _serial_outer_zo_npg(game, benchmark_initial_gain(), cfg)
    except zo.CovarianceGateError:
        return False
    return trace.rows[-1].covariance_gate_hits > 0


@pytest.mark.parametrize("policy", ["regularize", "reject-and-resample"])
def test_outer_zo_npg_matches_serial_draws(policy):
    # every step's gradient stream is drawn one step ahead on a helper
    # thread; the iterate and the trace stay bitwise those of serial draws
    g = benchmark_game()
    if policy == "regularize":
        # desk radii at a stable batch: every covariance estimate passes the gate
        cfg = zo.ZoConfig(r1=2.0, r2=0.18, M1=2000, M2=2000, T_in=2, T=2)
    else:
        # batches of 50 fail the gate now and then, and stepsizes 100x below
        # desk keep the iterates feasible; take a seed where some step's first
        # attempt fails and its second passes
        cfg = zo.ZoConfig(r1=2.0, r2=0.18, M1=50, M2=50, tau1=4e-4, tau2=4.67e-6,
                          T_in=2, T=2, gate_policy=policy)
        seed = first_index(lambda s: _completes_after_gate_hit(g, dataclasses.replace(cfg, seed=s)))
        assert seed is not None
        cfg = dataclasses.replace(cfg, seed=seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as the interpreter allows
    try:
        K, trace = zo.outer_zo_npg(g, benchmark_initial_gain(), cfg)
    finally:
        sys.setswitchinterval(interval)
    ref_K, ref_trace = _serial_outer_zo_npg(g, benchmark_initial_gain(), cfg)
    assert np.array_equal(K.blocks, ref_K.blocks)

    def rows(tr):
        return [dataclasses.replace(row, wallclock_ms=0.0) for row in tr.rows]

    assert rows(trace) == rows(ref_trace)
    assert (trace.rows[-1].covariance_gate_hits > 0) == (policy == "reject-and-resample")


@pytest.mark.parametrize("case", ["ok", "divergence", "gate"])
def test_outer_zo_npg_joins_its_helper(case, monkeypatch):
    g = benchmark_game()
    cfg = {"ok": zo.ZoConfig(r1=2.0, r2=0.18, M1=2000, M2=2000, T_in=2, T=2),
           # an overflowing stepsize: iterate 1 is not finite
           "divergence": zo.ZoConfig(r1=2.0, r2=0.18, M1=2000, M2=2000, tau2=1e300, T_in=2, T=2),
           # M = 1 gives rank-one covariance blocks, so the gate fails both attempts
           "gate": zo.ZoConfig(M1=1, M2=1, T_in=1, T=1, gate_policy="reject-and-resample")}[case]
    before = threading.active_count()
    during = []

    def counting_covariance(*args):
        # every attempt estimates a covariance, a gated one before any gradient rollout
        during.append(threading.active_count())
        return mean_covariance(*args)

    mean_covariance = zo.mean_covariance_blocks
    monkeypatch.setattr(zo, "mean_covariance_blocks", counting_covariance)
    if case == "ok":
        zo.outer_zo_npg(g, benchmark_initial_gain(), cfg)
    else:
        with pytest.raises(zo.DivergenceError if case == "divergence" else zo.CovarianceGateError):
            zo.outer_zo_npg(g, benchmark_initial_gain(), cfg)
    assert set(during) == {before + 1}  # one helper for the whole run
    assert threading.active_count() == before


def test_outer_zo_npg_reraises_a_helper_error(monkeypatch):
    class DrawError(Exception):
        pass

    class FailingBufferDraws:
        """A stream's generator whose draws into a buffer, the helper's only call, raise."""

        def __init__(self, rng):
            self._rng = rng

        def standard_normal(self, size=None, out=None):
            if out is not None:
                raise DrawError(f"draw failed on {threading.current_thread().name}")
            return self._rng.standard_normal(size)

    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: FailingBufferDraws(generator(self)))
    cfg = zo.ZoConfig(M1=50, M2=50, T_in=1, T=1)
    before = threading.active_count()
    with pytest.raises(DrawError, match="on lqgames-draw-ahead"):
        zo.outer_zo_npg(benchmark_game(), benchmark_initial_gain(), cfg)
    assert threading.active_count() == before  # the helper is joined
