import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import monte_carlo_objective
from lqgames import certify, sim, zo
from lqgames.model import (NoiseModel, StructuredGain, benchmark_game,
                           benchmark_initial_gain, isotropic_noise, scalar_demo_game,
                           zero_gain)


def test_rng_stream_reproducible():
    a = sim.RngStream(0).child(1, 2).generator().standard_normal(5)
    b = sim.RngStream(0).child(1, 2).generator().standard_normal(5)
    assert np.array_equal(a, b)


def test_rng_stream_independent_indices():
    a = sim.RngStream(0).child(1, 2).generator().standard_normal(5)
    b = sim.RngStream(0).child(1, 3).generator().standard_normal(5)
    c = sim.RngStream(1).child(1, 2).generator().standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, indices", [(0, ()), (12, (0, 3)), (2**64 + 7, (1, 9, 0))])
def test_rng_stream_draws_sfc64_of_its_seed_sequence(seed, indices):
    # the bit generator fixes every ZO draw, so a change to it must fail here
    got = sim.RngStream(seed, indices).generator()
    seq = np.random.SeedSequence(entropy=seed, spawn_key=indices)
    ref = np.random.Generator(np.random.SFC64(seq))
    assert np.array_equal(got.bit_generator.random_raw(64), ref.bit_generator.random_raw(64))
    assert np.array_equal(got.standard_normal(1000), ref.standard_normal(1000))


def test_rollout_deterministic_noise():
    # fixed x0 = 1, zero process noise: trajectory and cost are exact
    g = scalar_demo_game(deterministic=True)
    K = StructuredGain("K", [np.array([[0.5]])])
    L = zero_gain(g, "L")
    costs, states = sim.batch_rollout(g, K, L, 1, sim.RngStream(0).generator(),
                                      return_states=True)
    # x0 = 1, u0 = -0.5, x1 = 1 - 0.5 = 0.5
    assert states[..., 0] == pytest.approx(np.array([[1.0], [0.5]]))
    # cost = x0^2 + u0^2 + x1^2 = 1 + 0.25 + 0.25
    assert costs[0] == pytest.approx(1.5)
    P = certify.value_blocks(g, K, L)
    assert costs[0] == pytest.approx(P[0][0, 0])


def test_batch_rollout_shapes():
    g = benchmark_game()
    K = benchmark_initial_gain()
    L = zero_gain(g, "L")
    costs, states = sim.batch_rollout(g, K, L, 64, sim.RngStream(0).generator(),
                                      return_states=True)
    assert costs.shape == (64,)
    assert states.shape == (g.horizon + 1, g.m, 64)


def test_batch_rollout_perturbation_offsets_gain():
    g = scalar_demo_game(deterministic=True)
    K = StructuredGain("K", [np.array([[0.3]])])
    L = zero_gain(g, "L")
    pert = np.full((g.horizon, 1, 1, 1), 0.2)
    costs, _ = sim.batch_rollout(g, K, L, 1, sim.RngStream(0).generator(),
                                 K_perturb=pert)
    K_shift = StructuredGain("K", [np.array([[0.5]])])
    expect, _ = sim.batch_rollout(g, K_shift, L, 1, sim.RngStream(0).generator())
    assert costs[0] == pytest.approx(expect[0])


def test_mean_cost_matches_objective():
    g = benchmark_game()
    K = benchmark_initial_gain()
    L = zero_gain(g, "L")
    mean, se = monte_carlo_objective(g, K, L, 200_000, sim.RngStream(17).generator())
    obj = certify.objective(g, K, L)
    assert abs(mean - obj) <= 3.0 * se
    assert se < 0.05


def test_mean_covariance_matches_model():
    g = benchmark_game()
    K = benchmark_initial_gain()
    L = zero_gain(g, "L")
    _, states = sim.batch_rollout(g, K, L, 100_000, sim.RngStream(5).generator(),
                                  return_states=True)
    blocks = sim.mean_covariance_blocks(states)
    S = certify.covariance_blocks(g, K, L)
    for a, b in zip(blocks, S):
        assert np.allclose(a, b, atol=6e-3 * (1 + np.linalg.norm(b)))
    gated_blocks, gated = zo._apply_covariance_gate(g, blocks, "regularize")
    assert not gated
    assert gated_blocks is blocks


def test_covariance_gate_flag_small_batch():
    # a single rollout gives rank-one blocks: lambda_min = 0 < phi/2
    g = benchmark_game()
    _, states = sim.batch_rollout(g, benchmark_initial_gain(), zero_gain(g, "L"), 1,
                                  sim.RngStream(0).generator(), return_states=True)
    _, gated = zo._apply_covariance_gate(g, sim.mean_covariance_blocks(states), "regularize")
    assert gated


def test_empirical_covariance_rank_one():
    # the mean second moment of a single trajectory is x_h x_h' per stage
    g = benchmark_game()
    _, states = sim.batch_rollout(g, benchmark_initial_gain(), zero_gain(g, "L"), 1,
                                  sim.RngStream(3).generator(), return_states=True)
    blocks = sim.mean_covariance_blocks(states)
    assert blocks.shape == (g.horizon + 1, g.m, g.m)
    for x, b in zip(states[..., 0], blocks):
        assert np.allclose(b, np.outer(x, x))
        assert np.linalg.matrix_rank(b) == 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000), count=st.integers(1, 32))
def test_batch_rollout_reproducible(seed, count):
    g = benchmark_game()
    K = benchmark_initial_gain()
    L = zero_gain(g, "L")
    c1, s1 = sim.batch_rollout(g, K, L, count, sim.RngStream(seed).generator(),
                               return_states=True)
    c2, s2 = sim.batch_rollout(g, K, L, count, sim.RngStream(seed).generator(),
                               return_states=True)
    assert np.array_equal(c1, c2)
    assert np.array_equal(s1, s2)


def _with_noise(game, kind, isotropic):
    """The benchmark game with isotropic or stage-varying full covariances."""
    rng = np.random.default_rng(11)
    if isotropic:
        noise = isotropic_noise(game.m, game.horizon, sigma=0.05, kind=kind)
    else:
        blocks = []
        for _ in range(game.horizon + 1):
            a = rng.standard_normal((game.m, game.m))
            blocks.append(0.02 * (a @ a.T) + 0.01 * np.eye(game.m))
        noise = NoiseModel(kind=kind, covariance_blocks=tuple(blocks),
                           bound=NoiseModel.default_bound(blocks))
    return dataclasses.replace(game, noise=noise)


def _reference_rollout(game, K, L, xi, K_perturb=None, L_perturb=None):
    """Per-sample loop over the plain formulas u = (K+dK)x, w = (L+dL)x,
    cost x'Qx + u'Ru u - w'Rw w, x' = Ax - Bu - Dw + xi."""
    count, N = xi.shape[2], game.horizon
    costs = np.zeros(count)
    states = np.empty_like(xi)
    for c in range(count):
        x = xi[0, :, c]
        for h in range(N):
            states[h, :, c] = x
            Kh = K.blocks[h] + (0.0 if K_perturb is None else K_perturb[h, ..., c])
            Lh = L.blocks[h] + (0.0 if L_perturb is None else L_perturb[h, ..., c])
            u, w = Kh @ x, Lh @ x
            costs[c] += x @ game.Q[h] @ x + u @ game.Ru[h] @ u - w @ game.Rw[h] @ w
            x = game.A[h] @ x - game.B[h] @ u - game.D[h] @ w + xi[h + 1, :, c]
        states[N, :, c] = x
        costs[c] += x @ game.Q[N] @ x
    return costs, states


@pytest.mark.parametrize("kind, isotropic", [("truncated-gaussian", True),
                                             ("truncated-gaussian", False),
                                             ("scaled-uniform", True),
                                             ("scaled-uniform", False)])
@pytest.mark.parametrize("perturbed", ["none", "K", "L", "both"])
def test_batch_rollout_matches_plain_formulas(kind, isotropic, perturbed):
    g = _with_noise(benchmark_game(), kind, isotropic)
    K = benchmark_initial_gain()
    L = StructuredGain("L", [0.1 * np.ones((g.n, g.m))] * g.horizon)
    count = 40
    rng = np.random.default_rng(3)
    perturb = {}
    if perturbed in ("K", "both"):
        perturb["K_perturb"] = 0.1 * rng.standard_normal((g.horizon, g.d, g.m, count))
    if perturbed in ("L", "both"):
        perturb["L_perturb"] = 0.1 * rng.standard_normal((g.horizon, g.n, g.m, count))
    costs, states = sim.batch_rollout(g, K, L, count, sim.RngStream(8).generator(),
                                      return_states=True, **perturb)
    xi = g.noise.sample(count, sim.RngStream(8).generator())
    ref_costs, ref_states = _reference_rollout(g, K, L, xi, **perturb)
    assert np.abs(costs - ref_costs).max() <= 1e-12 * np.abs(ref_costs).max()
    assert np.abs(states - ref_states).max() <= 1e-12 * np.abs(ref_states).max()
    plain, none = sim.batch_rollout(g, K, L, count, sim.RngStream(8).generator(), **perturb)
    assert none is None
    assert np.array_equal(plain, costs)


@pytest.mark.parametrize("count", [1, 300])
def test_batch_rollout_states_bitwise(count):
    # the states overwrite the noise draws in place; each one is still
    # x_{h+1} = (A - B K - D L) x_h + xi_h on the draws of the same stream
    g = benchmark_game()
    K = benchmark_initial_gain()
    L = StructuredGain("L", [0.1 * np.ones((g.n, g.m))] * g.horizon)
    costs, states = sim.batch_rollout(g, K, L, count, sim.RngStream(8).generator(),
                                      return_states=True)
    xi = g.noise.sample(count, sim.RngStream(8).generator())
    assert np.array_equal(states[0], xi[0])
    for h in range(g.horizon):
        closed = g.A[h] - g.B[h] @ K.blocks[h] - g.D[h] @ L.blocks[h]
        assert np.array_equal(states[h + 1], closed @ states[h] + xi[h + 1])
    plain, _ = sim.batch_rollout(g, K, L, count, sim.RngStream(8).generator())
    assert np.array_equal(plain, costs)


@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 2.7, None])
def test_noise_sample_stream_layout(sigma):
    # block after block from one generator, each the Cholesky factor times
    # a transposed (count, m) standard-normal draw, bitwise
    g = benchmark_game()
    if sigma is None:
        g = _with_noise(g, "truncated-gaussian", isotropic=False)
    else:
        g = dataclasses.replace(g, noise=isotropic_noise(g.m, g.horizon, sigma=sigma))
    xi = g.noise.sample(500, sim.RngStream(4).generator())
    rng = sim.RngStream(4).generator()
    for i, cov in enumerate(g.noise.covariance_blocks):
        expect = np.linalg.cholesky(cov) @ rng.standard_normal((500, g.m)).T
        assert np.array_equal(xi[i], expect)


_chunk = st.one_of(st.integers(0, 40),
                   st.tuples(st.integers(0, 6), st.integers(0, 7)))


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(0, 30), max_size=4), chunks=st.lists(_chunk, max_size=8))
def test_prefetched_normals_match_generator(sizes, chunks):
    # buffers filled in turn, some of them empty; any chunking, empty, inside
    # a buffer, across buffer ends or past the last one, hands out the plain
    # generator's normals in order
    rng = sim.RngStream(3, (1,)).generator()
    buffers = [np.empty(n) for n in sizes]
    for buffer in buffers:
        rng.standard_normal(out=buffer)
    stream = sim.PrefetchedNormals(rng, buffers)
    plain = sim.RngStream(3, (1,)).generator()
    for size in chunks + [sum(sizes) + 3]:  # the last chunk overruns every buffer
        got = stream.standard_normal(size)
        assert got.shape == (size if isinstance(size, tuple) else (size,))
        assert np.array_equal(got, plain.standard_normal(size))


def test_prefetched_normals_drop_used_buffers():
    rng = sim.RngStream(4).generator()
    buffers = [np.empty(6), np.empty(4)]
    for buffer in buffers:
        rng.standard_normal(out=buffer)
    first, second = (weakref.ref(b) for b in buffers)
    stream = sim.PrefetchedNormals(rng, buffers)
    del buffers, buffer
    stream.standard_normal(5)
    assert first() is not None
    stream.standard_normal(3)  # uses up the first buffer, nothing handed out views it
    assert first() is None and second() is not None
    stream.standard_normal(2)
    assert second() is None


def test_prefetched_normals_uniform_after_buffer():
    rng = sim.RngStream(5).generator()
    buffer = np.empty(30)
    rng.standard_normal(out=buffer)
    stream = sim.PrefetchedNormals(rng, [buffer])
    stream.standard_normal((4, 5))
    with pytest.raises(RuntimeError):
        stream.uniform(-1.0, 1.0, size=3)  # would skip the 10 unread normals
    stream.standard_normal(10)
    plain = sim.RngStream(5).generator()
    plain.standard_normal(30)
    assert np.array_equal(stream.uniform(-1.0, 1.0, size=(2, 3)),
                          plain.uniform(-1.0, 1.0, size=(2, 3)))


@pytest.mark.parametrize("kind", ["truncated-gaussian", "scaled-uniform"])
def test_noise_normals_per_sample(kind):
    # with the default bound no rejection redraw runs, so one sample takes
    # exactly normals_per_sample normals before any other draw
    g = _with_noise(benchmark_game(), kind, isotropic=False)
    assert g.noise.normals_per_sample == (
        (g.horizon + 1) * g.m if kind == "truncated-gaussian" else 0)
    if kind == "truncated-gaussian":
        a = sim.RngStream(6).generator()
        g.noise.sample(300, a)
        b = sim.RngStream(6).generator()
        b.standard_normal(300 * g.noise.normals_per_sample)
        assert np.array_equal(a.standard_normal(5), b.standard_normal(5))
