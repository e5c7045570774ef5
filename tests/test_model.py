import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgames.model import (LqGame, ModelError, NoiseModel, StructuredGain,
                           benchmark_game, benchmark_initial_gain, build_compact,
                           deterministic_noise, game_from_dict, game_to_dict,
                           isotropic_noise, lift_gain, load_game, resolve_game,
                           save_game, scalar_demo_game, time_invariant_game,
                           validate_gain, zero_gain)


def test_benchmark_dimensions():
    g = benchmark_game()
    assert (g.m, g.d, g.n, g.horizon) == (3, 3, 3, 5)
    assert len(g.Q) == 6
    ops = build_compact(g)
    assert ops.d_K == 45
    assert ops.d_L == 45
    assert ops.state_dim == 18


def test_scalar_demo_dimensions():
    g = scalar_demo_game()
    assert (g.m, g.d, g.n, g.horizon) == (1, 1, 1, 1)


def test_dimension_mismatch_raises_with_stage_name():
    g = benchmark_game()
    bad_B = g.B[:2] + (np.zeros((2, 3)),) + g.B[3:]
    with pytest.raises(ModelError, match=r"B\[2\]"):
        LqGame(A=g.A, B=bad_B, D=g.D, Q=g.Q, Ru=g.Ru, Rw=g.Rw, noise=g.noise)


def test_nonsymmetric_cost_rejected():
    g = scalar_demo_game()
    with pytest.raises(ModelError, match="symmetric"):
        time_invariant_game(np.eye(2), np.eye(2), np.eye(2),
                            np.array([[1.0, 0.5], [0.0, 1.0]]),
                            np.eye(2), 5 * np.eye(2), horizon=2,
                            noise=isotropic_noise(2, 2))
    with pytest.raises(ModelError, match="positive definite"):
        time_invariant_game(np.eye(1), np.eye(1), np.eye(1), np.eye(1),
                            np.zeros((1, 1)), np.eye(1), horizon=1,
                            noise=isotropic_noise(1, 1))


def test_compact_lift_shapes_and_nilpotency():
    g = benchmark_game()
    ops = build_compact(g)
    A = ops.full_A()
    assert A.shape == (18, 18)
    # strictly lower block structure: nilpotent of index N+1
    power = np.linalg.matrix_power(A, g.horizon + 1)
    assert np.allclose(power, 0.0)
    K = benchmark_initial_gain()
    Acl = ops.full_closed_loop(K, zero_gain(g, "L"))
    assert np.allclose(np.linalg.matrix_power(Acl, g.horizon + 1), 0.0)
    assert ops.full_B().shape == (18, 15)
    assert ops.full_D().shape == (18, 15)


def test_gain_lift_pattern():
    K = benchmark_initial_gain()
    full = K.lift()
    assert full.shape == (15, 18)
    back = validate_gain(full, "K", 5)
    for a, b in zip(back.blocks, K.blocks):
        assert np.array_equal(a, b)


def test_validate_gain_rejects_off_pattern():
    full = benchmark_initial_gain().lift()
    full = full.copy()
    full[0, 5] = 1e-300  # tiny but nonzero off-pattern entry
    with pytest.raises(ModelError, match=r"\(0, 5\)"):
        validate_gain(full, "K", 5)


def test_gain_arithmetic():
    K = benchmark_initial_gain()
    Z = zero_gain(benchmark_game(), "K")
    assert (K + Z).frobenius_norm() == pytest.approx(K.frobenius_norm())
    assert (K - K).frobenius_norm() == 0.0
    assert K.scale(2.0).frobenius_norm() == pytest.approx(2 * K.frobenius_norm())
    with pytest.raises(ModelError):
        K + zero_gain(benchmark_game(), "L")


def test_noise_sampling_bound_and_moments():
    noise = isotropic_noise(3, 5, sigma=0.05)
    rng = np.random.default_rng(0)
    draws = noise.sample(20000, rng)
    assert draws.shape == (20000, 6, 3)
    norms = np.linalg.norm(draws, axis=2)
    assert norms.max() <= noise.bound + 1e-12
    # per-block second moment close to 0.05 I
    cov = np.einsum("cbi,cbj->bij", draws, draws) / 20000
    assert np.allclose(cov, 0.05 * np.eye(3), atol=5e-3)
    assert noise.phi == pytest.approx(0.05)


def test_scaled_uniform_noise_variance():
    noise = isotropic_noise(2, 2, sigma=0.1, kind="scaled-uniform")
    draws = noise.sample(50000, np.random.default_rng(1))
    cov = np.einsum("cbi,cbj->bij", draws, draws) / 50000
    assert np.allclose(cov, 0.1 * np.eye(2), atol=5e-3)


def test_deterministic_noise():
    noise = deterministic_noise([1.0, 2.0], horizon=3)
    draws = noise.sample(4, np.random.default_rng(0))
    assert np.array_equal(draws[0, 0], [1.0, 2.0])
    assert np.all(draws[:, 1:, :] == 0.0)
    assert noise.phi == 0.0


def test_noise_validation():
    with pytest.raises(ModelError, match="positive definite"):
        NoiseModel(kind="truncated-gaussian",
                   covariance_blocks=(np.zeros((2, 2)),), bound=1.0)
    with pytest.raises(ModelError, match="fixed initial state"):
        NoiseModel(kind="deterministic-zero",
                   covariance_blocks=(np.eye(2),), bound=1.0)


def test_json_round_trip(tmp_path):
    g = benchmark_game()
    path = tmp_path / "game.json"
    save_game(g, path)
    g2 = load_game(path)
    for name in ("A", "B", "D", "Q", "Ru", "Rw"):
        for a, b in zip(getattr(g, name), getattr(g2, name)):
            assert np.array_equal(a, b)
    assert g2.noise.kind == g.noise.kind
    assert g2.noise.bound == g.noise.bound


def test_json_missing_key():
    doc = game_to_dict(scalar_demo_game())
    del doc["terminal_Q"]
    with pytest.raises(ModelError, match="terminal_Q"):
        game_from_dict(doc)


def test_resolve_game_builtins_and_bundled():
    g1 = resolve_game("benchmark")
    g2 = benchmark_game()
    for a, b in zip(g1.A, g2.A):
        assert np.array_equal(a, b)
    with pytest.raises(ModelError, match="unknown game source"):
        resolve_game("no_such_game")


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 3), p=st.integers(1, 3), N=st.integers(1, 4),
       seed=st.integers(0, 1000))
def test_lift_round_trip_property(m, p, N, seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((p, m)) for _ in range(N)]
    gain = lift_gain(blocks, side="K")
    back = validate_gain(gain.lift(), "K", N)
    for a, b in zip(back.blocks, blocks):
        assert np.array_equal(a, b)
