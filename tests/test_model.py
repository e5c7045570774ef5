import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgames import verify
from lqgames.model import (LqGame, ModelError, NoiseModel, StructuredGain,
                           benchmark_game, benchmark_initial_gain,
                           deterministic_noise, game_from_dict, game_to_dict,
                           isotropic_noise, load_game, resolve_game,
                           save_game, scalar_demo_game, time_invariant_game,
                           zero_gain)


def test_benchmark_dimensions():
    g = benchmark_game()
    assert (g.m, g.d, g.n, g.horizon) == (3, 3, 3, 5)
    assert len(g.Q) == 6
    assert (g.A.shape, g.B.shape, g.D.shape) == ((5, 3, 3),) * 3
    assert (g.Q.shape, g.Ru.shape, g.Rw.shape) == ((6, 3, 3), (5, 3, 3), (5, 3, 3))
    assert g.noise.covariance_blocks.shape == (6, 3, 3)
    assert benchmark_initial_gain().blocks.shape == (5, 3, 3)


def test_scalar_demo_dimensions():
    g = scalar_demo_game()
    assert (g.m, g.d, g.n, g.horizon) == (1, 1, 1, 1)


def test_dimension_mismatch_raises_with_stage_name():
    g = benchmark_game()
    bad_B = list(g.B[:2]) + [np.zeros((2, 3))] + list(g.B[3:])
    with pytest.raises(ModelError, match=r"B\[2\]"):
        LqGame(A=g.A, B=bad_B, D=g.D, Q=g.Q, Ru=g.Ru, Rw=g.Rw, noise=g.noise)
    with pytest.raises(ModelError, match=r"Ru\[0\] has shape \(2, 2\)"):
        LqGame(A=g.A, B=g.B, D=g.D, Q=g.Q, Ru=[np.eye(2)] * 5, Rw=g.Rw, noise=g.noise)
    ragged_D = [g.D[0], [[1.0, 2.0, 3.0], [4.0]]] + list(g.D[2:])
    with pytest.raises(ModelError, match=r"D\[1\] is not a numeric matrix"):
        LqGame(A=g.A, B=g.B, D=ragged_D, Q=g.Q, Ru=g.Ru, Rw=g.Rw, noise=g.noise)


@pytest.mark.parametrize("name, stage", [("A", 0), ("B", 3), ("Q", 5), ("Rw", 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_game_rejected(name, stage, value):
    g = benchmark_game()
    blocks = np.array(getattr(g, name))
    blocks[stage, 0, 0] = value
    with pytest.raises(ModelError, match=rf"{name}\[{stage}\] has non-finite entries"):
        LqGame(**{**{k: getattr(g, k) for k in ("A", "B", "D", "Q", "Ru", "Rw")},
                  name: blocks}, noise=g.noise)


def test_nonfinite_noise_rejected():
    cov = np.array([np.eye(2)] * 3)
    cov[1, 0, 1] = np.nan
    with pytest.raises(ModelError, match=r"covariance block\[1\] has non-finite"):
        NoiseModel(kind="truncated-gaussian", covariance_blocks=cov, bound=1.0)
    with pytest.raises(ModelError, match="bound"):
        NoiseModel(kind="truncated-gaussian", covariance_blocks=[np.eye(2)], bound=np.inf)
    with pytest.raises(ModelError, match="fixed initial state"):
        NoiseModel(kind="deterministic-zero", covariance_blocks=[np.eye(2)], bound=1.0,
                   fixed_initial_state=[1.0, np.nan])


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
    # the lifted dynamics are the lifted closed loop of the zero gains
    A = verify.full_closed_loop(g, zero_gain(g, "K"), zero_gain(g, "L"))
    assert A.shape == (18, 18)
    assert np.array_equal(A[3:6, 0:3], g.A[0])
    # strictly lower block structure: nilpotent of index N+1
    power = np.linalg.matrix_power(A, g.horizon + 1)
    assert np.allclose(power, 0.0)
    K = benchmark_initial_gain()
    Acl = verify.full_closed_loop(g, K, zero_gain(g, "L"))
    assert np.allclose(np.linalg.matrix_power(Acl, g.horizon + 1), 0.0)


def _unlift(full, N, p, m):
    """Stage blocks of a lifted gain; asserts every other entry is zero."""
    blocks = [full[h * p:(h + 1) * p, h * m:(h + 1) * m].copy() for h in range(N)]
    rest = full.copy()
    for h in range(N):
        rest[h * p:(h + 1) * p, h * m:(h + 1) * m] = 0.0
    assert not rest.any()
    return np.array(blocks)


def test_gain_lift_pattern():
    K = benchmark_initial_gain()
    full = verify.full_gain(K)
    assert full.shape == (15, 18)
    assert np.array_equal(_unlift(full, 5, 3, 3), K.blocks)


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
    assert draws.shape == (6, 3, 20000)
    norms = np.linalg.norm(draws, axis=1)
    assert norms.max() <= noise.bound + 1e-12
    # per-block second moment close to 0.05 I
    cov = np.einsum("bic,bjc->bij", draws, draws) / 20000
    assert np.allclose(cov, 0.05 * np.eye(3), atol=5e-3)
    assert noise.phi == pytest.approx(0.05)


def test_scaled_uniform_noise_variance():
    noise = isotropic_noise(2, 2, sigma=0.1, kind="scaled-uniform")
    draws = noise.sample(50000, np.random.default_rng(1))
    cov = np.einsum("bic,bjc->bij", draws, draws) / 50000
    assert np.allclose(cov, 0.1 * np.eye(2), atol=5e-3)


def test_deterministic_noise():
    noise = deterministic_noise([1.0, 2.0], horizon=3)
    draws = noise.sample(4, np.random.default_rng(0))
    assert np.array_equal(draws[0], [[1.0] * 4, [2.0] * 4])
    assert np.all(draws[1:] == 0.0)
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
    gain = StructuredGain("K", blocks)
    full = verify.full_gain(gain)
    assert full.shape == (N * p, (N + 1) * m)
    assert np.array_equal(_unlift(full, N, p, m), np.array(blocks))
