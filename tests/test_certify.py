import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lqr_cost_oracle, primal_value
from lqgames import certify, verify
from lqgames.model import (LqGame, StructuredGain, benchmark_game,
                           benchmark_initial_gain, isotropic_noise,
                           scalar_demo_game, time_invariant_game, zero_gain)


@pytest.fixture(scope="module")
def scalar():
    return scalar_demo_game()


@pytest.fixture(scope="module")
def bench():
    return benchmark_game()


def k_half():
    return StructuredGain("K", [np.array([[0.5]])])


def test_value_blocks_scalar(scalar):
    # backward recursion by hand: P1 = 1, P0 = 1 + 0.25 + 0.25 = 1.5
    P = certify.value_blocks(scalar, k_half(), zero_gain(scalar, "L"))
    assert P[0] == pytest.approx(np.array([[1.5]]))
    assert P[1] == pytest.approx(np.array([[1.0]]))


def test_value_blocks_zero_dynamics():
    g = time_invariant_game(np.zeros((2, 2)), np.eye(2), np.eye(2),
                            np.eye(2), np.eye(2), 5 * np.eye(2), horizon=2,
                            noise=isotropic_noise(2, 2))
    P = certify.value_blocks(g, zero_gain(g, "K"), zero_gain(g, "L"))
    for p in P:
        assert np.allclose(p, np.eye(2))


def test_covariance_scalar(scalar):
    S = certify.covariance_blocks(scalar, k_half(), zero_gain(scalar, "L"))
    assert S[0] == pytest.approx(np.array([[1.0]]))
    assert S[1] == pytest.approx(np.array([[1.25]]))


def test_objective_scalar(scalar):
    assert certify.objective(scalar, k_half(), zero_gain(scalar, "L")) == pytest.approx(2.5)


def test_objective_dual_identity(bench):
    K = benchmark_initial_gain()
    L = zero_gain(bench, "L")
    obj = certify.objective(bench, K, L)
    M = certify.stage_cost_blocks(bench, K, L)
    S = certify.covariance_blocks(bench, K, L)
    dual = float(sum(np.trace(m @ s) for m, s in zip(M, S)))
    assert obj == pytest.approx(dual, rel=1e-8)


def test_natural_gradients_scalar(scalar):
    K, L = k_half(), zero_gain(scalar, "L")
    F = certify.natural_gradients(scalar, K, L, "K")
    E = certify.natural_gradients(scalar, K, L, "L")
    # k = 0.5 is the best response to l = 0: (1+1)*0.5 - 1*1*1 = 0
    assert F.blocks[0] == pytest.approx(np.array([[0.0]]))
    assert E.blocks[0] == pytest.approx(np.array([[-0.25]]))
    # raw gradient identity: grad_L = 2 E Sigma, stage 0 covariance = 1
    S = certify.covariance_blocks(scalar, K, L)
    assert 2 * E.blocks[0][0, 0] * S[0][0, 0] == pytest.approx(-0.5)


def test_best_response_scalar(scalar):
    br = certify.best_response_L(scalar, k_half())
    assert br.feasible
    assert br.H_blocks[0] == pytest.approx(np.array([[4.75]]))
    assert br.L.blocks[0][0, 0] == pytest.approx(-1.0 / 19.0)
    assert br.P_blocks[0][0, 0] == pytest.approx(1.5 + 0.25 ** 2 / 4.75)
    assert br.P_blocks[1] == pytest.approx(np.array([[1.0]]))


def test_best_response_dominates_any_L(scalar):
    K = k_half()
    br = certify.best_response_L(scalar, K)
    rng = np.random.default_rng(3)
    for _ in range(50):
        L = StructuredGain("L", [rng.uniform(-0.4, 0.4, (1, 1))])
        val = certify.objective(scalar, K, L)
        assert val <= certify.objective(scalar, K, br.L) + 1e-12


def test_best_response_no_disturbance_channel():
    g = time_invariant_game(np.eye(1), np.eye(1), np.zeros((1, 1)),
                            np.eye(1), np.eye(1), 5 * np.eye(1), horizon=2,
                            noise=isotropic_noise(1, 2))
    br = certify.best_response_L(g, zero_gain(g, "K"))
    assert br.feasible
    for b in br.L.blocks:
        assert np.allclose(b, 0.0)
    P = certify.value_blocks(g, zero_gain(g, "K"), zero_gain(g, "L"))
    for a, b in zip(br.P_blocks, P):
        assert np.allclose(a, b)


def test_infeasible_reported_without_exception():
    one = np.array([[1.0]])
    g = LqGame(A=(one,), B=(one,), D=(np.array([[0.5]]),),
               Q=(one, one), Ru=(one,), Rw=(np.array([[0.2]]),),
               noise=isotropic_noise(1, 1))
    br = certify.best_response_L(g, k_half())
    assert not br.feasible
    assert br.violating_stage == 0
    assert br.lam_min == br.min_margin < 0  # the margin block, not the value, fails
    with pytest.raises(certify.NashInfeasibleError):
        certify.feasible_best_response(g, k_half())
    with pytest.raises(certify.NashInfeasibleError):
        primal_value(g, k_half())


def test_solve_nash_scalar(scalar):
    sol = certify.solve_nash(scalar)
    assert sol.Pstar_blocks[0][0, 0] == pytest.approx(1.0 + 1.0 / 1.95)
    assert sol.value == pytest.approx(2.5128205128205128)
    assert sol.margin == pytest.approx(4.75)
    for side in ("K", "L"):
        assert certify.natural_gradients(scalar, sol.Kstar, sol.Lstar, side).frobenius_norm() <= 1e-10


def test_solve_nash_benchmark(bench):
    sol = certify.solve_nash(bench)
    assert sol.value == pytest.approx(3.2330, abs=5e-4)
    assert sol.margin == pytest.approx(4.2860, abs=5e-4)


def test_solve_nash_saddle_point(bench):
    sol = certify.solve_nash(bench)
    rng = np.random.default_rng(7)
    g = bench
    for _ in range(20):
        dK = StructuredGain("K", [1e-3 * rng.standard_normal((g.d, g.m))
                                  for _ in range(g.horizon)])
        dL = StructuredGain("L", [1e-3 * rng.standard_normal((g.n, g.m))
                                  for _ in range(g.horizon)])
        assert certify.objective(bench, sol.Kstar + dK, sol.Lstar) >= sol.value - 1e-9
        assert certify.objective(bench, sol.Kstar, sol.Lstar + dL) <= sol.value + 1e-9


def test_solve_nash_infeasible_instance():
    one = np.array([[1.0]])
    g = LqGame(A=(one,), B=(one,), D=(one,),
               Q=(one, one), Ru=(one,), Rw=(np.array([[0.5]]),),
               noise=isotropic_noise(1, 1))
    with pytest.raises(certify.NashInfeasibleError):
        certify.solve_nash(g)


def test_lqr_reduction():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((2, 2)) * 0.5
    B = rng.standard_normal((2, 2))
    g = time_invariant_game(A, B, np.zeros((2, 2)), np.eye(2), np.eye(2),
                            5 * np.eye(2), horizon=3, noise=isotropic_noise(2, 3))
    sol = certify.solve_nash(g)
    assert sol.value == pytest.approx(lqr_cost_oracle(g), abs=1e-10)
    for b in sol.Lstar.blocks:
        assert np.allclose(b, 0.0, atol=1e-12)


def test_khat_set_membership(bench):
    K0 = benchmark_initial_gain()
    bound = certify.khat_bound(bench, certify.feasible_best_response(bench, K0))

    def member(K):
        return certify.in_Khat_set(certify.best_response_L(bench, K), bound)

    assert member(K0)
    assert member(certify.solve_nash(bench).Kstar)
    # inflate K far beyond the anchored sublevel bound
    assert not member(K0.scale(6.0))


def test_certificate_consistency(bench):
    K = benchmark_initial_gain()
    L = zero_gain(bench, "L")
    cert = certify.certificate(bench, K, L)
    assert cert.objective == pytest.approx(certify.objective(bench, K, L))
    doc = cert.to_dict()
    assert doc["objective"] == cert.objective
    assert len(doc["P_blocks"]) == bench.horizon + 1
    assert len(doc["F_blocks"]) == bench.horizon


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_primal_dominates_any_pair(seed):
    # G(K, L) <= G(K, L(K)) for random feasible pairs on the scalar game
    g = scalar_demo_game()
    rng = np.random.default_rng(seed)
    K = StructuredGain("K", [rng.uniform(-1.0, 1.5, (1, 1))])
    L = StructuredGain("L", [rng.uniform(-0.5, 0.5, (1, 1))])
    br = certify.best_response_L(g, K)
    if not br.feasible:
        return
    assert certify.objective(g, K, L) <= primal_value(g, K) + 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_covariance_floor(seed):
    # lambda_min(Sigma) >= phi: noise injection lower-bounds every stage
    g = scalar_demo_game()
    rng = np.random.default_rng(seed)
    K = StructuredGain("K", [rng.uniform(-1.0, 1.5, (1, 1))])
    L = StructuredGain("L", [rng.uniform(-0.5, 0.5, (1, 1))])
    S = certify.covariance_blocks(g, K, L)
    lam = min(float(np.linalg.eigvalsh(s).min()) for s in S)
    assert lam >= g.noise.phi - 1e-12


# ---------------------------------------------------------------------------
# Stacked oracles against a plain per-stage loop
# ---------------------------------------------------------------------------

def _plain_closed_loop(g, K, L, h):
    return g.A[h] - g.B[h] @ K.blocks[h] - g.D[h] @ L.blocks[h]


def _plain_value_blocks(g, K, L):
    P = [None] * g.horizon + [g.Q[g.horizon]]
    for h in range(g.horizon - 1, -1, -1):
        Kh, Lh, acl = K.blocks[h], L.blocks[h], _plain_closed_loop(g, K, L, h)
        Ph = g.Q[h] + Kh.T @ g.Ru[h] @ Kh - Lh.T @ g.Rw[h] @ Lh + acl.T @ P[h + 1] @ acl
        P[h] = 0.5 * (Ph + Ph.T)
    return np.array(P)


def _plain_covariance_blocks(g, K, L):
    cov = g.noise.covariance_blocks
    S = [cov[0]]
    for h in range(g.horizon):
        acl = _plain_closed_loop(g, K, L, h)
        Sh = acl @ S[h] @ acl.T + cov[h + 1]
        S.append(0.5 * (Sh + Sh.T))
    return np.array(S)


def _plain_natural_gradients(g, K, L, P):
    F, E = [], []
    for h in range(g.horizon):
        Pn, Kh, Lh = P[h + 1], K.blocks[h], L.blocks[h]
        F.append((g.Ru[h] + g.B[h].T @ Pn @ g.B[h]) @ Kh
                 - g.B[h].T @ Pn @ (g.A[h] - g.D[h] @ Lh))
        E.append((g.D[h].T @ Pn @ g.D[h] - g.Rw[h]) @ Lh
                 - g.D[h].T @ Pn @ (g.A[h] - g.B[h] @ Kh))
    return np.array(F), np.array(E)


def _plain_best_response(g, K):
    N = g.horizon
    P = [None] * N + [g.Q[N]]
    L, H = [None] * N, [None] * N
    for h in range(N - 1, -1, -1):
        Pn, Kh = P[h + 1], K.blocks[h]
        H[h] = g.Rw[h] - g.D[h].T @ Pn @ g.D[h]
        AK = g.A[h] - g.B[h] @ Kh
        L[h] = -np.linalg.solve(H[h], g.D[h].T @ Pn @ AK)
        Ptil = Pn + Pn @ g.D[h] @ np.linalg.solve(H[h], g.D[h].T @ Pn)
        Ph = g.Q[h] + Kh.T @ g.Ru[h] @ Kh + AK.T @ Ptil @ AK
        P[h] = 0.5 * (Ph + Ph.T)
    return np.array(L), np.array(P), np.array(H)


def _assert_close(a, b, rtol=1e-12):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


def _reference_instances():
    g = benchmark_game()
    yield g, benchmark_initial_gain(), zero_gain(g, "L")
    rng = np.random.default_rng(2024)
    sol = certify.solve_nash(g)
    yield (g, *verify.random_gain_pair(g, sol.Kstar, sol.Lstar, rng))
    for _ in range(10):
        m, d, n, N = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                      int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        g = verify.random_game(rng, m=m, d=d, n=n, horizon=N)
        sol = certify.solve_nash(g)
        yield (g, *verify.random_gain_pair(g, sol.Kstar, sol.Lstar, rng))


def test_stacked_oracles_match_per_stage_loop():
    for g, K, L in _reference_instances():
        P = certify.value_blocks(g, K, L)
        _assert_close(P, _plain_value_blocks(g, K, L))
        _assert_close(certify.covariance_blocks(g, K, L), _plain_covariance_blocks(g, K, L))
        F_ref, E_ref = _plain_natural_gradients(g, K, L, P)
        _assert_close(certify.natural_gradients(g, K, L, "K", P).blocks, F_ref)
        _assert_close(certify.natural_gradients(g, K, L, "L", P).blocks, E_ref)
        br = certify.best_response_L(g, K)
        assert br.feasible
        L_ref, P_ref, H_ref = _plain_best_response(g, K)
        _assert_close(br.L.blocks, L_ref)
        _assert_close(br.P_blocks, P_ref)
        _assert_close(br.H_blocks, H_ref)
        _assert_close(br.H_eigvals, np.array([np.linalg.eigvalsh(h) for h in H_ref]))
        _assert_close(br.P_eigvals, np.array([np.linalg.eigvalsh(p) for p in P_ref]))


def _optimistic_pass(g, K):
    """The unchecked pass of best_response_L, or None where its solve raises."""
    with np.errstate(all="ignore"):
        try:
            return certify._best_response_pass(g, K, checked=False)
        except np.linalg.LinAlgError:
            return None


def _assert_same_response(a, b):
    """Every BestResponse field bitwise equal, NaN equal to NaN."""
    for field in dataclasses.fields(certify.BestResponse):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "L":
            x, y = x.blocks, y.blocks
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and np.array_equal(x, y, equal_nan=True), field.name
        else:
            assert x == y or (x != x and y != y), (field.name, x, y)


def _feasible_gains():
    rng = np.random.default_rng(11)
    g = benchmark_game()
    h10 = time_invariant_game(g.A[0], g.B[0], g.D[0], g.Q[0], g.Ru[0], g.Rw[0], horizon=10,
                              noise=isotropic_noise(3, 10, sigma=0.05))
    games = [g, h10] + [verify.random_game(rng, m=m, d=d, n=n, horizon=N)
                        for m, d, n, N in ((1, 1, 1, 1), (2, 1, 3, 4), (3, 2, 1, 6))]
    for game in games:
        Kstar = certify.solve_nash(game).Kstar
        for scale in (0.01, 0.1, 0.3, 1.0):
            for _ in range(25):
                yield game, verify.random_feasible_gain(game, Kstar, rng, scale)


def _failing_gains():
    g = benchmark_game()
    # AK = 0 at stage 2 and a large K at stage 3: only the stage-2 margin fails
    blocks = np.array(benchmark_initial_gain().blocks)
    blocks[3] += 3.0
    blocks[2] = np.linalg.solve(g.B[2], g.A[2])
    yield "middle-stage", g, StructuredGain("K", blocks), 2
    for value in (np.nan, np.inf, -np.inf, 1e200):
        blocks = np.array(benchmark_initial_gain().blocks)
        blocks[2, 0, 1] = value
        yield f"entry-{value}", g, StructuredGain("K", blocks), None
    # Rw_1 - D_1' Q_2 D_1 = diag(0, 1) exactly: the optimistic solve raises
    eye = np.eye(2)
    singular = LqGame(A=[eye, eye], B=[eye, eye], D=[eye, eye],
                      Q=[eye, eye, np.diag([1.0, 2.0])], Ru=[eye, eye],
                      Rw=[np.diag([3.0, 9.0]), np.diag([1.0, 3.0])],
                      noise=isotropic_noise(2, 2))
    yield "singular-margin", singular, zero_gain(singular, "K"), 1


def _silent_best_response(g, K):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        br = certify.best_response_L(g, K)
    assert not caught, [str(w.message) for w in caught]
    return br


def test_optimistic_best_response_matches_checked_pass_bitwise():
    count = 0
    for g, K in _feasible_gains():
        fast = _optimistic_pass(g, K)
        assert fast is not None and fast.feasible
        checked = certify._best_response_pass(g, K, checked=True)
        _assert_same_response(fast, checked)
        _assert_same_response(_silent_best_response(g, K), checked)
        count += 1
    assert count == 500


_FAILING = list(_failing_gains())


@pytest.mark.parametrize("case, g, K, stage", _FAILING, ids=[c[0] for c in _FAILING])
def test_failed_test_replays_checked_pass(case, g, K, stage):
    fast = _optimistic_pass(g, K)
    assert fast is None or not fast.feasible
    br = _silent_best_response(g, K)
    with np.errstate(all="ignore"):
        checked = certify._best_response_pass(g, K, checked=True)
    _assert_same_response(br, checked)
    assert not br.feasible
    if stage is None:
        assert np.isnan(br.lam_min)
    else:
        assert br.violating_stage == stage and br.lam_min <= 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
def test_best_response_nonfinite_gain_is_infeasible(bench, value):
    blocks = np.array(benchmark_initial_gain().blocks)
    blocks[2, 0, 1] = value
    with np.errstate(over="ignore", invalid="ignore"):
        br = certify.best_response_L(bench, StructuredGain("K", blocks))
        assert not br.feasible
        assert np.isnan(br.lam_min)
        anchor = certify.best_response_L(bench, benchmark_initial_gain())
        assert not certify.in_Khat_set(br, certify.khat_bound(bench, anchor))
