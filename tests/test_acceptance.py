"""End-to-end acceptance suite.

One test per release criterion; each prints a single pass/fail line (replayed
in the terminal summary) with the measured quantities.  All runs are seeded,
so the suite is deterministic.
"""

import json
import time

import numpy as np
import pytest

from helpers import smoothed_gradient, zo_gradient_samples
from lqgames import certify, cli, verify, zo
from lqgames.exact import ExactSolverConfig, outer_npg_exact
from lqgames.model import (LqGame, StructuredGain, benchmark_game, benchmark_initial_gain,
                           deterministic_noise, scalar_demo_game, zero_gain)
from lqgames.sim import RngStream

GOLDEN_VALUE = 3.2330
GOLDEN_MARGIN = 4.2860

DESK_CONFIG = dict(r1=2.0, r2=0.18, M1=10_000, M2=10_000,
                   tau1=0.04, tau2=4.67e-4, T_in=10, T=60)


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def bench_nash():
    return certify.solve_nash(benchmark_game())


@pytest.fixture(scope="session")
def exact_run(bench_nash):
    """Deterministic nested run on the benchmark with exact inner solves."""
    game = benchmark_game()
    cfg = ExactSolverConfig(inner_mode="exact", tau2=4.67e-4, T=6000, stop_gap=1e-7)
    t0 = time.perf_counter()
    K, trace = outer_npg_exact(game, benchmark_initial_gain(), cfg,
                               nash_value=bench_nash.value)
    return {"K": K, "trace": trace, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def desk_ensemble(bench_nash):
    """Twenty seeded desk-scale stochastic runs on the benchmark."""
    game = benchmark_game()
    K0 = benchmark_initial_gain()
    bound = certify.khat_bound(game, certify.feasible_best_response(game, K0))
    runs = []
    for seed in range(20):
        cfg = zo.ZoConfig(seed=seed, **DESK_CONFIG)
        t0 = time.perf_counter()
        K, trace = zo.outer_zo_npg(game, K0, cfg, nash_value=bench_nash.value)
        gaps = trace.gaps()
        khat_all = (all(r.in_Khat for r in trace.rows)
                    and certify.in_Khat_set(certify.best_response_L(game, K), bound))
        runs.append({"seed": seed, "elapsed": time.perf_counter() - t0,
                     "initial_gap": gaps[0], "final_gap": gaps[-1],
                     "khat_all": khat_all})
    return runs


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_golden_nash(tmp_path, acceptance_report):
    t0 = time.perf_counter()
    rc = cli.main(["nash", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    doc = json.loads((tmp_path / "nash.json").read_text())
    ok = (rc == cli.EXIT_OK
          and abs(doc["value"] - GOLDEN_VALUE) <= 5e-4
          and abs(doc["margin"] - GOLDEN_MARGIN) <= 5e-4
          and elapsed < 1.0)
    assert acceptance_report(
        "1", ok, f"nash value={doc['value']:.4f} margin={doc['margin']:.4f} "
        f"({elapsed:.2f} s)")


def test_criterion_2_linear_convergence(exact_run, acceptance_report):
    gaps = np.array(exact_run["trace"].gaps())
    monotone = bool(np.all(np.diff(gaps) <= 1e-12 * (1.0 + gaps[:-1])))
    window = (gaps <= gaps[0] / 2.0) & (gaps >= 1e-6)
    ts = np.flatnonzero(window)
    logg = np.log10(gaps[ts])
    slope, intercept = np.polyfit(ts, logg, 1)
    resid = logg - (slope * ts + intercept)
    r2 = 1.0 - float(resid @ resid) / float(((logg - logg.mean()) ** 2).sum())
    ok = monotone and r2 > 0.99 and exact_run["elapsed"] < 30.0
    assert acceptance_report(
        "2", ok, f"monotone={monotone} R2={r2:.5f} slope={slope:.2e}/iter "
        f"window={len(ts)} pts ({exact_run['elapsed']:.1f} s)")


def test_criterion_3_implicit_regularization(exact_run, desk_ensemble,
                                             acceptance_report):
    det_ok = all(r.in_Khat for r in exact_run["trace"].rows)
    khat_seeds = sum(r["khat_all"] for r in desk_ensemble)
    ok = det_ok and khat_seeds >= 19
    assert acceptance_report(
        "3", ok, f"deterministic iterates all in anchored set={det_ok}; "
        f"stochastic seeds fully inside={khat_seeds}/20")


def test_criterion_4_oracle_equivalences(acceptance_report):
    reports = verify.run_property_suite(seed=0, instances=20, ordering_pairs=125)
    by_name = {}
    for r in reports:
        by_name.setdefault(r.name, []).append(r)
    required = ("brute-force-objective", "finite-diff-gradient",
                "trace-identity", "best-response-ordering")
    ok = all(r.passed for r in reports)
    counts = {n: f"{sum(r.passed for r in by_name[n])}/{len(by_name[n])}"
              for n in required}
    worst_slack = min(r.margins["min_slack"] for r in by_name["best-response-ordering"])
    ok = ok and all(len(by_name[n]) == 20 for n in required)
    assert acceptance_report(
        "4", ok, f"{len(reports)} checks green; instances per oracle {counts}; "
        f"2500 ordering pairs, min eigen-slack {worst_slack:.1e}")


@pytest.mark.xfail(strict=False, reason=(
    "10x gap reduction in 60 iterations is out of reach at tau2=4.67e-4 even "
    "without noise: with exact gradients the gap shrinks 6.24x by row 60 and "
    "first reaches 10x at iteration 144. See the README 'Known shortfall' "
    "paragraph."))
def test_criterion_5_desk_scale_stochastic(desk_ensemble, acceptance_report):
    runs = desk_ensemble[:3]
    ratios = [r["initial_gap"] / r["final_gap"] for r in runs]
    hits = sum(r["final_gap"] <= r["initial_gap"] / 10.0 for r in runs)
    elapsed = sum(r["elapsed"] for r in runs)
    ok = hits >= 2 and elapsed < 300.0
    acceptance_report(
        "5", ok, f"gap reduction {ratios[0]:.1f}x/{ratios[1]:.1f}x/{ratios[2]:.1f}x "
        f"on seeds 0-2, {hits}/3 reached 10x ({elapsed:.0f} s)")
    assert ok


def test_criterion_6_estimator_statistics(acceptance_report):
    # (a) unbiasedness on the scalar game with a pinned initial state
    g = scalar_demo_game(deterministic=True)
    K = StructuredGain("K", [np.array([[0.5]])])
    L = zero_gain(g, "L")
    target = verify.analytic_gradient(g, K, L, "L").blocks[0][0, 0]
    M, r = 1_000_000, 0.1
    samples = zo_gradient_samples(g, K, L, "L", r, M, RngStream(11).generator())[0]
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / np.sqrt(M)
    est = zo.zo_gradient(g, K, L, "L", r, M, RngStream(11).generator())
    assert est.blocks[0][0, 0] == pytest.approx(mean)
    z = abs(mean - target) / se
    ok_a = z <= 3.0

    # (b) the smoothing bias shrinks as r^2: the r-smoothed gradient comes
    # from exact sphere quadrature, and each 400k-sample estimate must match
    # it to z <= 3 per coordinate, the bar of (a)
    one, half = np.array([[1.0]]), np.array([[0.5]])
    g3 = LqGame(A=(one,) * 3, B=(one,) * 3, D=(half,) * 3, Q=(one,) * 4,
                Ru=(one,) * 3, Rw=(np.array([[5.0]]),) * 3,
                noise=deterministic_noise([1.0], 3))
    K3 = StructuredGain("K", [half] * 3)
    L3 = zero_gain(g3, "L")
    exact = verify.analytic_gradient(g3, K3, L3, "K").blocks.ravel()
    bias, z_b = {}, 0.0
    for rr in (0.4, 0.2):
        smoothed = smoothed_gradient(g3, K3, L3, "K", rr).blocks.ravel()
        bias[rr] = float(np.linalg.norm(smoothed - exact))
        stream = RngStream(0).child(int(rr * 100))
        samples3 = zo_gradient_samples(g3, K3, L3, "K", rr, 400_000, stream.generator())
        est3 = zo.zo_gradient(g3, K3, L3, "K", rr, 400_000, stream.generator())
        assert est3.blocks.ravel() == pytest.approx(samples3.mean(axis=1))
        se3 = samples3.std(axis=1, ddof=1) / np.sqrt(400_000)
        z_b = max(z_b, float((np.abs(samples3.mean(axis=1) - smoothed) / se3).max()))
    ratio = bias[0.2] / bias[0.4]
    ok_b = 0.2 <= ratio <= 0.3 and z_b <= 3.0

    # (c) estimator variance scales as 1/M
    reps = 200
    root = RngStream(29)
    normalized = []
    for i, Mi in enumerate((100, 1_000, 10_000)):
        vals = [zo.zo_gradient(g, K, L, "L", r, Mi,
                               root.child(i, j).generator()).blocks[0][0, 0]
                for j in range(reps)]
        normalized.append(float(np.var(vals, ddof=1)) * Mi)
    spread = max(normalized) / min(normalized)
    ok_c = spread <= 1.5

    assert acceptance_report(
        "6", ok_a and ok_b and ok_c,
        f"unbiasedness z={z:.2f} (<=3); exact bias halving ratio {ratio:.4f} in "
        f"[0.2,0.3], estimates at both radii z={z_b:.2f} (<=3); "
        f"M*variance spread {spread:.2f}x (<=1.5)")


def test_criterion_7_deterministic_artifacts(tmp_path, acceptance_report):
    cfg_doc = {"game": "scalar_demo", "mode": "zo-npg", "seeds": [0, 1],
               "initial_gain": [[[0.8]]],
               "zo": {"r1": 0.05, "r2": 0.05, "M1": 2000, "M2": 2000,
                      "tau1": 0.2, "tau2": 0.05, "T_in": 3, "T": 8}}
    artifacts = []
    for name in ("a", "b"):
        doc = dict(cfg_doc, out=str(tmp_path / name))
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OK
        assert cli.main(["nash", "--out", str(tmp_path / name)]) == cli.EXIT_OK
        artifacts.append({p.name: p.read_bytes()
                          for p in sorted((tmp_path / name).iterdir())})
    ok = artifacts[0] == artifacts[1] and len(artifacts[0]) >= 4
    assert acceptance_report(
        "7", ok, f"{len(artifacts[0])} artifacts byte-identical across "
        "repeated runs with the same config and seeds")
