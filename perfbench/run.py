"""End-to-end and per-layer benchmark of the ``lqgames`` solvers.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload goes through the public CLI with a config kept in
``perfbench/configs``.  A fresh ``lqgames nash`` process gives the cold
set-up time; a solver process (``perfbench/worker.py``) then repeats
``lqgames run`` in whole rounds for S seconds.  It also times a fixed
calibration work (``calibration.py``) before every round and after the last;
``setup_s`` and each round's wall time are rescaled by it to a reference
speed of the host.  The outputs of every round are checked against the
independent recursions in ``reference.py`` and against properties the
methods must have.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).  All
files go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from reference import load_game, nash_value, primal_value

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# --seed N runs solver seeds N*k .. N*k+k-1 (k = seeds in the base config),
# so distinct benchmark seeds draw disjoint seed sets.  ``perturb`` scales
# each entry of the initial gain by 1 + perturb * U(-1, 1), drawn from N.
WORKLOADS = {
    "zo-desk": {"config": "zo_desk.json", "game": "games/benchmark_h5.json", "perturb": 0.0},
    "exact-br": {"config": "exact_br.json", "game": "games/benchmark_h5.json", "perturb": 0.01},
    "exact-nested-h10": {"config": "exact_nested_h10.json", "game": "games/h10.json",
                         "perturb": 0.01},
}

# Seconds the calibration work (calibration.py) takes at the reference speed:
# its median on a 2.1-GHz Xeon vCPU.  ``setup_s`` and ``solve_s`` are wall
# times rescaled to that speed.
CALIBRATION_REF_S = 0.3

# the paper's sample-complexity quantity: trajectories until a seed's gap
# first falls to this fraction of its initial gap
GAP_FRACTION = 2.0 / 3.0

TIME_LIMIT_S = 170.0


def fail(msg: str, code: int = 1) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def derive_config(spec: dict, seed: int, out: Path) -> dict:
    cfg = json.loads((HERE / "configs" / spec["config"]).read_text())
    k = len(cfg["seeds"])
    cfg["seeds"] = [seed * k + i for i in range(k)]
    if (ROOT / cfg["game"]).is_file():
        cfg["game"] = str(ROOT / cfg["game"])
    rng = np.random.default_rng(seed)
    cfg["initial_gain"] = [
        (np.array(b) * (1.0 + spec["perturb"] * rng.uniform(-1.0, 1.0, np.shape(b)))).tolist()
        for b in cfg["initial_gain"]]
    cfg["out"] = str(out / "run")
    return cfg


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cores": os.cpu_count(), "machine": platform.machine()}


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def read_trace(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(cfg: dict, game: dict, run_dir: Path, nash_doc: dict,
                  traces: dict[int, list[dict]]) -> list[str]:
    errors = []
    nash = nash_value(game)
    if not math.isclose(nash_doc["value"], nash, rel_tol=1e-9):
        errors.append(f"nash.json value {nash_doc['value']!r} != reference {nash!r}")
    K0 = [np.array(b) for b in cfg["initial_gain"]]
    primal0 = primal_value(game, K0)
    summary = json.loads((run_dir / "summary.json").read_text())
    if summary["seeds"] != sorted(cfg["seeds"]):
        errors.append(f"summary seeds {summary['seeds']} != {cfg['seeds']}")
    zo = cfg["mode"] == "zo-npg"
    total = 0
    for seed, rows in traces.items():
        gaps = [float(r["objective_gap"]) for r in rows]
        tag = f"seed {seed}"
        if not rows:
            errors.append(f"{tag}: empty trace")
            continue
        if not math.isclose(gaps[0] + nash, primal0, rel_tol=1e-8):
            errors.append(f"{tag}: row 0 gives G(K0)={gaps[0] + nash!r}, reference {primal0!r}")
        if min(gaps) < 0.0:
            errors.append(f"{tag}: negative gap {min(gaps)!r}")
        if summary["initial_gaps"][str(seed)] != gaps[0] or summary["final_gaps"][str(seed)] != gaps[-1]:
            errors.append(f"{tag}: summary.json gaps disagree with the trace")
        if zo:
            z = cfg["zo"]
            if len(rows) != z["T"]:
                errors.append(f"{tag}: {len(rows)} rows, expected T={z['T']}")
            if not gaps[-1] < gaps[0]:
                errors.append(f"{tag}: final gap {gaps[-1]!r} not below initial {gaps[0]!r}")
            for t, r in enumerate(rows):
                inner, outer = int(r["samples_used_inner"]), int(r["samples_used_outer"])
                if inner != (t + 1) * 2 * z["T_in"] * z["M1"] or outer != (t + 1) * 2 * z["M2"]:
                    errors.append(f"{tag}: row {t} sample counts {inner}+{outer} off the config")
                    break
            total += int(rows[-1]["samples_used_inner"]) + int(rows[-1]["samples_used_outer"])
        else:
            # the exact method keeps every iterate in the anchored set; the ZO
            # method only with high probability (zo.rows_outside_Khat counts it)
            if any(r["in_Khat"] != "1" for r in rows):
                errors.append(f"{tag}: iterate left the anchored set")
            s = cfg["solver"]
            if any(b > a for a, b in zip(gaps, gaps[1:])):
                errors.append(f"{tag}: exact gaps increase")
            if gaps[-1] > s["stop_gap"]:
                errors.append(f"{tag}: final gap {gaps[-1]!r} above target {s['stop_gap']!r}")
    if summary["total_trajectories"] != total:
        errors.append(f"summary total_trajectories {summary['total_trajectories']} != {total}")
    return errors


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def trajectories_to_gap(rows: list[dict]) -> float:
    gaps = [float(r["objective_gap"]) for r in rows]
    for t, g in enumerate(gaps):
        if g <= GAP_FRACTION * gaps[0]:
            prev = rows[t - 1]
            return float(int(prev["samples_used_inner"]) + int(prev["samples_used_outer"])) if t else 0.0
    return math.inf


def layer_metrics(cfg: dict, row: dict, untraced_s: float, import_s: float,
                  traces: dict[int, list[dict]], absent: list[str]) -> tuple[dict, list[str]]:
    """Per-layer values of one traced round, plus cross-check failures."""
    L = row["layers"]

    def get(layer: str, key: str):
        return None if layer in absent else L.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})[key]

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    zo = cfg["mode"] == "zo-npg"
    outer_iters = sum(len(rows) for rows in traces.values())
    csv_traj = sum(int(rows[-1]["samples_used_inner"]) + int(rows[-1]["samples_used_outer"])
                   for rows in traces.values()) if zo else 0
    batch_s = get("sim.batch_rollout", "s")
    traj = None if batch_s is None or "sim.trajectories" in absent else row["trajectories"]
    to_gap = statistics.median(trajectories_to_gap(rows) for rows in traces.values()) if zo else 0.0
    m = {
        "model.noise_sample.self_s": get("model.noise_sample", "self_s"),
        "model.noise_sample.calls": get("model.noise_sample", "calls"),
        "model.resolve_game.s": get("model.resolve_game", "s"),
        "cli.import_s": import_s,
        "certify.solve_nash.s": get("certify.solve_nash", "s"),
        "sim.batch_rollout.self_s": get("sim.batch_rollout", "self_s"),
        "sim.batch_rollout.calls": get("sim.batch_rollout", "calls"),
        "sim.mean_covariance_blocks.self_s": get("sim.mean_covariance_blocks", "self_s"),
        "sim.trajectories": traj,
        "sim.trajectories_per_s": ratio(traj, batch_s),
        "zo.sample_unit_sphere.self_s": get("zo.sample_unit_sphere", "self_s"),
        "zo.zo_gradient.self_s": get("zo.zo_gradient", "self_s"),
        "zo.natural_step.self_s": get("zo.natural_step", "self_s"),
        "zo.inner_zo_oracle.s": get("zo.inner_zo_oracle", "s"),
        "zo.outer_zo_npg.self_s": get("zo.outer_zo_npg", "self_s"),
        "zo.gate_hits": sum(int(rows[-1]["covariance_gate_hits"]) for rows in traces.values()) if zo else 0,
        "zo.rows_outside_Khat": (sum(r["in_Khat"] != "1" for rows in traces.values() for r in rows)
                                 if zo else 0),
        "zo.trajectories_to_gap": to_gap if math.isfinite(to_gap) else None,
        "certify.best_response_L.self_s": get("certify.best_response_L", "self_s"),
        "certify.best_response_L.calls": get("certify.best_response_L", "calls"),
        "certify.best_response_L.per_outer_iter": ratio(get("certify.best_response_L", "calls"), outer_iters),
        "certify.in_Khat_set.self_s": get("certify.in_Khat_set", "self_s"),
        "certify.value_blocks.self_s": get("certify.value_blocks", "self_s"),
        "certify.value_blocks.calls": get("certify.value_blocks", "calls"),
        "certify.value_blocks.per_inner_step": ratio(row["inner_value_blocks"], row["inner_steps"]),
        "certify.natural_gradients.self_s": get("certify.natural_gradients", "self_s"),
        "certify.objective.self_s": get("certify.objective", "self_s"),
        "exact.outer_iterations": 0 if zo else outer_iters,
        "exact.inner_iterations": row["inner_steps"],
        "exact.outer_npg_exact.self_s": get("exact.outer_npg_exact", "self_s"),
        "exact.inner_npg_exact.self_s": get("exact.inner_npg_exact", "self_s"),
        "exact.us_per_outer_iter": (0.0 if zo else
                                    ratio(get("exact.outer_npg_exact", "s"), outer_iters / 1e6)),
        "trace.write_csv.s": get("trace.write_csv", "s"),
        "tracing_overhead_s": row["s"] - untraced_s,
    }
    errors = []
    if traj is not None and traj != csv_traj:
        errors.append(f"traced trajectories {traj} != trace CSV total {csv_traj}")
    if zo:
        z, seeds = cfg["zo"], len(cfg["seeds"])
        for layer, per in (("zo.zo_gradient", z["T_in"] + 1), ("sim.batch_rollout", 2 * (z["T_in"] + 1))):
            calls, want = get(layer, "calls"), per * z["T"] * seeds
            if calls is not None and calls != want:
                errors.append(f"traced {layer} calls {calls} != {want} from the config")
    return m, errors


# unit by the last part of a metric name; every other metric is in seconds
UNITS = {"calls": "count", "outer_iterations": "count", "inner_iterations": "count",
         "trajectories": "count", "gate_hits": "count", "rows_outside_Khat": "count",
         "trajectories_to_gap": "count",
         "per_outer_iter": "ratio", "per_inner_step": "ratio", "trajectories_per_s": "1/s",
         "us_per_outer_iter": "us"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "s")


def rescaled_round_s(rounds: list[dict], calibration: list[float]) -> list[float]:
    """Wall time of each successful round at the reference speed.

    Round i ran between calibrations i and i+1; their mean time, against
    the reference time, is how slow the host ran during the round.
    """
    return [r["s"] * CALIBRATION_REF_S / (0.5 * (calibration[i] + calibration[i + 1]))
            for i, r in enumerate(rounds) if r["rc"] == 0]


def median_or_none(values: list):
    return None if any(v is None for v in values) else statistics.median(values)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (SRC / "lqgames" / "cli.py").is_file():
        return fail(f"no lqgames sources under {SRC}; run from a checkout of the repository", 2)

    spec = WORKLOADS[args.workload]
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = derive_config(spec, args.seed, out)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    # cold set-up: a fresh process imports lqgames, loads the game, solves Nash
    t0 = time.perf_counter()
    setup = subprocess.run([sys.executable, "-m", "lqgames.cli", "nash", "--config", str(cfg_path),
                            "--out", str(out / "nash")], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60)
    setup_s = time.perf_counter() - t0
    if setup.returncode != 0:
        return fail(f"lqgames nash exited {setup.returncode}: {setup.stderr.strip()}")

    result_path = out / "worker.json"
    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--config", str(cfg_path),
             "--out", cfg["out"], "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(10.0, TIME_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        return fail("solver process exceeded the time limit")
    if worker.returncode != 0:
        return fail(f"solver process exited {worker.returncode}:\n{worker.stderr.strip()}")
    res = json.loads(result_path.read_text())
    if not Path(res["lqgames_file"]).is_relative_to(SRC):
        return fail(f"imported lqgames from {res['lqgames_file']}, not from {SRC}")

    rounds = res["rounds"]
    good = [r for r in rounds if r["rc"] == 0]
    seeds = len(cfg["seeds"])
    attempted, failed = len(rounds) * seeds, (len(rounds) - len(good)) * seeds
    if not good:
        return fail(f"every lqgames run failed (exit {rounds[0]['rc']})")

    run_dir = Path(cfg["out"])
    game = load_game(HERE / spec["game"])
    traces = {s: read_trace(run_dir / f"trace_seed{s}.csv") for s in cfg["seeds"]}
    nash_doc = json.loads((out / "nash" / "nash.json").read_text())
    errors = check_outputs(cfg, game, run_dir, nash_doc, traces)
    if any(r["hashes"] != good[0]["hashes"] for r in good) or not good[0]["hashes"]:
        errors.append("artifacts differ between rounds of the same config and seeds")

    if args.trace:
        untraced = [r["s"] for r in good if not r["traced"]]
        per_round = []
        for r in good:
            if r["traced"]:
                m, errs = layer_metrics(cfg, r, untraced[0], res["import_s"], traces, res["absent"])
                per_round.append(m)
                errors += errs
        metrics = {name: {"value": median_or_none([m[name] for m in per_round]), "unit": unit_of(name)}
                   for name in per_round[0]}
    else:
        gap_red = statistics.median(float(rows[0]["objective_gap"]) / float(rows[-1]["objective_gap"])
                                    for rows in traces.values())
        metrics = {
            # set-up is rescaled by the solver process's first calibration,
            # the one nearest to it in time
            "setup_s": {"value": setup_s * CALIBRATION_REF_S / res["calibration"][0], "unit": "s"},
            "solve_s": {"value": statistics.median(
                rescaled_round_s(rounds, res["calibration"])), "unit": "s"},
            "gap_reduction": {"value": gap_red, "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    for e in dict.fromkeys(errors):
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    line = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "config": cfg, "environment": environment(),
         "setup_wall_s": setup_s, "round_s": [r["s"] for r in rounds],
         "calibration_s": res["calibration"], "errors": errors,
         **line}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
