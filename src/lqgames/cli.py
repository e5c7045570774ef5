"""Command-line front end: Nash solve, solver runs, and the property suite.

Configuration is a single JSON document; its ``mode`` picks the solver that
``run`` uses.  Flags can override seeds and the output directory.  Exit
codes, each failure with a one-line message on stderr:

- 0 ok;
- 1 command-line or config error;
- 2 infeasible game or initial gain;
- 3 divergence;
- 4 failed verification;
- 6 gap-mode inner loop reached ``inner_cap`` before ``eps1``.

Code 5 is retired.  Exits 3 and 6 keep the partial trace of the seed that
stopped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import certify, verify
from .exact import (DivergenceError, ExactSolverConfig, InnerLoopError, SolverStop,
                    outer_npg_exact)
from .model import (LqGame, ModelError, StructuredGain, benchmark_initial_gain,
                    reject_booleans, resolve_game, zero_gain)
from .trace import RunTrace, fmt
from .zo import ZoConfig, outer_zo_npg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4
EXIT_INNER_LOOP = 6

# exit code and stderr prefix of each way a run stops early
_STOPS = {DivergenceError: (EXIT_DIVERGENCE, "divergence"),
          InnerLoopError: (EXIT_INNER_LOOP, "stopped")}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it ends in one line and exit 1."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a game source, a solver mode, parameters, seeds, output dir."""

    game: str = "benchmark"
    mode: str | None = None
    seeds: tuple[int, ...] = (0,)
    out: str = "out"
    solver: dict = field(default_factory=dict)
    zo: dict = field(default_factory=dict)
    initial_gain: list | str | None = None
    verify_instances: int = 20

    def __post_init__(self):
        if self.mode not in (None, "exact-npg", "zo-npg"):
            raise ConfigError(f"mode must be exact-npg or zo-npg, got {self.mode!r}")
        for name, kind, what in (("game", str, "a builtin name or a file path"),
                                 ("out", str, "a directory path"),
                                 ("solver", dict, "a JSON object"), ("zo", dict, "a JSON object")):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        value = self.verify_instances
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigError(f"verify_instances must be a non-negative integer, got {value!r}")
        seeds = self.seeds
        if (not isinstance(seeds, tuple) or not seeds
                or any(isinstance(s, bool) or not isinstance(s, int) or s < 0 for s in seeds)):
            shown = list(seeds) if isinstance(seeds, tuple) else seeds
            raise ConfigError(f"seeds must be a non-empty list of non-negative integers, got {shown!r}")
        if len(set(seeds)) < len(seeds):
            raise ConfigError(f"seeds must be distinct, got {list(seeds)!r}")


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {doc!r}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    if isinstance(doc.get("seeds"), list):
        doc["seeds"] = tuple(doc["seeds"])
    try:
        return ExperimentConfig(**doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_initial_gain(config: ExperimentConfig, game: LqGame) -> StructuredGain:
    """The starting gain: "zero", "benchmark" or a list of d x m stage blocks."""
    spec = config.initial_gain
    if spec is None:
        spec = "benchmark" if config.game == "benchmark" else "zero"
    if spec == "zero":
        return zero_gain(game, "K")
    if spec == "benchmark":
        K0 = benchmark_initial_gain()
    elif isinstance(spec, list):
        reject_booleans(spec, "initial_gain")
        K0 = StructuredGain("K", spec)
    else:
        raise ConfigError(f"initial_gain must be 'zero', 'benchmark' or a list of blocks, got {spec!r}")
    expected = (game.horizon, game.d, game.m)
    if K0.blocks.shape != expected:
        raise ConfigError(f"initial_gain has shape {K0.blocks.shape}, expected (N, d, m) = {expected}")
    if not np.isfinite(K0.blocks).all():
        raise ConfigError("initial_gain has non-finite entries")
    return K0


def _make_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a NUL byte in the path is a ValueError
        raise ConfigError(f"cannot make output directory {str(out)!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_nash(config: ExperimentConfig, out: Path, dump_certificate: bool) -> int:
    game = resolve_game(config.game)
    sol = certify.solve_nash(game)
    _make_dir(out)
    print(f"value={sol.value:.4f} margin={sol.margin:.4f}")
    (out / "nash.json").write_text(json.dumps(sol.to_dict(), sort_keys=True) + "\n")
    if dump_certificate:
        cert = certify.certificate(game, sol.Kstar, sol.Lstar)
        (out / "certificate.json").write_text(json.dumps(cert.to_dict(), sort_keys=True) + "\n")
    return EXIT_OK


def _write_summary(out: Path, traces: dict[int, RunTrace], total_trajectories: int) -> None:
    rows = max((len(t.rows) for t in traces.values()), default=0)
    lines = ["t,median_objective_gap"]
    for t in range(rows):
        gaps = [tr.rows[t].objective_gap for tr in traces.values() if len(tr.rows) > t]
        lines.append(f"{t},{fmt(statistics.median(gaps))}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    doc = {
        "seeds": sorted(traces),
        "total_trajectories": total_trajectories,
        "final_gaps": {str(s): tr.final_gap() for s, tr in sorted(traces.items())},
        "initial_gaps": {str(s): (tr.rows[0].objective_gap if tr.rows else None)
                         for s, tr in sorted(traces.items())},
    }
    (out / "summary.json").write_text(json.dumps(doc, sort_keys=True) + "\n")


def cmd_run(config: ExperimentConfig, out: Path, timings: bool) -> int:
    if config.mode is None:
        raise ConfigError("run requires mode exact-npg or zo-npg")
    section, solver = (("solver", ExactSolverConfig) if config.mode == "exact-npg"
                       else ("zo", ZoConfig))
    try:
        params = solver(**getattr(config, section))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} parameters: {exc}") from exc
    game = resolve_game(config.game)
    K0 = _resolve_initial_gain(config, game)
    _make_dir(out)
    nash_value = certify.solve_nash(game).value
    traces: dict[int, RunTrace] = {}
    total_traj = 0
    for seed in config.seeds:
        csv_path = out / f"trace_seed{seed}.csv"
        try:
            if config.mode == "exact-npg":
                _, trace = outer_npg_exact(game, K0, params, nash_value=nash_value)
            else:
                _, trace = outer_zo_npg(game, K0, params, seed, nash_value=nash_value)
        except SolverStop as exc:
            exc.trace.write_csv(csv_path, include_timings=timings)
            code, what = _STOPS[type(exc)]
            print(f"{what} (seed {seed}): {exc}; partial trace at {csv_path}", file=sys.stderr)
            return code
        trace.write_csv(csv_path, include_timings=timings)
        traces[seed] = trace
        if trace.rows and trace.rows[-1].samples_used_inner is not None:
            total_traj += (trace.rows[-1].samples_used_inner
                           + trace.rows[-1].samples_used_outer)
    _write_summary(out, traces, total_traj)
    print(f"{config.mode}: {len(config.seeds)} seed(s), artifacts in {out}")
    return EXIT_OK


def cmd_verify(config: ExperimentConfig, out: Path) -> int:
    reports = verify.run_property_suite(instances=config.verify_instances)
    _make_dir(out)
    report_path = out / "verify_reports.jsonl"
    verify.write_reports(reports, report_path)
    print(verify.summary_table(reports))
    if any(not r.passed for r in reports):
        print(f"failures recorded in {report_path}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lqgames",
        description="Finite-horizon zero-sum LQ games: Nash solve, policy "
                    "gradient runs, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in ("nash", "run", "verify")}
    for p in commands.values():
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory override")
    commands["nash"].add_argument("--dump-certificate", action="store_true",
                                  help="also write the full value certificate")
    commands["run"].add_argument("--seed", type=int, action="append", default=None,
                                 help="seed override (repeatable)")
    commands["run"].add_argument("--timings", action="store_true",
                                 help="include wall-clock timings in CSV artifacts")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config)
        out = Path(args.out) if args.out else Path(config.out)
        if args.command == "nash":
            return cmd_nash(config, out, args.dump_certificate)
        if args.command == "run":
            if args.seed:
                config = dataclasses.replace(config, seeds=tuple(args.seed))
            return cmd_run(config, out, args.timings)
        return cmd_verify(config, out)
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an artifact that cannot be written
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except certify.NashInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    raise SystemExit(main())
