"""Solver process of the benchmark: repeats one ``lqgames run`` for a time budget.

Usage: python3 perfbench/worker.py --config CFG --out DIR --seconds S
       --trace 0|1 --result FILE

Imports ``lqgames.cli`` once (timed), then calls its ``main`` with the
``run`` subcommand in whole rounds until the next round would end past the
budget.  Each round's wall time, exit code and artifact hashes go to FILE as
JSON, with the times of the fixed calibration work (``calibration.py``) run
before every round and after the last one.  With ``--trace 1`` the first
round runs untraced, for the tracing overhead, and later rounds run with
every layer wrapped by ``tracer.Recorder``; their spans are written to
spans.csv beside FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    from lqgames import cli
    import_s = time.perf_counter() - t0
    from calibration import Calibration
    calibrate = Calibration()
    calibration = []

    out = Path(args.out)
    argv = ["run", "--config", args.config, "--out", str(out)]
    recorder = None
    absent: list[str] = []
    rounds: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and rounds and recorder is None:
            from tracer import Recorder
            recorder = Recorder()
            absent = recorder.install()
        traced = recorder is not None
        lo, traj0 = (len(recorder), recorder.trajectories) if traced else (0, 0)
        calibration.append(calibrate())
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        elapsed = time.perf_counter() - start
        row = {"s": elapsed, "rc": rc, "traced": traced, "hashes": _hashes(out) if rc == 0 else {}}
        if traced:
            hi = len(recorder)
            row["layers"] = recorder.summary(lo, hi)
            row["trajectories"] = recorder.trajectories - traj0
            row["inner_steps"] = recorder.count_under(
                "certify.natural_gradients", "exact.inner_npg_exact", lo, hi, direct=True)
            row["inner_value_blocks"] = recorder.count_under(
                "certify.value_blocks", "exact.inner_npg_exact", lo, hi)
        rounds.append(row)
        if rc != 0:
            break
        longest = max(r["s"] for r in rounds) + 2 * calibration[-1]
        # a traced run needs at least one traced round after the untraced one
        if time.perf_counter() + longest > deadline and (traced or not args.trace):
            break
    calibration.append(calibrate())

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if recorder is not None:
        recorder.write_csv(Path(args.result).with_name("spans.csv"))
    result = {
        "import_s": import_s,
        "lqgames_file": str(Path(sys.modules["lqgames"].__file__).resolve()),
        "rounds": rounds,
        "calibration": calibration,
        "absent": absent,
        "peak_rss_mb": (own + children) / 1024.0,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
