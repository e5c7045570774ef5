"""In-memory span recorder that wraps the public functions of ``lqgames``.

Wrapping happens from outside the package: each layer function is replaced,
in its defining module and in every ``lqgames`` module that imported it by
name, with a wrapper that records one span (name, start, end, parent).  Spans
live in flat arrays until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# (module, attribute path, layer name); a dotted attribute is wrapped on its class
LAYERS = (
    ("model", "NoiseModel.sample", "model.noise_sample"),
    ("model", "resolve_game", "model.resolve_game"),
    ("certify", "solve_nash", "certify.solve_nash"),
    ("certify", "best_response_L", "certify.best_response_L"),
    ("certify", "in_Khat_set", "certify.in_Khat_set"),
    ("certify", "value_blocks", "certify.value_blocks"),
    ("certify", "natural_gradients", "certify.natural_gradients"),
    ("certify", "objective", "certify.objective"),
    ("sim", "batch_rollout", "sim.batch_rollout"),
    ("sim", "mean_covariance_blocks", "sim.mean_covariance_blocks"),
    ("zo", "sample_unit_sphere", "zo.sample_unit_sphere"),
    ("zo", "zo_gradient", "zo.zo_gradient"),
    ("zo", "natural_step", "zo.natural_step"),
    ("zo", "inner_zo_oracle", "zo.inner_zo_oracle"),
    ("zo", "outer_zo_npg", "zo.outer_zo_npg"),
    ("exact", "outer_npg_exact", "exact.outer_npg_exact"),
    ("exact", "inner_npg_exact", "exact.inner_npg_exact"),
    ("trace", "RunTrace.write_csv", "trace.write_csv"),
)

# layers whose ``count`` argument is a number of simulated trajectories
TRAJECTORY_LAYERS = {"sim.batch_rollout"}


class Recorder:
    """Spans of one process; ``parent`` is -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.trajectories = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, count_param: int | None = None):
        """Wrap ``fn``; ``count_param`` is the position of its trajectory count."""
        nid = self._intern(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.start.append(0.0)
            rec.end.append(0.0)
            if count_param is not None:
                rec.trajectories += int(kwargs["count"] if "count" in kwargs else args[count_param])
            rec._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter()
                rec.start[idx] = t0
                rec._stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every layer that exists; returns the names of absent ones."""
        absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lqgames" or n.startswith("lqgames."))]
        for mod_name, attr, name in LAYERS:
            owner = sys.modules.get(f"lqgames.{mod_name}")
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None) if owner is not None else None
            if not callable(fn):
                absent.append(name)
                continue
            count_param = None
            if name in TRAJECTORY_LAYERS:
                params = list(inspect.signature(fn).parameters)
                if "count" in params:
                    count_param = params.index("count")
                else:
                    absent.append("sim.trajectories")
            wrapped = self.wrap(fn, name, count_param)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
        return absent

    def summary(self, lo: int, hi: int) -> dict:
        """Per layer over spans lo..hi-1: calls, inclusive and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap, since spans nest on one
        thread.
        """
        dur = {i: self.end[i] - self.start[i] for i in range(lo, hi)}
        child = dict.fromkeys(dur, 0.0)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(lo, hi):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def count_under(self, name: str, ancestor: str, lo: int, hi: int,
                    direct: bool = False) -> int:
        """Spans lo..hi-1 called ``name`` below a span called ``ancestor``."""
        try:
            nid, aid = self.names.index(name), self.names.index(ancestor)
        except ValueError:
            return 0
        total = 0
        for i in range(lo, hi):
            if self.name_id[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name_id[p] == aid:
                    total += 1
                    break
                if direct:
                    break
                p = self.parent[p]
        return total

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")
