"""The benchmark's traced layers exist and are called on the calling thread only.

``perfbench/tracer.py`` wraps each layer it lists and keeps one span stack,
so a layer that is renamed, loses its trajectory ``count`` or runs on another
thread breaks the traced benchmark.  The list is read here, never edited.
"""

import importlib
import importlib.util
import inspect
import json
import sys
import threading
from pathlib import Path

from lqgames import cli

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def _resolve(mod_name, attr):
    """(owner, attribute name, function) of a layer; a dotted attribute lives on a class."""
    owner = importlib.import_module(f"lqgames.{mod_name}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf, None)


def test_traced_layers_exist():
    for mod_name, attr, name in _layers():
        assert callable(_resolve(mod_name, attr)[2]), name
    _, _, rollout = _resolve("sim", "batch_rollout")
    assert "count" in inspect.signature(rollout).parameters


def _recording(fn, name, calls):
    def wrapped(*args, **kwargs):
        calls.append((name, threading.get_ident()))
        return fn(*args, **kwargs)
    return wrapped


def test_traced_layers_run_on_calling_thread(tmp_path, monkeypatch):
    calls = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "lqgames" or n.startswith("lqgames."))]
    for mod_name, attr, name in _layers():
        owner, leaf, fn = _resolve(mod_name, attr)
        wrapped = _recording(fn, name, calls)
        if "." in attr:
            monkeypatch.setattr(owner, leaf, wrapped)
            continue
        for mod in modules:  # also where it was imported by name
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, wrapped)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "mode": "zo-npg", "seeds": [0], "out": str(tmp_path / "o"),
        # desk radii at a batch where runs on all of 300 seeds tried stay feasible
        "zo": {"r1": 2.0, "r2": 0.18, "M1": 2000, "M2": 2000, "T_in": 2, "T": 2}}))
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OK
    called = {name for name, _ in calls}
    assert {"zo.outer_zo_npg", "zo.inner_zo_oracle", "zo.zo_gradient", "zo.sample_unit_sphere",
            "zo.natural_step", "sim.batch_rollout", "sim.mean_covariance_blocks",
            "model.noise_sample", "certify.best_response_L", "trace.write_csv"} <= called
    # 2 outer iterations x (2 inner + 1 outer) steps x 2 rollouts
    assert sum(name == "sim.batch_rollout" for name, _ in calls) == 12
    # the trace's anchored-set column: one test per outer iterate
    assert sum(name == "certify.in_Khat_set" for name, _ in calls) == 2
    main = threading.get_ident()
    assert [c for c in calls if c[1] != main] == []
