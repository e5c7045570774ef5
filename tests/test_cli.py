import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import first_index
from lqgames import cli
from lqgames.exact import DivergenceError
from lqgames.model import (LqGame, benchmark_game, benchmark_initial_gain, game_to_dict,
                           isotropic_noise, save_game, scalar_demo_game)
from lqgames.zo import ZoConfig, outer_zo_npg


def write_config(tmp_path, **doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_nash_benchmark(tmp_path, capsys):
    rc = cli.main(["nash", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "value=3.2330" in out
    assert "margin=4.2860" in out
    doc = json.loads((tmp_path / "o" / "nash.json").read_text())
    assert doc["value"] == pytest.approx(3.2330, abs=5e-4)


def test_nash_dump_certificate(tmp_path):
    rc = cli.main(["nash", "--out", str(tmp_path / "o"), "--dump-certificate"])
    assert rc == cli.EXIT_OK
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert "P_blocks" in cert and "objective" in cert


def test_nash_infeasible_exit_code(tmp_path, capsys):
    one = np.array([[1.0]])
    bad = LqGame(A=(one,), B=(one,), D=(one,),
                 Q=(one, one), Ru=(one,), Rw=(np.array([[0.5]]),),
                 noise=isotropic_noise(1, 1))
    game_path = tmp_path / "bad.json"
    save_game(bad, game_path)
    cfg = write_config(tmp_path, game=str(game_path), mode="nash")
    rc = cli.main(["nash", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_run_exact_npg(tmp_path):
    cfg = write_config(tmp_path, game="scalar_demo", mode="exact-npg",
                       initial_gain=[[[0.8]]], out=str(tmp_path / "o"),
                       solver={"inner_mode": "exact", "tau2": 0.2, "T": 50})
    rc = cli.main(["run", "--config", cfg])
    assert rc == cli.EXIT_OK
    trace = (tmp_path / "o" / "trace_seed0.csv").read_text().splitlines()
    assert trace[0].startswith("t,objective_gap")
    assert len(trace) == 51
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["seeds"] == [0]
    assert summary["final_gaps"]["0"] < summary["initial_gaps"]["0"]
    assert (tmp_path / "o" / "summary.csv").exists()


def test_run_zo_npg_multiseed(tmp_path):
    cfg = write_config(tmp_path, game="scalar_demo", mode="zo-npg",
                       seeds=[0, 1], out=str(tmp_path / "o"),
                       initial_gain=[[[0.8]]],
                       zo={"r1": 0.05, "r2": 0.05, "M1": 500, "M2": 500,
                           "tau1": 0.2, "tau2": 0.05, "T_in": 3, "T": 5})
    rc = cli.main(["run", "--config", cfg])
    assert rc == cli.EXIT_OK
    for seed in (0, 1):
        lines = (tmp_path / "o" / f"trace_seed{seed}.csv").read_text().splitlines()
        assert len(lines) == 6
        # stochastic runs record cumulative sample counts
        assert lines[1].split(",")[6] != ""


def test_run_divergence_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="exact-npg", out=str(tmp_path / "o"),
                       solver={"inner_mode": "exact", "tau2": 2e-3, "T": 50})
    rc = cli.main(["run", "--config", cfg])
    assert rc == cli.EXIT_DIVERGENCE
    assert "divergence" in capsys.readouterr().err
    assert (tmp_path / "o" / "trace_seed0.csv").exists()  # partial trace kept


def test_run_artifacts_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = write_config(tmp_path, game="scalar_demo", mode="zo-npg",
                           out=str(tmp_path / name), initial_gain=[[[0.8]]],
                           zo={"r1": 0.05, "r2": 0.05, "M1": 500, "M2": 500,
                               "tau1": 0.2, "tau2": 0.05, "T_in": 3, "T": 5})
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_OK
        outs.append({p.name: p.read_bytes()
                     for p in sorted((tmp_path / name).iterdir())})
    assert outs[0] == outs[1]


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path, game="scalar_demo", mode="zo-npg",
                       out=str(tmp_path / "o"), initial_gain=[[[0.8]]],
                       zo={"r1": 0.05, "r2": 0.05, "M1": 200, "M2": 200,
                           "tau1": 0.2, "tau2": 0.05, "T_in": 2, "T": 3})
    rc = cli.main(["run", "--config", cfg, "--seed", "5", "--seed", "6"])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "o" / "trace_seed5.csv").exists()
    assert (tmp_path / "o" / "trace_seed6.csv").exists()
    assert not (tmp_path / "o" / "trace_seed0.csv").exists()


def test_verify_command(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="verify", verify_instances=2)
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "0 failing" in out
    assert (tmp_path / "o" / "verify_reports.jsonl").exists()


def test_bad_config_exit_codes(tmp_path, capsys):
    assert cli.main(["nash", "--config", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG
    cfg = write_config(tmp_path, mode="nash", bogus_key=1)
    assert cli.main(["nash", "--config", cfg]) == cli.EXIT_CONFIG
    cfg = write_config(tmp_path, mode="not-a-mode")
    assert cli.main(["nash", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    # malformed documents, seeds, sections and initial gains: one line each,
    # no traceback
    base = {"mode": "exact-npg", "out": str(tmp_path / "o"), "solver": {"T": 2}}
    for doc in ({"seeds": 5}, {"seeds": ["a"]}, {"seeds": []}, {"seeds": [True]},
                {"seeds": [-1]}, {"initial_gain": [[[1, 2]]]},
                {"game": "scalar_demo", "initial_gain": [[[True]]]},
                {"initial_gain": [[[1.0, 2.0, 3.0]]] * 4}, {"initial_gain": "bogus"},
                {"mode": "zo-npg", "zo": "x"}, {"mode": "zo-npg", "zo": 5}, {"solver": "x"},
                {"game": 5}, {"game": None}, {"out": 5}, 5, None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**base, **doc} if isinstance(doc, dict) else doc))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG, doc
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, (doc, err)
    assert not (tmp_path / "o").exists()


# values of the wrong type or far out of range, for any config field
_JUNK = st.sampled_from([None, True, -1, 0, 0.5, 1e-300, 1e300, float("nan"), float("inf"),
                         "x", [], [1], {}, {"a": 1}])

# valid run documents whose sizes keep a run to milliseconds
_VALID_RUN_DOCS = st.fixed_dictionaries({
    "mode": st.sampled_from(["exact-npg", "zo-npg"]),
    "game": st.sampled_from(["benchmark", "scalar_demo"]),
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2),
    "solver": st.fixed_dictionaries({
        "T": st.integers(1, 3), "T_in": st.integers(1, 2), "inner_cap": st.integers(1, 3),
        "inner_mode": st.sampled_from(["fixed", "gap", "exact"]),
        "tau1": st.sampled_from([0.1, 1e3, 1e300]), "tau2": st.sampled_from([4.67e-4, 1e300]),
        "eps1": st.sampled_from([1e-6, 1e-300]), "stop_gap": st.sampled_from([None, 1.0])}),
    "zo": st.fixed_dictionaries({
        "T": st.integers(1, 3), "T_in": st.integers(1, 2),
        "M1": st.integers(1, 50), "M2": st.integers(1, 50),
        "r1": st.sampled_from([2.0, 1e-300, 1e300]), "r2": st.sampled_from([0.18, 1e-300, 1e300]),
        "tau1": st.sampled_from([0.04, 1e300]), "tau2": st.sampled_from([4.67e-4, 1e300]),
        "gate_policy": st.sampled_from(["regularize", "reject-and-resample"])}),
}, optional={"initial_gain": st.sampled_from(["zero", "benchmark", [[[0.8]]]])})

# (section or None, key) of every field a corruption may replace with junk
_FIELDS = [(None, f.name) for f in dataclasses.fields(cli.ExperimentConfig)] + [
    (None, "bogus"), ("solver", "bogus"), ("zo", "bogus")] + [
    ("solver", k) for k in ("T", "T_in", "inner_cap", "inner_mode", "tau1", "tau2", "eps1",
                            "stop_gap")] + [
    ("zo", k) for k in ("T", "T_in", "M1", "M2", "r1", "r2", "tau1", "tau2", "gate_policy",
                        "seed")]


def _corrupt(doc: dict, edits: list) -> dict:
    for (section, key), value in edits:
        owner = doc if section is None else doc[section]
        if isinstance(owner, dict):
            owner[key] = value
    return doc


_RUN_DOCS = st.one_of(_JUNK, st.builds(
    _corrupt, _VALID_RUN_DOCS,
    st.lists(st.tuples(st.sampled_from(_FIELDS), _JUNK), max_size=2)))


# output directories relative to a scratch directory holding the regular file "f"
_OUTS = st.sampled_from(["o", "a\x00b", "f", "f/o"])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_RUN_DOCS, out=_OUTS)
def test_fuzzed_run_config_ends_in_documented_code(capsys, doc, out):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        (Path(tmp) / "f").write_text("")
        rc = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / out)])
    err = capsys.readouterr().err
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE, cli.EXIT_DIVERGENCE,
                  cli.EXIT_COVARIANCE_GATE, cli.EXIT_INNER_LOOP), (doc, rc)
    assert err.count("\n") == (rc != cli.EXIT_OK), (doc, err)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["run", "--bogus"], ["run", "--seed", "x"], ["run", "--full"],
    ["run", "--dump-certificate"], ["nash", "--full", "--timings"], ["nash", "--seed", "1"],
    ["verify", "--timings"], ["verify", "--dump-certificate"], ["verify", "--seed", "1"],
])
def test_usage_error_is_config_error(capsys, argv):
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: lqgames") and err.count("\n") == 1, err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "-h"])
    assert exc.value.code == 0
    assert "--timings" in capsys.readouterr().out


def test_nash_nonfinite_game_is_config_error(tmp_path, capsys):
    doc = game_to_dict(benchmark_game())
    doc["stages"][0]["A"][0][0] = float("nan")
    game_path = tmp_path / "nan.json"
    game_path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, game=str(game_path), mode="nash")
    rc = cli.main(["nash", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "A[0]" in err and err.count("\n") == 1
    assert not (tmp_path / "o" / "nash.json").exists()


def _replace(doc, path, value):
    """A copy of a game document with the field at ``path`` (keys, then indices) replaced."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value", [
    (("horizon",), "abc"),
    (("horizon",), float("inf")),
    (("stages",), 5),
    (("stages", 0), 3.0),
    (("noise", "bound"), "x"),
    (("noise", "kind"), "bogus"),
    ((), [1, 2]),
], ids=["horizon-text", "horizon-infinite", "stages-number", "stage-number", "bound-text",
        "kind-unknown", "top-level-list"])
def test_nash_malformed_game_file_is_config_error(tmp_path, capsys, path, value):
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(_replace(game_to_dict(benchmark_game()), path, value)))
    cfg = write_config(tmp_path, game=str(game_path), mode="nash")
    rc = cli.main(["nash", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err
    assert not (tmp_path / "o" / "nash.json").exists()


_GAME_DOCS = {"benchmark": game_to_dict(benchmark_game()),
              "scalar": game_to_dict(scalar_demo_game())}
_MATRIX_KEYS = ("A", "B", "D", "Q", "Ru", "Rw")


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _matrix_paths(doc):
    """Paths of every matrix of a game document."""
    return ([("stages", h, k) for h in range(len(doc["stages"])) for k in _MATRIX_KEYS]
            + [("terminal_Q",)]
            + [("noise", "covariance_blocks", i)
               for i in range(len(doc["noise"]["covariance_blocks"]))])


def _ragged(doc, draw):
    how = draw(st.sampled_from(["short-row", "extra-column", "extra-row", "flat",
                                "drop-stage", "extra-stage", "drop-covariance"]))
    if how == "drop-stage":
        doc["stages"].pop()
    elif how == "extra-stage":
        doc["stages"].append(doc["stages"][0])
    elif how == "drop-covariance":
        doc["noise"]["covariance_blocks"].pop()
    else:
        path = draw(st.sampled_from(_matrix_paths(doc)))
        mat = _get(doc, path)
        if how == "short-row":
            mat[-1] = mat[-1][:-1]
        elif how == "extra-column":
            for row in mat:
                row.append(0.0)
        elif how == "extra-row":
            mat.append(list(mat[0]))
        else:
            _get(doc, path[:-1])[path[-1]] = mat[0]


def _missing_key(doc, draw):
    paths = ([(k,) for k in doc] + [("stages", 0, k) for k in _MATRIX_KEYS]
             + [("noise", k) for k in ("kind", "covariance_blocks", "bound")])
    path = draw(st.sampled_from(paths))
    del _get(doc, path[:-1])[path[-1]]


def _fixed_state_without_zero_noise(doc, draw):
    doc["noise"]["fixed_initial_state"] = [1.0] * len(doc["terminal_Q"])
    doc["noise"]["kind"] = draw(st.sampled_from(["truncated-gaussian", "scaled-uniform"]))


def _indefinite(doc, draw):
    paths = [p for p in _matrix_paths(doc) if p[-1] in ("Ru", "Rw") or p[0] == "noise"]
    mat = _get(doc, draw(st.sampled_from(paths)))
    diag = draw(st.sampled_from([-1.0, 0.0, -1e-3]))
    for i, row in enumerate(mat):
        row[:] = [0.0] * len(row)
        row[i] = diag if i == len(mat) - 1 else 1.0


def _wrong_type(doc, draw):
    paths = ([(k,) for k in doc] + [("stages", 0), ("stages", 0, "A"), ("stages", 0, "A", 0),
                                    ("stages", 0, "Rw", 0, 0), ("terminal_Q", 0, 0)]
             + [("noise", k) for k in ("kind", "covariance_blocks", "bound")]
             + [("noise", "covariance_blocks", 0, 0)])
    path = draw(st.sampled_from(paths))
    _get(doc, path[:-1])[path[-1]] = draw(st.sampled_from(["x", None, {}, {"a": 1}, [], [["x"]]]))


def _non_finite(doc, draw):
    value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    target = draw(st.sampled_from(["entry", "bound", "horizon"]))
    if target == "entry":
        mat = _get(doc, draw(st.sampled_from(_matrix_paths(doc))))
        mat[draw(st.integers(0, len(mat) - 1))][0] = value
    else:
        _get(doc, ("noise",) if target == "bound" else ())[target] = value


def _lenient_number(doc, draw):
    """A value that ``int`` or ``float`` would read as a number.

    A bool, text or float horizon, or a bool bound, matrix entry or fixed
    initial state entry.
    """
    target = draw(st.sampled_from(["horizon", "bound", "entry", "fixed_initial_state"]))
    corner = st.sampled_from([0, -1])
    if target == "horizon":
        N = doc["horizon"]
        doc["horizon"] = draw(st.sampled_from([N + 0.5, float(N), str(N), True, False]))
    elif target == "bound":
        doc["noise"]["bound"] = draw(st.booleans())
    elif target == "entry":
        mat = _get(doc, draw(st.sampled_from(_matrix_paths(doc))))
        mat[draw(corner)][draw(corner)] = draw(st.booleans())
    else:  # with the fixed-state noise kind, so that the boolean is the only defect
        doc["noise"]["kind"] = "deterministic-zero"
        doc["noise"]["fixed_initial_state"] = state = [0.5] * len(doc["terminal_Q"])
        state[draw(corner)] = draw(st.booleans())


@st.composite
def _bad_game_docs(draw):
    """A saved game document with one or two distinct defects, none of which undoes another."""
    doc = json.loads(json.dumps(_GAME_DOCS[draw(st.sampled_from(sorted(_GAME_DOCS)))]))
    corruptions = [_ragged, _missing_key, _fixed_state_without_zero_noise, _indefinite,
                   _wrong_type, _non_finite, _lenient_number]
    for i, corrupt in enumerate(draw(st.lists(st.sampled_from(corruptions), min_size=1,
                                              max_size=2, unique=True))):
        try:
            corrupt(doc, draw)
        except (KeyError, IndexError, TypeError, AttributeError):
            assert i > 0  # a second defect may not fit the first one's document
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_bad_game_docs())
def test_fuzzed_game_document_is_config_error(capsys, doc):
    with tempfile.TemporaryDirectory() as tmp:
        game_path = Path(tmp) / "game.json"
        game_path.write_text(json.dumps(doc))
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({"game": str(game_path), "mode": "nash"}))
        rc = cli.main(["nash", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        assert not (Path(tmp) / "o" / "nash.json").exists()
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG, (doc, err)
    assert err.startswith("config error") and err.count("\n") == 1, (doc, err)


def test_run_nonfinite_iterate_is_divergence(tmp_path, capsys):
    # an overflowing stepsize: the first step takes the iterate to non-finite values
    cfg = write_config(tmp_path, mode="zo-npg", seeds=[0], out=str(tmp_path / "o"),
                       zo={"r1": 2.0, "r2": 0.18, "M1": 2000, "M2": 2000, "tau1": 0.04,
                           "tau2": 1e300, "T_in": 2, "T": 3})
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("divergence") and err.count("\n") == 1
    # named as non-finite, with the stepsize and the batch as likely causes
    assert "iterate 1 is not finite" in err
    assert "tau2=1e+300" in err and "M1=2000, M2=2000" in err
    assert (tmp_path / "o" / "trace_seed0.csv").exists()  # partial trace kept


def test_run_tight_noise_bound_is_config_error(tmp_path, capsys):
    # a truncated-Gaussian bound that rejects every draw ends the run with one
    # line instead of redrawing forever
    doc = game_to_dict(benchmark_game())
    doc["noise"]["bound"] = 1e-9
    game_path = tmp_path / "tight.json"
    game_path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, game=str(game_path), mode="zo-npg", seeds=[0],
                       initial_gain="benchmark", out=str(tmp_path / "o"),
                       zo={"M1": 50, "M2": 50, "T": 1})
    assert cli.main(["nash", "--config", cfg]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: truncated-Gaussian noise bound 1e-09") and err.count("\n") == 1, err


def _singular_outer_covariance(zo_doc, seed):
    """Whether the run of ``zo_doc`` on the benchmark stops at a singular outer covariance."""
    try:
        outer_zo_npg(benchmark_game(), benchmark_initial_gain(), ZoConfig(seed=seed, **zo_doc))
    except DivergenceError as exc:
        return "the covariance estimate for a step on K is singular" in str(exc)
    return False


def test_run_singular_covariance_is_divergence(tmp_path, capsys):
    # batches of two or three: on some seeds the inner ascent diverges and the
    # outer step's covariance estimate is singular, which once escaped as a
    # LinAlgError
    zo_doc = {"r1": 2.0, "r2": 0.18, "M1": 2, "M2": 3, "tau1": 0.04, "tau2": 4.67e-4,
              "T_in": 2, "T": 1}
    seed = first_index(lambda s: _singular_outer_covariance(zo_doc, s))
    assert seed is not None
    cfg = write_config(tmp_path, mode="zo-npg", seeds=[seed], out=str(tmp_path / "o"), zo=zo_doc)
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("divergence") and err.count("\n") == 1, err
    assert "the covariance estimate for a step on K is singular" in err


@pytest.mark.parametrize("mode, section, params, code, message", [
    # M = 1 gives rank-one covariance blocks, so the gate fails both attempts
    ("zo-npg", "zo", {"M1": 1, "M2": 1, "T_in": 1, "T": 1,
                      "gate_policy": "reject-and-resample"},
     cli.EXIT_COVARIANCE_GATE, "covariance gate failed twice"),
    ("exact-npg", "solver", {"inner_mode": "gap", "eps1": 1e-12, "inner_cap": 1, "T": 3},
     cli.EXIT_INNER_LOOP, "inner loop failed to reach gap 1e-12 in 1 iterations"),
])
def test_run_solver_stop_exit_codes(tmp_path, capsys, mode, section, params, code, message):
    cfg = write_config(tmp_path, mode=mode, seeds=[0], out=str(tmp_path / "o"),
                       **{section: params})
    assert cli.main(["run", "--config", cfg]) == code
    err = capsys.readouterr().err
    assert err.startswith("stopped (seed 0): ") and err.count("\n") == 1, err
    assert message in err
    assert (tmp_path / "o" / "trace_seed0.csv").exists()  # partial trace kept


@pytest.mark.parametrize("mode, section, bad", [
    ("zo-npg", "zo", {"tau2": float("nan")}),
    ("zo-npg", "zo", {"M1": 10.5}),
    ("zo-npg", "zo", {"T": 2.5}),
    ("exact-npg", "solver", {"tau2": float("nan")}),
    ("exact-npg", "solver", {"T": 2.5}),
])
def test_run_rejects_bad_solver_numbers(tmp_path, capsys, mode, section, bad):
    cfg = write_config(tmp_path, mode=mode, seeds=[0], out=str(tmp_path / "o"),
                       **{section: bad})
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_rejects_nash_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="nash")
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["nash", "run", "verify"])
@pytest.mark.parametrize("out", ["a\x00b", "file/o"])
def test_unmakeable_out_is_config_error(tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, mode={"run": "exact-npg"}.get(command, command),
                       solver={"T": 2}, verify_instances=1)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot make output directory") and err.count("\n") == 1


def test_run_infeasible_initial_gain(tmp_path, capsys):
    # the benchmark game has a Nash value, but the zero gain is infeasible
    cfg = write_config(tmp_path, mode="exact-npg", initial_gain="zero",
                       out=str(tmp_path / "o"), solver={"T": 2})
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: the initial gain K0 is infeasible at stage 0: "
                          "lambda_min(Rw - D'P*D) = -8.437599e+02 <= 0") and err.count("\n") == 1
    assert "upper value of the game" not in err


def test_python_m_lqgames(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "lqgames", "nash", "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert "value=3.2330" in done.stdout
    assert (tmp_path / "o" / "nash.json").exists()
