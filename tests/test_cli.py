import json

import numpy as np
import pytest

from lqgames import cli
from lqgames.model import (LqGame, benchmark_game, game_to_dict, isotropic_noise,
                           save_game)


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
    # malformed seeds and initial gains: one line each, no traceback
    for doc in ({"seeds": 5}, {"seeds": ["a"]}, {"seeds": []}, {"seeds": [True]},
                {"seeds": [-1]}, {"initial_gain": [[[1, 2]]]},
                {"initial_gain": [[[1.0, 2.0, 3.0]]] * 4}, {"initial_gain": "bogus"}):
        cfg = write_config(tmp_path, mode="exact-npg", out=str(tmp_path / "o"),
                           solver={"T": 2}, **doc)
        assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG, doc
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, (doc, err)
    assert not (tmp_path / "o").exists()


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


def test_run_nonfinite_iterate_is_divergence(tmp_path, capsys):
    # desk radii with a small batch: an iterate jumps to non-finite values
    cfg = write_config(tmp_path, mode="zo-npg", seeds=[0], out=str(tmp_path / "o"),
                       zo={"r1": 2.0, "r2": 0.18, "M1": 300, "M2": 300, "tau1": 0.04,
                           "tau2": 4.67e-4, "T_in": 10, "T": 60})
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("divergence") and err.count("\n") == 1
    # named as non-finite, with the stepsize and the batch as likely causes
    assert "iterate 2 is not finite" in err
    assert "tau2=0.000467" in err and "M1=300, M2=300" in err
    assert (tmp_path / "o" / "trace_seed0.csv").exists()  # partial trace kept


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
