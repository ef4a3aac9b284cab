import inspect
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import fitguide.cli as cli
from fitguide import CartesianState, DatagenConfig, Scenario, TrainConfig, read_dataset, save_model, solve_ocp, write_dataset
from fitguide.cli import main


def test_gen_data_tiny(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(["gen-data", "--out", str(out), "--ni", "1", "--nj", "1",
                 "--t-bar", "0.01", "--step", "0.005"])
    assert code == 0
    data = read_dataset(out)
    assert len(data) <= 2


def test_gen_data_then_train_round_trip(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    model_path = tmp_path / "m.txt"
    report_path = tmp_path / "r.json"
    assert main(["gen-data", "--out", str(data_path), "--ni", "6", "--nj", "6",
                 "--t-bar", "1.5", "--step", "0.01"]) == 0
    assert main(["train", "--data", str(data_path), "--out", str(model_path),
                 "--report", str(report_path), "--epochs", "3", "--batch", "256"]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["epochs_run"] == 3
    assert len(report["epoch_seconds"]) == 3 and all(t > 0.0 for t in report["epoch_seconds"])
    assert model_path.exists()


def test_solve_case_a(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["solve", "--x0", "-10000", "--y0", "0", "--theta0", str(math.pi / 3),
                 "--speed", "500", "--tf", "25", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    j_val = float(text.split("J=")[1].split()[0])
    assert j_val == pytest.approx(2.1350e4, rel=0.01)
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "t,x,y,theta,r,sigma,u,a"


def test_solve_over_a_longer_file_equals_a_fresh_write(tmp_path, capsys):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    args = ["solve", "--x0", "-10000", "--y0", "0", "--theta0", str(math.pi / 3), "--speed", "500"]
    assert main(args + ["--tf", "40", "--out", str(reused)]) == 0
    longer = reused.stat().st_size
    assert main(args + ["--tf", "25", "--out", str(reused)]) == 0
    assert main(args + ["--tf", "25", "--out", str(fresh)]) == 0
    assert reused.stat().st_size < longer
    assert reused.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("dt", ["0", "-0.01", "inf", "nan"])
def test_solve_refuses_a_non_finite_or_non_positive_dt(capsys, dt):
    code = main(["solve", "--x0", "-10000", "--y0", "0", "--theta0", "1", "--speed", "500",
                 "--tf", "25", f"--dt={dt}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dt must be finite and positive" in err


@pytest.mark.parametrize("flag, value", [("--t-bar", "inf"), ("--alpha-bar", "nan")])
def test_gen_data_refuses_non_finite_floats(tmp_path, capsys, flag, value):
    code = main(["gen-data", "--out", str(tmp_path / "d.csv"), "--ni", "1", "--nj", "1", f"{flag}={value}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite and positive" in err


@pytest.mark.parametrize("bad", ["inf-row", "nan-lr"])
def test_train_refuses_bad_input(tmp_path, capsys, bad):
    rng = np.random.default_rng(0)
    data = rng.uniform(0.1, 1.0, (200, 4))
    if bad == "inf-row":
        data[7, 2] = math.inf
    data_path = tmp_path / "d.csv"
    write_dataset(data, data_path)
    args = ["train", "--data", str(data_path), "--out", str(tmp_path / "m.txt"), "--epochs", "1"]
    assert main(args + (["--lr", "nan"] if bad == "nan-lr" else [])) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "m.txt").exists()


def test_guide_oracle(capsys):
    code = main(["guide", "--r", "10000", "--sigma", str(math.pi / 3),
                 "--tgo", "25", "--speed", "500"])
    assert code == 0
    text = capsys.readouterr().out
    assert "u=" in text and "a=" in text
    u_val = float(text.split("u=")[1].split()[0])
    a_val = float(text.split("a=")[1].split()[0])
    assert a_val == pytest.approx(500.0 * u_val)


def test_guide_nn_requires_model(capsys):
    code = main(["guide", "--r", "100", "--sigma", "0.3", "--tgo", "5",
                 "--speed", "100", "--law", "nn"])
    assert code == 1
    assert "requires --model" in capsys.readouterr().err


def test_simulate_from_config(tmp_path, capsys, model):
    model_path = tmp_path / "m.txt"
    save_model(model, model_path)
    config = {"x0": -5000.0, "y0": 0.0, "theta0": 1.0, "speed": 500.0,
              "t_f": 20.0, "guidance": "nn", "dt": 0.01}
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run.csv"
    code = main(["simulate", "--config", str(cfg_path), "--model", str(model_path),
                 "--out", str(out)])
    assert code == 0
    assert "simulate[nn]" in capsys.readouterr().out
    assert out.exists()


def test_cli_defaults_are_the_configs_defaults(monkeypatch, capsys):
    # gen-data and train with no optional flag build the default configs,
    # solve steps at solve_ocp's dt, and a scenario file without guidance or
    # dt builds the default Scenario
    built = {}

    def capture(name, result):
        def called(*args):
            built[name] = args[-1]  # the config, the last argument
            return result
        return called

    report = SimpleNamespace(epochs_run=0, final_train_mse=0.0, final_val_mse=0.0)
    monkeypatch.setattr(cli, "generate_dataset", capture("gen-data", np.empty((0, 4))))
    monkeypatch.setattr(cli, "write_dataset", lambda data, path: None)
    monkeypatch.setattr(cli, "read_dataset", lambda path: np.empty((0, 4)))
    monkeypatch.setattr(cli, "train", capture("train", (None, report)))
    monkeypatch.setattr(cli, "save_model", lambda model, path: None)
    assert main(["gen-data", "--out", "unused.csv"]) == 0
    assert main(["train", "--data", "unused.csv", "--out", "unused.txt"]) == 0
    assert built == {"gen-data": DatagenConfig(), "train": TrainConfig()}
    args = cli.build_parser().parse_args(["solve", "--x0", "0", "--y0", "0", "--theta0", "0", "--speed", "1", "--tf", "1"])
    assert args.dt == inspect.signature(solve_ocp).parameters["dt"].default
    cfg = {"x0": -5000.0, "y0": 0.0, "theta0": 1.0, "speed": 500.0, "t_f": 20.0}
    assert cli._scenario_from_dict(cfg) == Scenario(CartesianState(-5000.0, 0.0, 1.0), 500.0, 20.0)


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"x0": 1, "y0": 2, "theta0": 0, "speed": 1,
                                    "t_f": 5, "warp": 9}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("update_period", 0.5), ("pn_gain", 4.0), ("max_time", 90.0)])
def test_simulate_refuses_removed_scenario_keys(tmp_path, capsys, key, value):
    # the re-solve period (1 s), PN gain (3) and PN time-out are fixed
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"x0": -5000, "y0": 0, "theta0": 1, "speed": 500, "t_f": 20,
                                    "guidance": "pn", key: value}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"unknown keys ['{key}']" in err


def test_simulate_rejects_infinite_impact_time(tmp_path, capsys):
    # json reads Infinity; the scenario refuses it before any run starts
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text('{"x0": -5000, "y0": 0, "theta0": 1, "speed": 500, "t_f": Infinity}', encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("simulate", [[1]], "scenario: must be an object"),
        # json's true is a Python bool, which is an int
        ("simulate", {"x0": True, "y0": 0, "theta0": 1, "speed": 500, "t_f": 20}, "'x0' must be a number"),
        ("salvo", {"t_f": 30, "interceptors": [5]}, "interceptors[0]: must be an object"),
    ],
    ids=["simulate-list", "simulate-bool-number", "salvo-number-entry"],
)
def test_malformed_configs_are_errors(tmp_path, capsys, command, config, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_salvo_from_config(tmp_path, capsys):
    cfg = {
        "t_f": 30.0,
        "guidance": "pn",
        "interceptors": [
            {"x0": -6000.0, "y0": 0.0, "theta0": 0.3, "speed": 400.0},
            {"x0": 0.0, "y0": -7000.0, "theta0": 1.8, "speed": 400.0},
        ],
    }
    cfg_path = tmp_path / "salvo.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["salvo", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "salvo #1" in out and "salvo #2" in out and "impact spread" in out


def test_verify_wiring(monkeypatch, capsys, tmp_path, model):
    import fitguide.verification as verification

    calls = {}

    class FakeResult:
        passed = True

    def fake_run(model=None, report=None, full_grid=True):
        calls["args"] = (model, report, full_grid)
        return [FakeResult()]

    monkeypatch.setattr(verification, "run_acceptance", fake_run)
    assert main(["verify"]) == 0
    assert calls.pop("args") == (None, None, True)
    assert main(["verify", "--no-full-grid"]) == 0
    assert calls.pop("args") == (None, None, False)
    saved = tmp_path / "m.txt"
    save_model(model, saved)
    assert main(["verify", "--model", str(saved)]) == 0
    loaded, report, full_grid = calls.pop("args")
    assert report is None and full_grid is True
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights, strict=True))
    # a bad --model fails before any check, or training, runs
    assert main(["verify", "--model", str(tmp_path / "missing.txt")]) == 1
    assert "args" not in calls
    assert capsys.readouterr().err.startswith("error:")


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate"])  # missing --config
    assert excinfo.value.code == 2


def test_idempotent_outputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen-data", "--ni", "4", "--nj", "4", "--t-bar", "1.0", "--step", "0.01"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # gen-data over an existing, longer file gives the fresh bytes every time
    assert main(["gen-data", "--ni", "6", "--nj", "6", "--t-bar", "1.5", "--step", "0.01", "--out", str(b)]) == 0
    for _ in range(2):
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
