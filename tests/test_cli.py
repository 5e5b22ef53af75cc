"""End-to-end command-line runs in a temp directory."""

import json

import pytest

from chargeopt import learning
from chargeopt.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, EXIT_TRAINING, main
from chargeopt.errors import TrainingFailureError
from chargeopt.optimizer import Scenario, save_scenario_json
from chargeopt.core import TimeGrid
from chargeopt.tariff import default_profiles, save_profile_csv


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _gen_events(tmp_path, n=6, seed=7):
    out = tmp_path / "events"
    cfg = _write(tmp_path / "gen.json", {"n_events": n, "seed": seed, "out": str(out)})
    assert main(["gen-synthetic", "--config", cfg]) == EXIT_OK
    return out


def test_gen_synthetic_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = _write(tmp_path / "a.json", {"n_events": 4, "seed": 7, "out": str(out_a)})
    cfg_b = _write(tmp_path / "b.json", {"n_events": 4, "seed": 7, "out": str(out_b)})
    assert main(["gen-synthetic", "--config", cfg_a]) == EXIT_OK
    assert main(["gen-synthetic", "--config", cfg_b]) == EXIT_OK
    names = sorted(p.name for p in out_a.glob("*.csv"))
    assert len(names) == 4
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["n_events"] == 4
    assert "plant" in manifest


def test_fit_thermal_and_validate(tmp_path):
    events = _gen_events(tmp_path, n=6, seed=11)
    fit_out = tmp_path / "fit"
    cfg = _write(
        tmp_path / "fit.json",
        {
            "events_dir": str(events),
            "out": str(fit_out),
            "seed": 3,
            "grid": [{"hidden_layers": 1, "neurons": 5}],
            "cv_epochs": 30,
            "final_epochs": 60,
        },
    )
    assert main(["fit-thermal", "--config", cfg]) == EXIT_OK
    assert (fit_out / "thermal_mlp.json").exists()
    assert (fit_out / "thermal_linear.json").exists()
    cv_rows = (fit_out / "cv_table.csv").read_text().strip().splitlines()
    assert cv_rows[0] == "hidden_layers,neurons,fold,rmse_k"
    assert len(cv_rows) == 1 + 1 * 5  # one architecture, five folds

    # same seed reruns bit-identically
    fit_out2 = tmp_path / "fit2"
    cfg2 = json.loads((tmp_path / "fit.json").read_text())
    cfg2["out"] = str(fit_out2)
    cfg2_path = _write(tmp_path / "fit2.json", cfg2)
    assert main(["fit-thermal", "--config", cfg2_path]) == EXIT_OK
    assert (fit_out / "thermal_mlp.json").read_bytes() == (fit_out2 / "thermal_mlp.json").read_bytes()

    val_out = tmp_path / "val"
    vcfg = _write(
        tmp_path / "val.json",
        {
            "events_dir": str(events),
            "out": str(val_out),
            "thermal_linear_json": str(fit_out / "thermal_linear.json"),
            "thermal_mlp_json": str(fit_out / "thermal_mlp.json"),
        },
    )
    assert main(["validate", "--config", vcfg]) == EXIT_OK
    rows = (val_out / "validation.csv").read_text().strip().splitlines()
    assert rows[0] == "model,local_rmse,global_mae"
    assert len(rows) == 1 + 4  # electrical + constant + linear + mlp


def test_fit_thermal_on_a_corpus_outside_the_physical_range_is_an_input_error(tmp_path, capsys):
    # temperatures alternating between +-1e200 lie outside [-40, 80] degC:
    # the corpus is rejected at load, before any training
    events = _gen_events(tmp_path, n=2, seed=11)
    for path in sorted(events.glob("*.csv")):
        lines = path.read_text().splitlines()
        for k in range(1, len(lines)):
            fields = lines[k].split(",")
            fields[3] = repr((-1.0) ** k * 1e200)  # theta_c
            lines[k] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit"
    cfg = _write(
        tmp_path / "fit.json",
        {"events_dir": str(events), "out": str(out), "grid": [{"hidden_layers": 1, "neurons": 5}], "cv_epochs": 3},
    )
    assert main(["fit-thermal", "--config", cfg]) == EXIT_INPUT
    assert "theta_c -1e+200 in data row 1" in capsys.readouterr().err
    assert not (out / "thermal_mlp.json").exists()


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("final_epochs", 0, "epochs"),
        ("final_epochs", 2.5, "epochs"),
        ("cv_epochs", -1, "epochs"),
        ("grid", [{"hidden_layers": 1, "neurons": 1.5}], "neurons_per_layer"),
    ],
)
def test_fit_thermal_with_an_architecture_that_is_not_positive_integers_is_an_input_error(
    tmp_path, capsys, key, value, field
):
    # epochs of 0 used to write the untrained initial weights and exit 0
    events = _gen_events(tmp_path, n=2, seed=11)
    out = tmp_path / "fit"
    cfg = {"events_dir": str(events), "out": str(out), "grid": [{"hidden_layers": 1, "neurons": 5}], "cv_epochs": 3}
    cfg[key] = value
    assert main(["fit-thermal", "--config", _write(tmp_path / "fit.json", cfg)]) == EXIT_INPUT
    assert f"{field} must be" in capsys.readouterr().err
    assert not (out / "thermal_mlp.json").exists()


def test_fit_thermal_exits_with_a_training_failure(tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise TrainingFailureError("training diverged at epoch 0", epoch=0)

    monkeypatch.setattr(learning, "fit_mlp", diverge)
    events = _gen_events(tmp_path, n=2, seed=11)
    out = tmp_path / "fit"
    cfg = _write(
        tmp_path / "fit.json",
        {"events_dir": str(events), "out": str(out), "grid": [{"hidden_layers": 1, "neurons": 5}], "cv_epochs": 3},
    )
    assert main(["fit-thermal", "--config", cfg]) == EXIT_TRAINING
    assert "training failed (epoch 0)" in capsys.readouterr().err
    assert not (out / "thermal_mlp.json").exists()


def test_ecm_tables_csv_with_a_non_finite_value_is_an_input_error(tmp_path, capsys):
    ecm = tmp_path / "ecm.csv"
    ecm.write_text("e_kwh,theta_c,u_ocv_v,r_i_ohm\n0,0,300,0.1\n0,25,300,inf\n80,0,420,0.1\n80,25,420,0.1\n")
    cfg = _write(
        tmp_path / "opt.json",
        {"scenario_json": str(_scenario_file(tmp_path)), "ecm_tables_csv": str(ecm), "out": str(tmp_path / "opt")},
    )
    assert main(["optimize", "--config", cfg]) == EXIT_INPUT
    assert "r_i must be positive and finite everywhere" in capsys.readouterr().err
    assert not (tmp_path / "opt" / "cost.json").exists()


def _scenario_file(tmp_path, **overrides):
    wd, _ = default_profiles()
    kwargs = dict(
        grid=TimeGrid(t0=14 * 3600.0, n_intervals=24, dt_min=5.0),
        e0=24.0,
        e_target=34.0,
        theta0=20.0,
        profile=wd,
    )
    kwargs.update(overrides)
    s = Scenario(**kwargs)
    path = tmp_path / "scenario.json"
    save_scenario_json(s, path)
    return path


def test_optimize_roundtrip(tmp_path):
    spath = _scenario_file(tmp_path)
    out = tmp_path / "opt"
    cfg = _write(tmp_path / "opt.json", {"scenario_json": str(spath), "out": str(out)})
    assert main(["optimize", "--config", cfg]) == EXIT_OK
    cost = json.loads((out / "cost.json").read_text())
    assert cost["feasible"] is True
    assert cost["total"] == pytest.approx(
        cost["j_e_buy"] + cost["j_e_sell"] + cost["j_d_cyc"] + cost["j_d_cal"]
    )
    rows = (out / "solution.csv").read_text().strip().splitlines()
    assert rows[0] == "n,t_s,p_kw,e_kwh,theta_c,j_e_eur,j_d_eur"
    assert len(rows) == 1 + 25  # header + N+1 instants
    first = rows[1].split(",")
    assert float(first[3]) == 24.0  # initial energy


def test_optimize_infeasible_exit_code(tmp_path):
    # target unreachable in 30 minutes at 2 kW
    spath = _scenario_file(
        tmp_path,
        grid=TimeGrid(t0=14 * 3600.0, n_intervals=6, dt_min=5.0),
        e_target=60.0,
        p_lo=0.0,
        p_hi=2.0,
    )
    out = tmp_path / "opt"
    cfg = _write(tmp_path / "opt.json", {"scenario_json": str(spath), "out": str(out)})
    assert main(["optimize", "--config", cfg]) == EXIT_INFEASIBLE


def test_input_error_exit_code(tmp_path):
    cfg = _write(tmp_path / "bad.json", {"scenario_json": str(tmp_path / "missing.json")})
    assert main(["optimize", "--config", cfg]) == EXIT_INPUT
    assert main(["validate", "--config", str(tmp_path / "nonexistent.json")]) == EXIT_INPUT


def test_optimize_rejects_a_non_integer_interval_count(tmp_path, capsys):
    spath = _scenario_file(tmp_path)
    data = json.loads(spath.read_text())
    data["grid"]["n_intervals"] = 24.5
    spath.write_text(json.dumps(data))
    cfg = _write(tmp_path / "opt.json", {"scenario_json": str(spath), "out": str(tmp_path / "opt")})
    assert main(["optimize", "--config", cfg]) == EXIT_INPUT
    assert "n_intervals must be an integer, got 24.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        (("grid", "t0"), float("inf")),
        (("grid", "dt_min"), float("nan")),
        (("p_hi",), float("inf")),
        (("e_hi",), float("inf")),
    ],
)
def test_optimize_rejects_a_non_finite_scenario_value(tmp_path, capsys, path, value):
    spath = _scenario_file(tmp_path)
    data = json.loads(spath.read_text())
    (data["grid"] if len(path) == 2 else data)[path[-1]] = value
    spath.write_text(json.dumps(data))
    cfg = _write(tmp_path / "opt.json", {"scenario_json": str(spath), "out": str(tmp_path / "opt")})
    assert main(["optimize", "--config", cfg]) == EXIT_INPUT
    assert "finite" in capsys.readouterr().err


def test_compare_modes_command(tmp_path):
    events = _gen_events(tmp_path, n=4, seed=13)
    out = tmp_path / "modes"
    cfg = _write(tmp_path / "modes.json", {"events_dir": str(events), "out": str(out)})
    assert main(["compare-modes", "--config", cfg]) == EXIT_OK
    rows = (out / "modes.csv").read_text().strip().splitlines()
    assert rows[0].startswith("event_id,mode,")
    assert (len(rows) - 1) % 3 == 0 and len(rows) > 1  # three rows per event


def test_sweep_commands(tmp_path):
    spath = _scenario_file(tmp_path)
    out = tmp_path / "sweeps"
    cfg = _write(
        tmp_path / "sweep.json",
        {"scenario_json": str(spath), "out": str(out), "gammas": [1.0, 1.8]},
    )
    assert main(["sweep-gamma", "--config", cfg]) == EXIT_OK
    rows = (out / "sweep_gamma.csv").read_text().strip().splitlines()
    assert len(rows) == 3

    cfg2 = _write(tmp_path / "vev.json", {"scenario_json": str(spath), "out": str(out)})
    assert main(["sweep-vev", "--config", cfg2]) == EXIT_OK
    rows = (out / "sweep_vev.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + {2770, 4470, 6080}
    assert [float(r.split(",")[0]) for r in rows[1:]] == [2770.0, 4470.0, 6080.0]


def test_sweep_gamma_single_point_matches_optimize(tmp_path):
    spath = _scenario_file(tmp_path)
    out_opt = tmp_path / "o1"
    out_sweep = tmp_path / "o2"
    cfg_opt = _write(tmp_path / "c1.json", {"scenario_json": str(spath), "out": str(out_opt)})
    cfg_sweep = _write(
        tmp_path / "c2.json", {"scenario_json": str(spath), "out": str(out_sweep), "gammas": [1.0]}
    )
    assert main(["optimize", "--config", cfg_opt]) == EXIT_OK
    assert main(["sweep-gamma", "--config", cfg_sweep]) == EXIT_OK
    cost = json.loads((out_opt / "cost.json").read_text())
    row = (out_sweep / "sweep_gamma.csv").read_text().strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(cost["total"], abs=1e-9)


@pytest.mark.parametrize(
    "extra_row, message",
    [
        ("-1,0.3,0.1", "hour -1, outside 0-23"),
        ("24,0.3,0.1", "hour 24, outside 0-23"),
        ("5,0.3,0.1", "hour 5 twice"),
    ],
    ids=["negative", "past-23", "duplicate"],
)
def test_profile_csv_with_a_bad_hour_is_an_input_error(tmp_path, capsys, extra_row, message):
    events = _gen_events(tmp_path, n=4, seed=13)
    good = tmp_path / "good.csv"
    save_profile_csv(default_profiles()[0], good)
    bad = tmp_path / "bad.csv"
    bad.write_text(good.read_text() + extra_row + "\n")
    cfg = _write(
        tmp_path / "modes.json",
        {"events_dir": str(events), "out": str(tmp_path / "modes"), "workday_profile_csv": str(bad),
         "weekend_profile_csv": str(good)},
    )
    assert main(["compare-modes", "--config", cfg]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_validate_rejects_a_non_finite_sample(tmp_path, capsys):
    events = _gen_events(tmp_path, n=2, seed=11)
    path = sorted(events.glob("*.csv"))[0]
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[2] = "nan"  # e_kwh of the second sample
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    cfg = _write(tmp_path / "val.json", {"events_dir": str(events), "out": str(tmp_path / "val")})
    assert main(["validate", "--config", cfg]) == EXIT_INPUT
    assert "non-finite e_kwh in data row 2" in capsys.readouterr().err
    assert not (tmp_path / "val" / "validation.csv").exists()
