"""Command-line surface: synthetic data, training, optimization, reports.

Every command reads a JSON config (plus a few flag overrides), works on
local files only, and is deterministic given (config, seed). Exit codes:
0 success, 2 infeasible optimization, 3 input error, 4 training failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import aging, core, electrical, evaluation, learning, tariff, thermal
from .errors import InvalidParameterError, TrainingFailureError
from .optimizer import (
    BatteryModels,
    load_scenario_json,
    save_solution_csv,
    solve,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_TRAINING = 4


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    cfg.setdefault("out", "out")
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_tables(cfg) -> electrical.EcmTables:
    path = cfg.get("ecm_tables_csv")
    return electrical.load_tables_csv(path) if path else electrical.default_tables()


def _load_aging(cfg) -> aging.AgingParams:
    path = cfg.get("aging_params_json")
    return aging.load_params_json(path) if path else aging.default_params()


def _load_thermal(cfg) -> thermal.ThermalModel:
    path = cfg.get("thermal_model_json")
    return thermal.load_model(path) if path else thermal.constant_model()


def _load_models(cfg) -> BatteryModels:
    return BatteryModels(tables=_load_tables(cfg), thermal=_load_thermal(cfg), aging=_load_aging(cfg))


def _load_events(cfg) -> list[core.ChargingEvent]:
    dt = float(cfg.get("dt_min", 5.0))
    paths: list[Path] = []
    if "events_dir" in cfg:
        paths = sorted(Path(cfg["events_dir"]).glob("*.csv"))
    elif "events" in cfg:
        paths = [Path(p) for p in cfg["events"]]
    if not paths:
        raise InvalidParameterError("config needs events_dir or events with at least one CSV")
    manifest = Path(cfg["events_dir"]) / "manifest.json" if "events_dir" in cfg else None
    meta = {}
    if manifest and manifest.exists():
        with open(manifest) as fh:
            meta = json.load(fh).get("events", {})
    events = []
    for p in paths:
        if p.name == "manifest.json":
            continue
        m = meta.get(p.stem, {})
        ev = core.load_event_csv(
            p, dt_min=dt, t0=float(m.get("t0", 0.0)), soh0=float(m.get("soh0", 1.0))
        )
        events.append(dataclasses.replace(ev, name=p.stem))
    return events


def _profiles(cfg) -> tuple[tariff.PriceProfile, tariff.PriceProfile]:
    if "workday_profile_csv" in cfg or "weekend_profile_csv" in cfg:
        wd = tariff.load_profile_csv(cfg["workday_profile_csv"], "workday")
        we = tariff.load_profile_csv(cfg["weekend_profile_csv"], "weekend")
        return wd, we
    if "market_history_csv" in cfg:
        ts, pr = tariff.load_market_csv(cfg["market_history_csv"])
        wd, we = tariff.average_profiles(ts, pr)
        fee = float(cfg.get("fee_eur_per_kwh", tariff.DEFAULT_FEE_EUR_PER_KWH))
        tax = float(cfg.get("tax_rate", tariff.DEFAULT_TAX_RATE))
        wd_buy = tariff.supplement(wd.eps_buy, fee, tax)
        we_buy = tariff.supplement(we.eps_buy, fee, tax)
        return (
            tariff.PriceProfile(wd_buy, wd_buy.copy(), "workday"),
            tariff.PriceProfile(we_buy, we_buy.copy(), "weekend"),
        )
    return tariff.default_profiles()


def cmd_gen_synthetic(cfg) -> int:
    out = _out_dir(cfg)
    seed = int(cfg.get("seed", 0))
    n_events = int(cfg.get("n_events", 10))
    plant_cfg = cfg.get("plant", {})
    plant = thermal.ThermalPlant(**{k: float(v) for k, v in plant_cfg.items()})
    tables = _load_tables(cfg)
    dt = float(cfg.get("dt_min", 5.0))
    e_nom = float(cfg.get("e_nom", 80.0))
    events = thermal.generate_synthetic_events(plant, tables, n_events, seed, dt_min=dt, e_nom=e_nom)
    meta = {}
    for ev in events:
        core.save_event_csv(ev, out / f"{ev.name}.csv")
        meta[ev.name] = {"soh0": ev.soh0, "t0": ev.grid.t0}
    manifest = {
        "seed": seed,
        "n_events": n_events,
        "dt_min": dt,
        "e_nom": e_nom,
        "plant": dataclasses.asdict(plant),
        "events": meta,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {n_events} events and manifest.json to {out}")
    return EXIT_OK


def cmd_fit_thermal(cfg) -> int:
    out = _out_dir(cfg)
    seed = int(cfg.get("seed", 0))
    tables = _load_tables(cfg)
    events = _load_events(cfg)
    ds = learning.build_dataset(events, tables)
    threshold = float(cfg.get("screen_threshold", 0.1))
    ds = learning.screen_features(ds, threshold)
    nrm = learning.fit_normalizer(ds)
    dsz = learning.apply_normalizer(ds, nrm)

    cv_epochs = cfg.get("cv_epochs", 120)
    if "grid" in cfg:
        grid = [
            learning.MlpArchitecture(
                hidden_layers=g["hidden_layers"],
                neurons_per_layer=g["neurons"],
                epochs=cv_epochs,
            )
            for g in cfg["grid"]
        ]
    else:
        grid = [
            learning.MlpArchitecture(a.hidden_layers, a.neurons_per_layer, epochs=cv_epochs)
            for a in learning.default_grid()
        ]
    # checked here, before the cross-validation trains every grid cell on every fold
    final = learning.MlpArchitecture(epochs=cfg.get("final_epochs", 500))
    k = int(cfg.get("cv_folds", 5))
    try:
        best, cv_table = learning.grid_search_cv(dsz, grid, k=k, seed=seed)
        mlp = learning.fit_mlp(dsz, dataclasses.replace(best, epochs=final.epochs), seed=seed, normalization=nrm)
    except TrainingFailureError as exc:
        print(f"training failed (epoch {exc.epoch}): {exc}", file=sys.stderr)
        return EXIT_TRAINING
    linear = learning.fit_linear(dsz, normalization=nrm)
    thermal.save_model(mlp, out / "thermal_mlp.json")
    thermal.save_model(linear, out / "thermal_linear.json")
    learning.save_cv_table_csv(cv_table, out / "cv_table.csv")
    print(
        f"best architecture: {best.hidden_layers} hidden layers x {best.neurons_per_layer} neurons; "
        f"wrote thermal_mlp.json, thermal_linear.json, cv_table.csv to {out}"
    )
    return EXIT_OK


def cmd_optimize(cfg) -> int:
    out = _out_dir(cfg)
    s = load_scenario_json(cfg["scenario_json"])
    models = _load_models(cfg)
    sol = solve(s, models)
    save_solution_csv(sol, s, out / "solution.csv")
    cost = {
        "j_e_buy": sol.cost.j_e_buy,
        "j_e_sell": sol.cost.j_e_sell,
        "j_d_cyc": sol.cost.j_d_cyc,
        "j_d_cal": sol.cost.j_d_cal,
        "total": sol.cost.total,
        "feasible": sol.feasible,
        "notes": list(sol.notes),
    }
    with open(out / "cost.json", "w") as fh:
        json.dump(cost, fh, indent=2)
        fh.write("\n")
    if not sol.feasible:
        print("scenario infeasible: " + "; ".join(sol.notes or ("target unreachable",)), file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"optimal total {sol.cost.total:.4f} EUR; wrote solution.csv and cost.json to {out}")
    return EXIT_OK


def _corpus_setup(cfg):
    models = _load_models(cfg)
    events = evaluation.eligible_events(_load_events(cfg))
    if not events:
        raise InvalidParameterError("no events of sufficient duration")
    wd, we = _profiles(cfg)
    return models, events, wd, we


def cmd_compare_modes(cfg) -> int:
    out = _out_dir(cfg)
    models, events, wd, we = _corpus_setup(cfg)
    rows = []
    for ev in events:
        profile = tariff.profile_for_time(ev.grid.t0, wd, we)
        s = evaluation.scenario_for_event(ev, profile)
        cmp_ = evaluation.compare_modes(ev, s, models)
        for mode, sol in (("I", cmp_.mode_i), ("II", cmp_.mode_ii), ("III", cmp_.mode_iii)):
            if not sol.feasible:
                print(f"event {ev.name} mode {mode}: infeasible", file=sys.stderr)
        rows.append((ev.name, cmp_))
    evaluation.save_modes_csv(rows, out / "modes.csv")
    print(f"wrote modes.csv ({len(rows)} events) to {out}")
    return EXIT_OK


def _sweep_command(cfg, sweep, values, csv_name) -> int:
    out = _out_dir(cfg)
    s = load_scenario_json(cfg["scenario_json"])
    models = _load_models(cfg)
    result = sweep(s, models, [float(v) for v in values])
    for pt in result.points:
        if not pt.feasible:
            print(f"{result.axis_name} {pt.axis_value}: infeasible", file=sys.stderr)
    evaluation.save_sweep_csv(result, out / csv_name)
    print(f"wrote {csv_name} ({len(result.points)} points) to {out}")
    return EXIT_OK


def cmd_sweep_gamma(cfg) -> int:
    gammas = cfg.get("gammas", [1.0, 1.7, 1.75, 1.8])
    return _sweep_command(cfg, evaluation.sweep_gamma, gammas, "sweep_gamma.csv")


def cmd_sweep_vev(cfg) -> int:
    values = cfg.get("v_ev_values", [6080.0, 4470.0, 2770.0])
    return _sweep_command(cfg, evaluation.sweep_battery_price, values, "sweep_vev.csv")


def cmd_validate(cfg) -> int:
    out = _out_dir(cfg)
    tables = _load_tables(cfg)
    events = _load_events(cfg)
    thermal_models = {"constant": thermal.constant_model()}
    if cfg.get("thermal_linear_json"):
        thermal_models["linear"] = thermal.load_model(cfg["thermal_linear_json"])
    if cfg.get("thermal_mlp_json"):
        thermal_models["mlp"] = thermal.load_model(cfg["thermal_mlp_json"])
    report = evaluation.validate_models(events, tables, thermal_models, e_nom=float(cfg.get("e_nom", 80.0)))
    evaluation.save_validation_csv(report, out / "validation.csv")
    print(f"wrote validation.csv to {out}")
    return EXIT_OK


_COMMANDS = {
    "gen-synthetic": cmd_gen_synthetic,
    "fit-thermal": cmd_fit_thermal,
    "optimize": cmd_optimize,
    "compare-modes": cmd_compare_modes,
    "sweep-gamma": cmd_sweep_gamma,
    "sweep-vev": cmd_sweep_vev,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chargeopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: out)")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except TrainingFailureError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (InvalidParameterError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
