"""Validation protocol, mode comparison, sweeps, gamma-star."""

import hashlib
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from conftest import numpy_reference
from oracles import reference_save_modes_csv

from chargeopt import electrical, evaluation, learning
from chargeopt.aging import default_params
from chargeopt.core import CostBreakdown, TimeGrid
from chargeopt.errors import InfeasiblePowerError, InvalidParameterError
from chargeopt.evaluation import (
    ModeComparison,
    ModelErrors,
    compare_modes,
    default_scenario,
    eligible_events,
    fixed_trajectory_aging,
    gamma_star,
    gamma_star_two_interval,
    save_modes_csv,
    save_sweep_csv,
    save_validation_csv,
    scenario_for_event,
    sweep_battery_price,
    sweep_gamma,
    thermal_effect,
    validate_models,
)
from chargeopt.optimizer import (
    BatteryModels,
    DdpSolution,
    Scenario,
    build_grids,
    nearest_index,
    replay,
    solve,
)
from chargeopt.optimizer import backend as backend_mod
from chargeopt.optimizer import build_transition_table, transitions
from chargeopt.optimizer.solver import induce
from chargeopt.tariff import PriceProfile, default_profiles, profile_for_time
from chargeopt.thermal import (
    ThermalModel,
    ThermalPlant,
    constant_model,
    generate_synthetic_events,
    plant_linear_model,
    step,
)


@pytest.fixture(scope="module")
def tables():
    return electrical.default_tables()


@pytest.fixture(scope="module")
def newtonian_corpus(tables):
    plant = ThermalPlant(noise_sigma=0.0, fan_gain=0.0)
    events = generate_synthetic_events(plant, tables, 8, seed=61)
    return plant, events


@pytest.fixture(scope="module")
def default_corpus(tables):
    return generate_synthetic_events(ThermalPlant(), tables, 10, seed=62)


def test_validate_perfect_models_zero_error(tables, newtonian_corpus):
    plant, events = newtonian_corpus
    perfect = plant_linear_model(plant, dt_min=5.0)
    report = validate_models(events, tables, {"linear": perfect})
    assert report.electrical.local_rmse == pytest.approx(0.0, abs=1e-9)
    assert report.electrical.global_mae == pytest.approx(0.0, abs=1e-9)
    assert report.thermal["linear"].local_rmse == pytest.approx(0.0, abs=1e-9)
    assert report.thermal["linear"].global_mae == pytest.approx(0.0, abs=1e-9)


def test_validate_constant_model_accumulates_error(tables, default_corpus):
    models = {
        "constant": constant_model(),
        "linear": plant_linear_model(ThermalPlant(fan_gain=0.0), dt_min=5.0),
    }
    report = validate_models(default_corpus, tables, models)
    const = report.thermal["constant"]
    lin = report.thermal["linear"]
    assert const.global_mae > const.local_rmse  # rollouts accumulate error
    assert lin.global_mae < const.global_mae
    assert lin.local_rmse < const.local_rmse


def test_validate_empty_corpus(tables):
    with pytest.raises(InvalidParameterError):
        validate_models([], tables, {"constant": constant_model()})


def _validation_models():
    rng = np.random.default_rng(4)
    widths = [4, 10, 10, 1]
    mlp = ThermalModel(
        variant="mlp",
        means=np.array([20.0, 0.5, 1.0, 20.0]),
        stds=np.array([10.0, 0.5, 1.0, 10.0]),
        layers=tuple((0.3 * rng.normal(size=(a, b)), 0.1 * rng.normal(size=b)) for a, b in zip(widths, widths[1:])),
    )
    return {
        "constant": constant_model(),
        "linear": plant_linear_model(ThermalPlant(fan_gain=0.0), dt_min=5.0),
        "mlp": mlp,
    }


def test_validate_invariant_under_event_order(tables, default_corpus):
    models = _validation_models()
    fwd = validate_models(default_corpus, tables, models)
    rev = validate_models(default_corpus[::-1], tables, models)
    assert rev == fwd


def test_validate_lockstep_equals_per_event_rollouts(tables):
    # unequal lengths and two dt values, stepped together
    events = generate_synthetic_events(ThermalPlant(), tables, 4, seed=63) + generate_synthetic_events(
        ThermalPlant(), tables, 3, seed=64, dt_min=15.0
    )
    assert len({ev.grid.n_intervals for ev in events}) > 1
    models = _validation_models()
    report = validate_models(events, tables, models)

    def mean(values):
        return math.fsum(values) / len(values)

    err_soc, gl_soc = [], []
    for ev in events:
        dt = ev.grid.dt_min
        de_hat, _ = electrical.energy_step(tables, ev.e[:-1], ev.theta[:-1], ev.p, dt)
        err_soc.extend((de_hat - np.diff(ev.e)) / 80.0 * 100.0)
        e_hat = ev.e[0]
        for n in range(ev.grid.n_intervals):
            e_hat = e_hat + electrical.energy_step(tables, e_hat, ev.theta[n], ev.p[n], dt)[0]
        gl_soc.append(abs(e_hat - ev.e[-1]) / 80.0 * 100.0)
    assert report.electrical == ModelErrors(math.sqrt(mean(np.square(err_soc))), mean(gl_soc))
    for name, model in models.items():
        err, gl = [], []
        for ev in events:
            dt = ev.grid.dt_min
            err.extend(step(tables, model, ev.e[:-1], ev.theta[:-1], ev.p, dt)[2] - np.diff(ev.theta))
            e_hat, th_hat = ev.e[0], ev.theta[0]
            for n in range(ev.grid.n_intervals):
                de, _, dth = step(tables, model, e_hat, th_hat, ev.p[n], dt)
                e_hat, th_hat = e_hat + de, th_hat + dth
            gl.append(abs(th_hat - ev.theta[-1]))
        assert report.thermal[name] == ModelErrors(math.sqrt(mean(np.square(err))), mean(gl)), name


def _models(tables, thermal_model=None):
    return BatteryModels(
        tables=tables,
        thermal=thermal_model or plant_linear_model(ThermalPlant(), dt_min=5.0),
        aging=default_params(),
    )


def test_compare_modes_unique_profile_all_equal(tables):
    # power bounds force full power everywhere: no freedom, all modes agree
    models = _models(tables)
    flat = PriceProfile(np.full(24, 0.28), np.full(24, 0.28), "custom")
    n = 24
    grid = TimeGrid(t0=10 * 3600.0, n_intervals=n, dt_min=5.0)
    probe = Scenario(
        grid=grid, e0=20.0, e_target=40.0, theta0=20.0, profile=flat,
        p_lo=0.0, p_hi=10.0, e_lo=8.0, e_hi=80.0,
    )
    target = replay(np.full(n, 10.0), probe, models).e_traj[-1]
    s = replace(probe, e_target=float(target))
    from chargeopt.core import ChargingEvent

    event = ChargingEvent(
        grid=grid,
        p=np.full(n, 10.0),
        e=np.linspace(20.0, target, n + 1),
        theta=np.full(n + 1, 20.0),
        u_bat=np.full(n + 1, 360.0),
    )
    cmp_ = compare_modes(event, s, models)
    assert np.allclose(cmp_.mode_i.p_star, 10.0)
    assert np.allclose(cmp_.mode_ii.p_star, 10.0)
    assert np.allclose(cmp_.mode_iii.p_star, 10.0)
    totals = [cmp_.mode_i.cost.total, cmp_.mode_ii.cost.total, cmp_.mode_iii.cost.total]
    assert max(totals) - min(totals) <= 1e-9
    assert cmp_.normalized_totals() == pytest.approx((1.0, 1.0, 1.0))


def test_compare_modes_rejects_short_event(tables):
    models = _models(tables)
    grid = TimeGrid(t0=0.0, n_intervals=6, dt_min=5.0)  # 30 minutes
    from chargeopt.core import ChargingEvent

    ev = ChargingEvent(
        grid=grid, p=np.zeros(6), e=np.full(7, 40.0), theta=np.full(7, 20.0), u_bat=np.full(7, 360.0)
    )
    s = scenario_for_event(ev, default_profiles()[0])
    with pytest.raises(InvalidParameterError):
        compare_modes(ev, s, models)


@pytest.mark.parametrize("bad", ["nan", "inf", "longer_than_the_scenario"])
def test_compare_modes_rejects_malformed_powers_before_any_backward_pass(monkeypatch, tables, bad):
    from chargeopt.core import ChargingEvent

    def event(n, p):
        grid = TimeGrid(t0=10 * 3600.0, n_intervals=n, dt_min=5.0)
        return ChargingEvent(
            grid=grid, p=p, e=np.linspace(20.0, 40.0, n + 1), theta=np.full(n + 1, 20.0), u_bat=np.full(n + 1, 360.0)
        )

    s = scenario_for_event(event(24, np.full(24, 10.0)), default_profiles()[0])
    p = np.full(24, 10.0)
    if bad == "longer_than_the_scenario":
        p = np.full(30, 10.0)
    else:
        p[5] = float(bad)
    passes = []
    monkeypatch.setattr(backend_mod, "backward_pass", lambda *a, **k: passes.append(1))
    with pytest.raises(InvalidParameterError, match="power trajectory"):
        compare_modes(event(len(p), p), s, _models(tables))
    assert passes == []


def test_compare_modes_objective_ordering(tables, default_corpus):
    from oracles import mode_ordering_gaps

    models = _models(tables)
    wd, _ = default_profiles()
    events = eligible_events(default_corpus)[:3]
    for ev in events:
        s = scenario_for_event(ev, wd)
        cmp_ = compare_modes(ev, s, models)
        tol = 0.01 * max(abs(cmp_.mode_i.cost.total), 1.0)
        gap_total, gap_je = mode_ordering_gaps(cmp_, s)
        assert gap_total <= tol
        assert gap_je <= tol


@pytest.fixture(scope="module")
def coarse_mode_events(tables):
    # on this coarse grid the Mode II solve of event 1 misses its target
    plant = ThermalPlant()
    models = _models(tables, plant_linear_model(plant))
    events = eligible_events(generate_synthetic_events(plant, tables, 2, seed=11))
    wd, we = default_profiles()
    coarse = dict(e_step=1.6, theta_step=2.0, p_step=2.0)
    return models, [(ev, scenario_for_event(ev, profile_for_time(ev.grid.t0, wd, we), **coarse)) for ev in events]


def _undeliverable_start(tables, s):
    """The first e0 on a 0.01 kWh scan from which a replay clamped to the
    deliverable floor still cannot be simulated: the floor, rounded, asks a
    little more than the circuit can give."""
    for e0 in np.arange(s.e_lo + 1.0, s.e_hi, 0.01):
        u, r = electrical.lookup_arrays(tables, e0, s.theta0)
        try:
            electrical.energy_step(tables, e0, s.theta0, electrical.max_discharge_power(u, r), s.grid.dt_min)
        except InfeasiblePowerError:
            return float(e0)
    raise AssertionError("no undeliverable start found")


def _bits(sol):
    arrays = (sol.p_star, sol.e_traj, sol.theta_traj, sol.j_e_steps, sol.j_d_steps)
    return [a.tobytes() for a in arrays] + [np.array(astuple(sol.cost)).tobytes(), sol.feasible, sol.notes]


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize(
    "case, rare_row, rare_note",
    [
        ("terminal_miss", 1, "terminal energy"),
        ("clamp", 0, "interval 3: power -500.000 kW clamped"),
        ("energy_below_zero", 0, "interval 3: cannot simulate action 7.200 kW (battery energy must be >= 0"),
        ("undeliverable", 0, "interval 0: cannot simulate action -"),
        ("left_region", 1, None),
    ],
)
def test_compare_modes_equals_replay_and_two_solves(monkeypatch, tables, coarse_mode_events, backend, case, rare_row, rare_note):
    # the three rollouts step together; each keeps the bits of its own loop
    # while one of them takes a rare path and the others go on
    if backend == "python":
        monkeypatch.setattr(backend_mod, "HAVE_COMPILED", False)
    elif not backend_mod.HAVE_COMPILED:
        pytest.skip("compiled kernel not built")
    models, events = coarse_mode_events
    ev, s = events[1] if case == "terminal_miss" else events[0]
    p = ev.p.copy()
    if case == "clamp":
        p[3] = -500.0
    elif case == "energy_below_zero":
        p[2] = -500.0  # the clamped discharge empties the battery
    elif case == "undeliverable":
        s = replace(s, e0=_undeliverable_start(tables, s))
        p[0] = -500.0
    ev = replace(ev, p=p)
    s_modes = [replace(s, include_aging_in_objective=flag) for flag in (False, True)]
    expected = [replay(ev.p, s, models)] + [solve(s_mode, models) for s_mode in s_modes]
    filled = []
    if case == "left_region":
        # leave out of Mode II's slice-1 box the row its trajectory reads there
        i = nearest_index(build_grids(s).e_d, expected[1].e_traj[1])

        def shrinking(models, runs, *args, **kwargs):
            induce(models, runs, *args, **kwargs)
            for s_mode, grids in runs:
                if not s_mode.include_aging_in_objective:
                    grids.region[1, 0] = i + 1
                filled.append(grids)

        monkeypatch.setattr(evaluation, "induce", shrinking)
    got = compare_modes(ev, s, models)
    sols = (got.mode_i, got.mode_ii, got.mode_iii)
    for sol, ref in zip(sols, expected):
        assert _bits(sol) == _bits(ref)
    if rare_note is not None:
        assert any(note.startswith(rare_note) for note in sols[rare_row].notes)
        assert [k for k, sol in enumerate(sols) if any(n.startswith(rare_note) for n in sol.notes)] == [rare_row]
    if case == "left_region":
        whole = [0, len(filled[0].e_d), 0, len(filled[0].theta_d)]
        assert np.all(filled[0].region == whole)  # Mode II reran its pass over every cell
        assert not np.all(filled[1].region == whole)


def test_eligible_events_filters_short(tables):
    from chargeopt.core import ChargingEvent

    long_grid = TimeGrid(t0=0.0, n_intervals=24, dt_min=5.0)
    short_grid = TimeGrid(t0=0.0, n_intervals=6, dt_min=5.0)
    mk = lambda g: ChargingEvent(
        grid=g,
        p=np.zeros(g.n_intervals),
        e=np.full(g.n_intervals + 1, 40.0),
        theta=np.full(g.n_intervals + 1, 20.0),
        u_bat=np.full(g.n_intervals + 1, 360.0),
    )
    kept = eligible_events([mk(long_grid), mk(short_grid)])
    assert len(kept) == 1
    assert kept[0].grid.n_intervals == 24


def test_thermal_effect_no_heating_means_no_difference(tables):
    # an (effectively) infinite heat capacity: learned model predicts ~0
    quiet = ThermalPlant(c_th=1e9, k_amb=0.0, noise_sigma=0.0, fan_gain=0.0)
    models = _models(tables, plant_linear_model(quiet, dt_min=5.0))
    s = replace(default_scenario(), grid=TimeGrid(t0=14 * 3600.0, n_intervals=48, dt_min=5.0), e_target=44.0)
    rep = thermal_effect(s, models)
    assert np.array_equal(rep.sol_constant.p_star, rep.sol_learned.p_star)
    assert rep.underestimation == pytest.approx(0.0, abs=1e-9)


def test_thermal_effect_high_power_split(tables):
    # heating-dominant: small heat capacity, warm start, tight window
    plant = ThermalPlant(c_th=0.05, k_amb=0.01, theta_amb=15.0, noise_sigma=0.0, fan_gain=0.0)
    models = _models(tables, plant_linear_model(plant, dt_min=5.0))
    s = Scenario(
        grid=TimeGrid(t0=16 * 3600.0, n_intervals=60, dt_min=5.0),
        e0=20.0, e_target=70.0, theta0=25.0, profile=default_profiles()[0], soh0=0.97,
    )
    rep = thermal_effect(s, models)
    assert rep.n_high > 0 and rep.n_low > 0
    assert rep.mean_dev_high_kw > rep.mean_dev_low_kw
    assert rep.underestimation > 0.0  # constant temperature understates the cost
    assert rep.constant_repriced.cost.total >= rep.sol_constant.cost.total


def test_sweep_gamma_baseline_matches_mode_iii(tables, default_corpus):
    models = _models(tables)
    ev = eligible_events(default_corpus)[0]
    wd, _ = default_profiles()
    s = scenario_for_event(ev, wd)
    cmp_ = compare_modes(ev, s, models)
    result = sweep_gamma(s, models, [1.0])
    assert result.points[0].cost.total == pytest.approx(cmp_.mode_iii.cost.total, abs=1e-9)


def test_sweep_gamma_monotone(tables):
    models = _models(tables)
    s = replace(default_scenario(), grid=TimeGrid(t0=14 * 3600.0, n_intervals=72, dt_min=5.0))
    result = sweep_gamma(s, models, [1.0, 1.4, 1.8])
    totals = result.totals
    assert np.all(np.diff(totals) <= 1e-9)
    sells = np.array([abs(pt.cost.j_e_sell) for pt in result.points])
    assert np.all(np.diff(sells) >= -1e-9)
    counts = np.array([pt.n_discharge_intervals for pt in result.points])
    assert np.all(np.diff(counts) >= 0)


def test_sweep_gamma_rejects_bad_axis(tables):
    models = _models(tables)
    s = default_scenario()
    with pytest.raises(InvalidParameterError):
        sweep_gamma(s, models, [1.0, 1.0])


def test_sweep_battery_price_linearity_and_order(tables):
    models = _models(tables)
    s = replace(default_scenario(), grid=TimeGrid(t0=14 * 3600.0, n_intervals=48, dt_min=5.0), e_target=44.0)
    baseline = solve(s, models)
    assert fixed_trajectory_aging(baseline.cost, 6080.0, 0.0) == 0.0
    half = fixed_trajectory_aging(baseline.cost, 6080.0, 3040.0)
    assert half == pytest.approx(baseline.cost.j_d / 2, rel=1e-12)
    r2025 = 1.0 - fixed_trajectory_aging(baseline.cost, 6080.0, 4470.0) / baseline.cost.j_d
    r2030 = 1.0 - fixed_trajectory_aging(baseline.cost, 6080.0, 2770.0) / baseline.cost.j_d
    assert r2025 == pytest.approx(1.0 - 4470.0 / 6080.0, abs=1e-12)
    assert r2030 == pytest.approx(1.0 - 2770.0 / 6080.0, abs=1e-12)
    assert round(100 * r2025, 1) == 26.5
    assert round(100 * r2030, 1) == 54.4
    result = sweep_battery_price(s, models, [2770.0, 4470.0, 6080.0])
    jds = [pt.cost.j_d for pt in result.points]
    assert jds[0] <= jds[1] <= jds[2]  # cheaper batteries age for less money


def test_gamma_star_values():
    assert gamma_star(3.7, 0.0, 1.0) == 1.0
    assert gamma_star(2.0, 0.5, 0.9) == pytest.approx(3.0 / 1.8)
    with pytest.raises(InvalidParameterError):
        gamma_star(0.0, 0.5, 0.9)
    with pytest.raises(InvalidParameterError):
        gamma_star(1.0, 0.5, 1.1)


def test_gamma_star_homogeneous():
    a = gamma_star(2.0, 0.5, 0.9)
    b = gamma_star(20.0, 5.0, 0.9)
    assert a == pytest.approx(b, rel=1e-12)


def test_gamma_star_two_interval_in_plausible_band(tables):
    models = _models(tables)
    wd, _ = default_profiles()
    g = gamma_star_two_interval(models, eps_buy=float(np.mean(wd.eps_buy)))
    assert 1.2 <= g <= 2.2


def test_report_csvs(tmp_path, tables, default_corpus):
    models = _models(tables)
    wd, _ = default_profiles()
    ev = eligible_events(default_corpus)[0]
    s = scenario_for_event(ev, wd)
    cmp_ = compare_modes(ev, s, models)
    modes_path = tmp_path / "modes.csv"
    save_modes_csv([(ev.name, cmp_)], modes_path)
    lines = modes_path.read_text().strip().splitlines()
    assert lines[0] == "event_id,mode,j_e_buy,j_e_sell,j_d_cyc,j_d_cal,total,total_norm"
    assert len(lines) == 4  # header + 3 modes
    reference_save_modes_csv([(ev.name, cmp_)], tmp_path / "reference.csv")
    assert modes_path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    sweep = sweep_gamma(s, models, [1.0, 1.8])
    sweep_path = tmp_path / "sweep.csv"
    save_sweep_csv(sweep, sweep_path)
    rows = sweep_path.read_text().strip().splitlines()
    assert rows[0] == "axis_value,j_e_buy,j_e_sell,j_d_cyc,j_d_cal,total,total_norm"
    assert len(rows) == 3
    first = rows[1].split(",")
    assert float(first[-1]) == pytest.approx(1.0)  # normalized against the first point

    report = validate_models([ev], tables, {"constant": constant_model()})
    val_path = tmp_path / "validation.csv"
    save_validation_csv(report, val_path)
    vrows = val_path.read_text().strip().splitlines()
    assert vrows[0] == "model,local_rmse,global_mae"
    assert vrows[1].startswith("electrical_ecm,")
    assert vrows[2].startswith("constant,")


# event ids the csv module must quote or leave alone, and cost values whose
# repr is easy to get wrong; one case has a Mode I total of 0 (total_norm nan)
_CSV_EVENT_IDS = ["ev,1", 'say "hi"', "two\nlines", "cr\rid", "", "  padded  ", "plain_007"]
_CSV_COSTS = [
    (0.0, 0.0, 0.0, 0.0),
    (float("nan"), -0.0, 1e-17, 0.0),
    (float("inf"), float("-inf"), 0.5, 1e-17),
    (1.2345678901234567, -0.1, 0.03, 0.0),
    (-0.0, -0.0, -0.0, -0.0),
]


def _solution(costs) -> DdpSolution:
    empty = np.zeros(0)
    return DdpSolution(empty, empty, empty, CostBreakdown(*costs), True, empty, empty)


def _csv_rows(n: int) -> list:
    """n (event_id, comparison) rows cycling through the edge cases above."""
    k = len(_CSV_COSTS)
    return [
        (
            _CSV_EVENT_IDS[i % len(_CSV_EVENT_IDS)] + ("" if i < len(_CSV_EVENT_IDS) else str(i)),
            ModeComparison(*(_solution(_CSV_COSTS[(i + m) % k]) for m in range(3))),
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("n", [1, 2, 50])
def test_save_modes_csv_has_the_bytes_of_the_row_by_row_writer(tmp_path, n):
    rows = _csv_rows(n)
    save_modes_csv(rows, tmp_path / "modes.csv")
    reference_save_modes_csv(rows, tmp_path / "reference.csv")
    assert (tmp_path / "modes.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    # rewriting the same rows, their text now cached, gives the same bytes
    save_modes_csv(rows, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_save_modes_csv_after_an_appended_event_extends_the_previous_file(tmp_path):
    rows = _csv_rows(9)
    previous = None
    for n in range(1, len(rows) + 1):
        save_modes_csv(rows[:n], tmp_path / "modes.csv")
        text = (tmp_path / "modes.csv").read_bytes()
        if previous is not None:
            assert text.startswith(previous) and len(text) > len(previous)
        previous = text


def test_a_replaced_comparison_writes_its_new_values(tmp_path):
    (event_id, cmp_), = _csv_rows(1)
    save_modes_csv([(event_id, cmp_)], tmp_path / "old.csv")
    changed = replace(cmp_, mode_iii=_solution((3.0, -1.0, 0.25, 0.125)))
    save_modes_csv([(event_id, changed)], tmp_path / "modes.csv")
    reference_save_modes_csv([(event_id, changed)], tmp_path / "reference.csv")
    assert (tmp_path / "modes.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "modes.csv").read_bytes() != (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "modes.csv").read_text().splitlines()[-1].endswith(",III,3.0,-1.0,0.25,0.125,2.375,nan")


def test_a_second_write_formats_no_comparison_again(tmp_path, monkeypatch):
    formatted = []
    format_rows = ModeComparison.csv_rows.func

    def counting(cmp_):
        formatted.append(cmp_)
        return format_rows(cmp_)

    monkeypatch.setattr(ModeComparison.csv_rows, "func", counting)
    rows = _csv_rows(20)
    save_modes_csv(rows[:19], tmp_path / "modes.csv")
    assert len(formatted) == 19
    save_modes_csv(rows[:19], tmp_path / "modes.csv")
    assert len(formatted) == 19
    save_modes_csv(rows, tmp_path / "modes.csv")
    assert len(formatted) == 20 and formatted[19] is rows[19][1]


def _pipeline_digests():
    """Digests of every stage that steps the circuit model and the thermal
    predictor: the synthetic corpus, the training set, a validation report,
    a transition table and a solve, on an MLP trained on that corpus."""
    tables = electrical.default_tables()
    plant = ThermalPlant()
    events = generate_synthetic_events(plant, tables, 6, seed=21)
    ds = learning.build_dataset(events, tables)
    nrm = learning.fit_normalizer(ds)
    arch = learning.MlpArchitecture(2, 5, epochs=30)
    mlp = learning.fit_mlp(learning.apply_normalizer(ds, nrm), arch, normalization=nrm)
    thermal_models = {"constant": constant_model(), "linear": plant_linear_model(plant), "mlp": mlp}
    report = validate_models(events, tables, thermal_models)
    s = scenario_for_event(eligible_events(events)[0], default_profiles()[0], e_step=1.6, theta_step=2.0, p_step=2.0)
    models = BatteryModels(tables=tables, thermal=mlp, aging=default_params())
    transitions._last_table = None  # build, do not reuse the other path's table
    table = build_transition_table(s, models, build_grids(s))
    sol = solve(s, models)

    def digest(*arrays):
        return hashlib.sha256(b"".join(np.ascontiguousarray(a, float).tobytes() for a in arrays)).hexdigest()

    return {
        "events": digest(*(v for ev in events for v in (ev.p, ev.e, ev.theta, ev.u_bat))),
        "dataset": digest(ds.x, ds.y),
        "report": repr(report),
        "table": digest(table.valid, table.corner00, table.frac_e, table.frac_theta, table.cyc_fade, table.succ_box),
        "solve": (digest(sol.p_star, sol.e_traj, sol.theta_traj), astuple(sol.cost), sol.notes),
    }


def test_pipelines_have_the_bits_of_the_numpy_definitions(mlp_path):
    assert _pipeline_digests() == numpy_reference(_pipeline_digests)
