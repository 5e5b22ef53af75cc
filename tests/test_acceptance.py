"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion. The synthetic corpus and trained predictors are session-scoped
and shared; seeds are frozen.
"""

import functools
import time

import numpy as np
import pytest

from chargeopt import electrical, learning, thermal
from chargeopt.aging import aging_cost, calendar_fade, cyclic_fade, default_params
from chargeopt.core import TimeGrid
from chargeopt.evaluation import (
    compare_modes,
    default_scenario,
    eligible_events,
    fixed_trajectory_aging,
    gamma_star,
    gamma_star_two_interval,
    scenario_for_event,
    sweep_gamma,
    thermal_effect,
    validate_models,
)
from chargeopt.optimizer import (
    BatteryModels,
    Scenario,
    backward_induction,
    build_grids,
    forward_integration,
    nearest_index,
    solve,
)
from chargeopt.tariff import default_profiles, profile_for_time
from chargeopt.thermal import ThermalPlant, constant_model, generate_synthetic_events
from oracles import brute_force_optimum, finite_difference_gradients, random_tiny_instance

CORPUS_SEED = 2024
TRAIN_SEED = 7
N_EVENTS = 100

# Mode-ordering comparisons re-cost trajectories on continuous dynamics while
# optimality holds on the snapped chain; allow 1% of the Mode I total for the
# chain-vs-continuous re-costing drift (typically ~0.5%).
MODE_ORDER_TOL_FRACTION = 0.01


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL - {label}")
                raise
            print(f"[criterion {num:02d}] PASS - {label}")
            return result

        return wrapped

    return deco


@pytest.fixture(scope="session")
def tables():
    return electrical.default_tables()


@pytest.fixture(scope="session")
def corpus(tables):
    return generate_synthetic_events(ThermalPlant(), tables, N_EVENTS, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def trained(tables, corpus):
    """(linear, mlp, training_seconds) fitted on the session corpus."""
    t0 = time.time()
    ds = learning.build_dataset(corpus, tables)
    screened = learning.screen_features(ds, 0.1)
    nrm = learning.fit_normalizer(screened)
    dsz = learning.apply_normalizer(screened, nrm)
    linear = learning.fit_linear(dsz, normalization=nrm)
    arch = learning.MlpArchitecture(hidden_layers=2, neurons_per_layer=10, epochs=2500)
    mlp = learning.fit_mlp(dsz, arch, seed=TRAIN_SEED, normalization=nrm)
    return linear, mlp, time.time() - t0


@pytest.fixture(scope="session")
def models(tables, trained):
    _, mlp, _ = trained
    return BatteryModels(tables=tables, thermal=mlp, aging=default_params())


@criterion(1, "DDP matches exhaustive search on 50 tiny instances in < 5 s")
def test_criterion_01_ddp_oracle_equivalence():
    rng = np.random.default_rng(424242)
    t0 = time.time()
    n_feasible = 0
    for trial in range(50):
        s, inst_models = random_tiny_instance(rng)
        grids = build_grids(s)
        backward_induction(s, grids, inst_models)
        best_cost, best_seq, best_ok = brute_force_optimum(s, grids, inst_models)
        i0 = nearest_index(grids.e_d, s.e0)
        j0 = nearest_index(grids.theta_d, s.theta0)
        assert abs(grids.cost[0, i0, j0] - best_cost) <= 1e-9, f"instance {trial}"
        sol = forward_integration(s, grids, inst_models)
        if best_ok:
            assert np.array_equal(sol.p_star, best_seq), f"instance {trial}"
            assert sol.feasible, f"instance {trial}"
            n_feasible += 1
        else:
            assert not sol.feasible, f"instance {trial}"
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f} s"
    assert n_feasible >= 15  # the sweep must exercise real optima, not only penalties


@criterion(2, "ECM power balance and current-root residual on 1000 draws")
def test_criterion_02_power_balance():
    rng = np.random.default_rng(31415)
    u = rng.uniform(300.0, 420.0, 1000)
    r = rng.uniform(0.05, 0.3, 1000)
    p = rng.uniform(-50.0, 50.0, 1000)
    p = np.maximum(p, electrical.max_discharge_power(u, r) + 1e-9)
    i = electrical.battery_current(u, r, p)
    p_w = p * 1000.0
    u_bat = u + r * i
    assert np.all(np.abs(u_bat * i - p_w) <= 1e-6 * np.maximum(1.0, np.abs(p_w)))
    residual = r * i**2 + u * i - p_w
    assert np.all(np.abs(residual) <= 1e-9 * np.maximum(1.0, np.abs(p_w)))


@criterion(3, "round-trip asymmetry reproduces +2.92100 / -3.08831 kWh")
def test_criterion_03_round_trip_asymmetry(tables):
    # default tables give 360 V, 0.1 Ohm at 40 kWh and 25 degC
    de_chg, _ = electrical.energy_step(tables, 40.0, 25.0, 36.0, 5.0)
    de_dis, _ = electrical.energy_step(tables, 40.0, 25.0, -36.0, 5.0)
    assert round(de_chg, 5) == 2.92100
    assert round(de_dis, 5) == -3.08831


@criterion(4, "aging consistency: zero-dt, split additivity, symmetry, V_EV linearity")
def test_criterion_04_aging_consistency():
    params = default_params()
    theta, e, h0 = 25.0, 40.0, 0.975
    assert calendar_fade(params, theta, e, h0, 0.0) == 0.0
    whole = calendar_fade(params, theta, e, h0, 9.0)
    first = calendar_fade(params, theta, e, h0, 4.0)
    second = calendar_fade(params, theta, e, h0 - first, 5.0)
    assert abs(first + second - whole) <= 1e-12
    assert cyclic_fade(params, 2.921) == cyclic_fade(params, -2.921)
    j_cyc, j_cal = aging_cost(params, 2.0, theta, e, h0, 5.0)
    base = type("C", (), {"j_d": j_cyc + j_cal})()
    r2025 = 1.0 - fixed_trajectory_aging(base, 6080.0, 4470.0) / base.j_d
    r2030 = 1.0 - fixed_trajectory_aging(base, 6080.0, 2770.0) / base.j_d
    assert abs(r2025 - (1.0 - 4470.0 / 6080.0)) <= 1e-12
    assert abs(r2030 - (1.0 - 2770.0 / 6080.0)) <= 1e-12
    assert round(100 * r2025, 1) == 26.5
    assert round(100 * r2030, 1) == 54.4


@criterion(5, "MLP analytic gradients match finite differences on 100 draws")
def test_criterion_05_gradient_check():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        sizes = [int(rng.integers(2, 5))] + [int(rng.integers(2, 5))] * int(rng.integers(1, 3)) + [1]
        layers = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            layers.append(
                [rng.normal(scale=0.8, size=(fan_in, fan_out)), rng.normal(scale=0.3, size=fan_out)]
            )
        x = rng.normal(size=(int(rng.integers(2, 7)), sizes[0]))
        y = rng.normal(size=x.shape[0])
        analytic, _ = learning.mlp_gradients(layers, x, y)
        numeric = finite_difference_gradients(layers, x, y)
        for (gw, gb), (fw, fb) in zip(analytic, numeric):
            denom_w = np.maximum(np.maximum(np.abs(gw), np.abs(fw)), 1e-6)
            denom_b = np.maximum(np.maximum(np.abs(gb), np.abs(fb)), 1e-6)
            assert np.all(np.abs(gw - fw) / denom_w <= 1e-4)
            assert np.all(np.abs(gb - fb) / denom_b <= 1e-4)


@criterion(6, "Table-II-style error ordering on the 100-event corpus in < 5 min")
def test_criterion_06_error_ordering(tables, corpus, trained):
    linear, mlp, train_seconds = trained
    t0 = time.time()
    report = validate_models(
        corpus, tables, {"constant": constant_model(), "linear": linear, "mlp": mlp}
    )
    elapsed = train_seconds + (time.time() - t0)
    c = report.thermal["constant"]
    l = report.thermal["linear"]
    m = report.thermal["mlp"]
    assert m.global_mae < l.global_mae < c.global_mae, (
        f"global MAE ordering violated: mlp {m.global_mae:.3f}, linear {l.global_mae:.3f}, "
        f"constant {c.global_mae:.3f}"
    )
    assert m.local_rmse < min(l.local_rmse, c.local_rmse), (
        f"local RMSE not smallest for mlp: {m.local_rmse:.4f} vs linear {l.local_rmse:.4f}, "
        f"constant {c.local_rmse:.4f}"
    )
    assert elapsed < 300.0, f"criterion took {elapsed:.1f} s including training"


# Mode III may emit one-cell-scale corrective micro-discharges (forward-pass
# policy mixing between adjacent cells, and piecewise-linear value-curvature
# wiggles), bounded by the grid quantum; real arbitrage moves tens of kWh.
MICRO_DISCHARGE_KWH = 1.0
STRICTLY_CLEAN_FRACTION = 0.95


@pytest.fixture(scope="session")
def mode_runs(corpus, models):
    """Mode comparison for every eligible corpus event, shared downstream."""
    workday, weekend = default_profiles()
    runs = []
    for ev in eligible_events(corpus):
        s = scenario_for_event(ev, profile_for_time(ev.grid.t0, workday, weekend))
        runs.append((ev, s, compare_modes(ev, s, models)))
    return runs


@criterion(7, "mode ordering holds per event; no Mode III arbitrage at gamma = 1")
def test_criterion_07_mode_ordering(mode_runs):
    from oracles import mode_ordering_gaps

    assert len(mode_runs) == N_EVENTS  # the generator only emits >= 2 h events
    clean = 0
    for ev, s, cmp_ in mode_runs:
        tol = MODE_ORDER_TOL_FRACTION * max(abs(cmp_.mode_i.cost.total), 1.0)
        gap_total, gap_je = mode_ordering_gaps(cmp_, s)
        assert gap_total <= tol, f"{ev.name}: total(III) above total(II) by {gap_total:.4f}"
        assert gap_je <= tol, f"{ev.name}: J_E(II) above J_E(III) by {gap_je:.4f}"
        assert cmp_.mode_iii.feasible, ev.name
        discharged = float(np.sum(np.maximum(0.0, -cmp_.mode_iii.p_star)) * s.grid.dt_h)
        assert discharged <= MICRO_DISCHARGE_KWH, (
            f"{ev.name}: Mode III discharges {discharged:.2f} kWh at gamma=1"
        )
        clean += discharged == 0.0
    assert clean >= STRICTLY_CLEAN_FRACTION * len(mode_runs), (
        f"only {clean}/{len(mode_runs)} events are free of discharge intervals"
    )


@criterion(8, "gamma sweep: totals fall, rewards and discharge intervals grow")
def test_criterion_08_gamma_sweep(models):
    # default scenario derated to a bidirectional 11 kW wallbox: with wide
    # power bounds the optimizer trades discharge depth against interval
    # count near saturation, which makes the raw interval count wiggle
    s = default_scenario(p_lo=-11.0, p_hi=11.0)
    gammas = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    result = sweep_gamma(s, models, gammas)
    totals = result.totals
    rewards = np.array([abs(pt.cost.j_e_sell) for pt in result.points])
    counts = np.array([pt.n_discharge_intervals for pt in result.points])
    assert np.all(np.diff(totals) <= 1e-9), f"totals not non-increasing: {totals}"
    assert np.all(np.diff(rewards) >= -1e-9), f"rewards not non-decreasing: {rewards}"
    assert np.all(np.diff(counts) >= 0), f"discharge counts not non-decreasing: {counts}"
    assert all(pt.feasible for pt in result.points)


@criterion(9, "gamma-star: exact unit baseline and plausible two-interval threshold")
def test_criterion_09_gamma_star(models):
    rng = np.random.default_rng(5)
    for _ in range(20):
        j_e = float(rng.uniform(0.01, 10.0))
        assert gamma_star(j_e, 0.0, 1.0) == 1.0  # exact
    workday, _ = default_profiles()
    g = gamma_star_two_interval(
        models, eps_buy=float(np.mean(workday.eps_buy)), p_abs=7.0, theta=21.0, eta=0.997
    )
    assert 1.2 <= g <= 2.2, f"two-interval threshold {g:.3f} outside [1.2, 2.2]"


@criterion(10, "thermal-model effect concentrates above 7 kW")
def test_criterion_10_thermal_effect(models):
    s = Scenario(
        grid=TimeGrid(t0=16 * 3600.0, n_intervals=60, dt_min=5.0),
        e0=20.0,
        e_target=70.0,
        theta0=25.0,
        profile=default_profiles()[0],
        soh0=0.97,
    )
    rep = thermal_effect(s, models)
    assert rep.n_high > 0 and rep.n_low > 0
    assert rep.mean_dev_high_kw > rep.mean_dev_low_kw, (
        f"high-power deviation {rep.mean_dev_high_kw:.3f} kW not above "
        f"low-power deviation {rep.mean_dev_low_kw:.3f} kW"
    )


@criterion(11, "full-scale Mode III solve finishes in < 60 s")
def test_criterion_11_full_scale_performance(models):
    s = default_scenario()
    t0 = time.time()
    grids = build_grids(s)
    assert grids.shape == (91, 86, 101)
    assert s.grid.n_intervals == 96
    sol = solve(s, models)
    elapsed = time.time() - t0
    assert sol.feasible
    assert abs(sol.e_traj[-1] - s.e_target) <= 0.5 * s.e_step  # terminal adherence
    assert elapsed < 60.0, f"solve took {elapsed:.1f} s"
