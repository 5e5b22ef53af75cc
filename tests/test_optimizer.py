"""DDP solver: grids, nearest-index rules, oracle equivalence, backends."""

import copy
import json
import platform
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chargeopt import electrical, thermal
from chargeopt.aging import calendar_fade, default_params
from chargeopt.core import TimeGrid
from chargeopt.errors import InvalidParameterError
from chargeopt.evaluation import default_scenario
from chargeopt.optimizer import (
    HAVE_COMPILED,
    BatteryModels,
    Scenario,
    active_backend,
    backward_induction,
    build_grids,
    build_transition_table,
    clear_table_cache,
    forward_integration,
    load_scenario_json,
    make_range,
    nearest_index,
    nearest_indices,
    replay,
    save_scenario_json,
    scenario_from_dict,
    scenario_to_dict,
    solve,
)
from chargeopt.optimizer import _kernel_py
from chargeopt.optimizer import backend as backend_mod
from chargeopt.optimizer import solver as solver_mod
from chargeopt.optimizer.scenario import _SCENARIO_SCALARS
from chargeopt.tariff import PriceProfile
from oracles import brute_force_optimum, chain_transitions, random_tiny_instance

BACKENDS = ["python"] + (["compiled"] if HAVE_COMPILED else [])


def _flat_profile(buy=0.3, sell=None):
    b = np.full(24, buy)
    s = np.full(24, sell if sell is not None else buy)
    return PriceProfile(b, s, "custom")


def _simple_models(u0=360.0, r=1e-9):
    tables = electrical.EcmTables(
        e_axis=np.array([0.0, 100.0]),
        theta_axis=np.array([0.0, 60.0]),
        u_ocv=np.full((2, 2), u0),
        r_i=np.full((2, 2), r),
    )
    return BatteryModels(tables=tables, thermal=thermal.constant_model(), aging=default_params())


def test_make_range_counts():
    assert len(make_range(8.0, 80.0, 0.8)) == 91
    assert len(make_range(-25.0, 60.0, 1.0)) == 86
    assert len(make_range(-50.0, 50.0, 1.0)) == 101
    # stop not included when the step does not divide the span
    r = make_range(0.0, 1.0, 0.3)
    assert r[-1] == pytest.approx(0.9)


def test_build_grids_full_scale_and_init():
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=4, dt_min=5.0),
        e0=24.0,
        e_target=80.0,
        theta0=20.0,
        profile=_flat_profile(),
    )
    g = build_grids(s)
    assert g.shape == (91, 86, 101)
    n = 4
    i0 = nearest_index(g.e_d, 24.0)
    j0 = nearest_index(g.theta_d, 20.0)
    i_tgt = nearest_index(g.e_d, 80.0)
    assert g.cost[0, i0, j0] == 0.0
    mask = np.ones_like(g.cost[0], dtype=bool)
    mask[i0, j0] = False
    assert np.all(g.cost[0][mask] == s.penalty)
    assert np.all(g.cost[n, i_tgt, :] == 0.0)
    row_mask = np.ones(len(g.e_d), dtype=bool)
    row_mask[i_tgt] = False
    assert np.all(g.cost[n][row_mask, :] == s.penalty)
    assert np.all(g.cost[1:n] == 0.0)
    assert np.all(g.action == 0.0)


def test_nearest_index_rules():
    grid = np.array([8.0, 8.8, 9.6, 10.4])
    assert nearest_index(grid, 10.1) == 3  # |10.1-9.6| = 0.5 > 0.3
    assert nearest_index(grid, 9.6) == 2
    assert nearest_index(grid, 8.4) == 0  # exact midpoint resolves down
    assert nearest_index(grid, -100.0) == 0
    assert nearest_index(grid, 100.0) == 3


def test_nearest_indices_match_argmin():
    rng = np.random.default_rng(0)
    for _ in range(20):
        start = rng.uniform(-10, 10)
        step = rng.uniform(0.1, 3.0)
        grid = start + step * np.arange(rng.integers(2, 40))
        xs = np.concatenate(
            [
                rng.uniform(grid[0] - 2 * step, grid[-1] + 2 * step, 50),
                grid[:-1] + step / 2,  # exact midpoints
                grid,  # exact nodes
            ]
        )
        expected = np.array([np.argmin(np.abs(grid - x)) for x in xs])
        assert np.array_equal(nearest_indices(grid, xs), expected)


def _check_against_oracle(s, models, backend, trial):
    grids = build_grids(s)
    backward_induction(s, grids, models, backend=backend)
    best_cost, best_seq, best_ok = brute_force_optimum(s, grids, models)
    i0 = nearest_index(grids.e_d, s.e0)
    j0 = nearest_index(grids.theta_d, s.theta0)
    assert grids.cost[0, i0, j0] == pytest.approx(best_cost, abs=1e-9), f"trial {trial}"
    sol = forward_integration(s, grids, models)
    if best_ok:  # feasible: trajectories must agree too
        assert np.array_equal(sol.p_star, best_seq), f"trial {trial}"
        assert sol.feasible, f"trial {trial}"
    else:
        assert not sol.feasible, f"trial {trial}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_equivalence_tiny_instances(backend):
    # mandatory: DDP equals exhaustive search on the snapped chain
    rng = np.random.default_rng(1234)
    for trial in range(20):
        s, models = random_tiny_instance(rng)
        _check_against_oracle(s, models, backend, trial)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_k", [8, 9, 12])
def test_oracle_equivalence_beyond_eight_actions(backend, n_k):
    # K >= 8 reaches the compiled kernel's 8-action lanes; 2-3 steps keep
    # the exhaustive search to K^N <= 1,728 sequences
    rng = np.random.default_rng(4000 + n_k)
    for trial in range(6):
        s, models = random_tiny_instance(rng, n_k=n_k)
        s = replace(s, grid=replace(s.grid, n_intervals=2 + trial % 2))
        _check_against_oracle(s, models, backend, trial)


@pytest.mark.parametrize("penalty", [0.0, -1.0, np.inf, np.nan])
def test_penalty_must_be_positive_and_finite(penalty):
    with pytest.raises(InvalidParameterError, match="penalty must be positive and finite"):
        default_scenario(penalty=penalty)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["t0", "dt_min", *_SCENARIO_SCALARS])
def test_non_finite_scenario_values_are_input_errors(name, value):
    # through the dict a scenario JSON file loads into
    d = scenario_to_dict(default_scenario())
    (d["grid"] if name in d["grid"] else d)[name] = value
    with pytest.raises(InvalidParameterError, match="finite"):
        scenario_from_dict(d)


def test_stay_put_costs_only_calendar_aging():
    models = _simple_models()
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=1, dt_min=60.0),
        e0=3.0,
        e_target=3.0,
        theta0=20.0,
        profile=_flat_profile(),
        e_lo=0.0,
        e_hi=6.0,
        theta_lo=10.0,
        theta_hi=30.0,
        p_lo=-2.0,
        p_hi=2.0,
        e_step=1.0,
        theta_step=1.0,
        p_step=1.0,
        soh0=0.98,
    )
    grids = build_grids(s)
    backward_induction(s, grids, models)
    i0 = nearest_index(grids.e_d, s.e0)
    j0 = nearest_index(grids.theta_d, s.theta0)
    assert grids.action[0, i0, j0] == 0.0
    expected = models.aging.cost_per_fade * calendar_fade(models.aging, 20.0, 3.0, 0.98, 60.0)
    assert grids.cost[0, i0, j0] == pytest.approx(expected, rel=1e-9)
    sol = forward_integration(s, grids, models)
    assert np.array_equal(sol.p_star, [0.0])
    assert np.allclose(sol.e_traj, [3.0, 3.0])
    # without aging in the objective the cell cost is exactly zero
    s2 = replace(s, include_aging_in_objective=False)
    grids2 = build_grids(s2)
    backward_induction(s2, grids2, models)
    assert grids2.cost[0, i0, j0] == 0.0


def test_unreachable_target_is_penalized():
    models = _simple_models()
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=2, dt_min=60.0),
        e0=0.0,
        e_target=6.0,
        theta0=20.0,
        profile=_flat_profile(),
        e_lo=0.0,
        e_hi=6.0,
        theta_lo=10.0,
        theta_hi=30.0,
        p_lo=0.0,
        p_hi=2.0,  # at most 4 kWh over two hours
        e_step=1.0,
        theta_step=1.0,
        p_step=1.0,
    )
    grids = build_grids(s)
    backward_induction(s, grids, models)
    i0 = nearest_index(grids.e_d, s.e0)
    j0 = nearest_index(grids.theta_d, s.theta0)
    assert grids.cost[0, i0, j0] >= s.penalty
    sol = forward_integration(s, grids, models)
    assert not sol.feasible


def test_penalty_value_does_not_change_feasible_trajectory():
    rng = np.random.default_rng(77)
    for _ in range(10):
        s, models = random_tiny_instance(rng)
        sol_lo = solve(s, models)
        if not sol_lo.feasible:
            continue
        s_hi = replace(s, penalty=10 * s.penalty)
        sol_hi = solve(s_hi, models)
        assert np.array_equal(sol_lo.p_star, sol_hi.p_star)


def test_replay_self_consistency():
    rng = np.random.default_rng(88)
    checked = 0
    for _ in range(10):
        s, models = random_tiny_instance(rng)
        sol = solve(s, models)
        if not sol.feasible:
            continue
        again = replay(sol.p_star, s, models)
        assert again.cost.total == pytest.approx(sol.cost.total, abs=1e-9)
        assert again.cost.j_e_buy == pytest.approx(sol.cost.j_e_buy, abs=1e-9)
        assert again.cost.j_d_cal == pytest.approx(sol.cost.j_d_cal, abs=1e-9)
        assert np.allclose(again.e_traj, sol.e_traj)
        checked += 1
    assert checked >= 3


def test_replay_zero_power_costs_calendar_only():
    models = _simple_models()
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=3, dt_min=60.0),
        e0=3.0,
        e_target=3.0,
        theta0=20.0,
        profile=_flat_profile(),
        e_lo=0.0,
        e_hi=6.0,
        theta_lo=10.0,
        theta_hi=30.0,
        p_lo=-2.0,
        p_hi=2.0,
        soh0=0.98,
    )
    sol = replay(np.zeros(3), s, models)
    assert sol.cost.j_e_buy == 0.0
    assert sol.cost.j_e_sell == 0.0
    assert sol.cost.j_d_cyc == pytest.approx(0.0, abs=1e-15)
    assert sol.cost.j_d_cal > 0.0


def test_replay_charge_then_idle_profile():
    models = _simple_models()
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=6, dt_min=60.0),
        e0=0.0,
        e_target=3.0,
        theta0=20.0,
        profile=_flat_profile(),
        e_lo=0.0,
        e_hi=6.0,
        theta_lo=10.0,
        theta_hi=30.0,
        p_lo=-2.0,
        p_hi=2.0,
    )
    sol = replay([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], s, models)
    diffs = np.diff(sol.e_traj)
    assert np.all(diffs[:3] > 0)  # charging ramps the energy up
    assert np.allclose(diffs[3:], 0.0)  # then it stays flat


def test_replay_reports_bound_violation():
    models = _simple_models()
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=2, dt_min=60.0),
        e0=1.0,
        e_target=3.0,
        theta0=20.0,
        profile=_flat_profile(),
        e_lo=0.0,
        e_hi=6.0,
        theta_lo=10.0,
        theta_hi=30.0,
        p_lo=-2.0,
        p_hi=2.0,
    )
    sol = replay([5.0, 0.0], s, models)  # exceeds p_hi
    assert any("outside" in note for note in sol.notes)


def test_replay_clamps_undeliverable_discharge():
    models = _simple_models(r=1.0)  # at 360 V the floor is -360^2 / (4 * 1 Ohm) W = -32.4 kW
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=2, dt_min=5.0),
        e0=50.0,
        e_target=40.0,
        theta0=20.0,
        profile=_flat_profile(),
        e_lo=0.0,
        e_hi=80.0,
        theta_lo=10.0,
        theta_hi=30.0,
        p_lo=-50.0,
        p_hi=50.0,
    )
    sol = replay([-40.0, 0.0], s, models)
    assert sol.notes == ("interval 0: power -40.000 kW clamped to deliverable -32.400",)
    assert sol.p_star.tolist() == [-32.4, 0.0]
    assert sol.feasible


def test_replay_stops_when_temperature_leaves_physical_range():
    hot = thermal.ThermalModel(
        variant=thermal.VARIANT_LINEAR,
        means=np.zeros(4),
        stds=np.ones(4),
        layers=((np.zeros((4, 1)), np.array([25.0])),),  # +25 K per interval
    )
    models = replace(_simple_models(), thermal=hot)
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=5, dt_min=60.0),
        e0=1.0,
        e_target=3.0,
        theta0=20.0,
        profile=_flat_profile(),
        e_lo=0.0,
        e_hi=6.0,
        theta_lo=10.0,
        theta_hi=30.0,
        p_lo=-2.0,
        p_hi=2.0,
    )
    sol = replay(np.ones(5), s, models)
    # theta reaches 95 degC at instant 3, outside [-40, 80]: interval 3 cannot start
    assert sol.notes[0].startswith("interval 3: cannot simulate action 1.000 kW (temperature 95.0 degC")
    assert not sol.feasible
    assert sol.theta_traj.tolist() == [20.0, 45.0, 70.0, 95.0, 95.0, 95.0]
    assert np.all(sol.e_traj[3:] == sol.e_traj[3])
    assert sol.p_star.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_table_built_for_another_dt_is_rejected():
    # coarse reference instance: reusing its dt = 5 min table for dt = 10 min
    # returned 13.398 EUR, where a fresh table gives 13.213 EUR
    models = BatteryModels(
        tables=electrical.default_tables(),
        thermal=thermal.plant_linear_model(thermal.ThermalPlant()),
        aging=default_params(),
    )
    s5 = default_scenario(e_step=1.6, theta_step=2.0, p_step=2.0)
    table = build_transition_table(s5, models, build_grids(s5))
    s10 = replace(s5, grid=replace(s5.grid, n_intervals=48, dt_min=10.0))
    with pytest.raises(InvalidParameterError, match="dt = 5.0 min, scenario has dt = 10.0 min"):
        solve(s10, models, table=table)
    assert solve(s10, models).cost.total == pytest.approx(13.213, abs=5e-4)


def test_table_built_for_another_model_is_rejected():
    # reusing the coarse reference instance's plant-linear table under the
    # constant model returned 13.441 EUR with feasible=True; a fresh table gives 13.292 EUR
    linear = BatteryModels(
        tables=electrical.default_tables(),
        thermal=thermal.plant_linear_model(thermal.ThermalPlant()),
        aging=default_params(),
    )
    const = replace(linear, thermal=thermal.constant_model())
    s = default_scenario(e_step=1.6, theta_step=2.0, p_step=2.0)
    table = build_transition_table(s, linear, build_grids(s))
    with pytest.raises(InvalidParameterError, match="other battery models or state and power bounds"):
        solve(s, const, table=table)
    assert solve(s, const).cost.total == pytest.approx(13.292, abs=5e-4)


def _cache_instance():
    """A coarse reference instance with a small MLP, cheap to build."""
    rng = np.random.default_rng(5)
    mlp = thermal.ThermalModel(
        variant=thermal.VARIANT_MLP,
        means=np.zeros(4),
        stds=np.ones(4),
        layers=(
            (0.01 * rng.standard_normal((4, 3)), np.zeros(3)),
            (0.01 * rng.standard_normal((3, 1)), np.zeros(1)),
        ),
    )
    models = BatteryModels(tables=electrical.default_tables(), thermal=mlp, aging=default_params())
    s = default_scenario(e_step=8.0, theta_step=5.0, p_step=5.0)
    return s, models, build_grids(s)


def test_same_inputs_return_the_cached_table():
    s, models, grids = _cache_instance()
    table = build_transition_table(s, models, grids)
    assert build_transition_table(s, models, grids) is table
    # the key is the inputs' contents, not their identity
    assert build_transition_table(replace(s), copy.deepcopy(models), build_grids(s)) is table
    # the battery price and the state of health do not enter the table
    assert build_transition_table(s, replace(models, aging=models.aging.with_value(1000.0)), grids) is table
    assert build_transition_table(replace(s, soh0=0.8), models, grids) is table
    solve(s, models)  # goes through the cache
    assert build_transition_table(s, models, grids) is table
    # one entry: building for other inputs drops this table
    build_transition_table(replace(s, e_hi=81.0), models, grids)
    assert build_transition_table(s, models, grids) is not table


def _mutate_mlp_weight(s, models, grids):
    models.thermal.layers[0][0][1, 2] += 0.01
    return s, models, grids


def _replace_bound(name, value):
    # the grids are kept, so that the bound itself, not the grid it implies, must miss
    return lambda s, models, grids: (replace(s, **{name: value}), models, grids)


def _halve_step(name):
    def change(s, models, grids):
        s2 = replace(s, **{name: getattr(s, name) / 2})
        return s2, models, build_grids(s2)

    return change


def _double_dt(s, models, grids):
    return replace(s, grid=replace(s.grid, n_intervals=48, dt_min=10.0)), models, grids


def _raise_beta_a(s, models, grids):
    return s, replace(models, aging=replace(models.aging, beta_a=2e-6)), grids


TABLE_INPUT_CHANGES = {
    "mlp weight in place": _mutate_mlp_weight,
    "e_lo": _replace_bound("e_lo", 7.0),
    "e_hi": _replace_bound("e_hi", 81.0),
    "theta_lo": _replace_bound("theta_lo", -26.0),
    "theta_hi": _replace_bound("theta_hi", 61.0),
    "p_lo": _replace_bound("p_lo", -45.0),
    "p_hi": _replace_bound("p_hi", 45.0),
    "e_step": _halve_step("e_step"),
    "theta_step": _halve_step("theta_step"),
    "p_step": _halve_step("p_step"),
    "dt": _double_dt,
    "beta_a": _raise_beta_a,
}


@pytest.mark.parametrize("change", TABLE_INPUT_CHANGES)
def test_changed_table_input_misses_the_cache(change):
    s, models, grids = _cache_instance()
    table = build_transition_table(s, models, grids)
    s2, models2, grids2 = TABLE_INPUT_CHANGES[change](s, models, grids)
    rebuilt = build_transition_table(s2, models2, grids2)
    assert rebuilt is not table
    with pytest.raises(InvalidParameterError, match="transition table was built"):
        table.check(s2, models2, grids2)
    rebuilt.check(s2, models2, grids2)


def test_table_arrays_are_read_only():
    s, models, grids = _cache_instance()
    table = build_transition_table(s, models, grids)
    arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 16
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_backends_bitwise_identical():
    rng = np.random.default_rng(99)
    for _ in range(10):
        s, models = random_tiny_instance(rng)
        ga = build_grids(s)
        gb = build_grids(s)
        table = build_transition_table(s, models, ga)
        backward_induction(s, ga, models, table=table, backend="python")
        backward_induction(s, gb, models, table=table, backend="compiled")
        assert np.array_equal(ga.cost, gb.cost)
        assert np.array_equal(ga.action, gb.action)


def _whole_grid(n_steps, ni, nj):
    """(N, 4) boxes that hold every cell of an ni x nj grid at every step."""
    return np.tile(np.array([0, ni, 0, nj], np.int64), (n_steps, 1))


def _full_pass(s, models, table, backend):
    """Grids of a backward pass over every cell on the given table and kernel."""
    grids = build_grids(s)
    grids.table, grids.backend = table, backend
    solver_mod._backward_pass(s, grids, models, _whole_grid(s.grid.n_intervals, *grids.shape[:2]))
    return grids


def _box_mask(boxes, ni, nj):
    """(N, Ni, Nj) bool: the cells inside each step's box."""
    rows, cols = np.arange(ni)[:, None], np.arange(nj)
    return np.stack([(b[0] <= rows) & (rows < b[1]) & (b[2] <= cols) & (cols < b[3]) for b in boxes])


def _kernel_args():
    """Keyword arguments of a well-formed backward_pass call on random data."""
    rng = np.random.default_rng(0)
    n_steps, ni, nj, k = 3, 2, 3, 4
    m = ni * nj
    cost = np.zeros((n_steps + 1, m))
    cost[-1] = rng.uniform(0.0, 5.0, m)
    return dict(
        cost=cost,
        action_kw=np.zeros((n_steps, m)),
        valid=(rng.uniform(size=(m, k)) < 0.8).astype(np.uint8),
        corner00=rng.integers(0, (ni - 1) * nj - 1, size=(m, k)).astype(np.int64),
        frac_e=rng.uniform(size=(m, k)),
        frac_theta=rng.uniform(size=(m, k)),
        jd=rng.uniform(size=(m, k)),
        je=rng.normal(size=(n_steps, k)),
        p_d=np.linspace(-1.0, 1.0, k),
        penalty=1e6,
        n_rows=ni,
        boxes=_whole_grid(n_steps, ni, nj),
    )


def _non_contiguous(a):
    """Same shape, dtype and values as a, but every other element in memory."""
    return np.repeat(a, 2, axis=-1)[..., ::2]


def _short(a):
    """a with one entry fewer along its last axis, still C-contiguous."""
    return np.ascontiguousarray(a[..., :-1])


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize("int64_format", ["int64", "longlong"])
def test_compiled_kernel_matches_numpy_kernel(int64_format):
    ref = _kernel_args()
    _kernel_py.backward_pass(**ref)
    args = _kernel_args()
    for name in ("corner00", "boxes"):
        args[name] = args[name].astype(int64_format)
    backend_mod._ddp_kernel.backward_pass(*args.values())
    assert args["cost"].tobytes() == ref["cost"].tobytes()
    assert args["action_kw"].tobytes() == ref["action_kw"].tobytes()


def _lane_case(k, ni, nj, ties):
    """backward_pass arguments with K = k actions on an ni x nj grid, every
    cell in every step's box. With ties, costs, weights and prices take a
    few exact values, so that equal candidates sit at different k, some
    candidates equal the penalty and -0.0 meets 0.0; without, they are
    random, so that rounding shows. Every third cell has all transitions
    valid, the next one none; invalid transitions carry NaN weights and
    corners far outside the cost slice."""
    rng = np.random.default_rng(1000 * k + 10 * ni + nj)

    def draw(shape, exact_values):
        return rng.choice(exact_values, shape) if ties else rng.uniform(size=shape)

    n_steps, m, penalty = 3, ni * nj, 8.0
    stride_e, stride_t = (nj if ni > 1 else 0), (1 if nj > 1 else 0)  # what both kernels derive
    cost = np.zeros((n_steps + 1, m))
    cost[-1] = draw(m, [0.0, -0.0, -0.0, 1.0, penalty])
    valid = (rng.uniform(size=(m, k)) < 0.6).astype(np.uint8)
    valid[0::3] = 1
    valid[1::3] = 0
    invalid = valid == 0
    corner00 = rng.integers(0, m - stride_e - stride_t, size=(m, k))
    corner00[invalid] = rng.choice([-(2**40), -m - 1, m, 2**40], invalid.sum())
    frac_e, frac_theta = draw((2, m, k), [0.0, 0.5, 1.0])
    jd = draw((m, k), [0.0, -0.0, -0.0, 0.5])
    for a in (frac_e, frac_theta, jd):
        a[invalid] = np.nan
    return dict(
        cost=cost,
        action_kw=np.zeros((n_steps, m)),
        valid=valid,
        corner00=corner00,
        frac_e=frac_e,
        frac_theta=frac_theta,
        jd=jd,
        je=draw((n_steps, k), [0.0, -0.0, -0.0, 0.5]),
        p_d=np.arange(k) - k / 2,
        penalty=penalty,
        n_rows=ni,
        boxes=_whole_grid(n_steps, ni, nj),
    )


def _run_both_kernels(args):
    """Run both kernels on copies of args; assert byte-equal grids and return them."""
    ref = copy.deepcopy(args)
    _kernel_py.backward_pass(**ref)
    out = copy.deepcopy(args)
    backend_mod._ddp_kernel.backward_pass(*out.values())
    assert out["cost"].tobytes() == ref["cost"].tobytes()
    assert out["action_kw"].tobytes() == ref["action_kw"].tobytes()
    return ref


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 17, 101])
@pytest.mark.parametrize("ni, nj", [(3, 4), (1, 5), (4, 1), (1, 1)])
@pytest.mark.parametrize("ties", [True, False], ids=["ties", "random"])
def test_compiled_lanes_match_numpy_kernel(k, ni, nj, ties):
    _run_both_kernels(_lane_case(k, ni, nj, ties))


def _random_span(rng, n_steps, n):
    """(N, 2) random half-open spans [lo, hi) within [0, n], empty ones included."""
    lo = rng.integers(0, n + 1, size=n_steps)
    return np.stack([lo, lo + rng.integers(0, n + 1 - lo)], axis=1)


def _random_boxes(rng, n_steps, ni, nj):
    return np.concatenate([_random_span(rng, n_steps, ni), _random_span(rng, n_steps, nj)], axis=1)


def _empty_rows(rng, n_steps, ni, nj):
    boxes = _random_boxes(rng, n_steps, ni, nj)
    empty = rng.uniform(size=n_steps) < 0.5
    boxes[empty, 1] = boxes[empty, 0]  # no rows: [i, i) for any i in [0, Ni]
    return boxes


def _empty_steps(rng, n_steps, ni, nj):
    boxes = _random_boxes(rng, n_steps, ni, nj)
    boxes[1, 3] = boxes[1, 2]  # no columns: [j, j) for any j in [0, Nj]
    return boxes


def _full_boxes(rng, n_steps, ni, nj):
    return _whole_grid(n_steps, ni, nj)


def _single_cells(rng, n_steps, ni, nj):
    i, j = rng.integers(0, ni, size=n_steps), rng.integers(0, nj, size=n_steps)
    return np.stack([i, i + 1, j, j + 1], axis=1)


REGION_KINDS = {
    "random": _random_boxes,
    "empty-rows": _empty_rows,
    "empty-step": _empty_steps,
    "full": _full_boxes,
    "single-cell": _single_cells,
}


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize("kind", REGION_KINDS)
@pytest.mark.parametrize("k", [1, 9, 101])
@pytest.mark.parametrize("ni, nj", [(3, 4), (1, 5), (4, 1), (1, 1)])
@pytest.mark.parametrize("ties", [True, False], ids=["ties", "random"])
def test_compiled_kernel_matches_numpy_kernel_on_regions(kind, k, ni, nj, ties):
    args = _lane_case(k, ni, nj, ties)
    rng = np.random.default_rng(7 * k + ni + 100 * nj)
    args["boxes"] = REGION_KINDS[kind](rng, len(args["je"]), ni, nj)
    full = _run_both_kernels(_lane_case(k, ni, nj, ties))
    ref = _run_both_kernels(args)
    # cells outside the boxes get the penalty and p_d[0]; the last slice is the input
    inside = _box_mask(args["boxes"], ni, nj).reshape(len(args["je"]), ni * nj)
    assert np.all(ref["cost"][:-1][~inside] == args["penalty"])
    assert np.all(ref["action_kw"][~inside] == args["p_d"][0])
    assert ref["cost"][-1].tobytes() == args["cost"][-1].tobytes()
    # the last step reads the whole boundary slice, so its box's cells equal a full pass
    last = inside[-1]
    assert ref["cost"][-2][last].tobytes() == full["cost"][-2][last].tobytes()
    assert ref["action_kw"][-1][last].tobytes() == full["action_kw"][-1][last].tobytes()


@pytest.mark.parametrize("kind", REGION_KINDS)
@pytest.mark.parametrize("block_cells", [1, 4, 9, 13])  # 1, 1, 2 and 3 rows of 4 cells
@pytest.mark.parametrize("ties", [True, False], ids=["ties", "random"])
def test_numpy_kernel_block_size_keeps_every_bit(monkeypatch, kind, block_cells, ties):
    args = _lane_case(9, 7, 4, ties)
    rng = np.random.default_rng(block_cells)
    args["boxes"] = REGION_KINDS[kind](rng, len(args["je"]), 7, 4)
    whole = copy.deepcopy(args)  # one block holds the whole grid
    _kernel_py.backward_pass(**whole)
    monkeypatch.setattr(_kernel_py, "BLOCK_CELLS", block_cells)
    _kernel_py.backward_pass(**args)
    assert args["cost"].tobytes() == whole["cost"].tobytes()
    assert args["action_kw"].tobytes() == whole["action_kw"].tobytes()


def test_numpy_kernel_writes_through_non_contiguous_grids():
    """Each step's (Ni, Nj) views must alias the output grids, whatever
    their strides, or the kernel would fill copies and leave the grids."""
    ref = _kernel_args()
    _kernel_py.backward_pass(**ref)
    args = _kernel_args()
    args["cost"], args["action_kw"] = (_non_contiguous(args[name]) for name in ("cost", "action_kw"))
    _kernel_py.backward_pass(**args)
    assert np.ascontiguousarray(args["cost"]).tobytes() == ref["cost"].tobytes()
    assert np.ascontiguousarray(args["action_kw"]).tobytes() == ref["action_kw"].tobytes()


def test_numpy_kernel_memory_does_not_grow_with_the_region(monkeypatch):
    """A step's temporaries are one row block by K, so a pass over every
    cell peaks no higher than a pass over one row of cells."""
    import tracemalloc

    ni, nj = 40, 30
    monkeypatch.setattr(_kernel_py, "BLOCK_CELLS", nj)
    # an untraced pass first: the first pass through many blocks leaves a few
    # KB in NumPy's and Python's caches, which are not temporaries
    _kernel_py.backward_pass(**_lane_case(9, ni, nj, ties=False))
    peaks = {}
    for name, rows in (("one row", (ni // 2, ni // 2 + 1)), ("every row", (0, ni))):
        args = _lane_case(9, ni, nj, ties=False)
        args["boxes"][:, :2] = rows
        tracemalloc.start()
        _kernel_py.backward_pass(**args)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks["every row"] <= 1.05 * peaks["one row"]


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_kernel_uses_lanes_where_the_cpu_has_avx512f():
    lanes = backend_mod._ddp_kernel.LANES
    if sys.platform == "linux" and platform.machine() == "x86_64":
        cpuinfo = Path("/proc/cpuinfo").read_text()
        has_avx512f = re.search(r"^flags\s*:.*\bavx512f\b", cpuinfo, re.MULTILINE) is not None
        assert lanes == (8 if has_avx512f else 1)
    else:
        assert lanes in (1, 8)


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize(
    "name", ["cost", "action_kw", "valid", "corner00", "frac_e", "frac_theta", "jd", "je", "p_d", "boxes"]
)
@pytest.mark.parametrize(
    "misuse, error, match",
    [
        (lambda a: a.astype(np.int8 if a.dtype == np.uint8 else np.float32), TypeError, "{name} has item"),
        (lambda a: a.astype(np.int32 if a.dtype == np.int64 else np.int64), TypeError, "{name} has item"),
        (_non_contiguous, ValueError, "{name} is not C-contiguous"),
        # N and K are read from je, so a short je is reported on the first array it
        # disagrees with
        (_short, ValueError, "entries along axis"),
        (lambda a: a[None], ValueError, "{name} has [23] dimensions"),
    ],
    ids=["narrow-or-signed", "wrong-kind", "non-contiguous", "short", "extra-axis"],
)
def test_compiled_kernel_rejects_malformed_buffers(name, misuse, error, match):
    args = _kernel_args()
    args[name] = misuse(args[name])
    with pytest.raises(error, match=match.format(name=name)):
        backend_mod._ddp_kernel.backward_pass(*args.values())


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_kernel_rejects_bad_corners_and_outputs():
    kernel = backend_mod._ddp_kernel.backward_pass
    args = _kernel_args()
    args["valid"][2, 1] = 1
    args["corner00"][2, 1] = args["cost"].shape[1] - 1  # its upper corners lie past the slice
    with pytest.raises(ValueError, match=r"corner00\[2, 1\]"):
        kernel(*args.values())
    args = _kernel_args()
    args["cost"].flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        kernel(*args.values())


def _set_box(n, side, value):
    def change(args):
        args["boxes"][n, side] = value

    return change


def _set_rows(n_rows):
    def change(args):
        args["n_rows"] = n_rows

    return change


def _drop_step(args):
    args["boxes"] = np.ascontiguousarray(args["boxes"][1:])


# on the 2 x 3 grid of _kernel_args, where step 1's box [0, 2) x [0, 2) is well formed
BAD_BOXES = pytest.mark.parametrize(
    "change, match",
    [
        (_set_box(1, 2, 3), r"box \[0, 2\) x \[3, 2\) of step 1 is not within \[0, Ni=2\] x \[0, Nj=3\]"),
        (_set_box(0, 3, 4), r"box \[0, 2\) x \[0, 4\) of step 0 is not within \[0, Ni=2\] x \[0, Nj=3\]"),
        (_set_box(0, 2, -1), r"box \[0, 2\) x \[-1, 3\) of step 0"),
        (_set_box(2, 3, -1), r"box \[0, 2\) x \[0, -1\) of step 2"),
        (_set_box(1, 0, 3), r"box \[3, 2\) x \[0, 2\) of step 1"),
        (_set_box(0, 1, 3), r"box \[0, 3\) x \[0, 3\) of step 0"),
        (_set_box(2, 0, -1), r"box \[-1, 2\) x \[0, 3\) of step 2"),
        (_set_box(2, 1, -1), r"box \[0, -1\) x \[0, 3\) of step 2"),
        (_set_rows(4), "4 rows, which do not divide M=6 cells"),
        (_set_rows(0), "0 rows, which do not divide M=6 cells"),
        (_set_rows(-2), "-2 rows, which do not divide M=6 cells"),
        (_drop_step, r"boxes has (2 entries along axis 0, expected 3|shape \(2, 4\), expected \(3, 4\))"),
    ],
    ids=[
        "lo-above-hi",
        "hi-above-nj",
        "negative-lo",
        "negative-hi",
        "row-lo-above-hi",
        "hi-above-ni",
        "negative-row-lo",
        "negative-row-hi",
        "rows-4",
        "rows-0",
        "rows-negative",
        "short",
    ],
)


def _bad_box_args(change):
    args = _kernel_args()
    args["boxes"][1] = (0, 2, 0, 2)
    change(args)
    return args


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@BAD_BOXES
def test_compiled_kernel_rejects_bad_region_rows(change, match):
    with pytest.raises(ValueError, match=match):
        backend_mod._ddp_kernel.backward_pass(*_bad_box_args(change).values())


@BAD_BOXES
def test_numpy_kernel_rejects_bad_boxes(change, match):
    with pytest.raises(ValueError, match=match):
        _kernel_py.backward_pass(**_bad_box_args(change))


@pytest.mark.parametrize("shape", [(3, 3), (3, 5), (3, 4, 1), (4,)])
def test_numpy_kernel_rejects_boxes_of_a_wrong_shape(shape):
    # the compiled kernel's buffer checks: test_compiled_kernel_rejects_malformed_buffers
    args = _kernel_args()
    args["boxes"] = np.zeros(shape, np.int64)
    with pytest.raises(ValueError, match=r"boxes has shape \("):
        _kernel_py.backward_pass(**args)


def test_backend_names(monkeypatch):
    rng = np.random.default_rng(7)
    s, models = random_tiny_instance(rng)

    def total(backend=None):
        grids = backward_induction(s, build_grids(s), models, backend=backend)
        return forward_integration(s, grids, models).cost.total

    with pytest.raises(InvalidParameterError, match="unknown backend"):
        total("cython")
    monkeypatch.setattr(backend_mod, "HAVE_COMPILED", False)
    with pytest.raises(InvalidParameterError, match="not available"):
        total("compiled")
    assert active_backend() == "python"
    assert total() == total("python")


def test_forward_integration_needs_induced_grids():
    s, models = random_tiny_instance(np.random.default_rng(7))
    with pytest.raises(InvalidParameterError, match="backward_induction"):
        forward_integration(s, build_grids(s), models)


def _region_mask(grids):
    """(N, Ni, Nj) bool: the cells backward induction computed."""
    return _box_mask(grids.region, len(grids.e_d), len(grids.theta_d))


def test_bellman_consistency_post_hoc():
    # computed cells satisfy the Bellman equation on the snapped chain, the
    # others hold the penalty and p_d[0], and the computed cells include
    # every cell the chain reaches from the initial cell
    from chargeopt.tariff import interval_prices

    rng = np.random.default_rng(55)
    left_out = 0
    for _ in range(4):
        s, models = random_tiny_instance(rng)
        grids = build_grids(s)
        backward_induction(s, grids, models)
        computed = _region_mask(grids)
        left_out += int(np.sum(~computed))
        trans = chain_transitions(s, grids, models)
        eps_buy, eps_sell = interval_prices(s.profile, s.grid)
        dt_h = s.grid.dt_min / 60.0
        n_steps = s.grid.n_intervals
        reached = {(nearest_index(grids.e_d, s.e0), nearest_index(grids.theta_d, s.theta0))}
        for n in range(n_steps):
            assert all(computed[n, i, j] for i, j in reached)
            reached = {
                trans[i, j, k][:2] for i, j in reached for k in range(len(grids.p_d)) if trans[i, j, k] is not None
            }
            for i in range(len(grids.e_d)):
                for j in range(len(grids.theta_d)):
                    if not computed[n, i, j]:
                        assert grids.cost[n, i, j] == s.penalty
                        assert grids.action[n, i, j] == grids.p_d[0]
                        continue
                    best = np.inf
                    for k, p in enumerate(grids.p_d):
                        tr = trans[i, j, k]
                        if tr is None:
                            cand = s.penalty
                        else:
                            si, sj, jd = tr
                            je = max(p, 0.0) * dt_h * eps_buy[n] + min(p, 0.0) * dt_h * eps_sell[n]
                            cand = (je + jd) + grids.cost[n + 1, si, sj]
                        best = min(best, cand)
                    assert grids.cost[n, i, j] == pytest.approx(best, abs=1e-9)
    assert left_out > 0


def _reference_models(model):
    th = thermal.constant_model() if model == "constant" else thermal.plant_linear_model(thermal.ThermalPlant())
    return BatteryModels(tables=electrical.default_tables(), thermal=th, aging=default_params())


@pytest.mark.parametrize("model, largest_share", [("constant", 0.02), ("plant-linear", 0.5)])
def test_region_holds_every_corner_its_cells_read(model, largest_share):
    # closure: a valid transition of a computed cell reads each corner with a
    # nonzero weight, and that corner is computed one step later
    s = default_scenario()
    models = _reference_models(model)
    grids = build_grids(s)
    table = build_transition_table(s, models, grids)
    backward_induction(s, grids, models, table=table)
    nj = len(grids.theta_d)
    computed = _region_mask(grids).reshape(s.grid.n_intervals, -1)
    assert 0 < computed.mean() < largest_share
    src, dst = [], []
    for di in (0, 1):
        for dj in (0, 1):
            weight_e = table.frac_e > 0 if di else table.frac_e < 1
            weight_t = table.frac_theta > 0 if dj else table.frac_theta < 1
            cell, k = np.nonzero(table.valid.astype(bool) & weight_e & weight_t)
            src.append(cell)
            dst.append(table.corner00[cell, k] + di * nj + dj)
    src, dst = np.concatenate(src), np.concatenate(dst)
    for n in range(s.grid.n_intervals - 1):
        assert not np.any(computed[n, src] & ~computed[n + 1, dst]), f"step {n}"
    region = grids.region.copy()
    forward_integration(s, grids, models)
    assert np.array_equal(grids.region, region)  # no fallback


@pytest.mark.parametrize("backend", BACKENDS)
def test_region_cells_equal_a_full_pass_at_full_scale(backend):
    s = default_scenario()
    models = _reference_models("plant-linear")
    grids = build_grids(s)
    table = build_transition_table(s, models, grids)
    backward_induction(s, grids, models, table=table, backend=backend)
    full = _full_pass(s, models, table, backend)
    computed = _region_mask(grids)
    assert grids.cost[:-1][computed].tobytes() == full.cost[:-1][computed].tobytes()
    assert grids.action[computed].tobytes() == full.action[computed].tobytes()
    assert np.all(grids.cost[:-1][~computed] == s.penalty)
    assert np.all(grids.action[~computed] == grids.p_d[0])
    assert grids.cost[-1].tobytes() == full.cost[-1].tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_region_that_runs_empty_is_one_full_pass(backend, monkeypatch):
    # trials 2, 15 and 18 of the oracle test (seed 1234) are infeasible: their
    # region runs empty, and forward integration would follow an invalid
    # action out of a penalized cell into cells a region pass left out
    passes = []
    backward_pass = solver_mod._backward_pass
    monkeypatch.setattr(solver_mod, "_backward_pass", lambda *args: passes.append(1) or backward_pass(*args))
    rng = np.random.default_rng(1234)
    instances = [random_tiny_instance(rng) for _ in range(20)]
    for trial, (s, models) in enumerate(instances):
        grids = build_grids(s)
        passes.clear()
        backward_induction(s, grids, models, backend=backend)
        whole = _whole_grid(s.grid.n_intervals, *grids.shape[:2])
        assert np.array_equal(grids.region, whole) == (trial in (2, 15, 18)), f"trial {trial}"
        sol = forward_integration(s, grids, models)
        assert len(passes) == 1, f"trial {trial}"
        if trial not in (2, 15, 18):
            continue
        full = _full_pass(s, models, build_transition_table(s, models, grids), backend)
        ref = forward_integration(s, full, models)
        assert grids.cost.tobytes() == full.cost.tobytes()
        assert grids.action.tobytes() == full.action.tobytes()
        for name in ("p_star", "e_traj", "theta_traj", "j_e_steps", "j_d_steps"):
            assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), f"trial {trial}: {name}"
        assert (sol.cost, sol.feasible, sol.notes) == (ref.cost, ref.feasible, ref.notes)
        assert not sol.feasible


@pytest.mark.parametrize("axis", ["rows", "columns"])
def test_forward_integration_leaves_a_box_along_either_axis(axis):
    # a box that leaves out the row, or the column, of the cell the trajectory
    # reads at slice 1 makes forward integration rerun the full pass
    s = default_scenario(e_step=1.6, theta_step=2.0, p_step=2.0)
    models = _reference_models("plant-linear")
    grids = build_grids(s)
    backward_induction(s, grids, models)
    ref = forward_integration(s, grids, models)
    i, j = nearest_index(grids.e_d, ref.e_traj[1]), nearest_index(grids.theta_d, ref.theta_traj[1])
    top, bottom, left, right = grids.region[1]
    assert top <= i < bottom and left <= j < right
    grids.region[1] = (i + 1, bottom, left, right) if axis == "rows" else (top, bottom, j + 1, right)
    sol = forward_integration(s, grids, models)
    assert np.array_equal(grids.region, _whole_grid(s.grid.n_intervals, *grids.shape[:2]))
    for name in ("p_star", "e_traj", "theta_traj", "j_e_steps", "j_d_steps"):
        assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
    assert (sol.cost, sol.feasible, sol.notes) == (ref.cost, ref.feasible, ref.notes)


def test_mode_ii_iii_objective_ordering():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(20):
        s, models = random_tiny_instance(rng)
        s3 = replace(s, include_aging_in_objective=True)
        s2 = replace(s, include_aging_in_objective=False)
        sol3 = solve(s3, models)
        sol2 = solve(s2, models)
        if not (sol3.feasible and sol2.feasible):
            continue
        assert sol3.cost.total <= sol2.cost.total + 1e-9
        assert sol2.cost.j_e <= sol3.cost.j_e + 1e-9
        checked += 1
    assert checked >= 5


def test_transition_table_reuse_matches_fresh_build():
    rng = np.random.default_rng(31)
    s, models = random_tiny_instance(rng)
    table = build_transition_table(s, models, build_grids(s))
    # different endpoints, same bounds: the shared table must be valid
    s_alt = replace(s, e0=s.e_target, e_target=s.e0)
    grids_shared = build_grids(s_alt)
    backward_induction(s_alt, grids_shared, models, table=table)
    clear_table_cache()
    fresh = build_transition_table(s_alt, models, build_grids(s_alt))
    assert fresh is not table
    grids_direct = build_grids(s_alt)
    backward_induction(s_alt, grids_direct, models, table=fresh)
    assert np.array_equal(grids_shared.cost, grids_direct.cost)
    assert np.array_equal(grids_shared.action, grids_direct.action)


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_temperature_node_axis(backend):
    # theta_lo == theta_hi collapses the temperature axis to one node
    models = _simple_models()
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=3, dt_min=60.0),
        e0=1.0,
        e_target=4.0,
        theta0=20.0,
        profile=_flat_profile(),
        e_lo=0.0,
        e_hi=6.0,
        theta_lo=20.0,
        theta_hi=20.0,
        p_lo=0.0,
        p_hi=2.0,
    )
    grids = backward_induction(s, build_grids(s), models, backend=backend)
    sol = forward_integration(s, grids, models)
    assert sol.feasible
    assert sol.e_traj[-1] == pytest.approx(4.0, abs=1e-6)


def test_scenario_json_round_trip(tmp_path):
    s = Scenario(
        grid=TimeGrid(t0=3600.0, n_intervals=12, dt_min=5.0),
        e0=24.0,
        e_target=64.0,
        theta0=18.0,
        profile=_flat_profile(0.25),
        include_aging_in_objective=False,
        soh0=0.95,
    )
    path = tmp_path / "scenario.json"
    save_scenario_json(s, path)
    back = load_scenario_json(path)
    assert back.e0 == s.e0
    assert back.e_target == s.e_target
    assert back.include_aging_in_objective is False
    assert back.grid == s.grid
    assert np.allclose(back.profile.eps_buy, s.profile.eps_buy)


@pytest.mark.parametrize("value", ["false", "true", 0.5, 0, 1, None])
def test_include_aging_flag_must_be_a_json_boolean(tmp_path, value):
    path = tmp_path / "scenario.json"
    save_scenario_json(default_scenario(), path)
    d = json.loads(path.read_text())
    d["include_aging_in_objective"] = value
    path.write_text(json.dumps(d))
    with pytest.raises(InvalidParameterError, match="include_aging_in_objective must be true or false"):
        load_scenario_json(path)
    d["include_aging_in_objective"] = False
    path.write_text(json.dumps(d))
    assert load_scenario_json(path).include_aging_in_objective is False
