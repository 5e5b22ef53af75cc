"""DDP solver: grids, nearest-index rules, oracle equivalence, backends."""

import copy
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
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
from chargeopt.optimizer.transitions import TILE, _tile, untile
from chargeopt.tariff import PriceProfile, default_profiles, scale_gamma
from oracles import brute_force_optimum, chain_transitions, random_tiny_instance

BACKENDS = ["python"] + (["compiled"] if HAVE_COMPILED else [])
# batch sizes B of the kernel tests: one scenario, Modes II and III, and one more
BATCHES = pytest.mark.parametrize("n_scen", [1, 2, 3])


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
    assert g.action.dtype == np.int32 and np.all(g.action == 0)


def test_nearest_index_rules():
    grid = np.array([8.0, 8.8, 9.6, 10.4])
    assert nearest_index(grid, 10.1) == 3  # |10.1-9.6| = 0.5 > 0.3
    assert nearest_index(grid, 9.6) == 2
    assert nearest_index(grid, 8.4) == 0  # exact midpoint resolves down
    assert nearest_index(grid, -100.0) == 0
    assert nearest_index(grid, 100.0) == 3


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 33, 1001])
def test_axis_reads_give_a_row_the_same_bits_alone_and_in_a_batch(rows):
    # the transition table and the circuit lookups read an axis for many states in one call
    grid = make_range(8.0, 80.0, 0.8)
    rng = np.random.default_rng(rows)
    x = rng.uniform(0.0, 90.0, rows)  # some beyond the hull, where the reads clamp
    x[::3] = rng.choice(grid, len(x[::3]))  # on the nodes
    x[1::3] = (grid[:-1] + grid[1:])[rng.integers(0, len(grid) - 1, len(x[1::3]))] / 2  # halfway: ties
    x[-1] = -0.0  # a signed zero below the hull

    def reads(v):
        return electrical.interp_axis(grid, v)

    order = rng.permutation(rows)
    batch, shuffled = reads(x), reads(x[order])
    position = np.argsort(order)
    for i in range(rows):
        for alone, one_row, b, sh in zip(reads(x[i]), reads(x[i : i + 1]), batch, shuffled):
            bits = np.asarray(alone).tobytes()
            assert bits == one_row.tobytes() == b[i].tobytes() == sh[position[i]].tobytes(), f"row {i}"


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
        expected = [int(np.argmin(np.abs(grid - x))) for x in xs]
        # the forward loop's read, on the axis as a list or an array
        for axis in (grid, grid.tolist()):
            assert [nearest_index(axis, float(x)) for x in xs] == expected
            # where argmin is no reference: NaN sorts last, as in np.searchsorted,
            # and +inf ties the last two nodes and takes the lower
            n = len(grid)
            for x, want in ((np.nan, n - 1), (np.inf, n - 2), (-np.inf, 0)):
                assert nearest_index(axis, x) == want


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
    assert grids.p_d[2] == 0.0 and grids.action[0, i0, j0] == 2
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


def test_a_replay_of_signed_zero_powers_keeps_their_signs():
    # energy is priced with the zero rule of Python's max and min, which
    # keep the first of equal arguments: -0.0 kW costs -0.0, and each total
    # is a left fold from +0.0
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
    for powers in ([-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]):
        sol = replay(powers, s, models)
        assert sol.notes == ()
        assert np.array_equal(np.signbit(sol.p_star), np.signbit(powers))
        assert np.array_equal(np.signbit(sol.j_e_steps), np.signbit(powers))
        assert np.array_equal(sol.j_e_steps, np.zeros(3))
        buy, sell = sol.cost.j_e_buy, sol.cost.j_e_sell
        assert np.array([buy, sell]).tobytes() == np.zeros(2).tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_solve_prices_each_interval_as_its_backward_pass_did(monkeypatch, backend):
    # the objective and the re-costing share tariff.energy_cost: a policy
    # rollout takes grid actions unclamped, so interval n's energy cost is
    # the pass's je[n, k] for the action k it took, bit for bit
    models = BatteryModels(
        tables=electrical.default_tables(),
        thermal=thermal.plant_linear_model(thermal.ThermalPlant()),
        aging=default_params(),
    )
    s = default_scenario(profile=scale_gamma(default_profiles()[0], 1.8), e_step=1.6, theta_step=2.0, p_step=2.0)
    passes = []
    backward_pass = backend_mod.backward_pass
    monkeypatch.setattr(
        backend_mod, "backward_pass", lambda *a, **k: passes.append(k["je"].copy()) or backward_pass(*a, **k)
    )
    grids = backward_induction(s, build_grids(s), models, backend=backend)
    sol = forward_integration(s, grids, models)
    (je,) = passes
    n = np.arange(s.grid.n_intervals)
    taken = [
        grids.action[k, nearest_index(grids.e_d, sol.e_traj[k]), nearest_index(grids.theta_d, sol.theta_traj[k])]
        for k in n
    ]
    assert np.array_equal(sol.p_star, grids.p_d[taken])
    assert (sol.p_star < 0).any() and (sol.p_star > 0).any()  # both the buy and the sell price
    assert sol.j_e_steps.tobytes() == je[n, 0, taken].tobytes()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_replay_rejects_a_non_finite_power(bad):
    # a NaN power used to return a NaN cost, and an infinite one an infinite cost, with notes only
    s = Scenario(
        grid=TimeGrid(t0=0.0, n_intervals=3, dt_min=60.0),
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
    with pytest.raises(InvalidParameterError, match="power trajectory must be finite"):
        replay([1.0, bad, 0.0], s, _simple_models())


def test_rollouts_of_one_loop_share_their_grid_axes():
    s = default_scenario(e_step=1.6, theta_step=2.0, p_step=2.0, grid=TimeGrid(t0=0.0, n_intervals=4, dt_min=5.0))
    models = _reference_models("constant")
    runs = []
    for s_run in (s, replace(s, e_step=2.0)):
        grids = build_grids(s_run)
        backward_induction(s_run, grids, models)
        runs.append((s_run, grids))
    with pytest.raises(InvalidParameterError, match="share their axes"):
        solver_mod.rollouts(models, runs)


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
    # the aging costed after the loop covers the intervals stepped, and no other
    assert np.all(sol.j_d_steps[:3] > 0) and sol.j_d_steps[3:].tolist() == [0.0, 0.0]
    assert sol.cost.j_d == pytest.approx(sol.j_d_steps.sum(), rel=1e-12)


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
    with pytest.raises(InvalidParameterError, match="grids, state and power bounds or dt"):
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
    with pytest.raises(InvalidParameterError, match="other battery models, grids"):
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
    assert len(arrays) == 5  # corner00, frac_e, frac_theta, cyc_fade and succ_box
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


@pytest.mark.parametrize("nj", [1, 7, 8, 9, 17, 86])
@pytest.mark.parametrize("k", [1, 9, 101])
def test_untile_inverts_the_tile_order(nj, k):
    # in tile order, action k of cell (i, j) follows the entries of the cells
    # before its tile, j0 = j - j mod 8, at k * w + (j - j0), w its tile's width
    ni = 3
    cells = np.arange(ni * nj * k).reshape(ni * nj, k)
    tiled = cells.copy()
    _tile(tiled, nj)
    i, j, a = np.meshgrid(np.arange(ni), np.arange(nj), np.arange(k), indexing="ij")
    j0 = j - j % TILE
    position = (i * nj + j0) * k + a * np.minimum(TILE, nj - j0) + (j - j0)
    assert np.array_equal(tiled.reshape(-1)[position], cells.reshape(ni, nj, k))
    assert np.array_equal(untile(tiled.reshape(ni, -1), nj), cells.reshape(ni, nj, k))
    # the columns [lo, hi) untile alone when they start a tile and end one or the row
    rows = tiled.reshape(ni, -1)
    for lo in range(0, nj, TILE):
        for hi in {min(lo + TILE, nj), nj}:
            assert np.array_equal(untile(rows[:, lo * k : hi * k], hi - lo), cells.reshape(ni, nj, k)[:, lo:hi])


def test_table_arrays_hold_each_cells_transitions_in_tile_order():
    # the chain oracle steps the models cell by cell; 17 temperature nodes
    # make two whole tiles and a narrower one per energy row
    rng = np.random.default_rng(17)
    for _ in range(3):
        s, models = random_tiny_instance(rng)
        s = replace(s, theta_hi=s.theta_lo + 16.0)
        grids = build_grids(s)
        ni, nj = len(grids.e_d), len(grids.theta_d)
        assert nj == 17
        table = build_transition_table(s, models, grids)
        valid, corner00 = (untile(a.reshape(ni, -1), nj) for a in (table.valid, table.corner00))
        for (i, j, k), step in chain_transitions(s, grids, models).items():
            assert valid[i, j, k] == (step is not None)
            if step is not None:
                # the nearest node of a successor on the grid is one of its corners
                si, sj, _ = step
                assert 0 <= si - corner00[i, j, k] // nj <= 1 and 0 <= sj - corner00[i, j, k] % nj <= 1


def test_a_built_table_holds_corner_minus_one_exactly_where_a_check_fails():
    # a coarse instance whose transitions fail each check somewhere: -450 and
    # 100 kW lie outside [p_lo, p_hi], the deepest discharges exceed the
    # deliverable power, and others leave the energy or temperature bounds
    s = replace(default_scenario(), e_step=8.0, theta_step=10.0, p_lo=-400.0, p_hi=50.0, p_step=50.0)
    models = _reference_models("plant-linear")
    grids = replace(build_grids(s), p_d=make_range(-450.0, 100.0, 50.0))
    ni, nj = len(grids.e_d), len(grids.theta_d)
    corner00 = untile(build_transition_table(s, models, grids).corner00.reshape(ni, -1), nj)
    valid = np.zeros(corner00.shape, bool)
    for (i, j, k), step in chain_transitions(s, grids, models).items():
        valid[i, j, k] = step is not None
    e, th = np.meshgrid(grids.e_d, grids.theta_d, indexing="ij")
    power = np.broadcast_to((s.p_lo <= grids.p_d) & (grids.p_d <= s.p_hi), valid.shape)
    floor = electrical.max_discharge_power(*electrical.lookup_arrays(models.tables, e, th))
    deliverable = grids.p_d >= floor[..., None]
    for fails in (~power, power & ~deliverable, power & deliverable & ~valid):
        assert fails.any()
    assert np.array_equal(corner00 == -1, ~valid)
    assert np.all(corner00[valid] >= 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_tables_int32_corners_reach_the_kernel_without_a_copy(monkeypatch, backend):
    s, models, grids = _cache_instance()
    table = build_transition_table(s, models, grids)
    assert table.corner00.dtype == np.int32
    kernel = backend_mod._kernel if backend == "compiled" else _kernel_py
    corners = []
    backward_pass = kernel.backward_pass
    monkeypatch.setattr(kernel, "backward_pass", lambda *args: corners.append(args[2]) or backward_pass(*args))
    backward_induction(s, grids, models, table=table, backend=backend)
    assert len(corners) == 1 and corners[0] is table.corner00


def test_a_table_whose_cells_times_actions_overflow_int32_is_refused():
    # 10,001 energy rows x 21 temperature columns x 10,235 actions > 2**31 - 1;
    # the build refuses before it evaluates any model
    s = replace(
        default_scenario(grid=TimeGrid(t0=0.0, n_intervals=1, dt_min=5.0)),
        e_lo=0.0,
        e_hi=100.0,
        e_step=0.01,
        theta_lo=0.0,
        theta_hi=20.0,
        p_lo=-51.17,
        p_hi=51.17,
        p_step=0.01,
    )
    grids = build_grids(s)
    assert len(grids.e_d) * len(grids.theta_d) * len(grids.p_d) > 2**31 - 1
    with pytest.raises(InvalidParameterError, match="int32"):
        build_transition_table(s, _simple_models(), grids)


@pytest.mark.parametrize("kernel", BACKENDS)
@BATCHES
def test_a_zero_scale_and_cal_add_what_a_zero_aging_array_added(kernel, n_scen):
    # Mode II passes scale 0.0 and a zero cal; its aging term 0.0 * cyc + 0.0 is
    # +0.0 for every finite cyc, negative and -0.0 included, the term a zero
    # (M, K) array gave, so no candidate changes
    args = _lane_case(17, 3, 4, ties=True, n_scen=n_scen)
    valid = args["corner00"] >= 0
    args["cyc_fade"][valid] = np.random.default_rng(3).choice([-1.5, -0.0, 0.0, 2.0], valid.sum())
    args["scale"][:] = 0.0
    args["cal"][:] = 0.0
    zero = copy.deepcopy(args)
    zero["cyc_fade"] = np.zeros_like(args["cyc_fade"])
    run = backend_mod._kernel.backward_pass if kernel == "compiled" else _kernel_py.backward_pass
    run(*args.values())
    run(*zero.values())
    assert args["cost"].tobytes() == zero["cost"].tobytes()
    assert args["action"].tobytes() == zero["action"].tobytes()


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
    whole = _whole_grid(s.grid.n_intervals, *grids.shape[:2])
    solver_mod._backward_pass(models, [(s, grids)], table, whole, backend)
    return grids


def _box_mask(boxes, ni, nj):
    """(N, Ni, Nj) bool: the cells inside each step's box."""
    rows, cols = np.arange(ni)[:, None], np.arange(nj)
    return np.stack([(b[0] <= rows) & (rows < b[1]) & (b[2] <= cols) & (cols < b[3]) for b in boxes])


def _kernel_args(n_scen):
    """Keyword arguments of a well-formed backward_pass call on random data
    for n_scen scenarios, with about one transition in five invalid."""
    rng = np.random.default_rng(0)
    n_steps, ni, nj, k = 3, 2, 3, 4
    m = ni * nj
    cost = np.zeros((n_scen, n_steps + 1, m))
    cost[:, -1] = rng.uniform(0.0, 5.0, (n_scen, m))
    invalid = rng.uniform(size=(m, k)) >= 0.8
    corner00 = rng.integers(0, (ni - 1) * nj - 1, size=(m, k)).astype(np.int32)
    corner00[invalid] = -1
    return dict(
        cost=cost,
        action=np.zeros((n_scen, n_steps, m), np.int32),
        corner00=corner00,
        frac_e=rng.uniform(size=(m, k)),
        frac_theta=rng.uniform(size=(m, k)),
        cyc_fade=rng.uniform(size=(m, k)),
        je=rng.normal(size=(n_steps, n_scen, k)),
        cal=rng.uniform(size=(n_scen, m)),
        scale=rng.uniform(size=n_scen),
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
@BATCHES
def test_compiled_kernel_matches_numpy_kernel(int64_format, n_scen):
    ref = _kernel_args(n_scen)
    _kernel_py.backward_pass(**ref)
    args = _kernel_args(n_scen)
    args["boxes"] = args["boxes"].astype(int64_format)
    backend_mod._kernel.backward_pass(*args.values())
    assert args["cost"].tobytes() == ref["cost"].tobytes()
    assert args["action"].tobytes() == ref["action"].tobytes()


def _lane_case(k, ni, nj, ties, n_steps=3, n_scen=1, corners="random"):
    """backward_pass arguments for n_scen scenarios with K = k actions on
    an ni x nj grid over n_steps steps, every cell in every step's box. With
    ties, costs, weights, fades and prices take a few exact values, so that
    equal candidates sit at different k, some candidates equal the penalty
    and -0.0 meets 0.0, and every other scenario has scale 0.0 (Mode II's);
    without, they are random, so that rounding shows. Invalid transitions
    have corner00 = -1 and carry NaN weights and fades. The table arrays
    are built in cell order and passed in tile order, as a
    TransitionTable holds them.

    corners picks the transitions. "random": random corners, which never
    form a run (consecutive corner00 along a tile's cells), every third cell
    with all transitions valid and the next with none. The others are all
    valid, with the corners of each action a run along the cells that breaks
    only where it wraps inside the slice, and one lane of each tile and
    action changed: "runs" changes none, "broken-runs" moves its corner on
    by one, and "invalid-in-run" makes it invalid."""
    rng = np.random.default_rng(1000 * k + 10 * ni + nj)

    def draw(shape, exact_values):
        return rng.choice(exact_values, shape) if ties else rng.uniform(size=shape)

    m, penalty = ni * nj, 8.0
    stride_e, stride_t = (nj if ni > 1 else 0), (1 if nj > 1 else 0)  # what both kernels derive
    n_corners = m - stride_e - stride_t  # corner00 values whose four corners lie in the slice
    cost = np.zeros((n_scen, n_steps + 1, m))
    cost[:, -1] = draw((n_scen, m), [0.0, -0.0, -0.0, 1.0, penalty])
    if corners == "random":
        valid = (rng.uniform(size=(m, k)) < 0.6).astype(np.uint8)
        valid[0::3] = 1
        valid[1::3] = 0
        corner00 = rng.integers(0, n_corners, size=(m, k)).astype(np.int32)
    else:
        valid = np.ones((m, k), np.uint8)
        corner00 = ((rng.integers(0, n_corners, size=k) + np.arange(m)[:, None]) % n_corners).astype(np.int32)
        # one lane of each tile and action, (Ni, tiles, K), as a cell-order mask
        widths = np.minimum(TILE, nj - np.arange(0, nj, TILE))
        lane = rng.integers(0, TILE, size=(ni, len(widths), k)) % widths[:, None]
        j = np.arange(nj)
        changed = ((j % TILE)[None, :, None] == lane[:, j // TILE]).reshape(m, k)
        if corners == "broken-runs":
            corner00[changed] = (corner00[changed] + 1) % n_corners
        elif corners == "invalid-in-run":
            valid[changed] = 0
    invalid = valid == 0
    corner00[invalid] = -1
    frac_e, frac_theta = draw((2, m, k), [0.0, 0.5, 1.0])
    cyc_fade = draw((m, k), [0.0, -0.0, -0.0, 0.5])
    for a in (frac_e, frac_theta, cyc_fade):
        a[invalid] = np.nan
    for a in (corner00, frac_e, frac_theta, cyc_fade):
        _tile(a, nj)
    scale = draw(n_scen, [0.5, 2.0])
    if ties:
        scale[::2] = 0.0
    return dict(
        cost=cost,
        action=np.zeros((n_scen, n_steps, m), np.int32),
        corner00=corner00,
        frac_e=frac_e,
        frac_theta=frac_theta,
        cyc_fade=cyc_fade,
        je=draw((n_steps, n_scen, k), [0.0, -0.0, -0.0, 0.5]),
        cal=draw((n_scen, m), [0.0, -0.0, -0.0, 0.5]),
        scale=scale,
        penalty=penalty,
        n_rows=ni,
        boxes=_whole_grid(n_steps, ni, nj),
    )


def _run_both_kernels(args):
    """Run both kernels on copies of args; assert byte-equal grids and return them."""
    ref = copy.deepcopy(args)
    _kernel_py.backward_pass(**ref)
    out = copy.deepcopy(args)
    backend_mod._kernel.backward_pass(*out.values())
    assert out["cost"].tobytes() == ref["cost"].tobytes()
    assert out["action"].tobytes() == ref["action"].tobytes()
    return ref


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 17, 101])
@pytest.mark.parametrize("ni, nj", [(3, 4), (1, 5), (4, 1), (1, 1)])
@pytest.mark.parametrize("ties", [True, False], ids=["ties", "random"])
@BATCHES
def test_compiled_lanes_match_numpy_kernel(k, ni, nj, ties, n_scen):
    _run_both_kernels(_lane_case(k, ni, nj, ties, n_scen=n_scen))


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize("corners", ["runs", "broken-runs", "invalid-in-run"])
@pytest.mark.parametrize("k", [1, 9, 101])
@pytest.mark.parametrize("nj", [1, 7, 8, 9, 17, 86])
@pytest.mark.parametrize("ni", [1, 3])
@pytest.mark.parametrize("columns", ["whole-rows", "mid-tile"])
@BATCHES
def test_compiled_tiles_match_numpy_kernel(corners, k, nj, ni, columns, n_scen):
    # runs take the compiled kernel's loads, broken runs its gathers, and an
    # invalid lane leaves a run of the others; nj mod 8 cells form a narrower
    # tile, and a box whose columns start and end inside a tile computes only
    # some of its lanes
    args = _lane_case(k, ni, nj, ties=(k + nj) % 2 == 0, n_scen=n_scen, corners=corners)
    if columns == "mid-tile":
        rng = np.random.default_rng(k + nj)
        left = rng.integers(0, nj, size=len(args["je"]))
        args["boxes"][:, 2:] = np.stack([left, left + 1 + rng.integers(0, nj - left)], axis=1)
    _run_both_kernels(args)


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
@BATCHES
def test_compiled_kernel_matches_numpy_kernel_on_regions(kind, k, ni, nj, ties, n_scen):
    args = _lane_case(k, ni, nj, ties, n_scen=n_scen)
    rng = np.random.default_rng(7 * k + ni + 100 * nj)
    args["boxes"] = REGION_KINDS[kind](rng, len(args["je"]), ni, nj)
    full = _run_both_kernels(_lane_case(k, ni, nj, ties, n_scen=n_scen))
    ref = _run_both_kernels(args)
    # cells outside the boxes get the penalty and action 0; the last slice is the input
    inside = _box_mask(args["boxes"], ni, nj).reshape(len(args["je"]), ni * nj)
    for b in range(n_scen):
        assert np.all(ref["cost"][b, :-1][~inside] == args["penalty"])
        assert np.all(ref["action"][b][~inside] == 0)
        assert ref["cost"][b, -1].tobytes() == args["cost"][b, -1].tobytes()
        # the last step reads the whole boundary slice, so its box's cells equal a full pass
        last = inside[-1]
        assert ref["cost"][b, -2][last].tobytes() == full["cost"][b, -2][last].tobytes()
        assert ref["action"][b, -1][last].tobytes() == full["action"][b, -1][last].tobytes()


def _boxes_of_both_parities(rng, n_steps, ni, nj):
    """Random boxes of at least two rows and one column whose top row is odd
    at odd steps and even at even steps: a kernel thread that fills rows by
    one parity and computes them by another overwrites computed cells."""
    top = 2 * rng.integers(0, (ni - 2) // 2, size=n_steps) + np.arange(n_steps) % 2
    left = rng.integers(0, nj, size=n_steps)
    return np.stack(
        [top, top + rng.integers(2, ni - top + 1), left, left + rng.integers(1, nj - left + 1)], axis=1
    )


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize("trial", range(24))
@BATCHES
def test_compiled_kernel_matches_numpy_kernel_on_large_random_regions(trial, n_scen):
    # large enough that every thread of the compiled kernel has rows to compute
    # at every step, whichever thread gets past the barrier first
    args = _lane_case(17, 31, 30, ties=trial % 2 == 0, n_steps=24, n_scen=n_scen)
    args["boxes"] = _boxes_of_both_parities(np.random.default_rng(trial), 24, 31, 30)
    _run_both_kernels(args)


def _run_python(script, *args, timeout=300):
    """Run script with args in a fresh interpreter that imports chargeopt
    from src/ and the test modules from tests/; return its standard output."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return done.stdout


# SHA-256 of the cost grid, action grid and p_star of full-scale Mode III and
# Mode II solves on the compiled kernel, each solved alone and both in one
# batch, in a process pinned to the CPU given as its argument
SOLVE_DIGEST = """
    import hashlib, os, sys
    from dataclasses import replace
    from chargeopt import electrical, thermal
    from chargeopt.aging import default_params
    from chargeopt.evaluation import default_scenario
    from chargeopt.optimizer import BatteryModels, active_backend, build_grids, backward_induction
    from chargeopt.optimizer import forward_integration
    from chargeopt.optimizer.solver import induce

    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    assert active_backend() == "compiled"
    models = BatteryModels(
        tables=electrical.default_tables(),
        thermal=thermal.plant_linear_model(thermal.ThermalPlant()),
        aging=default_params(),
    )
    modes = [default_scenario(), default_scenario(include_aging_in_objective=False)]
    batch = [(s, build_grids(s)) for s in modes]
    induce(models, batch)
    for runs in ([(s, backward_induction(s, build_grids(s), models)) for s in modes], batch):
        digest = hashlib.sha256()
        for s, grids in runs:
            sol = forward_integration(s, grids, models)
            for a in (grids.cost, grids.action, sol.p_star):
                digest.update(a.tobytes())
        print(digest.hexdigest())
    print(len(os.sched_getaffinity(0)))
"""


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_a_full_scale_solve_has_the_same_bits_on_one_cpu():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("fewer than 2 CPUs allowed: the kernel runs on one thread either way")
    unpinned_lone, unpinned_batch, n_all = _run_python(SOLVE_DIGEST).split()
    pinned_lone, pinned_batch, n_one = _run_python(SOLVE_DIGEST, str(cpus[-1])).split()
    assert (int(n_all), int(n_one)) == (len(cpus), 1)
    assert pinned_lone == unpinned_lone
    # a batch of Modes III and II gives each mode the bits of its lone solve
    assert unpinned_batch == unpinned_lone
    assert pinned_batch == pinned_lone


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.skipif(sys.platform != "linux", reason="the kernel starts threads on Linux only")
def test_compiled_kernel_runs_alone_when_no_thread_can_start():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 CPUs allowed: the kernel starts no thread")
    # an address-space limit 1 MiB above what the process maps leaves no room
    # for a thread's stack, so pthread_create fails; the kernel must then give
    # the NumPy kernel's bits on the calling thread, and not hang or raise
    out = _run_python(
        r"""
        import copy, re, resource, threading
        import numpy as np
        from chargeopt.optimizer import _kernel_py, backend
        from test_optimizer import _boxes_of_both_parities, _lane_case

        args = _lane_case(17, 31, 30, ties=False, n_steps=24, n_scen=2)
        args["boxes"] = _boxes_of_both_parities(np.random.default_rng(0), 24, 31, 30)
        ref = copy.deepcopy(args)
        _kernel_py.backward_pass(**ref)
        mapped = re.search(r"VmSize:\s+(\d+) kB", open("/proc/self/status").read())
        resource.setrlimit(resource.RLIMIT_AS, (1024 * int(mapped.group(1)) + 2**20, resource.RLIM_INFINITY))
        backend._kernel.backward_pass(*args.values())
        try:
            threading.Thread(target=print).start()
            print("a thread started")
        except RuntimeError:
            print("no thread started")
        print(all(args[name].tobytes() == ref[name].tobytes() for name in ("cost", "action")))
        """,
        timeout=120,
    )
    assert out.split() == ["no", "thread", "started", "True"]


@pytest.mark.parametrize("kind", REGION_KINDS)
@pytest.mark.parametrize("block_cells", [1, 4, 9, 13])  # 1, 1, 2 and 3 rows of 4 cells
@pytest.mark.parametrize("ties", [True, False], ids=["ties", "random"])
@BATCHES
def test_numpy_kernel_block_size_keeps_every_bit(monkeypatch, kind, block_cells, ties, n_scen):
    args = _lane_case(9, 7, 4, ties, n_scen=n_scen)
    rng = np.random.default_rng(block_cells)
    args["boxes"] = REGION_KINDS[kind](rng, len(args["je"]), 7, 4)
    whole = copy.deepcopy(args)  # one block holds the whole grid
    _kernel_py.backward_pass(**whole)
    monkeypatch.setattr(_kernel_py, "BLOCK_CELLS", block_cells)
    _kernel_py.backward_pass(**args)
    assert args["cost"].tobytes() == whole["cost"].tobytes()
    assert args["action"].tobytes() == whole["action"].tobytes()


@BATCHES
def test_numpy_kernel_writes_through_non_contiguous_grids(n_scen):
    """Each step's (Ni, Nj) views must alias the output grids, whatever
    their strides, or the kernel would fill copies and leave the grids."""
    ref = _kernel_args(n_scen)
    _kernel_py.backward_pass(**ref)
    args = _kernel_args(n_scen)
    args["cost"], args["action"] = (_non_contiguous(args[name]) for name in ("cost", "action"))
    _kernel_py.backward_pass(**args)
    assert np.ascontiguousarray(args["cost"]).tobytes() == ref["cost"].tobytes()
    assert np.ascontiguousarray(args["action"]).tobytes() == ref["action"].tobytes()


@BATCHES
def test_numpy_kernel_memory_does_not_grow_with_the_region(monkeypatch, n_scen):
    """A step's temporaries are one row block by K per scenario, so a pass
    over every cell peaks no higher than a pass over one row of cells."""
    import tracemalloc

    ni, nj = 40, 30
    monkeypatch.setattr(_kernel_py, "BLOCK_CELLS", nj)
    # an untraced pass first: the first pass through many blocks leaves a few
    # KB in NumPy's and Python's caches, which are not temporaries
    _kernel_py.backward_pass(**_lane_case(9, ni, nj, ties=False, n_scen=n_scen))
    peaks = {}
    for name, rows in (("one row", (ni // 2, ni // 2 + 1)), ("every row", (0, ni))):
        args = _lane_case(9, ni, nj, ties=False, n_scen=n_scen)
        args["boxes"][:, :2] = rows
        tracemalloc.start()
        _kernel_py.backward_pass(**args)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks["every row"] <= 1.05 * peaks["one row"]


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_kernel_uses_lanes_where_the_cpu_has_avx512f():
    lanes = backend_mod._kernel.LANES
    if sys.platform == "linux" and platform.machine() == "x86_64":
        cpuinfo = Path("/proc/cpuinfo").read_text()
        has_avx512f = re.search(r"^flags\s*:.*\bavx512f\b", cpuinfo, re.MULTILINE) is not None
        assert lanes == (8 if has_avx512f else 1)
    else:
        assert lanes in (1, 8)


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize(
    "name",
    ["cost", "action", "corner00", "frac_e", "frac_theta", "cyc_fade", "je", "cal", "scale", "boxes"],
)
@pytest.mark.parametrize(
    "misuse, error, match",
    [
        (lambda a: a.astype(np.float32), TypeError, "{name} has item"),
        (lambda a: a.astype(np.int32 if a.dtype == np.int64 else np.int64), TypeError, "{name} has item"),
        # among them a float64 action: powers in kW where the kernels write indices
        (lambda a: a.astype(np.int32 if a.dtype == np.float64 else np.float64), TypeError, "{name} has item"),
        (_non_contiguous, ValueError, "{name} is not C-contiguous"),
        # N, B and K are read from je, so a short je is reported on the first array it
        # disagrees with
        (_short, ValueError, "entries along axis"),
        (lambda a: a[None], ValueError, "{name} has [234] dimensions"),
    ],
    ids=["narrow-or-signed", "wrong-kind", "float-or-int", "non-contiguous", "short", "extra-axis"],
)
@BATCHES
def test_compiled_kernel_rejects_malformed_buffers(name, misuse, error, match, n_scen):
    args = _kernel_args(n_scen)
    args[name] = misuse(args[name])
    if (name, misuse, n_scen) == ("scale", _non_contiguous, 1):
        # one element is C-contiguous whatever its stride, so the kernel takes it
        ref = _kernel_args(n_scen)
        _kernel_py.backward_pass(**ref)
        backend_mod._kernel.backward_pass(*args.values())
        assert args["cost"].tobytes() == ref["cost"].tobytes()
        return
    with pytest.raises(error, match=match.format(name=name)):
        backend_mod._kernel.backward_pass(*args.values())


def _bad_corner_cases(n_scen):
    """(arguments, message) of backward_pass calls that each set one
    corner00 entry the kernels refuse: below -1, the sentinel of an invalid
    transition, or with a successor corner past the slice (m - 1: its upper
    corners). In tile order, entry 9 of the first row's one tile of 3 cells
    is action 3 of cell 0."""
    m = _kernel_args(n_scen)["corner00"].shape[0]
    for corner in (-2, -m - 1, -(2**31 - 1), m - 1, m, 2**31 - 1):
        args = _kernel_args(n_scen)
        args["corner00"][2, 1] = corner
        yield args, rf"corner00\[2, 1\] = {corner} \(cell 0, action 3\) puts a successor corner outside"


@BATCHES
def test_numpy_kernel_rejects_bad_corners(n_scen):
    # the compiled kernel's: test_compiled_kernel_rejects_bad_corners_and_outputs
    for args, match in _bad_corner_cases(n_scen):
        with pytest.raises(ValueError, match=match):
            _kernel_py.backward_pass(**args)


@pytest.mark.parametrize("kernel", BACKENDS)
@BATCHES
def test_corner_minus_one_gives_the_penalty_and_action_0(kernel, n_scen):
    # every transition invalid: each computed cell's minimum is the penalty,
    # first met at action 0, whatever the weights and fades hold
    args = _kernel_args(n_scen)
    args["corner00"][:] = -1
    for name in ("frac_e", "frac_theta", "cyc_fade"):
        args[name][:] = np.nan
    args["action"][:] = 7
    run = backend_mod._kernel.backward_pass if kernel == "compiled" else _kernel_py.backward_pass
    run(*args.values())
    assert np.all(args["cost"][:, :-1] == args["penalty"])
    assert np.all(args["action"] == 0)


@pytest.mark.parametrize("kernel", BACKENDS)
@pytest.mark.parametrize(
    "name, dtype",
    [
        ("cost", np.float32),
        ("action", np.float64),
        ("action", np.int64),
        ("action", np.int16),
        ("corner00", np.int64),
        ("corner00", np.float64),
    ],
)
def test_kernels_reject_other_item_types(kernel, name, dtype):
    # a float64 action grid would take the argmin indices as floats
    args = _kernel_args(1)
    args[name] = args[name].astype(dtype)
    run = backend_mod._kernel.backward_pass if kernel == "compiled" else _kernel_py.backward_pass
    with pytest.raises(TypeError, match=f"{name} has item"):
        run(*args.values())


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@BATCHES
def test_compiled_kernel_rejects_bad_corners_and_outputs(n_scen):
    kernel = backend_mod._kernel.backward_pass
    for args, match in _bad_corner_cases(n_scen):
        with pytest.raises(ValueError, match=match):
            kernel(*args.values())
    for name in ("cost", "action"):
        args = _kernel_args(n_scen)
        args[name].flags.writeable = False
        with pytest.raises(ValueError, match=f"{name} is read-only"):
            kernel(*args.values())


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_a_bad_corner_is_reported_with_its_cell_and_action():
    # Nj = 11: a whole tile and a narrower one of 3 cells in each of 2 rows
    ni, nj, k = 2, 11, 3
    entry_of = untile(np.arange(ni * nj * k).reshape(ni, -1), nj).reshape(ni * nj, k)
    for cell in range(ni * nj):
        for action in range(k):
            args = _lane_case(k, ni, nj, ties=False, corners="runs")  # every transition valid
            entry = entry_of[cell, action]
            args["corner00"].flat[entry] = -2
            match = rf"corner00\[{entry // k}, {entry % k}\] = -2 \(cell {cell}, action {action}\) "
            with pytest.raises(ValueError, match=match):
                backend_mod._kernel.backward_pass(*args.values())
            with pytest.raises(ValueError, match=match):
                _kernel_py.backward_pass(**args)


@pytest.mark.parametrize("kernel", BACKENDS)
def test_kernels_reject_an_empty_batch(kernel):
    args = _kernel_args(0)
    run = backend_mod._kernel.backward_pass if kernel == "compiled" else _kernel_py.backward_pass
    with pytest.raises(ValueError, match=r"no scenarios \(B=0\)"):
        run(*args.values())


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


def _bad_box_args(change, n_scen):
    args = _kernel_args(n_scen)
    args["boxes"][1] = (0, 2, 0, 2)
    change(args)
    return args


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@BAD_BOXES
@BATCHES
def test_compiled_kernel_rejects_bad_region_rows(change, match, n_scen):
    with pytest.raises(ValueError, match=match):
        backend_mod._kernel.backward_pass(*_bad_box_args(change, n_scen).values())


@BAD_BOXES
@BATCHES
def test_numpy_kernel_rejects_bad_boxes(change, match, n_scen):
    with pytest.raises(ValueError, match=match):
        _kernel_py.backward_pass(**_bad_box_args(change, n_scen))


@pytest.mark.parametrize("shape", [(3, 3), (3, 5), (3, 4, 1), (4,)])
@BATCHES
def test_numpy_kernel_rejects_boxes_of_a_wrong_shape(shape, n_scen):
    # the compiled kernel's buffer checks: test_compiled_kernel_rejects_malformed_buffers
    args = _kernel_args(n_scen)
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
    # computed cells satisfy the Bellman equation on the snapped chain, with
    # their action index at a minimum; the others hold the penalty and action
    # 0, and the computed cells include every cell the chain reaches from the
    # initial cell
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
                        assert grids.action[n, i, j] == 0
                        continue
                    cands = []
                    for k, p in enumerate(grids.p_d):
                        tr = trans[i, j, k]
                        if tr is None:
                            cands.append(s.penalty)
                        else:
                            si, sj, jd = tr
                            je = max(p, 0.0) * dt_h * eps_buy[n] + min(p, 0.0) * dt_h * eps_sell[n]
                            cands.append((je + jd) + grids.cost[n + 1, si, sj])
                    assert grids.cost[n, i, j] == pytest.approx(min(cands), abs=1e-9)
                    assert cands[grids.action[n, i, j]] == pytest.approx(min(cands), abs=1e-9)
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
    valid, corner00, frac_e, frac_theta = (
        untile(a.reshape(len(grids.e_d), -1), nj).reshape(a.shape)
        for a in (table.valid, table.corner00, table.frac_e, table.frac_theta)
    )
    src, dst = [], []
    for di in (0, 1):
        for dj in (0, 1):
            weight_e = frac_e > 0 if di else frac_e < 1
            weight_t = frac_theta > 0 if dj else frac_theta < 1
            cell, k = np.nonzero(valid.astype(bool) & weight_e & weight_t)
            src.append(cell)
            dst.append(corner00[cell, k] + di * nj + dj)
    src, dst = np.concatenate(src), np.concatenate(dst)
    for n in range(s.grid.n_intervals - 1):
        assert not np.any(computed[n, src] & ~computed[n + 1, dst]), f"step {n}"
    # each succ_box row is the tight hull of its cell's corners, (Ni, 0, Nj, 0) when it has none
    hull = np.tile(np.array([len(grids.e_d), 0, nj, 0]), (len(table.valid), 1))
    rows, cols = dst // nj, dst % nj
    bounds = ((np.minimum, rows), (np.maximum, rows + 1), (np.minimum, cols), (np.maximum, cols + 1))
    for col, (ufunc, node) in enumerate(bounds):
        ufunc.at(hull[:, col], src, node)
    assert np.array_equal(table.succ_box, hull)
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
    assert np.all(grids.action[~computed] == 0)
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


def _batch_scenarios():
    """Three coarse reference scenarios that share a table, the initial cell
    and N: Mode III, Mode II, and Mode III on other prices with another
    target and state of health."""
    s = default_scenario(e_step=1.6, theta_step=2.0, p_step=2.0)
    weekend = default_profiles()[1]
    return [s, replace(s, include_aging_in_objective=False), replace(s, profile=weekend, e_target=56.0, soh0=0.9)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_scen", [1, 2, 3])
def test_a_batch_gives_each_scenario_the_bits_of_its_lone_solve(backend, n_scen):
    models = _reference_models("plant-linear")
    batch = [(s, build_grids(s)) for s in _batch_scenarios()[:n_scen]]
    solver_mod.induce(models, batch, backend=backend)
    for s, grids in batch:
        lone = backward_induction(s, build_grids(s), models, backend=backend)
        for name in ("cost", "action", "region"):
            assert getattr(grids, name).tobytes() == getattr(lone, name).tobytes(), name
        sol, ref = forward_integration(s, grids, models), forward_integration(s, lone, models)
        assert sol.p_star.tobytes() == ref.p_star.tobytes()


def _differing_grid(**changes):
    return lambda s: replace(s, grid=replace(s.grid, **changes))


# changes that leave a scenario without the table, the initial cell, N or the
# penalty of the reference scenario, so that the two cannot share a pass
BATCH_MISMATCHES = {
    "e0": lambda s: replace(s, e0=s.e0 + 5 * s.e_step),
    "theta0": lambda s: replace(s, theta0=s.theta0 + 3 * s.theta_step),
    "N": _differing_grid(n_intervals=95),
    "e_hi": lambda s: replace(s, e_hi=72.0),
    "theta_lo": lambda s: replace(s, theta_lo=-20.0),
    "p_lo": lambda s: replace(s, p_lo=0.0),
    "e_step": lambda s: replace(s, e_step=0.8),
    "theta_step": lambda s: replace(s, theta_step=1.0),
    "p_step": lambda s: replace(s, p_step=1.0),
    "dt": _differing_grid(dt_min=10.0),
    "penalty": lambda s: replace(s, penalty=1e6),
}


@pytest.mark.parametrize("change", BATCH_MISMATCHES)
@pytest.mark.parametrize("first", ["reference", "changed"])
def test_a_batch_that_cannot_share_a_pass_raises_before_any_pass(monkeypatch, change, first):
    models = _reference_models("plant-linear")
    s = _batch_scenarios()[0]
    scenarios = [s, BATCH_MISMATCHES[change](s)]
    if first == "changed":
        scenarios.reverse()
    passes = []
    monkeypatch.setattr(backend_mod, "backward_pass", lambda *a, **k: passes.append(1))
    with pytest.raises(InvalidParameterError):
        solver_mod.induce(models, [(s_b, build_grids(s_b)) for s_b in scenarios])
    assert passes == []


def test_a_batched_row_that_leaves_its_region_reruns_alone(monkeypatch):
    models = _reference_models("plant-linear")
    scenarios = _batch_scenarios()[:2]
    lone = [solve(s, models) for s in scenarios]
    batch = [(s, build_grids(s)) for s in scenarios]
    solver_mod.induce(models, batch)
    # leave out of the first row's slice-1 box the row its trajectory reads there
    grids = batch[0][1]
    i = nearest_index(grids.e_d, lone[0].e_traj[1])
    top, bottom = grids.region[1, :2]
    assert top <= i < bottom
    grids.region[1, 0] = i + 1
    kept = batch[1][1].region.copy()
    batch_sizes = []
    backward_pass = backend_mod.backward_pass
    monkeypatch.setattr(
        backend_mod, "backward_pass", lambda *a, **k: batch_sizes.append(a[0].shape[0]) or backward_pass(*a, **k)
    )
    sols = solver_mod.rollouts(models, batch)
    assert batch_sizes == [1]  # the row that left reran alone, over every cell
    assert np.array_equal(grids.region, _whole_grid(scenarios[0].grid.n_intervals, *grids.shape[:2]))
    assert np.array_equal(batch[1][1].region, kept)
    for sol, ref in zip(sols, lone):
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


@pytest.mark.parametrize("where, key", [((), "e_stpe"), (("profile",), "eps_sel"), (("grid",), "dt")])
def test_an_unknown_scenario_key_is_an_input_error(where, key):
    # a misspelt key would otherwise solve at the default of the key it misses
    d = scenario_to_dict(default_scenario())
    part = d
    for name in where:
        part = part[name]
    part[key] = 0.4
    with pytest.raises(InvalidParameterError, match=key):
        scenario_from_dict(d)


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
