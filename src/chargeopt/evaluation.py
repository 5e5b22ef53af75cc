"""Experimental protocols: model validation, mode comparison, sweeps.

Local errors score one-step predictions seeded with measured
start-of-interval states; global errors score full rollouts seeded only
with the initial state, quantifying error accumulation. Mode I replays the
event's own powers, Mode II optimizes energy cost only (aging re-priced
afterward), Mode III optimizes energy plus aging cost. Sweeps re-solve
Mode III over a gamma or battery-price axis. Events and sweep points are
independent; aggregation is ordered and deterministic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import electrical, tariff, thermal
from .aging import aging_cost
from .core import ChargingEvent, CostBreakdown
from .errors import InvalidParameterError
from .optimizer import (
    BatteryModels,
    DdpSolution,
    Scenario,
    TransitionTable,
    backward_induction,
    build_grids,
    replay,
    solve,
)
from .optimizer.solver import checked_powers, rollouts
from .thermal import constant_model

HIGH_POWER_SPLIT_KW = 7.0
MIN_EVENT_DURATION_H = 2.0


# ---------------------------------------------------------------------------
# model validation (local / global errors)


@dataclass(frozen=True)
class ModelErrors:
    local_rmse: float
    global_mae: float


@dataclass(frozen=True)
class ValidationReport:
    """Electrical errors in % SOC, thermal errors in K, per predictor."""

    electrical: ModelErrors
    thermal: dict


def validate_models(
    events: list[ChargingEvent],
    tables,
    thermal_models: dict,
    e_nom: float = 80.0,
) -> ValidationReport:
    """Local and global errors of the electrical and thermal models.

    The electrical rollout uses the measured temperature series (isolating
    circuit-model error); each thermal rollout propagates energy and
    temperature jointly through the coupled models. Every event is stepped
    at once, with its own dt; an event that has ended keeps its last state
    while longer ones go on. One circuit step per interval serves the
    electrical rollout and every thermal model's rollout, one row each, and
    one circuit step over the measured states serves every model's local
    errors; each model then predicts its rows in one call. The circuit
    model and the predictor are batch-invariant, so each event and model
    gets the bits of a rollout of that event and model alone.
    """
    if not events:
        raise InvalidParameterError("empty event corpus")
    models = list(thermal_models.values())
    # local errors: one step over every event's intervals
    e_m, theta_m, p_m, dt_m = (
        np.concatenate([ev.e[:-1] for ev in events]),
        np.concatenate([ev.theta[:-1] for ev in events]),
        np.concatenate([ev.p for ev in events]),
        np.concatenate([np.full(ev.grid.n_intervals, ev.grid.dt_min, float) for ev in events]),
    )
    de_true = np.concatenate([np.diff(ev.e) for ev in events])
    dth_true = np.concatenate([np.diff(ev.theta) for ev in events])
    de_hat, q_loss = electrical.energy_step(tables, e_m, theta_m, p_m, dt_m)
    local_soc = _rms((de_hat - de_true) / e_nom * 100.0)
    local_theta = [
        _rms(thermal.temperature_change(model, p_m, q_loss, de_hat, theta_m) - dth_true) for model in models
    ]

    # global errors: rollouts of all events in lockstep; row 0 is the
    # electrical rollout, row 1 + k the joint rollout of thermal model k
    lengths = np.array([ev.grid.n_intervals for ev in events])
    dt_event = np.array([ev.grid.dt_min for ev in events], float)
    p = _stack_rows([ev.p for ev in events])
    theta_measured = _stack_rows([ev.theta[:-1] for ev in events])
    e_hat = np.tile([ev.e[0] for ev in events], (1 + len(models), 1))
    th_hat = np.tile([ev.theta[0] for ev in events], (1 + len(models), 1))
    for n in range(p.shape[1]):
        live = n < lengths
        th_hat[0] = theta_measured[:, n]
        de, q_loss = electrical.energy_step(tables, e_hat, th_hat, p[:, n], dt_event)
        for k, model in enumerate(models, start=1):
            dth = thermal.temperature_change(model, p[:, n], q_loss[k], de[k], th_hat[k])
            th_hat[k] = np.where(live, th_hat[k] + dth, th_hat[k])
        e_hat = np.where(live, e_hat + de, e_hat)
    gl_soc = np.abs(e_hat[0] - [ev.e[-1] for ev in events]) / e_nom * 100.0
    gl_theta = np.abs(th_hat[1:] - [ev.theta[-1] for ev in events])
    report_thermal = {
        name: ModelErrors(local_rmse=local, global_mae=_mean(errors))
        for name, local, errors in zip(thermal_models, local_theta, gl_theta)
    }
    return ValidationReport(
        electrical=ModelErrors(local_rmse=local_soc, global_mae=_mean(gl_soc)),
        thermal=report_thermal,
    )


def _mean(values) -> float:
    """Mean with a correctly rounded sum, so the event order changes no bit."""
    values = np.asarray(values, float)
    return math.fsum(values) / values.size


def _rms(err: np.ndarray) -> float:
    return math.sqrt(_mean(err**2))


def _stack_rows(rows: list) -> np.ndarray:
    """Rows of unequal length as one (len(rows), longest) array, zero-padded;
    a zero power keeps an ended event's padded steps feasible."""
    out = np.zeros((len(rows), max(len(r) for r in rows)))
    for k, r in enumerate(rows):
        out[k, : len(r)] = r
    return out


# ---------------------------------------------------------------------------
# mode comparison


@dataclass(frozen=True)
class ModeComparison:
    mode_i: DdpSolution
    mode_ii: DdpSolution
    mode_iii: DdpSolution

    def normalized_totals(self) -> tuple[float, float, float]:
        """Totals normalized against Mode I."""
        base = self.mode_i.cost.total
        if base == 0:
            raise InvalidParameterError("Mode I total is zero; cannot normalize")
        return (1.0, self.mode_ii.cost.total / base, self.mode_iii.cost.total / base)


def default_scenario(**overrides) -> Scenario:
    """Reference instance: an 8 h workday-afternoon event moving 24 to 64 kWh
    at the standard bounds and grid steps."""
    from .core import TimeGrid

    kwargs = dict(
        grid=TimeGrid(t0=14 * 3600.0, n_intervals=96, dt_min=5.0),
        e0=24.0,
        e_target=64.0,
        theta0=20.0,
        profile=tariff.default_profiles()[0],
        soh0=0.98,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def scenario_for_event(
    event: ChargingEvent,
    profile: tariff.PriceProfile,
    **overrides,
) -> Scenario:
    """Scenario matching an event's window, endpoints, and state of health."""
    kwargs = dict(
        grid=event.grid,
        e0=float(event.e[0]),
        e_target=float(event.e[-1]),
        theta0=float(event.theta[0]),
        profile=profile,
        soh0=event.soh0,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def compare_modes(
    event: ChargingEvent,
    s: Scenario,
    models: BatteryModels,
    table: TransitionTable | None = None,
) -> ModeComparison:
    """Replay the event (Mode I) and solve Modes II and III on its scenario.

    The event's powers are checked first, so a malformed event.p costs no
    backward pass. The two backward passes run next; the replay and both
    policy rollouts then step together in one forward loop
    (solver.rollouts), with the bits of replay and solve.
    """
    if event.duration_h < MIN_EVENT_DURATION_H:
        raise InvalidParameterError(
            f"event lasts {event.duration_h:.2f} h; mode comparison needs >= {MIN_EVENT_DURATION_H} h"
        )
    runs = [(s, checked_powers(event.p, s))]
    for aging_in_objective in (False, True):
        s_mode = replace(s, include_aging_in_objective=aging_in_objective)
        grids = build_grids(s_mode)
        backward_induction(s_mode, grids, models, table=table)
        runs.append((s_mode, grids))
    mode_i, mode_ii, mode_iii = rollouts(models, runs)
    return ModeComparison(mode_i=mode_i, mode_ii=mode_ii, mode_iii=mode_iii)


def eligible_events(events: list[ChargingEvent]) -> list[ChargingEvent]:
    """Events long enough for the mode-comparison protocol."""
    return [ev for ev in events if ev.duration_h >= MIN_EVENT_DURATION_H]


# ---------------------------------------------------------------------------
# thermal-model effect


@dataclass(frozen=True)
class ThermalEffectReport:
    """Mode III solved under a constant-temperature assumption vs a learned model.

    underestimation is the relative amount by which the constant-model
    optimum understates the learned-model optimum. Power deviations between
    the two trajectories are split at the high-power threshold; an interval
    counts as high-power when either trajectory exceeds it in magnitude.
    """

    sol_constant: DdpSolution
    sol_learned: DdpSolution
    constant_repriced: DdpSolution
    underestimation: float
    mean_dev_high_kw: float
    mean_dev_low_kw: float
    n_high: int
    n_low: int


def thermal_effect(s: Scenario, models: BatteryModels) -> ThermalEffectReport:
    models_const = replace(models, thermal=constant_model())
    sol_learned = solve(s, models)
    sol_const = solve(s, models_const)
    repriced = replay(sol_const.p_star, s, models)
    dev = np.abs(sol_const.p_star - sol_learned.p_star)
    high = np.maximum(np.abs(sol_const.p_star), np.abs(sol_learned.p_star)) > HIGH_POWER_SPLIT_KW
    total_learned = sol_learned.cost.total
    under = 1.0 - sol_const.cost.total / total_learned if total_learned != 0 else 0.0
    return ThermalEffectReport(
        sol_constant=sol_const,
        sol_learned=sol_learned,
        constant_repriced=repriced,
        underestimation=under,
        mean_dev_high_kw=float(dev[high].mean()) if high.any() else 0.0,
        mean_dev_low_kw=float(dev[~high].mean()) if (~high).any() else 0.0,
        n_high=int(high.sum()),
        n_low=int((~high).sum()),
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    cost: CostBreakdown
    feasible: bool
    n_discharge_intervals: int
    p_star: np.ndarray


@dataclass(frozen=True)
class SweepResult:
    axis_name: str
    points: list

    @property
    def axis(self) -> np.ndarray:
        return np.array([pt.axis_value for pt in self.points])

    @property
    def totals(self) -> np.ndarray:
        return np.array([pt.cost.total for pt in self.points])


def _check_axis(values, name: str):
    values = np.asarray(values, float)
    if values.size == 0 or np.any(np.diff(values) <= 0):
        raise InvalidParameterError(f"{name} axis must be non-empty and strictly increasing")
    return values


def _sweep(axis_name: str, values, instance) -> SweepResult:
    """Mode III solved at each checked axis value on the (scenario, models)
    pair that instance(value) builds."""
    points = []
    for v in values:
        sol = solve(*instance(float(v)))
        points.append(
            SweepPoint(
                axis_value=float(v),
                cost=sol.cost,
                feasible=sol.feasible,
                n_discharge_intervals=int(np.sum(sol.p_star < 0)),
                p_star=sol.p_star,
            )
        )
    return SweepResult(axis_name=axis_name, points=points)


def sweep_gamma(s: Scenario, models: BatteryModels, gammas) -> SweepResult:
    """Mode III solved per gamma, with sell prices scaled to gamma times buy."""
    return _sweep(
        "gamma",
        _check_axis(gammas, "gamma"),
        lambda g: (replace(s, profile=tariff.scale_gamma(s.profile, g)), models),
    )


def sweep_battery_price(s: Scenario, models: BatteryModels, v_ev_values) -> SweepResult:
    """Mode III re-solved per battery value loss V_EV; the axis is sorted
    ascending (the conventional listing runs from today's price downward)."""
    return _sweep(
        "v_ev",
        _check_axis(np.sort(np.asarray(v_ev_values, float)), "v_ev"),
        lambda v: (s, replace(models, aging=models.aging.with_value(v))),
    )


def fixed_trajectory_aging(cost: CostBreakdown, v_base: float, v_new: float) -> float:
    """Aging cost of a fixed trajectory repriced from v_base to v_new; the
    aging cost is linear in the battery value loss."""
    if v_base <= 0:
        raise InvalidParameterError("v_base must be positive")
    return cost.j_d * v_new / v_base


# ---------------------------------------------------------------------------
# gamma-star threshold


def gamma_star(j_e: float, j_d: float, eta: float) -> float:
    """Sell/buy price ratio above which a charge-discharge round trip pays."""
    if j_e <= 0:
        raise InvalidParameterError("j_e must be positive")
    if not 0.0 < eta <= 1.0:
        raise InvalidParameterError("eta must be in (0, 1]")
    return (j_e + 2.0 * j_d) / (eta * j_e)


def gamma_star_two_interval(
    models: BatteryModels,
    eps_buy: float,
    p_abs: float = HIGH_POWER_SPLIT_KW,
    theta: float = 21.0,
    e: float = 40.0,
    h0: float = 0.975,
    eta: float = 0.997,
    dt_min: float = 5.0,
) -> float:
    """Threshold from charging one interval and discharging the next at
    equal magnitude: energy cost of the buy interval plus twice the
    per-interval aging cost, against the discounted resale."""
    delta_e, _ = electrical.energy_step(models.tables, e, theta, p_abs, dt_min)
    j_cyc, j_cal = aging_cost(models.aging, delta_e, theta, e, h0, dt_min)
    j_e = p_abs * (dt_min / 60.0) * eps_buy
    return gamma_star(j_e, j_cyc + j_cal, eta)


# ---------------------------------------------------------------------------
# report CSVs


MODES_CSV_HEADER = ["event_id", "mode", "j_e_buy", "j_e_sell", "j_d_cyc", "j_d_cal", "total", "total_norm"]
SWEEP_CSV_HEADER = ["axis_value", "j_e_buy", "j_e_sell", "j_d_cyc", "j_d_cal", "total", "total_norm"]
VALIDATION_CSV_HEADER = ["model", "local_rmse", "global_mae"]


def save_modes_csv(rows: list[tuple[str, ModeComparison]], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(MODES_CSV_HEADER)
        for event_id, cmp_ in rows:
            base = cmp_.mode_i.cost.total
            for mode, sol in (("I", cmp_.mode_i), ("II", cmp_.mode_ii), ("III", cmp_.mode_iii)):
                c = sol.cost
                norm = c.total / base if base != 0 else float("nan")
                w.writerow(
                    [event_id, mode]
                    + [repr(v) for v in (c.j_e_buy, c.j_e_sell, c.j_d_cyc, c.j_d_cal, c.total, norm)]
                )


def save_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_CSV_HEADER)
        base = result.points[0].cost.total
        for pt in result.points:
            c = pt.cost
            norm = c.total / base if base != 0 else float("nan")
            w.writerow(
                [repr(pt.axis_value)]
                + [repr(v) for v in (c.j_e_buy, c.j_e_sell, c.j_d_cyc, c.j_d_cal, c.total, norm)]
            )


def save_validation_csv(report: ValidationReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(VALIDATION_CSV_HEADER)
        w.writerow(["electrical_ecm", repr(report.electrical.local_rmse), repr(report.electrical.global_mae)])
        for name in sorted(report.thermal):
            errs = report.thermal[name]
            w.writerow([name, repr(errs.local_rmse), repr(errs.global_mae)])
