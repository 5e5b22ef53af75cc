"""Problem instances and state/action discretization for the DDP solver."""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..aging import AgingParams
from ..core import TimeGrid, check_keys
from ..electrical import EcmTables
from ..errors import InvalidParameterError
from ..tariff import PriceProfile
from ..thermal import ThermalModel


@dataclass(frozen=True)
class BatteryModels:
    """The coupled battery models a solve runs against."""

    tables: EcmTables
    thermal: ThermalModel
    aging: AgingParams


@dataclass(frozen=True)
class Scenario:
    """One optimization problem instance.

    Energy must move from e0 to e_target over the event's time grid while
    power, energy, and temperature stay inside their bounds. Cells that
    violate a constraint receive the penalty cost. With
    include_aging_in_objective False the solver minimizes energy cost only
    (aging is still accounted along the returned trajectory).
    """

    grid: TimeGrid
    e0: float
    e_target: float
    theta0: float
    profile: PriceProfile
    e_lo: float = 8.0
    e_hi: float = 80.0
    theta_lo: float = -25.0
    theta_hi: float = 60.0
    p_lo: float = -50.0
    p_hi: float = 50.0
    e_step: float = 0.8
    theta_step: float = 1.0
    p_step: float = 1.0
    penalty: float = 1000.0
    soh0: float = 1.0
    include_aging_in_objective: bool = True

    def __post_init__(self):
        if not 0 < self.penalty < np.inf:  # finite: a zero weight times a cost must be zero
            raise InvalidParameterError("penalty must be positive and finite")
        bad = [name for name in _SCENARIO_SCALARS if not np.isfinite(getattr(self, name))]
        if bad:
            raise InvalidParameterError(f"scenario values must be finite: {', '.join(bad)}")
        if not (self.e_lo <= self.e0 <= self.e_hi and self.e_lo <= self.e_target <= self.e_hi):
            raise InvalidParameterError("e0 and e_target must lie within [e_lo, e_hi]")
        if not self.theta_lo <= self.theta0 <= self.theta_hi:
            raise InvalidParameterError("theta0 must lie within [theta_lo, theta_hi]")
        if self.p_lo > self.p_hi:
            raise InvalidParameterError("p_lo must not exceed p_hi")
        if min(self.e_step, self.theta_step, self.p_step) <= 0:
            raise InvalidParameterError("grid steps must be positive")
        if not 0.0 < self.soh0 <= 1.0:
            raise InvalidParameterError("soh0 must be in (0, 1]")


def make_range(start: float, stop: float, step: float) -> np.ndarray:
    """Uniform grid from start, including stop when step divides the span."""
    if stop < start:
        raise InvalidParameterError(f"empty range [{start}, {stop}]")
    num = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(num)


def nearest_index(grid, x: float) -> int:
    """Index of the value of an ascending grid nearest to x, ties to the
    lower index; the grid is an array or a list (a list of floats is the
    faster one to search)."""
    n = len(grid)
    # a NaN sorts last, as in np.searchsorted
    hi = n - 1 if x != x else min(bisect_left(grid, x), n - 1)
    lo = max(hi - 1, 0)
    return lo if abs(x - grid[lo]) <= abs(grid[hi] - x) else hi


@dataclass
class DdpGrids:
    """Discretized state/action axes plus the cost and action grids.

    cost has one slice per state instant (N+1 of them); action holds, for
    each time interval and state cell, the int32 index into p_d of the
    optimal power (p_d[action[n, i, j]] is the power in kW).

    backward_induction computes only the cells the initial cell can reach
    and records them in region, an (N, 4) int64 array of half-open boxes:
    at slice n < N it computed the cells (i, j) with region[n, 0] <= i <
    region[n, 1] and region[n, 2] <= j < region[n, 3]. The other cells of
    slices 0 to N-1 hold the penalty and action index 0. After a pass
    over every cell, each box is the whole grid; region is None only
    before backward induction. Backward induction replaces cost and action
    with the arrays it fills; the grids solved in one pass (solver.induce)
    hold views of one array each. The grids hold no transition table: a
    solve takes it from build_transition_table, whose cache keeps one.
    """

    e_d: np.ndarray
    theta_d: np.ndarray
    p_d: np.ndarray
    cost: np.ndarray
    action: np.ndarray
    region: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int, int]:
        return len(self.e_d), len(self.theta_d), len(self.p_d)


def build_grids(s: Scenario) -> DdpGrids:
    """Discretize states and actions and initialize the boundary cost slices.

    Slice N is 0 along the target-energy row and penalty elsewhere; slice 0
    is 0 only at the initial-state cell. Interior slices are filled by
    backward induction, which writes slices 0 to N-1 anew, with slice N
    copied from these grids, and computes only the cells the initial cell
    can reach (see DdpGrids).
    """
    e_d = make_range(s.e_lo, s.e_hi, s.e_step)
    theta_d = make_range(s.theta_lo, s.theta_hi, s.theta_step)
    p_d = make_range(s.p_lo, s.p_hi, s.p_step)
    n = s.grid.n_intervals
    cost = np.zeros((n + 1, len(e_d), len(theta_d)))
    cost[0, :, :] = s.penalty
    cost[n, :, :] = s.penalty
    cost[0, nearest_index(e_d, s.e0), nearest_index(theta_d, s.theta0)] = 0.0
    cost[n, nearest_index(e_d, s.e_target), :] = 0.0
    action = np.zeros((n, len(e_d), len(theta_d)), np.int32)
    return DdpGrids(e_d=e_d, theta_d=theta_d, p_d=p_d, cost=cost, action=action)


_SCENARIO_SCALARS = (
    "e0",
    "e_target",
    "theta0",
    "e_lo",
    "e_hi",
    "theta_lo",
    "theta_hi",
    "p_lo",
    "p_hi",
    "e_step",
    "theta_step",
    "p_step",
    "penalty",
    "soh0",
)


def scenario_to_dict(s: Scenario) -> dict:
    d = {k: getattr(s, k) for k in _SCENARIO_SCALARS}
    d["include_aging_in_objective"] = s.include_aging_in_objective
    d["grid"] = {"t0": s.grid.t0, "n_intervals": s.grid.n_intervals, "dt_min": s.grid.dt_min}
    d["profile"] = {
        "eps_buy": [float(v) for v in s.profile.eps_buy],
        "eps_sell": [float(v) for v in s.profile.eps_sell],
        "label": s.profile.label,
    }
    return d


def scenario_from_dict(d: dict) -> Scenario:
    """The scenario a dict of scenario_to_dict's layout describes; a key
    outside that layout, or a malformed value, raises InvalidParameterError."""
    try:
        check_keys(d, (*_SCENARIO_SCALARS, "include_aging_in_objective", "grid", "profile"), "scenario")
        check_keys(d["profile"], ("eps_buy", "eps_sell", "label"), "scenario profile")
        grid = TimeGrid(**d["grid"])
        profile = PriceProfile(
            np.asarray(d["profile"]["eps_buy"], float),
            np.asarray(d["profile"]["eps_sell"], float),
            d["profile"].get("label", "custom"),
        )
        kwargs = {k: float(d[k]) for k in _SCENARIO_SCALARS if k in d}
        include_aging = d.get("include_aging_in_objective", True)
        if not isinstance(include_aging, bool):
            raise InvalidParameterError(
                f"include_aging_in_objective must be true or false, got {include_aging!r}"
            )
        return Scenario(grid=grid, profile=profile, include_aging_in_objective=include_aging, **kwargs)
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"malformed scenario: {exc}") from exc


def save_scenario_json(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)
        fh.write("\n")


def load_scenario_json(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
