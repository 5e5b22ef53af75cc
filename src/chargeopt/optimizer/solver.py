"""Backward induction, forward integration, and trajectory replay.

Backward induction fills the cost grid over a precomputed transition table
(cells of one time slice are independent; the table and models are
read-only, so results do not depend on evaluation order), on the cells the
initial cell can reach. Forward
integration then walks the continuous dynamics from the initial state,
looking the policy up at the nearest grid cell, which is exactly how the
cost grid was built. Costs along the returned trajectory are recomputed
from the models at the continuous states, never from grid snapshots.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .. import electrical, tariff, thermal
from ..aging import aging_cost, calendar_fade
from ..core import BatteryState, CostBreakdown
from ..errors import InfeasiblePowerError, InvalidParameterError
from . import backend as backend_mod
from .scenario import BatteryModels, DdpGrids, Scenario, build_grids, nearest_index
from .transitions import TransitionTable, build_transition_table


@dataclass(frozen=True)
class DdpSolution:
    """Optimal power trajectory with simulated states and a cost breakdown.

    Trajectories satisfy the continuous transition functions exactly (they
    are forward-simulated, not grid-snapped). feasible is False when the
    forward pass visits a cell carrying the penalty cost. j_e_steps and
    j_d_steps hold the per-interval energy and aging costs.
    """

    p_star: np.ndarray
    e_traj: np.ndarray
    theta_traj: np.ndarray
    cost: CostBreakdown
    feasible: bool
    j_e_steps: np.ndarray
    j_d_steps: np.ndarray
    notes: tuple = ()


def backward_induction(
    s: Scenario,
    grids: DdpGrids,
    models: BatteryModels,
    table: TransitionTable | None = None,
    backend: str | None = None,
) -> DdpGrids:
    """Fill the cost and action grids from slice N-1 down to slice 0.

    For every cell and action the cached cost is the transition cost plus
    the successor cost one slice later, read by bilinear interpolation of
    the next cost slice at the continuous successor state (nearest-cell
    reads would let sub-cell sales move no energy on the grid, a
    quantization exploit the evaluation protocol rules out); invalid
    actions cache the penalty. The minimum over actions (lowest index on
    ties) lands in the grids. With include_aging_in_objective False the
    aging term is dropped from the transition cost (the models still drive
    the dynamics). A table passed in must be the one build_transition_table
    gives for these inputs, else InvalidParameterError is raised.

    Only the cells the initial cell can reach are computed: the region, one
    box of cells per slice (reachable_region), grown forward from the
    initial cell through the corners that computed cells read with a
    nonzero weight. A region cell therefore reads only region cells of the
    next slice, or slice N, and gets the same bits as in a pass over every
    cell: a corner left out carries a zero weight and adds 0 * c = 0, every
    cost being finite. Cells outside the region hold the penalty and the
    action p_d[0], the values of a cell without a valid action.
    grids.region records the region.
    """
    if table is None:
        table = build_transition_table(s, models, grids)
    else:
        table.check(s, models, grids)
    i0 = nearest_index(grids.e_d, s.e0)
    j0 = nearest_index(grids.theta_d, s.theta0)
    region = reachable_region(table, len(grids.e_d), len(grids.theta_d), i0, j0, s.grid.n_intervals)
    _backward_pass(s, grids, models, table, region, backend)
    return grids


def reachable_region(table: TransitionTable, ni: int, nj: int, i0: int, j0: int, n_steps: int) -> np.ndarray:
    """The cells backward induction computes, as one box per slice.

    Returns an (N, 4) int64 array of half-open boxes: slice n computes the
    cells (i, j) with region[n, 0] <= i < region[n, 1] and region[n, 2] <=
    j < region[n, 3]. Slice 0 is the initial cell (i0, j0). Slice n + 1 is
    the hull of the successor boxes (TransitionTable.succ_box) of slice n's
    cells. That may take in more cells than the reachable set, never fewer,
    so every corner a region cell reads with a nonzero weight lies in the
    next slice's box. When no cell of a box has a valid transition, the
    next box would be empty and forward integration would leave the region
    there, so every box is then the whole grid: one pass over every cell
    instead of two. Once a box equals the one before, every later box
    equals it too.
    """
    region = np.zeros((n_steps, 4), dtype=np.int64)
    region[0] = (i0, i0 + 1, j0, j0 + 1)
    succ_box = table.succ_box.reshape(ni, nj, 4)
    for n in range(n_steps - 1):
        boxes = succ_box[region[n, 0] : region[n, 1], region[n, 2] : region[n, 3]]
        # region boxes are never empty, so the reductions need no initial value; cells
        # without a valid transition have the empty box (ni, 0, nj, 0), which the hull ignores
        top, bottom = boxes[..., 0].min(), boxes[..., 1].max()
        if top >= bottom:
            region[:] = (0, ni, 0, nj)
            break
        region[n + 1] = (top, bottom, boxes[..., 2].min(), boxes[..., 3].max())
        if np.array_equal(region[n + 1], region[n]):
            region[n + 2 :] = region[n + 1]
            break
    return region


def _backward_pass(s, grids, models, table, region, backend):
    """Assemble the step costs and run the kernel backend names over table
    and the boxes of region; records region on the grids."""
    eps_buy, eps_sell = tariff.interval_prices(s.profile, s.grid)
    buy_kwh = np.maximum(grids.p_d, 0.0) * s.grid.dt_h
    sell_kwh = np.minimum(grids.p_d, 0.0) * s.grid.dt_h
    je = buy_kwh[None, :] * eps_buy[:, None] + sell_kwh[None, :] * eps_sell[:, None]
    if s.include_aging_in_objective:
        scale = models.aging.cost_per_fade
        e_mesh, th_mesh = np.meshgrid(grids.e_d, grids.theta_d, indexing="ij")
        cal_fade = calendar_fade(models.aging, th_mesh.reshape(-1), e_mesh.reshape(-1), s.soh0, s.grid.dt_min)
        jd = scale * table.cyc_fade + (scale * cal_fade)[:, None]
    else:
        jd = np.zeros_like(table.cyc_fade)
    backend_mod.backward_pass(
        grids.cost,
        grids.action,
        table.valid,
        table.corner00,
        table.frac_e,
        table.frac_theta,
        jd,
        je,
        grids.p_d,
        s.penalty,
        region,
        backend,
    )
    grids.region = region


class _LeftRegion(Exception):
    """Forward integration reached a cell outside the computed region."""


def _simulate(s: Scenario, models: BatteryModels, powers, grids: DdpGrids | None):
    """Shared forward loop: a policy rollout on grids, or a replay of powers
    when grids is None. A rollout raises _LeftRegion when it reads a cell
    of a slice n < N outside grids.region."""
    n_steps = s.grid.n_intervals
    eps_buy, eps_sell = tariff.interval_prices(s.profile, s.grid)
    dt_h = s.grid.dt_h
    p_star = np.zeros(n_steps)
    e_traj = np.empty(n_steps + 1)
    theta_traj = np.empty(n_steps + 1)
    j_e_steps = np.zeros(n_steps)
    j_d_steps = np.zeros(n_steps)
    e_traj[0], theta_traj[0] = s.e0, s.theta0
    totals = np.zeros(4)  # buy, sell, cyc, cal
    feasible = True
    notes: list[str] = []
    e, th = s.e0, s.theta0
    for n in range(n_steps):
        if grids is not None:
            i = nearest_index(grids.e_d, e)
            j = nearest_index(grids.theta_d, th)
            top, bottom, left, right = grids.region[n]
            if not (top <= i < bottom and left <= j < right):
                raise _LeftRegion
            if grids.cost[n, i, j] >= s.penalty:
                feasible = False
            p = float(grids.action[n, i, j])
        else:
            p = float(powers[n])
            if not s.p_lo - 1e-12 <= p <= s.p_hi + 1e-12:
                notes.append(f"interval {n}: power {p:.3f} kW outside [{s.p_lo}, {s.p_hi}]")
        try:
            BatteryState(e, th)  # e >= 0 and theta in the physical range, else InvalidParameterError
            # a replay clamps to the deliverable floor, which is negative: only a discharge can be clamped
            if grids is None and p < 0:
                p_floor = electrical.max_discharge_power(*electrical.lookup_arrays(models.tables, e, th))
                if p < p_floor:
                    notes.append(f"interval {n}: power {p:.3f} kW clamped to deliverable {p_floor:.3f}")
                    p = float(p_floor)
            delta_e, _, d_theta = thermal.step(models.tables, models.thermal, e, th, p, s.grid.dt_min)
            j_cyc, j_cal = aging_cost(models.aging, delta_e, th, e, s.soh0, s.grid.dt_min)
        except (InfeasiblePowerError, InvalidParameterError) as exc:
            notes.append(f"interval {n}: cannot simulate action {p:.3f} kW ({exc})")
            feasible = False
            e_traj[n + 1 :] = e
            theta_traj[n + 1 :] = th
            break
        j_buy = max(p, 0.0) * dt_h * eps_buy[n]
        j_sell = min(p, 0.0) * dt_h * eps_sell[n]
        p_star[n] = p
        totals += (j_buy, j_sell, j_cyc, j_cal)
        j_e_steps[n] = j_buy + j_sell
        j_d_steps[n] = j_cyc + j_cal
        e += delta_e
        th += d_theta
        e_traj[n + 1] = e
        theta_traj[n + 1] = th
    if grids is not None:
        i = nearest_index(grids.e_d, e)
        j = nearest_index(grids.theta_d, th)
        if grids.cost[n_steps, i, j] >= s.penalty:
            feasible = False
        if not np.isclose(e, s.e_target, atol=0.5 * s.e_step + 1e-12):
            notes.append(
                f"terminal energy {e:.3f} kWh misses target {s.e_target:.3f} by more than half a grid step"
            )
    breakdown = CostBreakdown(
        j_e_buy=float(totals[0]),
        j_e_sell=float(totals[1]),
        j_d_cyc=float(totals[2]),
        j_d_cal=float(totals[3]),
    )
    return DdpSolution(
        p_star=p_star,
        e_traj=e_traj,
        theta_traj=theta_traj,
        cost=breakdown,
        feasible=feasible,
        j_e_steps=j_e_steps,
        j_d_steps=j_d_steps,
        notes=tuple(notes),
    )


def forward_integration(s: Scenario, grids: DdpGrids, models: BatteryModels) -> DdpSolution:
    """Extract the optimal trajectory after backward induction.

    Starts at the initial-state cell (the only cell whose slice-0 cost is
    meaningful), applies continuous transitions, and takes each next action
    from the action grid at the nearest cell of the continuous state.

    Each cell read at a slice n < N must lie in the region backward
    induction computed. The continuous state can leave it, for instance
    after an invalid action out of a penalized cell; the pass is then rerun
    over every cell, on the table build_transition_table returns for these
    inputs (the cached one) and the active kernel, which give the bits of
    the first pass's table and kernel. That sets grids.region to whole-grid
    boxes, and the trajectory is simulated again. Slice N is the boundary
    condition and is always whole. The check sits where the grid is read,
    in _simulate: a change to what forward integration reads must extend it
    to every cell the new read uses.
    Grids that backward_induction has not filled raise
    InvalidParameterError.
    """
    if grids.region is None:
        raise InvalidParameterError("forward_integration needs grids filled by backward_induction")
    try:
        return _simulate(s, models, None, grids)
    except _LeftRegion:
        ni, nj = len(grids.e_d), len(grids.theta_d)
        whole = np.tile(np.array([0, ni, 0, nj], np.int64), (s.grid.n_intervals, 1))
        _backward_pass(s, grids, models, build_transition_table(s, models, grids), whole, None)
        return _simulate(s, models, None, grids)


def replay(powers, s: Scenario, models: BatteryModels) -> DdpSolution:
    """Simulate a given power trajectory and account its costs.

    No optimization; power-bound violations are reported in notes and
    undeliverable discharge requests are clamped to the physical limit.
    """
    powers = np.asarray(powers, float)
    if len(powers) != s.grid.n_intervals:
        raise InvalidParameterError(
            f"power trajectory has length {len(powers)}, scenario has N={s.grid.n_intervals}"
        )
    sol = _simulate(s, models, powers, None)
    notes = list(sol.notes)
    if np.any(sol.e_traj < s.e_lo - 1e-9) or np.any(sol.e_traj > s.e_hi + 1e-9):
        notes.append("energy trajectory leaves [e_lo, e_hi]")
    if np.any(sol.theta_traj < s.theta_lo - 1e-9) or np.any(sol.theta_traj > s.theta_hi + 1e-9):
        notes.append("temperature trajectory leaves [theta_lo, theta_hi]")
    return replace(sol, notes=tuple(notes))


def solve(
    s: Scenario,
    models: BatteryModels,
    table: TransitionTable | None = None,
) -> DdpSolution:
    """Build grids, run backward induction, and integrate forward."""
    grids = build_grids(s)
    backward_induction(s, grids, models, table=table)
    return forward_integration(s, grids, models)


SOLUTION_CSV_HEADER = ["n", "t_s", "p_kw", "e_kwh", "theta_c", "j_e_eur", "j_d_eur"]


def save_solution_csv(sol: DdpSolution, s: Scenario, path) -> None:
    """One row per state instant; power and costs belong to the interval
    starting at that instant (zero on the final row)."""
    n_steps = s.grid.n_intervals
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SOLUTION_CSV_HEADER)
        for n in range(n_steps + 1):
            last = n == n_steps
            w.writerow(
                [
                    n,
                    repr(n * s.grid.dt_min * 60.0),
                    repr(0.0 if last else float(sol.p_star[n])),
                    repr(float(sol.e_traj[n])),
                    repr(float(sol.theta_traj[n])),
                    repr(0.0 if last else float(sol.j_e_steps[n])),
                    repr(0.0 if last else float(sol.j_d_steps[n])),
                ]
            )
