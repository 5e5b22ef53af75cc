"""Backward induction, forward integration, and trajectory replay.

Backward induction fills the cost grid over a precomputed transition table
(cells of one time slice are independent; the table and models are
read-only, so results do not depend on evaluation order), on the cells the
initial cell can reach. Scenarios that share the table, the initial cell
and N, such as Modes II and III of one event, are solved in one pass
(induce), which reads the table once for all of them; backward_induction
is its one-scenario case. Forward
integration then walks the continuous dynamics from the initial state,
looking the policy up at the nearest grid cell, which is exactly how the
cost grid was built. Forward integration and replay share one forward
loop, which steps the rollouts of one scenario in lockstep, one row each
(rollouts); a mode comparison steps its replay and two policy rollouts
together. The loop only steps states. Costs along the returned
trajectories come from one pass after it, at the continuous states, never
from grid snapshots: energy from tariff.energy_cost, the function that
prices energy in the backward pass's objective, and aging from aging_cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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
    j_d_steps hold the per-interval energy and aging costs, 0.0 after an
    interval the rollout could not step; cost holds their four parts, each
    summed in interval order. Energy is priced by tariff.energy_cost, as in
    the backward pass's objective, and aging by aging_cost, at the states of
    the trajectory.
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
    cost being finite. Cells outside the region hold the penalty and action
    index 0, the values of a cell without a valid action.
    grids.region records the region.

    This is the one-scenario case of induce, which solves several
    scenarios in one pass.
    """
    induce(models, [(s, grids)], table=table, backend=backend)
    return grids


def induce(
    models: BatteryModels,
    runs,
    table: TransitionTable | None = None,
    backend: str | None = None,
) -> None:
    """Backward induction for several scenarios in one pass over the table.

    runs holds (scenario, grids) pairs, and each grids is filled as
    backward_induction fills it alone, with the same bits: the kernel reads
    each (cell, action) of the table once and keeps one minimum per
    scenario. The scenarios must share the transition table (the models,
    grid axes, bounds and dt its fingerprint covers), the initial cell, N
    and the penalty, and so the region; they may differ in prices,
    e_target, soh0 and include_aging_in_objective (Modes II and III of one
    event, for instance). Anything else raises InvalidParameterError before
    any pass.
    """
    starts = {
        (nearest_index(grids.e_d, s.e0), nearest_index(grids.theta_d, s.theta0), s.grid.n_intervals, s.penalty)
        for s, grids in runs
    }
    if len(starts) > 1:
        raise InvalidParameterError("the scenarios of one backward pass must share the initial cell, N and penalty")
    ((i0, j0, n_steps, _),) = starts
    for s, grids in runs:
        if table is None:
            table = build_transition_table(s, models, grids)
        else:
            table.check(s, models, grids)
    region = reachable_region(table, len(grids.e_d), len(grids.theta_d), i0, j0, n_steps)
    _backward_pass(models, runs, table, region, backend)


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


def _backward_pass(models, runs, table, region, backend):
    """Assemble the step costs of each (scenario, grids) pair of runs and
    run the kernel backend names over table and the boxes of region, once
    for all of them. Each grids gets new cost and action arrays, views of
    one array per batch, and its own copy of region."""
    s, grids = runs[0]
    e_mesh, th_mesh = np.meshgrid(grids.e_d, grids.theta_d, indexing="ij")
    cost = np.empty((len(runs), *grids.cost.shape))
    action = np.empty((len(runs), *grids.action.shape), np.int32)
    je = np.empty((s.grid.n_intervals, len(runs), len(grids.p_d)))
    cal = np.zeros((len(runs), e_mesh.size))
    scale = np.zeros(len(runs))
    for b, (s_b, grids_b) in enumerate(runs):
        cost[b, -1] = grids_b.cost[-1]
        eps_buy, eps_sell = tariff.interval_prices(s_b.profile, s_b.grid)
        j_buy, j_sell = tariff.energy_cost(grids.p_d, s_b.grid.dt_h, eps_buy[:, None], eps_sell[:, None])
        je[:, b] = j_buy + j_sell
        if s_b.include_aging_in_objective:
            scale[b] = models.aging.cost_per_fade
            cal_fade = calendar_fade(models.aging, th_mesh.reshape(-1), e_mesh.reshape(-1), s_b.soh0, s_b.grid.dt_min)
            cal[b] = models.aging.cost_per_fade * cal_fade
    backend_mod.backward_pass(
        cost,
        action,
        table.corner00,
        table.frac_e,
        table.frac_theta,
        table.cyc_fade,
        je=je,
        cal=cal,
        scale=scale,
        penalty=s.penalty,
        region=region,
        backend=backend,
    )
    for b, (_, grids_b) in enumerate(runs):
        grids_b.cost, grids_b.action, grids_b.region = cost[b], action[b], region.copy()


def _simulate(models: BatteryModels, runs) -> list:
    """The forward loop: steps the rollouts of runs in lockstep, one row each.

    runs holds (scenario, row) pairs. A row is a float power array (a
    replay) or filled DdpGrids (a policy rollout). The scenarios may differ
    in include_aging_in_objective alone, which the loop does not read, and
    the policy rows share their grid axes. Each interval makes one
    thermal.step call over the rows still running, and the loop records each
    row's power, energy change and states. A row whose step fails stops
    there with a note; that step's calls are then made row by row to find
    the rows that fail. A policy row that reads a cell of a slice n < N
    outside its grids.region stops and gives None.

    After the loop, one pass costs the completed intervals of every row:
    one interval_prices, one tariff.energy_cost and one aging_cost call, so
    energy is priced as the backward pass prices it. Each cost is 0.0 past
    a row's completed intervals. The calls are elementwise and
    batch-invariant, so a row gets the bits it gets alone, and each total is
    a left fold from 0.0 in interval order, as a loop over the intervals
    adds them. aging_cost cannot fail: the scenario has checked soh0 and dt.
    """
    s = runs[0][0]
    n_steps = s.grid.n_intervals
    rows = [row for _, row in runs]
    is_policy = [isinstance(row, DdpGrids) for row in rows]
    # as lists, which nearest_index searches faster than arrays
    e_axis, theta_axis = next(
        ((row.e_d.tolist(), row.theta_d.tolist()) for row, pol in zip(rows, is_policy) if pol), (None, None)
    )
    # interval n of a row starts from (e_traj[n], theta_traj[n]), draws p_star[n] and moves delta_e[n]
    p_star = np.zeros((len(rows), n_steps))
    delta_e = np.zeros((len(rows), n_steps))
    e_traj = np.full((len(rows), n_steps + 1), s.e0)
    theta_traj = np.full((len(rows), n_steps + 1), s.theta0)
    completed = [0] * len(rows)  # intervals each row has stepped
    feasible = [True] * len(rows)
    notes: list[list[str]] = [[] for _ in rows]
    left = [False] * len(rows)
    e, th = [s.e0] * len(rows), [s.theta0] * len(rows)

    def stop(k, n, p, exc):
        notes[k].append(f"interval {n}: cannot simulate action {p:.3f} kW ({exc})")
        feasible[k] = False
        e_traj[k, n + 1 :] = e[k]
        theta_traj[k, n + 1 :] = th[k]

    running = list(range(len(rows)))
    for n in range(n_steps):
        p = {}
        stepping = []
        for k in running:
            if is_policy[k]:
                grids = rows[k]
                i, j = nearest_index(e_axis, e[k]), nearest_index(theta_axis, th[k])
                top, bottom, lft, rgt = grids.region[n]
                if not (top <= i < bottom and lft <= j < rgt):
                    left[k] = True
                    continue
                if grids.cost[n, i, j] >= s.penalty:
                    feasible[k] = False
                p[k] = float(grids.p_d[grids.action[n, i, j]])
            else:
                p[k] = float(rows[k][n])
                if not s.p_lo - 1e-12 <= p[k] <= s.p_hi + 1e-12:
                    notes[k].append(f"interval {n}: power {p[k]:.3f} kW outside [{s.p_lo}, {s.p_hi}]")
            try:
                BatteryState(e[k], th[k])  # e >= 0 and theta in the physical range, else InvalidParameterError
            except InvalidParameterError as exc:
                stop(k, n, p[k], exc)
                continue
            # a replay clamps to the deliverable floor, which is negative: only a discharge can be clamped
            if not is_policy[k] and p[k] < 0:
                p_floor = electrical.max_discharge_power(*electrical.lookup_arrays(models.tables, e[k], th[k]))
                if p[k] < p_floor:
                    notes[k].append(f"interval {n}: power {p[k]:.3f} kW clamped to deliverable {p_floor:.3f}")
                    p[k] = float(p_floor)
            stepping.append(k)
        if not stepping:
            break
        try:
            steps = _model_steps(models, s, *(np.array([x[k] for k in stepping]) for x in (e, th, p)))
        except (InfeasiblePowerError, InvalidParameterError):
            steps = []
            for k in stepping:
                try:
                    steps.extend(_model_steps(models, s, e[k], th[k], p[k]))
                except (InfeasiblePowerError, InvalidParameterError) as exc:
                    steps.append(exc)
        running = []
        for k, step in zip(stepping, steps):
            if isinstance(step, Exception):
                stop(k, n, p[k], step)
                continue
            d_e, d_theta = step
            p_star[k, n], delta_e[k, n] = p[k], d_e
            e[k] += d_e
            th[k] += d_theta
            e_traj[k, n + 1] = e[k]
            theta_traj[k, n + 1] = th[k]
            completed[k] = n + 1
            running.append(k)
    done = np.arange(n_steps) < np.array(completed)[:, None]
    prices = (np.broadcast_to(eps, done.shape)[done] for eps in tariff.interval_prices(s.profile, s.grid))
    costs = np.zeros((4, *done.shape))  # buy, sell, cyc, cal
    costs[:2, done] = tariff.energy_cost(p_star[done], s.grid.dt_h, *prices)
    costs[2:, done] = aging_cost(
        models.aging, delta_e[done], theta_traj[:, :-1][done], e_traj[:, :-1][done], s.soh0, s.grid.dt_min
    )
    j_e_steps, j_d_steps = costs[0] + costs[1], costs[2] + costs[3]
    totals = np.add.accumulate(np.concatenate([np.zeros((4, len(rows), 1)), costs], axis=2), axis=2)[..., -1]
    sols = []
    for k, row in enumerate(rows):
        if left[k]:
            sols.append(None)
            continue
        if is_policy[k]:
            i, j = nearest_index(e_axis, e[k]), nearest_index(theta_axis, th[k])
            if row.cost[n_steps, i, j] >= s.penalty:
                feasible[k] = False
            if not np.isclose(e[k], s.e_target, atol=0.5 * s.e_step + 1e-12):
                notes[k].append(
                    f"terminal energy {e[k]:.3f} kWh misses target {s.e_target:.3f} by more than half a grid step"
                )
        else:
            if np.any(e_traj[k] < s.e_lo - 1e-9) or np.any(e_traj[k] > s.e_hi + 1e-9):
                notes[k].append("energy trajectory leaves [e_lo, e_hi]")
            if np.any(theta_traj[k] < s.theta_lo - 1e-9) or np.any(theta_traj[k] > s.theta_hi + 1e-9):
                notes[k].append("temperature trajectory leaves [theta_lo, theta_hi]")
        sols.append(
            DdpSolution(
                p_star=p_star[k],
                e_traj=e_traj[k],
                theta_traj=theta_traj[k],
                cost=CostBreakdown(*totals[:, k].tolist()),
                feasible=feasible[k],
                j_e_steps=j_e_steps[k],
                j_d_steps=j_d_steps[k],
                notes=tuple(notes[k]),
            )
        )
    return sols


def _model_steps(models: BatteryModels, s: Scenario, e, th, p) -> list:
    """(delta_e, d_theta) of one interval for each row of the states e, th
    and p (1-D arrays, or floats for one row), from one thermal.step call."""
    delta_e, _, d_theta = thermal.step(models.tables, models.thermal, e, th, p, s.grid.dt_min)
    return list(zip(*(np.atleast_1d(v).tolist() for v in (delta_e, d_theta))))


def checked_powers(powers, s: Scenario) -> np.ndarray:
    """powers as a float array, after checking that it has one finite power
    per interval of s; raises InvalidParameterError otherwise."""
    powers = np.asarray(powers, float)
    if len(powers) != s.grid.n_intervals:
        raise InvalidParameterError(
            f"power trajectory has length {len(powers)}, scenario has N={s.grid.n_intervals}"
        )
    if not np.all(np.isfinite(powers)):
        raise InvalidParameterError("power trajectory must be finite")
    return powers


def rollouts(models: BatteryModels, runs) -> list[DdpSolution]:
    """Simulate several rollouts of one scenario in one forward loop.

    runs holds (scenario, row) pairs, and the result has one DdpSolution
    per pair, in order. A row is a power trajectory, which is replayed as
    replay describes, or DdpGrids filled by backward_induction, whose
    policy is rolled out as forward_integration describes. The scenarios
    may differ in include_aging_in_objective alone, and grids rows must
    share their axes (grids of one scenario do). Every row gets the bits
    it gets in a loop of its own, notes and feasible included. Rows are
    checked before any is stepped: a power trajectory of the wrong length
    or with a non-finite power, grids that backward_induction has not
    filled, or grids with other axes raise InvalidParameterError.

    Every row is costed after the loop, in one tariff.energy_cost and one
    aging_cost call for all rows (see DdpSolution).

    A policy row whose continuous state leaves the region backward
    induction computed (for instance after an invalid action out of a
    penalized cell) gets that mode's pass rerun over every cell, on the
    table build_transition_table returns for its inputs (the cached one)
    and the active kernel, which give the bits of the first pass's table
    and kernel. That sets its grids.region to whole-grid boxes, and the
    row is rolled out again alone. Slice N is the boundary condition and is
    always whole. The check sits where the grid is read, in _simulate: a
    change to what the rollout reads must extend it to every cell the new
    read uses.
    """
    checked = []
    for s, row in runs:
        if isinstance(row, DdpGrids):
            if row.region is None:
                raise InvalidParameterError("forward_integration needs grids filled by backward_induction")
        else:
            row = checked_powers(row, s)
        checked.append((s, row))
    grids_rows = [row for _, row in checked if isinstance(row, DdpGrids)]
    if any(
        not (np.array_equal(g.e_d, grids_rows[0].e_d) and np.array_equal(g.theta_d, grids_rows[0].theta_d))
        for g in grids_rows
    ):
        raise InvalidParameterError("the grids of one forward loop must share their axes")
    sols = _simulate(models, checked)
    for k, ((s, grids), sol) in enumerate(zip(checked, sols)):
        if sol is None:
            ni, nj = len(grids.e_d), len(grids.theta_d)
            whole = np.tile(np.array([0, ni, 0, nj], np.int64), (s.grid.n_intervals, 1))
            _backward_pass(models, [(s, grids)], build_transition_table(s, models, grids), whole, None)
            sols[k] = _simulate(models, [(s, grids)])[0]
    return sols


def forward_integration(s: Scenario, grids: DdpGrids, models: BatteryModels) -> DdpSolution:
    """Extract the optimal trajectory after backward induction.

    Starts at the initial-state cell (the only cell whose slice-0 cost is
    meaningful), applies continuous transitions, and takes each next action
    from the action grid at the nearest cell of the continuous state. A
    state that leaves the computed region reruns the pass over every cell
    (see rollouts). Grids that backward_induction has not filled raise
    InvalidParameterError.
    """
    return rollouts(models, [(s, grids)])[0]


def replay(powers, s: Scenario, models: BatteryModels) -> DdpSolution:
    """Simulate a given power trajectory and account its costs.

    No optimization; power-bound violations are reported in notes and
    undeliverable discharge requests are clamped to the physical limit.
    A trajectory of the wrong length or with a non-finite power raises
    InvalidParameterError.
    """
    return rollouts(models, [(s, powers)])[0]


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
