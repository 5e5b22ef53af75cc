"""The three benchmark workloads: set-up, one op, and the check of its output.

Every workload draws its events from one seeded synthetic corpus (the
"pool", ``thermal.generate_synthetic_events``). Work per op grows with an
event's horizon, and the generator draws horizons uniformly from 2 to 12 h,
so a few randomly drawn events would make the work per run depend on the
seed. Each workload therefore cuts its events to a fixed horizon: it takes
the first pool events that last at least that long and keeps their first
N intervals. The seed still decides everything else about them (endpoints,
temperatures, start time and tariff, state of health, charger power, plant
noise) and the MLP's initial weights.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from chargeopt import core, electrical, evaluation, learning, optimizer, tariff, thermal
from chargeopt.aging import default_params
from chargeopt.optimizer import HAVE_COMPILED, BatteryModels, active_backend, build_grids
from tracer import Target

# Calls into chargeopt go through module attributes (optimizer.solve, not a
# name imported from it) so that the tracer's patches see them.

# Acceptance criterion 7 (tests/test_acceptance.py): Mode II/III ordering
# holds up to 1% of the Mode I total, after crediting the landing difference.
MODE_ORDER_TOL_FRACTION = 0.01
SCREEN_THRESHOLD = 0.1
TERMINAL_MISS_NOTE = "terminal energy"


@dataclass(frozen=True)
class Size:
    """Input sizes. Each workload's events are (horizon in intervals, count)."""

    pool_events: int
    train_epochs: int  # MLP epochs in the optimiser workloads' set-up
    fit_epochs: int  # MLP epochs in one fit_thermal op
    solve_events: tuple
    fleet_events: tuple
    fit_events: tuple
    steps: tuple = ()  # Scenario grid-step overrides; () is full resolution


SIZES = {
    "full": Size(
        pool_events=60,
        train_epochs=150,
        fit_epochs=100,
        solve_events=(96, 4),
        fleet_events=(48, 4),
        fit_events=(72, 12),
    ),
    # smoke-test size: a coarse grid, 2 events and a few epochs
    "tiny": Size(
        pool_events=2,
        train_epochs=30,
        fit_epochs=3,
        solve_events=(24, 1),
        fleet_events=(24, 2),
        fit_events=(24, 2),
        steps=(("e_step", 1.6), ("theta_step", 2.0), ("p_step", 2.0)),
    ),
}


def cut_events(pool, horizon, count):
    """The first `count` pool events lasting at least `horizon` intervals,
    each cut to its first `horizon` intervals."""
    long_enough = [ev for ev in pool if ev.grid.n_intervals >= horizon][:count]
    if len(long_enough) < count:
        raise ValueError(f"pool has {len(long_enough)} events of >= {horizon} intervals, need {count}")
    n = horizon
    return [
        replace(ev, grid=replace(ev.grid, n_intervals=n), p=ev.p[:n], e=ev.e[: n + 1],
                theta=ev.theta[: n + 1], u_bat=ev.u_bat[: n + 1])
        for ev in long_enough
    ]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_note(args, kwargs, result):
    m, k = _arg(args, kwargs, 2, "valid").shape
    return {"m": m, "k": k, "n": _arg(args, kwargs, 7, "je").shape[0]}


def _table_note(args, kwargs, table):
    nbytes = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
    return {"valid_share": float(np.mean(table.valid)), "table_mb": nbytes / 1e6}


def _rows_note(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


TARGETS = [
    Target("chargeopt.thermal", "generate_synthetic_events"),
    Target("chargeopt.core", "save_event_csv"),
    Target("chargeopt.core", "load_event_csv"),
    Target("chargeopt.tariff", "interval_prices"),
    Target("chargeopt.aging", "aging_cost"),
    Target("chargeopt.aging", "calendar_fade"),
    Target("chargeopt.electrical", "lookup_arrays"),
    Target("chargeopt.thermal", "predict_batch", _rows_note),
    Target("chargeopt.learning", "build_dataset"),
    Target("chargeopt.learning", "fit_linear"),
    Target("chargeopt.learning", "fit_mlp"),
    Target("chargeopt.learning", "mlp_gradients"),
    Target("chargeopt.optimizer.transitions", "build_transition_table", _table_note),
    Target("chargeopt.optimizer.backend", "backward_pass", _kernel_note),
    Target("chargeopt.optimizer.solver", "backward_induction"),
    Target("chargeopt.optimizer.solver", "forward_integration"),
    Target("chargeopt.optimizer.solver", "replay"),
    Target("chargeopt.optimizer.solver", "solve"),
    Target("chargeopt.evaluation", "compare_modes"),
    Target("chargeopt.evaluation", "validate_models"),
    Target("chargeopt.evaluation", "save_modes_csv"),
]


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, float))) for v in values)


def _solution_problems(label, s, sol):
    """A solution must be finite, keep power within its bounds, and keep the
    states within theirs up to half a grid step. The continuous trajectory
    drifts off the grid chain by up to that much; the solver's own terminal
    check uses the same resolution. The feasible flag is not checked: it
    can be False for a target the solver reached (ROADMAP item 5), and
    defects() counts it."""
    if not _finite(sol.cost.total, sol.p_star, sol.e_traj, sol.theta_traj):
        return [f"{label}: non-finite cost or trajectory"]
    problems = []
    if np.any(sol.p_star < s.p_lo) or np.any(sol.p_star > s.p_hi):
        problems.append(f"{label}: power outside the scenario bounds")
    for name, traj, lo, hi, step in (
        ("energy", sol.e_traj, s.e_lo, s.e_hi, s.e_step),
        ("temperature", sol.theta_traj, s.theta_lo, s.theta_hi, s.theta_step),
    ):
        if np.any(traj < lo - 0.5 * step) or np.any(traj > hi + 0.5 * step):
            problems.append(f"{label}: {name} more than half a grid step outside the scenario bounds")
    return problems


def _terminal_miss(sol) -> bool:
    return any(note.startswith(TERMINAL_MISS_NOTE) for note in sol.notes)


@contextmanager
def _stage(stage_s, name):
    """Adds the wall time of the with-block to stage_s[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - t0


class Workload:
    """One workload: setup() builds its inputs, op(i) is the timed call into
    chargeopt, check(out) lists what is wrong with an op's output, and
    corrupt(out) makes a wrong output for the fault-injection test."""

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.stage_s: dict[str, float] = {}
        self.tables = electrical.default_tables()

    def make_pool(self):
        return thermal.generate_synthetic_events(
            thermal.ThermalPlant(), self.tables, self.size.pool_events, self.seed
        )

    def train_models(self, pool):
        with _stage(self.stage_s, "train"):
            _, mlp = self.train_mlp(pool, self.size.train_epochs)
        self.models = BatteryModels(tables=self.tables, thermal=mlp, aging=default_params())

    def train_mlp(self, events, epochs):
        """The fit-thermal pipeline up to the fitted linear and MLP models."""
        ds = learning.build_dataset(events, self.tables)
        ds = learning.screen_features(ds, SCREEN_THRESHOLD)
        nrm = learning.fit_normalizer(ds)
        dsz = learning.apply_normalizer(ds, nrm)
        linear = learning.fit_linear(dsz, normalization=nrm)
        arch = learning.MlpArchitecture(hidden_layers=2, neurons_per_layer=10, epochs=epochs)
        mlp = learning.fit_mlp(dsz, arch, seed=self.seed, normalization=nrm)
        return linear, mlp

    def scenario(self, event):
        wd, we = tariff.default_profiles()
        return evaluation.scenario_for_event(
            event, tariff.profile_for_time(event.grid.t0, wd, we), **dict(self.size.steps)
        )

    def defects(self, out) -> Counter:
        """Known solver defects in one op's output, per solve. They are
        reported, not counted as failures (see README.md)."""
        sols = [sol for _, sol in self.solves(out)]
        return Counter(
            solves=len(sols),
            terminal_miss=sum(map(_terminal_miss, sols)),
            infeasible=sum(not sol.feasible for sol in sols),
        )

    def solves(self, out):
        return []

    def grid_facts(self) -> dict:
        g = build_grids(self.scenario(self.events[0]))
        return {
            "M": len(g.e_d) * len(g.theta_d),
            "K": len(g.p_d),
            "N": sorted({ev.grid.n_intervals for ev in self.events}),
        }

    def kernel_parity(self, out) -> list[str]:
        """Re-solve an op's scenarios on both kernels; cost and action grids
        and p_star must match bit for bit, and the op's own p_star must
        equal the reference of the kernel it ran on."""
        if not HAVE_COMPILED:
            return []
        active = active_backend()
        problems = []
        for s, sol in self.solves(out):
            table = optimizer.build_transition_table(s, self.models, build_grids(s))
            ref = {}
            for backend in ("compiled", "python"):
                g = build_grids(s)
                optimizer.backward_induction(s, g, self.models, table=table, backend=backend)
                ref[backend] = (g.cost, g.action, optimizer.forward_integration(s, g, self.models).p_star)
            for a, b, what in zip(ref["compiled"], ref["python"], ("cost grid", "action grid", "p_star")):
                if a.tobytes() != b.tobytes():
                    problems.append(f"kernels disagree on the {what}")
            if sol.p_star.tobytes() != ref[active][2].tobytes():
                problems.append("op p_star differs from its kernel's reference solve")
        return problems


class SolveCold(Workload):
    """solve(s, models) with no table: table build plus backward pass per op."""

    def setup(self):
        with _stage(self.stage_s, "corpus"):
            pool = self.make_pool()
            self.events = cut_events(pool, *self.size.solve_events)
        self.train_models(pool)

    def op(self, i):
        s = self.scenario(self.events[i % len(self.events)])
        return s, optimizer.solve(s, self.models)

    def solves(self, out):
        return [out]

    def check(self, out):
        s, sol = out
        return _solution_problems("solve", s, sol)

    def corrupt(self, out):
        s, sol = out
        return s, replace(sol, p_star=sol.p_star + 2.0 * (s.p_hi - s.p_lo))


class FleetModes(Workload):
    """One event of compare-modes per op: load its CSV, replay it (Mode I),
    solve Modes II and III on the shared table, rewrite modes.csv."""

    def setup(self):
        with _stage(self.stage_s, "corpus"):
            pool = self.make_pool()
            self.events = cut_events(pool, *self.size.fleet_events)
        with _stage(self.stage_s, "event_csv"):
            self.paths = [self.workdir / f"{k:03d}_{ev.name}.csv" for k, ev in enumerate(self.events)]
            for ev, path in zip(self.events, self.paths):
                core.save_event_csv(ev, path)
        self.train_models(pool)
        with _stage(self.stage_s, "table"):
            s = self.scenario(self.events[0])
            self.table = optimizer.build_transition_table(s, self.models, build_grids(s))
        self.rows = []
        self.modes_csv = self.workdir / "modes.csv"

    def op(self, i):
        path, meta = self.paths[i % len(self.paths)], self.events[i % len(self.events)]
        # start time and state of health are not in the CSV (the CLI keeps them in manifest.json)
        ev = core.load_event_csv(path, dt_min=meta.grid.dt_min, t0=meta.grid.t0, soh0=meta.soh0)
        s = self.scenario(ev)
        cmp_ = evaluation.compare_modes(ev, s, self.models, table=self.table)
        self.rows.append((path.stem, cmp_))
        evaluation.save_modes_csv(self.rows, self.modes_csv)
        return s, cmp_

    def solves(self, out):
        s, cmp_ = out
        return [
            (replace(s, include_aging_in_objective=False), cmp_.mode_ii),
            (replace(s, include_aging_in_objective=True), cmp_.mode_iii),
        ]

    def check(self, out):
        s, cmp_ = out
        problems = _solution_problems("mode II", s, cmp_.mode_ii) + _solution_problems("mode III", s, cmp_.mode_iii)
        if not _finite(cmp_.mode_i.cost.total):
            problems.append("mode I: non-finite cost")
        # energy-adjusted gaps, as in tests/oracles.py mode_ordering_gaps
        eps_buy, _ = tariff.interval_prices(s.profile, s.grid)
        adj = (cmp_.mode_iii.e_traj[-1] - cmp_.mode_ii.e_traj[-1]) * float(np.mean(eps_buy))
        tol = MODE_ORDER_TOL_FRACTION * max(abs(cmp_.mode_i.cost.total), 1.0)
        if (cmp_.mode_iii.cost.total - adj) - cmp_.mode_ii.cost.total > tol:
            problems.append("total(III) above total(II)")
        if cmp_.mode_ii.cost.j_e - (cmp_.mode_iii.cost.j_e - adj) > tol:
            problems.append("J_E(II) above J_E(III)")
        with open(self.modes_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 1 + 3 * len(self.rows) or float(rows[-1][6]) != cmp_.mode_iii.cost.total:
            problems.append("modes.csv does not hold this event's rows")
        return problems

    def corrupt(self, out):
        s, cmp_ = out
        cost = cmp_.mode_iii.cost
        worse = replace(cost, j_e_buy=cost.j_e_buy + 10.0 * abs(cost.total) + 10.0)
        return s, replace(cmp_, mode_iii=replace(cmp_.mode_iii, cost=worse))


class FitThermal(Workload):
    """The fit-thermal plus validate pipeline; no optimiser code."""

    def setup(self):
        with _stage(self.stage_s, "corpus"):
            self.events = cut_events(self.make_pool(), *self.size.fit_events)

    def op(self, i):
        linear, mlp = self.train_mlp(self.events, self.size.fit_epochs)
        report = evaluation.validate_models(
            self.events, self.tables, {"constant": thermal.constant_model(), "linear": linear, "mlp": mlp}
        )
        return linear, mlp, report

    def check(self, out):
        linear, mlp, report = out
        problems = []
        if not all(_finite(w, b) for model in (linear, mlp) for w, b in model.layers):
            problems.append("fitted model has non-finite weights")
        errors = [report.electrical] + list(report.thermal.values())
        values = [v for e in errors for v in (e.local_rmse, e.global_mae)]
        if not _finite(values) or min(values) < 0:
            problems.append("validation errors are not finite and non-negative")
        return problems

    def corrupt(self, out):
        linear, mlp, report = out
        bad = dict(report.thermal, mlp=replace(report.thermal["mlp"], local_rmse=float("nan")))
        return linear, mlp, replace(report, thermal=bad)

    def grid_facts(self):
        return {"samples": sum(ev.grid.n_intervals for ev in self.events), "events": len(self.events)}


WORKLOADS = {"solve_cold": SolveCold, "fleet_modes": FleetModes, "fit_thermal": FitThermal}
