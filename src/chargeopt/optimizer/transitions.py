"""One-interval transition table over all (state cell, action) pairs.

Within one charging event the models are time-invariant: energy and
temperature transitions, feasibility, and aging fades depend only on the
state cell and the action, while time enters the objective solely through
the hourly prices. Backward induction therefore reduces to a cheap
gather/min pass over this table, which is built once per model/bounds
combination and reused across events, modes, and sweeps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .. import aging as aging_mod
from .. import electrical, thermal
from ..errors import InvalidParameterError
from .scenario import BatteryModels, DdpGrids, Scenario


@dataclass(frozen=True)
class TransitionTable:
    """Precomputed one-step transitions on the state/action grid.

    Arrays are indexed by flattened cell (i * n_theta + j) and action k.
    The successor cost is read by bilinear interpolation of the next cost
    slice: corner00 is the flattened lower-left grid corner enclosing the
    continuous successor state and (frac_e, frac_theta) its interpolation
    weights. valid marks transitions that satisfy the power bounds, the
    deliverable-power limit, and the state bounds. cyc_fade is a
    capacity-fade fraction (unscaled by battery value), so one table serves
    every battery price. All arrays are read-only: one table is shared by
    every solve that asks for it (see build_transition_table).

    succ_i_lo, succ_i_hi, succ_j_lo and succ_j_hi bound, per cell, the grid
    rows i and columns j (inclusive) of the successor corners its costs read:
    the corners of its valid transitions that carry a nonzero weight, that
    is, the lower corner where frac < 1 and the upper one where frac > 0. A
    cell without a valid transition has an empty box (lo = n_axis, hi = -1).
    backward_induction grows the region a solve computes from these boxes.

    fingerprint is table_fingerprint() of the inputs the table was built
    from.
    """

    e_d: np.ndarray
    theta_d: np.ndarray
    p_d: np.ndarray
    dt_min: float
    valid: np.ndarray  # (M, K) uint8
    corner00: np.ndarray  # (M, K) int64, flat index i*Nj + j of the lower corner
    frac_e: np.ndarray  # (M, K) in [0, 1]
    frac_theta: np.ndarray  # (M, K) in [0, 1]
    cyc_fade: np.ndarray  # (M, K) fade fraction
    buy_energy: np.ndarray  # (K,) kWh drawn when p >= 0
    sell_energy: np.ndarray  # (K,) kWh fed back when p < 0
    theta_cells: np.ndarray  # (M,) degC of each cell
    e_cells: np.ndarray  # (M,) kWh of each cell
    succ_i_lo: np.ndarray  # (M,) int64
    succ_i_hi: np.ndarray  # (M,) int64
    succ_j_lo: np.ndarray  # (M,) int64
    succ_j_hi: np.ndarray  # (M,) int64
    fingerprint: str

    def check(self, s: Scenario, models: BatteryModels, grids: DdpGrids) -> None:
        """Raise InvalidParameterError unless this table is the one
        build_transition_table(s, models, grids) would build."""
        if not (
            np.array_equal(self.e_d, grids.e_d)
            and np.array_equal(self.theta_d, grids.theta_d)
            and np.array_equal(self.p_d, grids.p_d)
        ):
            raise InvalidParameterError("transition table was built for different grids")
        if self.dt_min != s.grid.dt_min:
            raise InvalidParameterError(
                f"transition table was built for dt = {self.dt_min} min, scenario has dt = {s.grid.dt_min} min"
            )
        if self.fingerprint != table_fingerprint(s, models, grids):
            raise InvalidParameterError(
                "transition table was built for other battery models or state and power bounds"
            )


def table_fingerprint(s: Scenario, models: BatteryModels, grids: DdpGrids) -> str:
    """SHA-256 over the array contents and values a table build reads.

    Covers the ECM tables, the thermal model, the cyclic aging coefficients
    (not v_ev_eur, so every battery price shares a table), the grid axes,
    the state and power bounds, and dt.
    """
    thermal_model = models.thermal
    arrays = [
        models.tables.e_axis,
        models.tables.theta_axis,
        models.tables.u_ocv,
        models.tables.r_i,
        thermal_model.variant,
        thermal_model.feature_names,
        thermal_model.means,
        thermal_model.stds,
        len(thermal_model.layers),
        *(a for layer in thermal_model.layers for a in layer),
        grids.e_d,
        grids.theta_d,
        grids.p_d,
    ]
    scalars = (
        models.aging.beta_a,
        models.aging.beta_b,
        s.e_lo,
        s.e_hi,
        s.theta_lo,
        s.theta_hi,
        s.p_lo,
        s.p_hi,
        s.grid.dt_min,
    )
    digest = hashlib.sha256()
    for value in arrays + [np.asarray(scalars, float)]:
        a = np.asarray(value)
        # dtype and shape first, so that no two different inputs give one byte stream
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


# The last table built. One entry: a solve without a table, a sweep and a
# corpus of events share one model and bounds, and a second entry would keep
# another ~26 MB alive at full scale.
_last_table: TransitionTable | None = None


def clear_table_cache() -> None:
    """Drop the cached table, so that the next build evaluates the models."""
    global _last_table
    _last_table = None


def build_transition_table(s: Scenario, models: BatteryModels, grids: DdpGrids) -> TransitionTable:
    """Evaluate the coupled models on every (cell, action) pair.

    Depends on the models, bounds, grid steps and dt; it does not depend on
    e0/e_target/theta0, prices, soh0, battery price, or the horizon length,
    so it can be shared across solves. The last table built is cached under
    its fingerprint: a call with the same inputs returns that table instead
    of building it again. A model changed in place hashes to another
    fingerprint and is rebuilt.
    """
    global _last_table
    fingerprint = table_fingerprint(s, models, grids)
    cached = _last_table  # read once: a racing thread costs a second build, never a wrong table
    if cached is not None and cached.fingerprint == fingerprint:
        return cached
    _last_table = None  # drop the old table before building, so two are never alive here
    table = _build(s, models, grids, fingerprint)
    _last_table = table
    return table


def _build(s: Scenario, models: BatteryModels, grids: DdpGrids, fingerprint: str) -> TransitionTable:
    e_d, theta_d, p_d = grids.e_d, grids.theta_d, grids.p_d
    e_mesh, th_mesh = np.meshgrid(e_d, theta_d, indexing="ij")
    e_cells = e_mesh.reshape(-1)
    th_cells = th_mesh.reshape(-1)
    m = len(e_cells)
    k = len(p_d)

    u, r = electrical.lookup_arrays(models.tables, e_cells, th_cells)
    p_row = p_d[None, :]
    valid_power = np.broadcast_to((p_d >= s.p_lo) & (p_d <= s.p_hi), (m, k))
    deliverable = p_row >= electrical.max_discharge_power(u, r)[:, None]
    p_eff = np.where(deliverable, p_row, 0.0)  # placeholder where the root is complex
    delta_e, _, d_theta = thermal.step(
        models.tables, models.thermal, e_cells[:, None], th_cells[:, None], p_eff, s.grid.dt_min
    )
    e_next = e_cells[:, None] + delta_e
    th_next = th_cells[:, None] + d_theta

    valid_state = (
        (e_next >= s.e_lo)
        & (e_next <= s.e_hi)
        & (th_next >= s.theta_lo)
        & (th_next <= s.theta_hi)
    )
    valid = (valid_power & deliverable & valid_state).astype(np.uint8)
    ie, frac_e = _interp_axis(e_d, e_next)
    jt, frac_theta = _interp_axis(theta_d, th_next)
    succ_i_lo, succ_i_hi = _corner_span(ie, frac_e, valid, len(e_d))
    succ_j_lo, succ_j_hi = _corner_span(jt, frac_theta, valid, len(theta_d))
    corner00 = ie * len(theta_d) + jt
    del ie, jt

    if np.any(~np.isfinite(delta_e[valid.astype(bool)])):
        raise InvalidParameterError("transition table produced non-finite energy steps")

    dt_h = s.grid.dt_min / 60.0
    table = TransitionTable(
        e_d=e_d.copy(),
        theta_d=theta_d.copy(),
        p_d=p_d.copy(),
        dt_min=s.grid.dt_min,
        valid=valid,
        corner00=corner00,
        frac_e=frac_e,
        frac_theta=frac_theta,
        cyc_fade=aging_mod.cyclic_fade(models.aging, delta_e),
        buy_energy=np.maximum(p_d, 0.0) * dt_h,
        sell_energy=np.minimum(p_d, 0.0) * dt_h,
        theta_cells=th_cells,
        e_cells=e_cells,
        succ_i_lo=succ_i_lo,
        succ_i_hi=succ_i_hi,
        succ_j_lo=succ_j_lo,
        succ_j_hi=succ_j_hi,
        fingerprint=fingerprint,
    )
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return table


def _interp_axis(grid, x):
    """Lower node index (int64) and fractional weight of x on one grid axis,
    for bilinear reads.

    x is clamped to the grid hull; the weight on a single-node axis is zero.
    """
    x = np.clip(x, grid[0], grid[-1])
    lo = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, max(len(grid) - 2, 0)).astype(np.int64, copy=False)
    if len(grid) < 2:
        return lo, np.zeros_like(x)
    return lo, (x - grid[lo]) / (grid[lo + 1] - grid[lo])


def _corner_span(lo, frac, valid, n_axis):
    """Per cell, the smallest and largest node index along one axis of the
    corners its valid transitions read with a nonzero weight: lo where
    frac < 1, lo + 1 where frac > 0. (n_axis, -1) when no transition is valid."""
    valid = valid.astype(bool)
    reads_lo = valid & (frac < 1.0)
    reads_hi = valid & (frac > 0.0)
    first = np.minimum(
        np.min(lo, axis=1, where=reads_lo, initial=n_axis),
        np.min(lo, axis=1, where=reads_hi, initial=n_axis - 1) + 1,
    )
    last = np.maximum(
        np.max(lo, axis=1, where=reads_lo, initial=-1),
        np.max(lo, axis=1, where=reads_hi, initial=-2) + 1,
    )
    return first, last
