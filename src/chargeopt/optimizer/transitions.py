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

    The (M, K) arrays hold one entry per cell (i, j), flattened as i * Nj +
    j, and action k, in tile order: each energy row's Nj * K entries are
    tiles of TILE adjacent cells, the row's last Nj mod TILE cells one
    narrower tile, with no padding, and within a tile of w cells action k
    of its cell l is entry k * w + l. So a row's cells and a tile's actions
    follow one another as in cell order, but a tile's cells lie side by
    side for each action: the compiled kernel computes one cell per vector
    lane and reads each array's entries for the lanes with one load, and,
    where the lanes' successors are consecutive cells, their corners too.
    untile gives the cell order back. The successor cost is read by bilinear interpolation of the next cost
    slice: corner00 is the flattened lower-left grid corner enclosing the
    continuous successor state and (frac_e, frac_theta) its interpolation
    weights. A transition is valid when it satisfies the power bounds, the
    deliverable-power limit, and the state bounds; an invalid one has
    corner00 = -1, and the kernels give it the penalty whatever its other
    entries hold. That is 28 bytes per (cell, action). cyc_fade is a
    capacity-fade fraction (unscaled by battery value), so one table serves
    every battery price. All arrays are read-only: one table is shared by
    every solve that asks for it (see build_transition_table).

    succ_box holds, per cell, the half-open box [i_lo, i_hi) x [j_lo, j_hi)
    of grid rows and columns of the successor corners its costs read, laid
    out like a DdpGrids.region row: the corners of its valid transitions
    that carry a nonzero weight, that is, the lower corner where frac < 1
    and the upper one where frac > 0. A cell without a valid transition has
    the empty box (Ni, 0, Nj, 0). backward_induction grows the region a
    solve computes from these boxes.

    fingerprint is table_fingerprint() of the inputs the table was built
    from: the models, grids, bounds and dt. The table keeps no copy of
    them; a solve takes them from its scenario and grids.
    """

    corner00: np.ndarray  # (M, K) int32 in tile order, flat index i*Nj + j of the lower corner, or -1
    frac_e: np.ndarray  # (M, K) in [0, 1]
    frac_theta: np.ndarray  # (M, K) in [0, 1]
    cyc_fade: np.ndarray  # (M, K) fade fraction
    succ_box: np.ndarray  # (M, 4) int64 i_lo, i_hi, j_lo, j_hi
    fingerprint: str

    @property
    def valid(self) -> np.ndarray:
        """(M, K) bool in tile order: which transitions are valid."""
        return self.corner00 >= 0

    def check(self, s: Scenario, models: BatteryModels, grids: DdpGrids) -> None:
        """Raise InvalidParameterError unless this table is the one
        build_transition_table(s, models, grids) would build."""
        if self.fingerprint != table_fingerprint(s, models, grids):
            raise InvalidParameterError(
                "transition table was built for other battery models, grids, state and power bounds or dt"
            )


TILE = 8  # cells per tile of a table's (M, K) arrays: the compiled kernel's vector lanes


def untile(rows: np.ndarray, width: int) -> np.ndarray:
    """The cell order of tile-ordered entries of a table's (M, K) array.

    rows is (R, width * K): each row the entries of width adjacent cells of
    one energy row, in tile order from a tile's first cell, such as
    a.reshape(Ni, Nj * K) for a whole table array a, or a slice of its
    columns at a multiple of TILE * K. Returns the (R, width, K) array of
    each cell's actions, a copy.
    """
    n_rows, n_actions = rows.shape[0], rows.shape[1] // width
    full = width - width % TILE  # cells in whole tiles
    cells = np.empty((n_rows, width, n_actions), rows.dtype)
    cells[:, :full].reshape(n_rows, full // TILE, TILE, n_actions)[...] = (
        rows[:, : full * n_actions].reshape(n_rows, full // TILE, n_actions, TILE).transpose(0, 1, 3, 2)
    )
    cells[:, full:] = rows[:, full * n_actions :].reshape(n_rows, n_actions, width - full).transpose(0, 2, 1)
    return cells


def _tile(a: np.ndarray, nj: int) -> None:
    """Rewrite the C-contiguous (M, K) array a from cell order into tile
    order, in place, one energy row at a time, so that no second full-size
    copy is alive."""
    rows = a.reshape(-1, nj * a.shape[1])
    # order[c] is the position in tile order of a row's entry c in cell order
    order = untile(np.arange(rows.shape[1]).reshape(1, -1), nj).reshape(-1)
    for row in rows:
        row[order] = row.copy()


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
# another ~22 MB alive at full scale.
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
    m = len(e_d) * len(theta_d)
    k = len(p_d)
    if m * k > np.iinfo(np.int32).max:
        raise InvalidParameterError(f"{m} cells x {k} actions do not fit the table's int32 corner indices")
    e_mesh, th_mesh = np.meshgrid(e_d, theta_d, indexing="ij")
    cell_e = e_mesh.reshape(-1)
    cell_th = th_mesh.reshape(-1)

    u, r = electrical.lookup_arrays(models.tables, cell_e, cell_th)
    p_row = p_d[None, :]
    valid_power = np.broadcast_to((p_d >= s.p_lo) & (p_d <= s.p_hi), (m, k))
    deliverable = p_row >= electrical.max_discharge_power(u, r)[:, None]
    p_eff = np.where(deliverable, p_row, 0.0)  # placeholder where the root is complex
    delta_e, _, d_theta = thermal.step(
        models.tables, models.thermal, cell_e[:, None], cell_th[:, None], p_eff, s.grid.dt_min
    )
    e_next = cell_e[:, None] + delta_e
    th_next = cell_th[:, None] + d_theta

    valid_state = (
        (e_next >= s.e_lo)
        & (e_next <= s.e_hi)
        & (th_next >= s.theta_lo)
        & (th_next <= s.theta_hi)
    )
    valid = valid_power & deliverable & valid_state
    ie, frac_e = electrical.interp_axis(e_d, e_next)
    jt, frac_theta = electrical.interp_axis(theta_d, th_next)
    succ_box = np.stack(
        _corner_span(ie, frac_e, valid, len(e_d)) + _corner_span(jt, frac_theta, valid, len(theta_d)), axis=1
    )
    corner00 = (ie * len(theta_d) + jt).astype(np.int32)
    corner00[~valid] = -1
    del ie, jt

    if np.any(~np.isfinite(delta_e[valid])):
        raise InvalidParameterError("transition table produced non-finite energy steps")

    cyc_fade = aging_mod.cyclic_fade(models.aging, delta_e)
    for a in (corner00, frac_e, frac_theta, cyc_fade):
        _tile(a, len(theta_d))
    table = TransitionTable(
        corner00=corner00,
        frac_e=frac_e,
        frac_theta=frac_theta,
        cyc_fade=cyc_fade,
        succ_box=succ_box,
        fingerprint=fingerprint,
    )
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return table


def _corner_span(lo, frac, valid, n_axis):
    """Per cell, the half-open range [start, stop) of node indices along one
    axis of the corners its valid transitions read with a nonzero weight:
    lo where frac < 1, lo + 1 where frac > 0. (n_axis, 0) when no transition
    is valid."""
    reads_lo = valid & (frac < 1.0)
    reads_hi = valid & (frac > 0.0)
    start = np.minimum(
        np.min(lo, axis=1, where=reads_lo, initial=n_axis),
        np.min(lo, axis=1, where=reads_hi, initial=n_axis - 1) + 1,
    )
    stop = np.maximum(
        np.max(lo, axis=1, where=reads_lo, initial=-1) + 1,
        np.max(lo, axis=1, where=reads_hi, initial=-2) + 2,
    )
    return start, stop
