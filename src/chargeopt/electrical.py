"""Equivalent-circuit battery model: current, Ohmic losses, energy throughput.

The battery is abstracted as a voltage source U_OCV in series with an
internal resistance R_i; both depend on battery energy and temperature and
come from a look-up table. Charging power p is gross power in kW at the
API boundary and is converted to W in exactly one place (battery_current).

All functions broadcast over NumPy arrays and are pure; EcmTables is
immutable after load, so everything here is safe for concurrent use.
energy_step runs in the compiled module _kernel when it is built, with the
bits of the NumPy definition here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePowerError, InvalidParameterError

try:
    from . import _kernel  # type: ignore[attr-defined]
except ImportError:  # not built: the NumPy definition below runs, with the same bits
    _kernel = None


@dataclass(frozen=True)
class EcmTables:
    """Rectangular look-up grids over (e in kWh, theta in degC).

    Axes must be strictly increasing; u_ocv and r_i have shape
    (len(e_axis), len(theta_axis)) with r_i > 0 and u_ocv > 0 everywhere;
    axes and grids are finite. All four are kept as C-contiguous float64
    arrays, which the compiled energy_step reads as they are.
    Queries outside the hull clamp to the nearest grid edge.
    """

    e_axis: np.ndarray
    theta_axis: np.ndarray
    u_ocv: np.ndarray
    r_i: np.ndarray

    def __post_init__(self):
        for label in ("e_axis", "theta_axis", "u_ocv", "r_i"):
            object.__setattr__(self, label, np.ascontiguousarray(getattr(self, label), float))
        for label, ax in (("e_axis", self.e_axis), ("theta_axis", self.theta_axis)):
            if ax.ndim != 1 or ax.size < 2 or np.any(np.diff(ax) <= 0):
                raise InvalidParameterError(f"{label} must be 1-D, strictly increasing, length >= 2")
            if not np.all(np.isfinite(ax)):
                raise InvalidParameterError(f"{label} must be finite")
        shape = (len(self.e_axis), len(self.theta_axis))
        for label, grid in (("u_ocv", self.u_ocv), ("r_i", self.r_i)):
            if np.asarray(grid).shape != shape:
                raise InvalidParameterError(f"{label} grid shape {np.asarray(grid).shape} != {shape}")
            if not np.all(np.isfinite(grid) & (np.asarray(grid) > 0)):
                raise InvalidParameterError(f"{label} must be positive and finite everywhere")


def default_tables() -> EcmTables:
    """Demo tables for tests and the synthetic plant.

    U_OCV is affine in energy (300 V at 0 kWh to 420 V at 80 kWh), flat in
    temperature; R_i is 0.10 Ohm at and above 25 degC, rising linearly to
    0.25 Ohm at -25 degC, flat in energy.
    """
    e_axis = np.array([0.0, 80.0])
    theta_axis = np.array([-25.0, 25.0, 60.0])
    u = np.array([[300.0, 300.0, 300.0], [420.0, 420.0, 420.0]])
    r = np.array([[0.25, 0.10, 0.10], [0.25, 0.10, 0.10]])
    return EcmTables(e_axis, theta_axis, u, r)


def interp_axis(grid, x):
    """Lower node index (int64) and fractional weight of x on one grid axis,
    for bilinear reads.

    x is clamped to the grid hull; the weight on a single-node axis is zero.
    """
    # np.minimum and np.maximum cost half a np.clip call; with the bound first,
    # a tie returns x as np.clip does, so signed zeros come out the same
    x = np.minimum(grid[-1], np.maximum(grid[0], x))
    lo = np.searchsorted(grid, x, side="right") - 1
    lo = np.minimum(np.maximum(lo, 0), max(len(grid) - 2, 0)).astype(np.int64, copy=False)
    if len(grid) < 2:
        return lo, np.zeros_like(x)
    return lo, (x - grid[lo]) / (grid[lo + 1] - grid[lo])


def lookup_arrays(tables: EcmTables, e, theta):
    """Vectorized (u_ocv, r_i) lookup; e/theta broadcast elementwise.

    Bilinear interpolation with clamping to the table hull; both grids share
    one set of corner indices and weights. Each corner term is
    (value * weight_e) * weight_theta, and the terms are summed in a fixed
    order, so a query has the same bits alone or inside any batch.
    """
    ie, fe = interp_axis(tables.e_axis, np.asarray(e, float))
    it, ft = interp_axis(tables.theta_axis, np.asarray(theta, float))
    ge, gt = 1 - fe, 1 - ft
    k00 = ie * len(tables.theta_axis) + it  # flat index of the lower corner
    k10 = k00 + len(tables.theta_axis)
    k01, k11 = k00 + 1, k10 + 1

    def interp(grid):
        flat = grid.ravel()
        return flat[k00] * ge * gt + flat[k10] * fe * gt + flat[k01] * ge * ft + flat[k11] * fe * ft

    return interp(tables.u_ocv), interp(tables.r_i)


def max_discharge_power(u_ocv, r_i):
    """Most negative gross power (kW) the cell can deliver at (u_ocv, r_i).

    Below this the current equation has no real solution.
    """
    return -np.asarray(u_ocv, float) ** 2 / (4.0 * np.asarray(r_i, float)) / 1000.0


def battery_current(u_ocv, r_i, p_kw):
    """Battery current in A for gross power p (kW), positive while charging.

    Solves R_i*I^2 + U_OCV*I - p = 0 for the greater root, the only
    physically feasible one; sign(I) = sign(p).
    """
    u = np.asarray(u_ocv, float)
    r = np.asarray(r_i, float)
    p_w = np.asarray(p_kw, float) * 1000.0
    disc = u * u + 4.0 * r * p_w
    bad = disc < 0
    if np.any(bad):
        k = int(np.argmax(bad))
        u_k, r_k = (np.broadcast_to(v, bad.shape).flat[k] for v in (u, r))
        raise _infeasible(bad.shape, k, max_discharge_power(u_k, r_k))
    i = (-u + np.sqrt(disc)) / (2.0 * r)
    return i if i.ndim else float(i)


def _infeasible(shape, index: int, limit_kw) -> InfeasiblePowerError:
    """The error for the first element, at flat index `index` in C order of
    the broadcast shape, whose discharge exceeds its own limit_kw."""
    at = ""
    if shape:
        where = tuple(int(i) for i in np.unravel_index(index, shape))
        at = f" at index {where[0] if len(where) == 1 else where}"
    return InfeasiblePowerError(f"requested discharge power{at} exceeds maximum deliverable ({limit_kw:.3f} kW)")


def ohmic_loss(r_i, i_bat):
    """Ohmic heat flow R_i * I^2 in kW; positive for charge and discharge."""
    q = np.asarray(r_i, float) * np.asarray(i_bat, float) ** 2 / 1000.0
    return q if q.ndim else float(q)


def energy_step(tables: EcmTables, e, theta, p_kw, dt_min: float):
    """(delta_e in kWh, q_loss in kW) over one interval at constant power.

    e, theta, p_kw and dt_min broadcast elementwise, and both results take
    the shape of all four; 0-d inputs give floats. U_OCV and R_i are looked
    up at the interval-start state and held fixed within the interval.
    Losses reduce the stored energy gain while charging and increase the
    drawn energy while discharging. The compiled module _kernel runs this
    definition when it is built, and the NumPy code below otherwise, with the
    same bits; every NaN result is np.nan. InfeasiblePowerError names the
    first element, in C order, whose discharge cannot be delivered.
    """
    e, theta, p = np.asarray(e, float), np.asarray(theta, float), np.asarray(p_kw, float)
    dt = np.asarray(dt_min, float)
    shape = np.broadcast(e, theta, p, dt).shape
    if _kernel is not None:
        delta_e, q = np.empty(shape), np.empty(shape)
        bad = _kernel.energy_step(
            tables.e_axis, tables.theta_axis, tables.u_ocv, tables.r_i, e, theta, p, dt, delta_e, q
        )
        if bad is not None:
            raise _infeasible(shape, *bad)
    else:
        u, r = lookup_arrays(tables, e, theta)
        # p spans every axis of the result, so q and a failing index do too
        q = np.asarray(ohmic_loss(r, battery_current(u, r, np.broadcast_to(p, shape))))
        delta_e = np.asarray((dt / 60.0) * (p - q))
        # one NaN: IEEE leaves open which NaN operand an operation returns
        delta_e[np.isnan(delta_e)] = np.nan
        q[np.isnan(q)] = np.nan
    return (delta_e if delta_e.ndim else float(delta_e)), (q if q.ndim else float(q))


ECM_CSV_HEADER = ["e_kwh", "theta_c", "u_ocv_v", "r_i_ohm"]


def save_tables_csv(tables: EcmTables, path) -> None:
    """Write tables in long format, one row per grid node."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ECM_CSV_HEADER)
        for i, e in enumerate(tables.e_axis):
            for j, th in enumerate(tables.theta_axis):
                w.writerow(
                    [repr(float(e)), repr(float(th)), repr(float(tables.u_ocv[i, j])), repr(float(tables.r_i[i, j]))]
                )


def load_tables_csv(path) -> EcmTables:
    """Read long-format tables; validates that the grid is rectangular."""
    rows = []
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        missing = set(ECM_CSV_HEADER) - set(r.fieldnames or [])
        if missing:
            raise InvalidParameterError(f"lookup CSV {path} missing columns {sorted(missing)}")
        for row in r:
            rows.append([float(row[c]) for c in ECM_CSV_HEADER])
    if not rows:
        raise InvalidParameterError(f"lookup CSV {path} has no data rows")
    arr = np.asarray(rows, float)
    e_axis = np.unique(arr[:, 0])
    theta_axis = np.unique(arr[:, 1])
    if len(rows) != len(e_axis) * len(theta_axis):
        raise InvalidParameterError("lookup grid is not rectangular")
    u = np.full((len(e_axis), len(theta_axis)), np.nan)
    ri = np.full_like(u, np.nan)
    for e, th, uv, rv in arr:
        i = int(np.searchsorted(e_axis, e))
        j = int(np.searchsorted(theta_axis, th))
        u[i, j] = uv
        ri[i, j] = rv
    if np.any(np.isnan(u)) or np.any(np.isnan(ri)):
        raise InvalidParameterError("lookup grid has duplicate or missing nodes")
    return EcmTables(e_axis, theta_axis, u, ri)
