"""Domain types, time discretization, and unit conventions.

Units are fixed project-wide: kW, kWh, degrees Celsius, minutes, EUR.
A charging event spans N intervals of dt minutes, hence N+1 state instants.
All types are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

THETA_MIN_C = -40.0
THETA_MAX_C = 80.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization of one charging event.

    Interval n spans [t_n, t_{n+1}] for n in [0, N-1]; there are N+1 state
    instants and N intervals.
    """

    t0: float  # epoch seconds at event start
    n_intervals: int
    dt_min: float = 5.0

    def __post_init__(self):
        if isinstance(self.n_intervals, bool) or not isinstance(self.n_intervals, (int, np.integer)):
            raise InvalidParameterError(f"n_intervals must be an integer, got {self.n_intervals!r}")
        if self.n_intervals < 1:
            raise InvalidParameterError(f"need at least one interval, got {self.n_intervals}")
        if not np.isfinite(self.t0):
            raise InvalidParameterError(f"t0 must be finite, got {self.t0}")
        if not 0 < self.dt_min < np.inf:
            raise InvalidParameterError(f"dt must be positive and finite, got {self.dt_min}")

    @property
    def dt_h(self) -> float:
        return self.dt_min / 60.0

    def instants(self) -> np.ndarray:
        """Epoch seconds of all N+1 state instants."""
        return self.t0 + np.arange(self.n_intervals + 1) * self.dt_min * 60.0

    def interval_starts(self) -> np.ndarray:
        """Epoch seconds at which each of the N intervals begins."""
        return self.instants()[:-1]


@dataclass(frozen=True)
class BatteryState:
    """Battery energy (kWh) and temperature (degC) at one instant."""

    e: float
    theta: float

    def __post_init__(self):
        if self.e < 0:
            raise InvalidParameterError(f"battery energy must be >= 0, got {self.e}")
        if not THETA_MIN_C <= self.theta <= THETA_MAX_C:
            raise InvalidParameterError(
                f"temperature {self.theta} degC outside [{THETA_MIN_C}, {THETA_MAX_C}]"
            )


@dataclass(frozen=True)
class ChargingEvent:
    """Time-discretized record of one plug-in session (measured or synthetic).

    p holds per-interval mean gross charging power (length N); e, theta and
    u_bat hold per-instant values (length N+1). soh0 is the state of health
    at event start.
    """

    grid: TimeGrid
    p: np.ndarray
    e: np.ndarray
    theta: np.ndarray
    u_bat: np.ndarray
    soh0: float = 1.0
    name: str = ""

    def __post_init__(self):
        n = self.grid.n_intervals
        if len(self.p) != n:
            raise InvalidParameterError(f"p has length {len(self.p)}, expected N={n}")
        for label, arr in (("e", self.e), ("theta", self.theta), ("u_bat", self.u_bat)):
            if len(arr) != n + 1:
                raise InvalidParameterError(f"{label} has length {len(arr)}, expected N+1={n + 1}")
        if not 0.0 < self.soh0 <= 1.0:
            raise InvalidParameterError(f"soh0 must be in (0, 1], got {self.soh0}")

    @property
    def duration_h(self) -> float:
        return self.grid.n_intervals * self.grid.dt_min / 60.0


@dataclass(frozen=True)
class CostBreakdown:
    """Operating cost of one charging event, split into its four components.

    j_e_buy >= 0 and j_e_sell <= 0 are energy expenses and rewards; j_d_cyc
    and j_d_cal >= 0 are cyclic and calendar aging costs. All in EUR.
    """

    j_e_buy: float = 0.0
    j_e_sell: float = 0.0
    j_d_cyc: float = 0.0
    j_d_cal: float = 0.0

    @property
    def total(self) -> float:
        return self.j_e_buy + self.j_e_sell + self.j_d_cyc + self.j_d_cal

    @property
    def j_e(self) -> float:
        return self.j_e_buy + self.j_e_sell

    @property
    def j_d(self) -> float:
        return self.j_d_cyc + self.j_d_cal


@dataclass(frozen=True)
class RawSamples:
    """Irregularly sampled signals of one charging event, seconds since start."""

    t_s: np.ndarray
    p_kw: np.ndarray
    e_kwh: np.ndarray
    theta_c: np.ndarray
    u_bat_v: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.u_bat_v is None:
            object.__setattr__(self, "u_bat_v", np.zeros_like(np.asarray(self.t_s, float)))


def discretize_event(
    samples: RawSamples,
    dt_min: float = 5.0,
    t0: float = 0.0,
    soh0: float = 1.0,
    name: str = "",
) -> ChargingEvent:
    """Resample an irregular time series onto a uniform dt grid.

    Per-interval power is the time-weighted mean under a causal zero-order
    hold (each sample's value applies until the next sample). State values
    at interval boundaries come from the last sample at or before the
    boundary instant. A trailing partial interval is dropped.
    """
    t = np.asarray(samples.t_s, dtype=float)
    if t.size == 0:
        raise InvalidParameterError("empty sample set")
    if np.any(np.diff(t) < 0):
        raise InvalidParameterError("sample timestamps must be non-decreasing")
    dt_s = dt_min * 60.0
    span = t[-1] - t[0]
    if span < dt_s:
        raise InvalidParameterError(f"samples span {span} s, need at least {dt_s} s")

    n = int(span // dt_s)
    bounds = t[0] + np.arange(n + 1) * dt_s

    p = np.asarray(samples.p_kw, dtype=float)
    seg_end = np.concatenate([t[1:], [np.inf]])  # each sample holds until the next one
    p_mean = np.empty(n)
    for k in range(n):
        lo, hi = bounds[k], bounds[k + 1]
        overlap = np.minimum(seg_end, hi) - np.maximum(t, lo)
        p_mean[k] = float(np.sum(p * np.clip(overlap, 0.0, None))) / dt_s

    # boundary states: last sample at or before each boundary instant
    idx = np.searchsorted(t, bounds, side="right") - 1
    idx = np.clip(idx, 0, len(t) - 1)
    grid = TimeGrid(t0=t0 + t[0], n_intervals=n, dt_min=dt_min)
    return ChargingEvent(
        grid=grid,
        p=p_mean,
        e=np.asarray(samples.e_kwh, float)[idx],
        theta=np.asarray(samples.theta_c, float)[idx],
        u_bat=np.asarray(samples.u_bat_v, float)[idx],
        soh0=soh0,
        name=name,
    )


EVENT_CSV_HEADER = ["t_s", "p_kw", "e_kwh", "theta_c", "u_bat_v"]


def save_event_csv(event: ChargingEvent, path) -> None:
    """Write an event as raw samples: one row per state instant.

    Row n carries the state at instant n and the power of interval n (the
    last row repeats the final interval's power so a causal re-read is the
    identity).
    """
    n = event.grid.n_intervals
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EVENT_CSV_HEADER)
        for k in range(n + 1):
            p_k = event.p[min(k, n - 1)]
            w.writerow(
                [
                    repr(k * event.grid.dt_min * 60.0),
                    repr(float(p_k)),
                    repr(float(event.e[k])),
                    repr(float(event.theta[k])),
                    repr(float(event.u_bat[k])),
                ]
            )


def load_samples_csv(path) -> RawSamples:
    """Read raw event samples (header t_s,p_kw,e_kwh,theta_c,u_bat_v).

    The header must name those five columns; it may hold them in any order
    and name further columns, which are read past. Blank lines are skipped.
    Every data row must have one field per header column, and each of the
    five columns a number that float() parses. Every value must be finite,
    and every state one that BatteryState accepts: e_kwh >= 0 and theta_c
    in [THETA_MIN_C, THETA_MAX_C]. A file that breaks a rule raises
    InvalidParameterError naming the file, the data row and the column.
    """
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        index = {name: k for k, name in enumerate(header)}  # a repeated name: its last column
        missing = set(EVENT_CSV_HEADER) - set(index)
        if missing:
            raise InvalidParameterError(f"event CSV {path} missing columns {sorted(missing)}")
        columns = [index[c] for c in EVENT_CSV_HEADER]
        for row in r:
            if not row:
                continue
            if len(row) != len(header):
                if len(row) < len(header):
                    where = f"no value for column {header[len(row)]!r}"
                else:
                    where = f"column {len(header) + 1} has no header"
                raise InvalidParameterError(
                    f"event CSV {path} data row {len(rows) + 1} has {len(row)} fields, "
                    f"the header {len(header)}: {where}"
                )
            try:
                rows.append([float(row[k]) for k in columns])
            except ValueError:
                col, cell = next((c, row[k]) for c, k in zip(EVENT_CSV_HEADER, columns) if not _parses(row[k]))
                raise InvalidParameterError(
                    f"event CSV {path} has {cell!r} for {col} in data row {len(rows) + 1}, need a number"
                ) from None
    if not rows:
        raise InvalidParameterError(f"event CSV {path} has no data rows")
    arr = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        row, col = bad[0]
        raise InvalidParameterError(
            f"event CSV {path} has a non-finite {EVENT_CSV_HEADER[col]} in data row {row + 1}"
        )
    # the states BatteryState accepts, so that no model trains on a state a battery cannot hold
    bad = np.flatnonzero((arr[:, 2] < 0) | (arr[:, 3] < THETA_MIN_C) | (arr[:, 3] > THETA_MAX_C))
    if len(bad):
        row = bad[0]
        raise InvalidParameterError(
            f"event CSV {path} has e_kwh {float(arr[row, 2])!r} and theta_c {float(arr[row, 3])!r} "
            f"in data row {row + 1}, need e_kwh >= 0 and theta_c in [{THETA_MIN_C}, {THETA_MAX_C}]"
        )
    return RawSamples(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4])


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_event_csv(path, dt_min: float = 5.0, t0: float = 0.0, soh0: float = 1.0) -> ChargingEvent:
    return discretize_event(load_samples_csv(path), dt_min=dt_min, t0=t0, soh0=soh0)
