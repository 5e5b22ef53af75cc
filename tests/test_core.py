"""Core types and event discretization."""

import re

import numpy as np
import pytest

from chargeopt.core import (
    BatteryState,
    ChargingEvent,
    RawSamples,
    TimeGrid,
    discretize_event,
    load_event_csv,
    load_samples_csv,
    save_event_csv,
)
from chargeopt.errors import InvalidParameterError


def test_time_grid_counts():
    grid = TimeGrid(t0=0.0, n_intervals=4, dt_min=5.0)
    assert len(grid.instants()) == 5
    assert len(grid.interval_starts()) == 4
    assert grid.instants()[-1] == 4 * 300.0
    with pytest.raises(InvalidParameterError):
        TimeGrid(t0=0.0, n_intervals=0)
    with pytest.raises(InvalidParameterError):
        TimeGrid(t0=0.0, n_intervals=3, dt_min=0.0)
    for n in (24.5, 24.0, "24", True):
        with pytest.raises(InvalidParameterError, match="n_intervals must be an integer"):
            TimeGrid(t0=0.0, n_intervals=n)
    assert TimeGrid(t0=0.0, n_intervals=np.int64(4)).n_intervals == 4


def test_battery_state_bounds():
    BatteryState(10.0, 25.0)
    with pytest.raises(InvalidParameterError):
        BatteryState(-1.0, 25.0)
    with pytest.raises(InvalidParameterError):
        BatteryState(10.0, 99.0)


def _samples(t, p, e=None, theta=None):
    t = np.asarray(t, float)
    n = len(t)
    return RawSamples(
        t_s=t,
        p_kw=np.asarray(p, float),
        e_kwh=np.asarray(e if e is not None else np.zeros(n), float),
        theta_c=np.asarray(theta if theta is not None else np.full(n, 20.0), float),
    )


def test_discretize_constant_power():
    ev = discretize_event(_samples([0, 300, 600, 900], [10, 10, 10, 10]), dt_min=5.0)
    assert ev.grid.n_intervals == 3
    assert np.allclose(ev.p, [10, 10, 10])


def test_discretize_piecewise_aligned():
    t = [0, 300, 600, 900, 1200]
    p = [0, 0, 12, 12, 12]
    ev = discretize_event(_samples(t, p), dt_min=5.0)
    assert np.allclose(ev.p, [0, 0, 12, 12])


def test_discretize_time_weighted_mean():
    # samples at 0,2,5,7,10 min: intervals integrate to (0*2+6*3)/5 and (6*2+12*3)/5
    t = np.array([0, 2, 5, 7, 10]) * 60.0
    p = [0, 6, 6, 12, 12]
    ev = discretize_event(_samples(t, p), dt_min=5.0)
    assert ev.p == pytest.approx([3.6, 9.6])


def test_discretize_boundary_states_are_causal():
    # boundary at 300 s takes the last sample at/before it (the 240 s one)
    t = [0.0, 240.0, 360.0, 600.0]
    e = [10.0, 11.0, 12.0, 13.0]
    ev = discretize_event(_samples(t, [5, 5, 5, 5], e=e), dt_min=5.0)
    assert ev.e[0] == 10.0
    assert ev.e[1] == 11.0
    assert ev.e[2] == 13.0


def test_discretize_errors():
    with pytest.raises(InvalidParameterError):
        discretize_event(_samples([], []), dt_min=5.0)
    with pytest.raises(InvalidParameterError):
        discretize_event(_samples([0, 200, 100], [1, 1, 1]), dt_min=5.0)
    with pytest.raises(InvalidParameterError):
        discretize_event(_samples([0, 100], [1, 1]), dt_min=5.0)  # span < dt


def test_rediscretize_aligned_event_is_identity():
    rng = np.random.default_rng(3)
    n = 6
    grid = TimeGrid(t0=0.0, n_intervals=n, dt_min=5.0)
    ev = ChargingEvent(
        grid=grid,
        p=rng.uniform(0, 20, n),
        e=np.cumsum(rng.uniform(0, 2, n + 1)) + 10,
        theta=rng.uniform(15, 25, n + 1),
        u_bat=rng.uniform(350, 400, n + 1),
    )
    samples = RawSamples(
        t_s=grid.instants() - grid.t0,
        p_kw=np.append(ev.p, ev.p[-1]),
        e_kwh=ev.e,
        theta_c=ev.theta,
        u_bat_v=ev.u_bat,
    )
    again = discretize_event(samples, dt_min=5.0)
    assert np.allclose(again.p, ev.p)
    assert np.allclose(again.e, ev.e)
    assert np.allclose(again.theta, ev.theta)


def test_event_length_invariants():
    grid = TimeGrid(t0=0.0, n_intervals=3, dt_min=5.0)
    with pytest.raises(InvalidParameterError):
        ChargingEvent(grid=grid, p=np.zeros(2), e=np.zeros(4), theta=np.zeros(4), u_bat=np.zeros(4))
    with pytest.raises(InvalidParameterError):
        ChargingEvent(grid=grid, p=np.zeros(3), e=np.zeros(3), theta=np.zeros(4), u_bat=np.zeros(4))


def test_event_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    n = 5
    grid = TimeGrid(t0=1000.0, n_intervals=n, dt_min=5.0)
    ev = ChargingEvent(
        grid=grid,
        p=rng.uniform(0, 30, n),
        e=np.linspace(20, 30, n + 1),
        theta=rng.uniform(18, 22, n + 1),
        u_bat=rng.uniform(350, 380, n + 1),
        soh0=0.97,
    )
    path = tmp_path / "event.csv"
    save_event_csv(ev, path)
    back = load_event_csv(path, dt_min=5.0, t0=1000.0, soh0=0.97)
    assert back.grid.n_intervals == n
    assert np.allclose(back.p, ev.p)
    assert np.allclose(back.e, ev.e)
    assert np.allclose(back.theta, ev.theta)
    assert back.soh0 == 0.97


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_samples_csv_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"t_s,p_kw,e_kwh,theta_c,u_bat_v\n0,1,20,20,360\n300,1,{value},20,360\n")
    with pytest.raises(InvalidParameterError, match="non-finite e_kwh in data row 2"):
        load_samples_csv(path)


@pytest.mark.parametrize(
    "e_kwh, theta_c",
    [("-0.5", "20"), ("20", "-40.5"), ("20", "80.5"), ("20", "1e200"), ("20", "-1e200")],
)
def test_samples_csv_rejects_a_state_no_battery_can_hold(tmp_path, e_kwh, theta_c):
    path = tmp_path / "bad.csv"
    path.write_text(f"t_s,p_kw,e_kwh,theta_c,u_bat_v\n0,1,20,20,360\n300,1,{e_kwh},{theta_c},360\n")
    with pytest.raises(InvalidParameterError, match=re.escape(f"theta_c {float(theta_c)!r} in data row 2")):
        load_samples_csv(path)


def test_samples_csv_accepts_the_edges_of_the_physical_range(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("t_s,p_kw,e_kwh,theta_c,u_bat_v\n0,1,0,-40,360\n300,1,0,80,360\n")
    assert load_samples_csv(path).theta_c.tolist() == [-40.0, 80.0]


def test_samples_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,p_kw\n0,1\n")
    with pytest.raises(InvalidParameterError):
        load_samples_csv(path)


_SAMPLES_HEADER = "t_s,p_kw,e_kwh,theta_c,u_bat_v"


@pytest.mark.parametrize(
    "text, message",
    [
        # fewer fields than the header
        (f"{_SAMPLES_HEADER}\n0,1,20,20,360\n300,1,20,20\n", "data row 2 has 4 fields, the header 5: no value for column 'u_bat_v'"),
        (f"{_SAMPLES_HEADER}\n0,1\n", "data row 1 has 2 fields, the header 5: no value for column 'e_kwh'"),
        # more fields than the header
        (f"{_SAMPLES_HEADER}\n0,1,20,20,360\n300,1,20,20,360,7\n", "data row 2 has 6 fields, the header 5: column 6 has no header"),
        # a row that lacks only the cell of an extra named column
        (f"{_SAMPLES_HEADER},note\n0,1,20,20,360,a\n300,1,20,20,360\n", "data row 2 has 5 fields, the header 6: no value for column 'note'"),
        (f"{_SAMPLES_HEADER}\n0,1,20,20,360\n300,abc,20,20,360\n", "has 'abc' for p_kw in data row 2, need a number"),
        (f"{_SAMPLES_HEADER}\n0,1,,20,360\n", "has '' for e_kwh in data row 1, need a number"),
    ],
    ids=["short", "two-fields", "long", "short-extra-column", "non-numeric", "empty-cell"],
)
def test_samples_csv_rejects_a_malformed_row(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidParameterError, match=re.escape(f"event CSV {path} ") + ".*" + re.escape(message)):
        load_samples_csv(path)


def test_samples_csv_accepts_a_reordered_header_extra_columns_and_blank_lines(tmp_path):
    path = tmp_path / "reordered.csv"
    path.write_text("note,u_bat_v,theta_c,e_kwh,p_kw,t_s,spare\nfirst,360,20,20,1,0,\n\nabc,361,21,22,2,300,x\n")
    samples = load_samples_csv(path)
    assert samples.t_s.tolist() == [0.0, 300.0]
    assert samples.p_kw.tolist() == [1.0, 2.0]
    assert samples.e_kwh.tolist() == [20.0, 22.0]
    assert samples.theta_c.tolist() == [20.0, 21.0]
    assert samples.u_bat_v.tolist() == [360.0, 361.0]
