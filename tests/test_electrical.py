"""Equivalent-circuit model: current root, losses, energy throughput."""

import re

import numpy as np
import pytest
from conftest import numpy_reference, same_bits

from chargeopt.electrical import (
    EcmTables,
    battery_current,
    default_tables,
    energy_step,
    load_tables_csv,
    lookup_arrays,
    max_discharge_power,
    ohmic_loss,
    save_tables_csv,
)
from chargeopt.errors import InfeasiblePowerError, InvalidParameterError


def test_lookup_constant_field():
    t = EcmTables(
        e_axis=np.array([0.0, 80.0]),
        theta_axis=np.array([-25.0, 60.0]),
        u_ocv=np.full((2, 2), 360.0),
        r_i=np.full((2, 2), 0.1),
    )
    u, r = lookup_arrays(t, 33.3, 7.7)
    assert u == 360.0
    assert r == 0.1


def test_lookup_preserves_linearity():
    t = default_tables()  # u_ocv affine 300 V at 0 kWh to 420 V at 80 kWh
    u, _ = lookup_arrays(t, 40.0, 25.0)
    assert u == pytest.approx(360.0)


def test_lookup_bilinear_cell_center():
    t = EcmTables(
        e_axis=np.array([0.0, 10.0]),
        theta_axis=np.array([0.0, 10.0]),
        u_ocv=np.full((2, 2), 300.0),
        r_i=np.array([[0.10, 0.14], [0.12, 0.16]]),
    )
    _, r = lookup_arrays(t, 5.0, 5.0)
    assert r == pytest.approx(0.13)


def test_lookup_clamps_outside_hull():
    t = default_tables()
    u, r = lookup_arrays(t, np.array([80.0, 500.0]), np.array([60.0, 75.0]))
    assert (u[1], r[1]) == (u[0], r[0])


def test_tables_reject_non_monotone_axes():
    with pytest.raises(InvalidParameterError):
        EcmTables(
            e_axis=np.array([0.0, 0.0]),
            theta_axis=np.array([0.0, 10.0]),
            u_ocv=np.full((2, 2), 300.0),
            r_i=np.full((2, 2), 0.1),
        )


def test_battery_current_examples():
    assert battery_current(360.0, 0.1, 0.0) == 0.0
    assert battery_current(360.0, 0.1, 36.0) == pytest.approx(97.3666, abs=1e-4)
    assert battery_current(360.0, 0.1, -36.0) == pytest.approx(-102.9437, abs=1e-4)
    # power balance at the discharge example: (360 - 10.2944)*(-102.9437) ~ -36 kW
    i = battery_current(360.0, 0.1, -36.0)
    assert (360.0 + 0.1 * i) * i == pytest.approx(-36000.0, abs=1e-6)


def test_battery_current_infeasible_discharge():
    with pytest.raises(InfeasiblePowerError):
        battery_current(360.0, 0.1, -400.0)
    # the limit itself is feasible
    p_min = max_discharge_power(360.0, 0.1)
    battery_current(360.0, 0.1, p_min)


def test_ohmic_loss_examples():
    assert ohmic_loss(0.1, 0.0) == 0.0
    assert ohmic_loss(0.1, 97.3666) == pytest.approx(0.94803, abs=1e-5)
    assert ohmic_loss(0.1, -102.9437) == pytest.approx(1.05974, abs=1e-5)


def _tables_360() -> EcmTables:
    return EcmTables(
        e_axis=np.array([0.0, 80.0]),
        theta_axis=np.array([-25.0, 60.0]),
        u_ocv=np.full((2, 2), 360.0),
        r_i=np.full((2, 2), 0.1),
    )


def test_energy_step_examples():
    t = _tables_360()
    de0, _ = energy_step(t, 40.0, 25.0, 0.0, 5.0)
    assert de0 == 0.0
    de_chg, q_chg = energy_step(t, 40.0, 25.0, 36.0, 5.0)
    assert de_chg == pytest.approx(2.92100, abs=1e-5)
    assert q_chg == pytest.approx(0.94803, abs=1e-5)
    de_dis, q_dis = energy_step(t, 40.0, 25.0, -36.0, 5.0)
    assert de_dis == pytest.approx(-3.08831, abs=1e-5)
    assert q_dis == pytest.approx(1.05974, abs=1e-5)
    # losses shrink the gain while charging and grow the drain while discharging
    assert de_chg < 36.0 * 5.0 / 60.0
    assert abs(de_dis) > 36.0 * 5.0 / 60.0
    # the same steps as one broadcast call over a (states, powers) grid
    de, q = energy_step(t, np.array([[40.0], [40.0]]), 25.0, np.array([0.0, 36.0, -36.0]), 5.0)
    assert de.shape == q.shape == (2, 3)
    assert de[1].tolist() == [de0, de_chg, de_dis]
    assert q[0].tolist() == [0.0, q_chg, q_dis]


def test_power_balance_property():
    rng = np.random.default_rng(42)
    u = rng.uniform(300.0, 420.0, 1000)
    r = rng.uniform(0.05, 0.3, 1000)
    p = rng.uniform(-50.0, 50.0, 1000)
    p = np.maximum(p, max_discharge_power(u, r) + 1e-9)
    i = battery_current(u, r, p)
    u_bat = u + r * i
    assert np.all(np.abs(u_bat * i - p * 1000.0) <= 1e-6 * np.maximum(1.0, np.abs(p * 1000.0)))
    # residual of the quadratic the current solves, in W
    residual = r * i**2 + u * i - p * 1000.0
    assert np.all(np.abs(residual) <= 1e-9 * np.maximum(1.0, np.abs(p * 1000.0)))
    # returned root is the greater one
    disc = np.sqrt(u**2 + 4 * r * p * 1000.0)
    other = (-u - disc) / (2 * r)
    assert np.all(i > other)


def test_delta_e_monotone_in_power():
    des, _ = energy_step(_tables_360(), 40.0, 25.0, np.linspace(-40, 50, 91), 5.0)
    assert np.all(np.diff(des) > 0)


def test_round_trip_loss_bisection():
    t = _tables_360()
    de, _ = energy_step(t, 40.0, 25.0, 36.0, 5.0)
    lo, hi = -40.0, 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if energy_step(t, 40.0, 25.0, mid, 5.0)[0] > -de:
            hi = mid
        else:
            lo = mid
    p_dis = 0.5 * (lo + hi)
    energy_in = 36.0 * 5.0 / 60.0
    energy_out = -p_dis * 5.0 / 60.0
    assert energy_out < energy_in  # round-trip efficiency strictly below 1


def test_tables_csv_round_trip(tmp_path):
    t = default_tables()
    path = tmp_path / "ecm.csv"
    save_tables_csv(t, path)
    back = load_tables_csv(path)
    assert np.allclose(back.e_axis, t.e_axis)
    assert np.allclose(back.theta_axis, t.theta_axis)
    assert np.allclose(back.u_ocv, t.u_ocv)
    assert np.allclose(back.r_i, t.r_i)


def test_tables_csv_rejects_ragged(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "e_kwh,theta_c,u_ocv_v,r_i_ohm\n0,0,300,0.1\n0,10,300,0.1\n10,0,310,0.1\n"
    )
    with pytest.raises(InvalidParameterError):
        load_tables_csv(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0,300,0.1\n0,25,300,inf\n80,0,420,0.1\n80,25,420,0.1\n", "r_i must be positive and finite"),
        ("0,0,300,0.1\n0,25,inf,0.1\n80,0,420,0.1\n80,25,420,0.1\n", "u_ocv must be positive and finite"),
        ("0,0,300,0.1\n0,inf,300,0.1\n80,0,420,0.1\n80,inf,420,0.1\n", "theta_axis must be finite"),
        ("0,0,300,0.1\n0,25,300,0.1\n-inf,0,420,0.1\n-inf,25,420,0.1\n", "e_axis must be finite"),
    ],
)
def test_tables_csv_rejects_non_finite_values(tmp_path, rows, message):
    # an r_i of inf used to load, and energy_step then returned (nan, nan)
    path = tmp_path / "ecm.csv"
    path.write_text("e_kwh,theta_c,u_ocv_v,r_i_ohm\n" + rows)
    with pytest.raises(InvalidParameterError, match=message):
        load_tables_csv(path)


_ECM_HEADER = "e_kwh,theta_c,u_ocv_v,r_i_ohm"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0,300,0.1\n0,25,300\n", "data row 2 has 3 fields, the header 4: no value for column 'r_i_ohm'"),
        ("0,0,300,0.1\n0,25,300,0.1,7\n", "data row 2 has 5 fields, the header 4: column 5 has no header"),
        ("0,0,300,0.1\n0,25,volts,0.1\n", "has 'volts' for u_ocv_v in data row 2, need a number"),
    ],
    ids=["short", "long", "non-numeric"],
)
def test_tables_csv_rejects_a_malformed_row(tmp_path, rows, message):
    # a short row used to raise TypeError from float(None), and a long row to load
    path = tmp_path / "ecm.csv"
    path.write_text(f"{_ECM_HEADER}\n{rows}80,0,420,0.1\n80,25,420,0.1\n")
    with pytest.raises(InvalidParameterError, match=re.escape(f"lookup CSV {path} ") + ".*" + re.escape(message)):
        load_tables_csv(path)


def test_lookup_arrays_matches_scalar():
    t = default_tables()
    rng = np.random.default_rng(7)
    es = rng.uniform(0, 80, 50)
    ths = rng.uniform(-25, 60, 50)
    u_vec, r_vec = lookup_arrays(t, es, ths)
    for e, th, uv, rv in zip(es, ths, u_vec, r_vec):
        u, r = lookup_arrays(t, e, th)
        assert u == uv
        assert r == rv


def _random_tables(seed):
    rng = np.random.default_rng(seed)
    e_axis = np.sort(rng.choice(np.arange(0.0, 81.0), size=7, replace=False))
    theta_axis = np.sort(rng.choice(np.arange(-25.0, 61.0), size=5, replace=False))
    shape = (len(e_axis), len(theta_axis))
    return EcmTables(e_axis, theta_axis, rng.uniform(300.0, 420.0, shape), rng.uniform(0.05, 0.3, shape))


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 1001])
def test_a_row_of_any_batch_equals_its_one_row_call(rows):
    # validate_models and the solver's forward loop step many rollouts in one
    # energy_step call and rely on these bits
    t = _random_tables(rows)
    rng = np.random.default_rng(rows)
    e = rng.uniform(-5.0, 85.0, rows)  # some beyond the table hull, where the lookup clamps
    e[::3] = rng.choice(t.e_axis, len(e[::3]))  # some exactly on grid nodes
    theta = rng.uniform(-30.0, 65.0, rows)
    theta[1::3] = rng.choice(t.theta_axis, len(theta[1::3]))
    p = rng.uniform(-60.0, 60.0, rows)
    dt = rng.choice([1.0, 5.0, 15.0], rows)
    # every row again at other positions of a 2-D batch: shuffled in row 0, reversed in row 1
    order = rng.permutation(rows)
    stacked = [np.vstack([v[order], v[::-1]]) for v in (e, theta, p, dt)]
    batch = lookup_arrays(t, e, theta) + energy_step(t, e, theta, p, dt)
    batch_2d = lookup_arrays(t, *stacked[:2]) + energy_step(t, *stacked)
    position = np.argsort(order)
    for i in range(rows):
        one = lookup_arrays(t, e[i], theta[i]) + energy_step(t, e[i], theta[i], p[i], dt[i])
        assert isinstance(one[2], float) and isinstance(one[3], float)
        for v, b, b2 in zip(one, batch, batch_2d):
            bits = np.float64(v).tobytes()
            assert bits == b[i].tobytes() == b2[0, position[i]].tobytes() == b2[1, rows - 1 - i].tobytes(), f"row {i}"


def _state_draws(t, rows, seed):
    """States beyond and on the table hull and on its nodes, powers either way."""
    rng = np.random.default_rng(seed)
    e = rng.uniform(-5.0, 85.0, rows)
    e[::4] = rng.choice(t.e_axis, len(e[::4]))
    theta = rng.uniform(-30.0, 65.0, rows)
    theta[1::4] = rng.choice(t.theta_axis, len(theta[1::4]))
    return e, theta, rng.uniform(-60.0, 60.0, rows), rng.choice([1.0, 5.0, 15.0], rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_energy_step_has_the_bits_of_the_numpy_definition_on_random_draws(mlp_path, seed):
    t = _random_tables(seed)
    e, theta, p, dt = _state_draws(t, 2000, seed)
    for args in ((e, theta, p, dt), (e, theta, p, 5.0)):
        same_bits(energy_step(t, *args), numpy_reference(lambda: energy_step(t, *args)))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_energy_step_has_the_bits_of_the_numpy_definition_at_special_values(mlp_path):
    t = default_tables()
    specials = [0.0, -0.0, 80.0, -5.0, 85.0, 25.0, -25.0, 60.0, np.inf, -np.inf, np.nan, -np.nan]
    grid = np.array(np.meshgrid(specials, specials, [0.0, -0.0, 11.0, -11.0, np.nan], indexing="ij"))
    e, theta, p = (a.ravel() for a in grid)
    got = energy_step(t, e, theta, p, 5.0)
    same_bits(got, numpy_reference(lambda: energy_step(t, e, theta, p, 5.0)))
    # every NaN is np.nan, and states on and beyond the hull give finite steps
    assert np.isnan(got[0]).any() and np.isfinite(got[0]).any()
    assert {v.tobytes() for v in got[0][np.isnan(got[0])]} == {np.float64(np.nan).tobytes()}
    for row in range(len(e)):
        same_bits(energy_step(t, e[row], theta[row], p[row], 5.0), (float(got[0][row]), float(got[1][row])))
    nan_dt = (t, 0.0, 25.0, 11.0, np.nan)
    same_bits(energy_step(*nan_dt), numpy_reference(lambda: energy_step(*nan_dt)))


@pytest.mark.parametrize(
    "shapes",
    [
        ((), (), (), ()),  # 0-d: floats
        ((3, 1), (3, 1), (1, 4), ()),  # the transition table's (cells, actions)
        ((2, 5), (5,), (5,), (5,)),  # validate_models' lockstep rollouts, per-event dt
        ((5,), (2, 1, 5), (1,), (1, 1)),
        ((), (6,), (6,), ()),  # one energy, many temperatures: each element looks its own state up
        ((3,), (3,), (3,), (2, 3)),  # dt spans an axis of its own: so do both results
        ((2, 1), (2, 1), (1,), (3, 1, 4)),  # dt spans a leading axis and widens one of the state's
        ((0,), (0,), (0,), ()),
    ],
    ids=str,
)
def test_energy_step_broadcasts_as_the_numpy_definition(mlp_path, shapes):
    t = _random_tables(4)
    size = max(int(np.prod(s)) for s in shapes)
    e, theta, p, dt = (draw[:int(np.prod(s))].reshape(s) for draw, s in zip(_state_draws(t, size, 4), shapes))
    got = energy_step(t, e, theta, p, dt)
    same_bits(got, numpy_reference(lambda: energy_step(t, e, theta, p, dt)))
    assert np.shape(got[0]) == np.shape(got[1]) == np.broadcast_shapes(*shapes)
    if not any(shapes):
        assert all(isinstance(v, float) for v in got)
    # inputs with gaps between their elements and with negative strides read the same elements
    p_strided = np.repeat(p[..., None], 2, axis=-1)[..., 0]
    e_reversed = e[::-1].copy()[::-1] if e.ndim == 1 else e
    same_bits(energy_step(t, e_reversed, theta, p_strided, dt), got)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_an_infeasible_discharge_names_its_first_row_and_that_rows_limit(mlp_path, shape):
    t = default_tables()
    e = np.full(shape, 40.0)
    theta = np.linspace(-25.0, 60.0, e.size).reshape(shape)  # R_i, and so the limit, differ by row
    u, r = lookup_arrays(t, e, theta)
    limit = max_discharge_power(u, r)
    p = np.asarray(limit * 0.5)
    first = np.unravel_index(min(1, e.size - 1), shape)  # a cold row, whose limit is not the lowest
    p[first] = limit[first] * 1.01
    if e.size > 1:
        p.flat[-1] = limit.flat[-1] * 2.0  # a later row, with the lowest limit, beyond it too
    with pytest.raises(InfeasiblePowerError) as compiled:
        energy_step(t, e, theta, p, 5.0)
    with pytest.raises(InfeasiblePowerError) as reference:
        numpy_reference(lambda: energy_step(t, e, theta, p, 5.0))
    assert str(compiled.value) == str(reference.value)
    # a dt with an axis of its own: both paths name the element in the shape of all four inputs
    dt = np.full((2,) + shape, 5.0)
    with pytest.raises(InfeasiblePowerError) as compiled_dt:
        energy_step(t, e, theta, p, dt)
    with pytest.raises(InfeasiblePowerError) as reference_dt:
        numpy_reference(lambda: energy_step(t, e, theta, p, dt))
    assert str(compiled_dt.value) == str(reference_dt.value)
    where = "" if shape == () else f" at index {first[0] if len(shape) == 1 else tuple(int(i) for i in first)}"
    assert str(compiled.value) == (
        f"requested discharge power{where} exceeds maximum deliverable ({limit[first]:.3f} kW)"
    )
