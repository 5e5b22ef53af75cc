"""Cyclic and calendar fade, equivalent age, aging cost."""

from dataclasses import replace

import numpy as np
import pytest

from chargeopt.aging import (
    SECONDS_PER_YEAR,
    AgingParams,
    aging_cost,
    calendar_fade,
    cyclic_fade,
    default_params,
    equivalent_age,
    load_params_json,
    save_params_json,
)
from chargeopt.errors import InvalidParameterError


def test_cyclic_fade_examples():
    p = default_params()
    assert cyclic_fade(p, 0.0) == 0.0
    assert cyclic_fade(p, -3.0) == pytest.approx(5.001e-6, rel=1e-9)
    assert cyclic_fade(p, 2.921) == cyclic_fade(p, -2.921)


def test_cyclic_fade_additive_when_linear():
    p = default_params()  # beta_b = 1
    assert cyclic_fade(p, 1.3) + cyclic_fade(p, 1.7) == pytest.approx(cyclic_fade(p, 3.0))


def test_equivalent_age_zero_at_full_health():
    p = default_params()
    assert equivalent_age(p, 25.0, 40.0, 1.0) == 0.0


def test_equivalent_age_power_law():
    p = default_params()  # beta_f = 0.5
    t1 = equivalent_age(p, 25.0, 40.0, 1.0 - 0.01)
    t4 = equivalent_age(p, 25.0, 40.0, 1.0 - 0.04)
    assert t4 / t1 == pytest.approx(16.0, rel=1e-9)


def test_equivalent_age_calibration_is_one_year():
    # by construction 2.5% fade at 25 degC / 40 kWh corresponds to one year
    p = default_params()
    tau = equivalent_age(p, 25.0, 40.0, 0.975)
    assert tau == pytest.approx(SECONDS_PER_YEAR, rel=1e-9)


def test_calendar_fade_zero_at_zero_dt():
    p = default_params()
    assert calendar_fade(p, 25.0, 40.0, 0.975, 0.0) == 0.0


def test_calendar_fade_closed_form_at_full_health():
    p = default_params()
    theta, e = 21.0, 30.0
    expected = p.beta_c * np.exp(p.beta_d / (273.0 + theta) + p.beta_e * e) * 300.0**p.beta_f
    assert calendar_fade(p, theta, e, 1.0, 5.0) == pytest.approx(expected, rel=1e-12)


def test_calendar_fade_hotter_is_worse():
    p = default_params()
    assert calendar_fade(p, 35.0, 40.0, 0.975, 5.0) > calendar_fade(p, 25.0, 40.0, 0.975, 5.0)


def test_calendar_fade_split_additivity():
    p = default_params()
    theta, e, h0 = 25.0, 40.0, 0.975
    whole = calendar_fade(p, theta, e, h0, 7.0)
    first = calendar_fade(p, theta, e, h0, 3.0)
    second = calendar_fade(p, theta, e, h0 - first, 4.0)
    assert first + second == pytest.approx(whole, abs=1e-12)


def test_fades_non_negative():
    p = default_params()
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = rng.uniform(-25, 60)
        e = rng.uniform(0, 80)
        h0 = rng.uniform(0.8, 1.0)
        dt = rng.uniform(0, 30)
        assert calendar_fade(p, theta, e, h0, dt) >= 0.0
        assert cyclic_fade(p, rng.uniform(-5, 5)) >= 0.0


@pytest.mark.parametrize("beta_b, beta_f", [(1.0, 0.5), (0.5, 0.5), (1.3, 0.7)])
def test_aging_cost_has_the_same_bits_for_a_scalar_a_row_and_a_row_in_a_batch(beta_b, beta_f):
    p = replace(default_params(), beta_b=beta_b, beta_f=beta_f)
    rng = np.random.default_rng(17)
    for _ in range(8):
        rows = 500
        delta_e = rng.uniform(-4.0, 4.0, rows)
        theta = rng.uniform(-25.0, 60.0, rows)
        e = rng.uniform(0.0, 80.0, rows)
        h0 = rng.uniform(0.8, 1.0)
        dt = rng.uniform(0.5, 30.0)
        batch = np.stack(aging_cost(p, delta_e, theta, e, h0, dt))
        for k in range(rows):
            scalar = np.array(aging_cost(p, float(delta_e[k]), float(theta[k]), float(e[k]), h0, dt))
            one_row = np.concatenate(aging_cost(p, delta_e[k : k + 1], theta[k : k + 1], e[k : k + 1], h0, dt))
            assert scalar.tobytes() == batch[:, k].tobytes()
            assert one_row.tobytes() == batch[:, k].tobytes()


def test_aging_cost_scale():
    p = default_params()
    assert p.cost_per_fade == pytest.approx(30400.0)  # 6080 EUR / 20%
    j_cyc, _ = aging_cost(p, -3.0, 25.0, 40.0, 1.0, 0.0)
    assert j_cyc == pytest.approx(0.15203, abs=1e-5)
    j_cyc0, j_cal0 = aging_cost(p, 0.0, 25.0, 40.0, 1.0, 0.0)
    assert j_cyc0 == 0.0
    assert j_cal0 == 0.0


def test_aging_cost_linear_in_value():
    p = default_params()
    half = p.with_value(p.v_ev_eur / 2)
    j1 = aging_cost(p, 2.0, 25.0, 40.0, 0.975, 5.0)
    j2 = aging_cost(half, 2.0, 25.0, 40.0, 0.975, 5.0)
    assert j2[0] == pytest.approx(j1[0] / 2, rel=1e-12)
    assert j2[1] == pytest.approx(j1[1] / 2, rel=1e-12)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        AgingParams(beta_a=1e-6, beta_b=1.0, beta_c=1.0, beta_d=-5000, beta_e=0.006, beta_f=1.5)


def test_params_json_round_trip(tmp_path):
    p = default_params()
    path = tmp_path / "aging.json"
    save_params_json(p, path)
    back = load_params_json(path)
    assert back == p
