"""Price supplementation, profile averaging, gamma scaling, hourly lookup."""

import numpy as np
import pytest

from chargeopt.core import TimeGrid
from chargeopt.errors import InvalidParameterError
from chargeopt.tariff import (
    PriceProfile,
    average_profiles,
    default_profiles,
    interval_prices,
    load_market_csv,
    load_profile_csv,
    save_profile_csv,
    scale_gamma,
    supplement,
)


def test_supplement_values():
    out = supplement(np.zeros(24))
    assert out[0] == pytest.approx(0.22372)
    out = supplement(np.full(24, 0.05))
    assert out[0] == pytest.approx(0.28322)
    raw = np.linspace(0.02, 0.08, 24)
    assert np.allclose(supplement(raw, fee=0.0, tax=0.0), raw)


def test_supplement_monotone():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 0.1, 24)
    b = a + rng.uniform(0, 0.05, 24)
    assert np.all(supplement(a) <= supplement(b))


def _year_history(price_fn):
    """Hourly timestamps for 2018 with prices from price_fn(weekday, hour)."""
    t0 = 1514764800.0  # 2018-01-01 00:00 UTC, a Monday
    ts, pr = [], []
    for day in range(60):
        for hour in range(24):
            ts.append(t0 + day * 86400 + hour * 3600)
            pr.append(price_fn((day % 7), hour))
    return np.array(ts), np.array(pr)


def test_average_profiles_constant():
    ts, pr = _year_history(lambda wd, h: 0.30)
    workday, weekend = average_profiles(ts, pr)
    assert np.allclose(workday.eps_buy, 0.30)
    assert np.allclose(weekend.eps_buy, 0.30)
    assert np.allclose(workday.eps_sell, workday.eps_buy)


def test_average_profiles_hourly_mean():
    # alternate 0.2 / 0.4 at hour 12 on workdays
    counter = {"n": 0}

    def fn(wd, h):
        if wd < 5 and h == 12:
            counter["n"] += 1
            return 0.2 if counter["n"] % 2 else 0.4
        return 0.1

    ts, pr = _year_history(fn)
    workday, _ = average_profiles(ts, pr)
    assert workday.eps_buy[12] == pytest.approx(0.3)


def test_average_profiles_weekend_discount():
    ts, pr = _year_history(lambda wd, h: (0.2 + 0.01 * h) * (0.9 if wd >= 5 else 1.0))
    workday, weekend = average_profiles(ts, pr)
    assert np.allclose(weekend.eps_buy, 0.9 * workday.eps_buy)


def test_average_profiles_requires_coverage():
    ts = np.array([1514764800.0])  # a single Monday-hour sample
    with pytest.raises(InvalidParameterError):
        average_profiles(ts, np.array([0.3]))


def test_scale_gamma():
    buy = np.full(24, 0.28322)
    p = PriceProfile(buy, buy.copy())
    assert np.allclose(scale_gamma(p, 1.0).eps_sell, p.eps_buy)
    assert scale_gamma(p, 1.8).eps_sell[0] == pytest.approx(0.509796)
    assert np.allclose(scale_gamma(p, 0.5).eps_sell, 0.5 * buy)
    with pytest.raises(InvalidParameterError):
        scale_gamma(p, 0.0)


def test_interval_priced_at_start_hour():
    buy = np.arange(24, dtype=float) / 100.0
    p = PriceProfile(buy, buy.copy())
    # one 5-min interval spanning 13:58-14:03 takes hour 13's price
    grid = TimeGrid(t0=13 * 3600 + 58 * 60.0, n_intervals=1, dt_min=5.0)
    eps_buy, _ = interval_prices(p, grid)
    assert eps_buy[0] == pytest.approx(0.13)


def test_price_at_hour_boundaries():
    buy = np.arange(24, dtype=float) / 100.0
    p = PriceProfile(buy, buy.copy())
    assert interval_prices(p, TimeGrid(t0=1800.0, n_intervals=1, dt_min=5.0))[0][0] == 0.0  # 00:30
    late = TimeGrid(t0=23 * 3600 + 59 * 60.0, n_intervals=1, dt_min=1.0)
    assert interval_prices(p, late)[0][0] == pytest.approx(0.23)
    # piecewise constant within each hour with exactly 24 breakpoints
    eps_buy, _ = interval_prices(p, TimeGrid(t0=0.0, n_intervals=288, dt_min=5.0))
    assert len(np.unique(eps_buy)) == 24


def test_default_profiles_shape():
    workday, weekend = default_profiles()
    assert np.all(workday.eps_buy > 0.2)  # supplemented retail level
    assert np.allclose(workday.eps_sell, workday.eps_buy)
    assert np.all(weekend.eps_buy < workday.eps_buy)
    spread = workday.eps_buy.max() / workday.eps_buy.min()
    assert spread > 1.1  # enough intra-day variation for arbitrage studies


def test_profile_csv_round_trip(tmp_path):
    workday = scale_gamma(default_profiles()[0], 1.7)
    path = tmp_path / "profile.csv"
    save_profile_csv(workday, path)
    back = load_profile_csv(path)
    assert np.allclose(back.eps_buy, workday.eps_buy)
    assert np.allclose(back.eps_sell, workday.eps_sell)


@pytest.mark.parametrize(
    "hours, match",
    [
        ([*range(23), -1], "hour -1, outside 0-23"),
        ([*range(24), 24], "hour 24, outside 0-23"),
        ([*range(24), 5], "hour 5 twice"),
    ],
    ids=["negative", "past-23", "duplicate"],
)
def test_profile_csv_rejects_bad_hours(tmp_path, hours, match):
    path = tmp_path / "profile.csv"
    path.write_text("hour,eps_buy,eps_sell\n" + "".join(f"{h},0.3,0.1\n" for h in hours))
    with pytest.raises(InvalidParameterError, match=match):
        load_profile_csv(path)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_profile_csv_rejects_a_non_finite_price(tmp_path, value):
    path = tmp_path / "profile.csv"
    rows = [f"{h},0.3,0.1\n" for h in range(24)]
    rows[7] = f"7,{value},0.1\n"
    path.write_text("hour,eps_buy,eps_sell\n" + "".join(rows))
    with pytest.raises(InvalidParameterError, match="non-finite price at hour 7"):
        load_profile_csv(path)
    with pytest.raises(InvalidParameterError, match="finite"):
        PriceProfile(np.where(np.arange(24) == 7, float(value), 0.3), np.full(24, 0.1))


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_market_csv_rejects_a_non_finite_price(tmp_path, value):
    path = tmp_path / "market.csv"
    path.write_text(
        "timestamp_iso8601,price_eur_per_kwh\n"
        "2018-01-01T00:00:00+00:00,0.031\n"
        f"2018-01-01T01:00:00+00:00,{value}\n"
    )
    with pytest.raises(InvalidParameterError, match="non-finite price"):
        load_market_csv(path)


def test_market_csv(tmp_path):
    path = tmp_path / "market.csv"
    path.write_text(
        "timestamp_iso8601,price_eur_per_kwh\n"
        "2018-01-01T00:00:00+00:00,0.031\n"
        "2018-01-01T01:00:00+00:00,0.029\n"
    )
    ts, pr = load_market_csv(path)
    assert len(ts) == 2
    assert pr[1] == 0.029
    assert ts[1] - ts[0] == 3600.0
