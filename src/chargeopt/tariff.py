"""Electricity price profiles: supplementation, averaging, gamma scaling.

Buy and sell prices are 24 hourly values in EUR/kWh, piecewise constant
within each hour. An interval is priced at the hour containing its start.
Profiles are immutable; all lookups are pure and thread-safe.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .core import TimeGrid
from .errors import InvalidParameterError

DEFAULT_FEE_EUR_PER_KWH = 0.188
DEFAULT_TAX_RATE = 0.19


@dataclass(frozen=True)
class PriceProfile:
    """Hourly buy/sell prices in EUR/kWh over one characteristic day."""

    eps_buy: np.ndarray
    eps_sell: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        for name, arr in (("eps_buy", self.eps_buy), ("eps_sell", self.eps_sell)):
            a = np.asarray(arr, float)
            if a.shape != (24,):
                raise InvalidParameterError(f"{name} must have 24 hourly values, got shape {a.shape}")
            if not np.all(np.isfinite(a)) or np.any(a < 0):
                raise InvalidParameterError(f"{name} must be finite and non-negative")


def supplement(
    raw_market: np.ndarray,
    fee: float = DEFAULT_FEE_EUR_PER_KWH,
    tax: float = DEFAULT_TAX_RATE,
) -> np.ndarray:
    """Retail price per hour: (market + fee) * (1 + tax), VAT-style."""
    raw = np.asarray(raw_market, float)
    if np.any(raw < 0):
        raise InvalidParameterError("market prices must be non-negative")
    return (raw + fee) * (1.0 + tax)


def average_profiles(timestamps, prices) -> tuple[PriceProfile, PriceProfile]:
    """Average an hourly price history into workday and weekend profiles.

    timestamps are epoch seconds; hours are classified by UTC hour-of-day
    and Mon-Fri vs Sat-Sun. Sell prices are initialized equal to buy prices.
    Every hour of day needs at least one sample in each class.
    """
    ts = np.asarray(timestamps, float)
    pr = np.asarray(prices, float)
    if ts.shape != pr.shape or ts.ndim != 1 or ts.size == 0:
        raise InvalidParameterError("timestamps and prices must be equal-length 1-D arrays")
    sums = np.zeros((2, 24))
    counts = np.zeros((2, 24), dtype=int)
    for t, p in zip(ts, pr):
        d = datetime.fromtimestamp(t, tz=timezone.utc)
        cls = 0 if d.weekday() < 5 else 1
        sums[cls, d.hour] += p
        counts[cls, d.hour] += 1
    if np.any(counts == 0):
        missing = [(("workday", "weekend")[c], h) for c in range(2) for h in range(24) if counts[c, h] == 0]
        raise InvalidParameterError(f"price history lacks coverage for {missing[:5]}...")
    means = sums / counts
    workday = PriceProfile(means[0].copy(), means[0].copy(), label="workday")
    weekend = PriceProfile(means[1].copy(), means[1].copy(), label="weekend")
    return workday, weekend


def scale_gamma(profile: PriceProfile, gamma: float) -> PriceProfile:
    """Set sell prices to gamma times the buy prices; buy prices unchanged."""
    if gamma <= 0:
        raise InvalidParameterError(f"gamma must be positive, got {gamma}")
    return PriceProfile(profile.eps_buy.copy(), gamma * np.asarray(profile.eps_buy, float), profile.label)


def interval_prices(profile: PriceProfile, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval (eps_buy, eps_sell), priced at each interval's start hour."""
    starts = grid.interval_starts()
    hours = (np.floor(starts / 3600.0).astype(np.int64)) % 24
    return np.asarray(profile.eps_buy, float)[hours], np.asarray(profile.eps_sell, float)[hours]


# Synthetic hourly day-ahead market shape (EUR/kWh) with a morning ramp and an
# evening peak; stands in for a year of historical prices at desk scale.
DEFAULT_MARKET_SHAPE = np.array(
    [
        0.031, 0.029, 0.028, 0.027, 0.028, 0.032,
        0.041, 0.052, 0.057, 0.053, 0.048, 0.045,
        0.043, 0.042, 0.041, 0.043, 0.047, 0.054,
        0.062, 0.065, 0.058, 0.049, 0.041, 0.035,
    ]
)


def default_profiles() -> tuple[PriceProfile, PriceProfile]:
    """(workday, weekend) supplemented retail profiles; weekend 10% cheaper
    at the market stage. Sell prices equal the buy prices."""
    workday_buy = supplement(DEFAULT_MARKET_SHAPE)
    weekend_buy = supplement(0.9 * DEFAULT_MARKET_SHAPE)
    return (
        PriceProfile(workday_buy, workday_buy.copy(), "workday"),
        PriceProfile(weekend_buy, weekend_buy.copy(), "weekend"),
    )


def profile_for_time(t_epoch: float, workday: PriceProfile, weekend: PriceProfile) -> PriceProfile:
    """Pick the workday or weekend profile by the UTC weekday of t_epoch."""
    d = datetime.fromtimestamp(t_epoch, tz=timezone.utc)
    return workday if d.weekday() < 5 else weekend


MARKET_CSV_HEADER = ["timestamp_iso8601", "price_eur_per_kwh"]
PROFILE_CSV_HEADER = ["hour", "eps_buy", "eps_sell"]


def load_market_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an hourly market history; returns (epoch seconds, EUR/kWh)."""
    ts, pr = [], []
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        missing = set(MARKET_CSV_HEADER) - set(r.fieldnames or [])
        if missing:
            raise InvalidParameterError(f"market CSV {path} missing columns {sorted(missing)}")
        for row in r:
            d = datetime.fromisoformat(row["timestamp_iso8601"])
            if d.tzinfo is None:
                d = d.replace(tzinfo=timezone.utc)
            ts.append(d.timestamp())
            pr.append(float(row["price_eur_per_kwh"]))
    if not ts:
        raise InvalidParameterError(f"market CSV {path} has no data rows")
    if not np.all(np.isfinite(pr)):
        raise InvalidParameterError(f"market CSV {path} has a non-finite price")
    return np.asarray(ts), np.asarray(pr)


def save_profile_csv(profile: PriceProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PROFILE_CSV_HEADER)
        for h in range(24):
            w.writerow([h, repr(float(profile.eps_buy[h])), repr(float(profile.eps_sell[h]))])


def load_profile_csv(path, label: str = "custom") -> PriceProfile:
    """Read a profile with one row per hour 0-23, each hour exactly once."""
    buy = np.full(24, np.nan)
    sell = np.full(24, np.nan)
    seen = set()
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        missing = set(PROFILE_CSV_HEADER) - set(r.fieldnames or [])
        if missing:
            raise InvalidParameterError(f"profile CSV {path} missing columns {sorted(missing)}")
        for row in r:
            h = int(row["hour"])
            if not 0 <= h < 24:
                raise InvalidParameterError(f"profile CSV {path} has hour {h}, outside 0-23")
            if h in seen:
                raise InvalidParameterError(f"profile CSV {path} has hour {h} twice")
            seen.add(h)
            buy[h] = float(row["eps_buy"])
            sell[h] = float(row["eps_sell"])
            if not (np.isfinite(buy[h]) and np.isfinite(sell[h])):
                raise InvalidParameterError(f"profile CSV {path} has a non-finite price at hour {h}")
    if np.any(np.isnan(buy)) or np.any(np.isnan(sell)):
        raise InvalidParameterError(f"profile CSV {path} does not cover all 24 hours")
    return PriceProfile(buy, sell, label)
