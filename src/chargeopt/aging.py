"""Battery degradation: cyclic and calendar fade, aging cost.

Cyclic fade grows with absolute energy throughput; calendar fade follows
Arrhenius-type kinetics in temperature and stored energy. To keep calendar
increments consistent between time steps, the battery's existing fade
(1 - H_0) is converted to an equivalent age tau at the current conditions
and the increment over dt is F(tau + dt) - F(tau), which is exactly zero at
dt = 0. All functions are pure, broadcast over arrays and are
batch-invariant: a state has the same bits as a scalar and inside any
array. Powers therefore go through np.power, which takes one path for both;
the ** operator on a NumPy scalar calls libm pow, which differs in the last
bit from the sqrt and square an array takes for the exponents 0.5 and 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import check_keys
from .errors import InvalidParameterError

SECONDS_PER_YEAR = 365 * 24 * 3600  # 31_536_000


@dataclass(frozen=True)
class AgingParams:
    """Degradation coefficients plus battery value-loss economics.

    beta_a (1/kWh^beta_b) and beta_b scale cyclic fade; beta_c (1/s^beta_f),
    beta_d (K), beta_e (1/kWh) and beta_f parametrize calendar fade. v_ev_eur
    is the battery value loss over its first life, h_ev the total capacity
    fade over that life, so one unit of fade costs v_ev_eur / h_ev.
    """

    beta_a: float
    beta_b: float
    beta_c: float
    beta_d: float
    beta_e: float
    beta_f: float
    v_ev_eur: float = 6080.0
    h_ev: float = 0.20

    def __post_init__(self):
        if self.beta_a < 0 or self.beta_b <= 0 or self.beta_c <= 0:
            raise InvalidParameterError("beta_a >= 0, beta_b > 0, beta_c > 0 required")
        if not 0.0 < self.beta_f <= 1.0:
            raise InvalidParameterError(f"beta_f must be in (0, 1], got {self.beta_f}")
        if not 0.0 < self.h_ev < 1.0:
            raise InvalidParameterError(f"h_ev must be in (0, 1), got {self.h_ev}")
        if self.v_ev_eur < 0:
            raise InvalidParameterError("v_ev_eur must be >= 0")

    @property
    def cost_per_fade(self) -> float:
        """EUR per unit capacity fade."""
        return self.v_ev_eur / self.h_ev

    def with_value(self, v_ev_eur: float) -> "AgingParams":
        return replace(self, v_ev_eur=v_ev_eur)


def default_params() -> AgingParams:
    """Calibrated defaults (cell-test coefficients are vendor-confidential).

    Cyclic: 20% fade over 120,000 kWh throughput, linear in throughput.
    Calendar: 2.5% fade in one year at 25 degC and 40 kWh stored, sqrt-of-time
    kinetics; beta_c solves the calibration target in closed form.
    """
    beta_d = -5000.0
    beta_e = 0.00625
    beta_f = 0.5
    beta_c = 0.025 / (math.exp(beta_d / 298.0 + beta_e * 40.0) * SECONDS_PER_YEAR**beta_f)
    return AgingParams(
        beta_a=1.667e-6,
        beta_b=1.0,
        beta_c=beta_c,
        beta_d=beta_d,
        beta_e=beta_e,
        beta_f=beta_f,
        v_ev_eur=6080.0,
        h_ev=0.20,
    )


def cyclic_fade(params: AgingParams, delta_e):
    """Capacity fade fraction from one interval's energy throughput.

    Depends only on |delta_e|, so charging and discharging age equally.
    """
    return params.beta_a * np.power(np.abs(np.asarray(delta_e, float)), params.beta_b)


def _stress(params: AgingParams, theta, e):
    """Arrhenius stress factor beta_c * exp(beta_d/(273+theta) + beta_e*e).

    The 273 offset (not 273.15) is kept as calibrated.
    """
    return params.beta_c * np.exp(
        params.beta_d / (273.0 + np.asarray(theta, float)) + params.beta_e * np.asarray(e, float)
    )


def equivalent_age(params: AgingParams, theta, e, h0: float):
    """Storage time in seconds at (theta, e) that explains the fade 1 - h0."""
    return _age(params, _stress(params, theta, e), h0)


def _age(params: AgingParams, stress, h0: float):
    """equivalent_age from the stress factor at (theta, e)."""
    if not 0.0 < h0 <= 1.0:
        raise InvalidParameterError(f"h0 must be in (0, 1], got {h0}")
    return np.power((1.0 - h0) / stress, 1.0 / params.beta_f)


def calendar_fade(params: AgingParams, theta, e, h0: float, dt_min: float):
    """Calendar fade fraction over an interval of dt_min minutes.

    Incremental form F(tau + dt) - F(tau) with F(t) = stress * t^beta_f and
    F(tau) = 1 - h0; fade is >= 0 and exactly 0 at dt = 0.
    """
    if dt_min < 0:
        raise InvalidParameterError(f"dt must be >= 0, got {dt_min}")
    if dt_min == 0:
        return np.zeros(np.broadcast(np.asarray(theta), np.asarray(e)).shape) if (
            np.ndim(theta) or np.ndim(e)
        ) else 0.0
    stress = _stress(params, theta, e)
    fade = stress * np.power(dt_min * 60.0 + _age(params, stress, h0), params.beta_f) - (1.0 - h0)
    return fade if np.ndim(fade) else float(fade)


def aging_cost(
    params: AgingParams, delta_e, theta, e, h0: float, dt_min: float
) -> tuple[float, float]:
    """(cyclic, calendar) aging cost in EUR for one interval."""
    scale = params.cost_per_fade
    j_cyc = cyclic_fade(params, delta_e) * scale
    j_cal = calendar_fade(params, theta, e, h0, dt_min) * scale
    if np.ndim(j_cyc) or np.ndim(j_cal):
        return j_cyc, j_cal
    return float(j_cyc), float(j_cal)


AGING_JSON_KEYS = ("beta_a", "beta_b", "beta_c", "beta_d", "beta_e", "beta_f", "v_ev_eur", "h_ev")


def save_params_json(params: AgingParams, path) -> None:
    with open(path, "w") as fh:
        json.dump({k: getattr(params, k) for k in AGING_JSON_KEYS}, fh, indent=2)
        fh.write("\n")


def load_params_json(path) -> AgingParams:
    with open(path) as fh:
        data = json.load(fh)
    missing = set(AGING_JSON_KEYS) - set(data)
    if missing:
        raise InvalidParameterError(f"aging params file {path} missing keys {sorted(missing)}")
    check_keys(data, AGING_JSON_KEYS, f"aging params file {path}")
    return AgingParams(**{k: float(data[k]) for k in AGING_JSON_KEYS})
