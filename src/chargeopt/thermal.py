"""Per-interval battery temperature change: predictors and synthetic plant.

Three interchangeable predictors estimate the temperature change over one
interval: a constant baseline (always 0), a linear regression, and a small
multilayer perceptron. Features are the charging power, the Ohmic loss,
the energy throughput, and the battery temperature; absolute values of
power and throughput are applied here, in one place, because the charge
and discharge directions heat alike.

A lumped single-node thermal plant stands in for fleet measurements:
Ohmic losses heat the battery, convection cools it toward ambient with a
heat-transfer coefficient that grows with the temperature difference (the
mild nonlinearity that a linear regression cannot represent). Models are
immutable after training; prediction is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import electrical
from .core import BatteryState, ChargingEvent, TimeGrid
from .electrical import EcmTables
from .errors import InvalidParameterError

FEATURE_NAMES = ("p_abs", "q_loss", "delta_e_abs", "theta")

VARIANT_CONSTANT = "constant"
VARIANT_LINEAR = "linear"
VARIANT_MLP = "mlp"


def feature_matrix(p_kw, q_loss_kw, delta_e_kwh, theta) -> np.ndarray:
    """Stack features column-wise for a batch of intervals, shape (M, 4)."""
    return np.column_stack(
        [np.abs(p_kw), np.asarray(q_loss_kw, float), np.abs(delta_e_kwh), np.asarray(theta, float)]
    )


@dataclass(frozen=True)
class ThermalModel:
    """A trained temperature-change predictor.

    feature_names selects (by name) which of the four features the model
    consumes; means/stds are the normalization applied before the linear or
    MLP map. layers holds (weights, bias) pairs; hidden activations are
    sigmoid, the output unit is linear. The constant variant has no layers
    and predicts exactly 0.
    """

    variant: str
    feature_names: tuple = FEATURE_NAMES
    means: np.ndarray = field(default_factory=lambda: np.zeros(len(FEATURE_NAMES)))
    stds: np.ndarray = field(default_factory=lambda: np.ones(len(FEATURE_NAMES)))
    layers: tuple = ()

    def __post_init__(self):
        if self.variant not in (VARIANT_CONSTANT, VARIANT_LINEAR, VARIANT_MLP):
            raise InvalidParameterError(f"unknown thermal model variant {self.variant!r}")
        if self.variant != VARIANT_CONSTANT:
            f = len(self.feature_names)
            if len(self.means) != f or len(self.stds) != f:
                raise InvalidParameterError("normalization stats do not match feature count")
            if np.any(np.asarray(self.stds) == 0):
                raise InvalidParameterError("normalization stds must be nonzero")
            if not self.layers:
                raise InvalidParameterError(f"{self.variant} model needs at least one layer")
            if self.layers[0][0].shape[0] != f:
                raise InvalidParameterError("first layer width does not match feature count")


def constant_model() -> ThermalModel:
    return ThermalModel(variant=VARIANT_CONSTANT)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# predict_batch evaluates a batch in pieces of this many rows, so that a
# transition table's ~10^6 rows never hold the MLP's (neurons, rows)
# temporaries all at once. Of 2**11 to 2**16 rows, 2**13 ran a 790k-row
# 2x10 MLP batch fastest on a 2-CPU Xeon. Every row is computed alone (see
# predict_batch), so the piece size changes no bits.
PREDICT_PIECE_ROWS = 2**13

# Below this many rows an affine layer is one broadcast product and one
# add.accumulate over the inputs, whose (inputs, outputs, rows) temporary
# stays small; from here on a loop over the inputs is faster. Both add the
# same products in the same order, so they give the same bits.
FOLD_LOOP_ROWS = 64


def predict_batch(model: ThermalModel, x_full: np.ndarray) -> np.ndarray:
    """Temperature changes in K for a (M, 4) feature matrix in canonical order.

    Batch-invariant: a row's result has the same bits whatever batch it
    sits in, at whatever position, and whatever the BLAS thread count,
    because prediction uses elementwise ufuncs only. Each affine layer is
    the left fold ((x0*w0 + x1*w1) + ...) + b over its inputs in a fixed
    order; a matrix product (BLAS) sums in an order set by the call's row
    count and the row's position instead. Callers may therefore stack the
    rows of many states, events or steps into one call.
    """
    x_full = np.atleast_2d(np.asarray(x_full, float))
    out = np.zeros(x_full.shape[0])
    if model.variant != VARIANT_CONSTANT:
        for start in range(0, len(out), PREDICT_PIECE_ROWS):
            piece = slice(start, start + PREDICT_PIECE_ROWS)
            out[piece] = _predict_rows(model, x_full[piece])
    return out


def _predict_rows(model: ThermalModel, x_full: np.ndarray) -> np.ndarray:
    cols = [FEATURE_NAMES.index(name) for name in model.feature_names]
    # activations are (features, rows): each input of a layer is one contiguous row
    a = np.ascontiguousarray(((x_full[:, cols] - model.means) / model.stds).T)
    for w, b in model.layers[:-1]:
        a = _sigmoid(_affine_fold(w, b, a))
    w, b = model.layers[-1]
    return _affine_fold(w, b, a)[0]


def _affine_fold(w: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """w.T @ a + b for activations a of shape (inputs, rows), summed as a
    left fold over the inputs and then the bias; returns (outputs, rows)."""
    if a.shape[1] < FOLD_LOOP_ROWS:
        acc = np.add.accumulate(w[:, :, None] * a[:, None, :], axis=0)[-1]
    else:
        acc = w[0][:, None] * a[0]
        for wj, aj in zip(w[1:], a[1:]):
            acc += wj[:, None] * aj
    return acc + b[:, None]


def mlp_forward(layers, x: np.ndarray):
    """Forward pass through (weights, bias) layers: sigmoid hidden units and
    a linear output unit. Returns predictions (n,) and the per-layer
    activations, input first, that backpropagation needs. Training uses
    this matrix-product (BLAS) pass, whose last bits may depend on the
    batch; predict_batch does not."""
    acts = [np.atleast_2d(x)]
    for w, b in layers[:-1]:
        acts.append(_sigmoid(acts[-1] @ w + b))
    w, b = layers[-1]
    return (acts[-1] @ w + b)[:, 0], acts


def step(tables: EcmTables, model: ThermalModel, e, theta, p_kw, dt_min: float):
    """(delta_e in kWh, q_loss in kW, d_theta in K) over one interval.

    The coupled model step: circuit losses and energy throughput from
    electrical.energy_step, then the predicted temperature change. e, theta
    and p_kw broadcast elementwise; the predictor sees the broadcast inputs
    flattened in C order in one predict_batch call. 0-d inputs give floats.
    """
    delta_e, q_loss = electrical.energy_step(tables, e, theta, p_kw, dt_min)
    p, q, de, th = np.broadcast_arrays(p_kw, q_loss, delta_e, theta)
    x = feature_matrix(p.ravel(), q.ravel(), de.ravel(), th.ravel())
    d_theta = predict_batch(model, x).reshape(p.shape)
    return delta_e, q_loss, (d_theta if d_theta.ndim else float(d_theta))


def save_model(model: ThermalModel, path) -> None:
    data = {
        "variant": model.variant,
        "feature_names": list(model.feature_names),
        "means": [float(v) for v in model.means],
        "stds": [float(v) for v in model.stds],
        "layers": [
            {"w": [[float(v) for v in row] for row in w], "b": [float(v) for v in b]}
            for w, b in model.layers
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def load_model(path) -> ThermalModel:
    with open(path) as fh:
        data = json.load(fh)
    layers = tuple((np.asarray(d["w"], float), np.asarray(d["b"], float)) for d in data["layers"])
    return ThermalModel(
        variant=data["variant"],
        feature_names=tuple(data["feature_names"]),
        means=np.asarray(data["means"], float),
        stds=np.asarray(data["stds"], float),
        layers=layers,
    )


FAN_RAMP_WIDTH_K = 2.0


@dataclass(frozen=True)
class ThermalPlant:
    """Lumped single-node ground truth for generating synthetic events.

    Heat input is the Ohmic loss; cooling is convection toward ambient plus
    a thermal-management stage that ramps in once the battery passes
    fan_theta_on (a C1 hinge smoothed over FAN_RAMP_WIDTH_K, exactly zero
    below onset). The hinge keeps a purely linear regression measurably
    wrong while staying easy for sigmoid units; with fan_gain = 0 the plant
    is exactly Newtonian. noise_sigma is the per-step measurement noise.
    """

    c_th: float = 0.12  # kWh/K
    k_amb: float = 0.015  # kW/K
    theta_amb: float = 15.0  # degC
    noise_sigma: float = 0.05  # K
    fan_gain: float = 8.0  # dimensionless boost on the ambient coupling
    fan_theta_on: float = 22.0  # degC

    def __post_init__(self):
        if self.c_th <= 0:
            raise InvalidParameterError("c_th must be positive")
        if self.k_amb < 0 or self.noise_sigma < 0 or self.fan_gain < 0:
            raise InvalidParameterError("k_amb, noise_sigma, fan_gain must be >= 0")

    def cooling_kw(self, theta) -> np.ndarray:
        """Heat flow to ambient at battery temperature theta."""
        theta = np.asarray(theta, float)
        x = theta - self.fan_theta_on
        w = FAN_RAMP_WIDTH_K
        ramp = np.where(x <= 0, 0.0, np.where(x >= w, x - 0.5 * w, x * x / (2.0 * w)))
        return self.k_amb * ((theta - self.theta_amb) + self.fan_gain * ramp)


def plant_step(
    plant: ThermalPlant,
    state: BatteryState,
    p_kw: float,
    q_loss_kw: float,
    dt_min: float,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Ground-truth temperature change in K over one interval.

    Deterministic for noise_sigma = 0 or a fixed rng seed; p_kw is accepted
    for interface symmetry but heating is driven by the Ohmic loss.
    """
    delta = (dt_min / 60.0) * (q_loss_kw - float(plant.cooling_kw(state.theta))) / plant.c_th
    if plant.noise_sigma > 0:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        delta += gen.normal(0.0, plant.noise_sigma)
    return float(delta)


# Charging powers (kW) of common home/public/DC chargers and their draw odds.
_CHARGER_POWERS = np.array([7.2, 11.0, 22.0, 36.0, 50.0])
_CHARGER_WEIGHTS = np.array([0.25, 0.30, 0.20, 0.15, 0.10])

_EPOCH_2018_MONDAY = 1514764800.0  # 2018-01-01 00:00 UTC, a Monday


def generate_synthetic_events(
    plant: ThermalPlant,
    tables: EcmTables,
    n_events: int,
    seed: int,
    dt_min: float = 5.0,
    e_nom: float = 80.0,
) -> list[ChargingEvent]:
    """Draw uncoordinated charging events and roll them through the models.

    Each event starts at 10-60% SOC, targets 70-100%, lasts 2-12 h, and
    charges at the charger's full power with a linear taper over the last
    stretch before the target, then idles until departure. Start instants
    fall on a 2018 calendar so weekday/hour lookups are meaningful.
    Reproducible per seed; per-event substreams allow parallel generation.
    """
    if n_events < 1:
        raise InvalidParameterError("n_events must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(n_events)
    events = []
    for k, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        soc0 = rng.uniform(0.10, 0.60)
        soc_target = rng.uniform(0.70, 1.00)
        duration_h = rng.uniform(2.0, 12.0)
        n = max(int(round(duration_h * 60.0 / dt_min)), int(np.ceil(120.0 / dt_min)))
        p_max = float(rng.choice(_CHARGER_POWERS, p=_CHARGER_WEIGHTS))
        theta0 = rng.uniform(5.0, 30.0)
        soh0 = rng.uniform(0.92, 1.0)
        day = rng.integers(0, 7)
        start_s = rng.integers(0, 24 * 12) * 300
        t0 = _EPOCH_2018_MONDAY + day * 86400.0 + float(start_s)

        e_target = min(soc_target, soh0) * e_nom
        e = np.empty(n + 1)
        theta = np.empty(n + 1)
        p = np.empty(n)
        e[0] = soc0 * e_nom
        theta[0] = theta0
        taper_start = e_target - 0.2 * max(e_target - e[0], 1e-9)
        for i in range(n):
            if e[i] >= e_target - 0.05:
                p_i = 0.0
            elif e[i] >= taper_start:
                frac = (e_target - e[i]) / (e_target - taper_start)
                p_i = max(1.5, p_max * frac)
            else:
                p_i = p_max
            state = BatteryState(e[i], theta[i])
            delta_e, q_loss = electrical.energy_step(tables, e[i], theta[i], p_i, dt_min)
            p[i] = p_i
            e[i + 1] = e[i] + delta_e
            theta[i + 1] = theta[i] + plant_step(plant, state, p_i, q_loss, dt_min, rng)
        # terminal voltage U_OCV + R_i * I at each interval start; U_OCV at the end
        u_bat, r = electrical.lookup_arrays(tables, e, theta)
        u_bat[:-1] += r[:-1] * electrical.battery_current(u_bat[:-1], r[:-1], p)
        events.append(
            ChargingEvent(
                grid=TimeGrid(t0=t0, n_intervals=n, dt_min=dt_min),
                p=p,
                e=e,
                theta=theta,
                u_bat=u_bat,
                soh0=soh0,
                name=f"synthetic_{k:04d}",
            )
        )
    return events


def plant_linear_model(plant: ThermalPlant, dt_min: float = 5.0) -> ThermalModel:
    """Exact linearization of a plant with fan_gain = 0, as a linear predictor.

    Useful as a deterministic stand-in for a trained model in tests: for a
    plant without the thermal-management hinge it is the perfect predictor.
    """
    a = dt_min / 60.0 / plant.c_th
    w = np.array([[0.0], [a], [0.0], [-a * plant.k_amb]])
    b = np.array([a * plant.k_amb * plant.theta_amb])
    return ThermalModel(
        variant=VARIANT_LINEAR,
        feature_names=FEATURE_NAMES,
        means=np.zeros(4),
        stds=np.ones(4),
        layers=((w, b),),
    )
