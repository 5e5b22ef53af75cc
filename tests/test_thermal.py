"""Thermal predictors, synthetic plant, and event generation."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chargeopt import electrical, thermal
from chargeopt.core import BatteryState
from chargeopt.errors import InvalidParameterError
from chargeopt.thermal import (
    FEATURE_NAMES,
    ThermalModel,
    ThermalPlant,
    constant_model,
    feature_matrix,
    generate_synthetic_events,
    load_model,
    plant_linear_model,
    plant_step,
    predict_batch,
    save_model,
    step,
)


def test_feature_matrix_absolute_values():
    p = [0.0, -36.0, 36.0]
    x = feature_matrix(p, [0.0, 1.05974, 0.94803], [0.0, -3.08831, 2.92100], [20.0, 25.0, 25.0])
    assert x.tolist() == [
        [0.0, 0.0, 0.0, 20.0],
        [36.0, 1.05974, 3.08831, 25.0],
        [36.0, 0.94803, 2.92100, 25.0],
    ]


def test_constant_model_is_exactly_zero():
    m = constant_model()
    rng = np.random.default_rng(0)
    x = feature_matrix(*(rng.uniform(lo, hi, 50) for lo, hi in ((-50, 50), (0, 3), (-4, 4), (-25, 60))))
    assert np.all(predict_batch(m, x) == 0.0)
    _, _, d_theta = step(electrical.default_tables(), m, 40.0, 20.0, 11.0, 5.0)
    assert d_theta == 0.0


def test_linear_bias_only():
    m = ThermalModel(
        variant="linear",
        feature_names=FEATURE_NAMES,
        means=np.zeros(4),
        stds=np.ones(4),
        layers=((np.zeros((4, 1)), np.array([0.3])),),
    )
    assert predict_batch(m, feature_matrix([11.0], [0.1], [0.9], [20.0]))[0] == pytest.approx(0.3)


def test_mlp_zero_output_weights():
    layers = (
        (np.zeros((4, 8)), np.zeros(8)),
        (np.zeros((8, 1)), np.zeros(1)),
    )
    m = ThermalModel(variant="mlp", feature_names=FEATURE_NAMES, layers=layers)
    assert predict_batch(m, feature_matrix([11.0], [0.1], [0.9], [20.0]))[0] == 0.0


def test_model_validation():
    with pytest.raises(InvalidParameterError):
        ThermalModel(variant="rainbow")
    with pytest.raises(InvalidParameterError):
        ThermalModel(variant="linear", stds=np.array([1.0, 0.0, 1.0, 1.0]),
                     layers=((np.zeros((4, 1)), np.zeros(1)),))


def test_plant_step_equilibrium():
    plant = ThermalPlant(noise_sigma=0.0)
    assert plant_step(plant, BatteryState(40.0, plant.theta_amb), 0.0, 0.0, 5.0) == 0.0


def test_plant_step_heating():
    plant = ThermalPlant(c_th=0.01, k_amb=0.0, noise_sigma=0.0)
    dth = plant_step(plant, BatteryState(40.0, 20.0), 36.0, 0.948, 5.0)
    assert dth == pytest.approx(7.90, abs=5e-3)


def test_plant_step_newton_cooling():
    # pure Newtonian limit: fan disabled
    plant = ThermalPlant(c_th=0.1, k_amb=0.02, theta_amb=20.0, noise_sigma=0.0, fan_gain=0.0)
    dth = plant_step(plant, BatteryState(40.0, 35.0), 0.0, 0.0, 5.0)
    assert dth == pytest.approx(-0.25)


def test_plant_step_superlinear_cooling():
    linear = ThermalPlant(c_th=0.1, k_amb=0.02, theta_amb=20.0, noise_sigma=0.0, fan_gain=0.0)
    nonlin = ThermalPlant(c_th=0.1, k_amb=0.02, theta_amb=20.0, noise_sigma=0.0, fan_gain=5.0, fan_theta_on=30.0)
    st = BatteryState(40.0, 40.0)
    assert plant_step(nonlin, st, 0.0, 0.0, 5.0) < plant_step(linear, st, 0.0, 0.0, 5.0)


def test_plant_heat_conservation():
    # with no ambient coupling, integrated temperature rise stores all loss heat
    plant = ThermalPlant(c_th=0.12, k_amb=0.0, noise_sigma=0.0)
    rng = np.random.default_rng(1)
    theta = 0.0
    q_total = 0.0
    dtheta_total = 0.0
    for _ in range(100):
        q = rng.uniform(0, 0.5)
        d = plant_step(plant, BatteryState(40.0, theta), 0.0, q, 5.0)
        theta += d
        q_total += q * 5.0 / 60.0
        dtheta_total += d
    assert dtheta_total * plant.c_th == pytest.approx(q_total, abs=1e-9)


def test_plant_step_deterministic_given_seed():
    plant = ThermalPlant(noise_sigma=0.1)
    st = BatteryState(40.0, 20.0)
    a = plant_step(plant, st, 11.0, 0.1, 5.0, rng=123)
    b = plant_step(plant, st, 11.0, 0.1, 5.0, rng=123)
    assert a == b


def test_generate_events_deterministic():
    plant = ThermalPlant()
    tables = electrical.default_tables()
    a = generate_synthetic_events(plant, tables, 3, seed=9)
    b = generate_synthetic_events(plant, tables, 3, seed=9)
    for ev1, ev2 in zip(a, b):
        assert np.array_equal(ev1.p, ev2.p)
        assert np.array_equal(ev1.e, ev2.e)
        assert np.array_equal(ev1.theta, ev2.theta)
        assert ev1.grid.t0 == ev2.grid.t0


def test_generate_events_profile_properties():
    plant = ThermalPlant()
    tables = electrical.default_tables()
    events = generate_synthetic_events(plant, tables, 25, seed=42)
    for ev in events:
        assert ev.duration_h >= 2.0
        assert 0.10 * 80 <= ev.e[0] <= 0.60 * 80
        assert np.all(np.diff(ev.e) >= 0.0)  # unidirectional charging
        assert np.all(ev.e <= 80.0 + 1e-9)
        assert np.all(ev.p >= 0.0)
        assert 0.0 < ev.soh0 <= 1.0


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    layers = (
        (rng.normal(size=(4, 10)), rng.normal(size=10)),
        (rng.normal(size=(10, 10)), rng.normal(size=10)),
        (rng.normal(size=(10, 1)), rng.normal(size=1)),
    )
    m = ThermalModel(
        variant="mlp",
        feature_names=FEATURE_NAMES,
        means=rng.normal(size=4),
        stds=np.abs(rng.normal(size=4)) + 0.5,
        layers=layers,
    )
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    x = np.abs(rng.normal(size=(40, 4)))
    assert np.all(np.abs(predict_batch(back, x) - predict_batch(m, x)) <= 1e-12)


def _random_model(variant, seed):
    rng = np.random.default_rng(seed)
    widths = [4, 1] if variant == "linear" else [4, 10, 10, 1]
    return ThermalModel(
        variant=variant,
        means=rng.normal(size=4),
        stds=np.abs(rng.normal(size=4)) + 0.5,
        layers=tuple((rng.normal(size=(a, b)), rng.normal(size=b)) for a, b in zip(widths, widths[1:])),
    )


@pytest.mark.parametrize("variant", ["linear", "mlp"])
@pytest.mark.parametrize("rows", [24, 41, 701])
def test_predict_batch_in_pieces_is_bit_identical(monkeypatch, variant, rows):
    m = _random_model(variant, seed=11)
    x = np.abs(np.random.default_rng(11).normal(size=(rows, 4)))
    whole = predict_batch(m, x)
    # 7-row pieces cut the batch off multiples of 4 rows, where a BLAS product changes its summation order
    monkeypatch.setattr(thermal, "PREDICT_PIECE_ROWS", 7)
    # the pieces all take one form of the layer fold; both forms must give the same bits
    for fold_loop_rows in (0, 10**9):
        monkeypatch.setattr(thermal, "FOLD_LOOP_ROWS", fold_loop_rows)
        pieces = predict_batch(m, x)
        assert pieces.shape == (rows,)
        assert pieces.tobytes() == whole.tobytes(), f"FOLD_LOOP_ROWS = {fold_loop_rows}"


@pytest.mark.parametrize("variant", ["linear", "mlp"])
@pytest.mark.parametrize(
    "rows",
    [1, 2, 3, 4, 5, 7, 12, 13, thermal.PREDICT_PIECE_ROWS - 1, thermal.PREDICT_PIECE_ROWS + 1, 2**17 + 3],
)
def test_a_row_of_any_batch_equals_its_one_row_call(variant, rows):
    m = _random_model(variant, seed=rows)
    rng = np.random.default_rng(rows)
    x = feature_matrix(*(rng.uniform(lo, hi, rows) for lo, hi in ((-50, 50), (0, 3), (-4, 4), (-25, 60))))
    batch = predict_batch(m, x)
    piece = thermal.PREDICT_PIECE_ROWS
    checked = (
        set(range(min(rows, 16)))
        | set(range(max(rows - 16, 0), rows))
        | {i for k in range(1, rows // piece + 1) for i in (k * piece - 1, k * piece) if i < rows}
        | set(rng.choice(rows, size=min(rows, 64), replace=False).tolist())
    )
    for i in sorted(checked):
        assert predict_batch(m, x[i : i + 1]).tobytes() == batch[i : i + 1].tobytes(), f"row {i}"


def test_predict_batch_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    save_model(_random_model("mlp", 3), tmp_path / "model.json")
    np.save(tmp_path / "x.npy", np.abs(np.random.default_rng(3).normal(size=(2**17 + 3, 4))))
    code = (
        "import hashlib, sys, numpy as np; from chargeopt import thermal; "
        "m = thermal.load_model(sys.argv[1]); x = np.load(sys.argv[2]); "
        "print(hashlib.sha256(thermal.predict_batch(m, x).tobytes()).hexdigest())"
    )
    src = str(Path(thermal.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "model.json"), str(tmp_path / "x.npy")],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(run.stdout.strip())
    here = predict_batch(load_model(tmp_path / "model.json"), np.load(tmp_path / "x.npy"))
    assert digests == {hashlib.sha256(here.tobytes()).hexdigest()}


def test_plant_linear_model_matches_newtonian_plant():
    plant = ThermalPlant(c_th=0.12, k_amb=0.015, theta_amb=15.0, noise_sigma=0.0, fan_gain=0.0)
    model = plant_linear_model(plant, dt_min=5.0)
    rng = np.random.default_rng(8)
    for _ in range(30):
        st = BatteryState(rng.uniform(10, 70), rng.uniform(0, 40))
        p = rng.uniform(0, 50)
        q = rng.uniform(0, 2)
        de = rng.uniform(0, 4)
        predicted = predict_batch(model, feature_matrix([p], [q], [de], [st.theta]))[0]
        truth = plant_step(plant, st, p, q, 5.0)
        assert predicted == pytest.approx(truth, abs=1e-12)


def test_step_broadcast_matches_one_state_at_a_time():
    tables = electrical.default_tables()
    e = np.array([[10.0], [40.0], [70.0]])
    theta = np.array([[0.0], [20.0], [35.0]])
    p = np.array([-20.0, 0.0, 11.0, 36.0])
    for model in (plant_linear_model(ThermalPlant(fan_gain=0.0)), _random_model("mlp", 5)):
        de, q, dth = step(tables, model, e, theta, p, 5.0)
        assert de.shape == q.shape == dth.shape == (3, 4)
        for i in range(3):
            for k in range(4):
                one = step(tables, model, e[i, 0], theta[i, 0], p[k], 5.0)
                assert all(isinstance(v, float) for v in one)
                assert one == (de[i, k], q[i, k], dth[i, k])
