"""Thermal predictors, synthetic plant, and event generation."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import numpy_reference, same_bits

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
    assert plant_step(plant, BatteryState(40.0, plant.theta_amb), 0.0, 5.0) == 0.0


def test_plant_step_heating():
    plant = ThermalPlant(c_th=0.01, k_amb=0.0, noise_sigma=0.0)
    dth = plant_step(plant, BatteryState(40.0, 20.0), 0.948, 5.0)
    assert dth == pytest.approx(7.90, abs=5e-3)


def test_plant_step_newton_cooling():
    # pure Newtonian limit: fan disabled
    plant = ThermalPlant(c_th=0.1, k_amb=0.02, theta_amb=20.0, noise_sigma=0.0, fan_gain=0.0)
    dth = plant_step(plant, BatteryState(40.0, 35.0), 0.0, 5.0)
    assert dth == pytest.approx(-0.25)


def test_plant_step_superlinear_cooling():
    linear = ThermalPlant(c_th=0.1, k_amb=0.02, theta_amb=20.0, noise_sigma=0.0, fan_gain=0.0)
    nonlin = ThermalPlant(c_th=0.1, k_amb=0.02, theta_amb=20.0, noise_sigma=0.0, fan_gain=5.0, fan_theta_on=30.0)
    st = BatteryState(40.0, 40.0)
    assert plant_step(nonlin, st, 0.0, 5.0) < plant_step(linear, st, 0.0, 5.0)


def test_plant_heat_conservation():
    # with no ambient coupling, integrated temperature rise stores all loss heat
    plant = ThermalPlant(c_th=0.12, k_amb=0.0, noise_sigma=0.0)
    rng = np.random.default_rng(1)
    theta = 0.0
    q_total = 0.0
    dtheta_total = 0.0
    for _ in range(100):
        q = rng.uniform(0, 0.5)
        d = plant_step(plant, BatteryState(40.0, theta), q, 5.0)
        theta += d
        q_total += q * 5.0 / 60.0
        dtheta_total += d
    assert dtheta_total * plant.c_th == pytest.approx(q_total, abs=1e-9)


def test_plant_step_deterministic_given_seed():
    plant = ThermalPlant(noise_sigma=0.1)
    st = BatteryState(40.0, 20.0)
    a = plant_step(plant, st, 0.1, 5.0, rng=123)
    b = plant_step(plant, st, 0.1, 5.0, rng=123)
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
def test_a_row_of_any_batch_equals_its_one_row_call(mlp_path, variant, rows):
    m = _random_model(variant, seed=rows)
    rng = np.random.default_rng(rows)
    x = feature_matrix(*(rng.uniform(lo, hi, rows) for lo, hi in ((-50, 50), (0, 3), (-4, 4), (-25, 60))))
    batch = thermal.temperature_change(m, *x.T)
    piece = thermal.PREDICT_PIECE_ROWS
    checked = (
        set(range(min(rows, 16)))
        | set(range(max(rows - 16, 0), rows))
        | {i for k in range(1, rows // piece + 1) for i in (k * piece - 1, k * piece) if i < rows}
        | set(rng.choice(rows, size=min(rows, 64), replace=False).tolist())
    )
    for i in sorted(checked):
        assert thermal.temperature_change(m, *x[i : i + 1].T).tobytes() == batch[i : i + 1].tobytes(), f"row {i}"


def _temperature_change_on_both_paths(model, x):
    """temperature_change for the feature rows x, compiled and in NumPy."""
    compiled = thermal.temperature_change(model, *x.T)
    return compiled, numpy_reference(lambda: thermal.temperature_change(model, *x.T))


needs_kernel = pytest.mark.skipif(thermal._kernel is None, reason="compiled kernel not built")


@needs_kernel
@pytest.mark.parametrize("variant", ["linear", "mlp"])
@pytest.mark.parametrize(
    # one row, fewer rows than a compiled block (128) or a NumPy fold loop (64),
    # and either side of a compiled block and of a NumPy piece
    "rows",
    [1, 2, 17, 63, 64, 127, 129, thermal.PREDICT_PIECE_ROWS - 1, thermal.PREDICT_PIECE_ROWS + 5],
)
def test_predict_batch_compiled_equals_numpy(variant, rows):
    m = _random_model(variant, seed=rows)
    rng = np.random.default_rng(rows)
    x = feature_matrix(*(rng.uniform(lo, hi, rows) for lo, hi in ((-50, 50), (0, 3), (-4, 4), (-25, 60))))
    compiled, numpy_path = _temperature_change_on_both_paths(m, x)
    assert compiled.tobytes() == numpy_path.tobytes()


@needs_kernel
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("variant", ["linear", "mlp"])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e300])
def test_predict_batch_compiled_equals_numpy_where_exp_overflows_and_on_inf_and_nan(variant, scale):
    # scaled weights drive the hidden units' exp far past both clamps
    m = _random_model(variant, seed=4)
    m = ThermalModel(
        variant=variant,
        means=m.means,
        stds=m.stds,
        layers=tuple((scale * w, scale * b) for w, b in m.layers),
    )
    specials = [0.0, -0.0, 1e-300, 745.0, -745.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(4)
    x = rng.choice(specials, size=(400, 4))
    x[:100] = rng.normal(scale=50.0, size=(100, 4))
    compiled, numpy_path = _temperature_change_on_both_paths(m, x)
    assert np.isnan(compiled).any() and np.isfinite(compiled).any()
    assert compiled.tobytes() == numpy_path.tobytes()


def _bad_layers(layers):
    """(error, message, layers) that the compiled network entry points refuse."""
    (w0, b0), (w1, b1), (w2, b2) = layers
    return [
        (TypeError, r"layers\[0\] weights has item format 'f'", ((w0.astype(np.float32), b0), (w1, b1), (w2, b2))),
        (ValueError, r"layers\[0\] weights has 3 dimensions", ((w0[:, :, None], b0), (w1, b1), (w2, b2))),
        (ValueError, r"layers\[0\] weights is not C-contiguous", ((np.asfortranarray(w0), b0), (w1, b1), (w2, b2))),
        (ValueError, r"layers\[0\] bias has 9 entries", ((w0, b0[:-1]), (w1, b1), (w2, b2))),
        (ValueError, r"layers\[1\] weights has 9 entries", ((w0, b0), (w1[:-1], b1), (w2, b2))),
        (ValueError, "the last layer has 10 outputs", ((w0, b0), (w1, b1))),
        (ValueError, "expected no empty axis", ((w0[:, :0], b0[:0]), (w1, b1), (w2, b2))),
        (ValueError, "at least 1 layer", ()),
        (ValueError, r"layers\[0\] is not a \(weights, bias\) pair", ((w0, b0, b0), (w1, b1), (w2, b2))),
        (TypeError, "sequence of", 3),
    ]


@needs_kernel
def test_sgd_epoch_checks_every_buffer_before_it_runs():
    kernel = thermal._kernel
    layers = tuple((w.copy(), b.copy()) for w, b in _random_model("mlp", seed=2).layers)
    x, y, perm, pred = np.zeros((5, 4)), np.zeros(5), np.arange(5), np.zeros(5)
    good = dict(layers=layers, x=x, y=y, perm=perm, pred=pred, learning_rate=0.1, batch_size=2)
    bad_epochs = [
        (ValueError, "x has 3 entries along axis 1", "x", np.zeros((5, 3))),
        (ValueError, "x is not C-contiguous", "x", np.zeros((8, 4))[::2]),
        (ValueError, "y has 4 entries", "y", np.zeros(4)),
        (ValueError, r"perm\[4\] = 5 is not a row", "perm", np.array([0, 1, 2, 3, 5])),
        (ValueError, r"perm\[2\] = -1 is not a row", "perm", np.array([0, 1, -1, 3, 4])),
        (TypeError, "perm has item format 'i'", "perm", np.arange(5, dtype=np.int32)),
        (ValueError, "pred is not C-contiguous", "pred", np.zeros(5)[::-1]),
        (ValueError, "batch_size 0", "batch_size", 0),
    ] + [(error, match, "layers", value) for error, match, value in _bad_layers(layers)]
    before = [a.tobytes() for layer in layers for a in layer]
    for error, match, name, value in bad_epochs:
        with pytest.raises(error, match=match):
            kernel.sgd_epoch(*dict(good, **{name: value}).values())
    read_only = np.zeros(5)
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="pred is read-only"):
        kernel.sgd_epoch(*dict(good, pred=read_only).values())
    # a layer the epoch would update in place must be writable
    frozen = layers[2][1].copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match=r"layers\[2\] bias is read-only"):
        kernel.sgd_epoch(*dict(good, layers=(layers[0], layers[1], (layers[2][0], frozen))).values())
    assert [a.tobytes() for layer in layers for a in layer] == before
    assert kernel.sgd_epoch(*good.values()) is None
    assert [a.tobytes() for layer in layers for a in layer] != before


@needs_kernel
def test_step_kernels_check_every_buffer_before_they_run():
    kernel = thermal._kernel
    t = electrical.default_tables()
    state = np.full((2, 3), 40.0)
    good = dict(
        e_axis=t.e_axis, theta_axis=t.theta_axis, u_ocv=t.u_ocv, r_i=t.r_i,
        e=state, theta=state[:, :1], p=state[0], dt=np.array(5.0), delta_e=np.zeros((2, 3)), q=np.zeros((2, 3)),
    )
    read_only = np.zeros((2, 3))
    read_only.flags.writeable = False
    bad_steps = [
        (TypeError, "e_axis has item format 'f'", "e_axis", t.e_axis.astype(np.float32)),
        (TypeError, "e has item format 'l'", "e", state.astype(np.int64)),
        (ValueError, "u_ocv has 1 dimensions", "u_ocv", t.u_ocv.ravel()),
        (ValueError, "r_i is not C-contiguous", "r_i", np.asfortranarray(t.r_i)),
        (ValueError, "u_ocv has 2 entries along axis 1, expected 3", "u_ocv", np.ascontiguousarray(t.u_ocv[:, :2])),
        (ValueError, "r_i has 1 entries along axis 0, expected 2", "r_i", t.r_i[:1]),
        (ValueError, "the axes have 1 and 3 nodes", "e_axis", t.e_axis[:1]),
        (ValueError, "the axes have 2 and 1 nodes", "theta_axis", t.theta_axis[:1]),
        (ValueError, "theta has 2 entries along axis 1, which do not broadcast to 3", "theta", state[:, :2]),
        (ValueError, "p has 4 entries along axis 0", "p", np.zeros(4)),
        (ValueError, "dt has 3 dimensions, more than the output's 2", "dt", np.zeros((1, 2, 3))),
        (ValueError, "delta_e is not C-contiguous", "delta_e", np.zeros((2, 3))[:, ::2]),
        (ValueError, "q does not have the shape of delta_e", "q", np.zeros((3, 2))),
        (ValueError, "q is read-only", "q", read_only),
        (TypeError, "delta_e has item format 'f'", "delta_e", np.zeros((2, 3), np.float32)),
    ]
    for error, match, name, value in bad_steps:
        with pytest.raises(error, match=match):
            kernel.energy_step(*dict(good, **{name: value}).values())
    assert kernel.energy_step(*good.values()) is None
    # the first element in C order that cannot be delivered, and its own limit, to the bit
    rng = np.random.default_rng(3)
    t = electrical.EcmTables(t.e_axis, t.theta_axis, rng.uniform(300.0, 420.0, (2, 3)), rng.uniform(0.05, 0.3, (2, 3)))
    e, theta = rng.uniform(0.0, 80.0, (2, 50)), rng.uniform(-25.0, 60.0, (2, 50))
    limit = electrical.max_discharge_power(*electrical.lookup_arrays(t, e, theta))
    p = np.array([0.0, -1e4, -2e4])
    for k in range(e.shape[1]):
        tables = dict(e_axis=t.e_axis, theta_axis=t.theta_axis, u_ocv=t.u_ocv, r_i=t.r_i)
        call = dict(good, **tables, e=e[:, k : k + 1], theta=theta[:, k : k + 1], p=p)
        assert kernel.energy_step(*call.values()) == (1, limit[0, k])
    layers = _random_model("mlp", seed=2).layers
    good = dict(
        p=state, q_loss=state[:, :1], delta_e=state[0], theta=np.array(20.0),
        cols=np.arange(4), means=np.zeros(4), stds=np.ones(4), layers=layers, out=np.zeros((2, 3)),
    )
    bad_changes = [
        (TypeError, "p has item format 'f'", "p", state.astype(np.float32)),
        (ValueError, "q_loss has 2 entries along axis 1", "q_loss", state[:, :2]),
        (ValueError, "theta has 3 dimensions", "theta", np.zeros((1, 2, 3))),
        (ValueError, "not a column", "cols", np.array([0, 1, 2, 4])),
        (ValueError, "cols has 3 entries", "cols", np.array([0, 1, 2])),
        (ValueError, "stds has 5 entries", "stds", np.ones(5)),
        (ValueError, "out is not C-contiguous", "out", np.zeros((2, 3))[:, ::2]),
        (ValueError, "out is read-only", "out", read_only),
    ] + [(error, match, "layers", value) for error, match, value in _bad_layers(layers)]
    for error, match, name, value in bad_changes:
        with pytest.raises(error, match=match):
            kernel.temperature_change(*dict(good, **{name: value}).values())
    assert kernel.temperature_change(*good.values()) is None


def test_explicit_exp_is_within_one_ulp_of_numpys_exp():
    z = np.random.default_rng(9).uniform(-40.0, 40.0, 100_000)
    ours, numpy_exp = thermal.explicit_exp(z), np.exp(z)
    assert np.all(np.abs(ours - numpy_exp) <= np.spacing(numpy_exp))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_explicit_exp_rounds_to_zero_and_infinity_where_exp_does_and_passes_nan():
    z = np.array([-np.inf, -1e300, -800.0, -745.2, -745.1, -708.5, 0.0, -0.0, 709.78, 709.79, 1e300, np.inf])
    assert thermal.explicit_exp(z).tolist() == np.exp(z).tolist()
    assert np.isnan(thermal.explicit_exp(np.array([np.nan]))).all()


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
        truth = plant_step(plant, st, q, 5.0)
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


def _step_models():
    return {
        "constant": constant_model(),
        "linear": plant_linear_model(ThermalPlant(fan_gain=0.0)),
        "linear_random": _random_model("linear", 6),
        "mlp": _random_model("mlp", 6),
        # reads three features, in another order
        "mlp_subset": ThermalModel(
            variant="mlp",
            feature_names=("theta", "q_loss", "p_abs"),
            means=np.array([20.0, 0.5, 10.0]),
            stds=np.array([10.0, 0.5, 20.0]),
            layers=(
                (np.random.default_rng(7).normal(size=(3, 5)), np.zeros(5)),
                (np.random.default_rng(8).normal(size=(5, 1)), np.ones(1)),
            ),
        ),
    }


@pytest.mark.parametrize("name", list(_step_models()))
def test_step_and_temperature_change_have_the_bits_of_the_numpy_definition(mlp_path, name):
    model = _step_models()[name]
    tables = electrical.default_tables()
    rng = np.random.default_rng(len(name))
    rows = 1500  # more than a compiled block of 128 rows
    e, theta, p = rng.uniform(-5.0, 85.0, rows), rng.uniform(-30.0, 65.0, rows), rng.uniform(-60.0, 60.0, rows)
    e[::5], theta[1::5], p[2::5] = 0.0, 25.0, -0.0
    dt = rng.choice([1.0, 5.0, 15.0], rows)
    cases = [
        (e, theta, p, dt),  # per-row dt, as validate_models passes
        (e, theta, p, 5.0),
        (e[:12, None], theta[:12, None], p[None, :7], 5.0),  # the transition table's (cells, actions)
        (e[:6].reshape(2, 3), theta[:3], p[0], dt[:3]),
        (float(e[0]), float(theta[0]), float(p[0]), 5.0),  # 0-d: floats
        (np.float64(e[1]), theta[1], p[1], 15.0),
        (e[:0], theta[:0], p[:0], 5.0),
    ]
    for args in cases:
        got = step(tables, model, *args)
        same_bits(got, numpy_reference(lambda: step(tables, model, *args)))
        if np.ndim(args[0]) == 0:
            assert all(isinstance(v, float) for v in got)
        # temperature_change on its own, with its inputs broadcast against each other
        q, de = got[1], got[0]
        for inputs in ((args[2], q, de, args[1]), (-7.5, q, de, 21.0)):
            same_bits(
                thermal.temperature_change(model, *inputs),
                numpy_reference(lambda: thermal.temperature_change(model, *inputs)),
            )


@pytest.mark.filterwarnings("ignore:invalid value encountered", "ignore:overflow encountered")
@pytest.mark.parametrize("name", ["linear", "mlp"])
def test_temperature_change_writes_np_nan_for_a_nan_input_on_both_paths(mlp_path, name):
    model = _step_models()[name]
    specials = np.array([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan, 3.0])
    p, q, de, theta = np.meshgrid(specials, specials, specials, specials, indexing="ij")
    got = thermal.temperature_change(model, p, q, de, theta)
    same_bits(got, numpy_reference(lambda: thermal.temperature_change(model, p, q, de, theta)))
    assert np.isnan(got).any() and np.isfinite(got).any()
    assert {v.tobytes() for v in got[np.isnan(got)]} == {np.float64(np.nan).tobytes()}
    tables = electrical.default_tables()
    same_bits(
        step(tables, model, np.nan, 20.0, 11.0, 5.0),
        numpy_reference(lambda: step(tables, model, np.nan, 20.0, 11.0, 5.0)),
    )
