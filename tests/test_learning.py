"""Screening, normalization, OLS, MLP training, cross-validation, metrics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chargeopt import electrical, thermal
from chargeopt.errors import InvalidParameterError, TrainingFailureError, UndefinedCorrelationError
from chargeopt.learning import (
    Dataset,
    MlpArchitecture,
    _rank,
    apply_normalizer,
    build_dataset,
    fit_linear,
    fit_mlp,
    fit_normalizer,
    grid_search_cv,
    mlp_forward,
    mlp_gradients,
    rmse,
    screen_features,
    spearman,
)
from chargeopt.thermal import ThermalPlant, generate_synthetic_events, predict_batch
from oracles import finite_difference_gradients, reference_fit_mlp


def test_spearman_monotone():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_hand_value():
    # rho = 1 - 6*sum(d^2)/(n(n^2-1)) = 1 - 12/60
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


@pytest.mark.parametrize("n, n_values", [(1, 1), (2, 1), (7, 3), (40, 5), (2000, 50), (300, 1000)])
def test_rank_averages_tie_runs(n, n_values):
    # brute force: the rank of v[i] is 1 + (values below it) + (other values equal to it) / 2
    v = np.random.default_rng(n).integers(0, n_values, n).astype(float)
    below = (v[None, :] < v[:, None]).sum(axis=1)
    equal = (v[None, :] == v[:, None]).sum(axis=1)
    assert np.array_equal(_rank(v), 1.0 + below + 0.5 * (equal - 1))


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=60)
    y = rng.normal(size=60)
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == pytest.approx(base)
    assert spearman(x, y**3) == pytest.approx(base)


def test_spearman_undefined():
    with pytest.raises(UndefinedCorrelationError):
        spearman([1.0, 1.0, 1.0], [1, 2, 3])


def _dataset(x, y, names=None):
    x = np.asarray(x, float)
    names = tuple(names or (f"f{j}" for j in range(x.shape[1])))
    return Dataset(x, np.asarray(y, float), names)


def test_screen_threshold_zero_is_identity():
    rng = np.random.default_rng(0)
    ds = _dataset(rng.normal(size=(30, 3)), rng.normal(size=30))
    out = screen_features(ds, 0.0)
    assert out.feature_names == ds.feature_names
    assert np.array_equal(out.x, ds.x)


def test_screen_drops_constant_feature():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 3))
    x[:, 1] = 7.0  # constant: undefined correlation counts as 0
    y = x[:, 0] + 0.1 * rng.normal(size=50)
    out = screen_features(_dataset(x, y), 0.05)
    assert "f1" not in out.feature_names
    assert "f0" in out.feature_names


def test_screen_all_out_errors():
    x = np.full((20, 2), 3.0)
    with pytest.raises(InvalidParameterError):
        screen_features(_dataset(x, np.arange(20.0)), 0.5)


def test_normalizer_population_std():
    ds = _dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros(3))
    nrm = fit_normalizer(ds)
    assert nrm.means[0] == pytest.approx(2.0)
    assert nrm.stds[0] == pytest.approx(0.81650, abs=1e-5)
    z = apply_normalizer(ds, nrm)
    assert z.x[:, 0] == pytest.approx([-1.22474, 0.0, 1.22474], abs=1e-5)


def test_normalizer_idempotent_and_zero_variance():
    rng = np.random.default_rng(4)
    ds = _dataset(rng.normal(size=(100, 2)), rng.normal(size=100))
    z = apply_normalizer(ds, fit_normalizer(ds))
    nrm2 = fit_normalizer(z)
    assert np.allclose(nrm2.means, 0.0, atol=1e-12)
    assert np.allclose(nrm2.stds, 1.0, atol=1e-12)
    const = _dataset(np.full((5, 1), 5.0), np.zeros(5))
    zc = apply_normalizer(const, fit_normalizer(const))
    assert np.all(zc.x == 0.0)


def test_fit_linear_exact():
    x = np.linspace(-2, 2, 20)[:, None]
    model = fit_linear(_dataset(x, 2.0 * x[:, 0]))
    w, b = model.layers[0]
    assert w[0, 0] == pytest.approx(2.0, abs=1e-9)
    assert b[0] == pytest.approx(0.0, abs=1e-9)


def test_fit_linear_constant_target():
    rng = np.random.default_rng(5)
    model = fit_linear(_dataset(rng.normal(size=(30, 2)), np.full(30, 3.0)))
    w, b = model.layers[0]
    assert np.allclose(w, 0.0, atol=1e-9)
    assert b[0] == pytest.approx(3.0, abs=1e-9)


def test_fit_linear_recovers_coefficients():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1000, 2))
    y = x[:, 0] + 0.5 * x[:, 1] + 1e-3 * rng.normal(size=1000)
    model = fit_linear(_dataset(x, y))
    w, _ = model.layers[0]
    assert w[0, 0] == pytest.approx(1.0, abs=1e-2)
    assert w[1, 0] == pytest.approx(0.5, abs=1e-2)


def test_fit_linear_residual_orthogonality():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 3))
    y = x @ np.array([1.0, -2.0, 0.3]) + rng.normal(size=200)
    model = fit_linear(_dataset(x, y))
    w, b = model.layers[0]
    resid = y - (x @ w[:, 0] + b[0])
    assert np.all(np.abs(x.T @ resid) <= 1e-8 * len(y))


def test_mlp_learns_zero_target():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2048, 3))
    ds = _dataset(x, np.zeros(2048))
    model = fit_mlp(ds, MlpArchitecture(hidden_layers=2, neurons_per_layer=10, epochs=1000), seed=0)
    pred, _ = mlp_forward(list(model.layers), x)
    assert rmse(pred, ds.y) <= 1e-2


def test_mlp_close_to_linear_on_linear_target():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2000, 3))
    y = 0.5 * x[:, 0] - 0.25 * x[:, 2] + 0.1 * rng.normal(size=2000)
    x_val = rng.normal(size=(500, 3))
    y_val = 0.5 * x_val[:, 0] - 0.25 * x_val[:, 2] + 0.1 * rng.normal(size=500)
    ds = _dataset(x, y)
    mlp = fit_mlp(ds, MlpArchitecture(hidden_layers=2, neurons_per_layer=10, epochs=200), seed=1)
    lin = fit_linear(ds)
    pred_mlp, _ = mlp_forward(list(mlp.layers), x_val)
    pred_lin = x_val @ lin.layers[0][0][:, 0] + lin.layers[0][1][0]
    assert rmse(pred_mlp, y_val) <= 5 * rmse(pred_lin, y_val)


def test_mlp_training_loss_decreases():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(128, 2))
    y = 0.7 * x[:, 0] + 0.2 * x[:, 1]
    ds = _dataset(x, y)
    losses = []
    for epochs in (10, 100, 400):
        m = fit_mlp(ds, MlpArchitecture(1, 8, epochs=epochs), seed=3)
        pred, _ = mlp_forward(list(m.layers), x)
        losses.append(rmse(pred, y))
    assert losses[2] < losses[1] < losses[0]


def test_mlp_gradient_check_small_net():
    rng = np.random.default_rng(11)
    layers = [
        [rng.normal(scale=0.7, size=(3, 3)), rng.normal(scale=0.2, size=3)],
        [rng.normal(scale=0.7, size=(3, 1)), rng.normal(scale=0.2, size=1)],
    ]
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    analytic, _ = mlp_gradients(layers, x, y)
    numeric = finite_difference_gradients(layers, x, y)
    for (gw, gb), (fw, fb) in zip(analytic, numeric):
        assert np.all(np.abs(gw - fw) <= 1e-4 * np.maximum(np.abs(fw), 1e-3))
        assert np.all(np.abs(gb - fb) <= 1e-4 * np.maximum(np.abs(fb), 1e-3))


def test_mlp_deterministic():
    rng = np.random.default_rng(12)
    ds = _dataset(rng.normal(size=(50, 2)), rng.normal(size=50))
    a = fit_mlp(ds, MlpArchitecture(1, 5, epochs=20), seed=7)
    b = fit_mlp(ds, MlpArchitecture(1, 5, epochs=20), seed=7)
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_mlp_divergence_raises_with_the_epoch():
    # finite targets whose squared error overflows: the first epoch's loss is not finite
    rng = np.random.default_rng(15)
    ds = _dataset(rng.normal(size=(40, 2)), 1e200 * rng.choice([-1.0, 1.0], size=40))
    with pytest.raises(TrainingFailureError, match="diverged at epoch 0") as info:
        fit_mlp(ds, MlpArchitecture(1, 4, epochs=5), seed=0)
    assert info.value.epoch == 0


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("hidden_layers, neurons", [(1, 1), (1, 5), (2, 10), (3, 20)])
@pytest.mark.parametrize("n", [5, 31, 33, 850, 864])
def test_fit_mlp_matches_the_reference_sgd_loop_bit_for_bit(mlp_path, n, hidden_layers, neurons, normalized):
    # n around and off multiples of the 32-row batch, so the last batch is short or full
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 4)) * [20.0, 0.5, 2.0, 10.0] + [5.0, 0.3, 1.0, 20.0]
    y = 0.05 * x[:, 1] - 0.002 * (x[:, 3] - 22.0) ** 2 + 0.01 * rng.normal(size=n)
    ds = _dataset(x, y)
    nrm = fit_normalizer(ds) if normalized else None
    if normalized:
        ds = apply_normalizer(ds, nrm)
    arch = MlpArchitecture(hidden_layers, neurons, epochs=6)
    model = fit_mlp(ds, arch, seed=n + neurons, normalization=nrm)
    reference = reference_fit_mlp(ds, arch, seed=n + neurons)
    assert len(model.layers) == len(reference) == hidden_layers + 1
    for (w, b), (w_ref, b_ref) in zip(model.layers, reference):
        assert w.shape == w_ref.shape and b.shape == b_ref.shape
        assert w.tobytes() == w_ref.tobytes() and b.tobytes() == b_ref.tobytes()
    assert np.array_equal(model.means, nrm.means if normalized else np.zeros(4))
    assert np.array_equal(model.stds, nrm.safe_stds() if normalized else np.ones(4))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_mlp_divergence_raises_at_the_reference_loops_epoch(mlp_path):
    rng = np.random.default_rng(15)
    ds = _dataset(rng.normal(size=(70, 3)), 1e200 * rng.choice([-1.0, 1.0], size=70))
    arch = MlpArchitecture(2, 6, epochs=4)
    with pytest.raises(TrainingFailureError) as ref:
        reference_fit_mlp(ds, arch, seed=2)
    with pytest.raises(TrainingFailureError) as fit:
        fit_mlp(ds, arch, seed=2)
    assert fit.value.epoch == ref.value.epoch


def test_fit_mlp_weights_do_not_depend_on_the_blas_thread_count_or_the_path(tmp_path):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(850, 4))
    np.save(tmp_path / "x.npy", x)
    np.save(tmp_path / "y.npy", 0.05 * x[:, 1] - 0.002 * (x[:, 3] - 2.0) ** 2)
    # the NumPy path runs second, with the compiled module's handle cleared
    code = (
        "import hashlib, sys, numpy as np; from chargeopt import learning, thermal; "
        "ds = learning.Dataset(np.load(sys.argv[1]), np.load(sys.argv[2]), ('a', 'b', 'c', 'd')); "
        "arch = learning.MlpArchitecture(2, 10, epochs=30); "
        "digest = lambda m: hashlib.sha256(b''.join(a.tobytes() for layer in m.layers for a in layer)).hexdigest(); "
        "print(digest(learning.fit_mlp(ds, arch, seed=4))); learning._kernel = None; "
        "print(digest(learning.fit_mlp(ds, arch, seed=4)))"
    )
    src = str(Path(thermal.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "x.npy"), str(tmp_path / "y.npy")],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.update(run.stdout.split())
    assert len(digests) == 1


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("hidden_layers", "neurons_per_layer", "epochs") for v in (0, -3, 2.5, 4.0, True, "5", None)],
)
def test_mlp_architecture_rejects_a_field_that_is_not_a_positive_integer(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        MlpArchitecture(**{field: value})


def test_mlp_architecture_takes_numpy_integers():
    arch = MlpArchitecture(np.int64(1), np.int32(3), epochs=np.int64(2))
    assert arch.n_parameters(2) == 2 * 3 + 3 + 3 + 1


def test_rmse():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.0, 1.0], [0.0, 2.0]) == pytest.approx(1.0)
    assert rmse([3.0, 0.0], [0.0, 0.0]) == pytest.approx(2.12132, abs=1e-5)
    with pytest.raises(InvalidParameterError):
        rmse([], [])


def test_grid_search_single_architecture():
    rng = np.random.default_rng(13)
    ds = _dataset(rng.normal(size=(60, 2)), rng.normal(size=60))
    arch = MlpArchitecture(1, 4, epochs=5)
    best, table = grid_search_cv(ds, [arch], k=5, seed=0)
    assert best == arch
    assert len(table) == 5


def test_grid_search_fold_partition():
    rng = np.random.default_rng(14)
    ds = _dataset(rng.normal(size=(100, 2)), rng.normal(size=100))
    from chargeopt.learning import _fold_indices

    folds = _fold_indices(100, 5, seed=3)
    assert all(len(f) == 20 for f in folds)
    assert sorted(np.concatenate(folds)) == list(range(100))


def test_grid_search_prefers_smaller_on_near_tie():
    # both nets reach the (dominant) noise floor, so their CV scores near-tie
    rng = np.random.default_rng(15)
    x = rng.normal(size=(1500, 2))
    y = 0.3 * x[:, 0] - 0.1 * x[:, 1] + 0.5 * rng.normal(size=1500)
    ds = _dataset(x, y)
    small = MlpArchitecture(1, 5, epochs=200)
    big = MlpArchitecture(1, 50, epochs=200)
    best_ab, _ = grid_search_cv(ds, [small, big], k=5, seed=1)
    best_ba, _ = grid_search_cv(ds, [big, small], k=5, seed=1)
    assert best_ab == small
    assert best_ba == small  # grid order does not matter beyond the tie-break


def test_grid_search_cv_table_shape():
    rng = np.random.default_rng(16)
    ds = _dataset(rng.normal(size=(50, 2)), rng.normal(size=50))
    grid = [MlpArchitecture(1, 3, epochs=5), MlpArchitecture(2, 3, epochs=5)]
    _, table = grid_search_cv(ds, grid, k=5, seed=0)
    assert len(table) == len(grid) * 5


def test_build_dataset_and_identifiability():
    # noiseless plant without ambient coupling: delta_theta = q_loss * dt/(60*c_th)
    plant = ThermalPlant(c_th=0.12, k_amb=0.0, noise_sigma=0.0, fan_gain=0.0)
    tables = electrical.default_tables()
    events = generate_synthetic_events(plant, tables, 8, seed=21)
    ds = build_dataset(events, tables)
    assert ds.feature_names == ("p_abs", "q_loss", "delta_e_abs", "theta")
    assert ds.n_samples == sum(ev.grid.n_intervals for ev in events)
    model = fit_linear(ds)
    w, _ = model.layers[0]
    coeff_q = w[ds.feature_names.index("q_loss"), 0]
    assert coeff_q == pytest.approx(5.0 / (60.0 * 0.12), rel=1e-2)


def test_screen_retains_informative_features():
    plant = ThermalPlant()  # defaults including noise and nonlinearity
    tables = electrical.default_tables()
    events = generate_synthetic_events(plant, tables, 10, seed=22)
    ds = build_dataset(events, tables)
    kept = screen_features(ds, 0.1)
    assert "q_loss" in kept.feature_names
    assert "theta" in kept.feature_names


def test_trained_linear_predicts_through_model_interface():
    plant = ThermalPlant(c_th=0.12, k_amb=0.01, noise_sigma=0.0, fan_gain=0.0)
    tables = electrical.default_tables()
    events = generate_synthetic_events(plant, tables, 6, seed=23)
    ds = build_dataset(events, tables)
    nrm = fit_normalizer(ds)
    model = fit_linear(apply_normalizer(ds, nrm), normalization=nrm)
    pred = predict_batch(model, ds.x)
    assert rmse(pred, ds.y) <= 1e-9  # plant is exactly linear here
