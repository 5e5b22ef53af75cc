"""Training pipeline for the temperature-change predictors.

Feature screening by rank correlation, mean/variance normalization,
ordinary least squares, a small multilayer perceptron trained with
mini-batch SGD and backpropagation, and grid search over architectures
with k-fold cross-validation. Distinct folds and grid cells own their data
slices and derive their seeds from stable keys, so they could run in
parallel without changing results.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import electrical, thermal
from .core import ChargingEvent
from .electrical import EcmTables
from .errors import InvalidParameterError, TrainingFailureError, UndefinedCorrelationError
from .thermal import FEATURE_NAMES, ThermalModel, mlp_forward

try:
    from . import _kernel  # type: ignore[attr-defined]
except ImportError:  # not built: fit_mlp's NumPy loop runs, with the same bits
    _kernel = None


@dataclass(frozen=True)
class Dataset:
    """Samples-by-features matrix with a target vector (temperature change, K)."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise InvalidParameterError("x must be (n, m) and y (n,)")
        if self.x.shape[1] != len(self.feature_names):
            raise InvalidParameterError("feature_names must match the number of columns")
        if np.any(~np.isfinite(self.x)) or np.any(~np.isfinite(self.y)):
            raise InvalidParameterError("dataset contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]


# Mini-batch SGD step size and batch rows of every MLP fit.
LEARNING_RATE = 0.001
BATCH_SIZE = 32


@dataclass(frozen=True)
class MlpArchitecture:
    hidden_layers: int = 2
    neurons_per_layer: int = 10
    epochs: int = 500

    def __post_init__(self):
        for name in ("hidden_layers", "neurons_per_layer", "epochs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise InvalidParameterError(f"{name} must be at least 1, got {value}")

    def n_parameters(self, n_features: int) -> int:
        sizes = [n_features] + [self.neurons_per_layer] * self.hidden_layers + [1]
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


@dataclass(frozen=True)
class Normalizer:
    means: np.ndarray
    stds: np.ndarray  # population stds; zero-variance columns keep std 0 here

    def safe_stds(self) -> np.ndarray:
        return np.where(self.stds == 0, 1.0, self.stds)


def build_dataset(events: list[ChargingEvent], tables: EcmTables) -> Dataset:
    """One training sample per time step of each discretized event.

    Energy throughput is taken from the measured energy series; the Ohmic
    loss is engineered from the circuit model at the measured state.
    """
    if not events:
        raise InvalidParameterError("empty event corpus")
    xs, ys = [], []
    for ev in events:
        th_n = ev.theta[:-1]
        _, q_loss = electrical.energy_step(tables, ev.e[:-1], th_n, ev.p, ev.grid.dt_min)
        xs.append(thermal.feature_matrix(ev.p, q_loss, np.diff(ev.e), th_n))
        ys.append(np.diff(ev.theta))
    return Dataset(np.vstack(xs), np.concatenate(ys), FEATURE_NAMES)


def _rank(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties receiving the average of their positions."""
    order = np.argsort(v, kind="mergesort")
    sv = v[order]
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])  # first position of each tie run
    bounds = np.r_[starts, len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(0.5 * (starts + bounds[1:] - 1) + 1.0, np.diff(bounds))
    return ranks


def spearman(x, y) -> float:
    """Rank correlation: Pearson correlation of the two rank vectors."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise InvalidParameterError("spearman needs two equal-length vectors of length >= 2")
    rx, ry = _rank(x), _rank(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0 or sy == 0:
        raise UndefinedCorrelationError("zero rank variance")
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


def screen_features(ds: Dataset, threshold: float) -> Dataset:
    """Keep features with |rank correlation to the target| >= threshold.

    Undefined correlations (constant columns) count as 0. Column order is
    preserved.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidParameterError(f"threshold must be in [0, 1], got {threshold}")
    keep = []
    for j, name in enumerate(ds.feature_names):
        try:
            rho = spearman(ds.x[:, j], ds.y)
        except UndefinedCorrelationError:
            rho = 0.0
        if abs(rho) >= threshold:
            keep.append(j)
    if not keep:
        raise InvalidParameterError(f"all features screened out at threshold {threshold}")
    return Dataset(ds.x[:, keep], ds.y, tuple(ds.feature_names[j] for j in keep))


def fit_normalizer(ds: Dataset) -> Normalizer:
    if ds.n_samples < 2:
        raise InvalidParameterError("need at least 2 samples to fit a normalizer")
    return Normalizer(ds.x.mean(axis=0), ds.x.std(axis=0))


def apply_normalizer(ds: Dataset, nrm: Normalizer) -> Dataset:
    z = (ds.x - nrm.means) / nrm.safe_stds()
    z[:, nrm.stds == 0] = 0.0
    return Dataset(z, ds.y, ds.feature_names)


def fit_linear(ds: Dataset, normalization: Normalizer | None = None) -> ThermalModel:
    """Ordinary least squares with intercept, via the normal equations.

    Falls back to a small ridge term when the normal matrix is
    near-singular. If the dataset was normalized, pass the normalizer so
    the returned model applies it at prediction time.
    """
    n, m = ds.x.shape
    if n < m + 1:
        raise InvalidParameterError(f"need at least {m + 1} samples for {m} features")
    xd = np.column_stack([ds.x, np.ones(n)])
    a = xd.T @ xd
    b = xd.T @ ds.y
    try:
        if np.linalg.cond(a) > 1e12:
            raise np.linalg.LinAlgError("near-singular normal matrix")
        coef = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        coef = np.linalg.solve(a + 1e-8 * np.eye(m + 1), b)
    w = coef[:m][:, None]
    bias = np.array([coef[m]])
    nrm = normalization or Normalizer(np.zeros(m), np.ones(m))
    return ThermalModel(
        variant=thermal.VARIANT_LINEAR,
        feature_names=ds.feature_names,
        means=nrm.means,
        stds=nrm.safe_stds(),
        layers=((w, bias),),
    )


def _layer_views(flat: np.ndarray, sizes: list[int]) -> list[tuple]:
    """(weights, bias) views into a flat vector for layer widths `sizes`,
    each layer's weights (row-major) followed by its bias."""
    layers, start = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out)
        start += fan_in * fan_out
        layers.append((w, flat[start : start + fan_out]))
        start += fan_out
    return layers


def mlp_gradients(layers, x: np.ndarray, y: np.ndarray, out=None):
    """Gradients of the mean squared error wrt every weight and bias.

    Also returns the forward predictions so training can track the loss
    without a second pass. The gradients are written into `out`, a list of
    (weights, bias) arrays shaped like `layers`, when it is given. Every
    sum is a left fold: over the rows, in row order, for the gradients, and
    over a layer's outputs for the backpropagated error, as the forward
    pass folds over its inputs (thermal.mlp_forward). No BLAS call takes
    part, and _kernel's SGD epoch performs the same operations.
    """
    pred, acts = mlp_forward(layers, x)
    delta = ((2.0 / len(y)) * (pred - y))[None, :]  # d(mse)/d(out), (outputs, rows)
    grads = out if out is not None else [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        a = acts[li]
        gw[...] = np.add.accumulate(a[:, None, :] * delta[None, :, :], axis=2)[:, :, -1]
        gb[...] = np.add.accumulate(delta, axis=1)[:, -1]
        if li > 0:
            delta = thermal.fold(layers[li][0].T, delta)
            delta *= a
            delta *= 1.0 - a  # sigmoid derivative
    return grads, pred


def fit_mlp(
    ds: Dataset,
    arch: MlpArchitecture,
    seed: int | np.random.SeedSequence = 0,
    normalization: Normalizer | None = None,
) -> ThermalModel:
    """Mini-batch SGD on the mean squared error; deterministic per seed.

    Weights start Xavier-uniform, biases zero. Each epoch visits the
    samples in a fresh random order, BATCH_SIZE rows per step, and each
    step subtracts LEARNING_RATE times mlp_gradients from every weight and
    bias. All weights and biases live in one flat vector (the layers are
    views into it), so a NumPy step updates them with one operation. An
    epoch runs in the compiled module _kernel when it is built, which
    updates the same views layer by layer, and through mlp_gradients
    otherwise, with the same bits either way; the weights and
    permutations come from NumPy's Generator on both paths. The dataset is
    expected to be normalized already; pass the normalizer so prediction
    applies the same transform. Divergence (non-finite loss) raises
    TrainingFailureError with the epoch index.
    """
    rng = np.random.default_rng(seed)
    sizes = [ds.x.shape[1]] + [arch.neurons_per_layer] * arch.hidden_layers + [1]
    params = np.zeros(arch.n_parameters(ds.x.shape[1]))
    layers = _layer_views(params, sizes)
    for w, _ in layers:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    x_all = np.ascontiguousarray(ds.x, float)
    y_all = np.ascontiguousarray(ds.y, float)
    grads = np.empty_like(params)
    grad_layers = _layer_views(grads, sizes)
    n = ds.n_samples
    pred = np.empty(n)
    for epoch in range(arch.epochs):
        perm = rng.permutation(n)
        y = y_all[perm]
        if _kernel is not None:
            _kernel.sgd_epoch(layers, x_all, y_all, perm, pred, LEARNING_RATE, BATCH_SIZE)
        else:
            x = x_all[perm]
            for start in range(0, n, BATCH_SIZE):
                batch = slice(start, start + BATCH_SIZE)
                _, pred[batch] = mlp_gradients(layers, x[batch], y[batch], out=grad_layers)
                params -= LEARNING_RATE * grads
        epoch_loss = float(np.sum((pred - y) ** 2))
        if not np.isfinite(epoch_loss):
            raise TrainingFailureError(f"training diverged at epoch {epoch}", epoch=epoch)
    m = ds.x.shape[1]
    nrm = normalization or Normalizer(np.zeros(m), np.ones(m))
    return ThermalModel(
        variant=thermal.VARIANT_MLP,
        feature_names=ds.feature_names,
        means=nrm.means,
        stds=nrm.safe_stds(),
        layers=tuple((w.copy(), b.copy()) for w, b in layers),
    )


def rmse(pred, actual) -> float:
    pred = np.asarray(pred, float)
    actual = np.asarray(actual, float)
    if pred.shape != actual.shape or pred.size == 0:
        raise InvalidParameterError("rmse needs equal-length non-empty vectors")
    return float(np.sqrt(np.mean((pred - actual) ** 2)))


def default_grid() -> list[MlpArchitecture]:
    """1-3 hidden layers times 5/10/20 neurons, bracketing the usual winner."""
    return [
        MlpArchitecture(hidden_layers=nl, neurons_per_layer=nn)
        for nl in (1, 2, 3)
        for nn in (5, 10, 20)
    ]


def _fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    perm = np.random.default_rng(seed).permutation(n)
    return [perm[i::k] for i in range(k)]


# Mean-RMSE differences below max(atol, rtol * best) count as ties and
# resolve toward fewer parameters, then grid order.
TIE_ATOL_K = 1e-3
TIE_RTOL = 0.05


def grid_search_cv(
    ds: Dataset,
    grid: list[MlpArchitecture],
    k: int = 5,
    seed: int = 0,
) -> tuple[MlpArchitecture, list[dict]]:
    """Pick the architecture with the lowest mean validation RMSE.

    The fold partition is deterministic per seed; per-cell training seeds
    derive from (seed, architecture shape, fold), so results do not depend
    on the order of the grid beyond the documented tie-break.
    """
    if k < 2:
        raise InvalidParameterError("need at least 2 folds")
    if not grid:
        raise InvalidParameterError("empty architecture grid")
    if ds.n_samples < k:
        raise InvalidParameterError(f"{ds.n_samples} samples cannot fill {k} folds")
    folds = _fold_indices(ds.n_samples, k, seed)
    table = []
    means = []
    for arch in grid:
        fold_rmses = []
        for fi, val_idx in enumerate(folds):
            train_mask = np.ones(ds.n_samples, dtype=bool)
            train_mask[val_idx] = False
            ds_train = Dataset(ds.x[train_mask], ds.y[train_mask], ds.feature_names)
            ds_val = Dataset(ds.x[val_idx], ds.y[val_idx], ds.feature_names)
            ss = np.random.SeedSequence([seed, arch.hidden_layers, arch.neurons_per_layer, fi])
            model = fit_mlp(ds_train, arch, seed=ss)
            pred, _ = mlp_forward(list(model.layers), ds_val.x)
            r = rmse(pred, ds_val.y)
            fold_rmses.append(r)
            table.append(
                {
                    "hidden_layers": arch.hidden_layers,
                    "neurons": arch.neurons_per_layer,
                    "fold": fi,
                    "rmse_k": r,
                }
            )
        means.append(float(np.mean(fold_rmses)))
    best_mean = min(means)
    tie = max(TIE_ATOL_K, TIE_RTOL * best_mean)
    candidates = [i for i, m in enumerate(means) if m <= best_mean + tie]
    nf = ds.x.shape[1]
    best = min(candidates, key=lambda i: (grid[i].n_parameters(nf), i))
    return grid[best], table


def save_cv_table_csv(table: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["hidden_layers", "neurons", "fold", "rmse_k"])
        for row in table:
            w.writerow([row["hidden_layers"], row["neurons"], row["fold"], repr(row["rmse_k"])])
