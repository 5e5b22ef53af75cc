"""The benchmark in perfbench/ resolves against the package: a deleted or
renamed public name fails here instead of at `perfbench/run.py --trace 1`.
The two backward-pass kernels take the same arguments. The calls that the
benchmark's per-layer numbers divide by keep their counts: one
mlp_gradients call per minibatch, and one energy_step call per interval
of a validation, whatever the number of models."""

import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from chargeopt import electrical, evaluation, learning, thermal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module", ["chargeopt", "chargeopt.optimizer"])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_perfbench_trace_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    missing = [
        f"{t.module}.{t.attr}"
        for t in workloads.TARGETS
        if not callable(getattr(importlib.import_module(t.module), t.attr, None))
    ]
    assert missing == []


def test_kernels_name_the_same_parameters_in_the_same_order():
    backend = importlib.import_module("chargeopt.optimizer.backend")
    if not backend.HAVE_COMPILED:
        pytest.skip("compiled kernel not built")
    from chargeopt.optimizer import _kernel_py

    signature = re.match(r"backward_pass\(([^)]*)\)", backend._ddp_kernel.backward_pass.__doc__)
    assert signature is not None
    compiled = [name.strip() for name in signature.group(1).split(",")]
    assert compiled == list(inspect.signature(_kernel_py.backward_pass).parameters)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n, epochs", [(5, 3), (32, 2), (33, 2), (100, 4)])
def test_fit_mlp_calls_mlp_gradients_once_per_minibatch(monkeypatch, n, epochs):
    calls = _counting(monkeypatch, learning, "mlp_gradients")
    rng = np.random.default_rng(n)
    ds = learning.Dataset(rng.normal(size=(n, 2)), rng.normal(size=n), ("a", "b"))
    learning.fit_mlp(ds, learning.MlpArchitecture(2, 3, epochs=epochs))
    assert len(calls) == epochs * math.ceil(n / learning.BATCH_SIZE)


@pytest.mark.parametrize("n_models", [0, 1, 3])
def test_validate_models_calls_energy_step_once_per_interval_and_once_for_local_errors(monkeypatch, n_models):
    tables = electrical.default_tables()
    events = thermal.generate_synthetic_events(thermal.ThermalPlant(), tables, 3, seed=5)
    linear = thermal.plant_linear_model(thermal.ThermalPlant(fan_gain=0.0))
    models = dict([("constant", thermal.constant_model()), ("linear", linear), ("linear_again", linear)][:n_models])
    calls = _counting(monkeypatch, electrical, "energy_step")
    evaluation.validate_models(events, tables, models)
    assert len(calls) == max(ev.grid.n_intervals for ev in events) + 1
