"""The benchmark in perfbench/ resolves against the package: a deleted or
renamed public name fails here instead of at `perfbench/run.py --trace 1`.
The two backward-pass kernels take the same arguments. The calls that the
benchmark's per-layer numbers divide by keep their counts: on the NumPy
path of MLP training one mlp_gradients call per minibatch, and on the
compiled path one epoch call per epoch and none of mlp_gradients; one
energy_step call per interval of a validation, whatever the number of
models, one thermal.step and one lookup_arrays call per interval of a
mode comparison, for its three rollouts together, one aging_cost call per
forward loop, and one backward_pass and
one reachable_region call per mode comparison, for Modes II and III
together. The benchmark's kernel annotation reads (M, K, N) from a
backward_pass call. The compiled module's source compiles without a
warning."""

import importlib
import inspect
import math
import re
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from chargeopt import electrical, evaluation, learning, tariff, thermal
from chargeopt.aging import default_params
from chargeopt.optimizer import BatteryModels, build_grids, build_transition_table
from chargeopt.optimizer import backend as backend_mod
from chargeopt.optimizer import solver as solver_mod
from conftest import extensions

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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

    signature = re.match(r"backward_pass\(([^)]*)\)", backend._kernel.backward_pass.__doc__)
    assert signature is not None
    compiled = [name.strip() for name in signature.group(1).split(",")]
    assert compiled == list(inspect.signature(_kernel_py.backward_pass).parameters)


@pytest.mark.parametrize("kernel", [ROOT / src for ext in extensions() for src in ext.sources], ids=lambda p: p.name)
def test_kernel_source_compiles_without_warnings(kernel):
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    include = sysconfig.get_paths()["include"]
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-Werror", "-pthread", f"-I{include}"]
    done = subprocess.run([gcc, *flags, str(kernel)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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
    monkeypatch.setattr(learning, "_kernel", None)  # the compiled epoch does not call it
    calls = _counting(monkeypatch, learning, "mlp_gradients")
    rng = np.random.default_rng(n)
    ds = learning.Dataset(rng.normal(size=(n, 2)), rng.normal(size=n), ("a", "b"))
    learning.fit_mlp(ds, learning.MlpArchitecture(2, 3, epochs=epochs))
    assert len(calls) == epochs * math.ceil(n / learning.BATCH_SIZE)


@pytest.mark.skipif(learning._kernel is None, reason="compiled kernel not built")
@pytest.mark.parametrize("n, epochs", [(5, 3), (33, 2), (100, 4)])
def test_fit_mlp_calls_the_compiled_epoch_once_per_epoch(monkeypatch, n, epochs):
    epochs_run = _counting(monkeypatch, learning._kernel, "sgd_epoch")
    minibatches = _counting(monkeypatch, learning, "mlp_gradients")
    rng = np.random.default_rng(n)
    ds = learning.Dataset(rng.normal(size=(n, 2)), rng.normal(size=n), ("a", "b"))
    learning.fit_mlp(ds, learning.MlpArchitecture(2, 3, epochs=epochs))
    assert (len(epochs_run), len(minibatches)) == (epochs, 0)


@pytest.mark.parametrize("n_models", [0, 1, 3])
def test_validate_models_calls_energy_step_once_per_interval_and_once_for_local_errors(monkeypatch, n_models):
    tables = electrical.default_tables()
    events = thermal.generate_synthetic_events(thermal.ThermalPlant(), tables, 3, seed=5)
    linear = thermal.plant_linear_model(thermal.ThermalPlant(fan_gain=0.0))
    models = dict([("constant", thermal.constant_model()), ("linear", linear), ("linear_again", linear)][:n_models])
    calls = _counting(monkeypatch, electrical, "energy_step")
    evaluation.validate_models(events, tables, models)
    assert len(calls) == max(ev.grid.n_intervals for ev in events) + 1


@pytest.mark.skipif(electrical._kernel is None, reason="compiled kernel not built")
@pytest.mark.parametrize("n_models", [0, 1, 3])
def test_validate_models_makes_one_compiled_circuit_call_per_interval_and_no_lookup(monkeypatch, n_models):
    tables = electrical.default_tables()
    events = thermal.generate_synthetic_events(thermal.ThermalPlant(), tables, 3, seed=5)
    mlp = thermal.ThermalModel(
        variant="mlp", layers=((np.full((4, 3), 0.01), np.zeros(3)), (np.full((3, 1), 0.01), np.zeros(1)))
    )
    models = dict([("constant", thermal.constant_model()), ("mlp", mlp), ("mlp_again", mlp)][:n_models])
    circuit = _counting(monkeypatch, electrical._kernel, "energy_step")
    predictor = _counting(monkeypatch, thermal._kernel, "temperature_change")
    lookups = _counting(monkeypatch, electrical, "lookup_arrays")
    evaluation.validate_models(events, tables, models)
    n = max(ev.grid.n_intervals for ev in events)
    # the constant model predicts zeros in Python; each other model is one compiled call per interval and one local
    n_learned = sum(model.variant != "constant" for model in models.values())
    assert (len(circuit), len(predictor), len(lookups)) == (n + 1, n_learned * (n + 1), 0)


def _mode_comparison_instance():
    """An event, its coarse scenario, plant-linear models and their table."""
    tables = electrical.default_tables()
    plant = thermal.ThermalPlant()
    models = BatteryModels(tables=tables, thermal=thermal.plant_linear_model(plant), aging=default_params())
    event = evaluation.eligible_events(thermal.generate_synthetic_events(plant, tables, 2, seed=11))[0]
    s = evaluation.scenario_for_event(event, tariff.default_profiles()[0], e_step=1.6, theta_step=2.0, p_step=2.0)
    return event, s, models, build_transition_table(s, models, build_grids(s))


@pytest.mark.parametrize("module, name", [(thermal, "step"), (electrical, "lookup_arrays")])
def test_compare_modes_steps_its_three_rollouts_with_one_call_per_interval(monkeypatch, module, name):
    if module is electrical:  # the compiled circuit step looks nothing up in Python
        monkeypatch.setattr(electrical, "_kernel", None)
    event, s, models, table = _mode_comparison_instance()
    calls = _counting(monkeypatch, module, name)
    cmp_ = evaluation.compare_modes(event, s, models, table=table)
    assert not any(note.startswith("interval") for sol in (cmp_.mode_i, cmp_.mode_ii, cmp_.mode_iii) for note in sol.notes)
    assert len(calls) == s.grid.n_intervals


def test_a_forward_loop_costs_its_aging_with_one_call(monkeypatch):
    # aging_cost is elementwise and batch-invariant, so the loop costs every
    # interval of every row after its last interval: one call per rollouts
    # call, for compare_modes' three rows as for one
    event, s, models, table = _mode_comparison_instance()
    calls = _counting(monkeypatch, solver_mod, "aging_cost")
    cmp_ = evaluation.compare_modes(event, s, models, table=table)
    assert len(calls) == 1
    grids = solver_mod.backward_induction(s, build_grids(s), models, table=table)
    for rollout in (
        lambda: solver_mod.forward_integration(s, grids, models),
        lambda: solver_mod.replay(cmp_.mode_i.p_star, s, models),
    ):
        calls.clear()
        rollout()
        assert len(calls) == 1


@pytest.mark.parametrize("module, name", [(backend_mod, "backward_pass"), (solver_mod, "reachable_region")])
def test_compare_modes_solves_modes_ii_and_iii_in_one_pass(monkeypatch, module, name):
    event, s, models, table = _mode_comparison_instance()
    calls = _counting(monkeypatch, module, name)
    evaluation.compare_modes(event, s, models, table=table)
    assert len(calls) == 1


def test_perfbench_kernel_note_reads_a_compare_modes_pass(monkeypatch):
    # perfbench's per-layer kernel numbers annotate each backend.backward_pass
    # call with (M, K, N) from its arguments; an annotation that raises fails
    # every op of a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    event, s, models, table = _mode_comparison_instance()
    calls = []
    backward_pass = backend_mod.backward_pass
    monkeypatch.setattr(backend_mod, "backward_pass", lambda *a, **k: calls.append((a, k)) or backward_pass(*a, **k))
    evaluation.compare_modes(event, s, models, table=table)
    (args, kwargs), = calls
    grids = build_grids(s)
    m, k = len(grids.e_d) * len(grids.theta_d), len(grids.p_d)
    assert workloads._kernel_note(args, kwargs, None) == {"m": m, "k": k, "n": s.grid.n_intervals}
