"""The benchmark in perfbench/ resolves against the package: a deleted or
renamed public name fails here instead of at `perfbench/run.py --trace 1`.
The two backward-pass kernels take the same arguments."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

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
