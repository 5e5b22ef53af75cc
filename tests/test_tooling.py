"""The benchmark in perfbench/ resolves against the package: a deleted or
renamed public name fails here instead of at `perfbench/run.py --trace 1`."""

import importlib
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
