"""Builds the compiled kernels in place before the tests import chargeopt, so
that both the compiled and the NumPy paths are tested. Every extension that
setup.py lists is rebuilt when its module is older than one of its C
sources or than setup.py, which holds the compile flags. Without a C
compiler the tests run on the NumPy paths alone. With one, a build that
leaves a module missing or out of date fails the session: setup.py builds
the extensions as optional, so a kernel that does not compile would
otherwise pass as a skip of every test of its compiled path.

The mlp_path fixture runs a test once on the NumPy definitions of the MLP's
arithmetic and of the circuit step and once on the compiled module
_mlp_kernel (skipped when it is not built). numpy_reference runs a function
on the NumPy definitions alone, whatever path the test is on, and same_bits
compares its result with a test's."""

import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SETUP = ROOT / "setup.py"


def extensions():
    """setup.py's EXTENSIONS, read without running setup()."""
    spec = importlib.util.spec_from_file_location("chargeopt_setup", SETUP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXTENSIONS


def pytest_sessionstart(session):
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    builds = []
    for ext in extensions():
        sources = [ROOT / src for src in ext.sources]
        builds.append((sources[0].with_name(ext.name.rsplit(".", 1)[-1] + suffix), sources + [SETUP]))

    def stale():
        return [
            built.name
            for built, inputs in builds
            if not (built.is_file() and all(built.stat().st_mtime >= p.stat().st_mtime for p in inputs))
        ]

    if not stale():
        return
    if shutil.which(shlex.split(sysconfig.get_config_var("CC") or "cc")[0]) is None:
        return
    subprocess.run(
        # --force: build_ext itself compares only the sources' mtimes
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--force"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    if stale():
        pytest.exit(f"a C compiler is on PATH, but the build left {', '.join(stale())} missing or out of date", 1)


def _kernel_users():
    from chargeopt import electrical, thermal

    return electrical, thermal


@pytest.fixture(params=["numpy", "compiled"])
def mlp_path(request, monkeypatch):
    if request.param == "numpy":
        for module in _kernel_users():
            monkeypatch.setattr(module, "_mlp_kernel", None)
    elif any(module._mlp_kernel is None for module in _kernel_users()):
        pytest.skip("MLP kernel not built")
    return request.param


def same_bits(got, want):
    """Equal types, shapes and bytes, element by element, of a value or a
    tuple of values (floats and arrays)."""
    assert type(got) is type(want)
    if isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_bits(g, w)
    else:
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def numpy_reference(run):
    """run() on the NumPy definitions of the circuit step and the MLP."""
    with pytest.MonkeyPatch.context() as patch:
        for module in _kernel_users():
            patch.setattr(module, "_mlp_kernel", None)
        return run()
