"""Builds the compiled kernel in place before the tests import chargeopt, so
that both backward-induction kernels are tested. The module is rebuilt when
it is older than its C source or than setup.py, which holds the compile
flags. Without a C compiler the tests run on the NumPy kernel alone. With
one, a build that leaves no up-to-date module fails the session: setup.py
builds the extension as optional, so a kernel that does not compile would
otherwise pass as a skip of every compiled-kernel test."""

import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNEL_SOURCE = ROOT / "src" / "chargeopt" / "optimizer" / "_ddp_kernel.c"
BUILD_INPUTS = (KERNEL_SOURCE, ROOT / "setup.py")


def pytest_sessionstart(session):
    built = KERNEL_SOURCE.with_name("_ddp_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))

    def up_to_date():
        return built.is_file() and all(built.stat().st_mtime >= p.stat().st_mtime for p in BUILD_INPUTS)

    if up_to_date():
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
    if not up_to_date():
        pytest.exit(f"a C compiler is on PATH, but building {KERNEL_SOURCE.name} left no up-to-date {built.name}", 1)
