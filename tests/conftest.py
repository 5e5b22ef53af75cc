"""Builds the compiled kernel in place before the tests import chargeopt, so
that both backward-induction kernels are tested. The module is rebuilt when
it is older than its C source or than setup.py, which holds the compile
flags. Without a C compiler the tests run on the NumPy kernel alone."""

import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_SOURCE = ROOT / "src" / "chargeopt" / "optimizer" / "_ddp_kernel.c"
BUILD_INPUTS = (KERNEL_SOURCE, ROOT / "setup.py")


def pytest_sessionstart(session):
    built = KERNEL_SOURCE.with_name("_ddp_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    if built.is_file() and all(built.stat().st_mtime >= p.stat().st_mtime for p in BUILD_INPUTS):
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
