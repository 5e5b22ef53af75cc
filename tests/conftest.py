"""Builds the compiled kernel in place before the tests import chargeopt, so
that both backward-induction kernels are tested. Without a C compiler the
tests run on the NumPy kernel alone."""

import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_SOURCE = ROOT / "src" / "chargeopt" / "optimizer" / "_ddp_kernel.c"


def pytest_sessionstart(session):
    built = KERNEL_SOURCE.with_name("_ddp_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    if built.is_file() and built.stat().st_mtime >= KERNEL_SOURCE.stat().st_mtime:
        return
    if shutil.which(shlex.split(sysconfig.get_config_var("CC") or "cc")[0]) is None:
        return
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
    )
