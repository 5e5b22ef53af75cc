"""Selects the backward-induction kernel: compiled if available, NumPy otherwise.

solver.backward_induction's backend argument, "compiled" or "python",
picks one per call.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from . import _kernel_py

try:
    from . import _ddp_kernel  # type: ignore[attr-defined]

    HAVE_COMPILED = True
except ImportError:
    _ddp_kernel = None
    HAVE_COMPILED = False


def normalize_backend(name: str | None) -> str:
    if name is None:
        name = "compiled" if HAVE_COMPILED else "python"
    if name not in ("compiled", "python"):
        raise InvalidParameterError(f"unknown backend {name!r}")
    if name == "compiled" and not HAVE_COMPILED:
        raise InvalidParameterError("compiled kernel not available; build the extension or use backend='python'")
    return name


def active_backend() -> str:
    """Name of the kernel used when no explicit backend is requested."""
    return normalize_backend(None)


def backward_pass(
    cost3,
    action3,
    valid,
    corner00,
    frac_e,
    frac_theta,
    jd,
    je,
    p_d,
    penalty,
    region,
    backend: str | None = None,
):
    """Run the backward induction over flattened state cells.

    cost3 is the (N+1, Ni, Nj) cost grid, action3 the (N, Ni, Nj) action
    grid; both are filled in place. Successor costs are read by bilinear
    interpolation from corner00 with weights (frac_e, frac_theta). region,
    an (N, 4) int array of half-open boxes, limits step n to the cells
    [region[n, 0], region[n, 1]) x [region[n, 2], region[n, 3]), and the
    other cells get penalty and p_d[0]. backend names the kernel; None
    takes active_backend().
    """
    n_plus_1, ni, nj = cost3.shape
    cost2 = cost3.reshape(n_plus_1, ni * nj)
    action2 = action3.reshape(action3.shape[0], ni * nj)
    args = (
        np.ascontiguousarray(valid, dtype=np.uint8),
        np.ascontiguousarray(corner00, dtype=np.int64),
        np.ascontiguousarray(frac_e, dtype=np.float64),
        np.ascontiguousarray(frac_theta, dtype=np.float64),
        np.ascontiguousarray(jd, dtype=np.float64),
        np.ascontiguousarray(je, dtype=np.float64),
        np.ascontiguousarray(p_d, dtype=np.float64),
        float(penalty),
        ni,
        np.ascontiguousarray(region, dtype=np.int64),
    )
    if normalize_backend(backend) == "compiled":
        _ddp_kernel.backward_pass(cost2, action2, *args)
    else:
        _kernel_py.backward_pass(cost2, action2, *args)
