"""Selects the backward-induction kernel: compiled if available, NumPy otherwise.

solver.backward_induction's backend argument, "compiled" or "python",
picks one per call.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from . import _kernel_py

try:
    from .. import _kernel  # type: ignore[attr-defined]
except ImportError:  # not built: the NumPy kernel runs, with the same bits
    _kernel = None

HAVE_COMPILED = _kernel is not None


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
    cost,
    action,
    corner00,
    frac_e,
    frac_theta,
    cyc_fade,
    *,
    je,
    cal,
    scale,
    penalty,
    region,
    backend: str | None = None,
):
    """Run one backward induction over flattened state cells for B
    scenarios that share a transition table.

    cost is the (B, N+1, Ni, Nj) float64 cost grid and action the (B, N,
    Ni, Nj) int32 action grid of the B scenarios; both are filled in place,
    action with the index k of each cell's minimum over the K actions.
    corner00 (int32), frac_e, frac_theta and cyc_fade are a
    TransitionTable's (M, K) arrays, in its tile order. Successor costs are
    read by bilinear interpolation from corner00 with weights (frac_e,
    frac_theta); a transition with corner00 = -1 is invalid, and its
    candidate is the penalty. Scenario b's candidate for cell c and action
    k is (je[n, b, k] + (scale[b] * cyc_fade(c, k) + cal[b, c])) + successor
    cost, where cyc_fade(c, k) is the table's entry for (c, k), je is
    (N, B, K), cal (B, M) the calendar cost per cell and scale (B,) the cost
    per unit of fade, 0.0 with a zero cal to leave aging out of the
    objective. The table's arrays are read once per
    (cell, action) for all B. region, an (N, 4) int array of half-open
    boxes, limits step n to the cells [region[n, 0], region[n, 1]) x
    [region[n, 2], region[n, 3]) of every scenario, and the other cells get
    penalty and action 0. The table's arrays reach the kernel without a copy.
    Both kernels keep one first minimum per cell, so ties need no rule
    across the compiled kernel's lanes, each of which computes one cell.
    backend names the kernel; None takes active_backend(). The arguments
    after the table's arrays are keyword-only.
    """
    n_scen, n_plus_1, ni, nj = cost.shape
    args = (
        cost.reshape(n_scen, n_plus_1, ni * nj),
        action.reshape(n_scen, n_plus_1 - 1, ni * nj),
        np.ascontiguousarray(corner00, dtype=np.int32),
        np.ascontiguousarray(frac_e, dtype=np.float64),
        np.ascontiguousarray(frac_theta, dtype=np.float64),
        np.ascontiguousarray(cyc_fade, dtype=np.float64),
        np.ascontiguousarray(je, dtype=np.float64),
        np.ascontiguousarray(cal, dtype=np.float64),
        np.ascontiguousarray(scale, dtype=np.float64),
        float(penalty),
        ni,
        np.ascontiguousarray(region, dtype=np.int64),
    )
    if normalize_backend(backend) == "compiled":
        _kernel.backward_pass(*args)
    else:
        _kernel_py.backward_pass(*args)
