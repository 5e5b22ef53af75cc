"""NumPy fallback for the backward-induction hot loop.

One pass fills the grids of B scenarios that share a transition table: the
cost of each cell, and in the int32 action grid the index k of the action
that attains it. Scenario b's candidate for cell c and action k is
(je_b[k] + (scale_b * cyc_fade(c, k) + cal_b[c])) + interpolated successor,
where cyc_fade(c, k) is the table's entry for (c, k) and the successor is
read from b's own cost slice. Semantics match the compiled kernel exactly,
including this expression structure and the first-minimum tie rule, so both
backends produce bit-identical cost and action grids, and a scenario gets the
same bits in a batch as alone. Mode II passes scale 0.0 and a zero cal, so
its aging term is 0.0 * cyc + 0.0 = +0.0 for every finite cyc_fade, the term
a zero aging array would give.

An invalid transition has corner00 = -1, its other entries any value: its
candidate is the penalty.

The (M, K) table arrays come in a TransitionTable's tile order: each energy
row's cells in tiles of TILE adjacent cells (the row's last Nj mod TILE
cells one narrower tile), and within a tile action k of every cell before
action k + 1. The compiled kernel computes a tile's cells at once, one per
vector lane, on CPUs with AVX-512F (its LANES constant is then 8): each lane
does the same IEEE multiplies and adds as this code, in the same order and
without fused multiply-adds, and keeps the first minimum of its own cell
over the actions, the index np.argmin returns. Since a cell's actions never
meet another lane's, ties need no rule across lanes, and the lanes change
nothing here; this module stays the reference the tests compare both
kernels against.

Both kernels compute at step n only the cells of its box, the energy rows
[boxes[n, 0], boxes[n, 1]) and temperature columns [boxes[n, 2],
boxes[n, 3]) of the n_rows x (M / n_rows) grid, in every scenario; every
other cell gets the penalty and action index 0, what a cell without a valid
transition gets. Both work out the strides to a successor's other
corners from that shape: Nj cells to the next energy row and 1 to the next
temperature column, or 0 along an axis of a single node.
Here a step walks its box in blocks of BLOCK_CELLS // Nj rows (at least
one). For each block it un-tiles the tiles that hold the box's columns
(transitions.untile) and reads them once for all scenarios: the ufuncs work
element by element, so a cell gets the same bits in any block. The
temporaries are then at most one block of whole tiles by K per scenario,
whatever the size of the box, so the kernel's memory does not depend on the
region. Invalid transitions read corner 0 in place of their -1, and their
candidates are then replaced by the penalty; the compiled kernel reads no
corner for them. Both kernels accept the same inputs: both raise TypeError
for an array of another item type, and ValueError for a corner00 entry
below -1 or with a successor corner outside the M cells, for a box outside
the grid, a row count that does not divide M or an empty batch.
"""

from __future__ import annotations

import numpy as np

from .transitions import TILE, untile

BLOCK_CELLS = 1024  # cells per row block, which bounds the (cells, K) temporaries


def backward_pass(
    cost: np.ndarray,  # (B, N+1, M), slices N..0; slice N pre-initialized
    action: np.ndarray,  # (B, N, M) int32 out, the index of each cell's minimum
    corner00: np.ndarray,  # (M, K) int32 flat lower-corner cell of the successor, -1 if invalid; tile order
    frac_e: np.ndarray,  # (M, K)
    frac_theta: np.ndarray,  # (M, K)
    cyc_fade: np.ndarray,  # (M, K) cyclic fade fraction per transition
    je: np.ndarray,  # (N, B, K) energy cost per action and interval, EUR
    cal: np.ndarray,  # (B, M) calendar aging cost per cell, EUR
    scale: np.ndarray,  # (B,) aging cost per unit of fade, EUR
    penalty: float,
    n_rows: int,  # Ni, energy rows of Nj = M / Ni cells
    boxes: np.ndarray,  # (N, 4) int64 row range and column range [lo, hi) per step
) -> None:
    # the item types the compiled kernel requires
    for name, a, dtype in (
        ("cost", cost, np.float64),
        ("action", action, np.int32),
        ("corner00", corner00, np.int32),
        ("frac_e", frac_e, np.float64),
        ("frac_theta", frac_theta, np.float64),
        ("cyc_fade", cyc_fade, np.float64),
        ("je", je, np.float64),
        ("cal", cal, np.float64),
        ("scale", scale, np.float64),
        ("boxes", boxes, np.int64),
    ):
        if a.dtype != dtype:
            raise TypeError(f"backward_pass: {name} has item type {a.dtype}, expected {np.dtype(dtype)}")
    n_steps, n_scen = je.shape[:2]
    if n_scen < 1:
        raise ValueError("backward_pass: no scenarios (B=0)")
    m = corner00.shape[0]
    if n_rows < 1 or m % n_rows:
        raise ValueError(f"backward_pass: {n_rows} rows, which do not divide M={m} cells")
    shape = (n_rows, m // n_rows, je.shape[2])  # (Ni, Nj, K) views of the (M, K) arrays
    stride_e = shape[1] if shape[0] > 1 else 0
    stride_t = 1 if shape[1] > 1 else 0
    bad = (corner00 < -1) | (corner00 >= m - stride_e - stride_t)
    if bad.any():
        at = int(np.flatnonzero(bad)[0])  # the first in tile order, as the compiled kernel reports
        # the cell and action of the entry, whose tile starts at column j0
        i, in_row = divmod(at, shape[1] * shape[2])
        j0 = in_row // (TILE * shape[2]) * TILE
        w = min(shape[1] - j0, TILE)
        in_tile = in_row - j0 * shape[2]
        raise ValueError(
            f"backward_pass: corner00[{at // shape[2]}, {at % shape[2]}] = {corner00.flat[at]} "
            f"(cell {i * shape[1] + j0 + in_tile % w}, action {in_tile // w}) "
            f"puts a successor corner outside the {m} cells"
        )
    if boxes.shape != (n_steps, 4):
        raise ValueError(f"backward_pass: boxes has shape {boxes.shape}, expected ({n_steps}, 4)")
    outside = (boxes[:, ::2] < 0) | (boxes[:, ::2] > boxes[:, 1::2]) | (boxes[:, 1::2] > shape[:2])
    if outside.any():
        n = np.flatnonzero(outside.any(axis=1))[0]
        top, bottom, left, right = boxes[n]
        raise ValueError(
            f"backward_pass: box [{top}, {bottom}) x [{left}, {right}) of step {n} "
            f"is not within [0, Ni={shape[0]}] x [0, Nj={shape[1]}]"
        )
    cal = cal.reshape(n_scen, *shape[:2])
    block = max(1, BLOCK_CELLS // shape[1])
    for n in range(n_steps - 1, -1, -1):
        cost[:, n] = penalty
        action[:, n] = 0
        top, bottom, left, right = boxes[n]
        if left == right:  # no column, so no tile to read
            continue
        # the box's columns, widened to whole tiles: [lo, hi) starts a tile, and ends one or the row
        lo, hi = left - left % TILE, min(right + -right % TILE, shape[1])
        # views of step n's slices: a 1-D row reshapes without a copy, whatever its stride
        cost_n, action_n = ([a[b, n].reshape(shape[:2]) for b in range(n_scen)] for a in (cost, action))
        for r0 in range(top, bottom, block):
            box = np.s_[r0 : min(r0 + block, bottom), left:right]

            def cells(a):
                """The box's rows of table array a, in cell order."""
                tiles = a.reshape(shape[0], -1)[box[0], lo * shape[2] : hi * shape[2]]
                return untile(tiles, hi - lo)[:, left - lo : right - lo]

            c = cells(corner00)
            mask = c >= 0
            c = np.maximum(c, 0)  # an invalid transition's -1 reads corner 0
            fe, ft, cyc = cells(frac_e), cells(frac_theta), cells(cyc_fade)
            ge, gt = 1.0 - fe, 1.0 - ft
            for b in range(n_scen):
                nxt = cost[b, n + 1]
                lo_cost = gt * nxt[c] + ft * nxt[c + stride_t]
                hi_cost = gt * nxt[c + stride_e] + ft * nxt[c + stride_e + stride_t]
                succ_cost = ge * lo_cost + fe * hi_cost
                cand = (je[n, b] + (scale[b] * cyc + cal[b][box][..., None])) + succ_cost
                cand = np.where(mask, cand, penalty)
                k_best = np.argmin(cand, axis=2)
                cost_n[b][box] = np.take_along_axis(cand, k_best[..., None], axis=2)[..., 0]
                action_n[b][box] = k_best
