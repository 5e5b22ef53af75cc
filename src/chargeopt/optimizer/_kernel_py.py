"""NumPy fallback for the backward-induction hot loop.

Semantics match the compiled kernel exactly, including the expression
structure (je + jd) + interpolated successor and the first-minimum tie
rule, so both backends produce bit-identical cost and action grids.

The compiled kernel evaluates 8 actions at a time on CPUs with AVX-512F
(its LANES constant is then 8): each lane does the same IEEE multiplies and
adds as this code, in the same order and without fused multiply-adds, and
the lanes' minima are combined with ties going to the lowest action index,
the index np.argmin returns. So the lanes change nothing here; this module
stays the reference the tests compare both kernels against.

Both kernels compute at step n only the cells of its box, the energy rows
[boxes[n, 0], boxes[n, 1]) and temperature columns [boxes[n, 2],
boxes[n, 3]) of the n_rows x (M / n_rows) grid; every other cell gets the
penalty and the action p_d[0], what a cell without a valid transition gets.
Both work out the strides to a successor's other corners from that shape:
Nj cells to the next energy row and 1 to the next temperature column, or 0
along an axis of a single node.
Here a step walks its box in blocks of BLOCK_CELLS // Nj rows (at least
one), each block a box of slice views of the (M, K) arrays: the ufuncs work
element by element, so a cell gets the same bits in any block. The
temporaries are then at most one block by K, whatever the size of the box,
so the kernel's memory does not depend on the scenario. Invalid transitions
read corner 0 instead of their own corners, as the compiled kernel reads
none of them, so both accept the same inputs, and both raise ValueError for
a box outside the grid or a row count that does not divide M.
"""

from __future__ import annotations

import numpy as np

BLOCK_CELLS = 1024  # cells per row block, which bounds the (cells, K) temporaries


def backward_pass(
    cost: np.ndarray,  # (N+1, M), slices N..0; slice N pre-initialized
    action_kw: np.ndarray,  # (N, M) out
    valid: np.ndarray,  # (M, K) uint8
    corner00: np.ndarray,  # (M, K) flat lower-corner cell of the successor
    frac_e: np.ndarray,  # (M, K)
    frac_theta: np.ndarray,  # (M, K)
    jd: np.ndarray,  # (M, K) aging cost per transition, EUR
    je: np.ndarray,  # (N, K) energy cost per action and interval, EUR
    p_d: np.ndarray,  # (K,)
    penalty: float,
    n_rows: int,  # Ni, energy rows of Nj = M / Ni cells
    boxes: np.ndarray,  # (N, 4) int64 row range and column range [lo, hi) per step
) -> None:
    n_steps = je.shape[0]
    if n_rows < 1 or valid.shape[0] % n_rows:
        raise ValueError(f"backward_pass: {n_rows} rows, which do not divide M={valid.shape[0]} cells")
    shape = (n_rows, valid.shape[0] // n_rows, len(p_d))  # (Ni, Nj, K) views of the (M, K) arrays
    stride_e = shape[1] if shape[0] > 1 else 0
    stride_t = 1 if shape[1] > 1 else 0
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
    mask = valid.astype(bool).reshape(shape)
    c00 = np.where(mask, corner00.reshape(shape), 0)
    frac_e, frac_theta, jd = (a.reshape(shape) for a in (frac_e, frac_theta, jd))
    block = max(1, BLOCK_CELLS // shape[1])
    for n in range(n_steps - 1, -1, -1):
        cost[n] = penalty
        action_kw[n] = p_d[0]
        nxt = cost[n + 1]
        top, bottom, left, right = boxes[n]
        # views of step n's slices: a 1-D row reshapes without a copy, whatever its stride
        cost_n, action_n = (a[n].reshape(shape[:2]) for a in (cost, action_kw))
        for r0 in range(top, bottom, block):
            box = np.s_[r0 : min(r0 + block, bottom), left:right]
            fe, ft, c = frac_e[box], frac_theta[box], c00[box]
            lo = (1.0 - ft) * nxt[c] + ft * nxt[c + stride_t]
            hi = (1.0 - ft) * nxt[c + stride_e] + ft * nxt[c + stride_e + stride_t]
            succ_cost = (1.0 - fe) * lo + fe * hi
            cand = (je[n] + jd[box]) + succ_cost
            cand = np.where(mask[box], cand, penalty)
            k_best = np.argmin(cand, axis=2)
            cost_n[box] = np.take_along_axis(cand, k_best[..., None], axis=2)[..., 0]
            action_n[box] = p_d[k_best]
