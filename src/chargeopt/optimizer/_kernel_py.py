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

Both kernels compute at step n only the cells of its region, the cells j
in [j_lo[n, i], j_hi[n, i]) of each energy row i; every other cell gets the
penalty and the action p_d[0], what a cell without a valid transition gets.
Here a step walks its region's rows in blocks of BLOCK_CELLS // Nj rows
(at least one). Each block evaluates the box of columns around its region
cells, as slice views of the (M, K) arrays, and keeps the region cells'
results: the ufuncs work element by element, so a cell gets the same bits
in any box. The temporaries are then at most one block by K, whatever the
size of the region, so the kernel's memory does not depend on the scenario.
Invalid transitions read corner 0 instead of their own corners, as the
compiled kernel reads none of them, so both accept the same inputs.
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
    stride_e: int,  # Nj, or 0 for a single-node energy axis
    stride_t: int,  # 1, or 0 for a single-node temperature axis
    jd: np.ndarray,  # (M, K) aging cost per transition, EUR
    je: np.ndarray,  # (N, K) energy cost per action and interval, EUR
    p_d: np.ndarray,  # (K,)
    penalty: float,
    j_lo: np.ndarray,  # (N, Ni) first region cell of each row
    j_hi: np.ndarray,  # (N, Ni) one past the last region cell of each row
) -> None:
    n_steps = je.shape[0]
    n_rows = j_lo.shape[1]
    shape = (n_rows, valid.shape[0] // n_rows, len(p_d))  # (Ni, Nj, K) views of the (M, K) arrays
    mask = valid.astype(bool).reshape(shape)
    c00 = np.where(mask, corner00.reshape(shape), 0)
    frac_e, frac_theta, jd = (a.reshape(shape) for a in (frac_e, frac_theta, jd))
    columns = np.arange(shape[1])
    block = max(1, BLOCK_CELLS // shape[1])
    for n in range(n_steps - 1, -1, -1):
        cost[n] = penalty
        action_kw[n] = p_d[0]
        nxt = cost[n + 1]
        rows = np.flatnonzero(j_lo[n] < j_hi[n])
        if len(rows) == 0:
            continue
        for r0 in range(rows[0], rows[-1] + 1, block):
            lo_n, hi_n = j_lo[n, r0 : r0 + block], j_hi[n, r0 : r0 + block]
            filled = lo_n < hi_n
            if not filled.any():
                continue
            # the box of columns around the block's region cells: slices, so views, not copies
            c0 = lo_n[filled].min()
            box = np.s_[r0 : r0 + block, c0 : hi_n[filled].max()]
            fe, ft, c = frac_e[box], frac_theta[box], c00[box]
            lo = (1.0 - ft) * nxt[c] + ft * nxt[c + stride_t]
            hi = (1.0 - ft) * nxt[c + stride_e] + ft * nxt[c + stride_e + stride_t]
            succ_cost = (1.0 - fe) * lo + fe * hi
            cand = (je[n] + jd[box]) + succ_cost
            cand = np.where(mask[box], cand, penalty)
            k_best = np.argmin(cand, axis=2)
            cols = columns[c0 : c0 + cand.shape[1]]
            i, j = np.nonzero((cols >= lo_n[:, None]) & (cols < hi_n[:, None]))
            cells = (r0 + i) * shape[1] + (c0 + j)
            cost[n, cells] = cand[i, j, k_best[i, j]]
            action_kw[n, cells] = p_d[k_best[i, j]]
