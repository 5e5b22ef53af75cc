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
"""

from __future__ import annotations

import numpy as np


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
) -> None:
    n_steps = je.shape[0]
    mask = valid.astype(bool)
    rows = np.arange(valid.shape[0])
    c00 = corner00
    c01 = corner00 + stride_t
    c10 = corner00 + stride_e
    c11 = c10 + stride_t
    for n in range(n_steps - 1, -1, -1):
        nxt = cost[n + 1]
        lo = (1.0 - frac_theta) * nxt[c00] + frac_theta * nxt[c01]
        hi = (1.0 - frac_theta) * nxt[c10] + frac_theta * nxt[c11]
        succ_cost = (1.0 - frac_e) * lo + frac_e * hi
        cand = (je[n][None, :] + jd) + succ_cost
        cand = np.where(mask, cand, penalty)
        k_best = np.argmin(cand, axis=1)
        cost[n] = cand[rows, k_best]
        action_kw[n] = p_d[k_best]
