"""Independent oracles for the test suite.

The brute-force search enumerates every action sequence on the snapped
state chain with one model step per (cell, action) on 0-d inputs, entirely
separate from the solver's batched transition table. Gradients are
checked against central finite differences, and MLP training against the
plain mini-batch SGD loop.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

from chargeopt import aging as aging_mod
from chargeopt import electrical, tariff, thermal
from chargeopt.core import TimeGrid
from chargeopt.errors import TrainingFailureError
from chargeopt.evaluation import MODES_CSV_HEADER
from chargeopt.optimizer import BatteryModels, Scenario, nearest_index
from chargeopt.thermal import ThermalModel


def chain_transitions(s: Scenario, grids, models: BatteryModels):
    """Per (cell, action): None if invalid, else (succ_i, succ_j, jd_eur)."""
    out = {}
    scale = models.aging.cost_per_fade
    for i, e in enumerate(grids.e_d):
        for j, th in enumerate(grids.theta_d):
            for k, p in enumerate(grids.p_d):
                if not s.p_lo <= p <= s.p_hi:
                    out[i, j, k] = None
                    continue
                u, r = electrical.lookup_arrays(models.tables, e, th)
                if p < electrical.max_discharge_power(u, r):
                    out[i, j, k] = None
                    continue
                delta_e, _, dth = thermal.step(models.tables, models.thermal, e, th, p, s.grid.dt_min)
                e1, th1 = e + delta_e, th + dth
                if not (s.e_lo <= e1 <= s.e_hi and s.theta_lo <= th1 <= s.theta_hi):
                    out[i, j, k] = None
                    continue
                jd = 0.0
                if s.include_aging_in_objective:
                    jd = scale * (
                        aging_mod.cyclic_fade(models.aging, delta_e)
                        + aging_mod.calendar_fade(models.aging, th, e, s.soh0, s.grid.dt_min)
                    )
                out[i, j, k] = (
                    nearest_index(grids.e_d, e1),
                    nearest_index(grids.theta_d, th1),
                    jd,
                )
    return out


def brute_force_optimum(s: Scenario, grids, models: BatteryModels):
    """Exhaustive minimum over all action sequences on the snapped chain.

    Invalid actions collapse the remaining cost to the penalty, mirroring
    the cached-cost semantics of backward induction; sequence costs
    accumulate suffix-first to match the induction's association order.
    Strictly-better updates keep the lexicographically smallest minimizer,
    which equals the per-state lowest-action-index tie rule.
    """
    n = s.grid.n_intervals
    k_count = len(grids.p_d)
    trans = chain_transitions(s, grids, models)
    eps_buy, eps_sell = tariff.interval_prices(s.profile, s.grid)
    dt_h = s.grid.dt_min / 60.0
    je = np.empty((n, k_count))
    for step in range(n):
        for k, p in enumerate(grids.p_d):
            je[step, k] = max(p, 0.0) * dt_h * eps_buy[step] + min(p, 0.0) * dt_h * eps_sell[step]
    i0 = nearest_index(grids.e_d, s.e0)
    j0 = nearest_index(grids.theta_d, s.theta0)
    i_target = nearest_index(grids.e_d, s.e_target)

    best_cost, best_seq, best_ok = np.inf, None, False
    for seq in itertools.product(range(k_count), repeat=n):
        i, j = i0, j0
        steps = []
        dead_at = None
        for step, k in enumerate(seq):
            tr = trans[i, j, k]
            if tr is None:
                dead_at = step
                break
            si, sj, jd = tr
            steps.append((je[step, k] + jd))
            i, j = si, sj
        ok = dead_at is None and i == i_target
        cost = 0.0 if ok else s.penalty
        for c in reversed(steps):
            cost = c + cost
        if cost < best_cost:
            best_cost, best_seq, best_ok = cost, seq, ok
    return best_cost, np.array([grids.p_d[k] for k in best_seq]), best_ok


def random_tiny_instance(rng: np.random.Generator, n_k: int | None = None):
    """Random DDP instance with grid-closed dynamics and n_k actions (drawn
    from 2-6 when None).

    A near-lossless test cell (high open-circuit voltage, vanishing
    resistance) and integer-step temperature offsets keep transitions from
    grid states within ~1e-16 of grid points, so interpolated successor
    reads degenerate to node values, the continuous forward pass follows
    the snapped chain exactly, and the exhaustive chain search is an exact
    oracle, while bounds, penalties, prices, aging costs, and tie-breaks
    all stay exercised.
    """
    n_e = int(rng.integers(3, 7))
    n_t = int(rng.integers(2, 5))
    if n_k is None:
        n_k = int(rng.integers(2, 7))
    n_steps = int(rng.integers(2, 5))

    e_lo = 0.0
    e_hi = float(n_e - 1)
    theta_lo = 10.0
    theta_hi = float(theta_lo + n_t - 1)
    p_lo = -float(rng.integers(0, n_k))
    p_hi = p_lo + n_k - 1

    u0 = float(rng.uniform(30000.0, 50000.0))
    tables = electrical.EcmTables(
        e_axis=np.array([e_lo, e_hi + 1.0]),
        theta_axis=np.array([theta_lo - 1.0, theta_hi + 1.0]),
        u_ocv=np.full((2, 2), u0),
        r_i=np.full((2, 2), 1e-12),
    )
    if rng.random() < 0.5:
        thermal_model = thermal.constant_model()
    else:
        bias = float(rng.integers(-1, 2))  # whole grid steps keep theta on-grid
        thermal_model = ThermalModel(
            variant=thermal.VARIANT_LINEAR,
            feature_names=thermal.FEATURE_NAMES,
            means=np.zeros(4),
            stds=np.ones(4),
            layers=((np.zeros((4, 1)), np.array([bias])),),
        )
    base = aging_mod.default_params()
    aging = aging_mod.AgingParams(
        beta_a=float(rng.uniform(1e-6, 1e-4)),
        beta_b=float(rng.choice([1.0, 2.0])),
        beta_c=base.beta_c * float(rng.uniform(0.5, 2.0)),
        beta_d=base.beta_d,
        beta_e=base.beta_e,
        beta_f=float(rng.choice([0.5, 1.0])),
        v_ev_eur=float(rng.uniform(1000.0, 8000.0)),
        h_ev=0.2,
    )
    gamma = float(rng.uniform(0.6, 1.8))
    eps_buy = rng.uniform(0.05, 0.50, size=24)
    profile = tariff.PriceProfile(eps_buy, gamma * eps_buy, "custom")

    s = Scenario(
        grid=TimeGrid(t0=float(rng.integers(0, 24)) * 3600.0, n_intervals=n_steps, dt_min=60.0),
        e0=float(rng.integers(0, n_e)),
        e_target=float(rng.integers(0, n_e)),
        theta0=theta_lo + float(rng.integers(0, n_t)),
        profile=profile,
        e_lo=e_lo,
        e_hi=e_hi,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        p_lo=p_lo,
        p_hi=p_hi,
        e_step=1.0,
        theta_step=1.0,
        p_step=1.0,
        soh0=float(rng.uniform(0.93, 1.0)),
        include_aging_in_objective=bool(rng.random() < 0.7),
    )
    models = BatteryModels(tables=tables, thermal=thermal_model, aging=aging)
    return s, models


def mode_ordering_gaps(cmp_, s: Scenario):
    """Energy-adjusted gaps for the Mode II vs III ordering checks.

    Both modes only have to hit the target energy to half a grid step, so
    their re-costed totals are comparable only after crediting the marginal
    energy value (mean buy price) of the landing difference. Returns
    (total gap, energy-cost gap); the ordering holds when both are <= 0 up
    to re-costing noise.
    """
    eps_buy, _ = tariff.interval_prices(s.profile, s.grid)
    adj = (cmp_.mode_iii.e_traj[-1] - cmp_.mode_ii.e_traj[-1]) * float(np.mean(eps_buy))
    gap_total = (cmp_.mode_iii.cost.total - adj) - cmp_.mode_ii.cost.total
    gap_je = cmp_.mode_ii.cost.j_e - (cmp_.mode_iii.cost.j_e - adj)
    return gap_total, gap_je


def reference_save_modes_csv(rows, path):
    """modes.csv written row by row: repr of every value and one writerow
    per event and mode, with no cached text."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(MODES_CSV_HEADER)
        for event_id, cmp_ in rows:
            base = cmp_.mode_i.cost.total
            for mode, sol in (("I", cmp_.mode_i), ("II", cmp_.mode_ii), ("III", cmp_.mode_iii)):
                c = sol.cost
                norm = c.total / base if base != 0 else float("nan")
                w.writerow(
                    [event_id, mode]
                    + [repr(v) for v in (c.j_e_buy, c.j_e_sell, c.j_d_cyc, c.j_d_cal, c.total, norm)]
                )


def finite_difference_gradients(layers, x, y, h=1e-5):
    """Central-difference gradients of the MLP mean squared error."""
    from chargeopt.learning import mlp_forward

    def loss(ls):
        pred, _ = mlp_forward(ls, x)
        return float(np.mean((pred - y) ** 2))

    grads = []
    for li, (w, b) in enumerate(layers):
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss(layers)
            w[idx] = orig - h
            down = loss(layers)
            w[idx] = orig
            gw[idx] = (up - down) / (2 * h)
        for idx in range(len(b)):
            orig = b[idx]
            b[idx] = orig + h
            up = loss(layers)
            b[idx] = orig - h
            down = loss(layers)
            b[idx] = orig
            gb[idx] = (up - down) / (2 * h)
        grads.append((gw, gb))
    return grads


def reference_fit_mlp(ds, arch, seed):
    """The (weights, bias) layers of plain mini-batch SGD, which fit_mlp
    must reproduce bit for bit: Xavier-uniform weights and zero biases drawn
    layer by layer, one permutation per epoch, a gathered copy of each
    minibatch, mlp_gradients, and an update of each weight and bias array.
    Raises TrainingFailureError at the first epoch whose summed squared
    error is not finite."""
    from chargeopt.learning import BATCH_SIZE, LEARNING_RATE, mlp_gradients

    rng = np.random.default_rng(seed)
    sizes = [ds.x.shape[1]] + [arch.neurons_per_layer] * arch.hidden_layers + [1]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append((rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out)))
    n = ds.n_samples
    for epoch in range(arch.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            idx = perm[start : start + BATCH_SIZE]
            xb, yb = ds.x[idx], ds.y[idx]
            grads, pred = mlp_gradients(layers, xb, yb)
            epoch_loss += float(np.sum((pred - yb) ** 2))
            for (w, b), (gw, gb) in zip(layers, grads):
                w -= LEARNING_RATE * gw
                b -= LEARNING_RATE * gb
        if not np.isfinite(epoch_loss):
            raise TrainingFailureError(f"training diverged at epoch {epoch}", epoch=epoch)
    return layers
