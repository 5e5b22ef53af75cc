"""chargeopt benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload {solve_cold,fleet_modes,fit_thermal}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout. The benchmark compiles chargeopt's
optional kernel in place when setup.py can build it, imports chargeopt from
src/, sets the workload up several times (the median is setup_s), then runs
ops back to back for at least --seconds and checks every op's output. With
--trace 1 it instead runs each op twice, untraced and traced, and reports
per-layer numbers from spans around chargeopt's public functions. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. A record of the run goes to .bench_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import LayerStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MAX_REPORTED_TRACEBACKS = 3

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}
# Per-layer values are per traced op unless the name starts with setup. (one
# set-up) or they describe the transition table (last table built).
PER_LAYER = {
    "backend.backward_pass_s": "s",
    "backend.backward_pass_share": "ratio",
    "backend.calls": "count",
    "backend.ns_per_cell_action_step": "ns",
    "backend.bytes_per_step": "B",
    "transitions.build_s": "s",
    "transitions.calls": "count",
    "transitions.valid_share": "ratio",
    "transitions.table_mb": "MB",
    "thermal.predict_batch_s": "s",
    "thermal.predict_batch_calls": "count",
    "thermal.predict_batch_rows": "count",
    "electrical.lookup_arrays_s": "s",
    "electrical.lookup_arrays_calls": "count",
    "solver.assembly_s": "s",
    "solver.forward_integration_s": "s",
    "solver.replay_s": "s",
    "solver.terminal_miss_share": "ratio",
    "solver.infeasible_share": "ratio",
    "tariff.interval_prices_s": "s",
    "aging.aging_cost_calls": "count",
    "aging.calendar_fade_s": "s",
    "learning.build_dataset_s": "s",
    "learning.fit_mlp_s": "s",
    "learning.mlp_gradients_calls": "count",
    "learning.minibatch_us": "us",
    "evaluation.validate_models_s": "s",
    "evaluation.save_modes_csv_s": "s",
    "core.load_event_csv_s": "s",
    "setup.corpus_s": "s",
    "setup.event_csv_s": "s",
    "setup.train_s": "s",
    "setup.table_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans_per_op": "count",
}


def build_extension() -> None:
    """Compile the optional kernel in place when setup.py or kernel sources
    changed since the last build in this checkout (a no-op without a
    compiler toolchain; the NumPy kernel is then used)."""
    sources = [ROOT / "setup.py"] + sorted(
        p for ext in ("*.pyx", "*.c", "*.h") for p in (ROOT / "src").rglob(ext)
    )
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    build_dir = ROOT / ".bench_build"
    stamp = build_dir / "python-ext.sha256"
    if stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return
    build_dir.mkdir(exist_ok=True)
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--build-temp", str(build_dir / "temp")],
        cwd=ROOT,
        stdout=sys.stderr,
        check=True,
        timeout=800,
    )
    stamp.write_text(digest.hexdigest())


def run_facts(args, chargeopt, np) -> dict:
    from chargeopt.optimizer import HAVE_COMPILED, active_backend

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {
            k: os.environ.get(k, "unset") for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "active_backend": active_backend(),
        "HAVE_COMPILED": HAVE_COMPILED,
        "chargeopt": str(Path(chargeopt.__file__).parent.relative_to(ROOT)),
    }


class Client:
    """Runs ops back to back and checks each output outside the timed region.

    An exception or a failed check marks the op failed; the run goes on.
    """

    def __init__(self, wl, inject=None):
        self.wl = wl
        self.inject = inject
        self.attempted = 0
        self.failed = 0
        self.defects = Counter()
        self.ok_s: list[float] = []
        self.all_s: list[float] = []

    def run(self, i: int, tracer=None) -> float:
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            if self.inject == "raise" and self.attempted == 1:
                raise RuntimeError("injected fault")
            out = self.wl.op(i)
        except Exception:
            dt = time.perf_counter() - t0
            self._fail(i, traceback.format_exc())
            self.all_s.append(dt)
            return dt
        finally:
            if tracer is not None:
                tracer.uninstall()
        dt = time.perf_counter() - t0
        self.all_s.append(dt)
        if self.inject == "wrong" and self.attempted == 1:
            out = self.wl.corrupt(out)
        try:
            problems = self.wl.check(out)
            if i == 0:
                problems += self.wl.kernel_parity(out)
            defects = self.wl.defects(out)
        except Exception:
            self._fail(i, traceback.format_exc())
            return dt
        self.defects.update(defects)
        if problems:
            self._fail(i, "; ".join(problems))
        else:
            self.ok_s.append(dt)
        return dt

    def defect_share(self, name) -> float:
        return self.defects[name] / self.defects["solves"] if self.defects["solves"] else 0.0

    def _fail(self, i, detail):
        self.failed += 1
        if self.failed <= MAX_REPORTED_TRACEBACKS:
            print(f"op {i} failed: {detail.rstrip()}", file=sys.stderr)


def setup_workload(cls, size, seed, workdir, repeats, tracer=None):
    """Set the workload up `repeats` times; returns the last one and the
    wall time of each."""
    times = []
    for _ in range(repeats):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl = cls(size, seed, workdir)
            wl.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(time.perf_counter() - t0)
    return wl, times


def tail_percentile(samples):
    """(q, value) for the highest whole percentile above the median with at
    least 10 samples beyond it, or None when there are too few samples."""
    n = len(samples)
    q = math.floor(100 * (1 - 10 / n)) if n else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s, client):
    ops = len(client.ok_s)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ops / sum(client.all_s),
        "op_s_p50": statistics.median(client.ok_s) if ops else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup_s)} set-ups)")
    print(f"ops_per_s = {metrics['ops_per_s']:.4f} 1/s ({ops} ops in {sum(client.all_s):.2f} s of op time)")
    if ops:
        print(f"op_s_p50 = {metrics['op_s_p50']:.4f} s (n={ops})")
        tail = tail_percentile(client.ok_s)
        if tail:
            print(f"op_s_p{tail[0]} = {tail[1]:.4f} s (n={ops})")
    print(f"error_rate = {client.failed / client.attempted:.4f} ({client.failed}/{client.attempted} ops failed)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    return metrics


def per_layer(wl, tracer, client, traced_ops, pairs):
    ops = tracer.layer_stats(set(traced_ops))
    n = len(traced_ops)

    def get(name):
        return ops.get(name, LayerStats())

    kernel = get("backend.backward_pass")
    work = sum(note["m"] * note["k"] * note["n"] for note in kernel.notes)
    last_kernel = kernel.notes[-1] if kernel.notes else None
    # the table may have been built in set-up (fleet_modes), so look at every span
    tables = tracer.layer_stats().get("transitions.build_transition_table", LayerStats()).notes
    fit = get("learning.fit_mlp")
    grads = get("learning.mlp_gradients")
    op_s = statistics.mean(t for _, t in pairs) if pairs else float("nan")
    m = {
        "backend.backward_pass_s": kernel.total_s / n,
        "backend.backward_pass_share": kernel.total_s / n / op_s,
        "backend.calls": kernel.calls / n,
        "backend.ns_per_cell_action_step": kernel.total_s * 1e9 / work if work else 0.0,
        "backend.bytes_per_step": _kernel_bytes_per_step(last_kernel) if last_kernel else 0.0,
        "transitions.build_s": get("transitions.build_transition_table").total_s / n,
        "transitions.calls": get("transitions.build_transition_table").calls / n,
        "transitions.valid_share": tables[-1]["valid_share"] if tables else 0.0,
        "transitions.table_mb": tables[-1]["table_mb"] if tables else 0.0,
        "thermal.predict_batch_s": get("thermal.predict_batch").total_s / n,
        "thermal.predict_batch_calls": get("thermal.predict_batch").calls / n,
        "thermal.predict_batch_rows": sum(x["rows"] for x in get("thermal.predict_batch").notes) / n,
        "electrical.lookup_arrays_s": get("electrical.lookup_arrays").total_s / n,
        "electrical.lookup_arrays_calls": get("electrical.lookup_arrays").calls / n,
        "solver.assembly_s": get("solver.backward_induction").self_s / n,
        "solver.forward_integration_s": get("solver.forward_integration").total_s / n,
        "solver.replay_s": get("solver.replay").total_s / n,
        "solver.terminal_miss_share": client.defect_share("terminal_miss"),
        "solver.infeasible_share": client.defect_share("infeasible"),
        "tariff.interval_prices_s": get("tariff.interval_prices").total_s / n,
        "aging.aging_cost_calls": get("aging.aging_cost").calls / n,
        "aging.calendar_fade_s": get("aging.calendar_fade").total_s / n,
        "learning.build_dataset_s": get("learning.build_dataset").total_s / n,
        "learning.fit_mlp_s": fit.total_s / n,
        "learning.mlp_gradients_calls": grads.calls / n,
        "learning.minibatch_us": fit.total_s * 1e6 / grads.calls if grads.calls else 0.0,
        "evaluation.validate_models_s": get("evaluation.validate_models").total_s / n,
        "evaluation.save_modes_csv_s": get("evaluation.save_modes_csv").total_s / n,
        "core.load_event_csv_s": get("core.load_event_csv").total_s / n,
        "setup.corpus_s": wl.stage_s.get("corpus", 0.0),
        "setup.event_csv_s": wl.stage_s.get("event_csv", 0.0),
        "setup.train_s": wl.stage_s.get("train", 0.0),
        "setup.table_s": wl.stage_s.get("table", 0.0),
        "trace.overhead_share": statistics.median((t - u) / u for u, t in pairs),
        "trace.spans_per_op": sum(s.calls for s in ops.values()) / n,
    }
    print(f"traced ops: {n}; op time untraced p50 {statistics.median(u for u, _ in pairs):.4f} s, "
          f"traced p50 {statistics.median(t for _, t in pairs):.4f} s")
    print(f"{'span':44s} {'calls/op':>10s} {'total s/op':>11s} {'self s/op':>10s} {'self share':>10s}")
    for name, st in sorted(ops.items(), key=lambda kv: -kv[1].self_s):
        print(f"{name:44s} {st.calls / n:10.1f} {st.total_s / n:11.5f} {st.self_s / n:10.5f} "
              f"{st.self_s / n / op_s:10.4f}")
    for name, unit in PER_LAYER.items():
        label = " (computed from array sizes, not measured)" if name == "backend.bytes_per_step" else ""
        print(f"{name} = {m[name]:.6g} {unit}{label}")
    return m


def _kernel_bytes_per_step(note) -> float:
    """Bytes one backward step touches, from array sizes: valid (uint8),
    corner00 (int64), frac_e, frac_theta and jd (float64) per cell-action;
    the je row and p_d per action; the successor cost slice read and the
    cost and action slices written per cell. A lower bound on traffic."""
    m, k = note["m"], note["k"]
    return float(m * k * (1 + 8 + 8 + 8 + 8) + k * 16 + m * 24)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("solve_cold", "fleet_modes", "fit_thermal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--inject-fault",
        choices=("wrong", "raise"),
        help="corrupt the first op's output, or make it raise (tests the failure accounting)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chargeopt" / "__init__.py").is_file() or not (ROOT / "setup.py").is_file():
        print(f"error: {ROOT} is not a chargeopt source checkout (no setup.py or src/chargeopt)", file=sys.stderr)
        return 2
    build_extension()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import chargeopt
    import workloads

    facts = run_facts(args, chargeopt, np)
    cls = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    tracer = Tracer(workloads.TARGETS) if args.trace else None
    try:
        wl, setup_s = setup_workload(cls, size, args.seed, workdir, 1 if args.trace else SETUP_REPEATS, tracer)
        facts.update(wl.grid_facts())
        for key, value in facts.items():
            print(f"# {key} = {value}")
        client = Client(wl, args.inject_fault)
        pairs = []
        t_start = time.perf_counter()
        i = 0
        while True:
            if args.trace:
                untraced = client.run(i)
                pairs.append((untraced, client.run(i, tracer)))
            else:
                client.run(i)
            i += 1
            if time.perf_counter() - t_start >= args.seconds:
                break
        if args.trace:
            metrics = per_layer(wl, tracer, client, list(range(i)), pairs)
            tracer.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            units = PER_LAYER
        else:
            metrics = end_to_end(setup_s, client)
            units = END_TO_END
        d = client.defects
        print(f"known solver defects (see perfbench/README.md): {d['terminal_miss']} of {d['solves']} solves "
              f"miss the target by more than half a grid step; {d['infeasible']} are flagged infeasible")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, facts=facts, setup_s=setup_s, op_s=client.all_s, ok_op_s=client.ok_s,
                  defects=dict(client.defects))
    with open(out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
