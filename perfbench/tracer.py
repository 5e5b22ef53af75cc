"""In-memory span tracer that wraps chargeopt's public functions from outside.

Each traced function is replaced, by identity, in every loaded ``chargeopt``
module that binds it. Patching only the defining module would miss callers
that imported the name with ``from ... import`` (the solver and the
evaluation protocols do). A span records the function's name, start and end
(``perf_counter_ns``), the index of the enclosing span, the op it belongs to
and an optional annotation (array sizes, rows) computed from the call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One public function to trace; ``annotate(args, kwargs, result)`` may
    return a small dict stored with the span."""

    module: str
    attr: str
    annotate: object = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    notes: list = field(default_factory=list)


class Tracer:
    """Collects spans while installed; ``op_id`` tags the spans of one op."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op_id, note]
        self.op_id = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, target: Target):
        spans, stack, name, annotate = self.spans, self._stack, target.name, target.annotate

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "chargeopt" or n.startswith("chargeopt.")]
        for target in self.targets:
            original = getattr(importlib.import_module(target.module), target.attr)
            traced = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_stats(self, op_ids=None) -> dict[str, LayerStats]:
        """Calls, inclusive and self time per span name, over the given ops
        (all spans when op_ids is None). Self time is the span's duration
        minus the durations of its direct child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, LayerStats] = {}
        for i, (name, start, end, _, op_id, note) in enumerate(self.spans):
            if op_ids is not None and op_id not in op_ids:
                continue
            st = stats.setdefault(name, LayerStats())
            st.calls += 1
            st.total_s += (end - start) * 1e-9
            st.self_s += (end - start - child_ns[i]) * 1e-9
            if note is not None:
                st.notes.append(note)
        return stats

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, note in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op_id, "note": note}
                    )
                )
                fh.write("\n")
