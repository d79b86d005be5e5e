"""In-memory span recording around the benchmark's own calls into the library.

A span is (name, start_ns, end_ns, parent index, group id).  The group id ties
together every span of one prior, scan, payment batch or CLI invocation.  With
tracing off, `bind_layers` hands out the library functions themselves, so the
untraced run pays nothing for the instrumentation.
"""
from __future__ import annotations

import json
import time
from types import SimpleNamespace

# short name used by the workloads -> (span name, "module:attribute path")
LAYER_FUNCTIONS = {
    "prior_from_conditionals": ("prior.prior_from_conditionals", "prior:prior_from_conditionals"),
    "prior_from_model": ("prior.prior_from_model", "prior:prior_from_model"),
    "matrix_from_rule": ("scoring.matrix_from_rule", "scoring:matrix_from_rule"),
    "classify_region": ("optimizer.classify_region", "optimizer:classify_region"),
    "optimal_mechanism": ("optimizer.optimal_mechanism", "optimizer:optimal_mechanism"),
    "gap": ("optimizer.gap", "optimizer:gap"),
    "xi": ("optimizer.xi", "optimizer:xi"),
    "equilibrium_set": ("equilibria.equilibrium_set", "equilibria:equilibrium_set"),
    "plot_data": ("equilibria.plot_data", "equilibria:plot_data"),
    "min_agents_focal": ("mechanism.min_agents_focal", "mechanism:min_agents_focal"),
    "build_mppm": ("mechanism.build_mppm", "mechanism:build_mppm"),
    "mppm_equilibrium_payoffs": ("mechanism.mppm_equilibrium_payoffs",
                                 "mechanism:mppm_equilibrium_payoffs"),
    "from_csv": ("mechanism.PaymentRound.from_csv", "mechanism:PaymentRound.from_csv"),
    "mppm_pay": ("mechanism.mppm_pay", "mechanism:mppm_pay"),
    "ppm_pay_rounds": ("mechanism.ppm_pay_rounds", "mechanism:ppm_pay_rounds"),
    "multidim_pay": ("mechanism.multidim_pay", "mechanism:multidim_pay"),
    "monte_carlo_n10": ("verify.monte_carlo.n10", "verify:monte_carlo"),
    "monte_carlo_n200": ("verify.monte_carlo.n200", "verify:monte_carlo"),
    "deviation_report": ("verify.deviation_report", "verify:deviation_report"),
    "grid_scan": ("verify.grid_scan", "verify:grid_scan"),
    "product_scan": ("verify.product_scan", "verify:product_scan"),
}


class Tracer:
    """Collects spans in memory; `enabled` is fixed for the tracer's life."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list[int] = []
        self.group = None

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.group])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        if idx < 0:
            return
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """fn itself when tracing is off, else fn inside a span called name."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, group in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "group": group}) + "\n")


def summarize(spans, start: int, stop: int) -> dict:
    """Per span name: call count, busy ms and self ms (busy minus the time
    covered by direct children) over spans[start:stop]."""
    child_ns = {}
    for name, t0, t1, parent, _ in spans[start:stop]:
        if parent >= start:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out = {}
    for idx in range(start, stop):
        name, t0, t1, _, _ = spans[idx]
        row = out.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["busy_ms"] += (t1 - t0) / 1e6
        row["self_ms"] += (t1 - t0 - child_ns.get(idx, 0)) / 1e6
    return out


def bind_layers(tracer: Tracer) -> SimpleNamespace:
    """The library functions the workloads call, each wrapped in a span named
    <module>.<function> when the tracer is enabled."""
    import importlib

    bound = {}
    for short, (span_name, target) in LAYER_FUNCTIONS.items():
        module_name, attr_path = target.split(":")
        obj = importlib.import_module(f"peerpredict.{module_name}")
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        bound[short] = tracer.wrap(span_name, obj)
    return SimpleNamespace(**bound)
