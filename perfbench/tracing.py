"""Spans around the public calls each red_sim module exposes.

`Tracer.install` replaces, inside the child process only, the names that
``red_sim.bench`` and ``red_sim.cli`` import (plus
``red_sim.dataflow.trace_of_schedule``, which ``execute`` looks up at call
time) with wrappers that record a span per call:
``[metric, start, end, parent index, run id, layer geometry, design]``.
Spans stay in memory until the child writes its result.  Names not wrapped
(constructors, ``output_shape``, ``scale_channels``, config loading) count
toward their caller's self time.

`aggregate` turns the spans of one traced child into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import time

import workloads

# span metric -> per-layer metric name of its self time
TIME_METRICS = {
    "tensor.oracle": "tensor.oracle_s",
    "mapping.build_plan": "mapping.build_plan_s",
    "dataflow.build_schedule": "dataflow.build_schedule_s",
    "dataflow.trace": "dataflow.trace_s",
    "dataflow.dump": "dataflow.dump_s",
    "costmodel.cost": "costmodel.cost_s",
    "costmodel.compare": "costmodel.compare_s",
    "costmodel.serialize": "costmodel.serialize_s",
    "bench.inputs": "bench.inputs_s",
    "bench.run_suite": "bench.run_suite_self_s",
    "cli.main": "cli.self_s",
}
EXECUTE_METRICS = {d: f"dataflow.execute_s.{d}" for d in workloads.DESIGNS}


# (module, attribute, span metric); `cli.main` is wrapped last and returned
WRAPPED = [
    ("dataflow", "trace_of_schedule", "dataflow.trace"),
    ("bench", "trace_of_schedule", "dataflow.trace"),
    ("bench", "deconv_oracle_zero_padding", "tensor.oracle"),
    ("bench", "build_plan", "mapping.build_plan"),
    ("bench", "build_schedule", "dataflow.build_schedule"),
    ("bench", "execute", "dataflow.execute"),
    ("bench", "cost_breakdown", "costmodel.cost"),
    ("bench", "compare", "costmodel.compare"),
    ("cli", "run_suite", "bench.run_suite"),
    ("cli", "breakdown_csv_rows", "costmodel.serialize"),
    ("cli", "summary_csv_rows", "costmodel.serialize"),
    ("cli", "report_to_dict", "costmodel.serialize"),
    ("cli", "build_schedule", "dataflow.build_schedule"),
    ("cli", "dump_schedule_lines", "dataflow.dump"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, metric, fn, describe):
        """`describe(args, kwargs)` -> (geometry key or None, design or None)
        runs before the clock starts."""

        def wrapper(*args, **kwargs):
            geo, design = describe(args, kwargs)
            idx = len(self.spans)
            span = [metric, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run_id, geo, design]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()

        return wrapper

    def install(self, cli):
        """Wrap red_sim's public calls; return the wrapped `cli.main`.

        A name a later red_sim no longer has is skipped, and layer and
        design are found by type among the arguments, so the spans survive
        signature changes."""
        import red_sim.bench as bench
        import red_sim.dataflow as dataflow
        from red_sim.mapping import DesignKind
        from red_sim.tensor import DeconvLayerSpec

        def describe(args, kwargs):
            geo = design = None
            for value in (*args, *kwargs.values()):
                spec = getattr(value, "layer", value)  # a schedule carries its layer
                if isinstance(spec, DeconvLayerSpec):
                    geo = list(dataclasses.astuple(spec))
                kind = getattr(value, "design", value)  # so do plans and schedules
                if isinstance(kind, str) and kind in workloads.DESIGNS:
                    design = DesignKind(kind).value
            return geo, design

        def drain(fn):
            # the CLI joins the generator; draining it here puts the
            # formatting work inside the span
            return lambda *args, **kwargs: list(fn(*args, **kwargs))

        modules = {"bench": bench, "cli": cli, "dataflow": dataflow}
        wrapped = {}  # one wrapper per function, however many names it has
        for module, attr, metric in WRAPPED:
            fn = getattr(modules[module], attr, None)
            if fn is None:
                continue
            if fn not in wrapped:
                body = drain(fn) if metric == "dataflow.dump" else fn
                wrapped[fn] = self.wrap(metric, body, describe)
            setattr(modules[module], attr, wrapped[fn])
        if hasattr(bench, "Lcg64"):
            bench.Lcg64.ints = self.wrap("bench.inputs", bench.Lcg64.ints, describe)
        return self.wrap("cli.main", cli.main, lambda args, kwargs: (None, None))


def self_times(spans: list[list], windows: dict[int, float]) -> list[float]:
    """Self time of every span: its duration minus its children's.

    `windows` maps a run id to the moment its measured part starts; time
    of a span before that moment (the CLI's own set-up) is left out."""
    clipped = []
    for name, start, end, _, run_id, *_ in spans:
        lo = windows.get(run_id, start)
        clipped.append(max(0.0, end - max(start, lo)))
    own = list(clipped)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            own[span[3]] -= clipped[i]
    return own


def aggregate(spans: list[list], windows: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one traced child (self times in seconds,
    counts exact and computed from the spans' geometry)."""
    m = {name: 0.0 for name in TIME_METRICS.values()}
    m.update({name: 0.0 for name in EXECUTE_METRICS.values()})
    count_names = ("tensor.oracle_calls", "tensor.oracle_macs", "mapping.build_plan_calls",
                   "mapping.cells", "dataflow.build_schedule_calls", "dataflow.assignments",
                   "dataflow.execute_calls", "dataflow.macs", "dataflow.trace_calls",
                   "dataflow.trace_calls_in_execute", "dataflow.dump_lines")
    m.update({name: 0 for name in count_names})
    useful = 0
    for span, own in zip(spans, self_times(spans, windows)):
        metric, parent, geo, design = span[0], span[3], span[5], span[6]
        if metric == "dataflow.execute":
            m[EXECUTE_METRICS[design]] += own
            m["dataflow.execute_calls"] += 1
        else:
            m[TIME_METRICS[metric]] += own
        if metric == "tensor.oracle":
            m["tensor.oracle_calls"] += 1
        elif metric == "mapping.build_plan":
            m["mapping.build_plan_calls"] += 1
        elif metric == "dataflow.build_schedule":
            m["dataflow.build_schedule_calls"] += 1
        elif metric == "dataflow.trace":
            m["dataflow.trace_calls"] += 1
            if parent >= 0 and spans[parent][0] == "dataflow.execute":
                m["dataflow.trace_calls_in_execute"] += 1
        if geo is None:
            continue
        layer = workloads.layer_from_key(geo)
        if metric == "tensor.oracle":
            m["tensor.oracle_macs"] += workloads.oracle_macs(layer)
        elif design is None:
            continue
        c = workloads.counts(layer, design)
        if metric == "dataflow.execute":
            m["dataflow.macs"] += c["macs"]
            useful += c["useful_macs"]
        elif metric == "mapping.build_plan":
            m["mapping.cells"] += c["cells"]
        elif metric == "dataflow.build_schedule":
            m["dataflow.assignments"] += c["assignments"]
        elif metric == "dataflow.dump":
            m["dataflow.dump_lines"] += c["dump_lines"]
    m["dataflow.useful_mac_ratio"] = useful / m["dataflow.macs"] if m["dataflow.macs"] else 0.0
    return m
