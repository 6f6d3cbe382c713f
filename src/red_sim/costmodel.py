"""Latency / energy / area aggregation and design comparison.

Costs aggregate an execution trace and a mapping plan's geometry (its one
array shape and periphery inventory; never its weights) into
per-component breakdowns:

    L_total = (L_wd + L_bd)_array + (L_dec + L_mux + L_rc + L_sa)_periphery
    E_total = (E_c + E_wd + E_bd)_array + (E_dec + E_mux + E_rc + E_sa)_periphery

Per-cycle latency is the critical path (max) across the crossbars active in
that cycle, since sub-crossbars operate simultaneously; a sum-based mode is
available for sensitivity checks.  Component scaling with array dimensions:

    wd ~ columns (each wordline loads every column)     bd ~ rows
    dec ~ log2(rows)      mux ~ log2(cols)      rc ~ columns
    sa ~ log2(cols) per activation, plus accumulation adds

Driver energy follows a base-linear-plus-quadratic law in the column count;
decoder energy follows the driven input width.  Padding-free's overlap-add
and crop post passes are charged to the read-circuit and shift-adder
components per value processed.

The shipped default coefficients are order-of-magnitude placeholders,
deliberately labeled NON-CALIBRATED: absolute outputs are only meaningful
for cross-design trend comparison.  Reports carry the published reference
comparison ranges next to the computed values so the trends can be eyeballed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .dataflow import ExecutionTrace
from .mapping import DesignKind, MappingPlan
from .tensor import DeconvLayerSpec, _is_int

__all__ = [
    "CostParams",
    "DEFAULT_PARAMS_LABEL",
    "Breakdown",
    "CostBreakdown",
    "DesignComparison",
    "ComparisonReport",
    "REFERENCE_COMPARISONS",
    "latency_of",
    "energy_of",
    "area_of",
    "cost_breakdown",
    "compare",
    "breakdown_csv_rows",
    "summary_csv_rows",
    "report_to_dict",
]


DEFAULT_PARAMS_LABEL = "NON-CALIBRATED defaults"

# Published reference results for this three-design comparison, shown in
# reports next to the computed trend values.  The shipped coefficients are
# not calibrated to reproduce them.
REFERENCE_COMPARISONS = {
    "speedup_vs_zero_padding": [3.69, 31.15],
    "energy_saving_pct_vs_zero_padding": [8.0, 88.36],
    "red_area_overhead_pct_vs_zero_padding": 21.41,
    "note": "published reference ranges; computed values use NON-CALIBRATED coefficients",
}


@dataclass(frozen=True)
class CostParams:
    """Per-activation cost coefficients.

    Latencies are seconds, energies joules, areas square micrometers.  The
    defaults are order-of-magnitude placeholders (NON-CALIBRATED): use them
    for cross-design trends, not absolute predictions.  Coefficients are
    finite non-negative numbers (not booleans); `bit_serial_cycles`, an
    integer >= 1, models input bit streaming as a uniform multiplier on
    cycle-derived latency and energy.
    """

    # latency
    t_wd: float = 2e-12   # per column
    t_bd: float = 1e-13   # per row
    t_dec: float = 2e-11  # per log2(rows)
    t_mux: float = 1e-11  # per log2(cols)
    t_rc: float = 1e-12   # per column / per value
    t_sa: float = 5e-12   # per log2(cols) / per value
    # energy; the decoder term carries most of the input-side cost, which is
    # what the split pixel-wise layout economizes on
    e_cell: float = 2e-16      # per active cell
    e_wd_base: float = 5e-15   # per column
    e_wd_quadratic: float = 5e-16  # per column^2
    e_bd_base: float = 5e-15
    e_bd_quadratic: float = 5e-16
    e_dec: float = 5e-14  # per driven wordline value
    e_mux: float = 1e-15  # per value read
    e_rc: float = 1e-14   # per value read / processed
    e_sa: float = 5e-15   # per value read, add, or post-op value
    # area (um^2 per cell / per port)
    a_cell: float = 0.1
    a_wd: float = 1.0
    a_bd: float = 0.8
    a_dec: float = 0.5
    a_mux: float = 0.6
    a_rc: float = 10.0
    a_sa: float = 5.0
    bit_serial_cycles: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "bit_serial_cycles":
                if not _is_int(value) or value < 1:
                    raise ValueError("bit_serial_cycles must be an integer >= 1")
            elif (isinstance(value, bool) or not isinstance(value, (int, float))
                  or not 0 <= value <= sys.float_info.max):
                raise ValueError(f"coefficient {f.name} must be a finite number >= 0")

    @classmethod
    def from_dict(cls, overrides: dict) -> "CostParams":
        known = {f.name for f in fields(cls)}
        for key in overrides:
            if key not in known:
                raise ValueError(f"unknown cost parameter: '{key}'")
        return cls(**overrides)


def _lg(x: int) -> int:
    """Logic-depth proxy: max(1, ceil(log2(x)))."""
    return max(1, math.ceil(math.log2(x))) if x > 1 else 1


# one of each per crossbar: wordline and bitline drivers, decoder,
# mux, read circuits, shift-adders
_CIRCUITS = ("wd", "bd", "dec", "mux", "rc", "sa")

# Array-part membership per metric; every other component is periphery.
# Driving the lines costs latency and energy inside the array, but the
# driver circuits themselves are periphery area.
_ARRAY_PART = {
    "latency": ("wd", "bd"),
    "energy": ("c", "wd", "bd"),
    "area": ("array",),
}
METRICS = tuple(_ARRAY_PART)


@dataclass(frozen=True)
class Breakdown:
    """One metric split into named components, in report order.

    Components read as attributes (`b.wd`).  The array and periphery parts
    and the total are left-to-right sums in component order, so they add up
    exactly the same way in every report.
    """

    metric: str
    components: dict[str, float]

    def __getattr__(self, name):
        comps = self.__dict__.get("components", {})
        if name in comps:
            return comps[name]
        raise AttributeError(name)

    @property
    def array_part(self) -> float:
        return sum(v for k, v in self.components.items() if k in _ARRAY_PART[self.metric])

    @property
    def periphery_part(self) -> float:
        return sum(v for k, v in self.components.items() if k not in _ARRAY_PART[self.metric])

    @property
    def total(self) -> float:
        return self.array_part + self.periphery_part

    def as_dict(self) -> dict[str, float]:
        return {**self.components, "array_part": self.array_part,
                "periphery_part": self.periphery_part, "total": self.total}


@dataclass(frozen=True)
class CostBreakdown:
    design: DesignKind
    layer: str
    spec: DeconvLayerSpec
    cycle_count: int
    latency: Breakdown
    energy: Breakdown
    area: Breakdown


def _activation_sum(trace: ExecutionTrace, per_act: dict[str, float]) -> dict[str, float]:
    """Per-activation costs times each crossbar's activations, added
    crossbar by crossbar in crossbar order."""
    total = dict.fromkeys(per_act, 0.0)
    for acts in trace.vmm_activations_per_crossbar.tolist():
        for k, v in per_act.items():
            total[k] += acts * v
    return total


def latency_of(
    trace: ExecutionTrace,
    plan: MappingPlan,
    params: CostParams,
    critical_path_mode: str = "max",
) -> Breakdown:
    """Total latency per the two-part breakdown.

    In "max" mode each active cycle costs the critical path over the active
    crossbars (one VMM each, simultaneous); in "sum" mode crossbar
    activations serialize, an upper-bound sensitivity view.
    """
    if critical_path_mode not in ("max", "sum"):
        raise ValueError(f"critical_path_mode must be 'max' or 'sum', got {critical_path_mode!r}")

    rows, cols = plan.shape
    per_act = {
        "wd": params.t_wd * cols,
        "bd": params.t_bd * rows,
        "dec": params.t_dec * _lg(rows),
        "mux": params.t_mux * _lg(cols),
        "rc": params.t_rc * cols,
        "sa": params.t_sa * _lg(cols),
    }
    if critical_path_mode == "max":
        # a plan's arrays share one shape, so every active cycle's critical
        # path is one activation of that shape
        comp = {k: v * trace.active_cycle_count for k, v in per_act.items()}
    else:
        comp = _activation_sum(trace, per_act)

    post = trace.post_ops.total_values
    comp["rc"] += params.t_rc * post
    comp["sa"] += params.t_sa * post

    bs = params.bit_serial_cycles
    return Breakdown("latency", {k: v * bs for k, v in comp.items()})


def energy_of(trace: ExecutionTrace, plan: MappingPlan, params: CostParams) -> Breakdown:
    """Total energy per the two-part breakdown; zero-vector assignments
    contribute nothing."""
    cols = plan.shape[1]
    lines = _activation_sum(trace, {
        line: base * cols + quadratic * cols * cols
        for line, base, quadratic in (("wd", params.e_wd_base, params.e_wd_quadratic),
                                      ("bd", params.e_bd_base, params.e_bd_quadratic))
    })
    post = trace.post_ops.total_values
    bs = params.bit_serial_cycles
    return Breakdown("energy", {
        "c": params.e_cell * trace.cell_activations * bs,
        "wd": lines["wd"] * bs,
        "bd": lines["bd"] * bs,
        "dec": params.e_dec * trace.input_bits_driven * bs,
        "mux": params.e_mux * trace.output_values_read * bs,
        "rc": params.e_rc * (trace.output_values_read + post) * bs,
        "sa": params.e_sa * (trace.output_values_read + trace.adds_performed + post) * bs,
    })


def area_of(plan: MappingPlan, params: CostParams) -> Breakdown:
    """Array area from cells (design-invariant for a fixed kernel),
    periphery area from the plan's port count per circuit."""
    comp = {"array": params.a_cell * plan.cell_count}
    for k in _CIRCUITS:
        comp[k] = getattr(params, f"a_{k}") * plan.periphery_inventory[k]
    return Breakdown("area", comp)


def cost_breakdown(
    trace: ExecutionTrace,
    plan: MappingPlan,
    params: CostParams,
    layer: str = "",
    spec: DeconvLayerSpec | None = None,
    critical_path_mode: str = "max",
) -> CostBreakdown:
    return CostBreakdown(
        design=plan.design,
        layer=layer,
        spec=spec,
        cycle_count=trace.cycle_count,
        latency=latency_of(trace, plan, params, critical_path_mode),
        energy=energy_of(trace, plan, params),
        area=area_of(plan, params),
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float | None:
    return None if den == 0 else num / den


@dataclass(frozen=True)
class DesignComparison:
    breakdown: CostBreakdown
    normalized_latency: float | None
    normalized_energy: float | None
    normalized_area: float | None
    speedup_vs_baseline: float | None
    energy_saving_pct: float | None
    area_overhead_pct: float | None


@dataclass
class ComparisonReport:
    layer: str
    spec: DeconvLayerSpec | None
    baseline: DesignKind | None
    entries: dict[str, DesignComparison]
    params_label: str = DEFAULT_PARAMS_LABEL
    critical_path_mode: str = "max"


def compare(
    breakdowns: dict[DesignKind, CostBreakdown],
    baseline: DesignKind | None = DesignKind.ZERO_PADDING,
    params_label: str = DEFAULT_PARAMS_LABEL,
    critical_path_mode: str = "max",
) -> ComparisonReport:
    """Normalize per-design breakdowns against the baseline design's totals.

    Ratios against a zero total are reported as None (serialized as null or
    an empty CSV cell, never as infinities).
    """
    if not breakdowns:
        raise ValueError("no breakdowns to compare")
    layers = {b.layer for b in breakdowns.values()}
    specs = {b.spec for b in breakdowns.values()}
    if len(layers) > 1 or len(specs) > 1:
        raise ValueError(f"breakdowns span multiple layers: {sorted(layers)}")

    base = breakdowns.get(baseline) if baseline is not None else None
    entries = {}
    for design, b in breakdowns.items():
        if base is None:
            norm_l = norm_e = norm_a = speed = save = over = None
        else:
            norm_l = _ratio(b.latency.total, base.latency.total)
            norm_e = _ratio(b.energy.total, base.energy.total)
            norm_a = _ratio(b.area.total, base.area.total)
            speed = _ratio(base.latency.total, b.latency.total)
            save = None if norm_e is None else (1.0 - norm_e) * 100.0
            over = None if norm_a is None else (norm_a - 1.0) * 100.0
        entries[design.value] = DesignComparison(
            breakdown=b,
            normalized_latency=norm_l,
            normalized_energy=norm_e,
            normalized_area=norm_a,
            speedup_vs_baseline=speed,
            energy_saving_pct=save,
            area_overhead_pct=over,
        )
    any_b = next(iter(breakdowns.values()))
    return ComparisonReport(
        layer=any_b.layer,
        spec=any_b.spec,
        baseline=baseline if base is not None else None,
        entries=entries,
        params_label=params_label,
        critical_path_mode=critical_path_mode,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "" if value is None else str(value)


def breakdown_csv_rows(reports: list[ComparisonReport]) -> list[list[str]]:
    """Rows: design, layer, metric, component, value, normalized.

    `normalized` divides by the baseline design's total for that metric, so
    the baseline's own total rows normalize to exactly 1.0.
    """
    rows = [["design", "layer", "metric", "component", "value", "normalized"]]
    for report in reports:
        base = report.entries.get(report.baseline.value) if report.baseline else None
        for name, entry in report.entries.items():
            for metric in METRICS:
                part = getattr(entry.breakdown, metric)
                denom = getattr(base.breakdown, metric).total if base else None
                for component, value in [*part.components.items(), ("total", part.total)]:
                    norm = None if not denom else value / denom
                    rows.append([name, report.layer, metric, component, str(value), _fmt(norm)])
    return rows


def summary_csv_rows(reports: list[ComparisonReport]) -> list[list[str]]:
    """One row per (layer, design) with totals, baseline-normalized figures
    and the published reference ranges alongside."""
    ref = REFERENCE_COMPARISONS
    ref_speed = f"{ref['speedup_vs_zero_padding'][0]}-{ref['speedup_vs_zero_padding'][1]}"
    ref_save = (
        f"{ref['energy_saving_pct_vs_zero_padding'][0]}-"
        f"{ref['energy_saving_pct_vs_zero_padding'][1]}"
    )
    ref_area = str(ref["red_area_overhead_pct_vs_zero_padding"])
    rows = [[
        "layer", "design", "cycles", "latency_total_s", "energy_total_j",
        "area_total_um2", "speedup_vs_zero_padding", "reference_speedup_range",
        "energy_saving_pct", "reference_energy_saving_pct_range",
        "area_overhead_pct", "reference_red_area_overhead_pct", "params",
    ]]
    for report in reports:
        for name, entry in report.entries.items():
            b = entry.breakdown
            rows.append([
                report.layer, name, str(b.cycle_count),
                str(b.latency.total), str(b.energy.total), str(b.area.total),
                _fmt(entry.speedup_vs_baseline), ref_speed,
                _fmt(entry.energy_saving_pct), ref_save,
                _fmt(entry.area_overhead_pct), ref_area,
                report.params_label,
            ])
    return rows


def report_to_dict(report: ComparisonReport) -> dict:
    """Plain-dict form for JSON serialization (stable under sort_keys)."""
    out = {
        "layer": report.layer,
        "baseline": report.baseline.value if report.baseline else None,
        "params_label": report.params_label,
        "critical_path_mode": report.critical_path_mode,
        "reference": REFERENCE_COMPARISONS,
        "designs": {},
    }
    for name, entry in report.entries.items():
        b = entry.breakdown
        out["designs"][name] = {
            "cycle_count": b.cycle_count,
            **{metric: getattr(b, metric).as_dict() for metric in METRICS},
            "normalized": {
                "latency": entry.normalized_latency,
                "energy": entry.normalized_energy,
                "area": entry.normalized_area,
            },
            "speedup_vs_baseline": entry.speedup_vs_baseline,
            "energy_saving_pct": entry.energy_saving_pct,
            "area_overhead_pct": entry.area_overhead_pct,
            "notes": "ideal signed cells; negative weights stored directly",
        }
    return out
