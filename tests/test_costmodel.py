import dataclasses

import numpy as np
import pytest

from red_sim.bench import builtin_benchmarks, scale_channels
from red_sim.costmodel import (
    CostParams,
    REFERENCE_COMPARISONS,
    breakdown_csv_rows,
    compare,
    cost_breakdown,
    energy_of,
    report_to_dict,
    summary_csv_rows,
)
from red_sim.dataflow import ExecutionTrace, build_schedule, trace_of_schedule
from red_sim.mapping import DesignKind, MappingPlan, build_plan
from red_sim.tensor import DeconvLayerSpec, Kernel4

RNG = np.random.default_rng(5)

UNIT = CostParams(
    t_wd=1, t_bd=1, t_dec=1, t_mux=1, t_rc=1, t_sa=1,
    e_cell=1, e_wd_base=1, e_wd_quadratic=1, e_bd_base=1, e_bd_quadratic=1,
    e_dec=1, e_mux=1, e_rc=1, e_sa=1,
    a_cell=1, a_wd=1, a_bd=1, a_dec=1, a_mux=1, a_rc=1, a_sa=1,
)

ZEROED = CostParams(
    t_wd=0, t_bd=0, t_dec=0, t_mux=0, t_rc=0, t_sa=0,
    e_cell=0, e_wd_base=0, e_wd_quadratic=0, e_bd_base=0, e_bd_quadratic=0,
    e_dec=0, e_mux=0, e_rc=0, e_sa=0,
    a_cell=0, a_wd=0, a_bd=0, a_dec=0, a_mux=0, a_rc=0, a_sa=0,
)


def make(design, spec, params=None, mode="max"):
    k = Kernel4(RNG.integers(-8, 9, (spec.kh, spec.kw, spec.channels, spec.filters)))
    plan = build_plan(k, design, spec)
    schedule = build_schedule(spec, design)
    trace = trace_of_schedule(schedule, plan)
    return plan, trace, cost_breakdown(
        trace, plan, params or CostParams(), layer="L", spec=spec,
        critical_path_mode=mode,
    )


@pytest.mark.parametrize("design", list(DesignKind))
@pytest.mark.parametrize("entry", builtin_benchmarks(), ids=lambda e: e.name)
def test_scaled_schedule_on_geometry_plan_costs_like_full_size(entry, design):
    # run_suite's cost path against the full-size schedule on a weighted plan
    spec = entry.spec
    scaled = trace_of_schedule(build_schedule(scale_channels(spec, 1 / 64), design),
                               MappingPlan(design, spec.kernel_shape))
    zero_plan = build_plan(Kernel4(np.zeros(spec.kernel_shape, dtype=np.int64)), design, spec)
    full = trace_of_schedule(build_schedule(spec, design), zero_plan)
    for f in dataclasses.fields(ExecutionTrace):
        a, b = getattr(scaled, f.name), getattr(full, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
    for mode in ("max", "sum"):
        assert (cost_breakdown(scaled, MappingPlan(design, spec.kernel_shape), CostParams(),
                               entry.name, spec, mode)
                == cost_breakdown(full, zero_plan, CostParams(), entry.name, spec, mode))


# cost_breakdown components of GAN_Deconv2 at its declared size, per
# design: latency in max mode, latency in sum mode, energy, area.  The
# golden report digests cover max mode only; this pins sum mode and the
# per-crossbar energy sums exactly.
PINNED_COSTS = {
    DesignKind.ZERO_PADDING: (
        (3.2768e-08, 8.192000000000001e-08, 1.7919999999999998e-08, 5.12e-09, 1.6384e-08,
         2.56e-09),
        (3.2768e-08, 8.192000000000001e-08, 1.7919999999999998e-08, 5.12e-09, 1.6384e-08,
         2.56e-09),
        (4.194304e-08, 2.1790720000000002e-09, 2.1790720000000002e-09, 4.0960000000000004e-08,
         1.6384e-11, 1.6384e-10, 8.192e-11),
        (327680.0, 12800.0, 204.8, 6400.0, 153.6, 2560.0, 1280.0),
    ),
    DesignKind.PADDING_FREE: (
        (2.048e-07, 8.192e-10, 2.88e-09, 2.08e-09, 2.19392e-07, 5.86e-07),
        (2.048e-07, 8.192e-10, 2.88e-09, 2.08e-09, 2.19392e-07, 5.86e-07),
        (1.048576e-08, 3.2819200000000003e-07, 3.2819200000000003e-07, 4.096e-10, 1.024e-10,
         2.19392e-09, 1.09696e-09),
        (327680.0, 512.0, 5120.0, 256.0, 3840.0, 64000.0, 32000.0),
    ),
    DesignKind.RED: (
        (8.192e-09, 8.192e-10, 2.88e-09, 1.28e-09, 4.096e-09, 6.4e-10),
        (1.4796800000000004e-07, 1.4796800000000001e-08, 5.202e-08, 2.3119999999999998e-08,
         7.398400000000002e-08, 1.1559999999999999e-08),
        (7.5759616e-09, 9.839872e-09, 9.839872e-09, 7.3984000000000004e-09,
         7.398400000000001e-11, 7.3984e-10, 6.5792e-10),
        (327680.0, 12800.0, 5120.0, 6400.0, 3840.0, 64000.0, 32000.0),
    ),
    DesignKind.RED_FOLDED: (
        (1.6384e-08, 3.2768e-09, 6.399999999999999e-09, 2.56e-09, 8.192e-09, 1.28e-09),
        (1.4796800000000002e-07, 2.95936e-08, 5.779999999999999e-08, 2.3119999999999995e-08,
         7.398400000000001e-08, 1.1559999999999997e-08),
        (7.5759616e-09, 9.839872000000001e-09, 9.839872000000001e-09, 7.3984000000000004e-09,
         7.398400000000001e-11, 7.3984e-10, 6.5792e-10),
        (340787.2, 13312.0, 2662.4, 6656.0, 1996.8, 33280.0, 16640.0),
    ),
}


@pytest.mark.parametrize("design", list(DesignKind))
def test_plan_costs_are_pinned(design):
    spec = next(e.spec for e in builtin_benchmarks() if e.name == "GAN_Deconv2")
    plan = MappingPlan(design, spec.kernel_shape)
    trace = trace_of_schedule(build_schedule(spec, design), plan)
    latency_max, latency_sum, energy, area = PINNED_COSTS[design]
    for mode, latency in (("max", latency_max), ("sum", latency_sum)):
        b = cost_breakdown(trace, plan, CostParams(), "GAN_Deconv2", spec, mode)
        assert tuple(b.latency.components.values()) == latency
        assert tuple(b.energy.components.values()) == energy
        assert tuple(b.area.components.values()) == area


def test_params_validation():
    with pytest.raises(ValueError, match="t_wd"):
        CostParams(t_wd=-1)
    with pytest.raises(ValueError, match="unknown cost parameter"):
        CostParams.from_dict({"t_xyz": 1.0})


def test_zero_coefficients_zero_breakdown():
    spec = DeconvLayerSpec(2, 2, 2, 2, 2, 2, 2)
    _, _, b = make(DesignKind.RED, spec, ZEROED)
    assert b.latency.total == 0 and b.energy.total == 0 and b.area.total == 0


def test_unit_single_cycle_unit_dims():
    # 1x1 layer with a 1x1x1x1 kernel: one cycle, all six latency terms unit
    spec = DeconvLayerSpec(1, 1, 1, 1, 1, 1, 1)
    _, _, b = make(DesignKind.ZERO_PADDING, spec, UNIT)
    assert b.latency.total == 6.0


def test_additivity_exact():
    for design in DesignKind:
        spec = DeconvLayerSpec(4, 4, 3, 3, 3, 2, 2)
        _, _, b = make(design, spec)
        lat, en, ar = b.latency, b.energy, b.area
        assert lat.total == lat.array_part + lat.periphery_part
        assert lat.array_part == lat.wd + lat.bd
        assert lat.periphery_part == lat.dec + lat.mux + lat.rc + lat.sa
        assert en.total == en.array_part + en.periphery_part
        assert en.array_part == en.c + en.wd + en.bd
        assert en.periphery_part == en.dec + en.mux + en.rc + en.sa
        assert ar.total == ar.array_part + ar.periphery_part


def test_monotone_in_coefficients():
    spec = DeconvLayerSpec(4, 4, 3, 4, 4, 3, 2, 1, 1, 1, 1)
    base_vals = {}
    for design in (DesignKind.ZERO_PADDING, DesignKind.RED_FOLDED):
        _, _, b = make(design, spec)
        base_vals[design] = (b.latency.total, b.energy.total, b.area.total)
    for coef in ("t_bd", "e_wd_quadratic", "e_sa", "a_rc", "t_rc", "e_dec"):
        bumped = dataclasses.replace(CostParams(), **{coef: getattr(CostParams(), coef) * 10 + 1})
        for design in (DesignKind.ZERO_PADDING, DesignKind.RED_FOLDED):
            _, _, b = make(design, spec, bumped)
            lat, en, ar = base_vals[design]
            assert b.latency.total >= lat and b.energy.total >= en and b.area.total >= ar


def test_array_area_design_invariant():
    spec = DeconvLayerSpec(4, 4, 6, 4, 4, 5, 2, 1, 1, 1, 1)  # even kernel-position count
    areas = set()
    for design in DesignKind:
        _, _, b = make(design, spec)
        areas.add(b.area.array)
    assert len(areas) == 1


def test_red_periphery_area_exceeds_zero_padding():
    spec = DeconvLayerSpec(4, 4, 6, 3, 3, 5, 2)
    _, _, zp = make(DesignKind.ZERO_PADDING, spec)
    _, _, red = make(DesignKind.RED, spec)
    assert red.area.periphery_part > zp.area.periphery_part
    assert red.area.total > zp.area.total


def test_doubling_e_cell_doubles_ec_only():
    spec = DeconvLayerSpec(3, 3, 2, 3, 3, 2, 2)
    k = Kernel4(np.ones((3, 3, 2, 2), dtype=np.int64))
    plan = build_plan(k, DesignKind.RED, spec)
    trace = trace_of_schedule(build_schedule(spec, DesignKind.RED), plan)
    p1 = CostParams()
    p2 = dataclasses.replace(p1, e_cell=2 * p1.e_cell)
    e1, e2 = energy_of(trace, plan, p1), energy_of(trace, plan, p2)
    assert e2.c == 2 * e1.c
    for comp in ("wd", "bd", "dec", "mux", "rc", "sa"):
        assert getattr(e2, comp) == getattr(e1, comp)


def test_padding_free_driver_energy_dominates_with_quadratic_term():
    # same cell count and same total activations per cycle, but the wide
    # layout pays quadratically for its kh*kw*M columns
    spec = DeconvLayerSpec(4, 4, 8, 4, 4, 8, 2, 1, 1, 1, 1)
    k = Kernel4(np.ones((4, 4, 8, 8), dtype=np.int64))
    pf_plan = build_plan(k, DesignKind.PADDING_FREE, spec)
    red_plan = build_plan(k, DesignKind.RED, spec)
    pf = energy_of(trace_of_schedule(build_schedule(spec, DesignKind.PADDING_FREE), pf_plan),
                   pf_plan, CostParams())
    red = energy_of(trace_of_schedule(build_schedule(spec, DesignKind.RED), red_plan),
                    red_plan, CostParams())
    assert pf.wd > red.wd
    no_quad = dataclasses.replace(CostParams(), e_wd_quadratic=0.0, e_bd_quadratic=0.0)
    pf0 = energy_of(trace_of_schedule(build_schedule(spec, DesignKind.PADDING_FREE), pf_plan),
                    pf_plan, no_quad)
    red0 = energy_of(trace_of_schedule(build_schedule(spec, DesignKind.RED), red_plan),
                     red_plan, no_quad)
    # the quadratic column law is what blows the wide layout's share up;
    # linear-only leaves just the border zero-skipping difference
    assert pf.wd / red.wd > pf0.wd / red0.wd


def test_latency_ratio_reaches_stride_squared():
    # periphery zeroed, bitline term zeroed: per-cycle array latency is the
    # same column-driving term for both designs, so the ratio is the pure
    # cycle-count ratio s^2 (exact-division output sizes)
    spec = DeconvLayerSpec(4, 4, 4, 4, 4, 4, 2, 1, 1, 1, 1)
    params = dataclasses.replace(
        ZEROED, t_wd=1.0, bit_serial_cycles=1
    )
    _, _, zp = make(DesignKind.ZERO_PADDING, spec, params)
    _, _, red = make(DesignKind.RED, spec, params)
    assert zp.latency.total / red.latency.total == 4.0


def test_critical_path_sum_mode_not_smaller():
    spec = DeconvLayerSpec(4, 4, 4, 3, 3, 4, 2)
    _, _, bmax = make(DesignKind.RED, spec, mode="max")
    _, _, bsum = make(DesignKind.RED, spec, mode="sum")
    assert bsum.latency.total >= bmax.latency.total


def test_bit_serial_multiplier():
    spec = DeconvLayerSpec(3, 3, 2, 2, 2, 2, 2)
    p8 = dataclasses.replace(CostParams(), bit_serial_cycles=8)
    _, _, b1 = make(DesignKind.ZERO_PADDING, spec)
    _, _, b8 = make(DesignKind.ZERO_PADDING, spec, p8)
    assert b8.latency.total == pytest.approx(8 * b1.latency.total)
    assert b8.energy.total == pytest.approx(8 * b1.energy.total)
    assert b8.area.total == b1.area.total


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------


def _breakdowns(spec, designs=tuple(DesignKind)):
    out = {}
    k = Kernel4(RNG.integers(-8, 9, (spec.kh, spec.kw, spec.channels, spec.filters)))
    for d in designs:
        plan = build_plan(k, d, spec)
        trace = trace_of_schedule(build_schedule(spec, d), plan)
        out[d] = cost_breakdown(trace, plan, CostParams(), layer="L", spec=spec)
    return out


def test_identical_breakdowns_normalize_to_one():
    spec = DeconvLayerSpec(3, 3, 2, 2, 2, 2, 2)
    b = _breakdowns(spec, (DesignKind.ZERO_PADDING,))
    report = compare(b)
    entry = report.entries["zero_padding"]
    assert entry.normalized_latency == 1.0
    assert entry.normalized_energy == 1.0
    assert entry.normalized_area == 1.0
    assert entry.speedup_vs_baseline == 1.0


def test_red_speedup_on_gan_benchmarks():
    for e in builtin_benchmarks():
        if not e.name.startswith("GAN"):
            continue
        report = compare(_breakdowns(e.spec, (DesignKind.ZERO_PADDING, DesignKind.RED)))
        red = report.entries["red"]
        zp = report.entries["zero_padding"]
        assert red.speedup_vs_baseline > 1.0
        assert red.speedup_vs_baseline == pytest.approx(
            zp.breakdown.latency.total / red.breakdown.latency.total
        )


def test_compare_without_baseline():
    spec = DeconvLayerSpec(3, 3, 2, 2, 2, 2, 2)
    report = compare(_breakdowns(spec, (DesignKind.RED,)))
    entry = report.entries["red"]
    assert report.baseline is None
    assert entry.normalized_latency is None and entry.speedup_vs_baseline is None


def test_compare_rejects_mixed_layers():
    a = _breakdowns(DeconvLayerSpec(3, 3, 2, 2, 2, 2, 2), (DesignKind.ZERO_PADDING,))
    b = _breakdowns(DeconvLayerSpec(4, 4, 2, 2, 2, 2, 2), (DesignKind.RED,))
    bad = dict(a)
    bad[DesignKind.RED] = dataclasses.replace(b[DesignKind.RED], layer="other")
    with pytest.raises(ValueError, match="multiple layers"):
        compare(bad)


def test_zero_totals_serialize_as_empty_not_infinite():
    spec = DeconvLayerSpec(3, 3, 2, 2, 2, 2, 2)
    k = Kernel4(np.ones((2, 2, 2, 2), dtype=np.int64))
    out = {}
    for d in (DesignKind.ZERO_PADDING, DesignKind.RED):
        plan = build_plan(k, d, spec)
        trace = trace_of_schedule(build_schedule(spec, d), plan)
        out[d] = cost_breakdown(trace, plan, ZEROED, layer="L", spec=spec)
    report = compare(out)
    rows = breakdown_csv_rows([report])
    for row in rows[1:]:
        assert row[5] == ""  # normalized column empty, never inf
    assert report.entries["red"].speedup_vs_baseline is None
    obj = report_to_dict(report)
    assert obj["designs"]["red"]["speedup_vs_baseline"] is None


def test_csv_rows_schema_and_reference_columns():
    spec = DeconvLayerSpec(3, 3, 2, 2, 2, 2, 2)
    report = compare(_breakdowns(spec, (DesignKind.ZERO_PADDING, DesignKind.RED)))
    rows = breakdown_csv_rows([report])
    assert rows[0] == ["design", "layer", "metric", "component", "value", "normalized"]
    metrics = {r[2] for r in rows[1:]}
    assert metrics == {"latency", "energy", "area"}
    totals = [r for r in rows[1:] if r[0] == "zero_padding" and r[3] == "total"]
    assert all(float(r[5]) == 1.0 for r in totals)

    summary = summary_csv_rows([report])
    header = summary[0]
    assert "reference_speedup_range" in header and "reference_energy_saving_pct_range" in header
    i = header.index("reference_speedup_range")
    assert summary[1][i] == "3.69-31.15"
    assert report_to_dict(report)["reference"] == REFERENCE_COMPARISONS
