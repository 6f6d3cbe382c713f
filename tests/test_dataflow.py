import dataclasses
import itertools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from red_sim.dataflow import (
    build_schedule,
    dump_schedule_lines,
    execute,
    partition_modes,
    schedule_padding_free,
    schedule_zero_padding,
    schedule_zero_skipping,
    trace_of_schedule,
    validate_schedule,
)
from red_sim.mapping import DesignKind, MappingPlan, build_plan
from red_sim.tensor import (
    DeconvLayerSpec,
    Kernel4,
    Tensor3,
    compute_dtype,
    deconv_oracle_padding_free,
    deconv_oracle_zero_padding,
    output_shape,
    rotate180,
    zero_redundancy_ratio,
)

RNG = np.random.default_rng(99)

# K=3, s=2 toy layer with top/left crops of 2, so the padded image has no
# leading border and the first tile is the interior sharing pattern
TOY = DeconvLayerSpec(4, 4, 2, 3, 3, 2, 2, 2, 0, 2, 0)

GAN1 = DeconvLayerSpec(8, 8, 512, 5, 5, 256, 2, 1, 2, 1, 2)
FCN2 = DeconvLayerSpec(70, 70, 21, 16, 16, 21, 8)


@st.composite
def layer_specs(draw, max_channels=3):
    """Valid layers over the whole crop space, strides up to 7."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    crops = [draw(st.integers(0, k - 1)) for k in (kh, kh, kw, kw)]
    c, m = draw(st.integers(1, max_channels)), draw(st.integers(1, max_channels))
    ih, iw, s = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 7))
    try:
        return DeconvLayerSpec(ih, iw, c, kh, kw, m, s, *crops)
    except ValueError:
        assume(False)  # vanishing output, not a valid layer


def rand_pair(spec, seed=0):
    rng = np.random.default_rng(seed)
    t = Tensor3(rng.integers(-8, 9, (spec.input_h, spec.input_w, spec.channels)))
    k = Kernel4(rng.integers(-8, 9, (spec.kh, spec.kw, spec.channels, spec.filters)))
    return t, k


# ---------------------------------------------------------------------------
# computation modes
# ---------------------------------------------------------------------------


def test_modes_k3_s2():
    part = partition_modes(DeconvLayerSpec(4, 4, 1, 3, 3, 1, 2))
    assert part.sizes == {(0, 0): 4, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    # in 1..9 row-major numbering, mode (0,0) holds weights {1, 3, 7, 9}
    assert set(part.modes[(0, 0)]) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_modes_stride1_single():
    part = partition_modes(DeconvLayerSpec(4, 4, 1, 3, 3, 1, 1))
    assert list(part.modes) == [(0, 0)]
    assert part.sizes[(0, 0)] == 9


def test_modes_k16_s8():
    part = partition_modes(DeconvLayerSpec(70, 70, 1, 16, 16, 1, 8))
    assert len(part.modes) == 64
    assert set(part.sizes.values()) == {4}
    assert sum(part.sizes.values()) == 256


@settings(max_examples=40, deadline=None)
@given(kh=st.integers(1, 8), kw=st.integers(1, 8), s=st.integers(1, 8))
def test_modes_partition_property(kh, kw, s):
    spec = DeconvLayerSpec(4, 4, 1, kh, kw, 1, s)
    part = partition_modes(spec)
    seen = [pos for positions in part.modes.values() for pos in positions]
    assert len(seen) == len(set(seen)) == kh * kw  # disjoint and complete
    for (ry, rx), positions in part.modes.items():
        for (i, j) in positions:
            assert i % s == ry and j % s == rx
        assert len(positions) == max(0, -(-(kh - ry) // s)) * max(0, -(-(kw - rx) // s))


# ---------------------------------------------------------------------------
# cycle-count formulas
# ---------------------------------------------------------------------------


def test_cycle_counts_gan_deconv1():
    assert schedule_zero_padding(GAN1).cycle_count == 256
    assert schedule_padding_free(GAN1).cycle_count == 64
    assert schedule_zero_skipping(GAN1).cycle_count == 64


def test_cycle_counts_fcn_deconv2():
    assert schedule_zero_padding(FCN2).cycle_count == 322624
    assert schedule_padding_free(FCN2).cycle_count == 4900
    assert schedule_zero_skipping(FCN2).cycle_count == 5041
    assert schedule_zero_skipping(FCN2, folded=True).cycle_count == 10082


def test_cycle_counts_1x1():
    spec = DeconvLayerSpec(1, 1, 2, 1, 1, 3, 1)
    assert schedule_zero_padding(spec).cycle_count == 1
    assert schedule_padding_free(spec).cycle_count == 1
    assert schedule_zero_skipping(spec).cycle_count == 1


def test_red_cycles_partial_tiles():
    # output 7x7 at stride 2 needs ceil(7/2)^2 = 16 tiles
    assert schedule_zero_skipping(TOY).cycle_count == 16


# ---------------------------------------------------------------------------
# the published first-cycle sharing pattern
# ---------------------------------------------------------------------------


def test_zero_skipping_first_cycle_pattern():
    sched = schedule_zero_skipping(TOY)
    first = sched.cycle == 0
    assert int(first.sum()) == 9
    assert sched.live[first].all()
    by_pixel = defaultdict(set)
    for xb, a, b in zip(sched.crossbar[first], sched.src_a[first], sched.src_b[first]):
        by_pixel[(int(a), int(b))].add(int(xb))
    assert sorted(len(v) for v in by_pixel.values()) == [1, 2, 2, 4]
    # sub-crossbar sets per shared input pixel (0-based n = i*kw + j)
    assert by_pixel[(0, 0)] == {0}
    assert by_pixel[(0, 1)] == {1, 2}
    assert by_pixel[(1, 0)] == {3, 6}
    assert by_pixel[(1, 1)] == {4, 5, 7, 8}


@settings(max_examples=50, deadline=None)
@given(spec=layer_specs(max_channels=1),
       design=st.sampled_from([DesignKind.RED, DesignKind.RED_FOLDED]))
@example(spec=TOY, design=DesignKind.RED)
def test_zero_skipping_groups_follow_modes(spec, design):
    # each dumped group names output pixel divmod(group, ow) and lists the
    # crossbars of that pixel's computation mode: sub n, or folded sub n // 2
    part = partition_modes(spec)
    s, ow = spec.stride, spec.output_w
    fold = 2 if design is DesignKind.RED_FOLDED else 1
    seen = []
    for line in dump_schedule_lines(build_schedule(spec, design)):
        fields = line.split(",")
        if line.startswith("#") or not fields[2].isdigit():
            continue  # header or assignment line
        gid, y, x = (int(v) for v in fields[1:4])
        assert (y, x) == divmod(gid, ow)
        mode = part.modes[((spec.pad_top - y) % s, (spec.pad_left - x) % s)]
        assert sorted(int(v) for v in fields[4:] if v) == sorted(
            (i * spec.kw + j) // fold for i, j in mode)
        seen.append(gid)
    assert sorted(seen) == list(range(spec.output_h * ow))


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", list(DesignKind))
def test_schedules_validate(design):
    for spec in (TOY, GAN1, DeconvLayerSpec(1, 1, 1, 1, 1, 1, 1)):
        validate_schedule(build_schedule(spec, design))


ASSIGNMENT_COLUMNS = ("cycle", "crossbar", "live", "src_a", "src_b", "group_id")


def _reordered(sched, order):
    return dataclasses.replace(sched, **{k: getattr(sched, k)[order] for k in ASSIGNMENT_COLUMNS})


def _swap_first_two(sched):
    # cycle 0, crossbars 0 and 1 change places: no crossbar repeats, but the
    # documented (cycle, crossbar) order is broken
    order = np.arange(len(sched.cycle))
    order[:2] = [1, 0]
    return _reordered(sched, order)


def _with_value(sched, column, index, value):
    coords = getattr(sched, column).copy()
    coords[index] = value
    return dataclasses.replace(sched, **{column: coords})


def _pixels_one_column_right(_):
    # on a 3x2 input, src_b + 1 moves a first-column pixel onto its
    # neighbour and a second-column pixel onto the padded image's zero
    # border: both reads stay inside the image and would fail silently
    sched = build_schedule(DeconvLayerSpec(3, 2, 1, 3, 3, 1, 2), DesignKind.RED)
    return dataclasses.replace(sched, src_b=sched.src_b + 1)


def _folded_drive_into_zero_fill(sched):
    # TOY's 3x3 kernel folds into arrays 0..4, and array 4's high half is
    # zero fill: its even-cycle drive, moved to the next (odd) cycle,
    # would multiply the zero fill
    index = np.flatnonzero(sched.live & (sched.crossbar == 4) & (sched.cycle % 2 == 0))[0]
    moved = _with_value(sched, "cycle", index, sched.cycle[index] + 1)
    return _reordered(moved, np.lexsort((moved.crossbar, moved.cycle)))


@pytest.mark.parametrize("design,corrupt,message", [
    (DesignKind.RED, lambda s: dataclasses.replace(s, cycle=s.cycle - 1),
     "index out of range"),
    (DesignKind.RED, lambda s: dataclasses.replace(s, cycle_count=s.cycle_count - 1),
     "index out of range"),
    (DesignKind.RED, lambda s: dataclasses.replace(s, crossbar=s.crossbar - 1),
     "index out of range"),
    (DesignKind.RED, lambda s: dataclasses.replace(s, crossbar=np.zeros_like(s.crossbar)),
     "strictly increasing"),
    (DesignKind.RED_FOLDED, _swap_first_two, "strictly increasing"),
    (DesignKind.PADDING_FREE,
     lambda s: dataclasses.replace(s, group_cycle=np.zeros(1, dtype=np.int64)),
     "must not carry accumulation groups"),
    (DesignKind.ZERO_PADDING,
     lambda s: dataclasses.replace(s, group_cycle=s.group_cycle[:-1]),
     "one group per output pixel"),
    (DesignKind.RED, lambda s: _with_value(s, "group_id", 0, -1),
     "assignment group id out of range"),
    (DesignKind.RED, lambda s: dataclasses.replace(s, live=s.live.astype(np.int8)),
     "live column is not boolean"),
    (DesignKind.RED, _pixels_one_column_right, "pixel source outside the input"),
    (DesignKind.ZERO_PADDING, lambda s: _with_value(s, "src_a", -1, TOY.output_h),
     "window origin outside the output grid"),
    # TOY's 3x3 kernel gives red 9 arrays, 0..8; shifted up, each reads its
    # neighbour's weights and crossbar 9 has none
    (DesignKind.RED, lambda s: dataclasses.replace(s, crossbar=s.crossbar + 1), "9 arrays"),
    # only zero skipping has drives to skip: a dropped window or pixel is a
    # missing product
    (DesignKind.ZERO_PADDING, lambda s: _with_value(s, "live", 0, False),
     "zero drive on the zero_padding design"),
    (DesignKind.PADDING_FREE, lambda s: _with_value(s, "live", 0, False),
     "zero drive on the padding_free design"),
    (DesignKind.RED_FOLDED, _folded_drive_into_zero_fill, "zero-fill half"),
])
def test_validate_schedule_rejects(design, corrupt, message):
    sched = build_schedule(TOY, design)
    validate_schedule(sched)
    with pytest.raises(ValueError, match=message):
        validate_schedule(corrupt(sched))


def test_zero_padding_schedule_structure():
    sched = schedule_zero_padding(TOY)
    oh, ow, _ = output_shape(TOY)
    assert sched.cycle_count == oh * ow
    assert sched.live.all()
    assert (sched.crossbar == 0).all()
    assert len(sched.cycle) == oh * ow  # one assignment per cycle


def test_padding_free_schedule_structure():
    sched = schedule_padding_free(TOY)
    assert sched.cycle_count == 16
    assert sched.has_post_ops and sched.group_count == 0
    assert (sched.group_id == -1).all()


def test_folded_phases():
    # even cycles drive the low halves and odd cycles the high halves; the
    # dump names each assignment's half from its cycle
    sched = schedule_zero_skipping(TOY, folded=True)
    kinds = {}
    for line in dump_schedule_lines(sched):
        fields = line.split(",")
        if not line.startswith("#") and not fields[2].isdigit():
            kinds.setdefault(fields[2][-3:], []).append((int(fields[0]), int(fields[1])))
    lo, hi = kinds.pop("_lo"), kinds.pop("_hi")
    assert not kinds and len(lo) + len(hi) == sched.assignment_count
    assert all(t % 2 == 0 for t, _ in lo)
    assert all(t % 2 == 1 for t, _ in hi)
    # odd original subs 1,3,5,7 land in the high halves of folded subs 0..3;
    # original sub 8 is even-phase, so folded sub 4 never drives its high half
    assert {xb for _, xb in hi} <= {0, 1, 2, 3}
    validate_schedule(sched)


# ---------------------------------------------------------------------------
# execution equivalence
# ---------------------------------------------------------------------------

BENCH_SHAPES = [
    ("GAN_Deconv1", DeconvLayerSpec(8, 8, 4, 5, 5, 4, 2, 1, 2, 1, 2)),
    ("GAN_Deconv2", DeconvLayerSpec(4, 4, 4, 5, 5, 4, 2, 1, 2, 1, 2)),
    ("GAN_Deconv3", DeconvLayerSpec(4, 4, 4, 4, 4, 4, 2, 1, 1, 1, 1)),
    ("GAN_Deconv4", DeconvLayerSpec(6, 6, 4, 4, 4, 4, 2, 1, 1, 1, 1)),
    ("FCN_Deconv1", DeconvLayerSpec(16, 16, 4, 4, 4, 4, 2)),
    ("FCN_Deconv2", DeconvLayerSpec(70, 70, 4, 16, 16, 4, 8)),
]


@pytest.mark.parametrize("design", list(DesignKind))
@pytest.mark.parametrize("name,spec", BENCH_SHAPES)
def test_execute_matches_oracle(design, name, spec):
    t, k = rand_pair(spec, seed=hash(name) % 1000)
    want = deconv_oracle_zero_padding(t, k, spec)
    plan = build_plan(k, design, spec)
    sched = build_schedule(spec, design)
    got = execute(plan, sched, t)
    assert np.array_equal(got.data, want.data)
    assert trace_of_schedule(sched, plan).cycle_count == sched.cycle_count


def test_impulse_through_red_schedule():
    spec = DeconvLayerSpec(3, 3, 2, 3, 3, 2, 2)
    data = np.zeros((3, 3, 2), dtype=np.int64)
    data[1, 1, 0] = 1
    t = Tensor3(data)
    _, k = rand_pair(spec, seed=5)
    plan = build_plan(k, DesignKind.RED, spec)
    got = execute(plan, schedule_zero_skipping(spec), t)
    want = deconv_oracle_zero_padding(t, k, spec)
    assert np.array_equal(got.data, want.data)
    # placement: rotated slice for channel 0 at offset (2, 2) on the canvas
    full = np.zeros((spec.full_h, spec.full_w, 2), dtype=np.int64)
    full[2:5, 2:5, :] = rotate180(k).data[:, :, 0, :]
    crop = full[spec.crop_top : spec.crop_top + 7, spec.crop_left : spec.crop_left + 7]
    assert np.array_equal(got.data, crop)


def test_folded_equals_unfolded_with_double_cycles():
    spec = DeconvLayerSpec(4, 4, 6, 4, 4, 5, 2, 1, 1, 1, 1)
    t, k = rand_pair(spec, seed=11)
    plain_plan = build_plan(k, DesignKind.RED, spec)
    fold_plan = build_plan(k, DesignKind.RED_FOLDED, spec)
    plain_sched = schedule_zero_skipping(spec)
    fold_sched = schedule_zero_skipping(spec, folded=True)
    a = execute(plain_plan, plain_sched, t)
    b = execute(fold_plan, fold_sched, t)
    tr_a = trace_of_schedule(plain_sched, plain_plan)
    tr_b = trace_of_schedule(fold_sched, fold_plan)
    assert np.array_equal(a.data, b.data)
    assert tr_b.cycle_count == 2 * tr_a.cycle_count
    assert tr_b.vmm_activations == tr_a.vmm_activations


def test_execute_stride1_folded():
    # stride 1 puts every sub on the same output pixel; the folded path must
    # accumulate both phases of one sub into that pixel
    spec = DeconvLayerSpec(3, 3, 2, 2, 2, 2, 1)
    t, k = rand_pair(spec, seed=21)
    want = deconv_oracle_zero_padding(t, k, spec)
    plan = build_plan(k, DesignKind.RED_FOLDED, spec)
    got = execute(plan, schedule_zero_skipping(spec, folded=True), t)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("spec", [TOY, DeconvLayerSpec(2, 3, 2, 1, 1, 3, 1)])
def test_folded_idle_half_is_not_multiplied(spec):
    # an odd kh*kw leaves the last folded array's high half as zero fill
    # that no phase drives; poisoned with NaN, it must not reach the output
    t = Tensor3(RNG.normal(size=(spec.input_h, spec.input_w, spec.channels)))
    k = Kernel4(RNG.normal(size=spec.kernel_shape))
    plan = build_plan(k, DesignKind.RED_FOLDED, spec)
    plan.crossbars[-1][spec.channels:] = np.nan
    got = execute(plan, build_schedule(spec, DesignKind.RED_FOLDED), t).data
    want = deconv_oracle_zero_padding(t, k, spec).data
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("design", list(DesignKind))
def test_execution_follows_its_schedule(design):
    spec = DeconvLayerSpec(3, 2, 2, 3, 3, 2, 2)  # non-square input
    t, k = rand_pair(spec, seed=41)
    plan = build_plan(k, design, spec)
    sched = build_schedule(spec, design)
    want = deconv_oracle_zero_padding(t, k, spec).data
    assert np.array_equal(execute(plan, sched, t).data, want)
    # the one runner reads assignments in any order
    shuffled = _reordered(sched, np.random.default_rng(0).permutation(len(sched.cycle)))
    assert np.array_equal(execute(plan, shuffled, t).data, want)
    # swapped coordinates on a non-square input drive other pixels
    swapped = dataclasses.replace(sched, src_a=sched.src_b, src_b=sched.src_a)
    assert not np.array_equal(execute(plan, swapped, t).data, want)


def test_trace_checks_design_and_kernel_extent_only():
    # the trace takes C and M from the plan, so a schedule of any channel
    # count traces a plan of the same design and kernel extent
    sched = schedule_zero_skipping(TOY)
    trace = trace_of_schedule(sched, MappingPlan(DesignKind.RED, (3, 3, 5, 7)))
    assert trace.cell_activations == int(sched.live.sum()) * 5 * 7
    with pytest.raises(ValueError, match="design"):
        trace_of_schedule(sched, MappingPlan(DesignKind.RED_FOLDED, (3, 3, 2, 2)))
    with pytest.raises(ValueError, match="kernel dims"):
        trace_of_schedule(sched, MappingPlan(DesignKind.RED, (3, 2, 2, 2)))
    # execution still needs the layer's exact kernel and real weights
    t, _ = rand_pair(TOY, seed=3)
    wide = build_plan(Kernel4(np.zeros((3, 3, 5, 7), dtype=np.int64)), DesignKind.RED)
    with pytest.raises(ValueError, match="kernel dims"):
        execute(wide, sched, t)
    with pytest.raises(ValueError, match="geometry-only"):
        execute(MappingPlan(DesignKind.RED, TOY.kernel_shape), sched, t)


def test_execute_rejects_mismatches():
    t, k = rand_pair(TOY, seed=1)
    plan = build_plan(k, DesignKind.RED, TOY)
    sched = schedule_zero_padding(TOY)
    with pytest.raises(ValueError, match="design"):
        execute(plan, sched, t)
    good_sched = schedule_zero_skipping(TOY)
    with pytest.raises(ValueError, match="input shape"):
        execute(plan, good_sched, Tensor3(np.zeros((4, 4, 3))))


@pytest.mark.parametrize("design", list(DesignKind))
def test_execute_refuses_int64_overflow(design):
    # 2^40 * 2^30 = 2^70 wraps to 0 in int64, which the oracles would match
    spec = DeconvLayerSpec(1, 1, 1, 1, 1, 1, 1)
    plan = build_plan(Kernel4(np.full((1, 1, 1, 1), 2**30)), design, spec)
    with pytest.raises(OverflowError, match="int64"):
        execute(plan, build_schedule(spec, design), Tensor3(np.full((1, 1, 1), 2**40)))


def deconv_python_ints(t, k, spec):
    """Deconvolution by definition in Python integers, which neither round
    nor wrap: input pixel (a, b) adds its product with the rotated tap
    (i, j) at full-canvas position (a*s + i, b*s + j); the canvas is then
    cropped."""
    x, w, s = t.data.tolist(), k.data.tolist(), spec.stride
    canvas = [[[0] * spec.filters for _ in range(spec.full_w)] for _ in range(spec.full_h)]
    for a, b, i, j, c, m in itertools.product(
            range(spec.input_h), range(spec.input_w), range(spec.kh), range(spec.kw),
            range(spec.channels), range(spec.filters)):
        canvas[a * s + i][b * s + j][m] += x[a][b][c] * w[spec.kh - 1 - i][spec.kw - 1 - j][c][m]
    rows = canvas[spec.crop_top : spec.crop_top + spec.output_h]
    return [row[spec.crop_left : spec.crop_left + spec.output_w] for row in rows]


# stride 1: every output pixel sums 2x2 taps x 2 channels = 8 products
EXACT = DeconvLayerSpec(3, 3, 2, 2, 2, 2, 1)


@pytest.mark.parametrize("fill,x_big,w_big,dtype,beyond", [
    (1, 2**25, 2**25 - 1, np.float64, None),  # bound 2^53 - 2^28: exact on BLAS
    (1, 2**27, 2**26, np.int64, 2**53 + 7),  # seven more products of 1
    (0, 2**27, 2**26, np.int64, 2**53 + 1),  # one more product of 1
])
def test_exact_on_both_sides_of_2_53(fill, x_big, w_big, dtype, beyond):
    data = np.full((3, 3, 2), fill, dtype=np.int64)
    data[1, 1] = x_big, 1
    weights = np.full((2, 2, 2, 2), fill, dtype=np.int64)
    weights[0, 0, :, 0] = w_big, 1
    t, k = Tensor3(data), Kernel4(weights)
    assert compute_dtype(t.data, [k.data], 8) == dtype
    want = deconv_python_ints(t, k, EXACT)
    if beyond is not None:  # a true sum that float64 would round
        assert beyond in itertools.chain.from_iterable(itertools.chain(*want))
        assert float(beyond) != beyond
    runs = [oracle(t, k, EXACT)
            for oracle in (deconv_oracle_zero_padding, deconv_oracle_padding_free)]
    runs += [execute(build_plan(k, d, EXACT), build_schedule(EXACT, d), t) for d in DesignKind]
    for got in runs:
        assert got.data.dtype == np.int64
        assert got.data.tolist() == want


@pytest.mark.parametrize("design", list(DesignKind))
def test_float_input_within_tolerance(design):
    t = Tensor3(RNG.normal(size=(TOY.input_h, TOY.input_w, TOY.channels)))
    k = Kernel4(RNG.normal(size=TOY.kernel_shape))
    want = deconv_oracle_zero_padding(t, k, TOY).data
    got = execute(build_plan(k, design, TOY), build_schedule(TOY, design), t).data
    assert got.dtype == np.float64
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_trace_zero_padding_counts():
    spec = DeconvLayerSpec(2, 2, 3, 2, 2, 4, 2)
    k = Kernel4(np.ones((2, 2, 3, 4), dtype=np.int64))
    plan = build_plan(k, DesignKind.ZERO_PADDING, spec)
    trace = trace_of_schedule(schedule_zero_padding(spec), plan)
    oh_ow = 16
    assert trace.cycle_count == oh_ow
    assert trace.vmm_activations == oh_ow
    assert trace.input_bits_driven == oh_ow * 2 * 2 * 3  # full window incl. zeros
    assert trace.output_values_read == oh_ow * 4
    assert trace.adds_performed == 0
    assert trace.cell_activations == oh_ow * 12 * 4
    assert trace.post_ops.total_values == 0


def test_trace_padding_free_post_ops():
    spec = DeconvLayerSpec(2, 2, 3, 2, 2, 4, 2)
    k = Kernel4(np.ones((2, 2, 3, 4), dtype=np.int64))
    plan = build_plan(k, DesignKind.PADDING_FREE, spec)
    trace = trace_of_schedule(schedule_padding_free(spec), plan)
    assert trace.cycle_count == 4
    assert trace.input_bits_driven == 4 * 3
    assert trace.output_values_read == 4 * 16  # kh*kw*M wide readout
    assert trace.post_ops.overlap_add_values == 4 * 4 * 4
    assert trace.post_ops.crop_values == (4 * 4 - 4 * 4) * 4  # full == output here


def test_trace_red_zero_skipping_sparsity():
    spec = DeconvLayerSpec(4, 4, 2, 4, 4, 3, 2, 1, 1, 1, 1)
    k = Kernel4(np.ones((4, 4, 2, 3), dtype=np.int64))
    plan = build_plan(k, DesignKind.RED, spec)
    sched = schedule_zero_skipping(spec)
    trace = trace_of_schedule(sched, plan)
    kk = 16
    assert trace.vmm_activations <= kk * trace.cycle_count
    zero_assignments = int((~sched.live).sum())
    assert trace.vmm_activations + zero_assignments == len(sched.cycle)
    assert trace.vmm_activations < kk * trace.cycle_count  # edges skip zeros here
    per = trace.vmm_activations_per_crossbar
    assert per.sum() == trace.vmm_activations and len(per) == kk


def test_trace_interior_only_layer_saturates():
    # top/left-cropped toy layer still has right/bottom borders; build a
    # stride-1 full-crop layer where no zeros exist at all
    spec = DeconvLayerSpec(4, 4, 2, 2, 2, 2, 1, 1, 1, 1, 1)
    k = Kernel4(np.ones((2, 2, 2, 2), dtype=np.int64))
    trace = trace_of_schedule(schedule_zero_skipping(spec), build_plan(k, DesignKind.RED, spec))
    assert trace.vmm_activations == 4 * trace.cycle_count  # kh*kw per cycle


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def test_dump_first_cycle_lines():
    lines = list(dump_schedule_lines(schedule_zero_skipping(TOY)))
    body = [l for l in lines if not l.startswith("#")]
    cycle0 = [l for l in body if l.startswith("0,")]
    assigns = [l for l in cycle0 if l.split(",")[2] in ("pixel", "zero")]
    assert len(assigns) == 9
    pixels = defaultdict(int)
    for line in assigns:
        _, xb, kind, a, b = line.split(",")
        assert kind == "pixel"
        pixels[(a, b)] += 1
    assert sorted(pixels.values()) == [1, 2, 2, 4]


def test_dump_zero_padding_line_counts():
    spec = DeconvLayerSpec(2, 2, 1, 2, 2, 1, 2)
    lines = [l for l in dump_schedule_lines(schedule_zero_padding(spec)) if not l.startswith("#")]
    oh_ow = 16
    assert len(lines) == 2 * oh_ow  # one assignment + one group line per cycle
    assert lines[0] == "0,0,window,0,0"
    assert lines[1] == "0,0,0,0,0"  # group 0 at pixel (0,0), member crossbar 0


def test_dump_deterministic():
    a = "\n".join(dump_schedule_lines(schedule_zero_skipping(TOY, folded=True)))
    b = "\n".join(dump_schedule_lines(schedule_zero_skipping(TOY, folded=True)))
    assert a == b


# ---------------------------------------------------------------------------
# master equivalence property
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    spec=layer_specs(),
    design=st.sampled_from(list(DesignKind)),
    seed=st.integers(0, 2**31),
)
def test_execute_equivalence_property(spec, design, seed):
    rng = np.random.default_rng(seed)
    t = Tensor3(rng.integers(-8, 9, (spec.input_h, spec.input_w, spec.channels)))
    k = Kernel4(rng.integers(-8, 9, (spec.kh, spec.kw, spec.channels, spec.filters)))
    plan = build_plan(k, design, spec)
    sched = build_schedule(spec, design)
    validate_schedule(sched)
    got = execute(plan, sched, t)
    assert np.array_equal(got.data, deconv_oracle_zero_padding(t, k, spec).data)
    assert np.array_equal(got.data, deconv_oracle_padding_free(t, k, spec).data)


@settings(max_examples=100, deadline=None)
@given(spec=layer_specs(max_channels=1),
       design=st.sampled_from([DesignKind.RED, DesignKind.RED_FOLDED]))
def test_live_assignments_match_redundancy_property(spec, design):
    # zero skipping drives exactly the kernel slots that the zero-padding
    # route would feed an original pixel
    sched = build_schedule(spec, design)
    live = int(sched.live.sum())
    slots = spec.output_h * spec.output_w * spec.kh * spec.kw
    assert live == round((1 - zero_redundancy_ratio(spec)) * slots)
