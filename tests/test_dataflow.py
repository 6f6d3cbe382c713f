import dataclasses
import itertools
import re
import tracemalloc
from collections import defaultdict, deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from red_sim import dataflow
from red_sim.dataflow import (
    CycleSchedule,
    ExecutionTrace,
    PostOpCounts,
    _index_dtype,
    build_schedule,
    dump_schedule_lines,
    dump_schedule_text,
    execute,
    lower,
    partition_modes,
    schedule_parts,
    trace_of_program,
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
    """Valid layers over the whole crop space: strides up to 7, kernels up
    to 3s + 1, so that a computation mode holds up to four taps per axis,
    and inputs up to 12."""
    s = draw(st.integers(1, 7))
    kh, kw = draw(st.integers(1, 3 * s + 1)), draw(st.integers(1, 3 * s + 1))
    crops = [draw(st.integers(0, k - 1)) for k in (kh, kh, kw, kw)]
    c, m = draw(st.integers(1, max_channels)), draw(st.integers(1, max_channels))
    ih, iw = draw(st.integers(1, 12)), draw(st.integers(1, 12))
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
    assert build_schedule(GAN1, DesignKind.ZERO_PADDING).cycle_count == 256
    assert build_schedule(GAN1, DesignKind.PADDING_FREE).cycle_count == 64
    assert build_schedule(GAN1, DesignKind.RED).cycle_count == 64


def test_cycle_counts_fcn_deconv2():
    assert build_schedule(FCN2, DesignKind.ZERO_PADDING).cycle_count == 322624
    assert build_schedule(FCN2, DesignKind.PADDING_FREE).cycle_count == 4900
    assert build_schedule(FCN2, DesignKind.RED).cycle_count == 5041
    assert build_schedule(FCN2, DesignKind.RED_FOLDED).cycle_count == 10082


def test_cycle_counts_1x1():
    spec = DeconvLayerSpec(1, 1, 2, 1, 1, 3, 1)
    assert build_schedule(spec, DesignKind.ZERO_PADDING).cycle_count == 1
    assert build_schedule(spec, DesignKind.PADDING_FREE).cycle_count == 1
    assert build_schedule(spec, DesignKind.RED).cycle_count == 1


def test_red_cycles_partial_tiles():
    # output 7x7 at stride 2 needs ceil(7/2)^2 = 16 tiles
    assert build_schedule(TOY, DesignKind.RED).cycle_count == 16


# ---------------------------------------------------------------------------
# the published first-cycle sharing pattern
# ---------------------------------------------------------------------------


def test_zero_skipping_first_cycle_pattern():
    sched = build_schedule(TOY, DesignKind.RED)
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


def schedule_groups(sched):
    """Per drive of a proved schedule, its accumulation group, output pixel
    divmod(group, output_w), read off where the drive sits: on zero_padding
    its cycle; on zero skipping its cycle's s x s tile plus its sub's
    offset in the tile, sub (i, j) serving the output pixels y = pad_top -
    i, x = pad_left - j (mod s).  Padding-free overlap-adds instead: it has
    no groups."""
    spec, s = sched.layer, sched.layer.stride
    if sched.design is DesignKind.ZERO_PADDING:
        return sched.cycle.astype(np.int64)
    i, j = np.divmod(sched.block.astype(np.int64), spec.kw)
    tile = sched.cycle.astype(np.int64) >> (sched.design is DesignKind.RED_FOLDED)
    ty, tx = np.divmod(tile, -(-spec.output_w // s))
    return (s * ty + (spec.pad_top - i) % s) * spec.output_w + s * tx + (spec.pad_left - j) % s


def zero_skipping_rows(spec, folded):
    """Per output pixel, by definition, its zero-skipping drives keyed by
    (original sub, cycle): output (y, x) takes kernel position (i, j) when
    y + i = pad_top and x + j = pad_left (mod s), fed input pixel
    ((y + i - pad_top) / s, (x + j - pad_left) / s), live when that lies on
    the input, in its tile's cycle."""
    s, kw = spec.stride, spec.kw
    n_tx = -(-spec.output_w // s)
    rows = []
    for y, x, i, j in itertools.product(range(spec.output_h), range(spec.output_w),
                                        range(spec.kh), range(kw)):
        if (y + i - spec.pad_top) % s or (x + j - spec.pad_left) % s:
            continue
        a, b = (y + i - spec.pad_top) // s, (x + j - spec.pad_left) // s
        live = 0 <= a < spec.input_h and 0 <= b < spec.input_w
        n = i * kw + j
        cycle, crossbar = (y // s) * n_tx + x // s, n
        if folded:
            cycle, crossbar = 2 * cycle + n % 2, n // 2
        rows.append(((n, cycle), (cycle, crossbar, live, a, b, y * spec.output_w + x)))
    return rows


@settings(max_examples=100, deadline=None)
@given(spec=layer_specs(max_channels=1),
       design=st.sampled_from([DesignKind.RED, DesignKind.RED_FOLDED]))
@example(spec=TOY, design=DesignKind.RED_FOLDED)
def test_zero_skipping_rows_by_definition(spec, design):
    # the built schedule holds exactly the drives of the definition, in
    # strictly increasing (block, cycle) order, block n being sub n; the
    # group its place names is the definition's output pixel
    sched = build_schedule(spec, design)
    want = sorted(zero_skipping_rows(spec, design is DesignKind.RED_FOLDED))
    keys = [key for key, _ in want]
    assert all(p < q for p, q in zip(keys, keys[1:]))
    assert sched.block.tolist() == [n for n, _ in keys]
    columns = (sched.cycle, sched.crossbar, sched.live, sched.src_a, sched.src_b,
               schedule_groups(sched))
    assert list(zip(*(col.tolist() for col in columns))) == [row for _, row in want]


# ---------------------------------------------------------------------------
# schedule checks: `lower` is the one check of a schedule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", list(DesignKind))
def test_schedules_validate(design):
    for spec in (TOY, GAN1, DeconvLayerSpec(1, 1, 1, 1, 1, 1, 1)):
        lower(build_schedule(spec, design))


ASSIGNMENT_COLUMNS = ("cycle", "crossbar", "src_a", "src_b")


def _reordered(sched, order):
    return dataclasses.replace(sched, **{k: getattr(sched, k)[order] for k in ASSIGNMENT_COLUMNS})


def _swap_first_two(sched):
    # weight block 0's first two cycles change places: no crossbar repeats
    # in a cycle, but the documented (block, cycle) order is broken
    order = np.arange(len(sched.cycle))
    order[:2] = [1, 0]
    return _reordered(sched, order)


def _out_of_order(sched):
    """Per drive, whether it does not follow the drive before it in
    strictly increasing (block, cycle) order."""
    block, cycle = sched.block, sched.cycle
    later = (block[1:] > block[:-1]) | ((block[1:] == block[:-1]) & (cycle[1:] > cycle[:-1]))
    return np.concatenate([[False], ~later])


def _with_value(sched, column, index, value):
    coords = getattr(sched, column).copy()
    coords[index] = value
    return dataclasses.replace(sched, **{column: coords})


def _line(sched, k):
    """Assignment k as its `dump-schedule` line."""
    col = {c: int(getattr(sched, c)[k]) for c in ("cycle", "crossbar", "live", "src_a", "src_b")}
    kind = "window" if sched.design is DesignKind.ZERO_PADDING else "pixel"
    kind = kind if col["live"] else "zero"
    if sched.design is DesignKind.RED_FOLDED:
        kind += ("_lo", "_hi")[col["cycle"] % 2]
    return f"{col['cycle']},{col['crossbar']},{kind},{col['src_a']},{col['src_b']}"


def _refusal(bad, k, want):
    """The `lower` refusal of `bad`, a mutation of `want`: it names
    assignment k of `bad` by its dump line, and `want`'s in its place."""
    line, expected = _line(bad, k), _line(want, k)
    # both are lines of their schedules' dumps
    assert line in dump_schedule_lines(bad) and expected in dump_schedule_lines(want)
    return (rf"drive disagrees with the closed form: weight block {bad.block[k]} "
            rf"has drive {line}\b.*the closed form has drive {expected}\b")


def _pixels_one_column_right(_):
    # on a 3x2 input, src_b + 1 moves a first-column pixel onto its
    # neighbour and a second-column pixel onto the padded image's zero
    # border: both reads stay inside the image and would fail silently.
    # Every drive moves, so block 0's first, a zero drive, is named
    sched = build_schedule(DeconvLayerSpec(3, 2, 1, 3, 3, 1, 2), DesignKind.RED)
    return dataclasses.replace(sched, src_b=sched.src_b + 1)


def _folded_drive_into_zero_fill(sched):
    # TOY's 3x3 kernel folds into arrays 0..4, and array 4's high half is
    # zero fill: its even-cycle drive, moved to the next (odd) cycle,
    # would multiply the zero fill; re-sorted, it passes the order check
    index = np.flatnonzero(sched.live & (sched.crossbar == 4) & (sched.cycle % 2 == 0))[0]
    moved = _with_value(sched, "cycle", index, sched.cycle[index] + 1)
    return _reordered(moved, np.lexsort((moved.cycle, moved.block)))


def _corruption(design, corrupt, fault, message, drive):
    """A corruption of TOY's `design` schedule, named by its fault; the
    refusal `lower` gives it; and the drive it names: the first where
    `drive(bad)` holds."""
    return pytest.param(design, corrupt, message, drive,
                        id=f"{design.value}-{corrupt.__name__}-{fault}")


@pytest.mark.parametrize("design,corrupt,message,drive", [
    _corruption(DesignKind.RED, lambda s: dataclasses.replace(s, cycle=s.cycle - 1),
                "index out of range", "drive outside the schedule's 16 cycles",
                lambda b: b.cycle < 0),
    # the last tile's drives fall after the shortened schedule
    _corruption(DesignKind.RED, lambda s: dataclasses.replace(s, cycle_count=s.cycle_count - 1),
                "index out of range", "drive outside the schedule's 15 cycles",
                lambda b: b.cycle >= 15),
    _corruption(DesignKind.RED, lambda s: dataclasses.replace(s, crossbar=s.crossbar - 1),
                "index out of range", r"weight block the plan does not have \(9\)",
                lambda b: b.crossbar < 0),
    _corruption(DesignKind.RED,
                lambda s: dataclasses.replace(s, crossbar=np.zeros_like(s.crossbar)),
                "strictly increasing", "out of weight-block order", _out_of_order),
    _corruption(DesignKind.RED_FOLDED, _swap_first_two, "strictly increasing",
                "out of weight-block order", _out_of_order),
    _corruption(DesignKind.RED, _pixels_one_column_right, "pixel source outside the input",
                "drive disagrees with the closed form", lambda b: b.block == 0),
    # a window origin off the output grid is a zero drive
    _corruption(DesignKind.ZERO_PADDING, lambda s: _with_value(s, "src_a", -1, TOY.output_h),
                "window origin outside the output grid", "zero drive on the zero_padding design",
                lambda b: b.src_a >= TOY.output_h),
    # TOY's 3x3 kernel gives red 9 arrays, 0..8; shifted up, each reads its
    # neighbour's weights and crossbar 9 has none
    _corruption(DesignKind.RED, lambda s: dataclasses.replace(s, crossbar=s.crossbar + 1),
                "9 arrays", r"weight block the plan does not have \(9\)",
                lambda b: b.crossbar >= 9),
    # only zero skipping has drives to skip: a window or pixel moved off its
    # grid is a zero drive, and a dropped product
    _corruption(DesignKind.ZERO_PADDING, lambda s: _with_value(s, "src_b", 0, -1),
                "zero drive on the zero_padding design", "zero drive on the zero_padding design",
                lambda b: ~b.live),
    _corruption(DesignKind.PADDING_FREE, lambda s: _with_value(s, "src_b", 0, -1),
                "zero drive on the padding_free design", "zero drive on the padding_free design",
                lambda b: ~b.live),
    # the zero-fill half of folded array 4 is weight block 9, which no sub fills
    _corruption(DesignKind.RED_FOLDED, _folded_drive_into_zero_fill, "zero-fill half",
                r"weight block the plan does not have \(9\)", lambda b: b.block >= 9),
])
def test_validate_schedule_rejects(design, corrupt, message, drive):
    # `lower` refuses each with a ValueError naming the drive at fault by
    # its dump line
    sched = build_schedule(TOY, design)
    lower(sched)
    bad = corrupt(sched)
    message = rf"{message}.*\bdrive {_line(bad, np.flatnonzero(drive(bad))[0])}\b"
    with pytest.raises(ValueError, match=message):
        lower(bad)


def _aliased(sched, k):
    # the source (a, b) moved to (a - 1, b + ceil(ow/s)) keeps a zero
    # skipping drive's cycle a*ceil(ow/s) + b, one tile row up and a tile
    # row's width right, past the sub's last tile column
    dt = -(-sched.layer.output_w // sched.layer.stride)
    moved = _with_value(sched, "src_a", k, sched.src_a[k] - 1)
    return _with_value(moved, "src_b", k, sched.src_b[k] + dt)


@settings(max_examples=200, deadline=None)
@given(spec=layer_specs(max_channels=1), design=st.sampled_from(list(DesignKind)),
       move=st.sampled_from([(column, step) for column in ASSIGNMENT_COLUMNS
                             for step in (-1, 1)] + ["alias"]),
       data=st.data())
def test_lower_refuses_every_one_drive_mutation_property(spec, design, move, data):
    # one drive's stored coordinate, live or zero, moved by one, or its
    # source moved to a place that aliases its cycle (a zero drive's where
    # the schedule has one): `lower` names a drive at fault
    sched = build_schedule(spec, design)
    drives = np.arange(sched.assignment_count)
    if move == "alias" and not sched.live.all():
        drives = drives[~sched.live]
    k = data.draw(st.sampled_from(drives.tolist()))
    if move == "alias":
        bad = _aliased(sched, k)
    else:
        column, step = move
        bad = _with_value(sched, column, k, getattr(sched, column)[k] + step)
    with pytest.raises(ValueError, match=r"\bdrive -?\d+,-?\d+,(window|pixel|zero)(_lo|_hi)?,"
                                         r"-?\d+,-?\d+\b"):
        lower(bad)


@pytest.mark.parametrize("spec,dtype,value", [
    # dt = ceil(ow/s) = 4: (2^31 - 1) * 4 and (2^63 - 1) * 4 wrap to -4,
    # which is -1 * 4, in their dtypes
    (DeconvLayerSpec(4, 4, 1, 4, 4, 1, 2, 1, 1, 1, 1), np.int32, 2**31 - 1),
    (DeconvLayerSpec(4, 4, 1, 4, 4, 1, 2, 1, 1, 1, 1), np.int64, 2**63 - 1),
    # dt = 2: (2^15 - 1) * 2 wraps to -2 in int16
    (DeconvLayerSpec(2, 2, 1, 4, 4, 1, 2, 1, 1, 1, 1), np.int16, 2**15 - 1),
])
def test_lower_refuses_a_source_that_wraps_onto_its_cycle(spec, dtype, value):
    # the first zero drive reads input pixel (-1, -1) in cycle 0; a source
    # row that the cycle relation a*dt + b would wrap onto -1 is refused
    # before the relation is computed, in any column dtype
    sched = build_schedule(spec, DesignKind.RED)
    sched = dataclasses.replace(sched, **{k: getattr(sched, k).astype(dtype)
                                          for k in ASSIGNMENT_COLUMNS})
    k = int(np.flatnonzero(~sched.live)[0])
    assert _line(sched, k) == "0,0,zero,-1,-1"
    bad = _with_value(sched, "src_a", k, value)
    with pytest.raises(ValueError, match=rf"drive source more than a kernel off its grid: "
                                         rf"drive 0,0,zero,{value},-1$"):
        lower(bad)


def _joined(parts):
    """The parts of a schedule as one schedule."""
    return dataclasses.replace(parts[0], **{c: np.concatenate([getattr(p, c) for p in parts])
                                            for c in ASSIGNMENT_COLUMNS})


@settings(max_examples=200, deadline=None)
@given(spec=layer_specs(max_channels=1), design=st.sampled_from(list(DesignKind)),
       budget=st.integers(1, 40))
def test_schedule_parts_property(spec, design, budget):
    # with a budget small enough to split these layers: the parts are the
    # built schedule, each is whole rows of at most `budget` drives unless
    # one row alone has more, a row being a kernel row, or a tile row of a
    # kernel row one block wide (every row of zero_padding's and
    # padding_free's one block), and lowering them, a chunk of `budget`
    # drives at a time, gives the whole schedule's program
    whole = build_schedule(spec, design)
    with mock.patch.object(dataflow, "_CACHE_BUDGET", budget):
        parts = list(schedule_parts(spec, design))
        program = lower(iter(parts))
        # built from these parts, copied one at a time
        built = build_schedule(spec, design)
    for joined in (_joined(parts), built):
        for column in ASSIGNMENT_COLUMNS:
            have, want = getattr(joined, column), getattr(whole, column)
            assert have.dtype == want.dtype and np.array_equal(have, want)
    pixelwise = design in (DesignKind.RED, DesignKind.RED_FOLDED)
    kw = spec.kw if pixelwise else 1  # blocks a kernel row
    n_tx = -(-spec.output_w // spec.stride) if pixelwise else dataflow._grid(spec, design)[1]
    tile_row = (whole.cycle.astype(np.int64) >> (design is DesignKind.RED_FOLDED)) // n_tx
    block = whole.block.astype(np.int64)
    row = block * whole.cycle_count + tile_row if kw == 1 else block // kw
    stops = np.cumsum([p.assignment_count for p in parts])
    for part, stop in zip(parts, stops):
        assert (part.design, part.layer, part.cycle_count) == \
            (whole.design, whole.layer, whole.cycle_count)
        rows = set(row[stop - part.assignment_count : stop].tolist())
        assert part.assignment_count <= budget or len(rows) == 1
        # no row runs on into the next part
        assert stop == len(row) or row[stop - 1] != row[stop]
    assert program == lower(whole)


def _boundary_faults(parts, p):
    """Faults exactly at the boundary after part p: the next part's first
    drive dropped, part p's last dropped, and the two swapped."""
    head, tail = parts[p], parts[p + 1]
    last, first = head.assignment_count - 1, 0
    swapped = [dataclasses.replace(part, **{
        c: np.concatenate([getattr(part, c)[:k], getattr(other, c)[j:j + 1],
                           getattr(part, c)[k + 1:]]) for c in ASSIGNMENT_COLUMNS})
               for part, k, other, j in ((head, last, tail, first), (tail, first, head, last))]
    return {
        "next-first-dropped": parts[:p + 1] + [tail.chunk(1, tail.assignment_count)] + parts[p + 2:],
        "last-dropped": parts[:p] + [head.chunk(0, last)] + parts[p + 1:],
        "swapped": parts[:p] + swapped + parts[p + 2:],
    }


@pytest.mark.parametrize("design", list(DesignKind))
def test_lower_names_a_fault_at_a_part_boundary_as_on_the_whole(design):
    # TOY in parts of at most 12 drives: a drive dropped on either side of
    # a boundary, or two swapped across it, is refused with the message
    # the same fault gets in the whole schedule, read as one chunk
    with mock.patch.object(dataflow, "_CACHE_BUDGET", 12):
        parts = list(schedule_parts(TOY, design))
    assert len(parts) > 1
    for p in range(len(parts) - 1):
        for fault, bad in _boundary_faults(parts, p).items():
            with pytest.raises(ValueError) as whole:
                lower(_joined(bad))
            assert re.search(r"\bdrive -?\d+,-?\d+,(window|pixel|zero)", str(whole.value))
            with mock.patch.object(dataflow, "_CACHE_BUDGET", 12):
                with pytest.raises(ValueError) as in_parts:
                    lower(iter(bad))
            assert str(in_parts.value) == str(whole.value), (p, fault)


def test_lower_refuses_parts_of_another_schedule():
    with mock.patch.object(dataflow, "_CACHE_BUDGET", 12):
        red, folded = (list(schedule_parts(TOY, d)) for d in (DesignKind.RED,
                                                              DesignKind.RED_FOLDED))
    with pytest.raises(ValueError, match="a part of another schedule"):
        lower(red[:1] + folded[1:])


def reference_row_major_parts(spec, design):
    """Row-major parts of whole grid rows, as many as the budget holds or
    one, with each cycle's source by divmod by the grid width: the
    reference the generator's copied tile rows must equal."""
    h, w = dataflow._grid(spec, design)
    index = _index_dtype(h * w)
    step = max(1, dataflow._CACHE_BUDGET // w)
    for y0 in range(0, h, step):
        t = np.arange(y0 * w, min(y0 + step, h) * w, dtype=index)
        yield CycleSchedule(design, spec, h * w, t, np.zeros_like(t), t // w, t % w)


def reference_zero_skipping_parts(spec, folded):
    """Zero-skipping parts with each column gathered from a broadcast view
    of the whole (i, j, t, u) grid through the mask of tiles inside the
    output, then folded with *, % and //: the reference the generator's
    copies of per-axis arrays must equal.  A kw = 1 kernel row over the
    budget is cut into whole tile rows, as many as the budget holds or
    one."""
    s = spec.stride
    oh, ow, _ = output_shape(spec)
    n_ty, n_tx = -(-oh // s), -(-ow // s)
    cycles = n_ty * n_tx * (2 if folded else 1)
    i = np.arange(spec.kh).reshape(-1, 1, 1, 1)
    j = np.arange(spec.kw).reshape(1, -1, 1, 1)
    t = np.arange(n_ty).reshape(1, 1, -1, 1)
    u = np.arange(n_tx).reshape(1, 1, 1, -1)
    y0, x0 = (spec.pad_top - i) % s, (spec.pad_left - j) % s
    a = t + (y0 + i - spec.pad_top) // s
    b = u + (x0 + j - spec.pad_left) // s
    rows, columns = y0 + s * t < oh, x0 + s * u < ow
    index = _index_dtype(cycles, spec.kh * spec.kw, a.min(), a.max(), b.min(), b.max())
    grid = (spec.kh, spec.kw, n_ty, n_tx)
    per_row = np.count_nonzero(rows, axis=(1, 2, 3)) * np.count_nonzero(columns)
    step = max(1, dataflow._CACHE_BUDGET // np.count_nonzero(columns)) if spec.kw == 1 else n_ty
    for i0, i1 in dataflow._runs(per_row.tolist(), dataflow._CACHE_BUDGET):
        for t0 in range(0, n_ty, step):
            inside = rows[i0:i1] & columns & (t0 <= t) & (t < t0 + step)
            if t0 and not inside.any():
                continue  # past the run's last tile row
            cycle, crossbar, src_a, src_b = (
                np.broadcast_to(values.astype(index), grid)[i0:i1][inside]
                for values in (t * n_tx + u, i * spec.kw + j, a, b))
            if folded:
                cycle *= 2
                cycle += crossbar % 2
                crossbar //= 2
            yield CycleSchedule(DesignKind.RED_FOLDED if folded else DesignKind.RED, spec, cycles,
                                cycle, crossbar, src_a, src_b)


def reference_parts(spec, design):
    if design in (DesignKind.RED, DesignKind.RED_FOLDED):
        return reference_zero_skipping_parts(spec, folded=design is DesignKind.RED_FOLDED)
    return reference_row_major_parts(spec, design)


@settings(max_examples=300, deadline=None)
@given(spec=layer_specs(max_channels=1), design=st.sampled_from(list(DesignKind)),
       budget=st.just(dataflow._CACHE_BUDGET) | st.integers(1, 40))
# every sub has all its tiles inside: one mask-free part per kernel row
@example(spec=DeconvLayerSpec(6, 6, 1, 16, 16, 1, 8), design=DesignKind.RED_FOLDED, budget=40)
# crops make the tile rows ragged, then the tile columns, then both
@example(spec=DeconvLayerSpec(5, 6, 1, 5, 4, 1, 2, 1, 2, 0, 0), design=DesignKind.RED, budget=30)
@example(spec=DeconvLayerSpec(6, 5, 1, 4, 5, 1, 2, 0, 0, 1, 2), design=DesignKind.RED_FOLDED,
         budget=30)
@example(spec=DeconvLayerSpec(8, 8, 1, 5, 5, 1, 2, 1, 2, 1, 2), design=DesignKind.RED_FOLDED,
         budget=dataflow._CACHE_BUDGET)
# kh, kw < s with crops: some subs have no tile inside the output
@example(spec=DeconvLayerSpec(1, 1, 1, 3, 3, 1, 5, 2, 0, 2, 0), design=DesignKind.RED, budget=1)
# a grid row wider than the budget: one row a part
@example(spec=DeconvLayerSpec(3, 4, 1, 3, 3, 1, 2), design=DesignKind.ZERO_PADDING, budget=5)
# a k x 1 kernel whose kernel rows exceed the budget: two tile rows a part
@example(spec=DeconvLayerSpec(5, 5, 1, 3, 1, 1, 2), design=DesignKind.RED, budget=12)
# kernel rows 0 and 2 have no tile inside: `_runs` joins them onto row 1's
# run, one block wide and over the budget
@example(spec=DeconvLayerSpec(1, 3, 1, 3, 1, 1, 2, 1, 1), design=DesignKind.RED_FOLDED, budget=2)
def test_schedule_parts_match_the_reference_generators_property(spec, design, budget):
    # the parts, part by part: the same boundaries, dtypes and values
    with mock.patch.object(dataflow, "_CACHE_BUDGET", budget):
        got, want = list(schedule_parts(spec, design)), list(reference_parts(spec, design))
    assert len(got) == len(want)
    for have, ref in zip(got, want):
        assert (have.design, have.layer, have.cycle_count) == \
            (ref.design, ref.layer, ref.cycle_count)
        for column in ASSIGNMENT_COLUMNS:
            a, b = getattr(have, column), getattr(ref, column)
            assert a.dtype == b.dtype and np.array_equal(a, b), column


def test_schedule_parts_hold_one_part_at_a_time():
    # FCN_Deconv2's red_folded schedule comes in 16 parts of one kernel row,
    # 16 subs x 71 x 71 tiles of four int16 columns, 645,248 bytes each, and
    # its zero_padding one in parts of 115 output rows, 65,320 drives of
    # four int32 columns; drained part by part, its generator holds one part
    # and its small per-axis arrays, not the part it last yielded while it
    # builds the next, so no dense buffer grows past a part
    for design, parts in ((DesignKind.RED_FOLDED, 2), (DesignKind.ZERO_PADDING, 1.2)):
        part = next(schedule_parts(FCN2, design))
        size = sum(getattr(part, c).nbytes for c in ASSIGNMENT_COLUMNS)
        del part
        peak, _ = _scratch(lambda: deque(schedule_parts(FCN2, design), maxlen=0))
        assert peak < parts * size, design


@pytest.mark.parametrize("design,parts", [(DesignKind.RED_FOLDED, 3),
                                          (DesignKind.ZERO_PADDING, 2)])
def test_lower_holds_one_schedule_part_at_a_time(design, parts):
    # FCN_Deconv2's parts hold 630 KiB of columns on red_folded and 1 MiB on
    # zero_padding; lowered as they are built, neither the first part nor
    # any part before the one proved stays alive while the next is built
    part = next(schedule_parts(FCN2, design))
    size = sum(getattr(part, c).nbytes for c in ASSIGNMENT_COLUMNS)
    del part
    peak, _ = _scratch(lambda: lower(schedule_parts(FCN2, design)))
    assert peak < parts * size


def test_lower_reads_past_a_part_with_no_drives():
    # an empty part adds nothing; a schedule of none lacks every drive
    sched = build_schedule(TOY, DesignKind.RED_FOLDED)
    empty = sched.chunk(0, 0)
    assert lower([empty, sched.chunk(0, 5), empty, sched.chunk(5, None), empty]) == lower(sched)
    with pytest.raises(ValueError, match=r"weight block 0 has no drive; the closed form has "
                                         r"drive 0,0,pixel_lo,0,0$"):
        lower([empty])


def test_program_table_is_built_once_per_layer_and_read_only():
    # the four designs of a layer share one table, built once, which no
    # program can write: tuples of integers and slices, in a frozen program
    dataflow._rectangles.cache_clear()
    programs = [lower(schedule_parts(TOY, design)) for design in DesignKind]
    assert dataflow._rectangles.cache_info().misses == 1
    assert all(p.modes is programs[0].modes for p in programs)
    assert all(type(group) is tuple for mode in programs[0].modes for group in mode)
    taps = [tap for _, rows, cols in programs[0].modes for tap in rows + cols]
    assert taps and all(type(tap) is tuple and {type(v) for v in tap} == {int, slice}
                        for tap in taps)
    with pytest.raises(dataclasses.FrozenInstanceError):
        programs[0].modes = ()


def test_zero_padding_schedule_structure():
    sched = build_schedule(TOY, DesignKind.ZERO_PADDING)
    oh, ow, _ = output_shape(TOY)
    assert sched.cycle_count == oh * ow
    assert sched.live.all()
    assert (sched.crossbar == 0).all()
    assert len(sched.cycle) == oh * ow  # one assignment per cycle


def test_padding_free_schedule_structure():
    sched = build_schedule(TOY, DesignKind.PADDING_FREE)
    assert sched.cycle_count == 16
    assert sched.has_post_ops and sched.group_count == 0


def test_folded_phases():
    # even cycles drive the low halves and odd cycles the high halves; the
    # dump names each assignment's half from its cycle
    sched = build_schedule(TOY, DesignKind.RED_FOLDED)
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
    program = lower(sched)
    got = execute(plan, program, t)
    assert np.array_equal(got.data, want.data)
    assert trace_of_program(program, plan).cycle_count == sched.cycle_count


# the edges of the computation modes: kh, kw < s leaves modes with no
# kernel position, whose pixels stay zero; kh = kw = s gives every mode
# exactly one block, written straight into its output sub-lattice; crops
# can leave a block no entry (P*Q = 0), here kernel rows 1 to 3 of 4
MODE_EDGES = {
    "empty modes": DeconvLayerSpec(3, 4, 2, 2, 3, 3, 4),
    "one block a mode": DeconvLayerSpec(4, 3, 2, 3, 3, 2, 3, 1, 0, 0, 2),
    "empty blocks": DeconvLayerSpec(1, 2, 2, 4, 3, 2, 2, 3, 0, 2, 1),
}


@pytest.mark.parametrize("design", list(DesignKind))
@pytest.mark.parametrize("case", list(MODE_EDGES))
def test_execute_mode_edges(design, case):
    spec = MODE_EDGES[case]
    program = lower(build_schedule(spec, design))
    taps = [len(rows) * len(cols) for _, rows, cols in program.modes]
    live = len({n for n, _, _ in _closed_form_entries(spec)})  # kernel positions with entries
    assert sum(taps) == live
    if case == "empty modes":
        assert len(taps) < spec.stride**2
    elif case == "one block a mode":
        assert taps == [1] * spec.stride**2 == [1] * live
    else:
        assert live < spec.kh * spec.kw
    for seed in range(3):
        t, k = rand_pair(spec, seed=seed)
        want = deconv_oracle_padding_free(t, k, spec).data
        assert np.array_equal(deconv_oracle_zero_padding(t, k, spec).data, want)
        assert np.array_equal(execute(build_plan(k, design, spec), program, t).data, want)


@settings(max_examples=100, deadline=None)
@given(spec=layer_specs(max_channels=1))
def test_program_modes_hold_every_live_block_once_property(spec):
    # grouped by output residue, each kernel position with entries appears
    # once, in the mode its outputs lie in, its slices P and Q long, and
    # its rectangle exactly the closed form's entries of it
    program = lower(build_schedule(spec, DesignKind.RED))
    want, got, seen = defaultdict(set), defaultdict(set), []
    for entries, table in ((_closed_form_entries(spec), want), (_mode_entries(program), got)):
        for n, source, pixel in entries:
            table[n].add((source, pixel))
    for (ry, rx), rows, cols in program.modes:
        for (i, p, a, t), (j, q, b, u) in itertools.product(rows, cols):
            seen.append(i * spec.kw + j)
            assert ((spec.pad_top - i) % spec.stride, (spec.pad_left - j) % spec.stride) == (ry, rx)
            assert (a.stop - a.start, b.stop - b.start, t.stop - t.start, u.stop - u.start) == (
                p, q, p, q)
    assert sorted(seen) == sorted(want) and got == want


def test_impulse_through_red_schedule():
    spec = DeconvLayerSpec(3, 3, 2, 3, 3, 2, 2)
    data = np.zeros((3, 3, 2), dtype=np.int64)
    data[1, 1, 0] = 1
    t = Tensor3(data)
    _, k = rand_pair(spec, seed=5)
    plan = build_plan(k, DesignKind.RED, spec)
    got = execute(plan, lower(build_schedule(spec, DesignKind.RED)), t)
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
    plain = lower(build_schedule(spec, DesignKind.RED))
    fold = lower(build_schedule(spec, DesignKind.RED_FOLDED))
    a = execute(plain_plan, plain, t)
    b = execute(fold_plan, fold, t)
    tr_a = trace_of_program(plain, plain_plan)
    tr_b = trace_of_program(fold, fold_plan)
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
    got = execute(plan, lower(build_schedule(spec, DesignKind.RED_FOLDED)), t)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("spec", [TOY, DeconvLayerSpec(2, 3, 2, 1, 1, 3, 1)])
def test_folded_idle_half_is_not_multiplied(spec):
    # an odd kh*kw leaves the last folded array's high half as zero fill
    # that no phase drives; poisoned with NaN, it must not reach the output
    t = Tensor3(RNG.normal(size=(spec.input_h, spec.input_w, spec.channels)))
    k = Kernel4(RNG.normal(size=spec.kernel_shape))
    plan = build_plan(k, DesignKind.RED_FOLDED, spec)
    # a plan's arrays are read-only; the folded pair is the plan's own copy
    plan.crossbars[-1].flags.writeable = True
    plan.crossbars[-1][spec.channels:] = np.nan
    got = execute(plan, lower(build_schedule(spec, DesignKind.RED_FOLDED)), t).data
    want = deconv_oracle_zero_padding(t, k, spec).data
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


@pytest.mark.parametrize("design", list(DesignKind))
def test_execution_follows_its_schedule(design):
    spec = DeconvLayerSpec(3, 2, 2, 3, 3, 2, 2)  # non-square input
    t, k = rand_pair(spec, seed=41)
    plan = build_plan(k, design, spec)
    sched = build_schedule(spec, design)
    want = deconv_oracle_zero_padding(t, k, spec).data
    assert np.array_equal(execute(plan, lower(sched), t).data, want)
    # `lower` reads drives in strictly increasing (block, cycle) order, and
    # refuses any other, naming the first drive out of it
    shuffled = _reordered(sched, np.random.default_rng(0).permutation(len(sched.cycle)))
    first = np.flatnonzero(_out_of_order(shuffled))[0]
    with pytest.raises(ValueError, match=rf"block order.*: drive {_line(shuffled, first)}\b"):
        execute(plan, lower(shuffled), t)
    # the last live drive relabelled onto a crossbar past the array count
    # stays in block order but names weights the plan does not have
    last = np.flatnonzero(sched.live)[-1]
    beyond = _with_value(sched, "crossbar", last, plan.count)
    with pytest.raises(ValueError, match=rf"weight block the plan does not have .*"
                                         rf"drive {_line(beyond, last)}\b"):
        execute(plan, lower(beyond), t)
    # swapped coordinates on a non-square input drive other pixels: on zero
    # skipping the first drive off the diagonal disagrees with the closed
    # form of its cycle; elsewhere some move off the grid, zero drives
    swapped = dataclasses.replace(sched, src_a=sched.src_b, src_b=sched.src_a)
    if design in (DesignKind.RED, DesignKind.RED_FOLDED):
        match = _refusal(swapped, np.flatnonzero(sched.src_a != sched.src_b)[0], sched)
    else:
        k = np.flatnonzero(~swapped.live)[0]
        match = rf"zero drive on the {design} design: drive {_line(swapped, k)}$"
    with pytest.raises(ValueError, match=match):
        lower(swapped)


@pytest.mark.parametrize("design", [DesignKind.ZERO_PADDING, DesignKind.RED, DesignKind.RED_FOLDED])
def test_lower_refuses_a_destination_twice_in_one_block(design):
    # a block's second drive re-reads its first drive's pixel into the same
    # output pixel: a runner that adds each block's products would count
    # that product twice; the second drive disagrees with the closed form
    # of its cycle
    sched = build_schedule(TOY, design)
    block = sched.block
    k = np.flatnonzero(sched.live[:-1] & sched.live[1:] & (block[:-1] == block[1:]))[0]
    bad = sched
    for column in ("src_a", "src_b"):
        bad = _with_value(bad, column, k + 1, getattr(sched, column)[k])
    with pytest.raises(ValueError, match=_refusal(bad, k + 1, sched)):
        lower(bad)


@pytest.mark.parametrize("design", [DesignKind.RED, DesignKind.RED_FOLDED])
def test_lower_refuses_two_drives_swapped_within_a_cycle(design):
    # two subs of one cycle receive each other's pixels: the earlier drive
    # in block order is named
    sched = build_schedule(TOY, design)
    live = np.flatnonzero(sched.live & (sched.cycle == sched.cycle[0]))
    k = live[0]
    pixel = sched.src_a * 1000 + sched.src_b
    j = next(j for j in live[1:] if pixel[j] != pixel[k])
    bad = sched
    for column in ("src_a", "src_b"):
        values = getattr(sched, column)
        bad = _with_value(_with_value(bad, column, k, values[j]), column, j, values[k])
    with pytest.raises(ValueError, match=_refusal(bad, k, sched)):
        lower(bad)


@pytest.mark.parametrize("design", [DesignKind.RED, DesignKind.RED_FOLDED])
def test_lower_refuses_a_moved_or_dropped_zero_drive(design):
    # a zero drive reads nothing, but the dump shows it: moved, it is no
    # longer where its block's affine map puts it in its cycle; dropped,
    # its block has a slot of its tiles without a drive
    sched = build_schedule(TOY, design)
    k = np.flatnonzero(~sched.live)[0]
    bad = _with_value(sched, "src_a", k, sched.src_a[k] + 5)
    assert not bad.live[k] and ",zero" in _line(bad, k)
    with pytest.raises(ValueError, match=_refusal(bad, k, sched)):
        lower(bad)
    dropped = _reordered(sched, np.delete(np.arange(sched.assignment_count), k))
    with pytest.raises(ValueError, match=rf"weight block {sched.block[k]} has .*"
                                         rf"the closed form has drive {_line(sched, k)}$"):
        lower(dropped)


@pytest.mark.parametrize("design", list(DesignKind))
def test_lower_refuses_a_repeated_drive_as_out_of_order(design):
    # a drive twice in a row: the same block and cycle, which strictly
    # increasing (block, cycle) order refuses before any tile check
    sched = build_schedule(TOY, design)
    k = sched.assignment_count // 2
    bad = _reordered(sched, np.insert(np.arange(sched.assignment_count), k, k))
    with pytest.raises(ValueError, match=rf"drive out of weight-block order, \(block, cycle\) "
                                         rf"strictly increasing: drive {_line(sched, k)}$"):
        lower(bad)


def test_lower_refuses_a_drive_past_its_blocks_last_tile_row():
    # TOY's kernel row 1 serves output rows 1, 3 and 5 of 7, three tile
    # rows of four; a drive of block 3 = (1, 0) in tile (3, 0), cycle 12,
    # still names its cycle, but lies past the output, where the block has
    # no tile: refused at that drive, not when the counts are compared
    sched = build_schedule(TOY, DesignKind.RED)
    k = int(np.flatnonzero(sched.block == 3)[-1]) + 1
    extra = {"cycle": 12, "crossbar": 3, "src_a": 4, "src_b": 0}
    bad = dataclasses.replace(sched, **{c: np.insert(getattr(sched, c), k, extra[c])
                                        for c in ASSIGNMENT_COLUMNS})
    with pytest.raises(ValueError, match=r"weight block 3 has drive 12,3,zero,4,0; "
                                         r"the closed form has no drive$"):
        lower(bad)


@pytest.mark.parametrize("design", list(DesignKind))
def test_lower_names_a_dropped_drive(design):
    # one live drive left out: every other drive agrees with the closed
    # form, so the count names its block and the missing drive
    sched = build_schedule(TOY, design)
    live = np.flatnonzero(sched.live)
    k = live[len(live) // 3]
    keep = np.delete(np.arange(len(sched.cycle)), k)
    bad = _reordered(sched, keep)
    with pytest.raises(ValueError, match=rf"weight block {sched.block[k]} has .*"
                                         rf"the closed form has drive {_line(sched, k)}\b"):
        lower(bad)


@pytest.mark.parametrize("column,value", [("src_a", -1), ("src_b", TOY.input_w)])
def test_lower_refuses_a_padding_free_pixel_off_the_input(column, value):
    # the first pixel moved one step off TOY's input: above it, the top
    # crop would trim all its products; to its right, it would read the
    # zero border into the last output column.  Off the input it is a
    # zero drive, which padding_free does not have
    sched = build_schedule(TOY, DesignKind.PADDING_FREE)
    bad = _with_value(sched, column, 0, value)
    with pytest.raises(ValueError, match=rf"zero drive on the padding_free design: "
                                         rf"drive {_line(bad, 0)}$"):
        lower(bad)


def test_zero_padding_origin_moved_a_row_down_disagrees():
    # output pixel (0, 0), its window moved one row down, would get the
    # window at (1, 0) in full; the closed form of cycle 0 is window (0, 0)
    sched = build_schedule(TOY, DesignKind.ZERO_PADDING)
    bad = _with_value(sched, "src_a", 0, sched.src_a[0] + 1)
    with pytest.raises(ValueError, match=_refusal(bad, 0, sched)):
        lower(bad)


@settings(max_examples=100, deadline=None)
@given(spec=layer_specs(max_channels=1))
def test_zero_padding_program_size_matches_redundancy_property(spec):
    # a window keeps one product per kernel position that reads an input
    # pixel of the padded image, as red drives: the analyzer's live count
    program = lower(build_schedule(spec, DesignKind.ZERO_PADDING))
    slots = spec.output_h * spec.output_w * spec.kh * spec.kw
    assert _entries(program) == round((1 - zero_redundancy_ratio(spec)) * slots)


def test_trace_checks_design_and_kernel_extent_only():
    # the trace takes C and M from the plan, so a program of any channel
    # count traces a plan of the same design and kernel extent
    sched = build_schedule(TOY, DesignKind.RED)
    program = lower(sched)
    trace = trace_of_program(program, MappingPlan(DesignKind.RED, (3, 3, 5, 7)))
    assert trace.cell_activations == int(sched.live.sum()) * 5 * 7
    with pytest.raises(ValueError, match="design"):
        trace_of_program(program, MappingPlan(DesignKind.RED_FOLDED, (3, 3, 2, 2)))
    with pytest.raises(ValueError, match="kernel dims"):
        trace_of_program(program, MappingPlan(DesignKind.RED, (3, 2, 2, 2)))
    # execution still needs the layer's exact kernel and real weights
    t, _ = rand_pair(TOY, seed=3)
    wide = build_plan(Kernel4(np.zeros((3, 3, 5, 7), dtype=np.int64)), DesignKind.RED)
    with pytest.raises(ValueError, match="kernel dims"):
        execute(wide, lower(sched), t)
    with pytest.raises(ValueError, match="geometry-only"):
        execute(MappingPlan(DesignKind.RED, TOY.kernel_shape), lower(sched), t)


def test_execute_rejects_mismatches():
    t, k = rand_pair(TOY, seed=1)
    plan = build_plan(k, DesignKind.RED, TOY)
    sched = build_schedule(TOY, DesignKind.ZERO_PADDING)
    with pytest.raises(ValueError, match="design"):
        execute(plan, lower(sched), t)
    good_sched = build_schedule(TOY, DesignKind.RED)
    with pytest.raises(ValueError, match="input shape"):
        execute(plan, lower(good_sched), Tensor3(np.zeros((4, 4, 3))))


@pytest.mark.parametrize("design", list(DesignKind))
def test_execute_refuses_int64_overflow(design):
    # 2^40 * 2^30 = 2^70 wraps to 0 in int64, which the oracles would match
    spec = DeconvLayerSpec(1, 1, 1, 1, 1, 1, 1)
    plan = build_plan(Kernel4(np.full((1, 1, 1, 1), 2**30)), design, spec)
    with pytest.raises(OverflowError, match="int64"):
        execute(plan, lower(build_schedule(spec, design)), Tensor3(np.full((1, 1, 1), 2**40)))


@pytest.mark.parametrize("design", list(DesignKind))
def test_plan_weight_bound_is_the_maximum_over_its_crossbars(design):
    # a plan takes max|w| from its kernel, which took it once, and
    # `execute` reads it in place of the arrays
    t, k = rand_pair(TOY, seed=8)
    weights = k.data.copy()
    weights[1, 2, 0, 1] = -9
    plan = build_plan(Kernel4(weights), design, TOY)
    assert plan.weight_bound == max(int(np.abs(x).max()) for x in plan.crossbars) == 9
    assert not any(x.flags.writeable for x in plan.crossbars)  # so it cannot go stale
    assert MappingPlan(design, TOY.kernel_shape).weight_bound is None
    assert build_plan(Kernel4(k.data / 2), design).weight_bound is None
    # 2^31 * 2^31 * 18 terms passes 2^63: the recorded bound still refuses it
    big = build_plan(Kernel4(np.full(TOY.kernel_shape, 2**31)), design, TOY)
    assert big.weight_bound == 2**31
    with pytest.raises(OverflowError, match="int64"):
        execute(big, lower(build_schedule(TOY, design)), Tensor3(np.full(t.shape, 2**31)))


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
    assert compute_dtype(t.data, k.weight_bound, 8) == dtype
    want = deconv_python_ints(t, k, EXACT)
    if beyond is not None:  # a true sum that float64 would round
        assert beyond in itertools.chain.from_iterable(itertools.chain(*want))
        assert float(beyond) != beyond
    runs = [oracle(t, k, EXACT)
            for oracle in (deconv_oracle_zero_padding, deconv_oracle_padding_free)]
    runs += [execute(build_plan(k, d, EXACT), lower(build_schedule(EXACT, d)), t)
             for d in DesignKind]
    for got in runs:
        assert got.data.dtype == np.int64
        assert got.data.tolist() == want


@pytest.mark.parametrize("design", list(DesignKind))
def test_float_input_within_tolerance(design):
    t = Tensor3(RNG.normal(size=(TOY.input_h, TOY.input_w, TOY.channels)))
    k = Kernel4(RNG.normal(size=TOY.kernel_shape))
    want = deconv_oracle_zero_padding(t, k, TOY).data
    got = execute(build_plan(k, design, TOY), lower(build_schedule(TOY, design)), t).data
    assert got.dtype == np.float64
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def walk_trace(sched, plan):
    """The activity counts of a schedule on a plan, walked drive by drive:
    a live drive drives a window's every row or a pixel's C rows and reads
    the plan's columns; every live member of a group but its first adds M
    values; a cycle with a live drive is active."""
    kh, kw, c, m = plan.kernel_dims
    rows, cols = plan.shape
    spec, live = sched.layer, sched.live
    n_live = int(np.count_nonzero(live))
    driven = n_live * (rows if sched.design is DesignKind.ZERO_PADDING else c)
    adds, post = 0, PostOpCounts()
    if sched.group_count:
        served = np.zeros(sched.group_count, dtype=bool)
        served[schedule_groups(sched)[live]] = True
        adds = (n_live - int(np.count_nonzero(served))) * m
    if sched.has_post_ops:
        post = PostOpCounts(spec.input_h * spec.input_w * kh * kw * m,
                            (spec.full_h * spec.full_w - spec.output_h * spec.output_w) * m)
    active = np.zeros(sched.cycle_count, dtype=bool)
    active[sched.cycle[live]] = True
    return ExecutionTrace(
        cycle_count=sched.cycle_count,
        vmm_activations_per_crossbar=np.bincount(sched.crossbar[live], minlength=plan.count),
        input_bits_driven=driven,
        output_values_read=n_live * cols,
        adds_performed=adds,
        cell_activations=driven * cols,
        active_cycle_count=int(np.count_nonzero(active)),
        post_ops=post,
    )


def assert_same_trace(got, want):
    """Field-equal traces, the per-crossbar array included."""
    for f in dataclasses.fields(ExecutionTrace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


@settings(max_examples=100, deadline=None)
@given(spec=layer_specs())
@example(spec=TOY)
@example(spec=DeconvLayerSpec(70, 70, 1, 16, 16, 1, 8))  # FCN_Deconv2 at C = M = 1
def test_trace_of_program_matches_the_schedule_walk_property(spec):
    # the counts read off a program's rectangles are those of walking the
    # schedule it was lowered from, on every design
    for design in DesignKind:
        sched = build_schedule(spec, design)
        plan = MappingPlan(design, spec.kernel_shape)
        assert_same_trace(trace_of_program(lower(sched), plan), walk_trace(sched, plan))


def test_trace_zero_padding_counts():
    spec = DeconvLayerSpec(2, 2, 3, 2, 2, 4, 2)
    k = Kernel4(np.ones((2, 2, 3, 4), dtype=np.int64))
    plan = build_plan(k, DesignKind.ZERO_PADDING, spec)
    trace = trace_of_program(lower(build_schedule(spec, DesignKind.ZERO_PADDING)), plan)
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
    trace = trace_of_program(lower(build_schedule(spec, DesignKind.PADDING_FREE)), plan)
    assert trace.cycle_count == 4
    assert trace.input_bits_driven == 4 * 3
    assert trace.output_values_read == 4 * 16  # kh*kw*M wide readout
    assert trace.post_ops.overlap_add_values == 4 * 4 * 4
    assert trace.post_ops.crop_values == (4 * 4 - 4 * 4) * 4  # full == output here


def test_trace_red_zero_skipping_sparsity():
    spec = DeconvLayerSpec(4, 4, 2, 4, 4, 3, 2, 1, 1, 1, 1)
    k = Kernel4(np.ones((4, 4, 2, 3), dtype=np.int64))
    plan = build_plan(k, DesignKind.RED, spec)
    sched = build_schedule(spec, DesignKind.RED)
    trace = trace_of_program(lower(sched), plan)
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
    program = lower(build_schedule(spec, DesignKind.RED))
    trace = trace_of_program(program, build_plan(k, DesignKind.RED, spec))
    assert trace.vmm_activations == 4 * trace.cycle_count  # kh*kw per cycle


@pytest.mark.parametrize("design", list(DesignKind))
def test_stages_accept_int64_columns(design):
    # the builder emits TOY's columns in int16, the narrowest dtype that
    # holds its few cycles, blocks and sources; a schedule with int64
    # columns lowers to the same program, which traces to the same counts
    sched = build_schedule(TOY, design)
    assert {getattr(sched, k).dtype for k in ASSIGNMENT_COLUMNS} == {np.dtype(np.int16)}
    wide = dataclasses.replace(sched, **{k: getattr(sched, k).astype(np.int64)
                                         for k in ASSIGNMENT_COLUMNS})
    want, got = lower(sched), lower(wide)
    assert got == want
    plan = MappingPlan(design, TOY.kernel_shape)
    assert_same_trace(trace_of_program(got, plan), trace_of_program(want, plan))


def test_index_dtype_widens_past_2_31():
    # the narrowest dtype holding every value given, and its negation
    assert _index_dtype(2**31 - 1) is np.int32
    assert _index_dtype(5, -(2**31 - 1)) is np.int32
    assert _index_dtype(2**31) is np.int64
    assert _index_dtype(3, -(2**31)) is np.int64


def test_index_dtype_widens_past_2_15():
    assert _index_dtype(0) is np.int16
    assert _index_dtype(2**15 - 1, -(2**15 - 1)) is np.int16
    assert _index_dtype(2**15) is np.int32
    assert _index_dtype(1, -(2**15)) is np.int32


@pytest.mark.parametrize("width,dtype", [(217, np.int16), (256, np.int32)])
def test_zero_padding_columns_hold_its_cycle_count(width, dtype):
    # 151 x 217 = 2^15 - 1 output pixels, each a cycle, fit int16; 128 x
    # 256 = 2^15 do not
    spec = DeconvLayerSpec(151 if width == 217 else 128, width, 1, 1, 1, 1, 1)
    sched = build_schedule(spec, DesignKind.ZERO_PADDING)
    assert sched.cycle_count == 2**15 - (width == 217)
    assert {getattr(sched, k).dtype for k in ASSIGNMENT_COLUMNS} == {np.dtype(dtype)}
    assert _entries(lower(sched)) == sched.cycle_count


@pytest.mark.parametrize("design,dtype", [(DesignKind.ZERO_PADDING, np.int32),
                                          (DesignKind.RED, np.int16),
                                          (DesignKind.RED_FOLDED, np.int16)])
def test_fcn_deconv2_columns_take_the_narrowest_dtype(design, dtype):
    # zero_padding's 322,624 cycles need int32; red's 5,041 and
    # red_folded's 10,082 cycles, 256 blocks and sources within the
    # 583 x 583 padded image fit int16
    sched = build_schedule(FCN2, design)
    assert {getattr(sched, k).dtype for k in ASSIGNMENT_COLUMNS} == {np.dtype(dtype)}
    # group ids reach 568 * 568 - 1, past int16: derived wide, they name
    # every output pixel
    assert np.array_equal(np.unique(schedule_groups(sched)), np.arange(568 * 568))


def _entries(program):
    """The program's entries, sum P*Q over its rectangles."""
    return sum(p * q for _, rows, cols in program.modes
               for (_, p, _, _), (_, q, _, _) in itertools.product(rows, cols))


def _scratch(stage):
    """The traced peak of numpy and Python allocations during `stage()`,
    and its result."""
    tracemalloc.start()
    try:
        result = stage()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("design", [DesignKind.RED, DesignKind.RED_FOLDED])
def test_schedule_stages_stay_within_a_column_of_scratch(design):
    # FCN_Deconv2's zero-skipping schedules hold kh*kw drives per output
    # tile whatever C and M are: 1,290,496 at C = M = 1 as at full channels
    spec = DeconvLayerSpec(70, 70, 1, 16, 16, 1, 8)
    sched = build_schedule(spec, design)
    n = sched.assignment_count
    assert n == 256 * 71 * 71
    # four int16 columns, and nothing derived from them
    held = sum(getattr(sched, k).nbytes for k in ASSIGNMENT_COLUMNS)
    assert held <= 8 * n
    # `lower` reads a chunk of assignments at a time, so its scratch does
    # not grow with the schedule (under 2 bytes per assignment here), and
    # its program holds one rectangle per weight block, each a row tap
    # and a column tap of four values, whatever the schedule's length
    peak, program = _scratch(lambda: lower(sched))
    assert sum(len(rows) * len(cols) for _, rows, cols in program.modes) == 256
    assert all(len(tap) == 4 for _, rows, cols in program.modes for tap in rows + cols)
    assert peak <= 2 * n
    # the trace reads the program: a boolean mark per output pixel and per
    # cycle, and a rectangle at a time, under 200 bytes per block
    peak, _ = _scratch(lambda: trace_of_program(program, MappingPlan(design, FCN2.kernel_shape)))
    assert peak <= 568 * 568 + sched.cycle_count + 256 * 200


def test_padding_free_execute_holds_no_product_matrix():
    # FCN_Deconv2's 4,900 input pixels times kh*kw*M = 256 products each
    # would be 10 MB in float64; every design accumulates in output pixels,
    # and the three pixel designs read the unpadded input: all they hold is
    # less than one 583 x 583 padded canvas, of which the 568 x 568 output
    # alone is 95%
    spec = DeconvLayerSpec(70, 70, 1, 16, 16, 1, 8)
    t, k = rand_pair(spec, seed=7)
    want = deconv_oracle_zero_padding(t, k, spec).data
    for design in (DesignKind.PADDING_FREE, DesignKind.RED, DesignKind.RED_FOLDED):
        plan = build_plan(k, design, spec)
        program = lower(build_schedule(spec, design))
        peak, got = _scratch(lambda: execute(plan, program, t))
        assert peak < spec.padded_h * spec.padded_w * 8 == 583 * 583 * 8
        assert np.array_equal(got.data, want)


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def test_dump_first_cycle_lines():
    lines = list(dump_schedule_lines(build_schedule(TOY, DesignKind.RED)))
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
    sched = build_schedule(spec, DesignKind.ZERO_PADDING)
    lines = [l for l in dump_schedule_lines(sched) if not l.startswith("#")]
    oh_ow = 16
    assert len(lines) == 2 * oh_ow  # one assignment + one group line per cycle
    assert lines[0] == "0,0,window,0,0"
    assert lines[1] == "0,0,0,0,0"  # group 0 at pixel (0,0), member crossbar 0


def test_dump_deterministic():
    a = "\n".join(dump_schedule_lines(build_schedule(TOY, DesignKind.RED_FOLDED)))
    b = "\n".join(dump_schedule_lines(build_schedule(TOY, DesignKind.RED_FOLDED)))
    assert a == b


def reference_dump_lines(schedule):
    """`dump_schedule_lines` one line at a time, walking the cycles: the
    reference its column formatting must equal line for line."""
    yield f"# design={schedule.design.value} cycles={schedule.cycle_count}"
    yield "# assignment: cycle,crossbar,kind,a,b  group: cycle,group,out_y,out_x,members..."

    spec, design = schedule.layer, schedule.design
    order = np.argsort(schedule.cycle, kind="stable")
    cyc = schedule.cycle[order].tolist()
    xb = schedule.crossbar[order].tolist()
    drive = "window" if design is DesignKind.ZERO_PADDING else "pixel"
    halves = ("_lo", "_hi") if design is DesignKind.RED_FOLDED else ("", "")
    kinds = [(drive if on else "zero") + halves[t % 2]
             for on, t in zip(schedule.live[order].tolist(), cyc)]
    sa = schedule.src_a[order].tolist()
    sb = schedule.src_b[order].tolist()

    # a folded group's even subs come first: they drive its first phase
    oh, ow, _ = output_shape(spec)
    phases = 2 if design is DesignKind.RED_FOLDED else 1
    s, members = 1, {} if design is DesignKind.PADDING_FREE else {(0, 0): "0"}
    if design in (DesignKind.RED, DesignKind.RED_FOLDED):
        s = spec.stride
        members = {mode: ",".join(str(n // phases) for n in sorted(
                       (i * spec.kw + j for i, j in positions), key=lambda n: (n % phases, n)))
                   for mode, positions in partition_modes(spec).modes.items()}
    n_tx = -(-ow // s)

    n, pos = len(cyc), 0
    for t in range(schedule.cycle_count):
        while pos < n and cyc[pos] == t:
            yield f"{t},{xb[pos]},{kinds[pos]},{sa[pos]},{sb[pos]}"
            pos += 1
        if not members or t % phases < phases - 1:
            continue
        ty, tx = divmod(t // phases, n_tx)
        for y in range(s * ty, min(s * ty + s, oh)):
            for x in range(s * tx, min(s * tx + s, ow)):
                mode = members[(spec.pad_top - y) % s, (spec.pad_left - x) % s]
                yield f"{t},{y * ow + x},{y},{x},{mode}"


# 66,206 dump rows, more than `_CACHE_BUDGET`: on red_folded 65 chunks,
# whose boundaries fall between two drive lines of a cycle, between its
# drive and group lines, and between two of its group lines; a change to
# the chunk layout may need another geometry for all three
MANY_ROWS = DeconvLayerSpec(65, 77, 1, 3, 3, 1, 2)


@settings(max_examples=200, deadline=None)
@given(spec=layer_specs(), design=st.sampled_from(list(DesignKind)),
       budget=st.just(dataflow._CACHE_BUDGET) | st.integers(1, 200))
# GAN_Deconv2's zero drives read input row and column -1
@example(spec=DeconvLayerSpec(4, 4, 1, 5, 5, 1, 2, 1, 2, 1, 2), design=DesignKind.RED,
         budget=dataflow._CACHE_BUDGET)
# an odd kh*kw: the last folded array's high half is never driven
@example(spec=TOY, design=DesignKind.RED_FOLDED, budget=dataflow._CACHE_BUDGET)
# cycles, groups and sources cross 10, 100 and 1000 within one chunk
@example(spec=DeconvLayerSpec(16, 16, 1, 4, 4, 1, 2), design=DesignKind.ZERO_PADDING,
         budget=dataflow._CACHE_BUDGET)
@example(spec=MANY_ROWS, design=DesignKind.RED_FOLDED, budget=dataflow._CACHE_BUDGET)
def test_dump_matches_the_per_line_reference_property(spec, design, budget):
    # the dump puts its lines together a chunk of `budget` bytes at a time;
    # a small budget puts chunk boundaries everywhere, one line a chunk too
    sched = build_schedule(spec, design)
    with mock.patch.object(dataflow, "_CACHE_BUDGET", budget):
        got = list(dump_schedule_lines(sched))
    assert got == list(reference_dump_lines(sched))


def test_dump_text_comes_in_chunks_of_whole_lines():
    # the header, then each chunk as it is formatted: every chunk ends a
    # line, and the chunks joined are the lines
    sched = build_schedule(MANY_ROWS, DesignKind.RED_FOLDED)
    chunks = list(dump_schedule_text(sched))
    assert len(chunks) == 1 + 65 and all(chunk.endswith("\n") for chunk in chunks)
    assert "".join(chunks) == "\n".join(dump_schedule_lines(sched)) + "\n"


def _is_group_line(line):
    return line.split(",")[2].isdigit()  # an output row; a drive has its kind there


def test_dump_chunks_fit_the_budget_and_split_cycles():
    sched = build_schedule(MANY_ROWS, DesignKind.RED_FOLDED)
    with mock.patch.object(dataflow, "_dump_text", wraps=dataflow._dump_text) as text:
        lines = list(dump_schedule_lines(sched))[2:]
    sizes = [len(call.args[2]) for call in text.call_args_list]
    assert sum(sizes) == len(lines) == 66_206 and len(sizes) > 1
    # a chunk's grid holds a row at least as wide as each of its lines
    assert max(sizes) * (max(map(len, lines)) + 1) <= dataflow._CACHE_BUDGET
    splits = {(_is_group_line(lines[k - 1]), _is_group_line(lines[k]))
              for k in np.cumsum(sizes)[:-1]
              if lines[k - 1].split(",")[0] == lines[k].split(",")[0]}
    assert splits == {(False, False), (False, True), (True, True)}


@pytest.mark.parametrize("design", list(DesignKind))
def test_refusals_name_a_drive_by_its_dump_line(design):
    # `lower`'s refusals name a drive by `_line`: every drive's is its line
    # in the dump, where the drives come in cycle order
    sched = build_schedule(TOY, design)
    order = np.argsort(sched.cycle, kind="stable")
    drives = [dataflow._line(sched, *(int(getattr(sched, c)[k]) for c in ASSIGNMENT_COLUMNS))
              for k in order]
    lines = list(dump_schedule_lines(sched))[2:]
    assert drives == [line for line in lines if not _is_group_line(line)]
    assert len(lines) == sched.assignment_count + sched.group_count


@pytest.mark.parametrize("column,value,bounds", [
    ("cycle", 16, r"\[0, 16\) cycle"), ("cycle", -1, r"\[0, 16\) cycle"),
    ("crossbar", 49, r"\[0, 49\) crossbar"),
    ("src_a", -4, r"\[-3, 10\) src_a"), ("src_b", 10, r"\[-3, 10\) src_b")])
def test_dump_refuses_a_drive_outside_the_layer(column, value, bounds):
    # every field of a line is a row of a table as large as the layer's
    # bounds, so a drive no built schedule has is refused, not misprinted
    bad = _with_value(build_schedule(TOY, DesignKind.RED), column, 3, value)
    with pytest.raises(ValueError, match=rf"drive outside the dump's {bounds} bounds: "
                                         rf"drive {_line(bad, 3)}$"):
        list(dump_schedule_lines(bad))


def test_dump_holds_its_order_and_one_chunk_of_scratch():
    # over the lines it returns, the dump holds its sort key and order, 10
    # bytes a row (0.66 MB), its tables and one chunk: 1.0 MB; its lines
    # put together in one grid took 14.7 MB, and one f-string a line at a
    # time 6.3 MB
    sched = build_schedule(MANY_ROWS, DesignKind.RED_FOLDED)
    tracemalloc.start()
    try:
        lines = list(dump_schedule_lines(sched))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lines) == 2 + 66_206
    assert peak - held <= 1.5 * 2**20


def test_build_schedule_holds_its_columns_and_one_part():
    # FCN_Deconv2's red schedule comes in 16 parts, one kernel row each; it
    # is joined one part at a time into columns of its closed-form drive
    # count, not by concatenating every part
    peak, sched = _scratch(lambda: build_schedule(FCN2, DesignKind.RED))
    held = sum(getattr(sched, c).nbytes for c in ASSIGNMENT_COLUMNS)
    assert held == 8 * 256 * 71 * 71
    assert peak <= 1.2 * held


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
    shape = (spec.input_h, spec.input_w, spec.channels)
    t = Tensor3(rng.integers(-8, 9, shape))
    k = Kernel4(rng.integers(-8, 9, (spec.kh, spec.kw, spec.channels, spec.filters)))
    plan = build_plan(k, design, spec)
    sched = build_schedule(spec, design)
    # one lowered program serves every input: a second, independent draw
    # catches a program that keeps anything of the first
    program = lower(sched)
    for t in (t, Tensor3(rng.integers(-8, 9, shape))):
        got = execute(plan, program, t)
        assert np.array_equal(got.data, deconv_oracle_zero_padding(t, k, spec).data)
        assert np.array_equal(got.data, deconv_oracle_padding_free(t, k, spec).data)


@settings(max_examples=100, deadline=None)
@given(spec=layer_specs(max_channels=1),
       design=st.sampled_from([DesignKind.RED, DesignKind.RED_FOLDED]))
def test_live_assignments_match_redundancy_property(spec, design):
    # zero skipping drives, and padding-free keeps past its crop, exactly
    # the kernel slots that the zero-padding route would feed an original
    # pixel; every design's program adds into output pixels
    sched = build_schedule(spec, design)
    live = int(sched.live.sum())
    slots = spec.output_h * spec.output_w * spec.kh * spec.kw
    assert live == round((1 - zero_redundancy_ratio(spec)) * slots)
    programs = {d: lower(build_schedule(spec, d)) for d in DesignKind}
    assert _entries(programs[DesignKind.PADDING_FREE]) == _entries(programs[design]) == live


def _mode_entries(program):
    """Every (block, source, output pixel) the program holds, enumerated
    from its modes: kernel position (i, j)'s rectangle multiplies input
    pixel (a, b) of its source slices into tile (t, u) of its destination
    ones, output pixel (r_y + s*t, r_x + s*u) of its mode (r_y, r_x)."""
    s, kw = program.layer.stride, program.layer.kw
    for (ry, rx), rows, cols in program.modes:
        for (i, _, a, t), (j, _, b, u) in itertools.product(rows, cols):
            ys = zip(range(a.start, a.stop), range(ry + s * t.start, ry + s * t.stop, s))
            xs = zip(range(b.start, b.stop), range(rx + s * u.start, rx + s * u.stop, s))
            for (sa, y), (sb, x) in itertools.product(ys, xs):
                yield i * kw + j, (sa, sb), (y, x)


def _closed_form_entries(spec):
    """Every (block, source, output pixel) a program must hold, by the
    definition: output pixel (y, x) takes kernel position (i, j) from padded
    pixel (y + i, x + j), and input pixel (a, b) sits at padded pixel
    (pad_top + s*a, pad_left + s*b)."""
    s, kh, kw = spec.stride, spec.kh, spec.kw
    entries = set()
    for n, a, b in itertools.product(range(kh * kw), range(spec.input_h), range(spec.input_w)):
        i, j = divmod(n, kw)
        y, x = spec.pad_top - i + s * a, spec.pad_left - j + s * b
        if 0 <= y < spec.output_h and 0 <= x < spec.output_w:
            entries.add((n, (a, b), (y, x)))
    return entries


@settings(max_examples=100, deadline=None)
@given(spec=layer_specs(max_channels=1))
def test_program_rectangles_stay_inside_property(spec):
    # every design lowers to the same modes; each rectangle reads inside
    # the input and adds inside its mode's sub-lattice of the output, with
    # unit steps; and its entries are exactly the closed form's
    programs = [lower(build_schedule(spec, design)) for design in DesignKind]
    for program in programs[1:]:
        assert program.modes == programs[0].modes
    s = spec.stride
    for (ry, rx), rows, cols in programs[0].modes:
        for taps, n_in, n_out, r in ((rows, spec.input_h, spec.output_h, ry),
                                     (cols, spec.input_w, spec.output_w, rx)):
            for _, size, src, dst in taps:
                assert size > 0 and src.step is None and dst.step is None
                assert 0 <= src.start and src.stop <= n_in
                assert 0 <= dst.start and r + s * (dst.stop - 1) < n_out
    entries = list(_mode_entries(programs[0]))
    assert len(entries) == len(set(entries))
    assert set(entries) == _closed_form_entries(spec)


@settings(max_examples=100, deadline=None)
@given(spec=layer_specs(max_channels=1))
def test_red_drives_on_the_grid_are_the_program_entries_property(spec):
    # on red, sub n's drives whose source lies on the input are exactly
    # block n's entries: drive (cycle, n, a, b) adds into the pixel of
    # sub n's mode in tile cycle = t*n_tx + u
    sched = build_schedule(spec, DesignKind.RED)
    s, n_tx = spec.stride, -(-spec.output_w // spec.stride)
    live = sched.live
    drives = set()
    for cycle, n, a, b in zip(*(getattr(sched, c)[live].tolist() for c in ASSIGNMENT_COLUMNS)):
        (i, j), (t, u) = divmod(n, spec.kw), divmod(cycle, n_tx)
        y, x = (spec.pad_top - i) % s + s * t, (spec.pad_left - j) % s + s * u
        drives.add((n, (a, b), (y, x)))
    assert len(drives) == int(live.sum())
    assert drives == set(_mode_entries(lower(sched)))
