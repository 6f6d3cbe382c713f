"""Per-cycle schedules for the four crossbar designs, and their execution.

Schedules are stored columnar (one numpy row per input assignment) so that
large layers stay cheap to generate, execute and dump:

* zero-padding: output_h*output_w cycles, each feeding the single tall
  crossbar one gathered kh*kw*C window of the padded image;
* padding-free: input_h*input_w cycles, each feeding the wide crossbar one
  C-vector input pixel, followed by an overlap-add and crop post pass;
* zero-skipping (pixel-wise layout): ceil(output_h/s)*ceil(output_w/s)
  cycles, each producing an s x s output tile.  Every output pixel in the
  tile belongs to one residue class (computation mode), and each kernel
  position of that mode contributes through its own sub-crossbar, fed the
  single original input pixel whose dilated coordinate lines up.  Input
  coordinates that fall off the input feature map become zero drives
  (`live` False): they keep the accumulation-group structure uniform but
  are skipped in activation counts.

A schedule stores no input kind: the design names each live drive, a
window on zero-padding and a pixel on every other design, and only
zero-skipping has zero drives.

Folding doubles the cycle count: even phases drive rows 0..C-1 of each
folded sub with the even original sub's input, odd phases drive rows
C..2C-1 with the odd original sub's input.  A schedule stores no half:
the cycle's parity names it, and so the weight block a drive multiplies.

Output pixels are produced once each; the members of an output pixel's
accumulation group are exactly the sub-crossbars of its computation mode.
Cycles advance row-major over s x s output tiles, so traces are reproducible.
Assignments are kept in (weight block, cycle) order, the order `lower`
reads; every builder emits it directly, and only the dump sorts, by cycle.

A design is its weight layout (mapping) plus its schedule; one runner
executes them all, in two steps, and it runs what the hardware drives.
`lower` does the index work once per schedule: it drops the zero drives,
which add nothing, and gives each live drive, per weight block, a source
in the zero-inserted, padded image and an output pixel.  A pixel is one
source; a zero-padding window is kh row segments, one per kernel row,
each in its own weight block, and a segment on an all-zero row of the
padded image (an inserted or border row) is dropped as well: it reads
only zeros, so dropping it is exact for every input.  A padding-free
pixel is kh*kw blocks, one per kernel position, each adding into the
output pixel the overlap-add and crop would put it on.  `execute` runs
one input through that `Program`: per block it only gathers segments,
multiplies them by the block's weight rows, and accumulates.  The
hardware still drives every dropped row, overlap-adds and crops, and the
trace counts all of it; only the simulator skips that work.

A schedule depends on the spatial geometry only, never on C, M or data, so
one schedule per layer and design serves every input (lowered once, then
`execute`d per input, which returns the output alone) and the activity
counts (`trace_of_schedule`, taken once per plan and schedule).

A zero-skipping schedule holds kh*kw drives per tile whatever C and M are,
so its columns are int32 (`_index_dtype`), and each stage that reads one
allocates at most about one column of scratch on top of what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mapping import DesignKind, MappingPlan
from .tensor import (_CACHE_BUDGET, DeconvLayerSpec, Tensor3, _check_input, compute_dtype,
                     dilate_and_pad, output_shape)

__all__ = [
    "InputKind",
    "ModePartition",
    "CycleSchedule",
    "PostOpCounts",
    "ExecutionTrace",
    "partition_modes",
    "schedule_zero_padding",
    "schedule_padding_free",
    "schedule_zero_skipping",
    "build_schedule",
    "validate_schedule",
    "trace_of_schedule",
    "Program",
    "lower",
    "execute",
    "dump_schedule_lines",
]


class InputKind:
    """Codes of the derived `CycleSchedule.kind` view, which perfbench's
    tests read; a schedule stores `live` instead."""

    WINDOW = 0  # gathered kh*kw*C window of the padded image at (a, b)
    PIXEL = 1   # the C-vector of input pixel (a, b)
    ZERO = 2    # all-zero drive; skipped in activation counts and execution


# ---------------------------------------------------------------------------
# Computation modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModePartition:
    """The stride^2 residue classes of kernel positions.

    Mode (r_y, r_x) holds the kernel positions (i, j) with i = r_y (mod s)
    and j = r_x (mod s).  The modes are disjoint and cover the whole kernel;
    an output pixel is served by exactly one mode.
    """

    stride: int
    kh: int
    kw: int
    modes: dict[tuple[int, int], tuple[tuple[int, int], ...]]

    @property
    def sizes(self) -> dict[tuple[int, int], int]:
        return {key: len(val) for key, val in self.modes.items()}


def partition_modes(spec: DeconvLayerSpec) -> ModePartition:
    """Split the kernel positions into the stride^2 computation modes."""
    s, kh, kw = spec.stride, spec.kh, spec.kw
    modes = {}
    for ry in range(s):
        for rx in range(s):
            modes[(ry, rx)] = tuple(
                (i, j) for i in range(ry, kh, s) for j in range(rx, kw, s)
            )
    return ModePartition(stride=s, kh=kh, kw=kw, modes=modes)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def _index_dtype(spec: DeconvLayerSpec) -> type[np.signedinteger]:
    """The dtype of every index column of a schedule and a program: int32
    unless a value could reach 2^31, int64 otherwise.  Cycle counts (at
    most twice the output pixels, on red_folded), group ids, input and
    window coordinates and flat padded-image indices all stay below twice
    the padded image's size."""
    return np.int32 if 2 * spec.padded_h * spec.padded_w <= 2**31 else np.int64


@dataclass
class CycleSchedule:
    """Columnar per-cycle input assignments plus the accumulation groups.

    Assignment columns are parallel arrays sorted by (`block`, cycle), the
    order `lower` reads; a crossbar and a cycle fix the block, so each
    crossbar appears at most once per cycle.  Only the dump sorts by cycle.
    The builders store every index column (`cycle`, `crossbar`, `src_a`,
    `src_b`, `group_id`, `group_cycle`) in the layer's `_index_dtype`,
    int32 on any layer whose padded image has at most 2^30 pixels, and
    `live` as one byte: 21 bytes per assignment.  The stages that read a
    schedule accept any integer dtype.
    `group_id` indexes the group table, one group per output pixel: group g
    is output pixel (g // output_w, g % output_w).  Padding-free has no groups and uses -1:
    its outputs accumulate through the overlap-add post pass instead.
    A group's members are the assignments carrying its id; for folded
    schedules they span the two phase cycles of one tile and the group is
    recorded on the completing (odd) phase.  A folded assignment drives
    the low C-row half of its array on an even cycle, the high half on an
    odd one.  `live` is False on a zero drive, which reads nothing; a live
    drive is a window (a, b) on zero-padding, input pixel (a, b) elsewhere.
    """

    design: DesignKind
    layer: DeconvLayerSpec
    cycle_count: int
    cycle: np.ndarray
    crossbar: np.ndarray
    live: np.ndarray
    src_a: np.ndarray
    src_b: np.ndarray
    group_id: np.ndarray
    group_cycle: np.ndarray

    @property
    def has_post_ops(self) -> bool:
        """Padding-free places its products by overlap-add and crop."""
        return self.design is DesignKind.PADDING_FREE

    @property
    def block(self) -> np.ndarray:
        """Per assignment, the weight block it multiplies: its crossbar, or
        on red_folded the C-row half of it its cycle's parity drives, so
        folded array n holds blocks 2n (low half) and 2n + 1 (high half).
        Unfolded it is the crossbar column itself; folded, one new column."""
        if self.design is DesignKind.RED_FOLDED:
            block = self.cycle & 1
            block += self.crossbar
            block += self.crossbar
            return block
        return self.crossbar

    @property
    def kind(self) -> np.ndarray:
        """Per assignment, its `InputKind` code, derived from the design and
        `live`."""
        drive = InputKind.WINDOW if self.design is DesignKind.ZERO_PADDING else InputKind.PIXEL
        return np.where(self.live, drive, InputKind.ZERO).astype(np.int8)

    @property
    def assignment_count(self) -> int:
        return len(self.cycle)

    @property
    def group_count(self) -> int:
        return len(self.group_cycle)


def schedule_zero_padding(spec: DeconvLayerSpec) -> CycleSchedule:
    """One gathered window per cycle, row-major over output pixels."""
    oh, ow, _ = output_shape(spec)
    n = oh * ow
    t = np.arange(n, dtype=_index_dtype(spec))
    return CycleSchedule(
        design=DesignKind.ZERO_PADDING,
        layer=spec,
        cycle_count=n,
        cycle=t,
        crossbar=np.zeros_like(t),
        live=np.ones(n, dtype=bool),
        src_a=t // ow,
        src_b=t % ow,
        group_id=t.copy(),
        group_cycle=t.copy(),
    )


def schedule_padding_free(spec: DeconvLayerSpec) -> CycleSchedule:
    """One input pixel per cycle; overlap-add and crop run as post ops."""
    n = spec.input_h * spec.input_w
    t = np.arange(n, dtype=_index_dtype(spec))
    return CycleSchedule(
        design=DesignKind.PADDING_FREE,
        layer=spec,
        cycle_count=n,
        cycle=t,
        crossbar=np.zeros_like(t),
        live=np.ones(n, dtype=bool),
        src_a=t // spec.input_w,
        src_b=t % spec.input_w,
        group_id=np.full_like(t, -1),
        group_cycle=np.empty(0, dtype=t.dtype),
    )


def schedule_zero_skipping(spec: DeconvLayerSpec, folded: bool = False) -> CycleSchedule:
    """RED's schedule: one s x s output tile per cycle, zeros skipped.

    Unfolded cycle count is ceil(output_h/s) * ceil(output_w/s); folding
    doubles it by splitting each cycle into a low-half and a high-half
    phase per the stacked sub-crossbar layout.

    Sub (i, j) serves output pixels y = pad_top - i, x = pad_left - j
    (mod s), one per tile: from the first, (y0, x0), it drives (y0 + s*t,
    x0 + s*u) in cycle t*n_tx + u.  Laid out row-major over (i, j, t, u),
    that is (sub, cycle) order, which is (block, cycle) order folded or not.
    """
    s = spec.stride
    oh, ow, _ = output_shape(spec)
    n_ty, n_tx = -(-oh // s), -(-ow // s)
    index = _index_dtype(spec)

    i = np.arange(spec.kh, dtype=index).reshape(-1, 1, 1, 1)
    j = np.arange(spec.kw, dtype=index).reshape(1, -1, 1, 1)
    t = np.arange(n_ty, dtype=index).reshape(1, 1, -1, 1)
    u = np.arange(n_tx, dtype=index).reshape(1, 1, 1, -1)
    y0, x0 = (spec.pad_top - i) % s, (spec.pad_left - j) % s
    y, x = y0 + s * t, x0 + s * u
    # the input pixel whose dilated coordinate lines up; off the input it
    # is a zero drive
    a = t + (y0 + i - spec.pad_top) // s
    b = u + (x0 + j - spec.pad_left) // s
    live = ((a >= 0) & (a < spec.input_h)) & ((b >= 0) & (b < spec.input_w))
    # the last tile row and column may overhang the output
    inside = (y < oh) & (x < ow)

    def column(values):
        # the (i, j, t, u) grid's values, read through the mask without
        # materialising the grid
        return np.broadcast_to(values, inside.shape)[inside]

    cycle, crossbar, live = column(t * n_tx + u), column(i * spec.kw + j), live[inside]
    a, b = column(a), column(b)
    group = column(y * ow)
    group += column(x)

    # group table covers every output pixel; a group completes in its tile's
    # (last phase) cycle
    gcycle = np.add.outer(np.arange(oh, dtype=index) // s * n_tx,
                          np.arange(ow, dtype=index) // s).ravel()
    if folded:
        # original sub n drives folded sub n // 2 on phase n % 2
        cycle *= 2
        cycle += crossbar % 2
        crossbar //= 2
        gcycle *= 2
        gcycle += 1

    return CycleSchedule(
        design=DesignKind.RED_FOLDED if folded else DesignKind.RED,
        layer=spec,
        cycle_count=n_ty * n_tx * (2 if folded else 1),
        cycle=cycle,
        crossbar=crossbar,
        live=live,
        src_a=a,
        src_b=b,
        group_id=group,
        group_cycle=gcycle,
    )


def build_schedule(spec: DeconvLayerSpec, design: DesignKind | str) -> CycleSchedule:
    return _DESIGNS[DesignKind(design)](spec)


def validate_schedule(schedule: CycleSchedule):
    """Schema checks in O(n): cycles and crossbars below the cycle and
    array counts; assignments strictly ordered by (block, cycle), so one
    VMM per crossbar per cycle; a boolean `live` column (an integer
    one would index, not mask); on red_folded, no drive into the
    zero-fill half of the last array; zero drives on zero-skipping only;
    window origins inside the output grid, or live pixel sources inside
    the input (zero drives read nothing); one accumulation group per output
    pixel (its id names the pixel), every assignment in one, and every
    group completing in one of the schedule's cycles.

    Its scratch is the folded block column and boolean masks: the order is
    checked on neighbouring pairs, and the sources by reductions over the
    live drives, with no masked copy."""
    cycle, crossbar, live = schedule.cycle, schedule.crossbar, schedule.live
    design, spec = schedule.design, schedule.layer
    if live.dtype != bool:
        raise ValueError("live column is not boolean")
    if len(cycle):
        n_arrays = MappingPlan(design, spec.kernel_shape).count
        if (cycle.min() < 0 or cycle.max() >= schedule.cycle_count
                or crossbar.min() < 0 or crossbar.max() >= n_arrays):
            raise ValueError(f"cycle or crossbar index out of range ({n_arrays} arrays)")
        block = schedule.block
        # each pair: a later block, or the same block at a later cycle
        ordered = cycle[1:] > cycle[:-1]
        ordered &= block[1:] == block[:-1]
        ordered |= block[1:] > block[:-1]
        if not ordered.all():
            raise ValueError("assignments not in strictly increasing (block, cycle) order")
        del ordered
        # block n multiplies sub n's weights; on red_folded with an odd
        # kh*kw, block kh*kw is the zero-fill half of the last array
        if block.max() >= spec.kh * spec.kw:
            raise ValueError("drive into the zero-fill half of the last folded array")
    if design in (DesignKind.ZERO_PADDING, DesignKind.PADDING_FREE) and not live.all():
        raise ValueError(f"zero drive on the {design} design")
    oh, ow, _ = output_shape(spec)
    if design is DesignKind.ZERO_PADDING:
        h, w, message = oh, ow, "window origin outside the output grid"
    else:
        h, w, message = spec.input_h, spec.input_w, "pixel source outside the input"
    for coords, extent in ((schedule.src_a, h), (schedule.src_b, w)):
        if (coords.min(where=live, initial=0) < 0
                or coords.max(where=live, initial=0) >= extent):
            raise ValueError(message)
    if schedule.has_post_ops:
        if schedule.group_count != 0:
            raise ValueError("post-op schedules must not carry accumulation groups")
        return
    if schedule.group_count != oh * ow:
        raise ValueError(
            f"expected one group per output pixel ({oh * ow}), got {schedule.group_count}"
        )
    gid, gcycle = schedule.group_id, schedule.group_cycle
    if len(gid) and (gid.min() < 0 or gid.max() >= schedule.group_count):
        raise ValueError("assignment group id out of range")
    if len(gcycle) and (gcycle.min() < 0 or gcycle.max() >= schedule.cycle_count):
        raise ValueError("group completes outside the schedule's cycles")


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PostOpCounts:
    """Padding-free only: values merged by overlap-add and trimmed by crop."""

    overlap_add_values: int = 0
    crop_values: int = 0

    @property
    def total_values(self) -> int:
        return self.overlap_add_values + self.crop_values


@dataclass
class ExecutionTrace:
    """Activity counts of one scheduled run, the cost model's input.

    Zero-vector assignments advance cycles but bear no activations; their
    accumulation-group slots contribute no adds.
    """

    cycle_count: int
    vmm_activations_per_crossbar: np.ndarray
    input_bits_driven: int
    output_values_read: int
    adds_performed: int
    cell_activations: int
    active_cycle_count: int
    post_ops: PostOpCounts = field(default_factory=PostOpCounts)

    @property
    def vmm_activations(self) -> int:
        return int(self.vmm_activations_per_crossbar.sum())


def trace_of_schedule(schedule: CycleSchedule, plan: MappingPlan) -> ExecutionTrace:
    """Activity counts implied by a schedule on a plan, independent of data.

    The schedule supplies the spatial geometry and the plan C, M and the
    array shape, so a schedule built at scaled channels traces the
    full-size plan exactly like one built at full channels; a
    geometry-only plan suffices.  It reads a validated schedule: every
    live drive's group id and cycle index its table.  Its scratch is one
    masked column at a time plus a boolean mark per group and per cycle;
    the per-crossbar counts are taken a chunk at a time.
    """
    _check_pair(plan, schedule, dims=2)
    kh, kw, c, m = plan.kernel_dims
    rows, cols = plan.shape

    live = schedule.live
    n_live = int(np.count_nonzero(live))
    # counted a chunk at a time: np.bincount copies its input to intp
    per_xbar = np.zeros(plan.count, dtype=np.int64)
    for k in range(0, len(live), _CACHE_BUDGET):
        on = live[k : k + _CACHE_BUDGET]
        per_xbar += np.bincount(schedule.crossbar[k : k + _CACHE_BUDGET][on],
                                minlength=plan.count)

    # a window drives every row of its array, a pixel C rows
    driven = n_live * (rows if schedule.design is DesignKind.ZERO_PADDING else c)

    group_adds = 0
    if schedule.group_count:
        # every live member of a group but its first adds M values
        served = np.zeros(schedule.group_count, dtype=bool)
        served[schedule.group_id[live]] = True
        group_adds = (n_live - int(np.count_nonzero(served))) * m

    active = np.zeros(schedule.cycle_count, dtype=bool)
    active[schedule.cycle[live]] = True
    active_cycles = int(np.count_nonzero(active))

    post = PostOpCounts()
    if schedule.has_post_ops:
        spec = schedule.layer
        oh, ow, _ = output_shape(spec)
        post = PostOpCounts(
            overlap_add_values=spec.input_h * spec.input_w * kh * kw * m,
            crop_values=(spec.full_h * spec.full_w - oh * ow) * m,
        )

    return ExecutionTrace(
        cycle_count=schedule.cycle_count,
        vmm_activations_per_crossbar=per_xbar,
        input_bits_driven=driven,
        output_values_read=n_live * cols,
        adds_performed=group_adds,
        cell_activations=driven * cols,
        active_cycle_count=active_cycles,
        post_ops=post,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _check_pair(plan: MappingPlan, schedule: CycleSchedule | Program, dims: int):
    """Same design, and the first `dims` kernel dimensions of plan and layer
    agree: (kh, kw) for a trace, which takes C and M from the plan; all
    four for execution."""
    if plan.design is not schedule.design:
        raise ValueError(
            f"plan design {plan.design} does not match schedule design {schedule.design}"
        )
    have, want = plan.kernel_dims[:dims], schedule.layer.kernel_shape[:dims]
    if have != want:
        raise ValueError(f"plan kernel dims {have} do not match layer {want}")


@dataclass(frozen=True)
class Program:
    """A schedule lowered for the runner: its live drives, per weight block.

    Weight block n's drives are `source[bounds[n]:bounds[n + 1]]`, each
    added into output pixel `dest` (y*output_w + x) at the same position.
    A source is a flat index into the padded image where the drive's row
    segment starts: a pixel on every design but zero-padding.  There block
    i is the kw*C weight rows of kernel row i, and its sources are the
    window origins plus i*padded_w, kept only where that row of the padded
    image holds input pixels.  On padding-free block n = i*kw + j is the M
    columns of kernel position (i, j) in the wide array.  It depends on the
    schedule alone, so one program serves every input.
    """

    design: DesignKind
    layer: DeconvLayerSpec
    bounds: np.ndarray
    source: np.ndarray
    dest: np.ndarray


def lower(schedule: CycleSchedule) -> Program:
    """Lower a schedule once into the `Program` that `execute` runs.

    Zero drives add nothing and are dropped.  The live drives must be in
    weight-block order and name blocks the design has: the array, or on
    red_folded the kh*kw sub halves, so a drive into the zero-fill half is
    refused too.  Within one block a destination may not repeat, since
    each array serves an output pixel at most once; the runner then adds a
    block's products with one plain fancy-index add.  A padding-free pixel
    must lie on the input, so that the crop cannot hide a bad one, and
    appear once.  Violations raise ValueError.

    A zero-padding window is split into its kh row segments, one weight
    block per kernel row, and a segment is kept only where padded row
    a + i, for window origin row a, holds input pixels: row p does when
    p - pad_top is a multiple of the stride in [0, stride*input_h).  Any
    other row is inserted or border zeros, so the segment adds nothing
    for any input and dropping it is exact.  Only the simulator skips it:
    the hardware still drives those rows, and `trace_of_schedule` still
    counts them.

    A padding-free pixel (a, b) is split into kh*kw weight blocks: the
    overlap-add and crop put column block (i, j)'s products on output pixel
    (a*s + i - crop_top, b*s + j - crop_left), kept where that lies in the
    output (Dumoulin & Visin, arXiv:1603.07285).  The hardware still
    overlap-adds and crops, and `trace_of_schedule` counts both.

    Sources and destinations are in the layer's `_index_dtype`, whatever
    integer dtype the schedule holds.  The scratch on top of the program
    is the masked block, `src_a` and `src_b` columns (on padding-free, the
    uncropped destination grid): the duplicate check sorts its (block,
    destination) key in the block column, int32 while n_blocks * h * w
    < 2^31, and the sources are computed in place.
    """
    spec, design = schedule.layer, schedule.design
    live = schedule.live
    # boolean masks copy: every masked column below is ours to change in place
    block = schedule.block[live]
    n_blocks = spec.kh * spec.kw if design in (DesignKind.RED, DesignKind.RED_FOLDED) else 1
    if (block[1:] < block[:-1]).any():
        raise ValueError("live drives not in weight-block order")
    if len(block) and (block[0] < 0 or block[-1] >= n_blocks):
        raise ValueError(f"drive names a weight block the plan does not have ({n_blocks})")
    # taken before the duplicate check spends the block column; searched
    # with the column's own dtype, so that it is not cast
    bounds = np.searchsorted(block, np.arange(n_blocks + 1, dtype=block.dtype))

    index = _index_dtype(spec)
    a = schedule.src_a[live].astype(index, copy=False)
    b = schedule.src_b[live].astype(index, copy=False)
    oh, ow, _ = output_shape(spec)
    (h, w), what = (oh, ow), "output"
    if design is DesignKind.PADDING_FREE:
        for coords, extent in ((a, spec.input_h), (b, spec.input_w)):
            if len(coords) and (coords.min() < 0 or coords.max() >= extent):
                raise ValueError("pixel source outside the input")
        # a pixel is checked for repeats as itself; its products in block
        # (i, j) reach output pixel (y, x) unless the crop trims them
        (h, w), what = (spec.input_h, spec.input_w), "input"
        dest = a * w + b
        y = a * spec.stride - spec.crop_top + np.arange(spec.kh, dtype=index).reshape(-1, 1, 1)
        x = b * spec.stride - spec.crop_left + np.arange(spec.kw, dtype=index).reshape(-1, 1)
        inside = ((y >= 0) & (y < oh)) & ((x >= 0) & (x < ow))
    else:
        dest = schedule.group_id[live].astype(index, copy=False)
    if len(dest) and (dest.min() < 0 or dest.max() >= h * w):
        raise ValueError(f"drive destination outside the {what} grid")
    # the (block, destination) key, built in the block column: sorted, a
    # repeat is a block serving one destination twice
    key = block.astype(np.int32 if n_blocks * h * w <= 2**31 else np.int64, copy=False)
    del block
    key *= h * w
    key += dest
    key.sort()
    twice = np.flatnonzero(key[1:] == key[:-1])
    if len(twice):
        n, pixel = divmod(int(key[twice[0]]), h * w)
        raise ValueError(f"weight block {n} serves {what} pixel {divmod(pixel, w)} twice")
    del key
    if design is not DesignKind.ZERO_PADDING:
        # input pixel (a, b) sits at (pad_top + a*s, pad_left + b*s)
        a *= spec.stride
        a += spec.pad_top
        b *= spec.stride
        b += spec.pad_left
        a *= spec.padded_w
        a += b
        if design is DesignKind.PADDING_FREE:
            # entries in (i, j, pixel) order, which is block order
            a, dest = np.broadcast_to(a, inside.shape)[inside], (y * ow + x)[inside]
            bounds = np.cumsum([0, *inside.sum(axis=2).ravel()])
        return Program(design=design, layer=spec, bounds=bounds, source=a, dest=dest)
    source = a * spec.padded_w
    source += b
    del b
    p = np.arange(spec.padded_h) - spec.pad_top
    data_row = (p % spec.stride == 0) & (p >= 0) & (p < spec.stride * spec.input_h)
    # block i: the windows whose row a + i is a data row, read as
    # data_row[i:][a] (a + i < padded_h) so that no index column is made;
    # filled in place, so that no per-row copies outlive their row
    # (this splits the one zero-padding block into kh)
    bounds = np.cumsum([0] + [np.count_nonzero(data_row[i:][a]) for i in range(spec.kh)])
    segments, targets = np.empty(bounds[-1], index), np.empty(bounds[-1], index)
    for i in range(spec.kh):
        keep = data_row[i:][a]
        segments[bounds[i] : bounds[i + 1]] = source[keep]
        segments[bounds[i] : bounds[i + 1]] += i * spec.padded_w
        targets[bounds[i] : bounds[i + 1]] = dest[keep]
    return Program(design=design, layer=spec, bounds=bounds, source=segments, dest=targets)


def execute(plan: MappingPlan, program: Program, input: Tensor3) -> Tensor3:
    """Run one input through a lowered schedule's VMMs and sum the groups.

    One runner serves every design, and it only gathers, multiplies and
    adds: `lower` did the index work once per schedule.  Per weight block,
    in chunks of `_CACHE_BUDGET` values, each drive's row segment is
    gathered from the zero-inserted, padded image at its source,
    multiplied by the block's weight rows and added into its output
    pixel.  A segment is a pixel's C values, or on zero-padding one kernel
    row of a window, kw*C values that sit contiguously in the flat image;
    window rows on all-zero image rows are not in the program (see `lower`).
    Integer data is multiplied in the dtype `compute_dtype` picks: float64
    sums of integers below 2^53 are exact, as are int64 sums, so the result
    does not depend on the order of the adds and equals the zero-padding
    oracle element-exactly; it is returned as int64.  Activity counts do
    not depend on the input: take them once per (plan, schedule) with
    `trace_of_schedule`.
    """
    _check_pair(plan, program, dims=4)
    spec = program.layer
    if plan.crossbars is None:
        raise ValueError("a geometry-only plan holds no weights to execute")
    _check_input(input, spec)
    dtype = compute_dtype(input.data, plan.crossbars, spec.kh * spec.kw * spec.channels)

    c, m = spec.channels, spec.filters
    image = dilate_and_pad(input, spec).data.reshape(-1).astype(dtype, copy=False)
    blocks, segment = plan.crossbars, c
    if program.design is DesignKind.ZERO_PADDING:
        # block i, kernel row i: rows i*kw*C .. (i+1)*kw*C - 1 of the tall array
        segment = spec.kw * c
        blocks = [blocks[0][i * segment : (i + 1) * segment] for i in range(spec.kh)]
    elif program.design is DesignKind.PADDING_FREE:
        # block n = i*kw + j, kernel position (i, j): columns n*M .. (n+1)*M - 1
        blocks = [blocks[0][:, n * m : (n + 1) * m] for n in range(spec.kh * spec.kw)]
    elif program.design is DesignKind.RED_FOLDED:
        # block n, sub n's weights: rows 0..C-1 of array n // 2 for even n,
        # rows C..2C-1 for odd n; an odd kh*kw leaves the last half zero fill
        blocks = [blocks[n // 2][n % 2 * c : n % 2 * c + c] for n in range(spec.kh * spec.kw)]
    # segment p: segment // C pixels of the flat image from pixel p on
    segments = sliding_window_view(image, segment)[::c]
    acc = np.zeros((spec.output_h * spec.output_w, m), dtype=dtype)

    bounds, source, dest = program.bounds.tolist(), program.source, program.dest
    chunk = max(1, _CACHE_BUDGET // max(segment, m))
    for n, weight_rows in enumerate(blocks):
        # converted once, it serves every chunk of the block
        weights = weight_rows.astype(dtype, copy=False)
        for t0 in range(bounds[n], bounds[n + 1], chunk):
            t1 = min(t0 + chunk, bounds[n + 1])
            # no destination repeats within a block (`lower`)
            acc[dest[t0:t1]] += segments[source[t0:t1]] @ weights
    out = acc.reshape(output_shape(spec))
    return Tensor3(out.astype(np.result_type(input.data, plan.crossbars[0]), copy=False))


# per design: schedule builder
_DESIGNS = {
    DesignKind.ZERO_PADDING: schedule_zero_padding,
    DesignKind.PADDING_FREE: schedule_padding_free,
    DesignKind.RED: schedule_zero_skipping,
    DesignKind.RED_FOLDED: partial(schedule_zero_skipping, folded=True),
}


# ---------------------------------------------------------------------------
# Schedule dump
# ---------------------------------------------------------------------------

def dump_schedule_lines(schedule: CycleSchedule):
    """Stable text dump: per cycle, assignment lines then group lines.

    The one reader that wants cycle order: it sorts the (block, cycle)
    ordered assignments stably by cycle, which lists each cycle's
    assignments, and each group's members, by crossbar.

    Assignment: cycle,crossbar_index,input_kind,a,b
    Group:      cycle,group_id,output_y,output_x,member_crossbars...
    Coordinates are 0-based (row, col); window coordinates address the
    padded image, pixel coordinates the original input feature map, and a
    group's output pixel is divmod(group_id, output_w).  The kind is `zero`
    for a zero drive; a live drive is a `window` on zero_padding and a
    `pixel` elsewhere.  On red_folded the kind carries the driven half:
    `_lo` on even cycles, `_hi` on odd ones.
    """
    yield f"# design={schedule.design.value} cycles={schedule.cycle_count}"
    yield "# assignment: cycle,crossbar,kind,a,b  group: cycle,group,out_y,out_x,members..."

    order = np.argsort(schedule.cycle, kind="stable")
    cyc = schedule.cycle[order].tolist()
    xb = schedule.crossbar[order].tolist()
    drive = "window" if schedule.design is DesignKind.ZERO_PADDING else "pixel"
    halves = ("_lo", "_hi") if schedule.design is DesignKind.RED_FOLDED else ("", "")
    kinds = [(drive if on else "zero") + halves[t % 2]
             for on, t in zip(schedule.live[order].tolist(), cyc)]
    sa = schedule.src_a[order].tolist()
    sb = schedule.src_b[order].tolist()

    # group member lists in cycle order
    members: dict[int, list[int]] = {}
    for gid, x in zip(schedule.group_id[order].tolist(), xb):
        if gid >= 0:
            members.setdefault(gid, []).append(x)

    # groups keyed by completing cycle
    by_cycle: dict[int, list[int]] = {}
    for gid, gc in enumerate(schedule.group_cycle.tolist()):
        by_cycle.setdefault(gc, []).append(gid)

    ow = output_shape(schedule.layer)[1]

    n = len(cyc)
    pos = 0
    for t in range(schedule.cycle_count):
        while pos < n and cyc[pos] == t:
            yield f"{t},{xb[pos]},{kinds[pos]},{sa[pos]},{sb[pos]}"
            pos += 1
        for gid in sorted(by_cycle.get(t, ())):
            mem = ",".join(str(v) for v in members.get(gid, ()))
            yield f"{t},{gid},{gid // ow},{gid % ow},{mem}"
