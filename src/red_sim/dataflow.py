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
the cycle's parity names it.

Output pixels are produced once each; the members of an output pixel's
accumulation group are exactly the sub-crossbars of its computation mode.
Cycles advance row-major over s x s output blocks, so traces are reproducible.

A design is its weight layout (mapping) plus its schedule; one runner
executes them all.  It runs what the hardware drives: each live drive, a
window or a pixel, is read from the same zero-inserted, padded image and
multiplied by the weight rows it drives, so the runner only gathers,
multiplies and accumulates.  Zero drives add nothing and are not run.

A schedule depends on the spatial geometry only, never on C, M or data, so
one schedule per layer and design serves every input (`execute`, which
returns the output alone) and the activity counts (`trace_of_schedule`,
taken once per plan and schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .mapping import DesignKind, MappingPlan
from .tensor import (DeconvLayerSpec, Tensor3, _check_input, compute_dtype, dilate_and_pad,
                     output_shape, overlap_add_crop)

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


@dataclass
class CycleSchedule:
    """Columnar per-cycle input assignments plus the accumulation groups.

    Assignment columns are parallel arrays sorted by (cycle, crossbar); each
    crossbar appears at most once per cycle.  `group_id` indexes the group
    table, one group per output pixel: group g is output pixel
    (g // output_w, g % output_w).  Padding-free has no groups and uses -1:
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


def _sorted_columns(cycle, crossbar, live, a, b, group):
    order = np.lexsort((crossbar, cycle))
    return tuple(col[order] for col in (cycle, crossbar, live, a, b, group))


def schedule_zero_padding(spec: DeconvLayerSpec) -> CycleSchedule:
    """One gathered window per cycle, row-major over output pixels."""
    oh, ow, _ = output_shape(spec)
    n = oh * ow
    t = np.arange(n, dtype=np.int64)
    y = (t // ow).astype(np.int32)
    x = (t % ow).astype(np.int32)
    return CycleSchedule(
        design=DesignKind.ZERO_PADDING,
        layer=spec,
        cycle_count=n,
        cycle=t,
        crossbar=np.zeros(n, dtype=np.int32),
        live=np.ones(n, dtype=bool),
        src_a=y,
        src_b=x,
        group_id=t.copy(),
        group_cycle=t.copy(),
    )


def schedule_padding_free(spec: DeconvLayerSpec) -> CycleSchedule:
    """One input pixel per cycle; overlap-add and crop run as post ops."""
    n = spec.input_h * spec.input_w
    t = np.arange(n, dtype=np.int64)
    return CycleSchedule(
        design=DesignKind.PADDING_FREE,
        layer=spec,
        cycle_count=n,
        cycle=t,
        crossbar=np.zeros(n, dtype=np.int32),
        live=np.ones(n, dtype=bool),
        src_a=(t // spec.input_w).astype(np.int32),
        src_b=(t % spec.input_w).astype(np.int32),
        group_id=np.full(n, -1, dtype=np.int64),
        group_cycle=np.empty(0, dtype=np.int64),
    )


def _axis_contributions(n_out: int, k: int, stride: int, pad_lead: int, n_in: int):
    """All (out_coord, kernel_coord, in_coord) triples along one axis.

    Output coordinate y takes kernel coordinates i with y + i = pad_lead
    (mod stride); the matching input coordinate is (y + i - pad_lead) /
    stride, which may fall outside [0, n_in) at the borders.
    """
    ys, ks, ins = [], [], []
    out = np.arange(n_out, dtype=np.int64)
    for i in range(k):
        sel = out[(out + i - pad_lead) % stride == 0]
        ys.append(sel)
        ks.append(np.full(len(sel), i, dtype=np.int64))
        ins.append((sel + i - pad_lead) // stride)
    return np.concatenate(ys), np.concatenate(ks), np.concatenate(ins)


def schedule_zero_skipping(spec: DeconvLayerSpec, folded: bool = False) -> CycleSchedule:
    """RED's schedule: one s x s output tile per cycle, zeros skipped.

    Unfolded cycle count is ceil(output_h/s) * ceil(output_w/s); folding
    doubles it by splitting each cycle into a low-half and a high-half
    phase per the stacked sub-crossbar layout.
    """
    s = spec.stride
    oh, ow, _ = output_shape(spec)
    n_tx = -(-ow // s)
    n_ty = -(-oh // s)

    ry, ri, ra = _axis_contributions(oh, spec.kh, s, spec.pad_top, spec.input_h)
    cx, cj, cb = _axis_contributions(ow, spec.kw, s, spec.pad_left, spec.input_w)

    nr, nc = len(ry), len(cx)
    y = np.repeat(ry, nc)
    i = np.repeat(ri, nc)
    a = np.repeat(ra, nc)
    x = np.tile(cx, nr)
    j = np.tile(cj, nr)
    b = np.tile(cb, nr)

    cycle = (y // s) * n_tx + (x // s)
    crossbar = (i * spec.kw + j).astype(np.int32)
    live = (a >= 0) & (a < spec.input_h) & (b >= 0) & (b < spec.input_w)
    group = y * ow + x

    if folded:
        # original sub n drives folded sub n // 2 on phase n % 2
        cycle = 2 * cycle + crossbar % 2
        crossbar = crossbar // 2

    cycle, crossbar, live, a32, b32, group = _sorted_columns(
        cycle, crossbar, live, a.astype(np.int32), b.astype(np.int32), group
    )

    # group table covers every output pixel; a group completes in its tile's
    # (last phase) cycle
    gy, gx = np.divmod(np.arange(oh * ow, dtype=np.int64), ow)
    gcycle = (gy // s) * n_tx + (gx // s)
    if folded:
        gcycle = 2 * gcycle + 1

    n_cycles = n_ty * n_tx * (2 if folded else 1)
    return CycleSchedule(
        design=DesignKind.RED_FOLDED if folded else DesignKind.RED,
        layer=spec,
        cycle_count=n_cycles,
        cycle=cycle,
        crossbar=crossbar,
        live=live,
        src_a=a32,
        src_b=b32,
        group_id=group,
        group_cycle=gcycle,
    )


def build_schedule(spec: DeconvLayerSpec, design: DesignKind | str) -> CycleSchedule:
    return _DESIGNS[DesignKind(design)](spec)


def validate_schedule(schedule: CycleSchedule):
    """Schema checks in O(n): assignments strictly ordered by (cycle,
    crossbar), so one VMM per crossbar per cycle; cycles and crossbars
    below the cycle and array counts; a boolean `live` column (an integer
    one would index, not mask); on red_folded, no drive into the
    zero-fill half of the last array; zero drives on zero-skipping only;
    window origins inside the output grid, or live pixel sources inside
    the input (zero drives read nothing); one accumulation group per output
    pixel (its id names the pixel), and every assignment in one."""
    cycle, crossbar = schedule.cycle, schedule.crossbar
    design, spec = schedule.design, schedule.layer
    if schedule.live.dtype != bool:
        raise ValueError("live column is not boolean")
    if len(cycle):
        n_arrays = MappingPlan(design, spec.kernel_shape).count
        if (cycle.min() < 0 or cycle.max() >= schedule.cycle_count
                or crossbar.min() < 0 or crossbar.max() >= n_arrays):
            raise ValueError(f"cycle or crossbar index out of range ({n_arrays} arrays)")
        if (np.diff(cycle * n_arrays + crossbar) <= 0).any():
            raise ValueError("assignments not in strictly increasing (cycle, crossbar) order")
        # folded array n holds original subs 2n (low half) and 2n + 1 (high)
        if design is DesignKind.RED_FOLDED and (
                2 * crossbar + cycle % 2 >= spec.kh * spec.kw).any():
            raise ValueError("drive into the zero-fill half of the last folded array")
    if design in (DesignKind.ZERO_PADDING, DesignKind.PADDING_FREE) and not schedule.live.all():
        raise ValueError(f"zero drive on the {design} design")
    oh, ow, _ = output_shape(spec)
    if design is DesignKind.ZERO_PADDING:
        h, w, message = oh, ow, "window origin outside the output grid"
    else:
        h, w, message = spec.input_h, spec.input_w, "pixel source outside the input"
    a, b = schedule.src_a[schedule.live], schedule.src_b[schedule.live]
    if len(a) and (a.min() < 0 or a.max() >= h or b.min() < 0 or b.max() >= w):
        raise ValueError(message)
    if schedule.has_post_ops:
        if schedule.group_count != 0:
            raise ValueError("post-op schedules must not carry accumulation groups")
        return
    if schedule.group_count != oh * ow:
        raise ValueError(
            f"expected one group per output pixel ({oh * ow}), got {schedule.group_count}"
        )
    gid = schedule.group_id
    if len(gid) and (gid.min() < 0 or gid.max() >= schedule.group_count):
        raise ValueError("assignment group id out of range")


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
    geometry-only plan suffices.
    """
    _check_pair(plan, schedule, dims=2)
    kh, kw, c, m = plan.kernel_dims
    rows, cols = plan.shape

    live = schedule.live
    n_live = int(np.count_nonzero(live))
    per_xbar = np.bincount(schedule.crossbar[live], minlength=plan.count)

    # a window drives every row of its array, a pixel C rows
    driven = n_live * (rows if schedule.design is DesignKind.ZERO_PADDING else c)

    group_adds = 0
    if schedule.group_count:
        gids = schedule.group_id[live]
        members = np.bincount(gids[gids >= 0], minlength=schedule.group_count)
        group_adds = int(np.maximum(members - 1, 0).sum()) * m

    active_cycles = int(np.count_nonzero(np.bincount(schedule.cycle[live])))

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


def _check_pair(plan: MappingPlan, schedule: CycleSchedule, dims: int):
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


# values per chunk of drives and of their products, so that both blocks stay
# in a core's cache
_GATHER_BUDGET = 65536
# weights converted to the compute dtype at once: a tall crossbar is
# converted in column blocks, so its converted copy stays small
_WEIGHT_BUDGET = 1 << 20


def execute(plan: MappingPlan, schedule: CycleSchedule, input: Tensor3) -> Tensor3:
    """Run every cycle's VMMs and sum the accumulation groups.

    One runner serves every design, and it runs only what the hardware
    drives.  Zero drives add nothing and are dropped.  Each live drive is
    gathered from the zero-inserted, padded image (`_sources`): a window
    as its kh*kw pixels, a pixel as itself.  It is multiplied by the weight
    rows it drives: the whole array, or on red_folded the C-row half of its
    cycle's parity.  Per weight block, in chunks, the products are added into
    their output pixel's group, or for padding-free into the input pixel's
    product row, which the overlap-add and crop post pass then places.
    Integer data is multiplied in the dtype `compute_dtype` picks: float64
    sums of integers below 2^53 are exact, as are int64 sums, so the result
    does not depend on the order of the adds and equals the zero-padding
    oracle element-exactly; it is returned as int64.  Activity counts do
    not depend on the input: take them once per (plan, schedule) with
    `trace_of_schedule`.
    """
    _check_pair(plan, schedule, dims=4)
    spec = schedule.layer
    if plan.crossbars is None:
        raise ValueError("a geometry-only plan holds no weights to execute")
    _check_input(input, spec)
    dtype = compute_dtype(input.data, plan.crossbars, spec.kh * spec.kw * spec.channels)

    c = spec.channels
    pixels = dilate_and_pad(input, spec).data.reshape(-1, c).astype(dtype, copy=False)
    if schedule.has_post_ops:
        dest = schedule.src_a.astype(np.int64) * spec.input_w + schedule.src_b
        n_dest = spec.input_h * spec.input_w
    else:
        dest, n_dest = schedule.group_id, schedule.group_count
    cols = plan.shape[1]
    acc = np.zeros((n_dest, cols), dtype=dtype)

    live = np.flatnonzero(schedule.live)
    blocks, block = plan.crossbars, schedule.crossbar[live]
    if schedule.design is DesignKind.RED_FOLDED:
        # even cycles drive rows 0..C-1, odd cycles rows C..2C-1
        blocks = [half for crossbar in blocks for half in (crossbar[:c], crossbar[c:])]
        block = 2 * block + schedule.cycle[live] % 2
    order = np.argsort(block, kind="stable")
    bounds = np.searchsorted(block[order], np.arange(len(blocks) + 1))
    live = live[order]
    pixel, dest = _sources(schedule)[live], dest[live]
    if schedule.design is DesignKind.ZERO_PADDING:
        # window slot i*kw + j reads i*padded_w + j past the origin
        offsets = (np.arange(spec.kh)[:, None] * spec.padded_w + np.arange(spec.kw)).ravel()
    else:
        offsets = np.zeros(1, dtype=np.int64)
    rows = len(offsets) * c
    chunk = max(1, _GATHER_BUDGET // max(rows, cols))
    width = max(1, _WEIGHT_BUDGET // rows)
    for n, weight_rows in enumerate(blocks):
        # each column block of weights is converted once and serves every chunk
        for c0 in range(0, cols, width):
            weights = weight_rows[:, c0 : c0 + width].astype(dtype, copy=False)
            for t0 in range(bounds[n], bounds[n + 1], chunk):
                t1 = min(t0 + chunk, bounds[n + 1])
                drive = pixels.take(pixel[t0:t1, None] + offsets, axis=0).reshape(t1 - t0, rows)
                # add.at keeps a destination that repeats within one chunk exact
                np.add.at(acc[:, c0 : c0 + width], dest[t0:t1], drive @ weights)
    out = overlap_add_crop(acc, spec) if schedule.has_post_ops else acc.reshape(output_shape(spec))
    return Tensor3(out.astype(np.result_type(input.data, plan.crossbars[0]), copy=False))


def _sources(schedule: CycleSchedule) -> np.ndarray:
    """Per assignment, the flat index of the padded-image pixel it reads.

    On zero-padding a window (a, b) reads from its origin (a, b); on every
    other design input pixel (a, b) sits at (pad_top + a*s, pad_left + b*s).
    """
    spec = schedule.layer
    a = schedule.src_a.astype(np.int64)
    b = schedule.src_b.astype(np.int64)
    if schedule.design is not DesignKind.ZERO_PADDING:
        a, b = spec.pad_top + a * spec.stride, spec.pad_left + b * spec.stride
    return a * spec.padded_w + b


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

    cyc = schedule.cycle.tolist()
    xb = schedule.crossbar.tolist()
    drive = "window" if schedule.design is DesignKind.ZERO_PADDING else "pixel"
    halves = ("_lo", "_hi") if schedule.design is DesignKind.RED_FOLDED else ("", "")
    kinds = [(drive if on else "zero") + halves[t % 2]
             for on, t in zip(schedule.live.tolist(), cyc)]
    sa = schedule.src_a.tolist()
    sb = schedule.src_b.tolist()

    # group member lists in assignment order
    members: dict[int, list[int]] = {}
    for gid, x in zip(schedule.group_id.tolist(), xb):
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
