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
  coordinates that fall off the input feature map become zero drives:
  they keep the accumulation-group structure uniform but are skipped in
  activation counts.

A schedule stores its drives only (`CycleSchedule`); whether a drive is
live, its kind and its accumulation group (its output pixel, served by
the sub-crossbars of its computation mode) follow from where it sits.
Folding doubles the cycle count, even phases driving rows 0..C-1 of each
folded sub with the even original sub's input and odd phases rows
C..2C-1 with the odd one's, so the cycle's parity names the half.

A design is its weight layout (mapping) plus its schedule, which depends
on the spatial geometry only: each block drives one tile a cycle, the
baselines being the one-block case with s = 1 (`_tiles`).  It is built in
(block, cycle) ordered parts of up to `_CACHE_BUDGET` drives
(`schedule_parts`), each column copied from small per-axis arrays;
`lower`, its one check, proves the parts against the layer's closed form
a chunk at a time, so a run never holds a whole schedule
(`build_schedule` joins the parts for the dump and the tests).  Every
design lowers to the same `Program`, one strided rectangle per kernel
position, grouped by the computation mode it adds into (`_rectangles`,
clipped once per layer from red's tiles), which `execute` runs on the
unpadded input mode by mode.  Zero drives, the inserted and border zeros
of a zero-padding window and cropped padding-free products add nothing
and are left out; the hardware does that work, and `trace_of_program`
counts it from the program.  The dump (`dump_schedule_text`) formats
drives and group rows in cycle order a chunk of text at a time.  Schedule
columns take the narrowest dtype that holds what they store
(`_index_dtype`: int16 on FCN_Deconv2's zero-skipping schedules), each
stage widens what it computes from them so that nothing wraps, and each
allocates at most about one column of scratch on top of what it returns.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .mapping import DesignKind, MappingPlan
from .tensor import (DeconvLayerSpec, Tensor3, _add_modes, _check_input, _modes, compute_dtype,
                     output_shape)

__all__ = [
    "InputKind",
    "ModePartition",
    "CycleSchedule",
    "PostOpCounts",
    "ExecutionTrace",
    "partition_modes",
    "schedule_parts",
    "build_schedule",
    "trace_of_program",
    "Program",
    "lower",
    "execute",
    "dump_schedule_lines",
    "dump_schedule_text",
]


class InputKind:
    """Codes of the derived `CycleSchedule.kind` view, which perfbench's
    tests read; a schedule stores neither a kind nor `live`."""

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


def _index_dtype(*values: int) -> type[np.signedinteger]:
    """The narrowest of int16, int32 and int64 that holds every integer
    whose magnitude is at most that of one of `values`.  A schedule's
    builder passes what its columns store: its cycle count, its block
    count and its source coordinates, zero drives' overhang included
    (int16 on FCN_Deconv2's zero-skipping schedules, int32 on its
    zero-padding one).  Anything computed from a column that can grow past
    those values is widened first, since under NEP 50 a narrow array times
    a Python int keeps the array's dtype and wraps silently."""
    bound = max(abs(int(v)) for v in values)
    return np.int16 if bound < 2**15 else np.int32 if bound < 2**31 else np.int64


@dataclass
class CycleSchedule:
    """Columnar per-cycle input assignments: the drives, and nothing that
    follows from them.

    The four columns are parallel arrays sorted by (`block`, cycle), the
    order `lower` reads; a crossbar and a cycle fix the block, so each
    crossbar appears at most once per cycle.  Only the dump sorts by cycle.
    The builder stores them in the narrowest `_index_dtype` that holds what
    they store, 8 bytes per assignment on FCN_Deconv2's zero-skipping
    schedules; the stages that read them widen what they compute.  A
    drive's source (`src_a`, `src_b`) is a window origin on zero-padding
    and an input pixel elsewhere.  `block` and `live` are views, so
    neither can disagree with the drives.
    """

    design: DesignKind
    layer: DeconvLayerSpec
    cycle_count: int
    cycle: np.ndarray
    crossbar: np.ndarray
    src_a: np.ndarray
    src_b: np.ndarray

    @property
    def has_post_ops(self) -> bool:
        """Padding-free places its products by overlap-add and crop."""
        return self.design is DesignKind.PADDING_FREE

    @property
    def block(self) -> np.ndarray:
        """Per assignment, the weight block it multiplies: its crossbar, or
        on red_folded the C-row half of it its cycle's parity drives, so
        folded array n holds blocks 2n (low half) and 2n + 1 (high half).
        Unfolded it is the crossbar column itself; folded, one new column.
        Either is in a dtype that also holds the layer's kh*kw blocks."""
        wide = np.promote_types(self.crossbar.dtype, _index_dtype(self.layer.kh * self.layer.kw))
        if self.design is DesignKind.RED_FOLDED:
            block = (self.cycle & 1).astype(wide, copy=False)
            block += self.crossbar
            block += self.crossbar
            return block
        return self.crossbar.astype(wide, copy=False)

    @property
    def live(self) -> np.ndarray:
        """Per assignment, whether its source lies on its `_grid`.  Off it, a
        drive is a zero drive, which reads nothing; only zero skipping has
        them, where an input pixel falls off the feature map."""
        h, w = _grid(self.layer, self.design)
        live = _unsigned(self.src_a) < h
        live &= _unsigned(self.src_b) < w
        return live

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
        return 0 if self.has_post_ops else self.layer.output_h * self.layer.output_w

    def chunk(self, start: int, stop: int) -> CycleSchedule:
        """Assignments start..stop - 1 as a schedule of views, so a stage
        reads a long schedule a chunk of scratch at a time."""
        part = slice(start, stop)
        return replace(self, **{c: getattr(self, c)[part] for c in _COLUMNS})


# drives in one part or chunk, or bytes in a dump chunk's text grid, so
# that it stays in a core's cache
_CACHE_BUDGET = 65536
_COLUMNS = ("cycle", "crossbar", "src_a", "src_b")
_PIXELWISE = (DesignKind.RED, DesignKind.RED_FOLDED)


def _grid(spec: DeconvLayerSpec, design: DesignKind) -> tuple[int, int]:
    """The grid a live drive's source lies on: the output (window origins)
    on zero-padding, the input elsewhere."""
    if design is DesignKind.ZERO_PADDING:
        return spec.output_h, spec.output_w
    return spec.input_h, spec.input_w


def _zero_skipping_parts(spec: DeconvLayerSpec, design: DesignKind):
    """Every design's schedule, one tile of each block's per cycle (a
    low-half and a high-half phase each, folded), in parts of whole kernel
    rows, a kernel row one block wide cut into whole tile rows, each up to
    `_CACHE_BUDGET` drives unless one row alone has more.

    Sub (i, j) drives source (a0 + t, b0 + u) in cycle t*n_tx + u for its
    tiles (t, u) inside the output, rows times columns (`_tiles`).  Laid
    out row-major over (i, j, t, u), that is (block, cycle) order, folded
    (sub n drives n >> 1 in phase n & 1) or not.  A part's columns are
    copies of small per-axis arrays, folded there, read through a mask
    only where a crop leaves its subs' prefixes ragged."""
    folded = int(design is DesignKind.RED_FOLDED)
    (_, a0, heights, n_ty), (_, b0, widths, n_tx) = _tiles(spec, design)
    kh, kw = len(a0), len(b0)
    cycles = n_ty * n_tx << folded
    # what the columns hold, zero drives' sources included (a0, b0 rise)
    index = _index_dtype(cycles, kh * kw, a0[0], a0[-1] + n_ty - 1, b0[0], b0[-1] + n_tx - 1)
    t, u = np.arange(n_ty, dtype=index), np.arange(n_tx, dtype=index)
    a, b = a0.astype(index)[:, None, None, None] + t[:, None], b0.astype(index)[:, None, None] + u
    subs = np.arange(kh * kw, dtype=index).reshape(kh, kw, 1, 1)
    row_cycles, column_cycles = t * n_tx << folded, u << folded
    below, left = (t < heights[:, None])[:, None, :, None], u < widths[:, None, None]
    heights, widths = heights.tolist(), widths.tolist()
    for i0, i1 in _runs([height * sum(widths) for height in heights], _CACHE_BUDGET):
        sub, height, width = subs[i0:i1], max(heights[i0:i1]), max(widths)
        step = max(1, _CACHE_BUDGET // width) if kw == 1 else height  # tile rows a part
        for t0 in range(0, height, step):
            rows = slice(t0, min(t0 + step, height))
            part = np.empty((4, i1 - i0, kw, rows.stop - t0, width), dtype=index)
            # the tiles' cycles, staged in the crossbar column: a grid of
            # every tile would be a whole column on the baselines
            np.add.outer(row_cycles[rows], column_cycles[:width], out=part[1, 0, 0])
            np.add(part[1, 0, 0], sub & folded, out=part[0])
            part[1], part[2], part[3] = sub >> folded, a[i0:i1, :, rows], b[:, :, :width]
            if min(heights[i0:i1]) < rows.stop or min(widths) < width:  # a crop makes it ragged
                inside = below[i0:i1, :, rows] & left[:, :, :width]
                cycle, crossbar, src_a, src_b = (column[inside] for column in part)
            else:
                cycle, crossbar, src_a, src_b = part.reshape(4, -1)
            yield CycleSchedule(design, spec, cycles, cycle, crossbar, src_a, src_b)
            del part, cycle, crossbar, src_a, src_b  # so that its reader frees the part it drops


def _tiles(spec: DeconvLayerSpec, design: DesignKind) -> tuple[tuple, ...]:
    """The design's tile geometry per axis (rows, then columns): per kernel
    offset k, sub (i, j)'s being row i's times column j's, then the axis's
    tile count n = ceil(n_out / s).  Output y takes k from padded y + k
    (Dumoulin & Visin, arXiv:1603.07285) and input a is padded pad + s*a.
    Per k: the outputs' residue r = (pad - k) mod s, one per s-wide tile;
    tile 0's source a0 = -floor((pad - k) / s), tile t's a0 + t, below 0
    off the input; and its tiles inside the output, ceil((n_out - r) / s).
    The baselines are the one-block case: s = 1, pad - k = 0, on `_grid`."""
    if design not in _PIXELWISE:  # one offset, r = a0 = 0: each source its own tile
        return tuple((np.zeros(1, dtype=int), np.zeros(1, dtype=int), np.full(1, n), n)
                     for n in _grid(spec, design))
    s = spec.stride
    return tuple((d % s, -(d // s), -((d % s - n_out) // s), -(-n_out // s)) for d, n_out in (
        (spec.pad_top - np.arange(spec.kh), spec.output_h),
        (spec.pad_left - np.arange(spec.kw), spec.output_w)))


def _runs(sizes: list[int], budget: int):
    """Consecutive (start, stop) runs of `sizes`, each summing to at most
    `budget` unless one size alone is larger; a size 0 joins the run
    before it, or after it at the start, so that no run sums to 0."""
    start, total = 0, 0
    for k, size in enumerate(sizes):
        if size and total and total + size > budget:
            yield start, k
            start, total = k, 0
        total += size
    yield start, len(sizes)


def schedule_parts(spec: DeconvLayerSpec, design: DesignKind | str):
    """The design's schedule as consecutive parts in (block, cycle) order,
    each a `CycleSchedule` of the whole schedule's design, layer and cycle
    count holding up to `_CACHE_BUDGET` drives: whole kernel rows, or
    whole tile rows of a kernel row one block wide, which is every row of
    zero_padding's and padding_free's one block (one row may hold more).
    `lower` proves the sequence part by part, so no stage holds the whole."""
    return _zero_skipping_parts(spec, DesignKind(design))


def build_schedule(spec: DeconvLayerSpec, design: DesignKind | str) -> CycleSchedule:
    """The whole schedule: its one part as it is, or its parts copied one
    at a time into columns of its closed-form drive count, so that no more
    than the columns and one part are held."""
    design = DesignKind(design)
    parts = schedule_parts(spec, design)
    part = next(parts)
    # sub (i, j) drives its tiles inside the output
    (_, _, heights, _), (_, _, widths, _) = _tiles(spec, design)
    drives = int(heights.sum() * widths.sum())
    if part.assignment_count == drives:
        return part
    whole = replace(part, **{c: np.empty(drives, getattr(part, c).dtype) for c in _COLUMNS})
    start = 0
    while part is not None:
        stop = start + part.assignment_count
        for c in _COLUMNS:
            getattr(whole, c)[start:stop] = getattr(part, c)
        del part  # freed before the next part is built
        start, part = stop, next(parts, None)
    return whole


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


def trace_of_program(program: Program, plan: MappingPlan) -> ExecutionTrace:
    """Activity counts of a proved schedule on a plan, independent of data,
    read off its lowered program.

    The program supplies the spatial geometry and the plan C, M and the
    array shape, so a program lowered at scaled channels traces the
    full-size plan exactly like one at full channels; a geometry-only plan
    suffices.  Zero-padding and padding-free drive their one array once a
    cycle.  On zero skipping, block n's P*Q entries are sub n's live drives,
    on crossbar n (n // 2 folded, in phase n % 2): its destination tiles
    are its active cycles and their pixels in its mode the groups it
    serves.  Its scratch is a boolean mark per group and per cycle.
    """
    _check_pair(plan, program, dims=2)
    spec, design = program.layer, program.design
    kh, kw, c, m = plan.kernel_dims
    rows, cols = plan.shape
    oh, ow, _ = output_shape(spec)

    if design in _PIXELWISE:
        s, folded = spec.stride, int(design is DesignKind.RED_FOLDED)
        per_xbar = np.zeros(plan.count, dtype=np.int64)
        active = np.zeros((1 + folded, -(-oh // s), -(-ow // s)), dtype=bool)
        served = np.zeros((oh, ow), dtype=bool)
        for (ry, rx), row_taps, col_taps in program.modes:
            for (i, p, _, t), (j, q, _, u) in itertools.product(row_taps, col_taps):
                n = i * kw + j
                per_xbar[n >> folded] += p * q
                active[n & folded, t, u] = True
                served[ry::s, rx::s][t, u] = True
        cycles, active_cycles = active.size, int(np.count_nonzero(active))
        n_live = int(per_xbar.sum())
        # every live member of a group but its first adds M values
        group_adds = (n_live - int(np.count_nonzero(served))) * m
    else:  # one live drive a cycle, on zero_padding each its own group
        h, w = _grid(spec, design)
        cycles = active_cycles = n_live = h * w
        per_xbar, group_adds = np.array([n_live], dtype=np.int64), 0

    # a window drives every row of its array, a pixel C rows
    driven = n_live * (rows if design is DesignKind.ZERO_PADDING else c)
    post = PostOpCounts()
    if design is DesignKind.PADDING_FREE:
        post = PostOpCounts(
            overlap_add_values=spec.input_h * spec.input_w * kh * kw * m,
            crop_values=(spec.full_h * spec.full_w - oh * ow) * m,
        )

    return ExecutionTrace(
        cycle_count=cycles,
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


def _check_pair(plan: MappingPlan, program: Program, dims: int):
    """Same design, and the first `dims` kernel dimensions of plan and layer
    agree: (kh, kw) for a trace, which takes C and M from the plan; all
    four for execution."""
    if plan.design is not program.design:
        raise ValueError(
            f"plan design {plan.design} does not match program design {program.design}"
        )
    have, want = plan.kernel_dims[:dims], program.layer.kernel_shape[:dims]
    if have != want:
        raise ValueError(f"plan kernel dims {have} do not match layer {want}")


@dataclass(frozen=True)
class Program:
    """A schedule lowered for the runner: per computation mode, one strided
    rectangle per kernel position with entries (`_rectangles`).

    Mode ((r_y, r_x), rows, cols) owns output pixels (r_y + s*t, r_x + s*u),
    its tiles (t, u).  Row tap (i, P, source slice, destination slice) and
    column tap (j, Q, ...) have block n = i*kw + j multiply the input pixels
    of the source slices into the tiles of the destination ones, as
    `tensor._add_modes` reads them.  Every design has the same modes; only
    where block n's C x M weights sit differs (`MappingPlan.block`)."""

    design: DesignKind
    layer: DeconvLayerSpec
    modes: tuple

    def sources(self, y: int, x: int):
        """Yield the kernel positions (i, j) whose rectangle adds into output
        pixel (y, x), in the order of n, each with the input pixel (a, b) it
        multiplies there.  The pixel lies only in mode (y mod s, x mod s)."""
        (t, ry), (u, rx) = divmod(y, self.layer.stride), divmod(x, self.layer.stride)
        for mode, rows, cols in self.modes:
            for (i, _, a, ti), (j, _, b, uj) in itertools.product(rows, cols):
                if mode == (ry, rx) and ti.start <= t < ti.stop and uj.start <= u < uj.stop:
                    yield (i, j), (a.start + t - ti.start, b.start + u - uj.start)


@functools.lru_cache(maxsize=1)
def _rectangles(spec: DeconvLayerSpec) -> tuple:
    """`Program.modes`, as tuples: built once and shared by the four designs
    a layer lowers.  Per axis (`_tiles`), offset k's live span is the tiles
    whose source lies on the input: first = max(a0, 0), count =
    clip(min(a0 + tiles, n_in) - first, 0), starting at tile first - a0."""
    axes = []
    for (r, a0, tiles, _), n_in in zip(_tiles(spec, DesignKind.RED), (spec.input_h, spec.input_w)):
        first = np.maximum(a0, 0)
        count = np.maximum(np.minimum(a0 + tiles, n_in) - first, 0)
        axes.append([(r_k, n, a, a - a0_k) if n else None
                     for r_k, n, a, a0_k in zip(*(v.tolist() for v in (r, count, first, a0)))])
    return tuple((mode, tuple(rows), tuple(cols)) for mode, rows, cols in _modes(*axes))


def _line(schedule: CycleSchedule, cycle, crossbar, a, b) -> str:
    """A drive as its `dump_schedule_lines` line."""
    (h, w), (drive, halves) = _grid(schedule.layer, schedule.design), _kinds(schedule.design)
    kind = drive if 0 <= a < h and 0 <= b < w else "zero"
    return f"{cycle},{crossbar},{kind}{halves[cycle % 2]},{a},{b}"


def _refusal(schedule: CycleSchedule, k: int, what: str) -> ValueError:
    drive = (int(getattr(schedule, column)[k]) for column in _COLUMNS)
    return ValueError(f"{what}: drive {_line(schedule, *drive)}")


def _disagreement(schedule: CycleSchedule, n: int, start: int) -> ValueError:
    """Block n's first drive in a part of a schedule unlike the closed
    form's (a built schedule's), whose drives of block n before `start`
    the part's follow."""
    have, want = (np.stack([getattr(s, c)[s.block == n] for c in _COLUMNS], axis=1)
                  for s in (schedule, build_schedule(schedule.layer, schedule.design)))
    want = want[start:]
    size = min(len(have), len(want))
    k = (np.flatnonzero((have[:size] != want[:size]).any(axis=1)).tolist() + [size])[0]
    got, expected = (f"drive {_line(schedule, *rows[k].tolist())}" if k < len(rows)
                     else "no drive" for rows in (have, want))
    return ValueError(f"drive disagrees with the closed form: weight block {n} has {got}; "
                      f"the closed form has {expected}")


def _unsigned(v: np.ndarray) -> np.ndarray:
    return v.view(f"u{v.itemsize}")  # so that one u < h tests 0 <= v < h


def _check_range(schedule: CycleSchedule, values: np.ndarray, high: int, what: str,
                 low: int = 0):
    """Refuse the first drive whose value lies outside [low, high): compared
    with the bounds, never shifted, so that no dtype can wrap it inside."""
    if len(values) and (values.min() < low or values.max() >= high):
        raise _refusal(schedule, int(np.argmax((values < low) | (values >= high))), what)


def lower(schedule: CycleSchedule | Iterable[CycleSchedule]) -> Program:
    """Prove a schedule, the one check of it, and lower it once into the
    `Program` that `execute` runs, the layer's closed form (`_rectangles`).
    The schedule comes whole or as its `schedule_parts`, and is proved part
    by part, a chunk of each at a time in scratch every chunk reuses (a
    whole schedule is its own one part), holding no part past its proof:
    the last drive's (block, cycle) and each block's drive count carry
    across chunks.  Each drive lies in a cycle and names a
    block the design has, in strictly increasing (block, cycle) order;
    only zero skipping has zero drives; and no source lies more than a
    kernel off its grid, which bounds every value the proof computes, so
    its scratch takes the narrowest `_index_dtype` that cannot wrap.  Block
    n's affine map takes a drive's source to its tile (a window or
    padding_free's pixel is its own, sub n's pixel the tile of its output
    pixel), which must name the drive's cycle and lie among the block's
    tiles inside: one-to-one, so a block's drives are distinct tiles in
    row-major order, inside where a run's columns and last row are.  Where
    each run ends on the tile the block's count so far reaches, and each
    block has as many drives as tiles, they are the closed form's, zero
    drives included.  Every design's tiles are `_tiles`', on zero skipping
    the per-axis values `_rectangles` clips the program's rectangles from,
    so the proof checks those, not the clipping.  A ValueError
    names the first drive at fault by its `dump_schedule_lines` line,
    wherever the parts split the schedule."""
    parts = iter([schedule] if isinstance(schedule, CycleSchedule) else schedule)
    part = next(parts)
    spec, design, cycles = part.layer, part.design, part.cycle_count
    h, w = _grid(spec, design)
    pixelwise, folded = design in _PIXELWISE, design is DesignKind.RED_FOLDED
    # per schedule block: the offsets from a drive's source (a, b) to its
    # tile (a + da, b + db), in cycle (a + da)*dt + b + db, and its tiles
    # inside the output, rows x columns; sub (i, j)'s source a0 + t of row
    # i is tile row t (a window or padding_free's pixel its own, a0 = 0)
    (_, a0, heights, _), (_, b0, widths, dt) = _tiles(spec, design)
    tiles = np.empty((4, len(a0), len(b0)), dtype=np.int64)  # block i*kw + j: row i's, column j's
    tiles[0], tiles[1], tiles[2], tiles[3] = -a0[:, None], -b0, heights[:, None], widths
    tiles = tiles.reshape(4, -1)
    n_blocks = tiles.shape[1]
    what = f"drive names a weight block the plan does not have ({n_blocks})"
    slots = tiles[2] * tiles[3]
    # per block: what a drive's cycle exceeds a*dt + b by, then the above
    table = np.array([tiles[0] * dt + tiles[1], *tiles]).T
    # a checked source lies within a kernel of its grid and a checked cycle
    # within the schedule's, so all the map computes lies within this
    scratch = _index_dtype((h + 2 * spec.kh) * dt + w + 2 * spec.kw)
    excess, flags = np.empty(_CACHE_BUDGET, dtype=scratch), np.empty(_CACHE_BUDGET, dtype=bool)
    drives = np.zeros(n_blocks, dtype=np.int64)  # per block, its drives read so far
    last = (-1, -1)  # the (block, cycle) of the last drive read
    pending = None  # a fault at the last chunk's last drive
    while part is not None:
        if (part.design, part.layer, part.cycle_count) != (design, spec, cycles):
            raise ValueError(f"a part of another schedule: {part.design} with "
                             f"{part.cycle_count} cycles, after {design} with {cycles}")
        for k in range(0, part.assignment_count, _CACHE_BUDGET):
            chunk = part.chunk(k, k + _CACHE_BUDGET) if len(part.cycle) > _CACHE_BUDGET else part
            cycle, crossbar, src_a, src_b = (getattr(chunk, c) for c in _COLUMNS)
            # every drive in a cycle, naming a block the design has: its
            # crossbar before folding doubles it, then, where kh*kw is odd,
            # its block, not the last folded array's idle high half
            _check_range(chunk, cycle, cycles, f"drive outside the schedule's {cycles} cycles")
            _check_range(chunk, crossbar, -(-n_blocks // 2) if folded else n_blocks, what)
            n = chunk.block
            if folded and n_blocks % 2:
                _check_range(chunk, n, n_blocks, what)
            if not pixelwise:  # only zero skipping has zero drives
                live = chunk.live
                if not live.all():
                    raise _refusal(chunk, int(np.argmin(live)), f"zero drive on the {design} design")
            else:  # a zero drive's source may lie off its grid, but not far
                for values, size, k_size in ((src_a, h, spec.kh), (src_b, w, spec.kw)):
                    _check_range(chunk, values, size + k_size, "drive source more than a kernel "
                                 "off its grid", low=-k_size)
            # each drive after the one before it, the first after the last
            # chunk's last: the blocks never fall, and cycles rise in a block
            after, back = (int(n[0]), int(cycle[0])) > last, flags[: len(n) - 1]
            if after and not np.less(n[1:], n[:-1], out=back).any():
                starts = np.searchsorted(n, np.arange(n_blocks + 1, dtype=n.dtype))
                runs = starts[1:] - starts[:-1]
                m = np.flatnonzero(runs)
                first, end = starts[m], starts[m + 1] - 1
                np.less_equal(cycle[1:], cycle[:-1], out=back)[first[1:] - 1] = False
            if not after or back.any():
                back = (n[1:] < n[:-1]) | ((n[1:] == n[:-1]) & (cycle[1:] <= cycle[:-1]))
                raise _refusal(chunk, 1 + int(np.argmax(back)) if after else 0,
                               "drive out of weight-block order, (block, cycle) strictly increasing")
            if pending is not None:
                raise pending
            last = (int(n[-1]), int(cycle[-1]))
            drives += runs
            # a drive names its tile's cycle where its excess e over a*dt + b
            # is its block's; a run's tiles, in columns inside, rise from row
            # 0, and follow its block's earlier ones where its last's rank is
            # its block's count so far
            e = np.multiply(src_a, dt, out=excess[: len(n)], dtype=scratch)
            e += src_b
            np.subtract(cycle >> 1 if folded else cycle, e, out=e)
            offset, da, db, rows, columns = table[m].T
            ty = src_a[end] + da
            gaps = ty * columns + src_b[end] + db != drives[m] - 1
            (e_low, b_low), (e_high, b_high) = ([f.reduceat(v, first) for v in (e, src_b)]
                                                for f in (np.minimum, np.maximum))
            ok = (e_low == offset) & (e_high == offset) & (b_low >= -db) & (b_high < columns - db)
            if not (ok & (ty < rows) & ~gaps).all():
                # the first drive at fault, reading the table drive by drive
                offset, da, db, rows, columns = (np.repeat(t, runs) for t in table.T)
                bad = (e != offset) | (_unsigned(src_a + da) >= _unsigned(rows))
                bad |= _unsigned(src_b + db) >= _unsigned(columns)
                bad[end[gaps]] = True
                j = int(np.argmax(bad))
                pending = _disagreement(chunk, int(n[j]), int(drives[n[j]] - runs[n[j]]))
                # a drive of the next chunk moved before a chunk's last, as
                # in the whole schedule, is refused as out of order first
                if j < len(bad) - 1:
                    raise pending
        # no view of this part outlives it while the next is built
        part = chunk = cycle = crossbar = src_a = src_b = n = values = None
        part = next(parts, None)
    if pending is not None:
        raise pending
    # where the counts differ, a block ends before the closed form's next drive
    if (drives != slots).any():
        block = int(np.flatnonzero(drives != slots)[0])
        empty = CycleSchedule(design, spec, cycles, *np.zeros((4, 0), dtype=np.int64))
        raise _disagreement(empty, block, int(drives[block]))
    return Program(design=design, layer=spec, modes=_rectangles(spec))


def execute(plan: MappingPlan, program: Program, input: Tensor3) -> Tensor3:
    """Run one input through a lowered schedule's VMMs and sum the groups.

    Every design runs the same blocks on the unpadded input, in the
    `compute_dtype` of the input and the plan's `weight_bound`, its
    kernel's max|w|, so no trial reduces the weights; mode by mode
    (`Program.modes`, `tensor._add_modes`), each block's source rectangle
    times its C x M weights, wherever the design holds them
    (`MappingPlan.block`).  A mode with no block (kh < s) leaves its pixels
    zero.  Integer sums are exact in any order: the int64 result equals
    the oracle exactly.  `trace_of_program` counts the activity of a run."""
    _check_pair(plan, program, dims=4)
    spec = program.layer
    if plan.crossbars is None:
        raise ValueError("a geometry-only plan holds no weights to execute")
    _check_input(input, spec)
    dtype = compute_dtype(input.data, plan.weight_bound, spec.kh * spec.kw * spec.channels)
    # in the result dtype: integer-valued products below 2^53 convert exactly
    acc = np.zeros(output_shape(spec), dtype=np.result_type(input.data, plan.crossbars[0]))
    _add_modes(acc, input.data, dtype, program.modes, (spec.stride, spec.stride),
               lambda i, j: plan.block(i * spec.kw + j))
    return Tensor3(acc)


# ---------------------------------------------------------------------------
# Schedule dump
# ---------------------------------------------------------------------------

def _kinds(design: DesignKind) -> tuple[str, tuple[str, str]]:
    """A live drive's dump kind, and the suffixes naming a folded half."""
    live = "window" if design is DesignKind.ZERO_PADDING else "pixel"
    return live, (("_lo", "_hi") if design is DesignKind.RED_FOLDED else ("", ""))


def dump_schedule_lines(schedule: CycleSchedule):
    """The lines of `dump_schedule_text`, for a reader that wants lines."""
    return (line for text in dump_schedule_text(schedule) for line in text.splitlines())


def dump_schedule_text(schedule: CycleSchedule):
    """Stable text dump: per cycle, assignment lines then group lines, each
    ending in a newline, yielded a chunk of whole lines at a time.

    The one reader that wants cycle order.  One stable argsort of a key,
    2*cycle for each (block, cycle) ordered assignment and 2*cycle + 1 for
    each group row, puts the assignments in cycle order, each cycle's by
    crossbar, and its group rows after them.  A tile's group rows, one per
    output pixel in row-major order, follow the cycle that completes it:
    its last phase on red_folded, on zero_padding the cycle, each output
    pixel its own tile.  A group's members are the crossbars of its output
    pixel's computation mode, in cycle order.  Each field of a line is a
    row of a text table that spells every value the field can hold once
    (`_numbers`, `_words`); the lines are put together from table rows a
    chunk of at most `_CACHE_BUDGET` bytes at a time (`_dump_text`), each
    yielded as it is after the two header lines, so beyond the text it
    yields the dump holds its key and order, 10 to 16 bytes a row, its
    tables and one chunk.  A drive outside the layer's cycles or crossbars,
    or more than a kernel off its grid, which no built schedule has, is
    refused with a ValueError before any text.

    Assignment: cycle,crossbar_index,input_kind,a,b
    Group:      cycle,group,output_y,output_x,member_crossbars...
    Coordinates are 0-based (row, col); window coordinates address the
    padded image, pixel coordinates the original input feature map, and a
    group's output pixel is divmod(group, output_w).  The kind is `zero`
    for a zero drive; a live drive is a `window` on zero_padding and a
    `pixel` elsewhere.  On red_folded the kind carries the driven half:
    `_lo` on even cycles, `_hi` on odd ones.
    """
    spec, design, drives = schedule.layer, schedule.design, schedule.assignment_count
    (h, w), (oh, ow, _) = _grid(spec, design), output_shape(spec)
    cycles, groups = schedule.cycle_count, schedule.group_count
    # the integer fields' values, zero drives' overhang included: the cycle,
    # the crossbar or group, the source or output row and column
    first = -max(spec.kh, spec.kw)
    bounds = ((0, cycles), (0, max(spec.kh * spec.kw, oh * ow if groups else 0)),
              (first, max(h, oh) - first), (first, max(w, ow) - first))
    for column, (low, high) in zip(_COLUMNS, bounds):
        _check_range(schedule, getattr(schedule, column), high,
                     f"drive outside the dump's [{low}, {high}) {column} bounds", low)
    yield (f"# design={design.value} cycles={cycles}\n# assignment: cycle,crossbar,kind,a,b  "
           "group: cycle,group,out_y,out_x,members...\n")

    phases = 2 if design is DesignKind.RED_FOLDED else 1
    s = spec.stride if design in _PIXELWISE else 1
    key = np.empty(drives + groups, dtype=_index_dtype(2 * cycles))
    key[:drives] = schedule.cycle
    key[:drives] *= 2
    if groups:  # output pixel (y, x)'s tile completes in its last phase
        y, x = (np.arange(n, dtype=key.dtype) // s * 2 * phases for n in (oh, ow))
        np.add.outer(y * -(-ow // s), x + 2 * phases - 1, out=key[drives:].reshape(oh, ow))
    order = np.argsort(key, kind="stable")

    # a line's fields, each a code into its table: the cycle, the crossbar
    # or group and the source or output row, each followed by a comma; a
    # drive's kind, zero or not, then its half, and a comma, or a group
    # row's nothing; the source or output column; a drive row's newline, or
    # a group's members, a folded group's even subs first as they drive its
    # first phase, and a newline
    live, halves = _kinds(design)
    members = [b"\n", b",0\n"]
    if design in _PIXELWISE:
        members[1:] = [("," + ",".join(str(n // phases) for n in sorted(
            (i * spec.kw + j for i, j in positions), key=lambda n: (n % phases, n))) + "\n")
            .encode() for positions in partition_modes(spec).modes.values()]
    numbers = _numbers(first, max(high for _, high in bounds), b",")
    tables = (numbers, numbers, _words([f"{k}{half},".encode() for k in (live, "zero")
                                        for half in halves] + [b""]),
              numbers, _numbers(*bounds[3]), _words(members))
    # a group's members by its output row's mode row and its column's
    modes = (1 + (spec.pad_top - np.arange(oh)) % s * s, (spec.pad_left - np.arange(ow)) % s)
    step = max(1, _CACHE_BUDGET // (8 * sum(t.shape[1] for t in tables)))
    for k in range(0, len(order), step):
        yield _dump_text(schedule, key, order[k : k + step], tables, first, modes)


def _dump_text(schedule: CycleSchedule, key: np.ndarray, rows: np.ndarray,
               tables: tuple[np.ndarray, ...], first: int,
               modes: tuple[np.ndarray, np.ndarray]) -> str:
    """The lines of rows `rows` of `dump_schedule_lines`' key order, each
    ending in a newline: a row below `schedule.assignment_count` is that
    drive, any other the group of output pixel row - drives.  Each of its
    fields is a row of its table, the integer fields' tables starting at
    the value `first`; they are copied side by side, a word column at a
    time, into a NUL-padded grid whose NULs are then dropped."""
    spec, drives = schedule.layer, schedule.assignment_count
    h, w = _grid(spec, schedule.design)
    cell = key[rows].astype(np.int64)  # widened, as the codes add to it
    group = (cell & 1).astype(bool)
    cycle = cell >> 1
    pixel = np.where(group, rows - drives, 0)  # a group row's group, y*ow + x
    y, x = np.divmod(pixel, spec.output_w)
    # a group row reads the last drive, and discards it
    crossbar, src_a, src_b = (np.take(getattr(schedule, c), rows, mode="clip")
                              for c in _COLUMNS[1:])
    zero = _unsigned(src_a) >= h
    zero |= _unsigned(src_b) >= w
    codes = (cycle - first, np.where(group, pixel, crossbar) - first,
             np.where(group, len(tables[2]) - 1, 2 * zero + (cycle & 1)),
             np.where(group, y, src_a) - first, np.where(group, x, src_b) - first,
             np.where(group, modes[0][y] + modes[1][x], 0))
    grid = np.empty((len(rows), sum(t.shape[1] for t in tables)), dtype=np.uint64)
    column = 0
    for table, code in zip(tables, codes):
        for words in table.T:
            grid[:, column] = words[code]
            column += 1
    return grid.tobytes().translate(None, b"\0").decode("ascii")


def _words(texts: list[bytes]) -> np.ndarray:
    """The texts as the rows of a table of NUL-padded 8-byte words."""
    width = max(1, -(-max(map(len, texts)) // 8))
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(len(texts), width)


def _numbers(low: int, high: int, end: bytes = b"") -> np.ndarray:
    """`_words` of the decimal integers low..high - 1, each followed by
    `end`: their digits by divmod by 10, right-aligned after a minus sign
    where one is negative, NUL-padded."""
    values = np.arange(low, high)
    digits, sign = len(str(max(-low, high - 1))), int(low < 0)
    text = np.zeros((len(values), -(-(sign + digits + len(end)) // 8) * 8), dtype=np.uint8)
    text[:, sign + digits : sign + digits + len(end)] = np.frombuffer(end, dtype=np.uint8)
    if sign:
        text[:, 0] = np.where(values < 0, ord("-"), 0)
    q = np.abs(values)
    for column in range(sign + digits - 1, sign - 1, -1):
        tens = q // 10
        text[:, column] = np.where(q > 0, q - 10 * tens + ord("0"), 0)
        q = tens
    text[:, sign + digits - 1] |= ord("0")  # a zero's one digit
    return text.view(np.uint64)
