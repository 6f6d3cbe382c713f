"""Crossbar weight layouts for the three deconvolution designs.

A crossbar array is modeled as an ideal signed weight matrix: wordlines
(rows) carry inputs, bitlines (columns) collect dot products.  Three
layouts store the same kh*kw*C*M weight values:

* zero-padding: one tall (kh*kw*C) x M matrix, one column per filter;
* padding-free: one wide C x (kh*kw*M) matrix holding the rotated kernel;
* pixel-wise: kh*kw sub-crossbars of C x M, sub n = i*kw + j holding the
  C x M slice of kernel position (i, j).

The pixel-wise layout can be folded to halve the sub-crossbar count: pairs
of subs stack into 2C x M arrays driven on alternating half-row cycles,
trading time for periphery area.

Cells store signed values exactly; differential-pair or bit-sliced cell
encodings are left to the cost model's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .tensor import DeconvLayerSpec, Kernel4, _check_kernel, rotate180

__all__ = [
    "DesignKind",
    "CrossbarMatrix",
    "SubCrossbarTensor",
    "PortCount",
    "MappingPlan",
    "vmm",
    "map_zero_padding",
    "map_padding_free",
    "map_pixel_wise",
    "fold_area_efficient",
    "plan_from_sct",
    "build_plan",
]


class DesignKind(str, Enum):
    ZERO_PADDING = "zero_padding"
    PADDING_FREE = "padding_free"
    RED = "red"
    RED_FOLDED = "red_folded"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class CrossbarMatrix:
    """One physical crossbar: rows x cols ideal weight cells."""

    rows: int
    cols: int
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (self.rows, self.cols):
            raise ValueError(
                f"weights shape {self.weights.shape} != ({self.rows}, {self.cols})"
            )

    @property
    def cells(self) -> int:
        return self.rows * self.cols


def vmm(xbar: CrossbarMatrix, input: np.ndarray) -> np.ndarray:
    """One crossbar activation: exact vector-matrix product of length cols."""
    vec = np.asarray(input)
    if vec.shape != (xbar.rows,):
        raise ValueError(f"input length {vec.shape} != rows ({xbar.rows},)")
    return vec @ xbar.weights


@dataclass
class SubCrossbarTensor:
    """The ordered collection of pixel-wise sub-crossbars.

    Unfolded, sub n = i*kw + j is C x M with entry (c, m) = kernel(i, j, c, m).
    Folded, sub n is 2C x M stacking original subs 2n (rows 0..C-1) and 2n+1
    (rows C..2C-1); an odd original count leaves the last second half zero.
    """

    kh: int
    kw: int
    channels: int
    filters: int
    subs: list[CrossbarMatrix]
    folded: bool = False

    def __post_init__(self):
        kk = self.kh * self.kw
        expect_count = (kk + 1) // 2 if self.folded else kk
        if len(self.subs) != expect_count:
            raise ValueError(
                f"expected {expect_count} sub-crossbars, got {len(self.subs)}"
            )
        rows = 2 * self.channels if self.folded else self.channels
        for n, sub in enumerate(self.subs):
            if (sub.rows, sub.cols) != (rows, self.filters):
                raise ValueError(
                    f"sub {n} is {sub.rows}x{sub.cols}, expected {rows}x{self.filters}"
                )

    @property
    def count(self) -> int:
        return len(self.subs)


@dataclass(frozen=True)
class PortCount:
    instances: int
    ports: int


def _inventory(crossbars: list[CrossbarMatrix]) -> dict[str, PortCount]:
    """One driver bank, decoder, mux, read-circuit bank and shift-adder bank
    per physical crossbar; input-side ports scale with rows, output-side
    with columns."""
    n = len(crossbars)
    rows = sum(x.rows for x in crossbars)
    cols = sum(x.cols for x in crossbars)
    return {
        "wd": PortCount(n, rows),
        "dec": PortCount(n, rows),
        "bd": PortCount(n, cols),
        "mux": PortCount(n, cols),
        "rc": PortCount(n, cols),
        "sa": PortCount(n, cols),
    }


def _split_sizes(total: int, cap: int | None) -> list[int]:
    if cap is None or total <= cap:
        return [total]
    n = -(-total // cap)
    return [cap] * (n - 1) + [total - cap * (n - 1)]


@dataclass
class MappingPlan:
    """How one design's weights occupy crossbar cells.

    `crossbars` are the logical arrays the schedules address.  When an
    optional physical array size cap is applied, each logical array splits
    into a grid of tiles; a logical activation then activates every tile,
    column tiles concatenate and row tiles contribute partial sums.  The
    default leaves arrays at their logical size.
    """

    design: DesignKind
    crossbars: list[CrossbarMatrix]
    kernel_dims: tuple[int, int, int, int]
    sct: SubCrossbarTensor | None = None
    max_rows: int | None = None
    max_cols: int | None = None
    tile_grids: list[tuple[list[int], list[int]]] = field(default_factory=list)
    periphery_inventory: dict[str, PortCount] = field(default_factory=dict)

    def __post_init__(self):
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        if self.max_cols is not None and self.max_cols < 1:
            raise ValueError("max_cols must be >= 1")
        self.tile_grids = [
            (_split_sizes(x.rows, self.max_rows), _split_sizes(x.cols, self.max_cols))
            for x in self.crossbars
        ]
        self.periphery_inventory = _inventory(list(self.physical_arrays()))

    def physical_arrays(self):
        """Yield (rows, cols) of every physical tile as lightweight crossbars."""
        for xbar, (row_sizes, col_sizes) in zip(self.crossbars, self.tile_grids):
            r0 = 0
            for rs in row_sizes:
                c0 = 0
                for cs in col_sizes:
                    yield CrossbarMatrix(rs, cs, xbar.weights[r0 : r0 + rs, c0 : c0 + cs])
                    c0 += cs
                r0 += rs

    @property
    def cell_count(self) -> int:
        return sum(x.cells for x in self.crossbars)

    def row_tiles(self, index: int) -> int:
        return len(self.tile_grids[index][0])

    def col_tiles(self, index: int) -> int:
        return len(self.tile_grids[index][1])

    def stored_values(self) -> np.ndarray:
        """All meaningful stored weight values (fold padding excluded)."""
        if self.sct is not None and self.sct.folded:
            c = self.sct.channels
            kk = self.sct.kh * self.sct.kw
            halves = []
            for n, sub in enumerate(self.sct.subs):
                halves.append(sub.weights[:c])
                if 2 * n + 1 < kk:
                    halves.append(sub.weights[c:])
            return np.concatenate([h.ravel() for h in halves])
        return np.concatenate([x.weights.ravel() for x in self.crossbars])


def map_zero_padding(kernel: Kernel4, max_rows: int | None = None,
                     max_cols: int | None = None) -> MappingPlan:
    """Spread each filter into one column: (kh*kw*C) rows x M columns,
    row index i*kw*C + j*C + c."""
    kh, kw, c, m = kernel.shape
    weights = kernel.data.reshape(kh * kw * c, m)
    xbar = CrossbarMatrix(kh * kw * c, m, weights)
    return MappingPlan(
        design=DesignKind.ZERO_PADDING,
        crossbars=[xbar],
        kernel_dims=(kh, kw, c, m),
        max_rows=max_rows,
        max_cols=max_cols,
    )


def map_padding_free(kernel: Kernel4, max_rows: int | None = None,
                     max_cols: int | None = None) -> MappingPlan:
    """One wide array of C rows x (kh*kw*M) columns holding the rotated
    kernel, column index (i*kw + j)*M + m."""
    kh, kw, c, m = kernel.shape
    weights = rotate180(kernel).data.transpose(2, 0, 1, 3).reshape(c, kh * kw * m)
    xbar = CrossbarMatrix(c, kh * kw * m, np.ascontiguousarray(weights))
    return MappingPlan(
        design=DesignKind.PADDING_FREE,
        crossbars=[xbar],
        kernel_dims=(kh, kw, c, m),
        max_rows=max_rows,
        max_cols=max_cols,
    )


def map_pixel_wise(kernel: Kernel4) -> SubCrossbarTensor:
    """Pixel-wise layout: sub-crossbar i*kw + j holds kernel slice (i, j)."""
    kh, kw, c, m = kernel.shape
    subs = [
        CrossbarMatrix(c, m, np.ascontiguousarray(kernel.data[i, j]))
        for i in range(kh)
        for j in range(kw)
    ]
    return SubCrossbarTensor(kh, kw, c, m, subs, folded=False)


def fold_area_efficient(sct: SubCrossbarTensor) -> SubCrossbarTensor:
    """Halve the sub-crossbar count by stacking pairs into 2C x M arrays.

    Folded sub n holds original sub 2n in rows 0..C-1 and original sub 2n+1
    in rows C..2C-1.  An odd original count zero-fills the last second half.
    """
    if sct.folded:
        raise ValueError("sub-crossbar tensor is already folded")
    c, m = sct.channels, sct.filters
    kk = sct.kh * sct.kw
    subs = []
    for n in range((kk + 1) // 2):
        top = sct.subs[2 * n].weights
        if 2 * n + 1 < kk:
            bottom = sct.subs[2 * n + 1].weights
        else:
            bottom = np.zeros_like(top)
        subs.append(CrossbarMatrix(2 * c, m, np.vstack([top, bottom])))
    return SubCrossbarTensor(sct.kh, sct.kw, c, m, subs, folded=True)


def plan_from_sct(sct: SubCrossbarTensor, max_rows: int | None = None,
                  max_cols: int | None = None) -> MappingPlan:
    return MappingPlan(
        design=DesignKind.RED_FOLDED if sct.folded else DesignKind.RED,
        crossbars=list(sct.subs),
        kernel_dims=(sct.kh, sct.kw, sct.channels, sct.filters),
        sct=sct,
        max_rows=max_rows,
        max_cols=max_cols,
    )


def build_plan(kernel: Kernel4, design: DesignKind | str,
               layer_spec: DeconvLayerSpec | None = None,
               max_rows: int | None = None,
               max_cols: int | None = None) -> MappingPlan:
    """Construct the weight layout for any of the four design variants.

    A given `layer_spec` must match the kernel's shape."""
    if layer_spec is not None:
        _check_kernel(kernel, layer_spec)
    design = DesignKind(design)
    if design is DesignKind.ZERO_PADDING:
        return map_zero_padding(kernel, max_rows, max_cols)
    if design is DesignKind.PADDING_FREE:
        return map_padding_free(kernel, max_rows, max_cols)
    sct = map_pixel_wise(kernel)
    if design is DesignKind.RED_FOLDED:
        sct = fold_area_efficient(sct)
    return plan_from_sct(sct, max_rows, max_cols)
