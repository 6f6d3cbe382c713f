"""Crossbar weight layouts for the three deconvolution designs.

A crossbar array is a plain 2-D signed weight array: wordlines (rows)
carry inputs, bitlines (columns) collect dot products.  Three layouts
store the same kh*kw*C*M weight values:

* zero-padding: one tall (kh*kw*C) x M matrix, one column per filter;
* padding-free: one wide C x (kh*kw*M) matrix holding the rotated kernel;
* pixel-wise: kh*kw sub-crossbars of C x M, sub n = i*kw + j holding the
  C x M slice of kernel position (i, j).

The pixel-wise layout can be folded to halve the sub-crossbar count: pairs
of subs stack into 2C x M arrays driven on alternating half-row cycles,
trading time for periphery area.

Cells store signed values exactly; differential-pair or bit-sliced cell
encodings are left to the cost model's coefficients.

A design's arrays, modeled at their logical size, share one shape: its
count and shape, and so its cell count and periphery inventory, follow
from (kh, kw, C, M) alone.  One table holds each design's count, shape,
weight layout (a list of arrays) and where in it each kernel position's
weights sit, and a plan built without a kernel is all costing needs.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

from .tensor import DeconvLayerSpec, Kernel4, _check_kernel

__all__ = [
    "DesignKind",
    "MappingPlan",
    "map_pixel_wise",
    "fold_area_efficient",
    "build_plan",
]


class DesignKind(str, Enum):
    ZERO_PADDING = "zero_padding"
    PADDING_FREE = "padding_free"
    RED = "red"
    RED_FOLDED = "red_folded"

    def __str__(self):
        return self.value


@dataclass
class MappingPlan:
    """How one design's weights occupy crossbar cells.

    The design and `kernel_dims` fix `count` identical arrays of `shape`
    (rows, cols), which the schedules address.  `crossbars` lists their
    2-D weight arrays, laid out from the `kernel` the plan is built with,
    or is None in a geometry-only plan, built without one, which is all
    the trace and the cost model read.  The arrays are read-only, and
    `weight_bound` is the kernel's `Kernel4.weight_bound` (None for float
    weights or none): max|w| over the arrays too, since a layout moves the
    kernel's values and red_folded adds only zeros, so no plan reduces its
    arrays.  `periphery_inventory` maps each periphery circuit to its port
    count over all arrays.
    """

    design: DesignKind
    kernel_dims: tuple[int, int, int, int]
    kernel: InitVar[Kernel4 | None] = None
    crossbars: list[np.ndarray] | None = field(init=False)
    weight_bound: int | None = field(init=False)
    count: int = field(init=False)
    shape: tuple[int, int] = field(init=False)
    periphery_inventory: dict[str, int] = field(init=False)

    def __post_init__(self, kernel):
        self.design = DesignKind(self.design)
        self.count, self.shape = _DESIGNS[self.design][0](*self.kernel_dims)
        self.crossbars, self.weight_bound = None, None
        if kernel is not None:
            if kernel.shape != tuple(self.kernel_dims):
                raise ValueError(f"kernel shape {kernel.shape} does not match the plan's "
                                 f"kernel {self.kernel_dims}")
            self.crossbars = _DESIGNS[self.design][1](kernel)
            for x in self.crossbars:  # views of the kernel are read-only already
                x.flags.writeable = False
            self.weight_bound = kernel.weight_bound
        # one instance of each periphery circuit per array: input-side ports
        # scale with rows, output-side ports with columns
        rows, cols = self.shape
        self.periphery_inventory = {**dict.fromkeys(("wd", "dec"), self.count * rows),
                                    **dict.fromkeys(("bd", "mux", "rc", "sa"), self.count * cols)}

    @property
    def cell_count(self) -> int:
        return self.count * self.shape[0] * self.shape[1]

    def block(self, n: int) -> np.ndarray:
        """Kernel position n = i*kw + j's weights, `kernel[i, j]`, a view."""
        return _DESIGNS[self.design][2](self.crossbars, n, *self.kernel_dims)


def _zero_padding_layout(kernel: Kernel4) -> list[np.ndarray]:
    """Each filter spread into one column: (kh*kw*C) rows x M columns, row
    index i*kw*C + j*C + c."""
    kh, kw, c, m = kernel.shape
    return [kernel.data.reshape(kh * kw * c, m)]


def _padding_free_layout(kernel: Kernel4) -> list[np.ndarray]:
    """One wide array of C rows x (kh*kw*M) columns holding the rotated
    kernel, column index (i*kw + j)*M + m.  The rotation is a reversed
    view, so the reshape makes the layout's one copy of the kernel
    (`tensor.rotate180` would make a second)."""
    kh, kw, c, m = kernel.shape
    weights = kernel.data[::-1, ::-1].transpose(2, 0, 1, 3).reshape(c, kh * kw * m)
    return [np.ascontiguousarray(weights)]


def map_pixel_wise(kernel: Kernel4) -> list[np.ndarray]:
    """Pixel-wise layout: C x M sub-crossbar i*kw + j holds kernel slice (i, j)."""
    kh, kw, c, m = kernel.shape
    return list(kernel.data.reshape(kh * kw, c, m))


def fold_area_efficient(subs: list[np.ndarray]) -> list[np.ndarray]:
    """Halve the sub-crossbar count by stacking pairs into 2C x M arrays.

    Folded sub n holds sub 2n in rows 0..C-1 and sub 2n+1 in rows C..2C-1.
    An odd count zero-fills the last second half.
    """
    if len(subs) % 2:
        subs = [*subs, np.zeros_like(subs[-1])]
    return [np.vstack(pair) for pair in zip(subs[::2], subs[1::2])]


# per design: (array count, logical array shape) from (kh, kw, C, M); weight
# layout; kernel position n's C x M weights in it, a view (rotated: ~n = -1 - n)
_DESIGNS = {
    DesignKind.ZERO_PADDING: (lambda kh, kw, c, m: (1, (kh * kw * c, m)), _zero_padding_layout,
                              lambda arrays, n, kh, kw, c, m: arrays[0][n * c : n * c + c]),
    DesignKind.PADDING_FREE: (lambda kh, kw, c, m: (1, (c, kh * kw * m)), _padding_free_layout,
                              lambda arrays, n, kh, kw, c, m: arrays[0].reshape(c, -1, m)[:, ~n]),
    DesignKind.RED: (lambda kh, kw, c, m: (kh * kw, (c, m)), map_pixel_wise,
                     lambda arrays, n, kh, kw, c, m: arrays[n]),
    DesignKind.RED_FOLDED: (lambda kh, kw, c, m: ((kh * kw + 1) // 2, (2 * c, m)),
                            lambda kernel: fold_area_efficient(map_pixel_wise(kernel)),
                            lambda arrays, n, kh, kw, c, m: arrays[n // 2].reshape(2, c, m)[n % 2]),
}


def build_plan(kernel: Kernel4, design: DesignKind | str,
               layer_spec: DeconvLayerSpec | None = None) -> MappingPlan:
    """Lay the kernel's weights out for any of the four design variants.

    The plan's `weight_bound` is the kernel's, taken when the kernel was
    built.  A given `layer_spec` must match the kernel's shape.  For the
    geometry alone, build `MappingPlan(design, spec.kernel_shape)`."""
    if layer_spec is not None:
        _check_kernel(kernel, layer_spec)
    return MappingPlan(design, kernel.shape, kernel)
