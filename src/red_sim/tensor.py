"""Dense tensors, layer geometry, and the two reference deconvolution routes.

Transposed convolution (deconvolution) is computed here by two independent
software algorithms that must agree element-exactly in integer mode:

* zero-padding route: insert stride-1 zeros between input pixels, add a
  zero border, then run a stride-1 valid correlation with the kernel;
* padding-free route: rotate the kernel by 180 degrees, scatter each input
  pixel's kernel-sized product block onto a full canvas with overlap-add,
  then crop the canvas edges.

Both serve as oracles for the crossbar dataflow simulations.  Integer
arithmetic is exact or refused: `compute_dtype` picks float64 (on BLAS)
while every partial sum is an integer below 2^53, int64 up to 2^63 - 1,
and raises `OverflowError` beyond; integer input gives int64 output.  The
module also hosts the zero-redundancy analyzer, which counts how many of
the zero-padding route's multiplications consume an inserted or border zero.

Coordinate convention: (row, column) a.k.a. (y, x), row-major throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor3",
    "Kernel4",
    "DeconvLayerSpec",
    "output_shape",
    "dilate_and_pad",
    "conv2d_valid",
    "rotate180",
    "deconv_oracle_zero_padding",
    "deconv_oracle_padding_free",
    "compute_dtype",
    "zero_redundancy_ratio",
]


def _is_int(value) -> bool:
    """A JSON integer: `bool` is an `int` in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _canonical(data, ndim: int, what: str) -> np.ndarray:
    """Validate rank and dims >= 1; coerce to int64 (default) or float64.

    The result may share memory with `data`; `Kernel4` decides whether
    to copy it, and takes its bound from it once.  Unsigned values
    int64 cannot hold are refused, not wrapped.  NaN and infinities are
    refused too: 0 * inf is NaN, so skipping a zero, as red and the
    zero-padding route do, would change the result."""
    arr = np.asarray(data)
    if arr.ndim != ndim:
        raise ValueError(f"{what} must have {ndim} dimensions, got shape {arr.shape}")
    if any(d < 1 for d in arr.shape):
        raise ValueError(f"{what} dimensions must all be >= 1, got shape {arr.shape}")
    if arr.dtype.kind == "u" and int(arr.max()) > np.iinfo(np.int64).max:
        raise OverflowError(f"{what} holds unsigned values above 2^63 - 1")
    if arr.dtype.kind in "iub":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "f":
        if not np.isfinite(arr).all():
            raise ValueError(f"{what} holds NaN or infinite values")
        return arr.astype(np.float64, copy=False)
    raise TypeError(f"{what} must be integer or float data, got dtype {arr.dtype}")


def _abs_max(a: np.ndarray) -> int:
    # max and min instead of np.abs: no array-sized temporary
    return max(int(a.max()), -int(a.min()))


class Tensor3:
    """A height x width x channels feature map.

    Integer data is held as int64 so equivalence checks stay exact; float
    data is held as float64 and compared with a relative tolerance.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _canonical(data, 3, "Tensor3")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor3(h={self.height}, w={self.width}, c={self.channels}, dtype={self.data.dtype})"


class Kernel4:
    """A kh x kw x channels x filters weight tensor, laid out (i, j, c, m).

    `weight_bound`, max|w| over integer weights (None for float ones), is
    taken once, when the kernel is built; the oracles and
    `mapping.build_plan` read it instead of reducing the weights again.
    So that the bound cannot go stale, a kernel owns its weights and
    freezes them: `data` is read-only, so a write through it raises.
    Data converted from another dtype or from a list is the kernel's own.
    Data that shares memory with the array given is copied, so a caller
    writing that array leaves the kernel as it was, unless the array is
    read-only and owns its memory: then it is kept uncopied, and its
    owner promises that no view taken before it was frozen writes to it,
    as `bench.run_suite` does for its draws.  A copy of a 5x5x512x256
    int64 kernel takes 4-9 ms, the higher when its pages fault in.
    """

    __slots__ = ("_data", "_bound")

    def __init__(self, data):
        weights = _canonical(data, 4, "Kernel4")
        if np.may_share_memory(weights, data) and (
                weights.flags.writeable or weights.base is not None):
            weights = weights.copy()
        weights.flags.writeable = False
        self._data = weights
        self._bound = _abs_max(weights) if weights.dtype.kind == "i" else None

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def weight_bound(self) -> int | None:
        return self._bound

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def __repr__(self):
        kh, kw, c, m = self.shape
        return f"Kernel4(kh={kh}, kw={kw}, c={c}, m={m})"


@dataclass(frozen=True)
class DeconvLayerSpec:
    """Hyper-parameters of one deconvolution layer.

    Cropping is carried as four independent per-side pixel counts because
    some benchmark layers need a total crop that no symmetric padding value
    can produce.  Each side's crop must stay below the kernel extent so the
    implied border padding (k - 1 - crop) is never negative.  Degenerate
    configurations that shrink the output (e.g. stride 1 with full crops,
    which reduces to a plain valid convolution) are allowed as long as the
    output dimensions stay positive.
    """

    input_h: int
    input_w: int
    channels: int
    kh: int
    kw: int
    filters: int
    stride: int
    crop_top: int = 0
    crop_bottom: int = 0
    crop_left: int = 0
    crop_right: int = 0

    def __post_init__(self):
        for name in ("input_h", "input_w", "channels", "kh", "kw", "filters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.stride < 1:
            raise ValueError("stride must be ≥ 1")
        for name in ("crop_top", "crop_bottom"):
            c = getattr(self, name)
            if not 0 <= c <= self.kh - 1:
                raise ValueError(f"{name} must be in [0, kh-1], got {c} for kh={self.kh}")
        for name in ("crop_left", "crop_right"):
            c = getattr(self, name)
            if not 0 <= c <= self.kw - 1:
                raise ValueError(f"{name} must be in [0, kw-1], got {c} for kw={self.kw}")
        if self.output_h < 1 or self.output_w < 1:
            raise ValueError(
                f"computed output size {self.output_h}x{self.output_w} must be >= 1x1"
            )

    # --- derived geometry -------------------------------------------------

    @property
    def kernel_shape(self) -> tuple[int, int, int, int]:
        """(kh, kw, channels, filters), the shape of the layer's kernel."""
        return self.kh, self.kw, self.channels, self.filters

    @property
    def output_h(self) -> int:
        return self.stride * (self.input_h - 1) + self.kh - self.crop_top - self.crop_bottom

    @property
    def output_w(self) -> int:
        return self.stride * (self.input_w - 1) + self.kw - self.crop_left - self.crop_right

    @property
    def pad_top(self) -> int:
        return self.kh - 1 - self.crop_top

    @property
    def pad_bottom(self) -> int:
        return self.kh - 1 - self.crop_bottom

    @property
    def pad_left(self) -> int:
        return self.kw - 1 - self.crop_left

    @property
    def pad_right(self) -> int:
        return self.kw - 1 - self.crop_right

    @property
    def dilated_h(self) -> int:
        return self.stride * (self.input_h - 1) + 1

    @property
    def dilated_w(self) -> int:
        return self.stride * (self.input_w - 1) + 1

    @property
    def padded_h(self) -> int:
        return self.dilated_h + self.pad_top + self.pad_bottom

    @property
    def padded_w(self) -> int:
        return self.dilated_w + self.pad_left + self.pad_right

    @property
    def full_h(self) -> int:
        """Uncropped scatter-canvas height of the padding-free route."""
        return self.stride * (self.input_h - 1) + self.kh

    @property
    def full_w(self) -> int:
        return self.stride * (self.input_w - 1) + self.kw


def output_shape(spec: DeconvLayerSpec) -> tuple[int, int, int]:
    """(output_h, output_w, filters) implied by the layer hyper-parameters."""
    return spec.output_h, spec.output_w, spec.filters


def _check_input(input: Tensor3, spec: DeconvLayerSpec):
    if input.shape != (spec.input_h, spec.input_w, spec.channels):
        raise ValueError(
            f"input shape {input.shape} does not match layer "
            f"({spec.input_h}, {spec.input_w}, {spec.channels})"
        )


def _check_kernel(kernel: Kernel4, spec: DeconvLayerSpec):
    if kernel.shape != spec.kernel_shape:
        raise ValueError(f"kernel shape {kernel.shape} does not match layer {spec.kernel_shape}")


def compute_dtype(data: np.ndarray, w_bound: int | None, terms: int) -> np.dtype:
    """The dtype in which sums of `terms` products of `data` entries and
    weights of max|w| `w_bound` are exact.  `w_bound` is a kernel's
    `Kernel4.weight_bound`, or a plan's, which is its kernel's: an int, or
    None for float weights.

    For integer operands, bound = max|x| * max|w| * terms bounds every
    partial sum.  Below 2^53 each partial sum is an integer that float64
    holds exactly, so float64 -- which numpy multiplies on BLAS -- gives
    the exact result in any summation order or thread split.  Up to
    2^63 - 1, int64 does.  Beyond that the operands are refused: a silent
    wrap could pass as agreement between two equally wrong routes.  Float
    operands are computed in float64 and compared with a tolerance.
    """
    if data.dtype.kind != "i" or w_bound is None:
        return np.dtype(np.float64)
    bound = _abs_max(data) * w_bound * terms
    if bound < 2**53:
        return np.dtype(np.float64)
    if bound > np.iinfo(np.int64).max:
        raise OverflowError(
            f"int64 overflow possible: max|x| * max|w| * {terms} = {bound} > 2^63 - 1"
        )
    return np.dtype(np.int64)


def dilate_and_pad(input: Tensor3, spec: DeconvLayerSpec) -> Tensor3:
    """Insert stride-1 zeros between pixels and add the zero border.

    Original pixel (a, b, c) lands at (pad_top + a*stride, pad_left + b*stride, c).
    Sliding a kh x kw window with stride 1 over the result visits exactly
    output_h x output_w positions.
    """
    _check_input(input, spec)
    return Tensor3(_dilate_and_pad(input.data, spec, input.data.dtype))


def _dilate_and_pad(data: np.ndarray, spec: DeconvLayerSpec, dtype) -> np.ndarray:
    s = spec.stride
    canvas = np.zeros((spec.padded_h, spec.padded_w, spec.channels), dtype=dtype)
    canvas[spec.pad_top : spec.pad_top + spec.dilated_h : s,
           spec.pad_left : spec.pad_left + spec.dilated_w : s] = data
    return canvas


def _lattice(nonzero: np.ndarray, k: int, n_out: int):
    """The evenly spaced indices that hold every `nonzero` one of an axis,
    (first, count, step), the step the gcd of their gaps, so that it may
    hold a few zero indices; and per kernel offset t < k its `_modes` tap,
    where outputs o < n_out with o + t on the lattice lie, or None."""
    index = np.flatnonzero(nonzero).tolist()
    if not index:
        return (0, 0, 1), [None] * k
    step = int(np.gcd.reduce(np.diff(index))) if len(index) > 1 else 1
    first, count = index[0], (index[-1] - index[0]) // step + 1
    taps = []
    for t in range(k):  # output r + step*v reads lattice index v - d
        d, r = divmod(first - t, step)
        v0, v1 = max(0, d), min(-(-(n_out - r) // step), count + d)
        taps.append((r, v1 - v0, v0 - d, v0) if v0 < v1 else None)
    return (first, count, step), taps


def _modes(rows: list, cols: list) -> tuple:
    """Kernel taps grouped into computation modes: `rows[i]`, row i's
    (residue r_y, count P, source start, start on the sub-lattice of
    outputs of that residue) or None, and `cols[j]` put taps (i, j) in
    mode ((r_y, r_x), rows (i, P, source slice, destination slice), cols)."""
    axes = ({}, {})
    for groups, taps in zip(axes, (rows, cols)):
        for k, tap in enumerate(taps):
            if tap:
                r, size, a, t = tap
                groups.setdefault(r, []).append((k, size, slice(a, a + size), slice(t, t + size)))
    return tuple(((ry, rx), row, col) for ry, row in axes[0].items() for rx, col in axes[1].items())


def _add_modes(out: np.ndarray, source: np.ndarray, dtype, modes: tuple,
               steps: tuple[int, int], weights):
    """Add the `_modes` taps' products into `out`, computed in `dtype`.

    Mode ((r_y, r_x), rows, cols) owns out[r_y::step_y, r_x::step_x]; its
    tap (i, j) adds source[a, b] times `weights(i, j)`, C x M, into [t, u]
    of it.  Modes are disjoint: a mode of one tap writes its product
    straight into its sub-lattice, one of more sums them in a dense buffer
    and writes that once.  At C = 1, with no matmul for BLAS to speed up,
    integer data stays in `out`'s int64, exact as `compute_dtype` admits."""
    (sy, sx), (oh, ow, m), (h, w, c) = steps, out.shape, source.shape
    dtype = out.dtype if c == 1 and out.dtype.kind == source.dtype.kind == "i" else dtype
    source = source.astype(dtype, copy=False)
    products = np.empty(h * w * m, dtype=dtype)
    scratch = np.empty(-(-oh // sy) * -(-ow // sx) * m, dtype=dtype)  # mode (0, 0)'s, the largest
    for (ry, rx), rows, cols in modes:
        lattice = out[ry::sy, rx::sx]
        dst, add = lattice, False
        if len(rows) * len(cols) > 1:
            dst = scratch[: lattice.size].reshape(lattice.shape)
            dst.fill(0)
        for i, p, a, t in rows:
            for j, q, b, u in cols:
                block = products[: p * q * m].reshape(p, q, m)
                if c == 1:  # far faster than a matmul
                    np.multiply(source[a, b], weights(i, j).astype(dtype, copy=False), out=block)
                else:  # a block's cast weights are freed before the next block's
                    np.matmul(source[a, b].reshape(-1, c), weights(i, j).astype(dtype, copy=False),
                              out=block.reshape(-1, m))
                if add:  # into the product: numpy copies a small strided in-place operand twice
                    block += dst[t, u]
                dst[t, u] = block
                add = dst is not lattice  # the first product is written
        if dst is not lattice:
            lattice[...] = dst


def conv2d_valid(image: Tensor3, kernel: Kernel4) -> Tensor3:
    """Stride-1 valid cross-correlation (no kernel flip).

    out(y, x, m) = sum_{i,j,c} image(y+i, x+j, c) * kernel(i, j, c, m)

    Tap (i, j) adds into output pixel (y, x) only where image row y + i
    and image column x + j hold a nonzero value: skipping an all-zero row
    or column is exact for any image.  The nonzero rows and columns are
    found once per call, from the data (`_lattice`), and the values on
    their lattice copied into a compact array, whose contiguous rectangles
    the taps sum mode by mode (`_add_modes`).  `dilate_and_pad` inserts
    all-zero rows and columns: all but one in `stride` of its image's.
    """
    kh, kw, c, m = kernel.shape
    if image.channels != c:
        raise ValueError(f"channel mismatch: image has {image.channels}, kernel has {c}")
    if image.height < kh or image.width < kw:
        raise ValueError(f"image {image.height}x{image.width} smaller than kernel {kh}x{kw}")
    dtype = compute_dtype(image.data, kernel.weight_bound, kh * kw * c)
    return Tensor3(_correlate(image.data, kernel, dtype, np.result_type(image.data, kernel.data)))


def _correlate(img: np.ndarray, kernel: Kernel4, dtype, out_dtype) -> np.ndarray:
    """`conv2d_valid` on arrays, computed in `dtype`, into `out_dtype`."""
    kh, kw, c, m = kernel.shape
    oh, ow = img.shape[0] - kh + 1, img.shape[1] - kw + 1
    pixels = img.any(axis=2)
    (r0, nr, gr), rows = _lattice(pixels.any(axis=1), kh, oh)
    (c0, nc, gc), cols = _lattice(pixels.any(axis=0), kw, ow)
    compact = img[r0 : r0 + gr * nr : gr, c0 : c0 + gc * nc : gc].copy()
    out, taps = np.zeros((oh, ow, m), dtype=out_dtype), kernel.data.astype(dtype, copy=False)
    _add_modes(out, compact, dtype, _modes(rows, cols), (gr, gc), lambda i, j: taps[i, j])
    return out


def rotate180(kernel: Kernel4) -> Kernel4:
    """Spatially rotated kernel: out(i, j) = in(kh-1-i, kw-1-j), channels kept."""
    return Kernel4(kernel.data[::-1, ::-1, :, :])


def deconv_oracle_zero_padding(
    input: Tensor3, kernel: Kernel4, spec: DeconvLayerSpec
) -> Tensor3:
    """Deconvolution as zero insertion, on a canvas in the compute dtype,
    followed by valid correlation, both on arrays that nothing re-checks."""
    _check_input(input, spec)
    _check_kernel(kernel, spec)
    dtype = compute_dtype(input.data, kernel.weight_bound,
                          spec.kh * spec.kw * spec.channels)
    out = _correlate(_dilate_and_pad(input.data, spec, dtype), kernel, dtype,
                     np.result_type(input.data, kernel.data))
    assert out.shape == output_shape(spec)
    return Tensor3(out)


def deconv_oracle_padding_free(
    input: Tensor3, kernel: Kernel4, spec: DeconvLayerSpec
) -> Tensor3:
    """Deconvolution as rotate / per-pixel MAC / overlap-add / crop.

    Each input pixel (a, b) scatters, for every kernel position (i, j), the
    channel-mixed product onto full-canvas position (a*stride + i, b*stride + j).
    Under the cross-correlation convention of `conv2d_valid` the scattered
    block is the 180-degree-rotated kernel, which makes this route agree
    with the zero-padding route bit-exactly in integer mode.
    """
    _check_input(input, spec)
    _check_kernel(kernel, spec)
    dtype = compute_dtype(input.data, kernel.weight_bound,
                          spec.kh * spec.kw * spec.channels)
    # the rotation as a reversed view: the cast makes its one copy
    rot = kernel.data[::-1, ::-1].transpose(2, 0, 1, 3).astype(dtype, order="C")
    flat = input.data.reshape(spec.input_h * spec.input_w, spec.channels).astype(dtype, copy=False)
    products = flat @ rot.reshape(spec.channels, -1)
    # overlap-add each kernel position's products onto the canvas, then crop
    s = spec.stride
    blocks = products.reshape(spec.input_h, spec.input_w, spec.kh, spec.kw, spec.filters)
    canvas = np.zeros((spec.full_h, spec.full_w, spec.filters), dtype=dtype)
    for i in range(spec.kh):
        for j in range(spec.kw):
            canvas[i : i + spec.dilated_h : s, j : j + spec.dilated_w : s] += blocks[:, :, i, j]
    top, left = spec.crop_top, spec.crop_left
    out = canvas[top : top + spec.output_h, left : left + spec.output_w]
    return Tensor3(out.astype(np.result_type(input.data, kernel.data)))


# ---------------------------------------------------------------------------
# Zero-redundancy analysis
# ---------------------------------------------------------------------------


def _window_live_counts(n_in: int, k: int, stride: int, pad_lead: int, padded: int, n_out: int):
    """Per window position along one axis, how many of its k slots sit on an
    original (non-inserted, non-border) pixel site."""
    live = np.zeros(padded + 1, dtype=np.int64)
    sites = pad_lead + stride * np.arange(n_in)
    live[sites + 1] = 1
    csum = np.cumsum(live)
    ys = np.arange(n_out)
    return csum[ys + k] - csum[ys]


def zero_redundancy_ratio(spec: DeconvLayerSpec) -> float:
    """Fraction of zero-padding-route multiplications fed a padded zero.

    Counts exactly, over every output window position and kernel slot, the
    multiplications whose image operand is an inserted or border zero.  The
    count separates by axis (a window's live slots are live-rows x live-cols),
    and the channel and filter counts cancel.
    """
    rows = _window_live_counts(
        spec.input_h, spec.kh, spec.stride, spec.pad_top, spec.padded_h, spec.output_h
    )
    cols = _window_live_counts(
        spec.input_w, spec.kw, spec.stride, spec.pad_left, spec.padded_w, spec.output_w
    )
    nonzero = int(rows.sum()) * int(cols.sum())
    total = spec.output_h * spec.output_w * spec.kh * spec.kw
    return 1.0 - nonzero / total
