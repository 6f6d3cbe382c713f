import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from red_sim.tensor import (
    DeconvLayerSpec,
    Kernel4,
    Tensor3,
    compute_dtype,
    conv2d_valid,
    deconv_oracle_padding_free,
    deconv_oracle_zero_padding,
    dilate_and_pad,
    output_shape,
    rotate180,
    zero_redundancy_ratio,
)

RNG = np.random.default_rng(1234)


def rand_tensor(h, w, c, lo=-8, hi=9):
    return Tensor3(RNG.integers(lo, hi, (h, w, c)))


def rand_kernel(kh, kw, c, m, lo=-8, hi=9):
    return Kernel4(RNG.integers(lo, hi, (kh, kw, c, m)))


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the library implementations)
# ---------------------------------------------------------------------------


def conv2d_loops(image, kernel):
    """Six nested loops, straight from the correlation definition."""
    h, w, c = image.shape
    kh, kw, _, m = kernel.shape
    out = np.zeros((h - kh + 1, w - kw + 1, m), dtype=np.int64)
    for y in range(out.shape[0]):
        for x in range(out.shape[1]):
            for i in range(kh):
                for j in range(kw):
                    for ch in range(c):
                        for f in range(m):
                            out[y, x, f] += image[y + i, x + j, ch] * kernel[i, j, ch, f]
    return out


def redundancy_by_enumeration(spec):
    """Count padded-zero multiplications by walking every window slot of an
    all-ones input's padded image."""
    ones = Tensor3(np.ones((spec.input_h, spec.input_w, 1), dtype=np.int64))
    one_ch = DeconvLayerSpec(
        spec.input_h, spec.input_w, 1, spec.kh, spec.kw, 1, spec.stride,
        spec.crop_top, spec.crop_bottom, spec.crop_left, spec.crop_right,
    )
    pad = dilate_and_pad(ones, one_ch).data[:, :, 0]
    oh, ow, _ = output_shape(one_ch)
    zero_slots = 0
    for y in range(oh):
        for x in range(ow):
            window = pad[y : y + spec.kh, x : x + spec.kw]
            zero_slots += int((window == 0).sum())
    return zero_slots / (oh * ow * spec.kh * spec.kw)


# ---------------------------------------------------------------------------
# shapes and layer validation
# ---------------------------------------------------------------------------


def test_output_shape_fcn_deconv2():
    spec = DeconvLayerSpec(70, 70, 21, 16, 16, 21, 8)
    assert output_shape(spec) == (568, 568, 21)


def test_output_shape_gan_deconv3():
    spec = DeconvLayerSpec(4, 4, 512, 4, 4, 256, 2, 1, 1, 1, 1)
    assert output_shape(spec) == (8, 8, 256)


def test_output_shape_identity_layer():
    spec = DeconvLayerSpec(1, 1, 1, 1, 1, 7, 1)
    assert output_shape(spec) == (1, 1, 7)


def test_spec_rejects_bad_fields():
    with pytest.raises(ValueError, match="stride"):
        DeconvLayerSpec(4, 4, 1, 3, 3, 1, 0)
    with pytest.raises(ValueError, match="crop_top"):
        DeconvLayerSpec(4, 4, 1, 3, 3, 1, 2, crop_top=3)
    with pytest.raises(ValueError, match=r"crop_left must be in \[0, kw-1\], got 2 for kw=2"):
        DeconvLayerSpec(4, 4, 1, 3, 2, 1, 2, crop_left=2)
    with pytest.raises(ValueError, match=r"crop_right must be in \[0, kw-1\], got -1"):
        DeconvLayerSpec(4, 4, 1, 3, 3, 1, 2, crop_right=-1)
    with pytest.raises(ValueError, match="input_h"):
        DeconvLayerSpec(0, 4, 1, 3, 3, 1, 2)


def test_spec_rejects_vanishing_output():
    # stride 1, 1x1 input, full crops on both row sides: output height -1
    with pytest.raises(ValueError, match="output"):
        DeconvLayerSpec(1, 1, 1, 3, 3, 1, 1, 2, 2, 0, 0)


def test_tensor_validation():
    with pytest.raises(ValueError):
        Tensor3(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Kernel4(np.zeros((2, 2, 0, 1)))
    with pytest.raises(TypeError, match="Tensor3 must be integer or float data, got dtype <U1"):
        Tensor3(np.full((1, 2, 3), "a"))
    with pytest.raises(TypeError, match="Kernel4 must be integer or float data, got dtype complex"):
        Kernel4(np.zeros((1, 1, 1, 1), dtype=complex))
    assert Tensor3(np.zeros((1, 2, 3))).shape == (1, 2, 3)


# ---------------------------------------------------------------------------
# dilate_and_pad
# ---------------------------------------------------------------------------


def test_dilate_and_pad_hand_case():
    # 2x2 input, K=2, s=2, no crops: 5x5 with originals at (1,1),(1,3),(3,1),(3,3)
    spec = DeconvLayerSpec(2, 2, 1, 2, 2, 1, 2)
    t = Tensor3(np.array([[[1], [2]], [[3], [4]]], dtype=np.int64))
    pad = dilate_and_pad(t, spec)
    assert pad.shape == (5, 5, 1)
    grid = pad.data[:, :, 0]
    assert grid[1, 1] == 1 and grid[1, 3] == 2 and grid[3, 1] == 3 and grid[3, 3] == 4
    assert grid.sum() == 10  # everything else zero


def test_dilate_and_pad_degenerate_identity():
    # s=1 with full crops on every side: no dilation, no border
    spec = DeconvLayerSpec(4, 5, 2, 3, 3, 1, 1, 2, 2, 2, 2)
    t = rand_tensor(4, 5, 2)
    assert np.array_equal(dilate_and_pad(t, spec).data, t.data)


def test_dilate_and_pad_asymmetric():
    # 4x4 input, K=4, s=2, crop 1 per side: 7 dilated + 2+2 border = 11
    spec = DeconvLayerSpec(4, 4, 1, 4, 4, 1, 2, 1, 1, 1, 1)
    t = Tensor3(np.ones((4, 4, 1), dtype=np.int64))
    pad = dilate_and_pad(t, spec)
    assert pad.shape == (11, 11, 1)
    assert int((pad.data != 0).sum()) == 16


def test_dilate_nonzero_count_property():
    spec = DeconvLayerSpec(3, 5, 2, 3, 2, 1, 3, 1, 0, 1, 1)
    t = Tensor3(RNG.integers(1, 9, (3, 5, 2)))  # nonzero everywhere
    pad = dilate_and_pad(t, spec)
    per_channel = (pad.data != 0).sum(axis=(0, 1))
    assert all(int(n) == 15 for n in per_channel)


def test_dilate_and_pad_shape_mismatch():
    spec = DeconvLayerSpec(2, 2, 1, 2, 2, 1, 2)
    with pytest.raises(ValueError, match="does not match"):
        dilate_and_pad(Tensor3(np.zeros((2, 3, 1))), spec)


# ---------------------------------------------------------------------------
# conv2d_valid
# ---------------------------------------------------------------------------


def test_conv2d_single_cell():
    out = conv2d_valid(
        Tensor3(np.array([[[3]]], dtype=np.int64)),
        Kernel4(np.array([[[[5]]]], dtype=np.int64)),
    )
    assert out.data.tolist() == [[[15]]]


def test_conv2d_all_ones():
    out = conv2d_valid(
        Tensor3(np.ones((3, 3, 1), dtype=np.int64)),
        Kernel4(np.ones((2, 2, 1, 1), dtype=np.int64)),
    )
    assert out.shape == (2, 2, 1)
    assert (out.data == 4).all()


def test_conv2d_matches_loop_oracle():
    img = rand_tensor(5, 5, 2)
    ker = rand_kernel(3, 3, 2, 4)
    want = conv2d_loops(img.data, ker.data)
    assert np.array_equal(conv2d_valid(img, ker).data, want)
    # all-zero image rows are skipped: none, the first, the last, every
    # row, and rows at random positions
    h = 7
    masks = [[], [0], [h - 1], list(range(h))]
    masks += [np.flatnonzero(RNG.random(h) < 0.5) for _ in range(8)]
    for zero_rows in masks:
        img = rand_tensor(h, 6, 2)
        img.data[zero_rows] = 0
        ker = rand_kernel(3, 2, 2, 3)
        want = conv2d_loops(img.data, ker.data)
        assert np.array_equal(conv2d_valid(img, ker).data, want), zero_rows
    # all-zero image columns are skipped too, alone and with zero rows: on
    # dilated images, whose nonzero rows and columns are evenly spaced
    # unless a zeroed input row or column breaks the spacing, and on
    # irregular masks, whose slices also read some zero rows and columns
    spec = DeconvLayerSpec(4, 5, 2, 3, 3, 3, 2)
    w = spec.input_w
    columns = [[], [0], [w - 1], list(range(w))]
    columns += [np.flatnonzero(RNG.random(w) < 0.5) for _ in range(4)]
    for zero_cols, zero_rows in itertools.product(columns, ([], [0], [1])):
        t = rand_tensor(spec.input_h, w, 2)
        t.data[:, zero_cols] = 0
        t.data[zero_rows] = 0
        images = [dilate_and_pad(t, spec), rand_tensor(7, 8, 2)]
        images[1].data[RNG.random(7) < 0.3] = 0
        images[1].data[:, zero_cols] = 0
        for img in images:
            ker = rand_kernel(3, 3, 2, 3)
            want = conv2d_loops(img.data, ker.data)
            assert np.array_equal(conv2d_valid(img, ker).data, want), (zero_cols, zero_rows)


def test_conv2d_rejects_mismatch():
    with pytest.raises(ValueError, match="channel"):
        conv2d_valid(rand_tensor(4, 4, 2), rand_kernel(2, 2, 3, 1))
    with pytest.raises(ValueError, match="smaller"):
        conv2d_valid(rand_tensor(2, 2, 1), rand_kernel(3, 3, 1, 1))


# ---------------------------------------------------------------------------
# kernel ownership
# ---------------------------------------------------------------------------


def test_kernel_cannot_change_after_it_is_built():
    given = RNG.integers(-8, 9, (2, 3, 2, 4))
    given[1, 2, 0, 3] = -9
    want = given.copy()
    kernels = [Kernel4(given), Kernel4(given[::-1]), Kernel4(given.astype(np.int32))]
    view = given[:]  # read-only itself, but its base is still writable
    view.flags.writeable = False
    kernels.append(Kernel4(view))
    for k in kernels:
        assert k.weight_bound == 9
        with pytest.raises(ValueError, match="read-only"):
            k.data[0, 0, 0, 0] = 100
        with pytest.raises(AttributeError):
            k.data = want
        with pytest.raises(AttributeError):
            k.weight_bound = 1
    # the caller keeps writing the array it passed in
    given[...] = 100
    for k, values in zip(kernels, (want, want[::-1], want, want)):
        assert np.array_equal(k.data, values) and k.weight_bound == 9
    # a read-only array that owns its memory is handed over uncopied
    frozen = want.copy()
    frozen.flags.writeable = False
    assert Kernel4(frozen).data is frozen
    # float weights are frozen too, and have no integer bound
    floats = RNG.normal(size=(1, 2, 2, 1))
    k = Kernel4(floats)
    floats[...] = 0
    assert k.weight_bound is None and np.all(k.data != 0)


def test_kernel_repr_names_its_shape():
    assert repr(Kernel4(np.zeros((2, 3, 4, 5), dtype=np.int64))) == "Kernel4(kh=2, kw=3, c=4, m=5)"


# ---------------------------------------------------------------------------
# rotate180
# ---------------------------------------------------------------------------


def test_rotate180_simple():
    k = Kernel4(np.array([[1, 2], [3, 4]], dtype=np.int64).reshape(2, 2, 1, 1))
    assert rotate180(k).data[:, :, 0, 0].tolist() == [[4, 3], [2, 1]]


def test_rotate180_involution_and_1x1():
    k = rand_kernel(3, 4, 2, 3)
    assert np.array_equal(rotate180(rotate180(k)).data, k.data)
    one = rand_kernel(1, 1, 2, 3)
    assert np.array_equal(rotate180(one).data, one.data)


# ---------------------------------------------------------------------------
# the two oracles
# ---------------------------------------------------------------------------

TABLE_SHAPES = [
    # (ih, iw, k, s, crops) at reduced channels
    (8, 8, 5, 2, (1, 2, 1, 2)),    # GAN_Deconv1
    (4, 4, 5, 2, (1, 2, 1, 2)),    # GAN_Deconv2
    (4, 4, 4, 2, (1, 1, 1, 1)),    # GAN_Deconv3
    (6, 6, 4, 2, (1, 1, 1, 1)),    # GAN_Deconv4
    (16, 16, 4, 2, (0, 0, 0, 0)),  # FCN_Deconv1
    (70, 70, 16, 8, (0, 0, 0, 0)),  # FCN_Deconv2
]


def test_zero_padding_oracle_degenerates_to_valid_conv():
    spec = DeconvLayerSpec(5, 5, 2, 3, 3, 2, 1, 2, 2, 2, 2)
    t = rand_tensor(5, 5, 2)
    k = rand_kernel(3, 3, 2, 2)
    out = deconv_oracle_zero_padding(t, k, spec)
    assert np.array_equal(out.data, conv2d_valid(t, k).data)


def test_single_pixel_impulse_places_rotated_kernel():
    # cross-correlation orientation: the impulse response is the spatially
    # rotated kernel slice, scattered at stride offsets
    spec = DeconvLayerSpec(1, 1, 1, 3, 3, 1, 2)
    t = Tensor3(np.array([[[1]]], dtype=np.int64))
    k = rand_kernel(3, 3, 1, 1)
    out = deconv_oracle_zero_padding(t, k, spec)
    assert out.shape == (3, 3, 1)
    assert np.array_equal(out.data, rotate180(k).data[:, :, 0, :])


def test_impulse_offset_property():
    # impulse at (a, b, c): before cropping the rotated slice (., ., c, .)
    # lands at offset (s*a, s*b)
    spec = DeconvLayerSpec(3, 3, 2, 2, 2, 2, 3)
    a, b, ch = 1, 2, 1
    data = np.zeros((3, 3, 2), dtype=np.int64)
    data[a, b, ch] = 1
    k = rand_kernel(2, 2, 2, 2)
    out = deconv_oracle_padding_free(Tensor3(data), k, spec)  # crops are zero
    want = np.zeros(out.shape, dtype=np.int64)
    want[3 * a : 3 * a + 2, 3 * b : 3 * b + 2, :] = rotate180(k).data[:, :, ch, :]
    assert np.array_equal(out.data, want)


def test_oracles_refuse_int64_overflow():
    # 2^40 * 2^30 = 2^70 wraps to 0 in int64, on which both routes would agree
    spec = DeconvLayerSpec(1, 1, 1, 1, 1, 1, 1)
    t = Tensor3(np.full((1, 1, 1), 2**40))
    k = Kernel4(np.full((1, 1, 1, 1), 2**30))
    for oracle in (deconv_oracle_zero_padding, deconv_oracle_padding_free):
        with pytest.raises(OverflowError, match="int64"):
            oracle(t, k, spec)


def test_int64_bound_edges():
    def bound(*values):
        return Kernel4(np.array(values).reshape(-1, 1, 1, 1)).weight_bound

    top = np.iinfo(np.int64).max
    assert compute_dtype(np.array([top]), bound(-1), 1) == np.int64
    assert compute_dtype(np.array([2**31]), 2**31 - 1, 2) == np.int64
    with pytest.raises(OverflowError):
        compute_dtype(np.array([2**31]), 2**31, 2)
    with pytest.raises(OverflowError):  # |int64 min| itself exceeds the bound
        compute_dtype(np.array([np.iinfo(np.int64).min]), 1, 1)
    # a kernel's bound is its largest magnitude, of either sign
    assert bound(1, -2**30) == 2**30
    assert bound(*[1] * 2**16, -7) == 7
    with pytest.raises(OverflowError):
        compute_dtype(np.array([2**40]), 2**30, 1)
    # floats are not bounded, as data or as weights
    assert bound(1, 2.0**30) is None
    assert compute_dtype(np.array([2**40]), None, 1) == np.float64
    assert compute_dtype(np.array([2.0**40]), 2**30, 1) == np.float64
    # float64 below 2^53 (here 2^53 - 2^28), int64 from 2^53 on
    assert compute_dtype(np.array([2**25]), bound(-(2**25 - 1)), 8) == np.float64
    assert compute_dtype(np.array([-(2**25)]), 2**25, 8) == np.int64


def test_unsigned_values_above_int64_refused():
    # a uint64 2^63 would otherwise wrap to -2^63 in the int64 cast
    top = np.iinfo(np.int64).max
    for cls, ndim in ((Tensor3, 3), (Kernel4, 4)):
        with pytest.raises(OverflowError, match="unsigned"):
            cls(np.full((1,) * ndim, 2**63, dtype=np.uint64))
        assert cls(np.full((1,) * ndim, top, dtype=np.uint64)).data.ravel()[0] == top


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls,ndim", [(Tensor3, 3), (Kernel4, 4)])
def test_non_finite_values_refused(cls, ndim, value):
    # 0 * inf is NaN: a route that skips a zero would disagree with one
    # that multiplies it
    data = np.zeros((2,) * ndim)
    data.flat[1] = value
    with pytest.raises(ValueError, match=f"{cls.__name__} holds NaN or infinite values"):
        cls(data)
    with pytest.raises(ValueError, match="NaN or infinite"):
        cls(data.astype(np.float32))


def test_padding_free_1x1_kernel_channel_mixing():
    spec = DeconvLayerSpec(4, 4, 3, 1, 1, 2, 1)
    t = rand_tensor(4, 4, 3)
    k = rand_kernel(1, 1, 3, 2)
    out = deconv_oracle_padding_free(t, k, spec)
    want = t.data.reshape(-1, 3) @ k.data[0, 0]
    assert np.array_equal(out.data, want.reshape(4, 4, 2))


@pytest.mark.parametrize("ih,iw,k,s,crops", TABLE_SHAPES)
def test_cross_oracle_agreement_on_benchmark_shapes(ih, iw, k, s, crops):
    spec = DeconvLayerSpec(ih, iw, 4, k, k, 4, s, *crops)
    t = rand_tensor(ih, iw, 4)
    ker = rand_kernel(k, k, 4, 4)
    zp = deconv_oracle_zero_padding(t, ker, spec)
    pf = deconv_oracle_padding_free(t, ker, spec)
    assert np.array_equal(zp.data, pf.data)


def test_oracle_linearity():
    spec = DeconvLayerSpec(3, 3, 2, 3, 3, 2, 2, 1, 0, 0, 1)
    k = rand_kernel(3, 3, 2, 2)
    a, b = rand_tensor(3, 3, 2), rand_tensor(3, 3, 2)
    both = deconv_oracle_zero_padding(Tensor3(a.data + b.data), k, spec)
    assert np.array_equal(
        both.data,
        deconv_oracle_zero_padding(a, k, spec).data
        + deconv_oracle_zero_padding(b, k, spec).data,
    )


def test_float_mode_agreement():
    spec = DeconvLayerSpec(4, 4, 3, 3, 3, 2, 2)
    t = Tensor3(RNG.normal(size=(4, 4, 3)))
    k = Kernel4(RNG.normal(size=(3, 3, 3, 2)))
    zp = deconv_oracle_zero_padding(t, k, spec).data
    pf = deconv_oracle_padding_free(t, k, spec).data
    assert np.allclose(zp, pf, rtol=1e-9, atol=1e-9 * np.abs(zp).max())


@settings(max_examples=60, deadline=None)
@given(
    ih=st.integers(1, 4), iw=st.integers(1, 4),
    kh=st.integers(1, 4), kw=st.integers(1, 4),
    s=st.integers(1, 3), c=st.integers(1, 2), m=st.integers(1, 2),
    ct=st.integers(0, 3), cl=st.integers(0, 3),
    seed=st.integers(0, 2**31),
)
def test_cross_oracle_property(ih, iw, kh, kw, s, c, m, ct, cl, seed):
    ct, cl = min(ct, kh - 1), min(cl, kw - 1)
    try:
        spec = DeconvLayerSpec(ih, iw, c, kh, kw, m, s, ct, 0, cl, 0)
    except ValueError:
        return  # vanishing output, not a valid layer
    rng = np.random.default_rng(seed)
    t = Tensor3(rng.integers(-8, 9, (ih, iw, c)))
    k = Kernel4(rng.integers(-8, 9, (kh, kw, c, m)))
    zp = deconv_oracle_zero_padding(t, k, spec)
    pf = deconv_oracle_padding_free(t, k, spec)
    assert np.array_equal(zp.data, pf.data)


# ---------------------------------------------------------------------------
# zero redundancy
# ---------------------------------------------------------------------------


def test_redundancy_hand_case():
    # 2x2 input, K=2, s=2: 16 live slots of 64
    spec = DeconvLayerSpec(2, 2, 1, 2, 2, 1, 2)
    assert zero_redundancy_ratio(spec) == 0.75


def test_redundancy_zero_when_no_padding():
    spec = DeconvLayerSpec(5, 5, 1, 3, 3, 1, 1, 2, 2, 2, 2)
    assert zero_redundancy_ratio(spec) == 0.0


def test_redundancy_large_stride_asymptote():
    spec = DeconvLayerSpec(16, 16, 1, 64, 64, 1, 32)
    assert zero_redundancy_ratio(spec) >= 0.995


@pytest.mark.parametrize(
    "ih,iw,k,s,crops",
    [(2, 2, 2, 2, (0, 0, 0, 0)), (3, 4, 3, 2, (1, 0, 0, 1)), (4, 3, 4, 3, (2, 1, 0, 0)),
     (5, 5, 2, 1, (1, 0, 1, 0))],
)
def test_redundancy_matches_enumeration(ih, iw, k, s, crops):
    spec = DeconvLayerSpec(ih, iw, 3, k, k, 2, s, *crops)
    assert zero_redundancy_ratio(spec) == pytest.approx(
        redundancy_by_enumeration(spec), abs=1e-12
    )


def test_redundancy_monotone_in_stride_for_k2s():
    ratios = [
        zero_redundancy_ratio(DeconvLayerSpec(16, 16, 1, 2 * s, 2 * s, 1, s))
        for s in (2, 4, 8, 16, 32)
    ]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
