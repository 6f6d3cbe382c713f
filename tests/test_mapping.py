import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from red_sim.mapping import (
    DesignKind,
    MappingPlan,
    build_plan,
    fold_area_efficient,
    map_pixel_wise,
)
from red_sim.tensor import DeconvLayerSpec, Kernel4, rotate180

RNG = np.random.default_rng(77)


def rand_kernel(kh, kw, c, m):
    return Kernel4(RNG.integers(-8, 9, (kh, kw, c, m)))


# ---------------------------------------------------------------------------
# zero-padding mapping
# ---------------------------------------------------------------------------


def test_map_zero_padding_trivial():
    plan = build_plan(Kernel4(np.array([[[[7]]]], dtype=np.int64)), DesignKind.ZERO_PADDING)
    assert plan.crossbars[0].shape == (1, 1)
    assert plan.crossbars[0][0, 0] == 7


def test_map_zero_padding_gan_like_dims():
    plan = build_plan(Kernel4(np.zeros((3, 3, 512, 256), dtype=np.int64)), DesignKind.ZERO_PADDING)
    assert plan.crossbars[0].shape == (4608, 256)


def test_map_zero_padding_gan_deconv1_dims():
    plan = build_plan(Kernel4(np.zeros((5, 5, 512, 256), dtype=np.int64)), DesignKind.ZERO_PADDING)
    assert plan.crossbars[0].shape == (12800, 256)


def test_map_zero_padding_row_layout():
    k = rand_kernel(2, 3, 4, 2)
    w = build_plan(k, DesignKind.ZERO_PADDING).crossbars[0]
    for i in range(2):
        for j in range(3):
            for c in range(4):
                for m in range(2):
                    assert w[i * 3 * 4 + j * 4 + c, m] == k.data[i, j, c, m]


# ---------------------------------------------------------------------------
# padding-free mapping
# ---------------------------------------------------------------------------


def test_map_padding_free_fcn2_dims():
    plan = build_plan(Kernel4(np.zeros((16, 16, 21, 21), dtype=np.int64)), DesignKind.PADDING_FREE)
    assert plan.crossbars[0].shape == (21, 5376)


def test_map_padding_free_equals_zero_padding_for_1x1():
    k = rand_kernel(1, 1, 5, 3)
    assert np.array_equal(
        build_plan(k, DesignKind.PADDING_FREE).crossbars[0],
        build_plan(k, DesignKind.ZERO_PADDING).crossbars[0],
    )


def test_map_padding_free_holds_rotated_kernel():
    k = rand_kernel(3, 2, 4, 3)
    w = build_plan(k, DesignKind.PADDING_FREE).crossbars[0]
    rot = rotate180(k).data
    for i in range(3):
        for j in range(2):
            for c in range(4):
                for m in range(3):
                    assert w[c, (i * 2 + j) * 3 + m] == rot[i, j, c, m]


def test_cell_count_equality():
    k = rand_kernel(3, 4, 5, 6)
    zp = build_plan(k, DesignKind.ZERO_PADDING)
    assert zp.cell_count == build_plan(k, DesignKind.PADDING_FREE).cell_count == 3 * 4 * 5 * 6


# ---------------------------------------------------------------------------
# pixel-wise mapping and folding
# ---------------------------------------------------------------------------


def test_map_pixel_wise_k3():
    k = rand_kernel(3, 3, 4, 2)
    subs = map_pixel_wise(k)
    assert len(subs) == 9
    for i in range(3):
        for j in range(3):
            assert np.array_equal(subs[i * 3 + j], k.data[i, j])


def test_map_pixel_wise_1x1():
    k = rand_kernel(1, 1, 6, 4)
    subs = map_pixel_wise(k)
    assert len(subs) == 1
    assert np.array_equal(subs[0], k.data[0, 0])


def test_map_pixel_wise_fcn2_count():
    subs = map_pixel_wise(Kernel4(np.zeros((16, 16, 21, 21), dtype=np.int64)))
    assert len(subs) == 256
    assert all(s.shape == (21, 21) for s in subs)


def test_eq1_roundtrip_property():
    k = rand_kernel(4, 3, 3, 5)
    subs = map_pixel_wise(k)
    for i in range(4):
        for j in range(3):
            for c in range(3):
                for m in range(5):
                    assert subs[i * 3 + j][c, m] == k.data[i, j, c, m]


def test_fold_fcn2():
    folded = fold_area_efficient(map_pixel_wise(Kernel4(np.zeros((16, 16, 21, 21), dtype=np.int64))))
    assert len(folded) == 128
    assert all(s.shape == (42, 21) for s in folded)


def test_fold_odd_pads_last_half():
    k = rand_kernel(3, 3, 2, 2)
    folded = fold_area_efficient(map_pixel_wise(k))
    assert len(folded) == 5
    assert (folded[4][2:] == 0).all()
    assert np.array_equal(folded[4][:2], k.data[2, 2])


def test_fold_unfold_roundtrip():
    k = rand_kernel(2, 2, 3, 4)
    subs = map_pixel_wise(k)
    folded = fold_area_efficient(subs)
    for n in range(2):
        assert np.array_equal(folded[n][:3], subs[2 * n])
        assert np.array_equal(folded[n][3:], subs[2 * n + 1])


def test_fold_preserves_vmm_semantics():
    # two-phase half-row drive reproduces the original sub-crossbar products
    k = rand_kernel(2, 3, 4, 2)
    subs = map_pixel_wise(k)
    folded = fold_area_efficient(subs)
    x = RNG.integers(-8, 9, 4)
    y = RNG.integers(-8, 9, 4)
    zero = np.zeros(4, dtype=np.int64)
    for n in range(3):
        assert np.array_equal(np.concatenate([x, zero]) @ folded[n], x @ subs[2 * n])
        assert np.array_equal(np.concatenate([zero, y]) @ folded[n], y @ subs[2 * n + 1])


# ---------------------------------------------------------------------------
# plans: conservation and inventory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", list(DesignKind))
def test_weight_value_conservation(design):
    k = rand_kernel(3, 3, 4, 5)
    plan = build_plan(k, design)
    stored = np.concatenate([x.ravel() for x in plan.crossbars])
    if design is DesignKind.RED_FOLDED:
        # 3x3 = 9 subs: the last folded sub's high half is zero fill
        assert not stored[-4 * 5 :].any()
        stored = stored[: -4 * 5]
    assert np.array_equal(np.sort(stored), np.sort(k.data.ravel()))


@pytest.mark.parametrize("design", list(DesignKind))
@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (3, 3, 2, 5), (4, 2, 3, 1), (5, 5, 4, 3)])
def test_block_n_holds_kernel_position_n(design, dims):
    # every weight distinct, so a block read from any other place of any
    # layout differs; odd kh*kw leaves red_folded's last high half as fill
    k = Kernel4(np.arange(np.prod(dims)).reshape(dims))
    plan = build_plan(k, design)
    for n in range(dims[0] * dims[1]):
        block = plan.block(n)
        assert np.array_equal(block, k.data[divmod(n, dims[1])])
        # a view into the plan's read-only arrays
        assert any(np.shares_memory(block, x) for x in plan.crossbars)
        assert not block.flags.writeable


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 6)] * 4), design=st.sampled_from(list(DesignKind)),
       seed=st.integers(0, 2**32 - 1))
def test_block_n_holds_kernel_position_n_property(dims, design, seed):
    k = Kernel4(np.random.default_rng(seed).integers(-8, 9, dims))
    plan = build_plan(k, design)
    for n in range(dims[0] * dims[1]):
        assert np.array_equal(plan.block(n), k.data[divmod(n, dims[1])])


def test_cell_count_conservation_even_kernel():
    k = rand_kernel(4, 4, 3, 5)
    counts = {d: build_plan(k, d).cell_count for d in DesignKind}
    assert len(set(counts.values())) == 1


def test_folded_odd_kernel_adds_pad_cells():
    k = rand_kernel(3, 3, 2, 2)
    base = build_plan(k, DesignKind.RED).cell_count
    folded = build_plan(k, DesignKind.RED_FOLDED).cell_count
    assert folded == base + 2 * 2  # one zero half-sub of C x M


def test_periphery_inventory_scaling():
    k = rand_kernel(5, 5, 512, 256)
    zp = build_plan(k, DesignKind.ZERO_PADDING).periphery_inventory
    pf = build_plan(k, DesignKind.PADDING_FREE).periphery_inventory
    red = build_plan(k, DesignKind.RED).periphery_inventory
    # input-side ports: total wordlines
    assert zp["wd"] == zp["dec"] == 12800 and red["wd"] == 25 * 512
    assert pf["wd"] == 512
    # output-side ports blow up for the split and wide layouts
    assert zp["rc"] == zp["bd"] == zp["mux"] == zp["sa"] == 256
    assert red["rc"] == 25 * 256
    assert pf["rc"] == 25 * 256


def test_folding_halves_output_ports():
    k = rand_kernel(4, 4, 8, 6)
    red = build_plan(k, DesignKind.RED).periphery_inventory
    fold = build_plan(k, DesignKind.RED_FOLDED).periphery_inventory
    assert fold["rc"] * 2 == red["rc"]
    assert fold["wd"] == red["wd"]  # same total wordlines


@pytest.mark.parametrize("design", list(DesignKind))
def test_geometry_plan_matches_weighted_plan(design):
    weighted = build_plan(rand_kernel(3, 3, 6, 4), design)
    geometry = MappingPlan(design, (3, 3, 6, 4))
    assert geometry.crossbars is None
    assert (geometry.count, geometry.shape) == (weighted.count, weighted.shape)
    assert [x.shape for x in weighted.crossbars] == [weighted.shape] * weighted.count
    assert geometry.periphery_inventory == weighted.periphery_inventory
    assert geometry.cell_count == weighted.cell_count
    assert geometry.cell_count == sum(x.size for x in weighted.crossbars)


def test_plan_rejects_a_kernel_off_its_dims():
    # a plan lays its arrays out from its kernel, so they fit its shapes
    # whenever the kernel fits its dims
    k = rand_kernel(2, 2, 3, 4)
    for dims in ((2, 2, 4, 3), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="kernel shape"):
            MappingPlan(DesignKind.RED_FOLDED, dims, k)
    assert MappingPlan(DesignKind.RED, (2, 2, 3, 4), k).crossbars[3].shape == (3, 4)


def test_build_plan_checks_kernel_against_layer():
    spec = DeconvLayerSpec(4, 4, 3, 3, 3, 2, 2)
    build_plan(rand_kernel(3, 3, 3, 2), DesignKind.RED, spec)
    with pytest.raises(ValueError, match="kernel shape"):
        build_plan(rand_kernel(3, 3, 2, 2), DesignKind.RED, spec)
