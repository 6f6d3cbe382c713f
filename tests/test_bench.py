import json

import pytest

from red_sim.bench import (
    ALL_DESIGNS,
    ConfigError,
    EquivalenceError,
    Lcg64,
    builtin_benchmarks,
    load_config,
    run_suite,
    scale_channels,
)
from red_sim.costmodel import DEFAULT_PARAMS_LABEL, CostParams
from red_sim.mapping import DesignKind
from red_sim.tensor import output_shape


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_builtin_registry():
    entries = builtin_benchmarks()
    assert [e.name for e in entries] == [
        "GAN_Deconv1", "GAN_Deconv2", "GAN_Deconv3", "GAN_Deconv4",
        "FCN_Deconv1", "FCN_Deconv2",
    ]
    expected = {
        "GAN_Deconv1": ((8, 8, 512), (16, 16, 256), 5, 2),
        "GAN_Deconv2": ((4, 4, 512), (8, 8, 256), 5, 2),
        "GAN_Deconv3": ((4, 4, 512), (8, 8, 256), 4, 2),
        "GAN_Deconv4": ((6, 6, 512), (12, 12, 256), 4, 2),
        "FCN_Deconv1": ((16, 16, 21), (34, 34, 21), 4, 2),
        "FCN_Deconv2": ((70, 70, 21), (568, 568, 21), 16, 8),
    }
    for e in entries:
        inp, out, k, s = expected[e.name]
        assert (e.spec.input_h, e.spec.input_w, e.spec.channels) == inp
        assert output_shape(e.spec) == out
        assert e.spec.kh == e.spec.kw == k
        assert e.spec.stride == s


def test_gan_deconv12_crop_split():
    by_name = {e.name: e for e in builtin_benchmarks()}
    for name in ("GAN_Deconv1", "GAN_Deconv2"):
        spec = by_name[name].spec
        assert (spec.crop_top, spec.crop_bottom) == (1, 2)
        assert (spec.crop_left, spec.crop_right) == (1, 2)
        assert "asymmetric" in by_name[name].notes


def test_fcn_deconv1_zero_crops():
    spec = {e.name: e for e in builtin_benchmarks()}["FCN_Deconv1"].spec
    assert (spec.crop_top, spec.crop_bottom, spec.crop_left, spec.crop_right) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# seeded generator
# ---------------------------------------------------------------------------


def test_lcg_matches_scalar_reference():
    def scalar_draws(seed, n):
        state = seed
        out = []
        for _ in range(n):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            out.append((state >> 32) % 17 - 8)
        return out

    rng = Lcg64(42)
    got = rng.ints((7, 11)).ravel().tolist()
    assert got == scalar_draws(42, 77)
    # the stream continues across calls
    more = rng.ints((5,)).tolist()
    assert more == scalar_draws(42, 82)[77:]


def test_lcg_value_range():
    vals = Lcg64(7).ints((1000,))
    assert vals.min() >= -8 and vals.max() <= 8


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_config_custom_layer_and_defaults(tmp_path):
    path = write_config(tmp_path, {
        "layers": [{"name": "toy", "input": [4, 4, 3], "kernel": [3, 3, 3, 2],
                    "stride": 2, "crop": [1, 0, 1, 0]}],
    })
    entries, params, opts = load_config(path)
    assert len(entries) == 1 and entries[0].name == "toy"
    assert params == CostParams()
    assert opts.params_label == DEFAULT_PARAMS_LABEL
    assert opts.seed == 42 and opts.designs == ALL_DESIGNS


def test_config_omitted_layers_selects_builtins(tmp_path):
    path = write_config(tmp_path, {"seed": 7})
    entries, _, opts = load_config(path)
    assert len(entries) == 6 and opts.seed == 7


def test_config_stride_zero_message(tmp_path):
    path = write_config(tmp_path, {
        "layers": [{"name": "bad", "input": [4, 4, 1], "kernel": [3, 3, 1, 1], "stride": 0}],
    })
    with pytest.raises(ConfigError, match="stride must be ≥ 1"):
        load_config(path)


def test_config_unknown_keys_rejected_by_name(tmp_path):
    with pytest.raises(ConfigError, match="'strides'"):
        load_config(write_config(tmp_path, {"strides": [2]}))
    with pytest.raises(ConfigError, match="'paddings'"):
        load_config(write_config(tmp_path, {
            "layers": [{"name": "x", "input": [2, 2, 1], "kernel": [2, 2, 1, 1],
                        "stride": 2, "paddings": [0]}],
        }, name="c2.json"))
    with pytest.raises(ConfigError, match="unknown cost parameter: 't_adc'"):
        load_config(write_config(tmp_path, {"cost_params": {"t_adc": 1}}, name="c3.json"))


def test_config_parse_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "layers": [\n}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(path))


def test_config_user_params_label(tmp_path):
    path = write_config(tmp_path, {"cost_params": {"e_cell": 1e-15}})
    _, params, opts = load_config(path)
    assert params.e_cell == 1e-15
    assert opts.params_label == "user-supplied"


def test_config_validates_options(tmp_path):
    with pytest.raises(ConfigError, match="channel_scale"):
        load_config(write_config(tmp_path, {"channel_scale": 0}))
    with pytest.raises(ConfigError, match="unknown design"):
        load_config(write_config(tmp_path, {"designs": ["reds"]}, name="c2.json"))
    with pytest.raises(ConfigError, match="'red' is listed more than once"):
        load_config(write_config(tmp_path, {"designs": ["red", "red"]}, name="c4.json"))
    with pytest.raises(ConfigError, match="kernel channel count"):
        load_config(write_config(tmp_path, {
            "layers": [{"name": "x", "input": [2, 2, 3], "kernel": [2, 2, 4, 1], "stride": 2}],
        }, name="c3.json"))
    # JSON true is a Python int, and 2.0 == 2, but neither is a JSON integer
    with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit integer"):
        load_config(write_config(tmp_path, {"seed": True}, name="c5.json"))
    with pytest.raises(ConfigError, match="channel_scale"):
        load_config(write_config(tmp_path, {"channel_scale": True}, name="c6.json"))
    layer = {"name": "x", "input": [2, 2, 1], "kernel": [2, 2, 1, 1], "stride": 2,
             "crop": [0, 0, 0, 0]}
    for key, index, value in [("input", 0, 2.0), ("kernel", 3, True), ("stride", None, "2"),
                              ("crop", 1, 0.5)]:
        bad = {**layer, key: value if index is None else
               [value if i == index else v for i, v in enumerate(layer[key])]}
        with pytest.raises(ConfigError, match=rf"layers\[0\]\.{key} must hold integers"):
            load_config(write_config(tmp_path, {"layers": [bad]}, name=f"bad_{key}.json"))
    # json reads NaN and Infinity; a coefficient is a finite number, not a
    # bool or string, and bit_serial_cycles an integer
    for i, (key, value, message) in enumerate([
        ("e_cell", True, "coefficient e_cell must be a finite number"),
        ("e_cell", "x", "coefficient e_cell must be a finite number"),
        ("t_wd", float("nan"), "coefficient t_wd must be a finite number"),
        ("a_rc", float("inf"), "coefficient a_rc must be a finite number"),
        ("a_rc", 10**400, "coefficient a_rc must be a finite number"),
        ("a_sa", -1, "coefficient a_sa must be a finite number"),
        ("bit_serial_cycles", 1.5, "bit_serial_cycles must be an integer"),
        ("bit_serial_cycles", True, "bit_serial_cycles must be an integer"),
        ("clock_hz", 2e9, "unknown cost parameter: 'clock_hz'"),
    ]):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, {"cost_params": {key: value}},
                                     name=f"bad_cost_{i}.json"))
    # falsy non-objects too, not only truthy ones
    for i, value in enumerate([[], "", 0, False, None]):
        with pytest.raises(ConfigError, match="cost_params must be an object"):
            load_config(write_config(tmp_path, {"cost_params": value},
                                     name=f"bad_cost_params_{i}.json"))


def test_shipped_default_params_file_matches_code():
    entries, params, _ = load_config("configs/default_params.json")
    assert params == CostParams()
    assert len(entries) == 6  # no layers key: builtins


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_scale_channels():
    spec = builtin_benchmarks()[0].spec
    small = scale_channels(spec, 1 / 64)
    assert (small.channels, small.filters) == (8, 4)
    tiny = scale_channels(builtin_benchmarks()[5].spec, 1 / 64)
    assert (tiny.channels, tiny.filters) == (1, 1)
    assert scale_channels(spec, 1.0) == spec


def test_run_suite_three_designs():
    entries = builtin_benchmarks()
    designs = (DesignKind.ZERO_PADDING, DesignKind.PADDING_FREE, DesignKind.RED)
    reports = run_suite(entries, designs=designs, channel_scale=1 / 128, trials=1)
    assert len(reports) == 6
    for report, entry in zip(reports, entries):
        assert report.layer == entry.name
        assert set(report.entries) == {"zero_padding", "padding_free", "red"}


def test_run_suite_cycle_counts_match_formulas():
    entries = builtin_benchmarks()
    reports = run_suite(entries, channel_scale=1 / 128, trials=1)
    for report, entry in zip(reports, entries):
        spec = entry.spec
        oh, ow, _ = output_shape(spec)
        s = spec.stride
        tiles = (-(-oh // s)) * (-(-ow // s))
        assert report.entries["zero_padding"].breakdown.cycle_count == oh * ow
        assert report.entries["padding_free"].breakdown.cycle_count == spec.input_h * spec.input_w
        assert report.entries["red"].breakdown.cycle_count == tiles
        assert report.entries["red_folded"].breakdown.cycle_count == 2 * tiles


def test_run_suite_full_channels_on_fcn_entry():
    # the FCN layers are small enough to verify at their declared channel
    # counts (C = M = 21); the larger FCN_Deconv2 works too but runs for
    # about two minutes, so the routine suite sticks to FCN_Deconv1
    entry = builtin_benchmarks()[4]
    reports = run_suite([entry], channel_scale=1.0, trials=1)
    assert reports[0].layer == "FCN_Deconv1"
    assert set(reports[0].entries) == {d.value for d in ALL_DESIGNS}


def test_run_suite_cost_independent_of_channel_scale():
    entries = builtin_benchmarks()[2:3]
    a = run_suite(entries, channel_scale=1 / 64, trials=1, seed=1)
    b = run_suite(entries, channel_scale=1 / 128, trials=1, seed=9)
    for design in a[0].entries:
        ba, bb = a[0].entries[design].breakdown, b[0].entries[design].breakdown
        assert ba.latency.total == bb.latency.total
        assert ba.energy.total == bb.energy.total
        assert ba.area.total == bb.area.total


def test_run_suite_deterministic():
    entries = builtin_benchmarks()[:2]
    a = run_suite(entries, channel_scale=1 / 128, trials=2, seed=3)
    b = run_suite(entries, channel_scale=1 / 128, trials=2, seed=3)
    for ra, rb in zip(a, b):
        for design in ra.entries:
            assert ra.entries[design].breakdown == rb.entries[design].breakdown


def test_run_suite_catches_broken_design(monkeypatch):
    # corrupt the executed output and expect a diff summary
    import red_sim.bench as bench_mod

    real_execute = bench_mod.execute

    def broken(plan, schedule, tensor):
        out = real_execute(plan, schedule, tensor)
        bad = out.data.copy()
        bad[0, 0, 0] += 1
        return type(out)(bad)

    monkeypatch.setattr(bench_mod, "execute", broken)
    with pytest.raises(EquivalenceError, match="elements differ"):
        run_suite(builtin_benchmarks()[2:3], channel_scale=1 / 128, trials=1)


def test_run_suite_invalid_channel_scale():
    with pytest.raises(ValueError, match="channel_scale"):
        run_suite(builtin_benchmarks()[:1], channel_scale=0.0, trials=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_run_suite_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_suite(builtin_benchmarks()[:1], channel_scale=1 / 128, trials=trials)
