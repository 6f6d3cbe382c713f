import json
import re
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

import red_sim.bench as bench_mod
from red_sim.bench import (
    ALL_DESIGNS,
    BenchmarkEntry,
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
from red_sim.tensor import DeconvLayerSpec, Kernel4, output_shape


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


def scalar_lcg(seed, n):
    """n draws stepping the generator once per value, and the final state."""
    state = seed
    out = []
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append((state >> 32) % 17 - 8)
    return out, state


def test_lcg_matches_scalar_reference():
    rng = Lcg64(42)
    got = rng.ints((7, 11)).ravel().tolist()
    assert got == scalar_lcg(42, 77)[0]
    # the stream continues across calls
    more = rng.ints((5,)).tolist()
    assert more == scalar_lcg(42, 82)[0][77:]


BLOCK = 1 << bench_mod._BLOCK_LOG2


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_lcg_blocked_draw_matches_scalar_reference(n):
    # blocks after the first are the block before advanced by one block's
    # steps; the last block may be partial
    seed = 2**64 - 3
    rng = Lcg64(seed)
    want, state = scalar_lcg(seed, n)
    got = rng.ints((n,))
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert got.tolist() == want
    assert rng.state == state


def test_lcg_blocked_draws_continue_across_calls():
    # consecutive calls that straddle a block boundary, each leaving the
    # generator where n scalar steps would
    sizes = [BLOCK - 5, 10, BLOCK + 7, 3, 1]
    want, _ = scalar_lcg(7, sum(sizes))
    rng, start = Lcg64(7), 0
    for n in sizes:
        assert rng.ints((n,)).tolist() == want[start : start + n]
        start += n
        assert rng.state == scalar_lcg(7, start)[1]


def test_lcg_empty_draw_neither_draws_nor_advances():
    rng = Lcg64(42)
    assert rng.ints((0,)).shape == (0,)
    assert rng.ints((3, 0, 2)).shape == (3, 0, 2)
    assert rng.state == 42
    assert rng.ints((4,)).tolist() == scalar_lcg(42, 4)[0]


def test_lcg_mod17_by_multiply_and_shift_is_exact_at_the_edges():
    # (x*M) >> 36 with M = ceil(2^36 / 17) is x // 17 for every uint32 x:
    # checked on both ends of the range and either side of multiples of 17
    # across it, where a quotient one off would first show
    assert 17 * bench_mod._MOD17 == 2**36 + 1
    multiples = 17 * np.arange(0, 2**32 // 17 + 1, 4099, dtype=np.int64)
    x = np.concatenate([np.arange(2**20), np.arange(2**32 - 2**20, 2**32),
                        (multiples[:, None] + [-1, 0, 1]).ravel()])
    x = x[(0 <= x) & (x < 2**32)].astype(np.uint32)
    # as the draws read them: every other uint32, a state's high halves
    states = np.zeros(2 * len(x), dtype=np.uint32)
    states[1::2] = x
    out = np.empty(len(x), dtype=np.int64)
    bench_mod._draws(states[1::2], out)
    assert np.array_equal(out, x.astype(np.int64) % 17 - 8)


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


def test_config_rejects_malformed_layers(tmp_path):
    layer = {"name": "x", "input": [2, 2, 1], "kernel": [2, 2, 1, 1], "stride": 2}
    cases = [
        ([layer, [2, 2, 1]], r"layers\[1\] must be an object"),
        ([{k: v for k, v in layer.items() if k != "kernel"}],
         r"layers\[0\] is missing required key 'kernel'"),
        ([{**layer, "input": [2, 2]}], r"layers\[0\]\.input must be \[h, w, c\]"),
        ([{**layer, "input": "2,2,1"}], r"layers\[0\]\.input must be \[h, w, c\]"),
        ([{**layer, "kernel": [2, 2, 1]}], r"layers\[0\]\.kernel must be \[kh, kw, c, m\]"),
        ([{**layer, "crop": [0, 0, 0]}], r"layers\[0\]\.crop must be \[top, bottom, left, right\]"),
        ([{**layer, "crop": 0}], r"layers\[0\]\.crop must be \[top, bottom, left, right\]"),
        ([], "layers must be a non-empty array"),
        ({"name": "x"}, "layers must be a non-empty array"),
    ]
    for i, (layers, message) in enumerate(cases):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, {"layers": layers}, name=f"bad_{i}.json"))


def test_config_rejects_an_unreadable_path_and_a_non_object_root(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config: .*missing.json"):
        load_config(str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path))  # a directory
    for i, root in enumerate([[], "layers", 3, None]):
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            load_config(write_config(tmp_path, root, name=f"root_{i}.json"))


def test_config_critical_path_mode(tmp_path):
    _, _, opts = load_config(write_config(tmp_path, {"critical_path_mode": "sum"}))
    assert opts.critical_path_mode == "sum"
    _, _, opts = load_config(write_config(tmp_path, {}, name="default.json"))
    assert opts.critical_path_mode == "max"
    for i, mode in enumerate(["min", "", None, ["max"]]):
        with pytest.raises(ConfigError, match="critical_path_mode must be 'max' or 'sum'"):
            load_config(write_config(tmp_path, {"critical_path_mode": mode}, name=f"m{i}.json"))


def test_config_rejects_a_repeated_layer_name(tmp_path):
    # two rows named A per design in the reports, and `dump-schedule --layer A`
    # could pick either; names compare as the reports print them
    layer = {"name": "A", "input": [2, 2, 1], "kernel": [2, 2, 1, 1], "stride": 2}
    for i, other in enumerate(["A", "B"]):
        path = write_config(tmp_path, {"layers": [layer, {**layer, "name": other}, layer]},
                            name=f"repeat_{i}.json")
        with pytest.raises(ConfigError, match="layer 'A' is listed more than once"):
            load_config(path)
    # where several names repeat, the first listed of them is named, not
    # the first to be seen twice
    path = write_config(tmp_path, {"layers": [layer, {**layer, "name": "B"},
                                              {**layer, "name": "B"}, layer]},
                        name="repeat_two.json")
    with pytest.raises(ConfigError, match="layer 'A' is listed more than once"):
        load_config(path)
    path = write_config(tmp_path, {"layers": [{**layer, "name": 1}, {**layer, "name": "1"}]},
                        name="repeat_number.json")
    with pytest.raises(ConfigError, match="layer '1' is listed more than once"):
        load_config(path)
    entries, _, _ = load_config(write_config(tmp_path, {"layers": [layer, {**layer, "name": "B"}]},
                                             name="distinct.json"))
    assert [e.name for e in entries] == ["A", "B"]


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
    # corrupt the first design's second trial, chosen by (design, trial)
    # rather than by call count, and expect a diff summary that names it
    real_execute = bench_mod.execute
    programs = defaultdict(list)  # per design, the program of each trial run

    def broken(plan, program, tensor):
        out = real_execute(plan, program, tensor)
        programs[program.design].append(program)
        if (program.design, len(programs[program.design]) - 1) != (DesignKind.ZERO_PADDING, 1):
            return out
        bad = out.data.copy()
        bad[0, 0, 0] += 1
        return type(out)(bad)

    monkeypatch.setattr(bench_mod, "execute", broken)
    with pytest.raises(EquivalenceError, match="zero_padding / trial 1: .*elements differ"):
        run_suite(builtin_benchmarks()[2:3], channel_scale=1 / 128, trials=2)
    # both trials of the first design ran one program, lowered once
    mine = programs[DesignKind.ZERO_PADDING]
    assert len(mine) == 2 and mine[0] is mine[1]


@pytest.mark.parametrize("design", list(DesignKind))
def test_equivalence_error_names_the_corrupted_kernel_position(monkeypatch, design):
    # one kernel position's weights corrupted in the plan: the first
    # differing output pixel lies in that block's destination, and the
    # error names the kernel position with the input pixel it reads there,
    # which by the definition lands on that output pixel
    real_build = bench_mod.build_plan

    def corrupted(kernel, design, spec):
        bad = kernel.data.copy()
        bad[1, 2] += 1
        return real_build(Kernel4(bad), design, spec)

    monkeypatch.setattr(bench_mod, "build_plan", corrupted)
    spec = DeconvLayerSpec(4, 5, 2, 3, 3, 2, 2, 2, 0, 1, 0)
    entry = BenchmarkEntry("toy", "custom", "", spec)
    with pytest.raises(EquivalenceError) as err:
        run_suite([entry], designs=(design,), trials=1)
    found = re.search(r"output pixel \((\d+),(\d+)\) sums (.*)$", str(err.value))
    y, x = int(found[1]), int(found[2])
    a, b = map(int, re.search(r"kernel position \(1, 2\) from input pixel \((\d+), (\d+)\)",
                              found[3]).groups())
    assert (y, x) == (spec.pad_top - 1 + spec.stride * a, spec.pad_left - 2 + spec.stride * b)


def test_run_suite_builds_every_schedule_before_the_data(monkeypatch):
    # per entry, every design's schedule is lowered before the first oracle
    # runs, so no schedule is held next to the layer's data; then each
    # trial's oracle, and every design's plan and run, all called through
    # `bench`'s globals, where the benchmark's tracer wraps them
    calls = []
    real_lower, real_oracle = bench_mod.lower, bench_mod.deconv_oracle_zero_padding
    real_plan, real_execute = bench_mod.build_plan, bench_mod.execute

    def lower(parts):
        program = real_lower(parts)
        calls.append(("lower", program.layer))
        return program

    def oracle(tensor, kernel, spec):
        calls.append(("oracle", spec))
        return real_oracle(tensor, kernel, spec)

    def build_plan(kernel, design, spec):
        calls.append(("plan", spec))
        return real_plan(kernel, design, spec)

    def execute(plan, program, tensor):
        calls.append(("execute", program.layer))
        return real_execute(plan, program, tensor)

    for name, fake in [("lower", lower), ("deconv_oracle_zero_padding", oracle),
                       ("build_plan", build_plan), ("execute", execute)]:
        monkeypatch.setattr(bench_mod, name, fake)
    entries = builtin_benchmarks()[4:6]
    run_suite(entries, channel_scale=1 / 64, trials=2)
    for entry in entries:
        spec = scale_channels(entry.spec, 1 / 64)
        mine = [name for name, s in calls if s == spec]
        trial = ["oracle"] + ["plan", "execute"] * len(ALL_DESIGNS)
        assert mine == ["lower"] * len(ALL_DESIGNS) + trial * 2


def test_names_the_benchmark_wraps_exist():
    # the benchmark times stages by replacing these names where the suite
    # and the CLI look them up, and skips a name that is gone, so a rename
    # would read its stage's metrics as zero; its own tests import the last
    import red_sim.cli as cli_mod
    from red_sim import dataflow

    wrapped = {bench_mod: ["build_plan", "execute", "deconv_oracle_zero_padding",
                           "cost_breakdown", "compare"],
               cli_mod: ["run_suite", "breakdown_csv_rows", "summary_csv_rows", "report_to_dict"],
               dataflow: ["build_schedule", "dump_schedule_lines"]}
    for module, names in wrapped.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert callable(bench_mod.Lcg64.ints)
    assert dataflow.InputKind.ZERO != dataflow.InputKind.PIXEL
    assert isinstance(dataflow.CycleSchedule.kind, property)


def test_run_suite_holds_one_trial_and_one_schedule_part_at_a_time():
    # tracemalloc counts numpy's buffers: on FCN_Deconv2 at 1/64 the run
    # holds neither a whole 1,290,496-drive schedule (10 MB) nor every
    # trial's oracle output, so its peak stays bounded and does not grow
    # with the trial count
    entry = builtin_benchmarks()[5]
    peaks = {}
    for trials in (3, 20):
        tracemalloc.start()
        try:
            run_suite([entry], channel_scale=1 / 64, trials=trials)
            peaks[trials] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    assert peaks[3] < 10, peaks
    assert peaks[20] <= peaks[3] + 1, peaks


def test_run_suite_takes_each_kernel_bound_once(monkeypatch):
    # one layer x 4 designs x 2 trials: the kernel's max|w| is reduced
    # once, when it is built; the oracle and the four plans read it
    import red_sim.tensor as tensor_mod

    sizes = []
    real = tensor_mod._abs_max

    def counting(a):
        sizes.append(a.size)
        return real(a)

    monkeypatch.setattr(tensor_mod, "_abs_max", counting)
    # a 90-value kernel, a 36-value input and a 192-value padded image
    spec = DeconvLayerSpec(3, 4, 3, 3, 2, 5, 2, 1, 0, 1, 0)
    run_suite([BenchmarkEntry("toy", "custom", "", spec)], trials=2)
    kernel_size = spec.kh * spec.kw * spec.channels * spec.filters
    assert kernel_size not in (spec.input_h * spec.input_w * spec.channels,
                               spec.padded_h * spec.padded_w * spec.channels)
    assert sizes.count(kernel_size) == 1
    assert len(sizes) > 1  # the inputs are still bounded per call


def test_run_suite_invalid_channel_scale():
    with pytest.raises(ValueError, match="channel_scale"):
        run_suite(builtin_benchmarks()[:1], channel_scale=0.0, trials=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_run_suite_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_suite(builtin_benchmarks()[:1], channel_scale=1 / 128, trials=trials)
