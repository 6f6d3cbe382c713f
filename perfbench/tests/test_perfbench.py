"""Tests of the benchmark itself: `python3 -m pytest perfbench/tests`."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from red_sim.bench import builtin_benchmarks
from red_sim.dataflow import InputKind, build_schedule, dump_schedule_lines
from red_sim.tensor import (
    DeconvLayerSpec,
    Kernel4,
    Tensor3,
    deconv_oracle_zero_padding,
    output_shape,
    zero_redundancy_ratio,
)

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
TINY_SEED = 7  # design_space digests are recorded for the default seed only


@pytest.fixture
def tiny_design_space(monkeypatch):
    """design_space cut to two layers so a child runs in about a second."""
    monkeypatch.setitem(workloads.WORKLOADS, "design_space",
                        {**workloads.WORKLOADS["design_space"], "layers": 2})
    return workloads.workload_layers("design_space", TINY_SEED)


@pytest.fixture
def child_outputs(tmp_path, tiny_design_space):
    """One real child run of the tiny workload, its result and output dir."""
    layers = tiny_design_space
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.workload_config("design_space", TINY_SEED)))
    out_dir = str(tmp_path / "out")
    cmds = workloads.workload_commands("design_space", TINY_SEED, str(config), out_dir)
    res = run.spawn(str(tmp_path), "child", cmds, "run")
    assert res is not None
    return layers, res, out_dir


# ---------------------------------------------------------------------------
# workloads and closed forms
# ---------------------------------------------------------------------------


def test_builtin_table_matches_registry():
    for layer, entry in zip(workloads.BUILTIN_LAYERS, builtin_benchmarks(), strict=True):
        assert layer["name"] == entry.name
        assert DeconvLayerSpec(*workloads.geometry_key(layer)) == entry.spec


@pytest.mark.parametrize("seed", range(12))
def test_design_space_deterministic_and_valid(seed):
    n = workloads.WORKLOADS["design_space"]["layers"]
    layers = workloads.workload_layers("design_space", seed)
    assert layers == workloads.workload_layers("design_space", seed)
    assert len(layers) == n
    assert len({workloads.geometry_key(x) for x in layers}) == n
    assert len({x["name"] for x in layers}) == n
    for layer in layers:
        spec = DeconvLayerSpec(*workloads.geometry_key(layer))  # raises if invalid
        s = spec.stride
        assert 2 <= s <= 8 and s <= spec.kh <= 2 * s and s <= spec.kw <= 2 * s
        assert 1 <= spec.channels <= 512 and 1 <= spec.filters <= 256
        assert output_shape(spec)[:2] == workloads.output_hw(layer)
    other = workloads.workload_layers("design_space", seed + 100)
    assert layers != other
    # the seed moves alignment, not size: the work does not vary with it
    for design in workloads.DESIGNS:
        size = [sum(workloads.counts(x, design)[k] for x in layers) for k in ("cycles", "cells")]
        assert size == [sum(workloads.counts(x, design)[k] for x in other)
                        for k in ("cycles", "cells")]


def _sample_layers():
    small = [workloads.scaled(x, 1 / 64) for x in workloads.BUILTIN_LAYERS]
    return small + workloads.design_space_layers(3, 24)


@pytest.mark.parametrize("design", workloads.DESIGNS)
def test_closed_forms_match_schedules(design):
    for layer in _sample_layers():
        spec = DeconvLayerSpec(*workloads.geometry_key(layer))
        want = workloads.counts(layer, design)
        sched = build_schedule(spec, design)
        assert sched.cycle_count == want["cycles"]
        assert sched.assignment_count == want["assignments"]
        assert sched.group_count == want["groups"]
        c, m = spec.channels, spec.filters
        if design in ("red", "red_folded"):
            live = int((sched.kind != InputKind.ZERO).sum())
            assert want["useful_macs"] == live * c * m
        if design == "zero_padding":
            taps = spec.output_h * spec.output_w * spec.kh * spec.kw
            assert want["useful_macs"] == round((1 - zero_redundancy_ratio(spec)) * taps) * c * m
        if spec.output_h * spec.output_w < 5000:
            assert len(list(dump_schedule_lines(sched))) == want["dump_lines"]


def test_reference_matches_oracle_and_refuses_above_bound():
    rng = np.random.default_rng(0)
    for layer in _sample_layers()[:12]:
        small = workloads.scaled(layer, 1 / 512)
        x = rng.integers(-8, 9, size=small["input"])
        w = rng.integers(-8, 9, size=small["kernel"])
        spec = DeconvLayerSpec(*workloads.geometry_key(small))
        want = deconv_oracle_zero_padding(Tensor3(x), Kernel4(w), spec).data
        assert np.array_equal(checks.reference_deconv(x, w, small), want)
    with pytest.raises(ValueError):
        checks.reference_deconv(x * 2**40, w * 2**20, small)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _failed(layers, res, out_dir, digests):
    return checks.check_child("design_space", layers, res, out_dir, digests)[0]


def test_clean_outputs_pass(child_outputs):
    layers, res, out_dir = child_outputs
    digests = checks.report_digests(out_dir, layers, True)
    assert len(digests) == 2 + 3 * len(layers) * len(workloads.DESIGNS)
    assert _failed(layers, res, out_dir, digests) == set()


def test_wrong_trials_line_fails_every_row(child_outputs):
    layers, res, out_dir = child_outputs
    run_cmd = res["commands"][0]
    run_cmd["stdout"] = run_cmd["stdout"].replace("x 1 trials", "x 0 trials")
    rows = {op for op in checks.operations("design_space", layers) if op[0] == "row"}
    assert _failed(layers, res, out_dir, None) == rows


def test_tampered_report_fails_its_row(child_outputs):
    layers, res, out_dir = child_outputs
    digests = checks.report_digests(out_dir, layers, True)
    path = os.path.join(out_dir, "breakdown.csv")
    lines = open(path).read().splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[4] += "1"  # the value column
    lines[5] = ",".join(fields)
    open(path, "w").writelines(lines)
    design, layer = fields[:2]
    assert _failed(layers, res, out_dir, digests) == {("row", layer, design)}


def test_tampered_cycles_fail_without_digests(child_outputs):
    layers, res, out_dir = child_outputs
    path = os.path.join(out_dir, "summary.csv")
    lines = open(path).read().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[2] = str(int(fields[2]) + 1)
    lines[1] = ",".join(fields)
    open(path, "w").writelines(lines)
    assert _failed(layers, res, out_dir, None) == {("row", fields[0], fields[1])}


def test_tampered_dump_fails_that_dump(child_outputs):
    layers, res, out_dir = child_outputs
    digests = checks.report_digests(out_dir, layers, True)
    name = layers[1]["name"]
    path = os.path.join(out_dir, workloads.dump_name(name, "red"))
    text = open(path).read()
    open(path, "w").write(text.replace(",pixel,", ",zero,", 1))
    assert _failed(layers, res, out_dir, digests) == {("dump", name, "red")}
    open(path, "w").write(text + "0,0,pixel,0,0\n")
    assert _failed(layers, res, out_dir, None) == {("dump", name, "red")}
    os.remove(path)
    assert _failed(layers, res, out_dir, None) == {("dump", name, "red")}


def test_failed_child_fails_everything(tiny_design_space):
    layers = tiny_design_space
    ops = set(checks.operations("design_space", layers))
    assert checks.check_child("design_space", layers, None, "missing", None)[0] == ops


def test_recorded_digests_scope():
    assert checks.recorded_digests("verify_small", 12345) is not None
    assert checks.recorded_digests("design_space", workloads.DEFAULT_SEED) is not None
    assert checks.recorded_digests("design_space", workloads.DEFAULT_SEED + 1) is None


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_self_times_subtract_children_and_clip():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None, None],
        ["bench.run_suite", 2.0, 9.0, 0, 0, None, None],
        ["dataflow.execute", 3.0, 6.0, 1, 0, None, None],
        ["dataflow.trace", 4.0, 5.0, 2, 0, None, None],
        ["cli.main", 11.0, 12.0, -1, 1, None, None],
    ]
    own = tracing.self_times(spans, {0: 2.0})
    assert own == [1.0, 4.0, 2.0, 1.0, 1.0]
    assert sum(own[:4]) == 8.0  # run 0 window: 2.0 .. 10.0


# ---------------------------------------------------------------------------
# end to end: every metric prints with its name and unit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_unit(capsys, tiny_design_space, trace):
    code = run.main(["--workload", "design_space", "--seed", str(TINY_SEED),
                     "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = run.declared_units(bool(trace))
    assert len(declared) == (30 if trace else 4)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.startswith("  ") and "ratio (" not in line}
    for name, unit in declared.items():
        assert printed[name] == unit
    assert any(line.split()[0] == "error_rate" for line in lines[:-1] if line.startswith("  "))
    if trace:
        assert result["metrics"]["dataflow.trace_calls_in_execute"]["value"] == \
            2 * len(workloads.DESIGNS)
    else:
        assert "dump_s" in printed


def test_refuses_checkout_without_source(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
