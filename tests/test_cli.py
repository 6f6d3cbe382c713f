import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from red_sim.cli import main

TOY_CONFIG = {
    "layers": [{"name": "toy3x2", "input": [4, 4, 2], "kernel": [3, 3, 2, 2],
                "stride": 2, "crop": [2, 0, 2, 0]}],
    "seed": 42,
    "channel_scale": 1.0,
}


@pytest.fixture()
def toy_config(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY_CONFIG), encoding="utf-8")
    return str(path)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def test_list_text(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 7  # header + six benchmarks
    header = lines[0]
    for col in ("Layer Name", "Network Model", "Dataset", "Input Size",
                "Output Size", "Kernel Size", "Stride"):
        assert col in header
    assert any("FCN_Deconv2" in l and "(568, 568, 21)" in l for l in lines)


def test_list_json(tmp_path):
    out = tmp_path / "list.json"
    assert main(["list", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(read(out))
    assert len(data) == 6
    assert data[0]["layer_name"] == "GAN_Deconv1"
    assert data[5]["output_size"] == [568, 568, 21]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_builtins_csv(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["run", "--out", str(out), "--channel-scale", str(1 / 128),
                 "--trials", "1", "--designs", "zero_padding,red"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "all checks passed" in stdout
    assert "reference ranges" in stdout
    summary = read(out / "summary.csv").splitlines()
    assert len(summary) == 1 + 6 * 2  # header + layers x designs
    breakdown = read(out / "breakdown.csv")
    assert breakdown.startswith("design,layer,metric,component,value,normalized")


def test_run_single_design_omits_normalization(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["run", "--out", str(out), "--channel-scale", str(1 / 128),
                 "--trials", "1", "--designs", "red"])
    assert code == 0
    rows = read(out / "breakdown.csv").splitlines()[1:]
    assert all(row.endswith(",") for row in rows)  # empty normalized column


def test_run_config_and_json(toy_config, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["run", "--config", toy_config, "--out", str(out),
                 "--format", "json", "--trials", "2"])
    assert code == 0
    data = json.loads(read(out / "report.json"))
    assert data["seed"] == 42
    assert [r["layer"] for r in data["reports"]] == ["toy3x2"]
    designs = data["reports"][0]["designs"]
    assert designs["zero_padding"]["normalized"]["latency"] == 1.0
    assert designs["red"]["cycle_count"] == 16
    assert "reference" in data["reports"][0]


def test_run_determinism_byte_identical(toy_config, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", "--config", toy_config, "--out", str(out)]) == 0
        assert main(["run", "--config", toy_config, "--out", str(out),
                     "--format", "json"]) == 0
        outs.append(out)
    assert read(outs[0] / "breakdown.csv") == read(outs[1] / "breakdown.csv")
    assert read(outs[0] / "summary.csv") == read(outs[1] / "summary.csv")
    assert read(outs[0] / "report.json") == read(outs[1] / "report.json")


def test_run_corrupt_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"layers": [{"name": "x", "input": [2, 2, 1],
                                           "kernel": [2, 2, 1, 1], "stride": 0}]}),
                   encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "stride" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_run_rejects_nonpositive_trials_exit_2(toy_config, trials, capsys):
    assert main(["run", "--config", toy_config, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "--trials must be >= 1" in captured.err
    assert "all checks passed" not in captured.out


def test_run_rejects_repeated_design_exit_2(toy_config, capsys):
    assert main(["run", "--config", toy_config, "--trials", "1", "--designs", "red,red"]) == 2
    captured = capsys.readouterr()
    assert "'red' is listed more than once" in captured.err
    assert "all checks passed" not in captured.out


def test_run_rejects_empty_designs_exit_2(toy_config, capsys):
    # an empty flag is refused as a config's empty "designs" is, not read
    # as all four designs
    assert main(["run", "--config", toy_config, "--trials", "1", "--designs", ""]) == 2
    captured = capsys.readouterr()
    assert "designs must be a non-empty array" in captured.err
    assert "all checks passed" not in captured.out


def test_run_rejects_repeated_layer_name_exit_2(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({**TOY_CONFIG, "layers": TOY_CONFIG["layers"] * 2}),
                    encoding="utf-8")
    for argv in (["run", "--config", str(path), "--trials", "1"],
                 ["dump-schedule", "--config", str(path), "--layer", "toy3x2", "--design", "red",
                  "--out", str(tmp_path / "dump.txt")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "layer 'toy3x2' is listed more than once" in captured.err
        assert "all checks passed" not in captured.out
    assert not (tmp_path / "dump.txt").exists()


@pytest.mark.parametrize("seed", ["-5", "18446744073709551616"])
def test_run_rejects_seed_outside_uint64_exit_2(toy_config, seed, capsys):
    assert main(["run", "--config", toy_config, "--trials", "1", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert "seed must be an unsigned 64-bit integer" in captured.err
    assert "all checks passed" not in captured.out


@pytest.mark.parametrize("change", [{"seed": True},
                                    {"layers": [{**TOY_CONFIG["layers"][0], "input": [4, 4.0, 2]}]}])
def test_run_rejects_non_integer_config_exit_2(tmp_path, change, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TOY_CONFIG, **change}), encoding="utf-8")
    assert main(["run", "--config", str(path), "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "integer" in captured.err
    assert "all checks passed" not in captured.out


@pytest.mark.parametrize("field,value", [("e_cell", True), ("t_wd", float("nan")),
                                         ("bit_serial_cycles", 1.5)])
def test_run_rejects_bad_cost_param_exit_2(tmp_path, field, value, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TOY_CONFIG, "cost_params": {field: value}}), encoding="utf-8")
    assert main(["run", "--config", str(path), "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "cost_params:" in captured.err and f"{field} must be" in captured.err
    assert "all checks passed" not in captured.out


def test_run_config_critical_path_mode(tmp_path, capsys):
    # a config's "sum" reaches the report; any other value is a config error
    path = tmp_path / "sum.json"
    path.write_text(json.dumps({**TOY_CONFIG, "critical_path_mode": "sum"}), encoding="utf-8")
    out = tmp_path / "reports"
    assert main(["run", "--config", str(path), "--out", str(out), "--format", "json",
                 "--trials", "1"]) == 0
    assert json.loads(read(out / "report.json"))["reports"][0]["critical_path_mode"] == "sum"
    path.write_text(json.dumps({**TOY_CONFIG, "critical_path_mode": "min"}), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "critical_path_mode must be 'max' or 'sum'" in captured.err
    assert "all checks passed" not in captured.out


@pytest.mark.parametrize("value", [[], "", 0, False, None])
def test_run_rejects_non_object_cost_params_exit_2(tmp_path, value, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TOY_CONFIG, "cost_params": value}), encoding="utf-8")
    assert main(["run", "--config", str(path), "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "cost_params must be an object" in captured.err
    assert "all checks passed" not in captured.out


@pytest.mark.parametrize("argv,out", [
    (["list"], "missing/list.txt"),
    (["dump-schedule", "--layer", "toy3x2", "--design", "red"], "missing/dump.txt"),
    (["run", "--trials", "1"], "a_file"),
])
def test_unwritable_out_exit_2(toy_config, tmp_path, monkeypatch, argv, out, capsys):
    # a missing parent directory, or a file where run's directory goes;
    # run refuses before running the suite
    import red_sim.cli as cli_mod

    (tmp_path / "a_file").write_text("", encoding="utf-8")
    monkeypatch.setenv("RED_SIM_CONFIG", toy_config)
    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: pytest.fail("suite ran"))
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {tmp_path / out}" in captured.err
    assert "all checks passed" not in captured.out


@pytest.mark.parametrize("layer,out,head", [("FCN_Deconv1", [], b"# design=r"),
                                             ("FCN_Deconv1", ["--out", "/dev/stdout"], b"# design=r"),
                                             ("FCN_Deconv2", [], b"")],
                         ids=["out0", "out1", "closed-before-reading"])
def test_closed_pipe_exits_0(layer, out, head):
    # BrokenPipeError is an OSError, but a reader that stops early, after
    # its first bytes or before any, does not make the output unwritable;
    # the 100 kB FCN_Deconv1 dump overfills the pipe buffer
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "red_sim.cli", "dump-schedule",
                             "--layer", layer, "--design", "red", *out],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    code, err = proc.wait(timeout=60), proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 0 and "Traceback" not in err, err


def test_run_accepts_largest_seed(toy_config, capsys):
    assert main(["run", "--config", toy_config, "--trials", "1",
                 "--seed", "18446744073709551615"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_run_env_var_config(toy_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RED_SIM_CONFIG", toy_config)
    assert main(["run", "--trials", "1"]) == 0
    assert "toy3x2" in capsys.readouterr().out


def test_run_equivalence_failure_exit_1(toy_config, monkeypatch, capsys):
    import red_sim.bench as bench_mod

    real = bench_mod.execute

    def broken(plan, program, tensor):
        out = real(plan, program, tensor)
        bad = out.data.copy()
        bad.flat[0] += 1
        return type(out)(bad)

    monkeypatch.setattr(bench_mod, "execute", broken)
    assert main(["run", "--config", toy_config, "--trials", "1"]) == 1
    assert "equivalence failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# redundancy
# ---------------------------------------------------------------------------


def test_redundancy_k2s_trend(tmp_path):
    out = tmp_path / "red.csv"
    code = main(["redundancy", "--strides", "2,4,8,16,32", "--kernel-rule", "k2s",
                 "--input-size", "16", "--out", str(out)])
    assert code == 0
    rows = read(out).splitlines()
    assert rows[0] == "stride,kernel,zero_redundancy_ratio"
    ratios = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.995


def test_redundancy_hand_case(capsys):
    assert main(["redundancy", "--strides", "2", "--kernel-rule", "fixed",
                 "--kernel-size", "2", "--input-size", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "2,2,0.75"


def test_redundancy_stride1_full_crop(capsys):
    # a full crop takes kernel - 1 off all four sides: at stride 1 a plain
    # valid convolution, with no zero to skip, as its help says
    assert main(["redundancy", "--strides", "1", "--kernel-rule", "fixed",
                 "--kernel-size", "3", "--input-size", "8",
                 "--crop-mode", "full"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,3,0.0"
    with pytest.raises(SystemExit):
        main(["redundancy", "--help"])
    assert "full: crop kernel-1 on all four sides" in capsys.readouterr().out


def test_redundancy_json(capsys):
    assert main(["redundancy", "--strides", "2,4", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["stride"], r["kernel"]) for r in rows] == [(2, 4), (4, 8)]
    assert all(type(r["zero_redundancy_ratio"]) is float for r in rows)
    assert rows[0]["zero_redundancy_ratio"] < rows[1]["zero_redundancy_ratio"]


def test_redundancy_rejects_bad_rule(capsys):
    assert main(["redundancy", "--strides", "2", "--kernel-rule", "fixed"]) == 2
    assert "kernel-size" in capsys.readouterr().err
    # k2s sets kernel = 2*stride itself: a size given with it is refused,
    # not ignored
    assert main(["redundancy", "--strides", "2", "--kernel-size", "3"]) == 2
    captured = capsys.readouterr()
    assert "--kernel-size" in captured.err and "--kernel-rule" in captured.err
    assert not captured.out


def test_redundancy_rejects_bad_strides(capsys):
    assert main(["redundancy", "--strides", "2,x"]) == 2
    assert main(["redundancy", "--strides", "0"]) == 2
    assert main(["redundancy", "--strides", ","]) == 2
    assert "--strides must be non-empty" in capsys.readouterr().err
    # a stride whose layer has no output: a 3x3 kernel cropped by 2 on
    # every side of a one-pixel input
    assert main(["redundancy", "--strides", "2,1", "--kernel-rule", "fixed", "--kernel-size",
                 "3", "--input-size", "1", "--crop-mode", "full"]) == 2
    captured = capsys.readouterr()
    assert "stride 2: computed output size" in captured.err and not captured.out


# ---------------------------------------------------------------------------
# dump-schedule
# ---------------------------------------------------------------------------


def test_dump_schedule_toy_red(toy_config, tmp_path):
    out = tmp_path / "sched.txt"
    code = main(["dump-schedule", "--layer", "toy3x2", "--design", "red",
                 "--config", toy_config, "--out", str(out)])
    assert code == 0
    lines = [l for l in read(out).splitlines() if not l.startswith("#")]
    cycle0_assign = [l for l in lines if l.startswith("0,") and "pixel" in l]
    assert len(cycle0_assign) == 9
    from collections import Counter
    pix = Counter(tuple(l.split(",")[3:5]) for l in cycle0_assign)
    assert sorted(pix.values()) == [1, 2, 2, 4]


def test_dump_schedule_zero_padding_builtin(tmp_path):
    out = tmp_path / "zp.txt"
    code = main(["dump-schedule", "--layer", "GAN_Deconv3", "--design",
                 "zero_padding", "--out", str(out)])
    assert code == 0
    lines = [l for l in read(out).splitlines() if not l.startswith("#")]
    assigns = [l for l in lines if ",window," in l]
    assert len(assigns) == 64  # 8x8 output, one window per cycle


def test_dump_schedule_repeat_identical(toy_config, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["dump-schedule", "--layer", "toy3x2", "--design", "red_folded",
            "--config", toy_config]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_main_calls_share_one_parser(monkeypatch, capsys):
    # the parser is built once per process; parsing leaves it unchanged
    import argparse

    parsers = []
    real_parse = argparse.ArgumentParser.parse_args

    def parse_args(self, *args, **kwargs):
        parsers.append(self)
        return real_parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
    outputs = []
    for _ in range(2):
        assert main(["dump-schedule", "--layer", "GAN_Deconv3", "--design", "red_folded"]) == 0
        outputs.append(capsys.readouterr())
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert outputs[0] == outputs[1] and outputs[0].out.startswith("# design=red_folded")


def test_dump_schedule_unknown_design(capsys):
    assert main(["dump-schedule", "--layer", "GAN_Deconv1", "--design", "fast"]) == 2
    assert "unknown design" in capsys.readouterr().err


def test_dump_schedule_unknown_layer(capsys):
    assert main(["dump-schedule", "--layer", "nope", "--design", "red"]) == 2
    assert "unknown layer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

# sha256 of the built-in reports (channel_scale 1/64, one trial) and of the
# GAN_Deconv2 schedule dumps; a change that alters them must mean to and
# record the new digests here
GOLDEN = {
    "csv/breakdown.csv": "a5b22f2762106e0a7ff2a70b0d36461d68b061980c1ec7981f50337685f1a2df",
    "csv/summary.csv": "8afd966868f78b41a305b706e2f1ef4d6c6d4b79aeee430e0e40afe953037c45",
    "json/report.json": "2868d032374a3a838f8d66f3ea1e302363a751e6bc5bcace82b7dba329345d70",
    "dump_zero_padding.txt": "da0116c1b251cf4da58122ac9a01cf12ddbeca7f614c73795260b390c1254acd",
    "dump_padding_free.txt": "9cd4b6cf82a190d68f6187a0e0dcee8b7295e40ca6e6686c02ec7be1c09fb16f",
    "dump_red.txt": "7c514652129c46c3bbbf6b07268148d0bda3e673c0949e2affd9e983aa7bded3",
    "dump_red_folded.txt": "b9478e3f4b113ed88ed27e586a7a2d985c75d0add0233581e8c813967310e013",
}


def test_reports_and_dumps_match_recorded_digests(tmp_path):
    run = ["run", "--channel-scale", str(1 / 64), "--trials", "1"]
    assert main([*run, "--out", str(tmp_path / "csv")]) == 0
    assert main([*run, "--out", str(tmp_path / "json"), "--format", "json"]) == 0
    for design in ("zero_padding", "padding_free", "red", "red_folded"):
        assert main(["dump-schedule", "--layer", "GAN_Deconv2", "--design", design,
                     "--out", str(tmp_path / f"dump_{design}.txt")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN
