"""red-sim benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a checkout.  Each workload run is a fresh child
interpreter (child.py) that calls `red_sim.cli.main` for each of the
workload's commands, one child after another: one client, closed loop.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over several children of spawn -> CLI hands its
               parsed config to run_suite (interpreter start, numpy and
               red_sim imports, config parsing)
  run_s        median host time of the `red-sim run` command after set-up,
               until its report files are written
  job_s        median child wall time, spawn to exit, all commands
  peak_rss_mb  median peak resident memory of a child
--trace 1 runs one untraced and one traced child and reports the
per-layer self times and counts of tracing.py.

Every child's outputs are checked afterwards (checks.py), plus one oracle
spot check per layer.  The last stdout line is the JSON result; lines
before it print every metric with its unit, dump_s and error_rate, and the
run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

# set-up-only children per run, started between workload children as
# measured time passes so that set-up is sampled across the whole run and
# never on a processor still idle from before the run
SETUP_CHILDREN = 10
# seconds a run may spend in children, leaving time for the checks within
# the 180 s a run may take; a child still running then is killed and fails
BUDGET = 160

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def spawn(work: str, tag: str, commands: list[list[str]], mode: str,
          timeout: float = BUDGET) -> dict | None:
    """Run one child to completion; None if it failed or timed out."""
    job = os.path.join(work, f"{tag}.job.json")
    result = os.path.join(work, f"{tag}.result.json")
    with open(job, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "commands": commands, "mode": mode, "result": result}, fh)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, job], cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"child {tag} killed after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    exited = time.monotonic()
    if proc.returncode != 0 or not os.path.exists(result):
        print(f"child {tag} exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}",
              file=sys.stderr)
        return None
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res.update(spawned=spawned, exited=exited)
    return res


def samples(res: dict) -> dict[str, float]:
    """One child's measurements; timestamps share CLOCK_MONOTONIC."""
    cmds = res["commands"]
    return {
        "setup_s": res["suite_entered"] - res["spawned"],
        "run_s": cmds[0]["end"] - res["suite_entered"],
        "dump_s": sum(c["end"] - c["start"] for c in cmds[1:]),
        "job_s": res["exited"] - res["spawned"],
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        "cpu_s": res["cpu_s"],
    }


def provenance(name: str, seed: int, layers: list[dict]) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "red_sim")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    spec = workloads.WORKLOADS[name]
    return {
        "commit": commit, "src_sha256": src.hexdigest(),
        "workload": name, "seed": seed, "layers": len(layers),
        "designs": len(workloads.DESIGNS), "trials": spec["trials"],
        "channel_scale": spec["channel_scale"],
        "commands": len(workloads.workload_commands(name, seed, "", "")),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "load": "one client process at a time, closed loop",
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: str) -> dict:
    layers = workloads.workload_layers(name, seed)
    spec = workloads.WORKLOADS[name]
    config = os.path.join(work, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(workloads.workload_config(name, seed), fh)
    digests = checks.recorded_digests(name, seed)
    started = time.monotonic()
    problems: list[str] = []
    checked: list[str] = []
    failed: set[tuple] = set()  # (child tag, operation)

    def left() -> float:
        return BUDGET - (time.monotonic() - started)

    def child(tag: str, mode: str) -> dict | None:
        """A workload child, its outputs checked; None unless its run completed."""
        out_dir = os.path.join(work, tag)
        res = spawn(work, tag, workloads.workload_commands(name, seed, config, out_dir), mode,
                    max(1.0, left()))
        bad, why = checks.check_child(name, layers, res, out_dir, digests)
        checked.append(tag)
        failed.update((tag, op) for op in bad)
        problems.extend(f"{tag}: {w}" for w in why)
        shutil.rmtree(out_dir, ignore_errors=True)
        if res is None or res["suite_entered"] is None or not res["commands"]:
            problems.append(f"{tag}: the run command did not complete")
            return None
        return res

    out: dict = {"layers": layers}
    if not trace:
        setups: list[float] = []

        def setup_children(n: int):
            for _ in range(max(0, n)):
                res = spawn(work, f"setup{len(setups)}",
                            workloads.workload_commands(name, seed, config, work), "setup",
                            max(1.0, left()))
                if res is None or res["suite_entered"] is None:
                    problems.append("a set-up child did not reach run_suite")
                else:
                    setups.append(res["suite_entered"] - res["spawned"])

        runs: list[dict] = []
        # closed loop: the next child starts only if it should end within
        # --seconds of measured time
        measured = 0.0
        while not runs or (measured + runs[-1]["job_s"] <= seconds
                           and runs[-1]["job_s"] < left()):
            res = child(f"run{len(runs)}", "run")
            if res is None:
                break
            runs.append(samples(res))
            measured += runs[-1]["job_s"]
            setup_children(round(SETUP_CHILDREN * min(1.0, measured / seconds)) - len(setups))
        setup_children(SETUP_CHILDREN - len(setups))
        keys = ["run_s", "job_s", "peak_rss_mb"] + (["dump_s"] if spec["dumps"] else [])
        out["samples"] = {k: [r[k] for r in runs] for k in keys}
        out["samples"]["setup_s"] = setups + [r["setup_s"] for r in runs]
        if runs:
            out["metrics"] = {k: statistics.median(v) for k, v in out["samples"].items()}
    else:
        plain = child("untraced", "run")
        traced = child("traced", "traced") if plain is not None else None
        if traced is not None:
            spans = traced["spans"]
            # the run command's measured part starts when run_suite is entered
            window = {0: traced["suite_entered"]}
            m = tracing.aggregate(spans, window)
            run_s = samples(traced)["run_s"]
            m.update({"proc.cpu_s": plain["cpu_s"], "trace.run_s": run_s,
                      "trace.overhead_s": run_s - samples(plain)["run_s"]})
            out["metrics"] = m
            out["accounted_s"] = sum(own for s, own in zip(spans, tracing.self_times(spans, window))
                                     if s[4] == 0)
            out["executes"] = len(layers) * len(workloads.DESIGNS) * spec["trials"]
            if abs(out["accounted_s"] - run_s) > 1e-3:
                problems.append(f"self times sum to {out['accounted_s']} s, "
                                f"traced run_s is {run_s} s")
    bad_layers = checks.spot_check(layers, spec["channel_scale"], seed)
    if bad_layers:
        # the rows of a layer whose oracle is wrong were verified against it
        failed.update((tag, ("row", layer, d)) for tag in checked
                      for layer in bad_layers for d in workloads.DESIGNS)
        problems.append(f"oracle spot check failed on {', '.join(bad_layers)}")
    out.update(attempted=len(checked) * len(checks.operations(name, layers)),
               failed=len(failed), problems=problems)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "red_sim", "cli.py")):
        print(f"error: no red-sim source under {ROOT}/src", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must be in [0, 2**63)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass

    print("provenance: " + json.dumps(provenance(args.workload, args.seed, res["layers"])))
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    metrics = res.get("metrics") or {}
    units = declared_units(bool(args.trace))
    if not args.trace:
        n = {k: len(v) for k, v in res["samples"].items()}
        print(f"{args.workload} seed {args.seed}: {n['run_s']} workload runs, "
              f"{n['setup_s']} set-ups, medians reported")
        for key, values in res["samples"].items():
            print(f"  samples {key}: {values}")
        if workloads.WORKLOADS[args.workload]["dumps"] and metrics:
            units = {**units, "dump_s": "s"}
    else:
        print(f"{args.workload} seed {args.seed}: one traced run; the self times of its run "
              f"command sum to {res.get('accounted_s')} s (compare trace.run_s); "
              f"layers x designs x trials = {res.get('executes')} (compare "
              "dataflow.trace_calls_in_execute)")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:34s} {metrics[name]!r} {unit}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'error_rate':34s} {rate!r} ratio ({res['failed']}/{res['attempted']} "
          "operations failed)")

    complete = set(metrics) >= set(units)
    line = {
        "correct": complete and res["failed"] == 0 and not res["problems"],
        "attempted": max(1, res["attempted"]),
        "failed": res["failed"] if res["attempted"] else 1,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics and k != "dump_s"},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
