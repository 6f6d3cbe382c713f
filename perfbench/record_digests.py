"""Re-record digests.json: `python3 perfbench/record_digests.py`.

Runs each workload once on the default seed and stores the sha256 of its
report line groups and dumps.  Reports depend on the geometry, not on the
input data, so the digests of a workload whose layers do not change with
the seed (verify_small, verify_full) hold for every seed; the others hold
for the default seed only.  Re-record only when a change is meant to alter
simulated statistics, and say so in its notes.
"""

import json
import os
import shutil
import sys
import tempfile

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=run.WORK)
    recorded = {}
    try:
        config = os.path.join(work, "config.json")
        for name, spec in workloads.WORKLOADS.items():
            seed = workloads.DEFAULT_SEED
            layers = workloads.workload_layers(name, seed)
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(workloads.workload_config(name, seed), fh)
            out_dir = os.path.join(work, name)
            res = run.spawn(work, name, workloads.workload_commands(name, seed, config, out_dir),
                            "run")
            failed, why = checks.check_child(name, layers, res, out_dir, None)
            if failed:
                print(f"{name}: not recording, checks failed: {why}", file=sys.stderr)
                return 1
            fixed = workloads.workload_layers(name, seed + 1) == layers
            recorded[name] = {"seed": None if fixed else seed,
                              "digests": checks.report_digests(out_dir, layers, spec["dumps"])}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
