"""One workload run in a fresh interpreter: `python3 child.py JOB.json`.

JOB holds the checkout root, the red-sim argument lists and a mode:

* ``setup``  -- stop as soon as the CLI hands its parsed config to
  ``run_suite`` (the set-up measurement);
* ``run``    -- run every command untraced;
* ``traced`` -- run every command with the spans of ``tracing.py``.

Each command goes through ``red_sim.cli.main`` in this process with its
stdout and stderr captured.  The result file gets, per command, the exit
code, output and CLOCK_MONOTONIC start/end, plus the moment ``run_suite``
was entered and this process's rusage.  Timestamps share one clock with
the parent, which records the spawn time.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


class _SetupDone(Exception):
    pass


def peak_rss_kb(usage) -> int:
    """This process's own peak RSS.  Linux folds the parent's high-water
    mark into ru_maxrss at exec, so read the mm's own VmHWM when present."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = job["root"] + "/src"
    sys.path.insert(0, src)
    import red_sim.cli as cli

    if not cli.__file__.startswith(src + "/"):
        raise SystemExit(f"red_sim imported from {cli.__file__}, not from {src}")

    suite_entered = []
    real_run_suite = cli.run_suite

    def run_suite(*args, **kwargs):
        suite_entered.append(time.monotonic())
        if job["mode"] == "setup":
            raise _SetupDone
        return real_run_suite(*args, **kwargs)

    cli.run_suite = run_suite
    entry = cli.main
    tracer = None
    if job["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        entry = tracer.install(cli)

    results = []
    for run_id, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.run_id = run_id
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = entry(argv)
        except _SetupDone:
            break
        except SystemExit as exc:  # argparse rejects a command this way
            code = exc.code
        except Exception:  # a crash fails this command's operations, not the job
            code = None
            err.write(traceback.format_exc())
        results.append({"argv": argv, "code": code, "start": start, "end": time.monotonic(),
                        "stdout": out.getvalue(), "stderr": err.getvalue()})

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "suite_entered": suite_entered[0] if suite_entered else None,
        "commands": results,
        "maxrss_kb": peak_rss_kb(usage),
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
