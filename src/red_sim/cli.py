"""Command-line driver.

Subcommands:
    list           print the built-in benchmark registry
    run            run the functional + cost-model suite, emit reports
    redundancy     zero-redundancy ratio versus stride (plot-ready CSV)
    dump-schedule  per-cycle schedule of one layer/design, stable text format

Exit codes: 0 success, 1 oracle-equivalence failure, 2 usage/config error
or an output that cannot be written.  All file outputs are
byte-deterministic given the same arguments, config and seed.
`RED_SIM_CONFIG` supplies the config path when --config is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from collections.abc import Iterable

from .bench import (
    ALL_DESIGNS,
    ConfigError,
    EquivalenceError,
    RunOptions,
    builtin_benchmarks,
    load_config,
    parse_channel_scale,
    parse_design,
    parse_designs,
    parse_seed,
    run_suite,
)
from .costmodel import (
    REFERENCE_COMPARISONS,
    CostParams,
    breakdown_csv_rows,
    report_to_dict,
    summary_csv_rows,
)
from .dataflow import build_schedule, dump_schedule_text
from .tensor import DeconvLayerSpec, output_shape, zero_redundancy_ratio

ENV_CONFIG = "RED_SIM_CONFIG"

EXIT_OK = 0
EXIT_EQUIVALENCE = 1
EXIT_USAGE = 2


@contextlib.contextmanager
def _writing(path: str):
    """A failure to write `path` is a usage error (exit 2); a closed pipe
    still ends the command cleanly."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err


def _write_text(path: str | None, text: str | Iterable[str]):
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with _writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _resolve_config(args) -> tuple[list, CostParams, RunOptions]:
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        entries, params, opts = load_config(path)
    else:
        entries, params, opts = builtin_benchmarks(), CostParams(), RunOptions()
    if getattr(args, "seed", None) is not None:
        opts.seed = parse_seed(args.seed)
    if getattr(args, "channel_scale", None) is not None:
        opts.channel_scale = parse_channel_scale(args.channel_scale)
    if getattr(args, "designs", None) is not None:
        opts.designs = parse_designs(args.designs.split(",") if args.designs else [])
    return entries, params, opts


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    entries = builtin_benchmarks()
    if args.format == "json":
        obj = [
            {
                "layer_name": e.name,
                "network_model": e.network,
                "dataset": e.dataset,
                "input_size": [e.spec.input_h, e.spec.input_w, e.spec.channels],
                "output_size": list(output_shape(e.spec)),
                "kernel_size": [e.spec.kh, e.spec.kw, e.spec.channels, e.spec.filters],
                "stride": e.spec.stride,
                "crop": [e.spec.crop_top, e.spec.crop_bottom,
                         e.spec.crop_left, e.spec.crop_right],
                "notes": e.notes,
            }
            for e in entries
        ]
        _write_text(args.out, _json_text(obj))
        return EXIT_OK

    header = ["Layer Name", "Network Model", "Dataset", "Input Size",
              "Output Size", "Kernel Size", "Stride"]
    rows = [header]
    for e in entries:
        oh, ow, m = output_shape(e.spec)
        rows.append([
            e.name, e.network, e.dataset,
            f"({e.spec.input_h}, {e.spec.input_w}, {e.spec.channels})",
            f"({oh}, {ow}, {m})",
            f"({e.spec.kh}, {e.spec.kw}, {e.spec.channels}, {e.spec.filters})",
            str(e.spec.stride),
        ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    entries, params, opts = _resolve_config(args)
    if args.out:
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
    reports = run_suite(
        entries,
        params=params,
        designs=opts.designs,
        channel_scale=opts.channel_scale,
        seed=opts.seed,
        trials=args.trials,
        critical_path_mode=opts.critical_path_mode,
        params_label=opts.params_label,
    )

    if args.out:
        if args.format == "json":
            obj = {
                "seed": opts.seed,
                "channel_scale": opts.channel_scale,
                "trials": args.trials,
                "reports": [report_to_dict(r) for r in reports],
            }
            _write_text(os.path.join(args.out, "report.json"), _json_text(obj))
        else:
            _write_text(os.path.join(args.out, "breakdown.csv"),
                        _csv_text(breakdown_csv_rows(reports)))
            _write_text(os.path.join(args.out, "summary.csv"),
                        _csv_text(summary_csv_rows(reports)))

    # stdout summary: one line per layer/design plus the reference ranges
    lines = [f"oracle equivalence: all checks passed "
             f"({len(reports)} layers x {len(opts.designs)} designs x {args.trials} trials)",
             f"cost params: {opts.params_label}"]
    for report in reports:
        for name, entry in report.entries.items():
            speed = ("-" if entry.speedup_vs_baseline is None
                     else f"{entry.speedup_vs_baseline:.2f}x")
            save = ("-" if entry.energy_saving_pct is None
                    else f"{entry.energy_saving_pct:.1f}%")
            over = ("-" if entry.area_overhead_pct is None
                    else f"{entry.area_overhead_pct:+.1f}%")
            lines.append(
                f"{report.layer:12s} {name:12s} cycles={entry.breakdown.cycle_count:<8d} "
                f"speedup={speed:>8s} energy_saving={save:>7s} area={over:>8s}"
            )
    if reports:
        ref = REFERENCE_COMPARISONS
        lines.append(
            "reference ranges: speedup "
            f"{ref['speedup_vs_zero_padding'][0]}-{ref['speedup_vs_zero_padding'][1]}x, "
            f"energy saving {ref['energy_saving_pct_vs_zero_padding'][0]}-"
            f"{ref['energy_saving_pct_vs_zero_padding'][1]}%, "
            f"area overhead {ref['red_area_overhead_pct_vs_zero_padding']}% "
            "(computed values are NON-CALIBRATED trends)"
        )
    print("\n".join(lines))
    return EXIT_OK


def cmd_redundancy(args) -> int:
    try:
        strides = [int(s) for s in args.strides.split(",") if s]
    except ValueError:
        raise ConfigError("--strides must be a comma-separated integer list") from None
    if not strides:
        raise ConfigError("--strides must be non-empty")
    if any(s < 1 for s in strides):
        raise ConfigError("stride must be ≥ 1")
    if (args.kernel_rule == "fixed") != (args.kernel_size is not None):
        raise ConfigError("--kernel-size is required with --kernel-rule fixed and refused with k2s")

    rows = [["stride", "kernel", "zero_redundancy_ratio"]]
    for s in strides:
        k = 2 * s if args.kernel_rule == "k2s" else args.kernel_size
        crops = (k - 1,) * 4 if args.crop_mode == "full" else (0, 0, 0, 0)
        try:
            spec = DeconvLayerSpec(args.input_size, args.input_size, 1,
                                   k, k, 1, s, *crops)
        except ValueError as err:
            raise ConfigError(f"stride {s}: {err}") from None
        rows.append([str(s), str(k), str(zero_redundancy_ratio(spec))])

    if args.format == "json":
        obj = [{"stride": int(r[0]), "kernel": int(r[1]),
                "zero_redundancy_ratio": float(r[2])} for r in rows[1:]]
        _write_text(args.out, _json_text(obj))
    else:
        _write_text(args.out, _csv_text(rows))
    return EXIT_OK


def _find_layer(name: str, entries) -> DeconvLayerSpec:
    for e in entries:
        if e.name == name:
            return e.spec
    known = ", ".join(e.name for e in entries)
    raise ConfigError(f"unknown layer '{name}' (known: {known})")


def cmd_dump_schedule(args) -> int:
    """Write one layer's schedule dump a chunk at a time, as formatted."""
    entries, _, _ = _resolve_config(args)
    spec = _find_layer(args.layer, entries)
    schedule = build_schedule(spec, parse_design(args.design))
    _write_text(args.out, dump_schedule_text(schedule))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and building it looks every help string up in gettext's catalogue."""
    parser = argparse.ArgumentParser(
        prog="red-sim",
        description="ReRAM crossbar deconvolution designs: functional simulation "
                    "and trend cost model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the built-in benchmark registry")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.add_argument("--out", default=None)
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run the suite and emit reports")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--out", default=None, help="directory for report files")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--channel-scale", dest="channel_scale", type=float, default=None)
    p_run.add_argument("--designs", default=None,
                       help="comma-separated subset of "
                            + ",".join(k.value for k in ALL_DESIGNS))
    p_run.add_argument("--trials", type=int, default=3,
                       help="random inputs per layer (default 3)")
    p_run.set_defaults(func=cmd_run)

    p_red = sub.add_parser("redundancy", help="zero-redundancy ratio vs stride")
    p_red.add_argument("--strides", default="2,4,8,16,32")
    p_red.add_argument("--kernel-rule", dest="kernel_rule",
                       choices=("k2s", "fixed"), default="k2s",
                       help="k2s: kernel = 2*stride; fixed: use --kernel-size")
    p_red.add_argument("--kernel-size", dest="kernel_size", type=int, default=None)
    p_red.add_argument("--input-size", dest="input_size", type=int, default=16)
    p_red.add_argument("--crop-mode", dest="crop_mode",
                       choices=("zero", "full"), default="zero",
                       help="full: crop kernel-1 on all four sides (no border)")
    p_red.add_argument("--format", choices=("csv", "json"), default="csv")
    p_red.add_argument("--out", default=None)
    p_red.set_defaults(func=cmd_redundancy)

    p_dump = sub.add_parser("dump-schedule", help="dump one layer/design schedule")
    p_dump.add_argument("--layer", required=True,
                        help="layer name from the config or built-in registry")
    p_dump.add_argument("--design", required=True)
    p_dump.add_argument("--config", default=None)
    p_dump.add_argument("--out", default=None)
    p_dump.set_defaults(func=cmd_dump_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except EquivalenceError as err:
        print(f"equivalence failure: {err}", file=sys.stderr)
        return EXIT_EQUIVALENCE
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
