"""Output checks, run outside the timed region.

An operation is one (layer, design) row of a `run` or one schedule dump.
Each check returns the operations it rejects:

* (a) the `run` exit code and its `all checks passed (L x D x T)` line;
* (b) `summary.csv` cycle counts against the closed forms of workloads.py;
* (c) every dump's line count against the closed form;
* (d) sha256 digests of the reports and dumps recorded in digests.json;

plus `spot_check`, an oracle cross-check with a reference of our own.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

import numpy as np

import workloads

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
REPORTS = ("summary.csv", "breakdown.csv")


def operations(name: str, layers: list[dict]) -> list[tuple[str, str, str]]:
    ops = [("row", layer["name"], d) for layer in layers for d in workloads.DESIGNS]
    if workloads.WORKLOADS[name]["dumps"]:
        ops += [("dump", op[1], op[2]) for op in ops]
    return ops


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def report_digests(out_dir: str, layers: list[dict], dumps: bool) -> dict[str, str]:
    """sha256 per header and per (layer, design) line group of each report,
    and per dump file.  Keys: `<file>:header`, `<file>:<layer>/<design>`,
    `dump:<layer>/<design>`."""
    out = {}
    for report in REPORTS:
        data = _read(os.path.join(out_dir, report))
        if data is None:
            continue
        lines = data.split(b"\n")
        out[f"{report}:header"] = hashlib.sha256(lines[0]).hexdigest()
        groups = {}
        for line in lines[1:]:
            if not line:
                continue
            fields = next(csv.reader([line.decode("utf-8", "replace")]))
            layer, design = (fields + ["", ""])[:2]
            if report == "breakdown.csv":
                layer, design = design, layer
            groups.setdefault(f"{report}:{layer}/{design}", hashlib.sha256()).update(line + b"\n")
        out.update({k: h.hexdigest() for k, h in groups.items()})
    if dumps:
        for layer in layers:
            for d in workloads.DESIGNS:
                data = _read(os.path.join(out_dir, workloads.dump_name(layer["name"], d)))
                if data is not None:
                    out[f"dump:{layer['name']}/{d}"] = hashlib.sha256(data).hexdigest()
    return out


def recorded_digests(name: str, seed: int) -> dict[str, str] | None:
    """Digests recorded for this workload and seed, or None if there are none.

    The reports of the verify workloads depend only on the built-in
    geometry, not on the seed, so theirs hold for every seed."""
    with open(DIGESTS, encoding="utf-8") as fh:
        entry = json.load(fh).get(name)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry["digests"]


def check_child(name: str, layers: list[dict], result: dict | None, out_dir: str,
                digests: dict[str, str] | None) -> tuple[set, list[str]]:
    """Failed operations of one child and the reasons."""
    ops = operations(name, layers)
    rows = [op for op in ops if op[0] == "row"]
    failed: set = set()
    why: dict[str, int] = {}

    def fail(items, reason):
        new = set(items) - failed
        if new:
            failed.update(new)
            why[reason] = why.get(reason, 0) + len(new)

    def reasons():
        return [f"{reason} ({n} operations)" for reason, n in why.items()]

    if result is None:
        fail(ops, "child process failed")
        return failed, reasons()
    cmds = {tuple(c["argv"][:5]): c for c in result["commands"]}
    run = result["commands"][0] if result["commands"] else None
    spec = workloads.WORKLOADS[name]
    want = (f"all checks passed ({len(layers)} layers x {len(workloads.DESIGNS)} designs"
            f" x {spec['trials']} trials)")
    # (a)
    if run is None or run["code"] != 0 or want not in run["stdout"]:
        fail(rows, f"run did not report '{want}' with exit code 0")
    # (b)
    text = _read(os.path.join(out_dir, "summary.csv"))
    cycles = {}
    if text is not None:
        for rec in csv.DictReader(io.StringIO(text.decode("utf-8", "replace"))):
            cycles[(rec.get("layer"), rec.get("design"))] = rec.get("cycles")
    for op in rows:
        layer = next(x for x in layers if x["name"] == op[1])
        if cycles.get(op[1:]) != str(workloads.counts(layer, op[2])["cycles"]):
            fail([op], "summary.csv cycles differ from the closed form")
    # (c)
    for op in ops:
        if op[0] != "dump":
            continue
        layer = next(x for x in layers if x["name"] == op[1])
        cmd = cmds.get(("dump-schedule", "--layer", op[1], "--design", op[2]))
        data = _read(os.path.join(out_dir, workloads.dump_name(op[1], op[2])))
        if cmd is None or cmd["code"] != 0 or data is None:
            fail([op], "dump-schedule failed")
        elif data.count(b"\n") != workloads.counts(layer, op[2])["dump_lines"]:
            fail([op], "dump line count differs from the closed form")
    # (d)
    if digests is not None:
        got = report_digests(out_dir, layers, spec["dumps"])
        for key in set(digests) | set(got):
            if digests.get(key) == got.get(key):
                continue
            where, _, ident = key.partition(":")
            if ident == "header":
                fail(rows, f"{where} header differs from the recorded digest")
            else:
                layer, _, design = ident.partition("/")
                kind = "dump" if where == "dump" else "row"
                fail([(kind, layer, design)] if (kind, layer, design) in ops else rows,
                     f"{where} differs from the recorded digest")
    return failed, reasons()


# ---------------------------------------------------------------------------
# Independent oracle spot check
# ---------------------------------------------------------------------------


def reference_deconv(x: np.ndarray, w: np.ndarray, layer: dict) -> np.ndarray:
    """Deconvolution by per-tap scatter in float64, exact under its bound.

    Input pixel (a, b) meets kernel tap (i, j) at output
    (pad_top + s*a - i, pad_left + s*b - j), pad = k - 1 - crop.  Every
    partial sum is an integer below max|x|*max|w|*kh*kw*C, so when that
    bound is under 2**53 float64 represents each exactly; otherwise refuse.
    """
    ih, iw, c = x.shape
    kh, kw, _, m = w.shape
    bound = int(np.abs(x).max()) * int(np.abs(w).max()) * kh * kw * c
    if bound >= 2**53:
        raise ValueError(f"reference not exact: bound {bound} >= 2**53")
    s = layer["stride"]
    top, _, left, _ = layer["crop"]
    oh, ow = workloads.output_hw(layer)
    canvas = np.zeros((oh + s * ih + 2 * kh, ow + s * iw + 2 * kw, m))
    flat = x.reshape(ih * iw, c).astype(np.float64)
    for i in range(kh):
        for j in range(kw):
            y0 = kh + (kh - 1 - top) - i
            x0 = kw + (kw - 1 - left) - j
            block = (flat @ w[i, j].astype(np.float64)).reshape(ih, iw, m)
            canvas[y0 : y0 + s * ih : s, x0 : x0 + s * iw : s] += block
    return canvas[kh : kh + oh, kw : kw + ow].astype(np.int64)


def spot_check(layers: list[dict], channel_scale: float, seed: int) -> list[str]:
    """Names of layers on which red_sim's zero-padding oracle disagrees with
    `reference_deconv` on one seeded input (values in [-8, 8])."""
    from red_sim.tensor import DeconvLayerSpec, Kernel4, Tensor3, deconv_oracle_zero_padding

    bad = []
    for idx, layer in enumerate(layers):
        small = workloads.scaled(layer, channel_scale)
        rng = np.random.default_rng([seed, idx])
        w = rng.integers(-8, 9, size=small["kernel"])
        x = rng.integers(-8, 9, size=small["input"])
        spec = DeconvLayerSpec(*workloads.geometry_key(small))
        try:
            want = reference_deconv(x, w, small)
            got = deconv_oracle_zero_padding(Tensor3(x), Kernel4(w), spec).data
        except ValueError:
            bad.append(layer["name"])
            continue
        if got.shape != want.shape or not np.array_equal(got, want):
            bad.append(layer["name"])
    return bad
