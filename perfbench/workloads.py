"""Workload definitions and the closed-form geometry the checks rely on.

A layer is a dict in red-sim's config format:
``{"name", "input": [h, w, c], "kernel": [kh, kw, c, m], "stride",
"crop": [top, bottom, left, right]}``.  Every count here is derived from
that geometry with plain integer arithmetic, independently of red_sim, so
the checks in ``checks.py`` compare the program against numbers it did not
produce.
"""

from __future__ import annotations

import math
import random

DESIGNS = ("zero_padding", "padding_free", "red", "red_folded")

# The six layers of red-sim's built-in registry (README, bench.py).
BUILTIN_LAYERS = [
    {"name": "GAN_Deconv1", "input": [8, 8, 512], "kernel": [5, 5, 512, 256],
     "stride": 2, "crop": [1, 2, 1, 2]},
    {"name": "GAN_Deconv2", "input": [4, 4, 512], "kernel": [5, 5, 512, 256],
     "stride": 2, "crop": [1, 2, 1, 2]},
    {"name": "GAN_Deconv3", "input": [4, 4, 512], "kernel": [4, 4, 512, 256],
     "stride": 2, "crop": [1, 1, 1, 1]},
    {"name": "GAN_Deconv4", "input": [6, 6, 512], "kernel": [4, 4, 512, 256],
     "stride": 2, "crop": [1, 1, 1, 1]},
    {"name": "FCN_Deconv1", "input": [16, 16, 21], "kernel": [4, 4, 21, 21],
     "stride": 2, "crop": [0, 0, 0, 0]},
    {"name": "FCN_Deconv2", "input": [70, 70, 21], "kernel": [16, 16, 21, 21],
     "stride": 8, "crop": [0, 0, 0, 0]},
]

# Why each workload exists and what it stresses is in NOTES.md.
WORKLOADS = {
    # acceptance-criterion shape: index and copy work, trace recomputation
    "verify_small": {"trials": 3, "channel_scale": 1 / 64, "dumps": False},
    # int64 matmul at declared channels; FCN_Deconv2 (about 100 s alone on
    # a 2-vCPU x86 VM) is left out, its geometry is covered by verify_small
    "verify_full": {"trials": 1, "channel_scale": 1.0, "dumps": False},
    # many random geometries: plan/schedule construction and schedule dumps
    "design_space": {"trials": 1, "channel_scale": 1 / 512, "dumps": True,
                     "layers": 32},
}

DEFAULT_SEED = 42  # red-sim's own default seed; digests.json is recorded on it


def design_space_layers(seed: int, count: int) -> list[dict]:
    """`count` distinct random valid geometries, the same for the same seed.

    Stride 2..8, each kernel side s..2s, input sides 2..12, crops on all
    four sides, C up to 512 and M up to 256.  The sizes (stride, kernel,
    input, channels, total crop per axis) come from a fixed generator, so
    the work and memory of a run do not vary with the seed; the seed draws
    how each axis's crop splits between its two sides and which axis is
    which.  Those change the schedules' alignment, not their size.
    """
    sizes = random.Random(f"design_space/{count}")
    skeletons, seen = [], set()
    while len(skeletons) < count:
        s = sizes.randint(2, 8)
        kh, kw = sizes.randint(s, 2 * s), sizes.randint(s, 2 * s)
        ih, iw = sizes.randint(2, 12), sizes.randint(2, 12)
        th, tw = sizes.randint(0, 2 * kh - 2), sizes.randint(0, 2 * kw - 2)
        c, m = sizes.randint(1, 512), sizes.randint(1, 256)
        axes = sorted([(ih, kh, th), (iw, kw, tw)])
        if s * (ih - 1) + kh - th < 1 or s * (iw - 1) + kw - tw < 1 \
                or (s, c, m, *axes) in seen:
            continue
        seen.add((s, c, m, *axes))
        skeletons.append((s, c, m, (ih, kh, th), (iw, kw, tw)))

    # largest kernel first: the peak RSS is then that layer's, on a fresh
    # heap, rather than heap fragmentation that varies with the seed
    skeletons.sort(key=lambda sk: -sk[1] * sk[2] * sk[3][1] * sk[4][1])
    rng = random.Random(seed)
    layers = []
    for s, c, m, *axes in skeletons:
        if rng.random() < 0.5:
            axes.reverse()
        (ih, kh, th), (iw, kw, tw) = axes
        top = rng.randint(max(0, th - kh + 1), min(th, kh - 1))
        left = rng.randint(max(0, tw - kw + 1), min(tw, kw - 1))
        layers.append({"name": f"DS{len(layers):02d}", "input": [ih, iw, c],
                       "kernel": [kh, kw, c, m], "stride": s,
                       "crop": [top, th - top, left, tw - left]})
    return layers


def workload_layers(name: str, seed: int) -> list[dict]:
    if name == "verify_small":
        return BUILTIN_LAYERS
    if name == "verify_full":
        return BUILTIN_LAYERS[:5]
    return design_space_layers(seed, WORKLOADS[name]["layers"])


def workload_config(name: str, seed: int) -> dict:
    """The config file the program receives.  verify_small relies on the
    built-in registry, the other two list their layers."""
    cfg = {"seed": seed, "channel_scale": WORKLOADS[name]["channel_scale"]}
    if name != "verify_small":
        cfg["layers"] = workload_layers(name, seed)
    return cfg


def workload_commands(name: str, seed: int, config: str, out_dir: str) -> list[list[str]]:
    """red-sim argument lists: one `run`, then (design_space) every dump."""
    cmds = [["run", "--config", config, "--out", out_dir,
             "--trials", str(WORKLOADS[name]["trials"])]]
    if WORKLOADS[name]["dumps"]:
        for layer in workload_layers(name, seed):
            for d in DESIGNS:
                cmds.append(["dump-schedule", "--layer", layer["name"], "--design", d,
                             "--config", config,
                             "--out", f"{out_dir}/{dump_name(layer['name'], d)}"])
    return cmds


def dump_name(layer: str, design: str) -> str:
    return f"{layer}.{design}.txt"


# ---------------------------------------------------------------------------
# Closed-form geometry
# ---------------------------------------------------------------------------


def scaled(layer: dict, channel_scale: float) -> dict:
    """The layer at red-sim's channel scaling (ceil, minimum 1)."""
    ih, iw, c = layer["input"]
    kh, kw, _, m = layer["kernel"]
    c2 = max(1, math.ceil(c * channel_scale))
    m2 = max(1, math.ceil(m * channel_scale))
    return {**layer, "input": [ih, iw, c2], "kernel": [kh, kw, c2, m2]}


def geometry_key(layer: dict) -> tuple:
    """Field order of red_sim's DeconvLayerSpec."""
    ih, iw, c = layer["input"]
    kh, kw, _, m = layer["kernel"]
    return (ih, iw, c, kh, kw, m, layer["stride"], *layer["crop"])


def layer_from_key(key) -> dict:
    ih, iw, c, kh, kw, m, s, *crop = key
    return {"input": [ih, iw, c], "kernel": [kh, kw, c, m], "stride": s, "crop": list(crop)}


def output_hw(layer: dict) -> tuple[int, int]:
    ih, iw, _ = layer["input"]
    kh, kw = layer["kernel"][:2]
    s = layer["stride"]
    top, bottom, left, right = layer["crop"]
    return s * (ih - 1) + kh - top - bottom, s * (iw - 1) + kw - left - right


def _axis_pairs(n_out: int, k: int, s: int, crop_lead: int, n_in: int) -> tuple[int, int]:
    """(all, live) pairs (output coord y, kernel coord i) along one axis
    with y + i = pad (mod s), pad = k - 1 - crop_lead; live ones land on an
    input coordinate a = (y + i - pad) / s inside [0, n_in)."""
    pad = k - 1 - crop_lead
    total = live = 0
    for i in range(k):
        r = (pad - i) % s
        total += max(0, -(-(n_out - r) // s))
        # 0 <= pad - i + s*a < n_out and 0 <= a < n_in
        lo = max(0, -(-(i - pad) // s))
        hi = min(n_in - 1, (n_out - 1 - pad + i) // s)
        live += max(0, hi - lo + 1)
    return total, live


def counts(layer: dict, design: str) -> dict:
    """Exact per-design counts for one layer at the geometry given.

    cycles: schedule length; assignments: schedule rows; groups:
    accumulation groups; dump_lines: lines of its schedule dump; macs:
    multiply-accumulates one `execute` computes; useful_macs: those whose
    input operand is an original input pixel; cells: crossbar cells."""
    ih, iw, c = layer["input"]
    kh, kw, _, m = layer["kernel"]
    s = layer["stride"]
    top, _, left, _ = layer["crop"]
    oh, ow = output_hw(layer)
    rows_all, rows_live = _axis_pairs(oh, kh, s, top, ih)
    cols_all, cols_live = _axis_pairs(ow, kw, s, left, iw)
    live = rows_live * cols_live
    tiles = -(-oh // s) * -(-ow // s)
    if design == "zero_padding":
        out = {"cycles": oh * ow, "assignments": oh * ow, "groups": oh * ow,
               "macs": oh * ow * kh * kw * c * m, "cells": kh * kw * c * m}
    elif design == "padding_free":
        out = {"cycles": ih * iw, "assignments": ih * iw, "groups": 0,
               "macs": ih * iw * kh * kw * c * m, "cells": kh * kw * c * m}
        live = ih * iw * kh * kw
    else:
        folded = design == "red_folded"
        n = rows_all * cols_all
        out = {"cycles": tiles * (2 if folded else 1), "assignments": n, "groups": oh * ow,
               "macs": n * c * m * (2 if folded else 1),
               "cells": ((kh * kw + 1) // 2) * 2 * c * m if folded else kh * kw * c * m}
    out["useful_macs"] = live * c * m
    out["dump_lines"] = 2 + out["assignments"] + out["groups"]
    return out


def oracle_macs(layer: dict) -> int:
    """MACs of the zero-padding oracle: a full kh*kw*C window per output."""
    oh, ow = output_hw(layer)
    kh, kw, c, m = layer["kernel"]
    return oh * ow * kh * kw * c * m
