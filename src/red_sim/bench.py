"""Benchmark registry, config ingestion, and suite orchestration.

The built-in registry holds the six deconvolution layers used for the
design comparison (four GAN generator layers, two FCN up-sampling layers).
`run_suite` executes each layer on every requested design with seeded
random integer data at desk scale (channels optionally scaled down),
asserts element-exact agreement with the software oracle, and evaluates
the cost model analytically at the full declared dimensions, so cost
results are independent of the channel scaling.

Random data comes from a 64-bit linear congruential generator
(state * 6364136223846793005 + 1442695040888963407 mod 2^64, output the
high 32 bits, value = high32 % 17 - 8) so fixtures are reproducible across
implementations; see the README for the exact draw order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .costmodel import (
    DEFAULT_PARAMS_LABEL,
    ComparisonReport,
    CostParams,
    compare,
    cost_breakdown,
)
from .dataflow import (CycleSchedule, build_schedule, execute, trace_of_schedule,
                       validate_schedule)
from .mapping import DesignKind, MappingPlan, build_plan
from .tensor import DeconvLayerSpec, Kernel4, Tensor3, _is_int, deconv_oracle_zero_padding

__all__ = [
    "BenchmarkEntry",
    "ConfigError",
    "EquivalenceError",
    "RunOptions",
    "Lcg64",
    "builtin_benchmarks",
    "load_config",
    "parse_design",
    "parse_designs",
    "parse_channel_scale",
    "parse_seed",
    "scale_channels",
    "run_suite",
    "ALL_DESIGNS",
]

ALL_DESIGNS = (
    DesignKind.ZERO_PADDING,
    DesignKind.PADDING_FREE,
    DesignKind.RED,
    DesignKind.RED_FOLDED,
)


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


class EquivalenceError(AssertionError):
    """A simulated design disagreed with the software oracle."""


@dataclass(frozen=True)
class BenchmarkEntry:
    name: str
    network: str
    dataset: str
    spec: DeconvLayerSpec
    notes: str = ""


def builtin_benchmarks() -> list[BenchmarkEntry]:
    """The six registered deconvolution layers.

    The two 5x5/stride-2 GAN layers need a total crop of 3 per axis, which
    no symmetric padding yields; the split puts the smaller crop first
    (top/left = 1, bottom/right = 2).
    """

    def spec(ih, iw, c, k, m, s, crops=(0, 0, 0, 0)):
        return DeconvLayerSpec(ih, iw, c, k, k, m, s, *crops)

    asym = "asymmetric crop 1/2 per axis"
    entries = [
        BenchmarkEntry("GAN_Deconv1", "DCGAN", "LSUN",
                       spec(8, 8, 512, 5, 256, 2, (1, 2, 1, 2)), asym),
        BenchmarkEntry("GAN_Deconv2", "Improved GAN", "Cifar-10",
                       spec(4, 4, 512, 5, 256, 2, (1, 2, 1, 2)), asym),
        BenchmarkEntry("GAN_Deconv3", "SNGAN", "Cifar-10",
                       spec(4, 4, 512, 4, 256, 2, (1, 1, 1, 1))),
        BenchmarkEntry("GAN_Deconv4", "SNGAN", "STL-10",
                       spec(6, 6, 512, 4, 256, 2, (1, 1, 1, 1))),
        BenchmarkEntry("FCN_Deconv1", "voc-fcn8s_2x", "PASCAL VOC",
                       spec(16, 16, 21, 4, 21, 2)),
        BenchmarkEntry("FCN_Deconv2", "voc-fcn8s_8x", "PASCAL VOC",
                       spec(70, 70, 21, 16, 21, 8)),
    ]
    return entries


# ---------------------------------------------------------------------------
# Seeded input generation
# ---------------------------------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg64:
    """64-bit LCG; draws are the high 32 bits of each successive state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def _states(self, n: int) -> np.ndarray:
        """The next n states, advancing the generator (vectorized doubling)."""
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        out = np.empty(n, dtype=np.uint64)
        out[0] = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        have = 1
        # affine composition of `have` generator steps, written in place
        a, c = _LCG_MULT, _LCG_INC
        while have < n:
            take = min(have, n - have)
            step = out[have : have + take]
            with np.errstate(over="ignore"):
                np.multiply(out[:take], np.uint64(a), out=step)
                step += np.uint64(c)
            a, c = (a * a) & _MASK64, (a * c + c) & _MASK64
            have += take
        self.state = int(out[n - 1])
        return out

    def ints(self, shape: tuple[int, ...]) -> np.ndarray:
        """Small signed integers in [-8, 8], row-major draw order."""
        values = self._states(int(np.prod(shape)))
        # in place: the high 32 bits mod 17 fit int64, so view, not copy
        values >>= np.uint64(32)
        values %= np.uint64(17)
        values = values.view(np.int64)
        values -= 8
        return values.reshape(shape)


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------


@dataclass
class RunOptions:
    seed: int = 42
    channel_scale: float = 1.0
    designs: tuple[DesignKind, ...] = ALL_DESIGNS
    critical_path_mode: str = "max"
    params_label: str = DEFAULT_PARAMS_LABEL


def parse_design(name) -> DesignKind:
    try:
        return DesignKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in ALL_DESIGNS)
        raise ConfigError(f"unknown design '{name}' (valid: {valid})") from None


def parse_designs(names) -> tuple[DesignKind, ...]:
    """Distinct design names, from a config's `designs` or `--designs`."""
    if not isinstance(names, list) or not names:
        raise ConfigError("designs must be a non-empty array")
    designs = tuple(parse_design(d) for d in names)
    for d in designs:
        if designs.count(d) > 1:
            raise ConfigError(f"design '{d.value}' is listed more than once")
    return designs


def parse_channel_scale(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= 1:
        raise ConfigError("channel_scale must be in (0, 1]")
    return float(value)


def parse_seed(value) -> int:
    """A seed from a config's `seed` or `--seed`: an unsigned 64-bit integer."""
    if not _is_int(value) or not 0 <= value <= _MASK64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    return value


_TOP_KEYS = {"layers", "cost_params", "seed", "channel_scale", "designs",
             "critical_path_mode", "notes"}
_LAYER_KEYS = {"name", "input", "kernel", "stride", "crop"}


def _layer_from_config(i: int, raw: dict) -> BenchmarkEntry:
    where = f"layers[{i}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    for key in raw:
        if key not in _LAYER_KEYS:
            raise ConfigError(f"unknown key in {where}: '{key}'")
    for key in ("name", "input", "kernel", "stride"):
        if key not in raw:
            raise ConfigError(f"{where} is missing required key '{key}'")
    inp = raw["input"]
    ker = raw["kernel"]
    if not (isinstance(inp, list) and len(inp) == 3):
        raise ConfigError(f"{where}.input must be [h, w, c]")
    if not (isinstance(ker, list) and len(ker) == 4):
        raise ConfigError(f"{where}.kernel must be [kh, kw, c, m]")
    crop = raw.get("crop", [0, 0, 0, 0])
    if not (isinstance(crop, list) and len(crop) == 4):
        raise ConfigError(f"{where}.crop must be [top, bottom, left, right]")
    for key, values in (("input", inp), ("kernel", ker), ("stride", [raw["stride"]]),
                        ("crop", crop)):
        if not all(_is_int(v) for v in values):
            raise ConfigError(f"{where}.{key} must hold integers")
    if ker[2] != inp[2]:
        raise ConfigError(
            f"{where}.kernel channel count {ker[2]} must match input channels {inp[2]}"
        )
    try:
        spec = DeconvLayerSpec(
            input_h=inp[0], input_w=inp[1], channels=inp[2],
            kh=ker[0], kw=ker[1], filters=ker[3],
            stride=raw["stride"],
            crop_top=crop[0], crop_bottom=crop[1], crop_left=crop[2], crop_right=crop[3],
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err
    return BenchmarkEntry(name=str(raw["name"]), network="custom", dataset="", spec=spec)


def load_config(path) -> tuple[list[BenchmarkEntry], CostParams, RunOptions]:
    """Read and validate a UTF-8 JSON config.

    Omitted `layers` selects the built-in benchmarks; omitted `cost_params`
    selects the NON-CALIBRATED defaults (and reports say so).  Unknown keys
    are rejected by name.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key: '{key}'")

    if "layers" in raw:
        if not isinstance(raw["layers"], list) or not raw["layers"]:
            raise ConfigError("layers must be a non-empty array")
        entries = [_layer_from_config(i, item) for i, item in enumerate(raw["layers"])]
    else:
        entries = builtin_benchmarks()

    label = DEFAULT_PARAMS_LABEL
    given = raw.get("cost_params", {})
    if not isinstance(given, dict):
        raise ConfigError("cost_params must be an object")
    if given:
        label = "user-supplied"
    try:
        params = CostParams.from_dict(given)
    except ValueError as err:
        raise ConfigError(f"cost_params: {err}") from err

    opts = RunOptions(params_label=label)
    if "seed" in raw:
        opts.seed = parse_seed(raw["seed"])
    if "channel_scale" in raw:
        opts.channel_scale = parse_channel_scale(raw["channel_scale"])
    if "designs" in raw:
        opts.designs = parse_designs(raw["designs"])
    if "critical_path_mode" in raw:
        mode = raw["critical_path_mode"]
        if mode not in ("max", "sum"):
            raise ConfigError("critical_path_mode must be 'max' or 'sum'")
        opts.critical_path_mode = mode
    return entries, params, opts


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def scale_channels(spec: DeconvLayerSpec, factor: float) -> DeconvLayerSpec:
    """Shrink channel and filter counts by `factor` (ceil, minimum 1)."""
    if not 0 < factor <= 1:
        raise ValueError("channel_scale must be in (0, 1]")
    return replace(spec, channels=max(1, math.ceil(spec.channels * factor)),
                   filters=max(1, math.ceil(spec.filters * factor)))


def _diff_summary(got: np.ndarray, want: np.ndarray, limit: int = 3) -> str:
    bad = np.argwhere(got != want)
    parts = [f"{len(bad)} of {want.size} elements differ"]
    for y, x, m in bad[:limit]:
        parts.append(f"at ({y},{x},{m}): got {got[y, x, m]}, oracle {want[y, x, m]}")
    return "; ".join(parts)


def run_suite(
    entries: list[BenchmarkEntry],
    params: CostParams | None = None,
    designs: tuple[DesignKind, ...] = ALL_DESIGNS,
    channel_scale: float = 1.0,
    seed: int = 42,
    trials: int = 3,
    critical_path_mode: str = "max",
    params_label: str = DEFAULT_PARAMS_LABEL,
) -> list[ComparisonReport]:
    """Functionally verify and cost-compare every entry on every design.

    Per entry: weights and `trials` random inputs are drawn from the seeded
    generator at channel-scaled dimensions, every design's execution must
    match the zero-padding oracle element-exactly, and cost breakdowns are
    evaluated analytically at the full declared dimensions.  Entry i uses
    generator seed (seed + i); the kernel is drawn before the inputs.

    Each (entry, design) gets one validated schedule.  It depends on the
    spatial geometry only, so it serves every trial and, traced once on a
    full-size geometry-only plan, the cost side.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    params = params or CostParams()
    designs = tuple(DesignKind(d) for d in designs)
    baseline = DesignKind.ZERO_PADDING if DesignKind.ZERO_PADDING in designs else None

    reports = []
    for idx, entry in enumerate(entries):
        scaled = scale_channels(entry.spec, channel_scale)
        rng = Lcg64(seed + idx)
        kernel = Kernel4(rng.ints((scaled.kh, scaled.kw, scaled.channels, scaled.filters)))
        inputs = [
            Tensor3(rng.ints((scaled.input_h, scaled.input_w, scaled.channels)))
            for _ in range(trials)
        ]
        oracles = [deconv_oracle_zero_padding(t, kernel, scaled) for t in inputs]

        breakdowns = {}
        for design in designs:
            schedule = build_schedule(scaled, design)
            validate_schedule(schedule)
            _verify(f"{entry.name} / {design.value}", build_plan(kernel, design, scaled),
                    schedule, inputs, oracles)
            # cost side: full declared dimensions, which need no weights
            full_plan = MappingPlan(design, entry.spec.kernel_shape)
            trace = trace_of_schedule(schedule, full_plan)
            breakdowns[design] = cost_breakdown(
                trace, full_plan, params, layer=entry.name, spec=entry.spec,
                critical_path_mode=critical_path_mode,
            )
        # free this layer's data before the next layer's draw
        del kernel, inputs, oracles
        reports.append(
            compare(breakdowns, baseline=baseline, params_label=params_label,
                    critical_path_mode=critical_path_mode)
        )
    return reports


def _verify(where: str, plan: MappingPlan, schedule: CycleSchedule, inputs: list[Tensor3],
            oracles: list[Tensor3]):
    """Every trial's execution must equal its oracle.  The plan is freed on
    return, before the next design's plan is built."""
    for t, (tensor, want) in enumerate(zip(inputs, oracles)):
        got = execute(plan, schedule, tensor)
        if not np.array_equal(got.data, want.data):
            raise EquivalenceError(f"{where} / trial {t}: " + _diff_summary(got.data, want.data))
