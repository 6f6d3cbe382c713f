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
import sys
from dataclasses import dataclass, replace

import numpy as np

from .costmodel import (
    DEFAULT_PARAMS_LABEL,
    ComparisonReport,
    CostParams,
    compare,
    cost_breakdown,
)
from .dataflow import Program, execute, lower, schedule_parts, trace_of_program
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

ALL_DESIGNS = tuple(DesignKind)  # in the order the reports list them


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
_BLOCK_LOG2 = 15  # 2^15 states a block: with their high halves, 384 KiB of L2
_HIGH = 1 if sys.byteorder == "little" else 0  # a state's high uint32 half
_MOD17 = -(-(1 << 36) // 17)  # M = ceil(2^36 / 17): 17*M = 2^36 + 1


def _draws(high: np.ndarray, out: np.ndarray):
    """Into int64 `out`, each uint32 x of `high` mod 17, less 8: x // 17 is
    (x*M) >> 36 with M = `_MOD17`, as x*M / 2^36 = x/17 + x/(17*2^36), whose
    second term, below 1/272, cannot lift x/17's fraction, at most 16/17,
    to 1; and x*M < 2^64."""
    q = out.view(np.uint64)
    np.multiply(high, np.uint64(_MOD17), out=q)
    q >>= np.uint64(36)
    q *= np.uint64(17)
    np.subtract(high, q, out=q)
    out -= 8


class Lcg64:
    """64-bit LCG; draws are the high 32 bits of each successive state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def ints(self, shape: tuple[int, ...]) -> np.ndarray:
        """Small signed integers in [-8, 8], row-major draw order.

        Drawn one L2-sized block of 2^15 states at a time: the first block
        by doubling, each later one as the block before it advanced by one
        block's steps, and each block's high halves are taken mod 17 by a
        multiply and a shift (`_draws`), less 8, into the int64 result.
        Values and `state` are those of stepping the generator once per
        value."""
        out = np.empty(shape, dtype=np.int64)
        flat = out.reshape(-1)  # a view: `out` is new and contiguous
        n = flat.size
        if n == 0:
            return out
        block = np.empty(min(n, 1 << _BLOCK_LOG2), dtype=np.uint64)
        block[0] = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        # x -> a*x + c mod 2^64 is `have` generator steps, composed with
        # itself each pass, so a full first block ends on one block's steps
        a, c, have = _LCG_MULT, _LCG_INC, 1
        while have < len(block):
            take = min(have, len(block) - have)
            np.multiply(block[:take], np.uint64(a), out=block[have : have + take])
            block[have : have + take] += np.uint64(c)
            a, c, have = (a * a) & _MASK64, (a * c + c) & _MASK64, have + take
        for start in range(0, n, len(block)):
            if start:  # the block before, advanced 2^15 steps
                block = block[: n - start]
                block *= np.uint64(a)
                block += np.uint64(c)
            _draws(block.view(np.uint32)[_HIGH::2], flat[start : start + len(block)])
        self.state = int(block[-1])
        return out


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
    repeated = _first_repeated(designs)
    if repeated is not None:
        raise ConfigError(f"design '{repeated.value}' is listed more than once")
    return designs


def _first_repeated(values):
    """The first listed value that is listed again, or None, in one pass."""
    first = {}
    repeats = [first[v] for k, v in enumerate(values) if first.setdefault(v, k) != k]
    return values[min(repeats)] if repeats else None


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
        repeated = _first_repeated([entry.name for entry in entries])
        if repeated is not None:
            raise ConfigError(f"layer '{repeated}' is listed more than once")
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


def _diff_summary(got: np.ndarray, want: np.ndarray, program: Program, limit: int = 3) -> str:
    """The differing elements, the first `limit` with both values, and the
    program's kernel positions and input pixels summed into the first."""
    bad = np.argwhere(got != want)
    parts = [f"{len(bad)} of {want.size} elements differ"]
    for y, x, m in bad[:limit]:
        parts.append(f"at ({y},{x},{m}): got {got[y, x, m]}, oracle {want[y, x, m]}")
    y, x, _ = bad[0].tolist()
    causes = ", ".join(f"kernel position ({i}, {j}) from input pixel ({a}, {b})"
                       for (i, j), (a, b) in program.sources(y, x))
    parts.append(f"output pixel ({y},{x}) sums {causes or 'no kernel position'}")
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

    Each (entry, design) gets one schedule, built part by part and proved
    and lowered by `lower` as it is built, into the program every trial
    runs, so no whole schedule is held.  The program depends on the
    spatial geometry only, so it is traced once on a full-size
    geometry-only plan for the cost side.  The data-free stages run first,
    for every design: build, lower, trace and cost.  Only then is the
    kernel drawn, and the trials run one at a time: a trial's input is
    drawn, its oracle computed, and every design's plan built and run on
    it, one plan at a time, before the next trial's input is drawn.  So
    trial 0 of every design runs before trial 1 of any, and where several
    designs fail, the first failing trial's first failing design is
    reported.  A schedule that `lower` refuses is reported before any trial
    runs, even where an earlier design would also have failed its oracle
    comparison.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    params = params or CostParams()
    designs = tuple(DesignKind(d) for d in designs)
    baseline = DesignKind.ZERO_PADDING if DesignKind.ZERO_PADDING in designs else None

    reports = []
    for idx, entry in enumerate(entries):
        scaled = scale_channels(entry.spec, channel_scale)
        programs, breakdowns = {}, {}
        for design in designs:
            programs[design] = lower(schedule_parts(scaled, design))
            # cost side: full declared dimensions, which need no weights
            full_plan = MappingPlan(design, entry.spec.kernel_shape)
            breakdowns[design] = cost_breakdown(
                trace_of_program(programs[design], full_plan), full_plan, params,
                layer=entry.name, spec=entry.spec, critical_path_mode=critical_path_mode,
            )

        rng = Lcg64(seed + idx)
        weights = rng.ints(scaled.kernel_shape)
        weights.flags.writeable = False  # handed over: the kernel keeps it uncopied
        kernel = Kernel4(weights)
        for t in range(trials):
            # the inputs follow the kernel in the stream, one per trial
            tensor = Tensor3(rng.ints((scaled.input_h, scaled.input_w, scaled.channels)))
            want = deconv_oracle_zero_padding(tensor, kernel, scaled).data
            for design in designs:
                got = execute(build_plan(kernel, design, scaled), programs[design], tensor).data
                if not np.array_equal(got, want):
                    raise EquivalenceError(f"{entry.name} / {design.value} / trial {t}: "
                                           f"{_diff_summary(got, want, programs[design])}")
                del got  # before the next design's plan is built
            del want  # before the next trial's oracle is computed
        reports.append(
            compare(breakdowns, baseline=baseline, params_label=params_label,
                    critical_path_mode=critical_path_mode)
        )
    return reports
