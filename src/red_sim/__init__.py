"""Simulator for ReRAM crossbar deconvolution designs.

Functionally executes and cost-models three crossbar implementations of
transposed convolution: the zero-padding design, the padding-free design,
and the pixel-wise / zero-skipping design (with its area-efficient folded
variant).  All executions are verified against independent software
oracles; the cost model aggregates per-cycle activity into latency, energy
and area breakdowns for cross-design trend comparison.
"""

from .tensor import (
    Tensor3,
    Kernel4,
    DeconvLayerSpec,
    output_shape,
    dilate_and_pad,
    conv2d_valid,
    rotate180,
    deconv_oracle_zero_padding,
    deconv_oracle_padding_free,
    zero_redundancy_ratio,
)
from .mapping import (
    DesignKind,
    MappingPlan,
    map_pixel_wise,
    fold_area_efficient,
    build_plan,
)
from .dataflow import (
    ModePartition,
    CycleSchedule,
    ExecutionTrace,
    partition_modes,
    build_schedule,
    Program,
    lower,
    execute,
    trace_of_program,
    dump_schedule_lines,
)
from .costmodel import (
    CostParams,
    CostBreakdown,
    ComparisonReport,
    latency_of,
    energy_of,
    area_of,
    cost_breakdown,
    compare,
)
from .bench import (
    BenchmarkEntry,
    builtin_benchmarks,
    load_config,
    run_suite,
    Lcg64,
    ConfigError,
    EquivalenceError,
)

__version__ = "0.1.0"
