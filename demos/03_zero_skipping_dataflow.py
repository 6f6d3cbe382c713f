"""The zero-skipping dataflow, cycle by cycle.

With stride s, an output pixel's residue class decides which kernel
positions ever touch a non-zero pixel of the padded image; there are s^2
such computation modes and together they partition the kernel.  Each cycle
produces one s x s output tile: every mode serves its own output pixel
through its own sub-crossbars, all fed original input pixels only.
"""

from collections import defaultdict

import numpy as np

from red_sim import (
    DeconvLayerSpec,
    Kernel4,
    Tensor3,
    build_plan,
    deconv_oracle_zero_padding,
    execute,
    partition_modes,
    schedule_zero_skipping,
    trace_of_schedule,
)

# the classic K=3, stride-2 illustration; cropping 2 on top/left makes the
# padded image start on an original pixel, so cycle 0 shows the interior
# sharing pattern
spec = DeconvLayerSpec(4, 4, 2, 3, 3, 2, 2, 2, 0, 2, 0)

part = partition_modes(spec)
print("computation modes (kernel positions, 1..9 row-major numbering):")
for (ry, rx), positions in part.modes.items():
    labels = [i * 3 + j + 1 for i, j in positions]
    print(f"  mode {ry},{rx}: weights {labels}")

sched = schedule_zero_skipping(spec)
print(f"\n{sched.cycle_count} cycles for the {spec.output_h}x{spec.output_w} output")

for cycle in (0, 1):
    print(f"\ncycle {cycle}:")
    mask = sched.cycle == cycle
    by_pixel = defaultdict(list)
    for xb, live, a, b in zip(sched.crossbar[mask], sched.live[mask],
                              sched.src_a[mask], sched.src_b[mask]):
        key = f"I({a},{b})" if live else "zero"
        by_pixel[key].append(f"SC{xb + 1}")
    for key in sorted(by_pixel):
        print(f"  {key} -> {', '.join(sorted(by_pixel[key], key=lambda s: int(s[2:])))}")

# execution through the schedule matches the software oracle exactly
rng = np.random.default_rng(11)
x = Tensor3(rng.integers(-4, 5, (4, 4, 2)))
k = Kernel4(rng.integers(-4, 5, (3, 3, 2, 2)))
plan = build_plan(k, "red", spec)
out = execute(plan, sched, x)
trace = trace_of_schedule(sched, plan)
want = deconv_oracle_zero_padding(x, k, spec)
print(f"\nmatches oracle: {np.array_equal(out.data, want.data)}")
print(f"activations: {trace.vmm_activations} of {9 * trace.cycle_count} slots "
      f"(edge zeros skipped), {trace.cycle_count} cycles")
