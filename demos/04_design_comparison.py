"""Cost-model comparison of the three designs on the built-in benchmarks.

Functional runs execute at reduced channel counts (the equivalence check is
structural, not size-dependent); the cost model always evaluates at the
full declared dimensions.  Coefficients are NON-CALIBRATED order-of-
magnitude defaults: read the trends, not the absolute numbers.
"""

from red_sim import builtin_benchmarks, run_suite
from red_sim.costmodel import REFERENCE_COMPARISONS

reports = run_suite(builtin_benchmarks(), channel_scale=1 / 64, trials=2)

print(f"{'layer':12s} {'design':13s} {'cycles':>8s} {'norm lat':>9s} "
      f"{'norm energy':>12s} {'norm area':>10s}")
for report in reports:
    for name, entry in report.entries.items():
        print(f"{report.layer:12s} {name:13s} {entry.breakdown.cycle_count:8d} "
              f"{entry.normalized_latency:9.4f} {entry.normalized_energy:12.4f} "
              f"{entry.normalized_area:10.4f}")

ref = REFERENCE_COMPARISONS
print("\npublished reference ranges for the pixel-wise design "
      "(computed values above are NON-CALIBRATED trends):")
print(f"  speedup {ref['speedup_vs_zero_padding'][0]}-"
      f"{ref['speedup_vs_zero_padding'][1]}x, "
      f"energy saving {ref['energy_saving_pct_vs_zero_padding'][0]}-"
      f"{ref['energy_saving_pct_vs_zero_padding'][1]}%, "
      f"area overhead {ref['red_area_overhead_pct_vs_zero_padding']}%")
