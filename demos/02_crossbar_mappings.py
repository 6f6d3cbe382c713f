"""How the three designs place the same weights on crossbar cells.

All layouts store exactly kh*kw*C*M weight values; they differ in shape and
therefore in periphery circuitry.  The pixel-wise layout can additionally
fold pairs of sub-crossbars into double-height arrays, halving the output
periphery at the price of a second drive phase per cycle.
"""

import numpy as np

from red_sim import Kernel4, build_plan, fold_area_efficient, map_pixel_wise
from red_sim.mapping import DesignKind

rng = np.random.default_rng(3)
kh, kw, c, m = 3, 3, 6, 4
kernel = Kernel4(rng.integers(-4, 5, (kh, kw, c, m)))

print(f"kernel: {kh}x{kw}, {c} channels, {m} filters "
      f"({kh * kw * c * m} weight values)\n")

for design in DesignKind:
    plan = build_plan(kernel, design)
    shapes = {x.shape for x in plan.crossbars}
    inv = plan.periphery_inventory
    print(f"{design.value:13s} {len(plan.crossbars):3d} arrays of {shapes}, "
          f"{plan.cell_count} cells, "
          f"read ports {inv['rc']}, wordline ports {inv['wd']}")

# a crossbar is a plain weight array; the pixel-wise subs are indexed by
# kernel position: sub n = i*kw + j
subs = map_pixel_wise(kernel)
print(f"\nsub-crossbar 5 holds kernel position (1, 2): "
      f"{np.array_equal(subs[1 * kw + 2], kernel.data[1, 2])}")

# folding stacks subs 2n and 2n+1; driving one half at a time reproduces
# the original products (the second phase drives rows C..2C-1)
folded = fold_area_efficient(subs)
x = rng.integers(-4, 5, c)
lo = np.concatenate([x, np.zeros(c, dtype=np.int64)]) @ folded[0]
print(f"folded sub 0, low half driven == original sub 0 product: "
      f"{np.array_equal(lo, x @ subs[0])}")
print(f"9 subs fold into {len(folded)} (odd count: last high half is zeros)")
