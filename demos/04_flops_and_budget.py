"""Compute accounting: the MAC terms of one network layout, the
fixed-vs-skippable cost split, and resolving a compute budget back to a
scale setting."""

import numpy as np

from resizenet.metrics import FlopsModel, budget_to_scale
from resizenet.model import ModelSpec
from resizenet.training import FixedScaleConfig, annealed_scale_base

spec = ModelSpec(stage_blocks=(4, 4, 4), channels=(16, 32, 64),
                 num_classes=4)
fm = FlopsModel.for_model(spec, (8, 8))

print("== MAC counting convention ==")
print("Cin*Cout*k^2*Hout*Wout per conv, Din*Dout per affine map")
terms = [
    ("stem: 3x3 conv, 3->16ch at 8x8", fm.stem_macs),
    ("head: affine, 64->4", fm.head_macs),
    ("block 0 branch: two 3x3 convs, 16ch", fm.block_macs[0]),
    ("block 4 shortcut: 1x1 conv, 16->32 at 4x4", fm.proj_macs[4]),
    ("block 0 gate: affine 17->9, then 9->1", fm.gate_macs[0]),
]
for name, macs in terms:
    print(f"{name:42s} {macs:>10,} MACs")
print("(normalization, activations, pooling: zero under this convention)")

print("\n== cost model of the 12-block demo architecture ==")
print(f"fixed (stem+head+shortcuts+gates): {fm.fixed_macs:>12,}")
print(f"skippable residual branches      : {sum(fm.block_macs):>12,}")
print(f"total, all gates open            : {fm.total_macs:>12,}")
print(f"gate modules / backbone          : {fm.gate_overhead_ratio:.5f} "
      "(well under 1%)")

print("\n== per-sample cost follows the gates ==")
gates = np.zeros(fm.num_blocks)
gates[:4] = 1.0
print(f"4 of 12 blocks open: {fm.sample_macs(gates)[0]:,.0f} MACs")

print("\n== budget -> scale via a calibration table ==")
calibration = [(0.2, 1.2e6), (0.4, 1.8e6), (0.6, 2.4e6), (0.8, 3.0e6),
               (1.0, 3.5e6)]
for budget in (1.0e6, 2.1e6, 2.7e6, 9.9e6):
    s = budget_to_scale(calibration, budget)
    print(f"budget {budget:.1e} MACs -> scale {s:.3f}")

print("\n== fixed-scale compression anneals the target from 1.0 ==")
cfg = FixedScaleConfig(scale=0.6, sigma=0.0, anneal_epochs=5)
curve = [annealed_scale_base(e, cfg) for e in range(8)]
print("epoch targets:", [round(v, 3) for v in curve])
