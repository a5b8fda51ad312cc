"""Train a small resizable model end to end (about a minute) and check
whether block usage tracks the scale knob at evaluation."""

import numpy as np

from resizenet.data import Dataset, make_synthetic
from resizenet.metrics import FlopsModel, evaluate
from resizenet.model import GatedResNet, ModelSpec
from resizenet.training import OptimizerSpec, TrainConfig, Trainer

spec = ModelSpec(stage_blocks=(3, 3), channels=(8, 16), num_classes=4)
train = make_synthetic(768, 4, 8, seed=20)
big = make_synthetic(1152, 4, 8, seed=20)
val = Dataset(big.images[768:], big.labels[768:], "val", dict(big.meta))

print(f"model: {spec.num_blocks} gated blocks, "
      f"{sum(p.size for p in GatedResNet(spec, np.random.default_rng(0)).parameters())} parameters")

model = GatedResNet(spec, np.random.default_rng(5))
cfg = TrainConfig(
    beta=2.0, p=0.1, scale_range=(0.2, 1.0),
    epochs_total=24, epochs_gate_only=6, batch_size=32, seed=5,
    optimizer=OptimizerSpec(kind="sgd", momentum=0.9, weight_decay=5e-4),
    gate_optimizer=OptimizerSpec(kind="adam"),
    gate_lr_scale=0.2,
    lr_schedule=((0, 0.05), (14, 0.01), (20, 0.002)))

print("training (gate-only phase, then joint)...")
trainer = Trainer(model, train, None, cfg)
trainer.run()
last = trainer.report.rows[-1]
print(f"final training loss {last.loss_total:.3f} "
      f"(classification {last.loss_classification:.3f} "
      f"+ beta*scale {last.loss_scale:.4f})")

print("\nscale knob vs measured behavior on held-out data:")
fm = FlopsModel.for_model(spec, (8, 8))
print(f"{'scale':>6} {'usage/N':>8} {'accuracy':>9} {'MACs (rel)':>11}")
usage = []
for s in (0.2, 0.4, 0.6, 0.8, 1.0):
    r = evaluate(model, val, s, flops_model=fm)
    rel = r.stats.macs_mean / fm.total_macs
    usage.append(round(r.stats.usage_mean / spec.num_blocks, 3))
    print(f"{s:>6.1f} {usage[-1]:>8.3f} {r.accuracy:>9.3f} {rel:>11.2f}")

# a working knob: usage/N never falls as S grows and rises by at least
# 0.15 from S=0.2 to S=1.0
rise = round(usage[-1] - usage[0], 3)
steady = all(a <= b for a, b in zip(usage, usage[1:]))
verdict = "usage rides the knob" if steady and rise >= 0.15 else \
    "the knob does not steer usage yet"
print(f"\n{verdict}: usage/N changes by {rise:+.3f} from S=0.2 to S=1.0 "
      f"and {'never falls' if steady else 'falls'} in between (a working "
      f"knob rises by at least 0.150 and never falls).")
