"""How gating works: the two gate forms, the exact-skip identity, and
which parameters receive gradients in a joint-phase pass, where batch norm
uses batch statistics and the backbone trains."""

import numpy as np

from resizenet.model import (
    GateMode, GateParams, GatedResNet, ModelSpec, gate_activation,
    gate_forward, sample_gate_modes,
)
from resizenet.tensor import Tensor, softmax_cross_entropy

rng = np.random.default_rng(1)

print("== gate activation: sigmoid is soft, the step is hard ==")
z = Tensor([-2.0, -0.1, 0.0, 0.1, 2.0])
print("z        :", z.data)
print("sigmoid  :", np.round(gate_activation(z, GateMode.SIGMOID).data, 3))
print("binary   :", gate_activation(z, GateMode.BINARY).data,
      "(strictly-above-zero opens)")

print("\n== training draws a form per gate module per pass ==")
modes = sample_gate_modes(0.3, 10, np.random.default_rng(7))
print("p=0.3 ->", [m.value for m in modes])
print("evaluation always uses the binary form: a block runs its branch "
      "on the samples whose gate is open only, and a block closed for the "
      "whole batch is skipped")

print("\n== the gate sees pooled features plus the scale knob ==")
gp = GateParams.create(8, 2, rng)
x = Tensor(rng.standard_normal((4, 6, 6, 8)))   # channels-last [B,H,W,C]
for scale in (0.2, 0.6, 1.0):
    g = gate_forward(x, scale, gp, GateMode.SIGMOID)
    print(f"scale {scale}: gates {np.round(g.data, 3)}")

print("\n== a closed block is a bitwise identity ==")
spec = ModelSpec(stage_blocks=(3,), channels=(8,), num_classes=4)
model = GatedResNet(spec, rng)
for g in model.gate_modules:   # force every gate shut
    g.b2.data[...] = -100.0
xb = rng.standard_normal((2, 3, 8, 8))
logits, record = model.forward(xb, 0.5)
stem_head = model._head(model._stem(Tensor(xb), False))
print("all gates:", record.gates.ravel())
print("logits == stem+head exactly:",
      np.array_equal(logits.data, stem_head.data))

print("\n== binary gates block gate-module gradients ==")
model2 = GatedResNet(spec, np.random.default_rng(2))
labels = rng.integers(0, 4, 2)
logits, _ = model2.forward(xb, 0.8, modes=[GateMode.BINARY] * 3,
                           bn_training=True)
softmax_cross_entropy(logits, labels).backward()
gate_grads = [p.grad for p in model2.gate_parameters()]
conv_grads = [b.conv1.w.grad for b in model2.blocks]
print("gate-module grads all zero :",
      all(g is None or not g.any() for g in gate_grads))
print("backbone grads nonzero     :",
      all(g is not None and np.abs(g).max() > 0 for g in conv_grads))
