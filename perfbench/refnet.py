"""Plain-numpy reference for the gated ResNet, and the benchmark's model builders.

The reference reads a model only through ``named_parameters`` and
``named_buffers`` (the names checkpoints use), computes channels-last
without any autodiff graph, and runs each residual branch on the rows whose
gate is open.  It serves two purposes: the oracle that the benchmark checks
the library's outputs against, and the one-pass calibration that gives the
"knob" model gates whose usage rises with the scale.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5  # resizenet.tensor.batch_norm default


def model_arrays(model) -> dict[str, np.ndarray]:
    """Every parameter and buffer by name; the arrays are the model's own."""
    arrays = {name: t.data for name, t in model.named_parameters()}
    arrays.update(model.named_buffers())
    return arrays


def block_strides(spec) -> list[int]:
    return [2 if (stage > 0 and i == 0) else 1
            for stage, n in enumerate(spec.stage_blocks) for i in range(n)]


def init_params(model, rng: np.random.Generator) -> None:
    """Draw every parameter from ``rng`` and reset batch-norm statistics.

    The scheme mirrors the library's own initialisation (He-normal convs,
    open-leaning gates), but is drawn here so that a change to the
    library's initialisation does not change the benchmark's workload.
    """
    for name, t in model.named_parameters():
        d = t.data
        if d.ndim == 4:
            d[...] = rng.standard_normal(d.shape) * math.sqrt(2.0 / d[0].size)
        elif name.endswith("gamma"):
            d[...] = 1.0
        elif name.endswith("beta") or name.endswith(".b1") or name == "head.b":
            d[...] = 0.0
        elif name.endswith(".w1"):
            d[...] = rng.standard_normal(d.shape) * math.sqrt(2.0 / d.shape[0])
            d[-1, :] = 2.0
        elif name.endswith(".w2"):
            d[...] = rng.standard_normal(d.shape) * (0.1 / math.sqrt(d.shape[0]))
        elif name.endswith(".b2"):
            d[...] = 1.0
        elif name == "head.w":
            d[...] = rng.standard_normal(d.shape) / math.sqrt(d.shape[0])
        else:
            raise ValueError(f"no initialisation rule for parameter {name}")
    for name, arr in model.named_buffers():
        arr[...] = 0.0 if name.endswith(".mean") else 1.0


def _conv(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """[B,H,W,C] cross-correlated with [Cout,C,k,k] -> [B,Ho,Wo,Cout]."""
    k = w.shape[2]
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    return np.tensordot(win, w, axes=([3, 4, 5], [1, 2, 3]))


def _bn(a: dict, pre: str, x: np.ndarray) -> np.ndarray:
    inv_std = 1.0 / np.sqrt(a[f"{pre}.var"] + BN_EPS)
    return a[f"{pre}.gamma"] * ((x - a[f"{pre}.mean"]) * inv_std) \
        + a[f"{pre}.beta"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def gate_logits(a: dict, i: int, pooled: np.ndarray,
                scale: float) -> np.ndarray:
    """Pre-step gate value of block ``i`` for pooled features [B,C]."""
    inp = np.concatenate([pooled, np.full((len(pooled), 1), scale)], axis=1)
    hidden = _relu(inp @ a[f"gate{i}.w1"] + a[f"gate{i}.b1"])
    return (hidden @ a[f"gate{i}.w2"] + a[f"gate{i}.b2"])[:, 0]


def forward(a: dict, spec, images: np.ndarray, scale: float,
            gate_hook=None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode forward pass: logits [B,K] and open gates [B,N].

    ``gate_hook(i, pooled)`` runs before block ``i``'s gate is computed and
    may rewrite that gate's parameters.
    """
    h = _relu(_bn(a, "stem.bn", _conv(images.transpose(0, 2, 3, 1),
                                      a["stem.conv"], 1, 1)))
    gates = []
    for i, stride in enumerate(block_strides(spec)):
        pre = f"block{i}"
        pooled = h.mean(axis=(1, 2))
        if gate_hook is not None:
            gate_hook(i, pooled)
        is_open = gate_logits(a, i, pooled, scale) > 0.0
        if f"{pre}.proj.conv" in a:
            out = _bn(a, f"{pre}.proj.bn",
                      _conv(h, a[f"{pre}.proj.conv"], stride, 0))
        else:
            out = h.copy()
        if is_open.any():
            branch = _relu(_bn(a, f"{pre}.bn1",
                               _conv(h[is_open], a[f"{pre}.conv1"], stride, 1)))
            out[is_open] += _bn(a, f"{pre}.bn2",
                                _conv(branch, a[f"{pre}.conv2"], 1, 1))
        h = _relu(out)
        gates.append(is_open)
    logits = h.mean(axis=(1, 2)) @ a["head.w"] + a["head.b"]
    return logits, np.stack(gates, axis=1)


# Knob model: block i opens for a sample when S exceeds THRESHOLDS[i] by more
# than a feature-dependent offset of unit spread.  SHARPNESS sets how many
# spreads one unit of S is worth: at 10, a block changes from mostly closed
# to mostly open over about 0.2 of S, so mid-S batches hold mixed gates.
# The thresholds are spread over (0.1, 0.9) in a fixed shuffled block order,
# so skipped work comes from every stage.  Calibration runs at CAL_SCALE, the
# middle of the scale range, where the gates are meant to be mixed.
SHARPNESS = 10.0
CAL_SCALE = 0.5


def knob_thresholds(n: int) -> np.ndarray:
    return np.linspace(0.1, 0.9, n)[np.random.default_rng(0).permutation(n)]


def calibrate_knob(model, images: np.ndarray) -> None:
    """Set every gate so that usage rises with S (one reference pass).

    With the hidden units kept in the linear part of the ReLU, block i's
    gate value is ``(u - median u) + SHARPNESS * (S - t_i)``, where ``u`` is
    the pooled-feature term normalised to unit spread over ``images`` at
    ``CAL_SCALE``.  Gates are set block by block inside a single reference
    pass, so each block is calibrated on the features that the already
    calibrated blocks before it produce.
    """
    a = model_arrays(model)
    thresholds = knob_thresholds(model.num_blocks)

    def hook(i: int, pooled: np.ndarray) -> None:
        w1, b1 = a[f"gate{i}.w1"], a[f"gate{i}.b1"]
        w2, b2 = a[f"gate{i}.w2"], a[f"gate{i}.b2"]
        feat = pooled @ w1[:-1]              # feature part of each hidden unit
        m = feat.mean(axis=1)
        g = 1.0 / m.std()
        w2[:, 0] = g / w2.shape[0]           # u = g * m, unit spread
        w1[-1, :] = SHARPNESS / g            # S enters u's scale as SHARPNESS*S
        b1[:] = 1.0 - feat.min(axis=0)       # keep hidden units above zero
        b2[0] = -(g * np.median(m) + SHARPNESS * thresholds[i] + b1 @ w2[:, 0])

    forward(a, model.spec, images, CAL_SCALE, gate_hook=hook)


def open_gates(model) -> None:
    """Every gate open for every input and scale: gate value is exactly 1."""
    for g in model.gate_modules:
        g.w2.data[...] = 0.0
        g.b2.data[...] = 1.0
