"""Compute accounting and evaluation: the cost model of a network layout
(``FlopsModel``, which states the MAC convention), per-sample cost from gate
values, block-usage statistics across a scale grid, and the inverse map from
a compute budget back to a scale setting.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import (
    GatedResNet,
    GateMode,
    ModelSpec,
    _check_scale,
    gate_hidden_width,
)
from .tensor import no_grad

EVAL_BATCH = 256  # samples per forward pass in evaluate


@dataclass(frozen=True)
class FlopsModel:
    """Per-sample MAC budget of a gated network at a given input size.

    A conv costs Cin*Cout*k^2*Hout*Wout multiply-accumulates, an affine map
    Din*Dout; normalization, activations and pooling cost zero.
    ``block_macs`` is the skippable residual-branch cost of each block;
    everything else (stem, head, gate modules, projection shortcuts) always
    runs and lives in the fixed part.
    """
    stem_macs: int
    head_macs: int
    gate_macs: tuple[int, ...]
    block_macs: tuple[int, ...]
    proj_macs: tuple[int, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.block_macs)

    @property
    def fixed_macs(self) -> int:
        return self.stem_macs + self.head_macs + sum(self.gate_macs) \
            + sum(self.proj_macs)

    @property
    def total_macs(self) -> int:
        """Cost with every gate open."""
        return self.fixed_macs + sum(self.block_macs)

    @property
    def gate_overhead_ratio(self) -> float:
        """All gate modules relative to the full backbone."""
        gates = sum(self.gate_macs)
        return gates / (self.total_macs - gates)

    def sample_macs(self, gates: np.ndarray) -> np.ndarray:
        """Per-sample cost from a [B, N] (or [N]) array of gate values."""
        gates = np.atleast_2d(np.asarray(gates, dtype=np.float64))
        if gates.shape[1] != self.num_blocks:
            raise ValueError(f"expected {self.num_blocks} gate columns, "
                             f"got {gates.shape[1]}")
        return self.fixed_macs + gates @ np.asarray(self.block_macs,
                                                    dtype=np.float64)

    @classmethod
    def for_model(cls, spec: ModelSpec, input_hw: tuple[int, int]
                  ) -> "FlopsModel":
        # a 3x3 pad-1 or 1x1 pad-0 conv of stride s maps a side n to ceil(n/s)
        h, w = input_hw
        stem = spec.in_channels * spec.channels[0] * 9 * h * w
        gate_macs, block_macs, proj_macs = [], [], []
        for c_in, c_out, stride, needs_proj in spec.block_shapes():
            h, w = -(-h // stride), -(-w // stride)
            # branch: 3x3 c_in -> c_out, then 3x3 c_out -> c_out
            block_macs.append(9 * c_out * (c_in + c_out) * h * w)
            proj_macs.append(c_in * c_out * h * w if needs_proj else 0)
            # gate: affine (c_in + 1) -> dh, then dh -> 1
            gate_macs.append((c_in + 2)
                             * gate_hidden_width(c_in, spec.reduction))
        return cls(stem_macs=stem,
                   head_macs=spec.channels[-1] * spec.num_classes,
                   gate_macs=tuple(gate_macs),
                   block_macs=tuple(block_macs), proj_macs=tuple(proj_macs))


@dataclass(frozen=True)
class UsageStats:
    """Gate usage and cost statistics over one dataset at one scale."""
    scale: float
    per_block_usage: np.ndarray       # mean gate per block, [N]
    usage_mean: float                 # mean blocks used per sample
    usage_std: float
    macs_mean: float
    macs_std: float
    n_samples: int


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    stats: UsageStats
    per_sample_macs: np.ndarray

    def summary(self) -> dict:
        s = self.stats
        return {"scale": s.scale, "accuracy": self.accuracy,
                "usage_mean": s.usage_mean, "usage_std": s.usage_std,
                "flops_mean": s.macs_mean, "flops_std": s.macs_std}


def evaluate(model: GatedResNet, dataset, scale: float, *,
             gate_override: GateMode | None = None) -> EvalResult:
    """Top-1 accuracy plus usage/cost statistics at one scale setting, in
    batches of ``EVAL_BATCH`` samples.

    Deterministic and side-effect-free: gates are binary (the evaluation
    default) unless ``gate_override`` forces a mode, batch-norm running
    statistics are left untouched, and no autodiff graph is built.
    """
    scale = _check_scale(scale)
    images, labels = dataset.images, dataset.labels
    if len(images) == 0:
        raise ValueError("dataset is empty")
    modes = None if gate_override is None else \
        [gate_override] * model.num_blocks
    gates, correct = [], []
    with no_grad():
        for start in range(0, len(images), EVAL_BATCH):
            rows = slice(start, start + EVAL_BATCH)
            logits, record = model.forward(images[rows], scale, modes)
            gates.append(record.gates)
            correct.append(np.argmax(logits.data, axis=1) == labels[rows])
    gates, correct = np.concatenate(gates), np.concatenate(correct)
    per_block = gates.mean(axis=0)
    totals = gates.sum(axis=1)
    fm = FlopsModel.for_model(model.spec, images.shape[2:])
    macs = fm.sample_macs(gates)
    stats = UsageStats(scale=scale,
                       per_block_usage=per_block,
                       usage_mean=float(per_block.sum()),
                       usage_std=float(totals.std()),
                       macs_mean=float(macs.mean()),
                       macs_std=float(macs.std()),
                       n_samples=len(totals))
    return EvalResult(accuracy=float(correct.mean()), stats=stats,
                      per_sample_macs=macs)


def budget_to_scale(calibration: list[tuple[float, float]],
                    budget: float) -> float:
    """Largest scale whose interpolated mean cost fits the budget.

    ``calibration`` is (scale, mean_macs) pairs sorted by scale with
    non-decreasing cost; the answer is clamped to the calibrated endpoints
    and linearly interpolated between them.
    """
    if not calibration:
        raise ValueError("empty calibration table")
    s_vals = [float(s) for s, _ in calibration]
    f_vals = [float(f) for _, f in calibration]
    if s_vals != sorted(s_vals):
        raise ValueError("calibration must be sorted by scale")
    if any(b < a for a, b in zip(f_vals, f_vals[1:])):
        raise ValueError("calibration costs must be non-decreasing")

    if budget >= f_vals[-1]:
        return s_vals[-1]
    if budget <= f_vals[0]:
        return s_vals[0]
    i = bisect_right(f_vals, budget) - 1
    f0, f1 = f_vals[i], f_vals[i + 1]
    if f1 == f0:
        return s_vals[i]
    t = (budget - f0) / (f1 - f0)
    return s_vals[i] + t * (s_vals[i + 1] - s_vals[i])


def monotone_envelope(calibration: list[tuple[float, float]]
                      ) -> tuple[list[tuple[float, float]], bool]:
    """Force non-decreasing costs by running-max; flags whether anything
    changed, so callers can warn."""
    out, changed, running = [], False, -np.inf
    for s, f in calibration:
        if f < running:
            changed = True
            f = running
        running = f
        out.append((s, f))
    return out, changed
