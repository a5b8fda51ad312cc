"""Compute accounting and evaluation: MAC counts per layer, per-sample
cost from gate values, block-usage statistics across a scale grid, and the
inverse map from a compute budget back to a scale setting.

Costs are multiply-accumulate counts of convolutional and linear layers;
normalization, activations, and pooling count as zero.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import GatedResNet, GateMode, ModelSpec, _check_scale
from .tensor import no_grad


@dataclass(frozen=True)
class ConvLayer:
    cin: int
    cout: int
    k: int
    hout: int
    wout: int


@dataclass(frozen=True)
class LinearLayer:
    din: int
    dout: int


def count_macs(layer: ConvLayer | LinearLayer) -> int:
    """Multiply-accumulates of one layer: Cin*Cout*k^2*Hout*Wout for a
    convolution, Din*Dout for a linear map."""
    if isinstance(layer, ConvLayer):
        return layer.cin * layer.cout * layer.k ** 2 * layer.hout * layer.wout
    if isinstance(layer, LinearLayer):
        return layer.din * layer.dout
    raise TypeError(f"unsupported layer spec: {layer!r}")


def _conv_out(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


@dataclass(frozen=True)
class FlopsModel:
    """Per-sample MAC budget of a gated network at a given input size.

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
    def backbone_macs(self) -> int:
        return self.stem_macs + self.head_macs + sum(self.proj_macs) \
            + sum(self.block_macs)

    @property
    def gate_overhead_ratio(self) -> float:
        """All gate modules relative to the full backbone."""
        return sum(self.gate_macs) / self.backbone_macs

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
        h, w = input_hw
        stem = count_macs(ConvLayer(spec.in_channels, spec.channels[0], 3,
                                    _conv_out(h, 3, 1, 1),
                                    _conv_out(w, 3, 1, 1)))
        h, w = _conv_out(h, 3, 1, 1), _conv_out(w, 3, 1, 1)

        gate_macs, block_macs, proj_macs = [], [], []
        c_in = spec.channels[0]
        for stage, (n_blocks, c_out) in enumerate(
                zip(spec.stage_blocks, spec.channels)):
            for i in range(n_blocks):
                stride = 2 if (stage > 0 and i == 0) else 1
                ho, wo = _conv_out(h, 3, stride, 1), _conv_out(w, 3, stride, 1)
                branch = count_macs(ConvLayer(c_in, c_out, 3, ho, wo)) \
                    + count_macs(ConvLayer(c_out, c_out, 3, ho, wo))
                needs_proj = stride != 1 or c_in != c_out
                proj = count_macs(ConvLayer(c_in, c_out, 1, ho, wo)) \
                    if needs_proj else 0
                dh = max(1, -(-(c_in + 1) // spec.reduction))
                gate = count_macs(LinearLayer(c_in + 1, dh)) \
                    + count_macs(LinearLayer(dh, 1))
                block_macs.append(branch)
                proj_macs.append(proj)
                gate_macs.append(gate)
                c_in, h, w = c_out, ho, wo

        head = count_macs(LinearLayer(spec.channels[-1], spec.num_classes))
        return cls(stem_macs=stem, head_macs=head,
                   gate_macs=tuple(gate_macs),
                   block_macs=tuple(block_macs), proj_macs=tuple(proj_macs))


@dataclass(frozen=True)
class UsageStats:
    """Gate usage and cost statistics over one dataset at one scale."""
    scale: float
    per_block_usage: np.ndarray       # mean gate per block, [N]
    per_block_variance: np.ndarray    # gate variance per block, [N]
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


def _gather(model: GatedResNet, images: np.ndarray, labels: np.ndarray,
            scale: float, gate_override: GateMode | None,
            batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Gate matrix [M, N] and correctness flags [M] over a dataset."""
    n = model.num_blocks
    modes = None if gate_override is None else [gate_override] * n
    gates_rows, correct = [], []
    for start in range(0, len(images), batch_size):
        xb = images[start:start + batch_size]
        yb = labels[start:start + batch_size]
        logits, record = model.forward(xb, scale, modes)
        gates_rows.append(record.gates)
        correct.append(np.argmax(logits.data, axis=1) == yb)
    return np.concatenate(gates_rows), np.concatenate(correct)


def evaluate(model: GatedResNet, dataset, scale: float, *,
             gate_override: GateMode | None = None,
             flops_model: FlopsModel | None = None,
             batch_size: int = 256) -> EvalResult:
    """Top-1 accuracy plus usage/cost statistics at one scale setting.

    Deterministic and side-effect-free: gates are binary (the evaluation
    default) unless ``gate_override`` forces a mode, batch-norm running
    statistics are left untouched, and no autodiff graph is built.
    """
    scale = _check_scale(scale)
    if len(dataset.images) == 0:
        raise ValueError("dataset is empty")
    if flops_model is None:
        flops_model = FlopsModel.for_model(model.spec,
                                           dataset.images.shape[2:])
    with no_grad():
        gates, correct = _gather(model, dataset.images, dataset.labels,
                                 scale, gate_override, batch_size)
    per_block = gates.mean(axis=0)
    per_block_var = gates.var(axis=0)
    totals = gates.sum(axis=1)
    macs = flops_model.sample_macs(gates)
    stats = UsageStats(scale=scale,
                       per_block_usage=per_block,
                       per_block_variance=per_block_var,
                       usage_mean=float(per_block.sum()),
                       usage_std=float(totals.std()),
                       macs_mean=float(macs.mean()),
                       macs_std=float(macs.std()),
                       n_samples=len(totals))
    return EvalResult(accuracy=float(correct.mean()), stats=stats,
                      per_sample_macs=macs)


def write_usage_map_csv(path, s_grid, matrix: np.ndarray) -> None:
    """Header row of scale values, then one row per block."""
    with open(path, "w") as fh:
        fh.write(",".join(repr(float(s)) for s in s_grid) + "\n")
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_usage_map_csv(path) -> tuple[list[float], np.ndarray]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    s_grid = [float(v) for v in lines[0].split(",")]
    matrix = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return s_grid, matrix


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


def write_calibration_json(path, calibration, flops_model: FlopsModel
                           ) -> None:
    doc = {"entries": [{"scale": s, "flops_mean": f} for s, f in calibration],
           "fixed_flops": flops_model.fixed_macs,
           "total_flops": flops_model.total_macs,
           "gate_overhead_ratio": flops_model.gate_overhead_ratio}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_calibration_json(path) -> list[tuple[float, float]]:
    with open(path) as fh:
        doc = json.load(fh)
    return [(e["scale"], e["flops_mean"]) for e in doc["entries"]]
