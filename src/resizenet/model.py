"""Gated residual network: residual blocks whose execution is switched by
tiny per-block gate modules conditioned on the block input and a scale knob.

Each residual block is paired with a gate module that pools the incoming
features, appends the scalar scale value, and maps the result through a
two-layer bottleneck to one gate value per sample.  During training the
gate nonlinearity is a sigmoid with probability ``p`` (differentiable) and
a hard step otherwise; evaluation always uses the hard step, so blocks
whose gate is 0 are genuinely skippable.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .tensor import (
    BN_EPS,
    Tensor,
    add,
    add_rows,
    affine,
    batch_norm,
    concat_cols,
    conv2d,
    global_avg_pool,
    relu,
    reshape,
    scale_features,
    sigmoid,
    take_rows,
)

_FLOAT_MAX = sys.float_info.max


class GateMode(Enum):
    """Gate nonlinearity used for one block in one forward pass."""
    SIGMOID = "sigmoid"
    BINARY = "binary"


def check_number(name: str, value, low=None, high=None, *,
                 integer: bool = False):
    """``value`` if it is a finite number, or with ``integer`` an integer,
    in [low, high], where a bound left at None is open; otherwise an error
    naming ``name``: TypeError for a wrong type, ValueError for a bad number.
    A bool is not a number, nor is a real beyond the float range finite."""
    wrong_type = isinstance(value, bool) or not isinstance(
        value, numbers.Integral if integer else numbers.Real)
    if wrong_type or not integer and not -_FLOAT_MAX <= value <= _FLOAT_MAX \
            or low is not None and value < low \
            or high is not None and value > high:
        kind = "an integer" if integer else "a finite number"
        bound = f" in [{low}, {high}]" if high is not None else \
            "" if low is None else f" >= {low}"
        raise (TypeError if wrong_type else ValueError)(
            f"{name} must be {kind}{bound}, got {value!r}")
    return value


def _check_scale(scale: float) -> float:
    return float(check_number("scale", scale, 0, 1))


def gate_hidden_width(c_in: int, reduction: int) -> int:
    """Bottleneck width of a gate module on a C-channel block input: the
    C+1 inputs (pooled features plus the scale) divided by ``reduction``,
    rounded up."""
    return max(1, -(-(c_in + 1) // reduction))


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; serialized verbatim into checkpoints."""
    stage_blocks: tuple[int, ...] = (4, 4, 4)
    channels: tuple[int, ...] = (16, 32, 64)
    num_classes: int = 4
    in_channels: int = 3
    reduction: int = 2
    use_feature_input: bool = True

    def __post_init__(self):
        if not self.stage_blocks or \
                len(self.stage_blocks) != len(self.channels):
            raise ValueError("stage_blocks and channels must pair up")
        for name in ("stage_blocks", "channels"):
            for v in getattr(self, name):
                check_number(name, v, 1, integer=True)
        for name in ("num_classes", "in_channels", "reduction"):
            check_number(name, getattr(self, name), 1, integer=True)
        if not isinstance(self.use_feature_input, bool):
            raise ValueError("use_feature_input must be true or false")

    @property
    def num_blocks(self) -> int:
        return sum(self.stage_blocks)

    def block_shapes(self) -> list[tuple[int, int, int, bool]]:
        """``(c_in, c_out, stride, needs_projection)`` per block, in forward
        order.  The first block of every stage after the first halves the
        resolution; a block that changes resolution or width needs a 1x1
        projection on its shortcut."""
        shapes, c_in = [], self.channels[0]
        for stage, (n_blocks, c_out) in enumerate(
                zip(self.stage_blocks, self.channels)):
            for i in range(n_blocks):
                stride = 2 if (stage > 0 and i == 0) else 1
                shapes.append((c_in, c_out, stride,
                               stride != 1 or c_in != c_out))
                c_in = c_out
        return shapes

    def to_dict(self) -> dict:
        return {
            "stage_blocks": list(self.stage_blocks),
            "channels": list(self.channels),
            "num_classes": self.num_classes,
            "in_channels": self.in_channels,
            "reduction": self.reduction,
            "use_feature_input": self.use_feature_input,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        """Keys it does not list, such as ``gate_train_prob`` in older
        checkpoints, are ignored."""
        return cls(stage_blocks=tuple(d["stage_blocks"]),
                   channels=tuple(d["channels"]),
                   num_classes=d["num_classes"],
                   in_channels=d.get("in_channels", 3),
                   reduction=d.get("reduction", 2),
                   use_feature_input=d.get("use_feature_input", True))


@dataclass
class ConvBn:
    """A conv followed by batch norm: the [Cout,Cin,k,k] weight ``w``, the
    norm's trained scale and shift and its running statistics.  The conv
    pads by k // 2, so a stride-1 layer keeps the resolution."""
    w: Tensor
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    stride: int

    @classmethod
    def create(cls, c_in: int, c_out: int, k: int, stride: int,
               rng: np.random.Generator) -> "ConvBn":
        """He-normal weight; the norm starts as the identity."""
        std = math.sqrt(2.0 / (c_in * k * k))
        return cls(Tensor(rng.standard_normal((c_out, c_in, k, k)) * std,
                          requires_grad=True),
                   Tensor(np.ones(c_out), requires_grad=True),
                   Tensor(np.zeros(c_out), requires_grad=True),
                   np.zeros(c_out), np.ones(c_out), stride)


@dataclass
class BlockParams:
    """One residual block: conv-bn-relu-conv-bn around a shortcut.

    ``proj`` is the 1x1 projection used when the block changes resolution
    or width; it belongs to the shortcut and always executes, gated or not.
    """
    conv1: ConvBn
    conv2: ConvBn
    proj: ConvBn | None = None


@dataclass
class GateParams:
    """Two affine maps around a reduction bottleneck, one gate per sample.

    Input width is C+1 (pooled features plus the scale value); hidden width
    is ``gate_hidden_width(C, reduction)``.
    """
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @property
    def in_channels(self) -> int:
        return self.w1.shape[0] - 1

    @classmethod
    def create(cls, c: int, reduction: int,
               rng: np.random.Generator) -> "GateParams":
        din = c + 1
        dh = gate_hidden_width(c, reduction)
        w1 = rng.standard_normal((din, dh)) * math.sqrt(2.0 / din)
        # the scale input feeds every hidden unit with a fixed positive
        # weight, so scale sensitivity is first-order learnable by the head
        # instead of having to emerge from two layers of noise
        w1[-1, :] = 2.0
        # small head weights + positive bias: gates start open and nearly
        # input-independent, so an untrained model runs the full network
        w2 = rng.standard_normal((dh, 1)) * (0.1 / math.sqrt(dh))
        return cls(Tensor(w1, requires_grad=True),
                   Tensor(np.zeros(dh), requires_grad=True),
                   Tensor(w2, requires_grad=True),
                   Tensor(np.ones(1), requires_grad=True))


@dataclass
class GateRecord:
    """Per-block gate outputs of one forward pass.

    ``gate_tensors`` stay attached to the autodiff graph, so losses built
    from the record reach sigmoid-mode gates; binary-mode entries are
    recorded as constants and contribute no gradient.
    """
    gate_tensors: list[Tensor]

    @property
    def num_blocks(self) -> int:
        return len(self.gate_tensors)

    @property
    def gates(self) -> np.ndarray:
        """Gate values as a [B, N] array."""
        return np.stack([g.data for g in self.gate_tensors], axis=1)


def gate_activation(z: Tensor, mode: GateMode) -> Tensor:
    """Sigmoid (differentiable) or hard step (constant in backward).

    The step opens strictly above zero, so a zero-initialized gate module
    starts closed in binary mode and at 0.5 in sigmoid mode.
    """
    if mode is GateMode.SIGMOID:
        return sigmoid(z)
    return Tensor((z.data > 0.0).astype(np.float64))


def sample_gate_modes(p: float, n: int,
                      rng: np.random.Generator) -> list[GateMode]:
    """Draw n independent modes: sigmoid with probability p, else binary."""
    check_number("p", p, 0, 1)
    draws = rng.random(n) < p
    return [GateMode.SIGMOID if d else GateMode.BINARY for d in draws]


def gate_forward(x: Tensor, scale: float, params: GateParams, mode: GateMode,
                 use_feature_input: bool = True) -> Tensor:
    """Gate value per sample from pooled [B,H,W,C] input plus the scale knob.

    With ``use_feature_input`` off the pooled features are replaced by
    zeros, so the gate depends on the scale alone and is identical for
    every sample in the batch.
    """
    b, c = x.shape[0], x.shape[3]
    if c != params.in_channels:
        raise ValueError(
            f"gate expects {params.in_channels} channels on axis 3, got {c}")
    if use_feature_input:
        pooled = global_avg_pool(x)
    else:
        pooled = Tensor(np.zeros((b, c)))
    s_col = Tensor(np.full((b, 1), _check_scale(scale)))
    hidden = relu(affine(concat_cols(pooled, s_col), params.w1, params.b1))
    z = reshape(affine(hidden, params.w2, params.b2), (b,))
    return gate_activation(z, mode)


def _conv_bn(x: Tensor, layer: ConvBn, bn_training: bool) -> Tensor:
    """``batch_norm(conv2d(x, w))``.  Without ``bn_training`` the norm uses
    the running statistics, a per-channel affine map, so the layer runs as
    one conv with folded weights and bias, recorded or not: gradient reaches
    ``x`` but never the layer's own tensors, which stay frozen."""
    stride, pad = layer.stride, layer.w.shape[2] // 2
    if not bn_training:
        s = layer.gamma.data / np.sqrt(layer.running_var + BN_EPS)
        return conv2d(x, Tensor(layer.w.data * s[:, None, None, None]),
                      stride=stride, pad=pad,
                      bias=Tensor(layer.beta.data - layer.running_mean * s))
    return batch_norm(conv2d(x, layer.w, stride=stride, pad=pad),
                      layer.gamma, layer.beta, layer.running_mean,
                      layer.running_var)


def _residual_branch(x: Tensor, block: BlockParams,
                     bn_training: bool) -> Tensor:
    h = relu(_conv_bn(x, block.conv1, bn_training))
    return _conv_bn(h, block.conv2, bn_training)


def _shortcut(x: Tensor, block: BlockParams, bn_training: bool) -> Tensor:
    return x if block.proj is None else _conv_bn(x, block.proj, bn_training)


def gated_block_forward(x: Tensor, block: BlockParams, gate: Tensor,
                        mode: GateMode, *,
                        bn_training: bool = False) -> Tensor:
    """One gated residual block: Y = relu(shortcut(X) + gate * branch(X)).

    Binary gates make the branch term vanish exactly: a sample with gate 0
    comes out bitwise equal to its input (identity shortcut; block inputs
    follow a ReLU, so the final ReLU cannot alter them).  With batch norm in
    eval mode every layer of the branch is per-sample, so a binary gate runs
    the branch on its open rows only and adds it, unscaled, into those rows;
    a gate closed on every row skips the branch altogether.  Sigmoid gates and
    training-mode batch norm compute the branch on every row and scale it.
    """
    shortcut = _shortcut(x, block, bn_training)
    # Never skip or gather with batch norm in training mode: its statistics
    # (and the running averages it updates) depend on which rows are in the
    # batch, and a joint step gives a closed branch a zero gradient (not
    # None), so weight decay and momentum still move it.
    if mode is GateMode.BINARY and not bn_training:
        rows = np.flatnonzero(gate.data)
        if rows.size == 0:
            # identity shortcuts follow a ReLU already, projections do not
            return shortcut if block.proj is None else relu(shortcut)
        if rows.size < gate.shape[0]:
            branch = _residual_branch(take_rows(x, rows), block, False)
            return relu(add_rows(shortcut, rows, branch))
        return relu(add(shortcut, _residual_branch(x, block, False)))
    branch = _residual_branch(x, block, bn_training)
    return relu(add(shortcut, scale_features(branch, gate)))


class GatedResNet:
    """Stem + N gated residual blocks (one gate module each) + linear head."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        self.stem = ConvBn.create(spec.in_channels, spec.channels[0], 3, 1,
                                  rng)
        self.blocks: list[BlockParams] = []
        self.gate_modules: list[GateParams] = []
        for c_in, c_out, stride, needs_proj in spec.block_shapes():
            self.blocks.append(BlockParams(
                ConvBn.create(c_in, c_out, 3, stride, rng),
                ConvBn.create(c_out, c_out, 3, 1, rng),
                ConvBn.create(c_in, c_out, 1, stride, rng)
                if needs_proj else None))
            self.gate_modules.append(
                GateParams.create(c_in, spec.reduction, rng))

        c_last = spec.channels[-1]
        self.head_w = Tensor(
            rng.standard_normal((c_last, spec.num_classes))
            / math.sqrt(c_last), requires_grad=True)
        self.head_b = Tensor(np.zeros(spec.num_classes), requires_grad=True)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def forward(self, x, scale: float,
                modes: Sequence[GateMode] | None = None, *,
                bn_training: bool = False) -> tuple[Tensor, GateRecord]:
        """Run the network on [B,C,H,W] images ``x`` at the given scale.

        ``modes`` is one GateMode per block; None means evaluation, where
        every gate is binary.  Returns the logits and the gate record of
        this pass.
        """
        scale = _check_scale(scale)
        n = self.num_blocks
        if modes is None:
            modes = [GateMode.BINARY] * n
        elif len(modes) != n:
            raise ValueError(f"need {n} gate modes, got {len(modes)}")

        h = self._stem(x, bn_training)
        gates: list[Tensor] = []
        for block, gparams, mode in zip(self.blocks, self.gate_modules, modes):
            gate = gate_forward(h, scale, gparams, mode,
                                self.spec.use_feature_input)
            h = gated_block_forward(h, block, gate, mode,
                                    bn_training=bn_training)
            gates.append(gate)
        logits = self._head(h)
        return logits, GateRecord(gates)

    def _stem(self, images, bn_training: bool) -> Tensor:
        """Stem on [B,C,H,W] images; every activation after it is [B,H,W,C]."""
        x = images.data if isinstance(images, Tensor) else images
        x = Tensor(np.moveaxis(x, 1, -1).copy())
        return relu(_conv_bn(x, self.stem, bn_training))

    def _head(self, h: Tensor) -> Tensor:
        return affine(global_avg_pool(h), self.head_w, self.head_b)

    # -- parameter access ---------------------------------------------------

    def _conv_bn_layers(self) -> Iterator[tuple[str, str, ConvBn]]:
        """``(conv name, norm name, layer)`` per conv + batch-norm layer, in
        checkpoint order."""
        yield "stem.conv", "stem.bn", self.stem
        for i, block in enumerate(self.blocks):
            yield f"block{i}.conv1", f"block{i}.bn1", block.conv1
            yield f"block{i}.conv2", f"block{i}.bn2", block.conv2
            if block.proj is not None:
                yield f"block{i}.proj.conv", f"block{i}.proj.bn", block.proj

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for conv, norm, layer in self._conv_bn_layers():
            out += [(conv, layer.w), (f"{norm}.gamma", layer.gamma),
                    (f"{norm}.beta", layer.beta)]
        for i, g in enumerate(self.gate_modules):
            pre = f"gate{i}"
            out += [(f"{pre}.w1", g.w1), (f"{pre}.b1", g.b1),
                    (f"{pre}.w2", g.w2), (f"{pre}.b2", g.b2)]
        out += [("head.w", self.head_w), ("head.b", self.head_b)]
        return out

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        """Batch-norm running statistics (state, not trained)."""
        return [(f"{norm}.{stat}", arr)
                for _, norm, layer in self._conv_bn_layers()
                for stat, arr in (("mean", layer.running_mean),
                                  ("var", layer.running_var))]

    def gate_parameters(self) -> list[Tensor]:
        return [t for name, t in self.named_parameters()
                if name.startswith("gate")]

    def backbone_parameters(self) -> list[Tensor]:
        return [t for name, t in self.named_parameters()
                if not name.startswith("gate")]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()


def sample_kept_blocks(scale: float, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Uniform random boolean mask keeping exactly round(scale * n) blocks."""
    n_keep = round(_check_scale(scale) * n)
    kept = np.zeros(n, dtype=bool)
    if n_keep > 0:
        kept[rng.choice(n, size=n_keep, replace=False)] = True
    return kept


def random_drop_forward(model: GatedResNet, x, scale: float,
                        rng: np.random.Generator, *,
                        bn_training: bool = False
                        ) -> tuple[Tensor, np.ndarray]:
    """Resize by deletion: keep a uniform random subset of round(scale*N)
    blocks, run dropped blocks as bare shortcuts.  Gate modules are ignored.

    Returns the logits and the boolean kept-mask actually drawn.
    """
    kept = sample_kept_blocks(scale, model.num_blocks, rng)

    h = model._stem(x, bn_training)
    for block, keep in zip(model.blocks, kept):
        shortcut = _shortcut(h, block, bn_training)
        if keep:
            h = relu(add(shortcut, _residual_branch(h, block, bn_training)))
        else:
            h = shortcut if block.proj is None else relu(shortcut)
    return model._head(h), kept
