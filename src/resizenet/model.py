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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .tensor import (
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


class GateMode(Enum):
    """Gate nonlinearity used for one block in one forward pass."""
    SIGMOID = "sigmoid"
    BINARY = "binary"


def _check_scale(scale: float) -> float:
    scale = float(scale)
    if not 0.0 <= scale <= 1.0:
        raise ValueError(f"scale must lie in [0, 1], got {scale}")
    return scale


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; serialized verbatim into checkpoints."""
    stage_blocks: tuple[int, ...] = (4, 4, 4)
    channels: tuple[int, ...] = (16, 32, 64)
    num_classes: int = 4
    in_channels: int = 3
    reduction: int = 2
    gate_train_prob: float = 0.1
    use_feature_input: bool = True

    def __post_init__(self):
        if len(self.stage_blocks) != len(self.channels):
            raise ValueError("stage_blocks and channels must pair up")
        if not 0.0 <= self.gate_train_prob <= 1.0:
            raise ValueError("gate_train_prob must lie in [0, 1]")
        if self.reduction < 1:
            raise ValueError("reduction must be >= 1")

    @property
    def num_blocks(self) -> int:
        return sum(self.stage_blocks)

    def to_dict(self) -> dict:
        return {
            "stage_blocks": list(self.stage_blocks),
            "channels": list(self.channels),
            "num_classes": self.num_classes,
            "in_channels": self.in_channels,
            "reduction": self.reduction,
            "gate_train_prob": self.gate_train_prob,
            "use_feature_input": self.use_feature_input,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(stage_blocks=tuple(d["stage_blocks"]),
                   channels=tuple(d["channels"]),
                   num_classes=d["num_classes"],
                   in_channels=d.get("in_channels", 3),
                   reduction=d.get("reduction", 2),
                   gate_train_prob=d.get("gate_train_prob", 0.1),
                   use_feature_input=d.get("use_feature_input", True))


@dataclass
class BnParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, c: int) -> "BnParams":
        return cls(Tensor(np.ones(c), requires_grad=True),
                   Tensor(np.zeros(c), requires_grad=True),
                   np.zeros(c), np.ones(c))


@dataclass
class BlockParams:
    """One residual block: conv-bn-relu-conv-bn around a shortcut.

    ``proj_conv``/``proj_bn`` hold the 1x1 projection used when the block
    changes resolution or width; the projection belongs to the shortcut
    and always executes, gated or not.
    """
    conv1: Tensor
    bn1: BnParams
    conv2: Tensor
    bn2: BnParams
    stride: int = 1
    proj_conv: Tensor | None = None
    proj_bn: BnParams | None = None


@dataclass
class GateParams:
    """Two affine maps around a reduction bottleneck, one gate per sample.

    Input width is C+1 (pooled features plus the scale value); hidden width
    is ceil((C+1)/reduction).
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
        dh = max(1, math.ceil(din / reduction))
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
    modes: list[GateMode]

    @property
    def num_blocks(self) -> int:
        return len(self.gate_tensors)

    @property
    def batch_size(self) -> int:
        return self.gate_tensors[0].shape[0]

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
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    draws = rng.random(n) < p
    return [GateMode.SIGMOID if d else GateMode.BINARY for d in draws]


def gate_forward(x: Tensor, scale: float, params: GateParams, mode: GateMode,
                 use_feature_input: bool = True) -> Tensor:
    """Gate value per sample from pooled block input plus the scale knob.

    With ``use_feature_input`` off the pooled features are replaced by
    zeros, so the gate depends on the scale alone and is identical for
    every sample in the batch.
    """
    b, c = x.shape[0], x.shape[1]
    if c != params.in_channels:
        raise ValueError(
            f"gate module expects {params.in_channels} channels, got {c}")
    if use_feature_input:
        pooled = global_avg_pool(x)
    else:
        pooled = Tensor(np.zeros((b, c)))
    s_col = Tensor(np.full((b, 1), _check_scale(scale)))
    hidden = relu(affine(concat_cols(pooled, s_col), params.w1, params.b1))
    z = reshape(affine(hidden, params.w2, params.b2), (b,))
    return gate_activation(z, mode)


def _residual_branch(x: Tensor, block: BlockParams,
                     bn_training: bool) -> Tensor:
    h = conv2d(x, block.conv1, stride=block.stride, pad=1)
    h = relu(batch_norm(h, block.bn1.gamma, block.bn1.beta,
                        block.bn1.running_mean, block.bn1.running_var,
                        bn_training))
    h = conv2d(h, block.conv2, stride=1, pad=1)
    return batch_norm(h, block.bn2.gamma, block.bn2.beta,
                      block.bn2.running_mean, block.bn2.running_var,
                      bn_training)


def _shortcut(x: Tensor, block: BlockParams, bn_training: bool) -> Tensor:
    if block.proj_conv is None:
        return x
    h = conv2d(x, block.proj_conv, stride=block.stride, pad=0)
    return batch_norm(h, block.proj_bn.gamma, block.proj_bn.beta,
                      block.proj_bn.running_mean, block.proj_bn.running_var,
                      bn_training)


def gated_block_forward(x: Tensor, block: BlockParams, gate: Tensor,
                        mode: GateMode, *,
                        bn_training: bool = False) -> Tensor:
    """One gated residual block: Y = relu(shortcut(X) + gate * branch(X)).

    Binary gates make the branch term vanish exactly: a sample with gate 0
    comes out bitwise equal to its input (identity shortcut; block inputs
    follow a ReLU, so the final ReLU cannot alter them).  With batch norm in
    eval mode every layer of the branch is per-sample, so a binary gate runs
    the branch on its open rows only and adds it back into those rows; a
    gate closed on every row skips the branch altogether.  Sigmoid gates and
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
            return shortcut if block.proj_conv is None else relu(shortcut)
        if rows.size < gate.shape[0]:
            branch = _residual_branch(take_rows(x, rows), block, False)
            return relu(add_rows(shortcut, rows, branch))
    branch = _residual_branch(x, block, bn_training)
    return relu(add(shortcut, scale_features(branch, gate)))


class GatedResNet:
    """Stem + N gated residual blocks (one gate module each) + linear head."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        self.gate_train_prob = spec.gate_train_prob
        self.use_feature_input = spec.use_feature_input

        c0 = spec.channels[0]
        self.stem_conv = Tensor(
            _he_conv(spec.in_channels, c0, 3, rng), requires_grad=True)
        self.stem_bn = BnParams.create(c0)

        self.blocks: list[BlockParams] = []
        self.gate_modules: list[GateParams] = []
        c_in = c0
        for stage, (n_blocks, c_out) in enumerate(
                zip(spec.stage_blocks, spec.channels)):
            for i in range(n_blocks):
                stride = 2 if (stage > 0 and i == 0) else 1
                needs_proj = stride != 1 or c_in != c_out
                block = BlockParams(
                    conv1=Tensor(_he_conv(c_in, c_out, 3, rng),
                                 requires_grad=True),
                    bn1=BnParams.create(c_out),
                    conv2=Tensor(_he_conv(c_out, c_out, 3, rng),
                                 requires_grad=True),
                    bn2=BnParams.create(c_out),
                    stride=stride,
                    proj_conv=Tensor(_he_conv(c_in, c_out, 1, rng),
                                     requires_grad=True) if needs_proj else None,
                    proj_bn=BnParams.create(c_out) if needs_proj else None,
                )
                self.blocks.append(block)
                self.gate_modules.append(
                    GateParams.create(c_in, spec.reduction, rng))
                c_in = c_out

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
        """Run the network at the given scale.

        ``modes`` is one GateMode per block; None means evaluation, where
        every gate is binary.  Returns the logits and the gate record of
        this pass.
        """
        scale = _check_scale(scale)
        if not isinstance(x, Tensor):
            x = Tensor(x)
        n = self.num_blocks
        if modes is None:
            modes = [GateMode.BINARY] * n
        elif len(modes) != n:
            raise ValueError(f"need {n} gate modes, got {len(modes)}")

        h = self._stem(x, bn_training)
        gates: list[Tensor] = []
        for block, gparams, mode in zip(self.blocks, self.gate_modules, modes):
            gate = gate_forward(h, scale, gparams, mode,
                                self.use_feature_input)
            h = gated_block_forward(h, block, gate, mode,
                                    bn_training=bn_training)
            gates.append(gate)
        logits = self._head(h)
        return logits, GateRecord(gates, list(modes))

    def _stem(self, x: Tensor, bn_training: bool) -> Tensor:
        h = conv2d(x, self.stem_conv, stride=1, pad=1)
        return relu(batch_norm(h, self.stem_bn.gamma, self.stem_bn.beta,
                               self.stem_bn.running_mean,
                               self.stem_bn.running_var, bn_training))

    def _head(self, h: Tensor) -> Tensor:
        return affine(global_avg_pool(h), self.head_w, self.head_b)

    # -- parameter access ---------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = [("stem.conv", self.stem_conv),
                                         ("stem.bn.gamma", self.stem_bn.gamma),
                                         ("stem.bn.beta", self.stem_bn.beta)]
        for i, block in enumerate(self.blocks):
            pre = f"block{i}"
            out += [(f"{pre}.conv1", block.conv1),
                    (f"{pre}.bn1.gamma", block.bn1.gamma),
                    (f"{pre}.bn1.beta", block.bn1.beta),
                    (f"{pre}.conv2", block.conv2),
                    (f"{pre}.bn2.gamma", block.bn2.gamma),
                    (f"{pre}.bn2.beta", block.bn2.beta)]
            if block.proj_conv is not None:
                out += [(f"{pre}.proj.conv", block.proj_conv),
                        (f"{pre}.proj.bn.gamma", block.proj_bn.gamma),
                        (f"{pre}.proj.bn.beta", block.proj_bn.beta)]
        for i, g in enumerate(self.gate_modules):
            pre = f"gate{i}"
            out += [(f"{pre}.w1", g.w1), (f"{pre}.b1", g.b1),
                    (f"{pre}.w2", g.w2), (f"{pre}.b2", g.b2)]
        out += [("head.w", self.head_w), ("head.b", self.head_b)]
        return out

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        """Batch-norm running statistics (state, not trained)."""
        out = [("stem.bn.mean", self.stem_bn.running_mean),
               ("stem.bn.var", self.stem_bn.running_var)]
        for i, block in enumerate(self.blocks):
            pre = f"block{i}"
            out += [(f"{pre}.bn1.mean", block.bn1.running_mean),
                    (f"{pre}.bn1.var", block.bn1.running_var),
                    (f"{pre}.bn2.mean", block.bn2.running_mean),
                    (f"{pre}.bn2.var", block.bn2.running_var)]
            if block.proj_bn is not None:
                out += [(f"{pre}.proj.bn.mean", block.proj_bn.running_mean),
                        (f"{pre}.proj.bn.var", block.proj_bn.running_var)]
        return out

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


def _he_conv(c_in: int, c_out: int, k: int,
             rng: np.random.Generator) -> np.ndarray:
    std = math.sqrt(2.0 / (c_in * k * k))
    return rng.standard_normal((c_out, c_in, k, k)) * std


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
    if not isinstance(x, Tensor):
        x = Tensor(x)
    kept = sample_kept_blocks(scale, model.num_blocks, rng)

    h = model._stem(x, bn_training)
    for block, keep in zip(model.blocks, kept):
        shortcut = _shortcut(h, block, bn_training)
        if keep:
            h = relu(add(shortcut, _residual_branch(h, block, bn_training)))
        else:
            h = shortcut if block.proj_conv is None else relu(shortcut)
    return model._head(h), kept
