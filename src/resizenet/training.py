"""Two-phase training: gate modules first against a frozen backbone, then
everything jointly, with one scale value drawn per iteration.

Every regime the config selects runs that schedule: ranged training (scale
drawn uniformly per iteration), fixed-scale compression (cosine-annealed
target with optional clamped Gaussian noise), and the random-drop baseline,
whose joint epochs finetune the backbone under uniformly dropped blocks.

Training writes no files: ``Trainer.run`` updates the model in place and
returns one ``EpochRow`` per epoch; persisting them (and the model, through
``data.save_checkpoint``) is the caller's job.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, augment_batch
from .metrics import evaluate
from .model import (GatedResNet, check_number, random_drop_forward,
                    sample_gate_modes)
from .objective import LossBreakdown, total_loss
from .tensor import NonFiniteError, Tensor, softmax_cross_entropy


class DivergenceError(RuntimeError):
    """A training step or validation pass produced a non-finite value."""


def _check_pair(name: str, value) -> tuple | list:
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise TypeError(f"{name} must be a pair, got {value!r}")
    return value


def _check_scale_range(scale_range) -> tuple[float, float]:
    lo, hi = _check_pair("scale_range", scale_range)
    check_number("scale_range low end", lo, 0, 1)
    check_number("scale_range high end", hi, lo, 1)
    return lo, hi


@dataclass(frozen=True)
class FixedScaleConfig:
    """Compression-mode target: anneal from 1 down to ``scale`` over
    ``anneal_epochs`` epochs, then hold, with N(0, sigma^2) noise clamped
    to [0, 1] added per iteration."""
    scale: float
    sigma: float = 0.1
    anneal_epochs: int = 5

    def __post_init__(self):
        check_number("scale", self.scale, 0, 1)
        check_number("sigma", self.sigma, 0)
        check_number("anneal_epochs", self.anneal_epochs, 0, integer=True)


@dataclass(frozen=True)
class OptimizerSpec:
    """``momentum`` is SGD's velocity decay and Adam's first-moment decay
    (beta1); Adam's second-moment decay and epsilon are constants."""
    kind: str = "adam"               # "adam" | "sgd"
    momentum: float = 0.9
    weight_decay: float = 0.0        # L2 term; sgd only

    def __post_init__(self):
        if self.kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        check_number("momentum", self.momentum, 0, 1)
        if self.momentum == 1:  # Adam's bias correction divides by 1 - m**t
            raise ValueError("momentum must be below 1")
        check_number("weight_decay", self.weight_decay, 0)
        if self.kind == "adam" and self.weight_decay:
            raise ValueError("weight_decay applies to sgd only; adam "
                             "would ignore it")


@dataclass(frozen=True)
class TrainConfig:
    """One training run, checked whole on construction.  The regime
    follows from three fields: with ``baseline_mode="random_drop"`` the
    random-drop baseline (no gate-only epochs); otherwise fixed-scale
    compression when ``scale_fixed`` is set, or ranged training, drawing
    the scale uniformly from ``scale_range``.  Exactly one of
    ``scale_fixed`` and ``scale_range`` is set, so a fixed-scale run
    passes ``scale_range=None``.  ``lr_schedule``'s epochs start at 0 and
    strictly ascend."""
    beta: float = 2.0
    p: float = 0.1
    scale_range: tuple[float, float] | None = (0.2, 1.0)
    scale_fixed: FixedScaleConfig | None = None
    epochs_total: int = 40
    epochs_gate_only: int = 8
    optimizer: OptimizerSpec = OptimizerSpec()
    gate_optimizer: OptimizerSpec | None = None  # None: same as optimizer
    lr_schedule: tuple[tuple[int, float], ...] = ((0, 1e-3),)
    batch_size: int = 64
    seed: int = 0
    baseline_mode: str = "none"      # "none" | "random_drop"
    gate_lr_scale: float = 1.0       # lr multiplier for gate-module params
    augment: bool = False            # pad-crop and flip training batches

    def __post_init__(self):
        check_number("beta", self.beta, 0)
        check_number("p", self.p, 0, 1)
        if (self.scale_range is None) == (self.scale_fixed is None):
            raise ValueError("set exactly one of scale_range and "
                             "scale_fixed; a fixed-scale run has no "
                             "scale_range")
        if self.scale_range is not None:
            _check_scale_range(self.scale_range)
        check_number("epochs_total", self.epochs_total, 1, integer=True)
        check_number("epochs_gate_only", self.epochs_gate_only, 0,
                     integer=True)
        if self.epochs_gate_only > self.epochs_total:
            raise ValueError("epochs_gate_only must not exceed epochs_total")
        if not isinstance(self.optimizer, OptimizerSpec):
            raise ValueError(f"optimizer must be an OptimizerSpec, got "
                             f"{self.optimizer!r}")
        if not isinstance(self.lr_schedule, (tuple, list)) or \
                not self.lr_schedule:
            raise ValueError("lr_schedule needs (epoch, lr) entries")
        for entry in self.lr_schedule:
            epoch, lr = _check_pair("lr_schedule entry", entry)
            check_number("lr_schedule epoch", epoch, 0, integer=True)
            check_number("lr_schedule lr", lr, 0)
        starts = [epoch for epoch, _ in self.lr_schedule]
        if starts[0] != 0 or starts != sorted(set(starts)):
            raise ValueError(f"lr_schedule epochs must start at 0 and "
                             f"strictly ascend, got {starts}")
        check_number("batch_size", self.batch_size, 1, integer=True)
        check_number("seed", self.seed, 0, integer=True)
        if self.baseline_mode not in ("none", "random_drop"):
            raise ValueError(f"unknown baseline_mode {self.baseline_mode!r}")
        if self.baseline_mode == "random_drop" and self.epochs_gate_only:
            raise ValueError("the random_drop baseline trains no gates, so "
                             "epochs_gate_only must be 0")
        check_number("gate_lr_scale", self.gate_lr_scale)
        if self.gate_lr_scale <= 0:
            raise ValueError("gate_lr_scale must be > 0")
        if not isinstance(self.augment, bool):
            raise ValueError("augment must be true or false")

    def lr_at(self, epoch: int) -> float:  # the last entry at or before it
        return [lr for start, lr in self.lr_schedule if start <= epoch][-1]


@dataclass
class EpochRow:
    epoch: int
    phase: str
    lr: float
    loss_total: float
    loss_classification: float
    loss_scale: float
    train_accuracy: float
    val_accuracy: float
    mean_usage: float
    mean_scale: float
    usage_slope: float


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)


def usage_slope(scales, usages) -> float:
    """Least-squares slope of per-batch usage on the drawn scale: how far
    usage follows the knob within one epoch.  NaN when the drawn scales
    have no spread (one batch, lo == hi, or a fixed scale without noise),
    where no slope is defined."""
    x = np.asarray(scales, dtype=np.float64)
    if np.ptp(x) == 0.0:
        return math.nan
    dx = x - x.mean()
    y = np.asarray(usages, dtype=np.float64)
    return float(dx @ (y - y.mean()) / (dx @ dx))


def sample_scale(scale_range: tuple[float, float],
                 rng: np.random.Generator) -> float:
    """One uniform draw from [lo, hi]."""
    lo, hi = _check_scale_range(scale_range)
    return float(rng.uniform(lo, hi)) if hi > lo else float(lo)


def annealed_scale_base(epoch: int, cfg: FixedScaleConfig) -> float:
    """Noise-free cosine target: 1 at epoch 0, cfg.scale from the end of
    the annealing window onward."""
    if cfg.anneal_epochs == 0:
        return cfg.scale
    t = min(epoch, cfg.anneal_epochs) / cfg.anneal_epochs
    return cfg.scale + (1.0 - cfg.scale) * (1.0 + math.cos(math.pi * t)) / 2.0


def annealed_scale(epoch: int, cfg: FixedScaleConfig,
                   rng: np.random.Generator) -> float:
    """Cosine-annealed target plus clamped Gaussian noise."""
    value = annealed_scale_base(epoch, cfg)
    if cfg.sigma > 0:
        value += float(rng.normal(0.0, cfg.sigma))
    return min(1.0, max(0.0, value))


# -- optimizers ---------------------------------------------------------------


class SgdOptimizer:
    """Momentum SGD; weight decay enters as an L2 gradient term."""

    def __init__(self, params: list[Tensor], spec: OptimizerSpec):
        self.params = params
        self.spec = spec
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float) -> None:
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if self.spec.weight_decay:
                g = g + self.spec.weight_decay * p.data
            v = self.velocity[i]
            v *= self.spec.momentum
            v += g
            p.data -= lr * v


class AdamOptimizer:
    """Adam with first-moment decay ``spec.momentum``."""
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Tensor], spec: OptimizerSpec):
        self.params = params
        self.spec = spec
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2, eps = self.spec.momentum, self.BETA2, self.EPS
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            m, v = self.m[i], self.v[i]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def make_optimizer(params: list[Tensor], spec: OptimizerSpec):
    cls = AdamOptimizer if spec.kind == "adam" else SgdOptimizer
    return cls(params, spec)


# -- trainer ------------------------------------------------------------------


class Trainer:
    """Owns the RNG streams, optimizer, and per-epoch bookkeeping.

    Every regime runs the gate-only phase, then the joint phase.  Three
    seeded generators keep the runs reproducible and independent: one for
    batch order and augmentation, one for gate-mode draws, one for scale
    draws (shared with baseline block drops and annealing noise).  Trains
    ``model`` in place and writes nothing; ``report.rows`` holds one row
    per epoch run so far.
    """

    def __init__(self, model: GatedResNet, train_data: Dataset,
                 val_data: Dataset | None, cfg: TrainConfig):
        self.model = model
        self.train_data = train_data
        self.val_data = val_data
        self.cfg = cfg
        ss = np.random.SeedSequence(cfg.seed)
        data_seed, gate_seed, scale_seed = ss.spawn(3)
        self.data_rng = np.random.default_rng(data_seed)
        self.gate_rng = np.random.default_rng(gate_seed)
        self.scale_rng = np.random.default_rng(scale_seed)
        self.report = TrainReport()
        self._epoch = 0

    # phases ------------------------------------------------------------

    def run(self) -> TrainReport:
        """Full schedule: gate-only phase then joint phase.  Returns the
        report; a non-finite value in any epoch, its validation pass
        included, raises ``DivergenceError`` naming the epoch."""
        self.train_phase_gate_only()
        self.train_phase_joint()
        return self.report

    def _gate_optimizer(self):
        spec = self.cfg.gate_optimizer or self.cfg.optimizer
        return make_optimizer(self.model.gate_parameters(), spec)

    def train_phase_gate_only(self) -> None:
        """Update only the gate modules against a frozen backbone.  Batch
        norm uses its running statistics, so every conv + batch-norm layer
        runs folded, gets no gradient and keeps its statistics; the gate
        optimizer holds the gate tensors alone, so the backbone stays
        bit-for-bit unchanged."""
        steppers = [(self._gate_optimizer(), self.cfg.gate_lr_scale)]
        for _ in range(self.cfg.epochs_gate_only):
            self._run_epoch("gate-only", steppers)

    def train_phase_joint(self) -> None:
        """Update every parameter; scale and gate modes are re-drawn each
        iteration.  Gate modules may run under their own optimizer and
        learning-rate multiplier.  The random-drop baseline's epochs,
        labelled ``baseline``, keep a uniform random round(S*N) blocks per
        iteration and update the backbone alone."""
        steppers = [(make_optimizer(self.model.backbone_parameters(),
                                    self.cfg.optimizer), 1.0)]
        phase = "baseline" if self.cfg.baseline_mode == "random_drop" \
            else "joint"
        if phase == "joint":
            steppers.append((self._gate_optimizer(), self.cfg.gate_lr_scale))
        for _ in range(self.cfg.epochs_total - self.cfg.epochs_gate_only):
            self._run_epoch(phase, steppers)

    # internals -----------------------------------------------------------

    def _draw_scale(self) -> float:
        if self.cfg.scale_fixed is not None:
            return annealed_scale(self._epoch, self.cfg.scale_fixed,
                                  self.scale_rng)
        return sample_scale(self.cfg.scale_range, self.scale_rng)

    def _run_epoch(self, phase: str, steppers) -> None:
        """One epoch; the phase sets batch norm's mode (running statistics
        in gate-only epochs) and the forward (random drop in baseline)."""
        cfg = self.cfg
        bn_training = phase != "gate-only"
        lr = cfg.lr_at(self._epoch)
        order = self.data_rng.permutation(len(self.train_data))
        n_batches = 0
        loss_sum = np.zeros(3)
        correct = 0
        # running sums, not sum() over the lists below: Python 3.12's sum()
        # compensates float rounding, which would change the written means
        usage_sum = 0.0
        scale_sum = 0.0
        usages, scales = [], []  # per batch, for the usage-on-scale slope

        # every op checks its output, so a diverging step or validation
        # pass raises NonFiniteError
        try:
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                xb = self.train_data.images[idx]
                if cfg.augment:
                    xb = augment_batch(xb, self.data_rng)
                yb = self.train_data.labels[idx]
                scale = self._draw_scale()

                if phase == "baseline":
                    logits, kept = random_drop_forward(
                        self.model, xb, scale, self.scale_rng,
                        bn_training=bn_training)
                    loss = softmax_cross_entropy(logits, yb)
                    breakdown = LossBreakdown(loss.item(), loss.item(), 0.0)
                    usage = float(kept.sum())
                else:
                    modes = sample_gate_modes(cfg.p, self.model.num_blocks,
                                              self.gate_rng)
                    logits, record = self.model.forward(
                        xb, scale, modes, bn_training=bn_training)
                    loss, breakdown = total_loss(logits, yb, record, scale,
                                                 cfg.beta)
                    usage = float(record.gates.sum(axis=1).mean())

                self.model.zero_grads()
                loss.backward()
                for optimizer, lr_mult in steppers:
                    optimizer.step(lr * lr_mult)

                n_batches += 1
                loss_sum += (breakdown.total, breakdown.classification,
                             breakdown.scale)
                correct += int((np.argmax(logits.data, axis=1) == yb).sum())
                usage_sum += usage
                scale_sum += scale
                usages.append(usage)
                scales.append(scale)

            val_acc = self._val_accuracy()
        except NonFiniteError as exc:
            raise DivergenceError(
                f"non-finite values at epoch {self._epoch}, "
                f"phase {phase}: {exc}") from exc
        self.report.rows.append(EpochRow(
            epoch=self._epoch, phase=phase, lr=lr,
            loss_total=loss_sum[0] / n_batches,
            loss_classification=loss_sum[1] / n_batches,
            loss_scale=loss_sum[2] / n_batches,
            train_accuracy=correct / len(self.train_data),
            val_accuracy=val_acc,
            mean_usage=usage_sum / n_batches,
            mean_scale=scale_sum / n_batches,
            usage_slope=usage_slope(scales, usages) / self.model.num_blocks))
        self._epoch += 1

    def _val_accuracy(self) -> float:
        if self.val_data is None:
            return math.nan
        scale = self.cfg.scale_fixed.scale if self.cfg.scale_fixed else 1.0
        return evaluate(self.model, self.val_data, scale).accuracy


def parameter_checksum(params) -> float:
    """Cheap order-sensitive digest for reproducibility checks."""
    total = 0.0
    for i, p in enumerate(params):
        total += float(np.sum(p.data * (0.5 + (i % 7))))
    return total
