"""Two-phase training: gate modules first against a frozen backbone, then
everything jointly, with one scale value drawn per iteration.

Supports three regimes selected by the config: ranged training (scale drawn
uniformly per iteration), fixed-scale compression (cosine-annealed target
with optional clamped Gaussian noise), and the random-drop baseline that
finetunes a plain backbone under uniformly dropped blocks.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, augment_batch, save_checkpoint
from .metrics import evaluate
from .model import GatedResNet, GateMode, random_drop_forward, sample_gate_modes
from .objective import LossBreakdown, total_loss
from .tensor import NonFiniteError, Tensor, softmax_cross_entropy


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass(frozen=True)
class FixedScaleConfig:
    """Compression-mode target: anneal from 1 down to ``scale`` over
    ``anneal_epochs`` epochs, then hold, with N(0, sigma^2) noise clamped
    to [0, 1] added per iteration."""
    scale: float
    sigma: float = 0.1
    anneal_epochs: int = 5

    def __post_init__(self):
        if not 0.0 <= self.scale <= 1.0:
            raise ValueError("fixed scale must lie in [0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.anneal_epochs < 0:
            raise ValueError("anneal_epochs must be >= 0")


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"               # "adam" | "sgd"
    momentum: float = 0.9
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")


@dataclass(frozen=True)
class TrainConfig:
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

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.scale_range is not None:
            lo, hi = self.scale_range
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError("scale_range must satisfy 0 <= lo <= hi <= 1")
        if self.scale_range is None and self.scale_fixed is None:
            raise ValueError("need a scale_range or a scale_fixed setting")
        if not 0 <= self.epochs_gate_only <= self.epochs_total:
            raise ValueError("epochs_gate_only must not exceed epochs_total")
        if not self.lr_schedule:
            raise ValueError("lr_schedule needs an (epoch, lr) entry")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.baseline_mode not in ("none", "random_drop"):
            raise ValueError(f"unknown baseline_mode {self.baseline_mode!r}")
        if self.gate_lr_scale <= 0:
            raise ValueError("gate_lr_scale must be > 0")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr_schedule[0][1]
        for start, value in self.lr_schedule:
            if epoch >= start:
                lr = value
        return lr


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

    FIELDS = ("epoch", "phase", "lr", "loss_total", "loss_classification",
              "loss_scale", "train_accuracy", "val_accuracy", "mean_usage",
              "mean_scale")

    def as_list(self):
        return [getattr(self, f) for f in self.FIELDS]


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)
    checkpoint_path: str | None = None
    summary: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EpochRow.FIELDS)
            for row in self.rows:
                # losses are np.float64, whose numpy-2 repr is not a number
                writer.writerow([repr(float(v)) if isinstance(v, float)
                                 else v for v in row.as_list()])

    def write_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def sample_scale(scale_range: tuple[float, float],
                 rng: np.random.Generator) -> float:
    """One uniform draw from [lo, hi]."""
    lo, hi = scale_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("scale range must satisfy 0 <= lo <= hi <= 1")
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
    def __init__(self, params: list[Tensor], spec: OptimizerSpec):
        self.params = params
        self.spec = spec
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2, eps = self.spec.beta1, self.spec.beta2, self.spec.eps
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

    Three seeded generators keep the runs reproducible and independent:
    one for batch order and augmentation, one for gate-mode draws, one for
    scale draws (shared with baseline block drops and annealing noise).
    """

    def __init__(self, model: GatedResNet, train_data: Dataset,
                 val_data: Dataset | None, cfg: TrainConfig,
                 out_dir: str | None = None):
        self.model = model
        self.train_data = train_data
        self.val_data = val_data
        self.cfg = cfg
        self.out_dir = out_dir
        ss = np.random.SeedSequence(cfg.seed)
        data_seed, gate_seed, scale_seed = ss.spawn(3)
        self.data_rng = np.random.default_rng(data_seed)
        self.gate_rng = np.random.default_rng(gate_seed)
        self.scale_rng = np.random.default_rng(scale_seed)
        self.report = TrainReport()
        self._epoch = 0

    # phases ------------------------------------------------------------

    def run(self) -> TrainReport:
        """Full schedule: gate-only phase then joint phase, or the
        random-drop baseline when configured.  Writes the per-epoch CSV,
        summary JSON, and a checkpoint when an output directory is set."""
        if self.cfg.baseline_mode == "random_drop":
            self.train_baseline()
        else:
            if self.cfg.epochs_gate_only > 0:
                self.train_phase_gate_only()
            self.train_phase_joint()
        self._finalize()
        return self.report

    def _gate_optimizer(self):
        spec = self.cfg.gate_optimizer or self.cfg.optimizer
        return make_optimizer(self.model.gate_parameters(), spec)

    def train_phase_gate_only(self) -> None:
        """Update only the gate modules; the backbone is frozen bit-for-bit
        and batch norm stays in eval mode so running stats survive."""
        backbone = self.model.backbone_parameters()
        for p in backbone:
            p.requires_grad = False  # prune their backward work
        steppers = [(self._gate_optimizer(), self.cfg.gate_lr_scale)]
        try:
            for _ in range(self.cfg.epochs_gate_only):
                self._run_epoch("gate-only", steppers, bn_training=False)
        finally:
            for p in backbone:
                p.requires_grad = True

    def train_phase_joint(self) -> None:
        """Update every parameter; scale and gate modes are re-drawn each
        iteration.  Gate modules may run under their own optimizer and
        learning-rate multiplier."""
        steppers = [
            (make_optimizer(self.model.backbone_parameters(),
                            self.cfg.optimizer), 1.0),
            (self._gate_optimizer(), self.cfg.gate_lr_scale),
        ]
        for _ in range(self.cfg.epochs_total - self.cfg.epochs_gate_only):
            self._run_epoch("joint", steppers, bn_training=True)

    def train_baseline(self) -> None:
        """Finetune under uniformly random block drops; the scale draw sets
        how many blocks survive each iteration.  Gate modules are ignored."""
        steppers = [(make_optimizer(self.model.backbone_parameters(),
                                    self.cfg.optimizer), 1.0)]
        for _ in range(self.cfg.epochs_total):
            self._run_epoch("baseline", steppers, bn_training=True,
                            random_drop=True)

    # internals -----------------------------------------------------------

    def _draw_scale(self) -> float:
        if self.cfg.scale_fixed is not None:
            return annealed_scale(self._epoch, self.cfg.scale_fixed,
                                  self.scale_rng)
        return sample_scale(self.cfg.scale_range, self.scale_rng)

    def _run_epoch(self, phase: str, steppers, bn_training: bool,
                   random_drop: bool = False) -> None:
        cfg = self.cfg
        lr = cfg.lr_at(self._epoch)
        order = self.data_rng.permutation(len(self.train_data))
        augment = bool(self.train_data.meta.get("augment"))
        n_batches = 0
        loss_sum = np.zeros(3)
        correct = 0
        usage_sum = 0.0
        scale_sum = 0.0

        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = self.train_data.images[idx]
            if augment:
                xb = augment_batch(xb, self.data_rng)
            yb = self.train_data.labels[idx]
            scale = self._draw_scale()

            try:
                if random_drop:
                    logits, kept = random_drop_forward(
                        self.model, xb, scale, self.scale_rng,
                        bn_training=bn_training)
                    loss = softmax_cross_entropy(logits, yb)
                    breakdown = LossBreakdown(loss.item(), loss.item(),
                                              0.0, cfg.beta)
                    usage = float(kept.sum())
                else:
                    modes = sample_gate_modes(cfg.p, self.model.num_blocks,
                                              self.gate_rng)
                    logits, record = self.model.forward(
                        xb, scale, modes, bn_training=bn_training)
                    loss, breakdown = total_loss(logits, yb, record, scale,
                                                 cfg.beta)
                    usage = float(record.gates.sum(axis=1).mean())
                if not math.isfinite(breakdown.total):
                    raise DivergenceError(
                        f"loss became non-finite at epoch {self._epoch}: "
                        f"{breakdown}")
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"non-finite values at epoch {self._epoch}, "
                    f"phase {phase}: {exc}") from exc

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

        val_acc = self._val_accuracy()
        self.report.rows.append(EpochRow(
            epoch=self._epoch, phase=phase, lr=lr,
            loss_total=loss_sum[0] / n_batches,
            loss_classification=loss_sum[1] / n_batches,
            loss_scale=loss_sum[2] / n_batches,
            train_accuracy=correct / len(self.train_data),
            val_accuracy=val_acc,
            mean_usage=usage_sum / n_batches,
            mean_scale=scale_sum / n_batches))
        self._epoch += 1

    def _val_accuracy(self) -> float:
        if self.val_data is None:
            return math.nan
        scale = self.cfg.scale_fixed.scale if self.cfg.scale_fixed else 1.0
        return evaluate(self.model, self.val_data, scale).accuracy

    def _finalize(self) -> None:
        last = self.report.rows[-1] if self.report.rows else None
        self.report.summary = {
            "epochs": len(self.report.rows),
            "final_val_accuracy": last.val_accuracy if last else None,
            "final_loss": last.loss_total if last else None,
            "final_mean_usage": last.mean_usage if last else None,
            "baseline_mode": self.cfg.baseline_mode,
            "beta": self.cfg.beta,
            "p": self.cfg.p,
            "seed": self.cfg.seed,
        }
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
            ckpt = os.path.join(self.out_dir, "model.ckpt")
            save_checkpoint(ckpt, self.model,
                            train_state={"epoch": self._epoch})
            self.report.checkpoint_path = ckpt
            self.report.summary["checkpoint"] = ckpt
            self.report.write_csv(os.path.join(self.out_dir, "epochs.csv"))
            self.report.write_summary(
                os.path.join(self.out_dir, "summary.json"))


def parameter_checksum(params) -> float:
    """Cheap order-sensitive digest for reproducibility checks."""
    total = 0.0
    for i, p in enumerate(params):
        total += float(np.sum(p.data * (0.5 + (i % 7))))
    return total
