"""Residual networks with scale-conditioned per-block gating.

A scale knob in [0, 1] rides along with every forward pass; small gate
modules decide per sample which residual blocks to run, trained so that
actual block usage tracks the knob while classification quality holds up.
Everything runs on a self-contained float64 autodiff engine.
"""

from .data import (
    Dataset,
    load_checkpoint,
    load_cifar_binary,
    make_synthetic,
    save_checkpoint,
)
from .metrics import (
    FlopsModel,
    UsageStats,
    budget_to_scale,
    evaluate,
)
from .model import (
    GateMode,
    GateRecord,
    GatedResNet,
    ModelSpec,
    gate_activation,
    random_drop_forward,
    sample_gate_modes,
)
from .objective import LossBreakdown, scale_loss, total_loss
from .tensor import Tensor, backward, grad_check
from .training import (
    FixedScaleConfig,
    OptimizerSpec,
    TrainConfig,
    Trainer,
    TrainReport,
    annealed_scale,
    sample_scale,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "load_checkpoint", "load_cifar_binary", "make_synthetic",
    "save_checkpoint", "FlopsModel", "UsageStats", "budget_to_scale",
    "evaluate", "GateMode", "GateRecord", "GatedResNet", "ModelSpec",
    "gate_activation", "random_drop_forward", "sample_gate_modes",
    "LossBreakdown", "scale_loss", "total_loss", "Tensor", "backward",
    "grad_check", "FixedScaleConfig", "OptimizerSpec", "TrainConfig",
    "Trainer", "TrainReport", "annealed_scale", "sample_scale",
]
