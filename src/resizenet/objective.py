"""Training objective: classification loss plus a squared penalty that
steers the mean gate value toward the requested scale, weighted by beta."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GateRecord, _check_scale, check_number
from .tensor import (
    Tensor,
    add,
    add_n,
    add_scalar,
    mean_all,
    mul,
    mul_scalar,
    softmax_cross_entropy,
)


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar view of one loss evaluation; total = classification + beta*scale."""
    total: float
    classification: float
    scale: float


def scale_loss(record: GateRecord, scale: float) -> Tensor:
    """Squared gap between the per-sample mean gate value and the scale.

    Computed per sample as ``(mean_n gate_n - scale)**2`` and averaged over
    the batch.  Binary-mode gates enter the mean as recorded constants, so
    gradient reaches sigmoid-mode gates only; for one of those the gradient
    is ``2 * (mean - scale) / (N * B)``.
    """
    scale = _check_scale(scale)
    if record.num_blocks == 0:
        raise ValueError("gate record is empty")
    mean_gate = mul_scalar(add_n(record.gate_tensors),
                           1.0 / record.num_blocks)
    diff = add_scalar(mean_gate, -scale)
    return mean_all(mul(diff, diff))


def total_loss(logits: Tensor, labels: np.ndarray, record: GateRecord,
               scale: float, beta: float) -> tuple[Tensor, LossBreakdown]:
    """Joint objective L = L_classification + beta * L_scale."""
    check_number("beta", beta, 0)
    l_cls = softmax_cross_entropy(logits, labels)
    l_scale = scale_loss(record, scale)
    total = add(l_cls, mul_scalar(l_scale, beta))
    breakdown = LossBreakdown(total=total.item(),
                              classification=l_cls.item(),
                              scale=l_scale.item())
    return total, breakdown
