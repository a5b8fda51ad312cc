"""Scale-loss oracle tests: exact values, gradient formula, and the
composition of the joint objective."""

import numpy as np
import pytest

from resizenet.model import GateRecord
from resizenet.objective import scale_loss, total_loss
from resizenet.tensor import Tensor, softmax_cross_entropy


def make_record(gates_matrix, sigmoid_mask=None):
    """Build a record from a [B, N] array; sigmoid-mode columns are
    trainable leaves, binary-mode columns are constants."""
    gates_matrix = np.asarray(gates_matrix, dtype=np.float64)
    n = gates_matrix.shape[1]
    if sigmoid_mask is None:
        sigmoid_mask = [True] * n
    return GateRecord([Tensor(gates_matrix[:, j], requires_grad=sig)
                       for j, sig in enumerate(sigmoid_mask)])


def oracle_scale_loss(gates_matrix, scale):
    m = np.asarray(gates_matrix).mean(axis=1)
    return float(((m - scale) ** 2).mean())


class TestScaleLoss:
    def test_gates_equal_scale_give_zero(self):
        record = make_record(np.full((3, 6), 0.5))
        assert scale_loss(record, 0.5).item() == 0.0
        # non-dyadic scale: zero up to float association residue
        record = make_record(np.full((3, 6), 0.4))
        assert scale_loss(record, 0.4).item() < 1e-30

    def test_half_open_gates_at_full_scale(self):
        record = make_record([[1.0, 1.0, 0.0, 0.0]])
        assert scale_loss(record, 1.0).item() == pytest.approx(0.25, abs=1e-15)

    def test_spread_gates(self):
        record = make_record([[0.2, 0.4, 0.6, 0.8]])
        assert scale_loss(record, 0.3).item() == pytest.approx(0.04, abs=1e-15)

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            b = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            gates = rng.uniform(0, 1, (b, n))
            s = float(rng.uniform(0, 1))
            got = scale_loss(make_record(gates), s).item()
            assert abs(got - oracle_scale_loss(gates, s)) < 1e-12

    def test_gate_gradient_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            b = int(rng.integers(1, 6))
            n = int(rng.integers(2, 20))
            gates = rng.uniform(0, 1, (b, n))
            s = float(rng.uniform(0, 1))
            record = make_record(gates)
            scale_loss(record, s).backward()
            mean = gates.mean(axis=1)
            expect = 2.0 * (mean - s) / (n * b)
            for t in record.gate_tensors:
                np.testing.assert_allclose(t.grad, expect, atol=1e-10)

    def test_binary_gates_receive_no_gradient(self):
        gates = np.array([[1.0, 0.3, 0.0, 0.7]])
        record = make_record(gates, sigmoid_mask=[False, True, False, True])
        scale_loss(record, 0.5).backward()
        assert record.gate_tensors[0].grad is None
        assert record.gate_tensors[2].grad is None
        assert record.gate_tensors[1].grad is not None

    def test_binary_gates_still_count_in_mean(self):
        gates = np.array([[1.0, 1.0, 0.0, 0.0]])
        half_binary = make_record(gates, sigmoid_mask=[False, False, True, True])
        all_sigmoid = make_record(gates)
        assert scale_loss(half_binary, 0.6).item() \
            == scale_loss(all_sigmoid, 0.6).item()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        gates = rng.uniform(0, 1, (4, 9))
        perm = rng.permutation(9)
        a = scale_loss(make_record(gates), 0.35).item()
        b = scale_loss(make_record(gates[:, perm]), 0.35).item()
        assert a == pytest.approx(b, abs=1e-15)

    def test_minimized_at_mean_on_grid(self):
        gates = np.array([[0.1, 0.5, 0.9]])
        mean = gates.mean()
        grid = np.linspace(0, 1, 101)
        losses = [scale_loss(make_record(gates), s).item() for s in grid]
        best = grid[int(np.argmin(losses))]
        assert abs(best - mean) <= 0.01

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            scale_loss(GateRecord([]), 0.5)


class TestTotalLoss:
    def _setup(self, rng):
        logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        labels = rng.integers(0, 5, 3)
        gates = rng.uniform(0, 1, (3, 4))
        return logits, labels, make_record(gates)

    def test_beta_zero_equals_classification(self):
        rng = np.random.default_rng(3)
        logits, labels, record = self._setup(rng)
        total, bd = total_loss(logits, labels, record, 0.5, beta=0.0)
        expect = softmax_cross_entropy(
            Tensor(logits.data), labels).item()
        assert total.item() == expect
        assert bd.total == bd.classification

    def test_arithmetic_composition(self):
        # force L_cls = 1.0 is awkward; check the identity on the breakdown
        rng = np.random.default_rng(4)
        logits, labels, record = self._setup(rng)
        total, bd = total_loss(logits, labels, record, 0.25, beta=2.0)
        assert bd.total == pytest.approx(
            bd.classification + 2.0 * bd.scale, abs=1e-15)
        assert total.item() == bd.total

    def test_known_component_values(self):
        record = make_record([[1.0, 1.0, 0.0, 0.0]])
        logits = Tensor(np.zeros((1, 10)))
        total, bd = total_loss(logits, np.array([0]), record, 1.0, beta=2.0)
        assert bd.scale == pytest.approx(0.25, abs=1e-15)
        assert bd.classification == pytest.approx(np.log(10), abs=1e-12)
        assert total.item() == pytest.approx(np.log(10) + 0.5, abs=1e-12)

    def test_negative_beta_rejected(self):
        rng = np.random.default_rng(5)
        logits, labels, record = self._setup(rng)
        with pytest.raises(ValueError, match="beta"):
            total_loss(logits, labels, record, 0.5, beta=-1.0)

    def test_gate_gradient_composition_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        b, n, k, beta, s = 3, 5, 4, 2.0, 0.4
        logits = Tensor(rng.standard_normal((b, k)))
        labels = rng.integers(0, k, b)
        gates = rng.uniform(0.1, 0.9, (b, n))
        record = make_record(gates)
        total, _ = total_loss(logits, labels, record, s, beta)
        total.backward()

        # logits don't depend on the gates here, so the gate gradient is
        # purely the scale term: beta * 2 (mean - s) / (n b)
        expect = beta * 2.0 * (gates.mean(axis=1) - s) / (n * b)
        for t in record.gate_tensors:
            np.testing.assert_allclose(t.grad, expect, atol=1e-10)

        # finite differences on one gate coordinate
        eps = 1e-6
        base = gates.copy()

        def f(v):
            g = base.copy()
            g[1, 2] = v
            t, _ = total_loss(Tensor(logits.data), labels, make_record(g),
                              s, beta)
            return t.item()

        numeric = (f(base[1, 2] + eps) - f(base[1, 2] - eps)) / (2 * eps)
        assert abs(numeric - record.gate_tensors[2].grad[1]) < 1e-5

    def test_gradient_drives_mean_toward_scale(self):
        # pure scale loss: one descent step must move the mean gate toward
        # the requested scale from either side
        for s, start in [(0.8, 0.3), (0.2, 0.7)]:
            record = make_record(np.full((2, 6), start))
            scale_loss(record, s).backward()
            step = np.mean([t.grad.mean() for t in record.gate_tensors])
            moved = start - 0.5 * step
            assert abs(moved - s) < abs(start - s)
