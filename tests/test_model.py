"""Gating behavior tests: activation semantics, exact skip identities,
gradient blocking, and the random-drop resizing baseline."""

import contextlib

import numpy as np
import pytest

import resizenet.model
from resizenet.model import (
    BlockParams,
    ConvBn,
    GateMode,
    GateParams,
    GatedResNet,
    ModelSpec,
    _conv_bn,
    _residual_branch,
    _shortcut,
    check_number,
    gate_activation,
    gate_forward,
    gated_block_forward,
    random_drop_forward,
    sample_gate_modes,
)
from resizenet.tensor import (
    BN_EPS,
    Tensor,
    add,
    conv2d,
    grad_check,
    mul,
    no_grad,
    relu,
    scale_features,
    softmax_cross_entropy,
    sum_all,
)


def make_block(c_in, c_out=None, stride=1, rng=None):
    rng = rng or np.random.default_rng(0)
    c_out = c_out or c_in
    needs_proj = stride != 1 or c_in != c_out
    return BlockParams(
        ConvBn.create(c_in, c_out, 3, stride, rng),
        ConvBn.create(c_out, c_out, 3, 1, rng),
        ConvBn.create(c_in, c_out, 1, stride, rng) if needs_proj else None)


def spy_branch(monkeypatch) -> list:
    """Record every call of the residual branch; returns the call list."""
    calls = []

    def spy(x, block, bn_training):
        calls.append(x.shape[0])
        return _residual_branch(x, block, bn_training)

    monkeypatch.setattr(resizenet.model, "_residual_branch", spy)
    return calls


def spy_convs(monkeypatch) -> list:
    """Record (kernel size, batch rows) of every conv the model runs."""
    calls = []

    def spy(x, w, stride=1, pad=0, bias=None):
        calls.append((w.shape[2], x.shape[0]))
        return conv2d(x, w, stride=stride, pad=pad, bias=bias)

    monkeypatch.setattr(resizenet.model, "conv2d", spy)
    return calls


def zero_gate_params(c, reduction=2):
    gp = GateParams.create(c, reduction, np.random.default_rng(0))
    for t in (gp.w1, gp.b1, gp.w2, gp.b2):
        t.data[...] = 0.0
    return gp


class TestCheckNumber:
    @pytest.mark.parametrize("value,kwargs,error", [
        (True, {}, TypeError),
        ("0.5", {}, TypeError),
        (2.0, {"integer": True}, TypeError),
        (float("nan"), {}, ValueError),
        (10 ** 400, {}, ValueError),
        (-0.5, {"low": 0}, ValueError),
        (1.5, {"low": 0, "high": 1}, ValueError),
    ], ids=["bool", "string", "float_for_integer", "nan", "beyond_float",
            "below_low", "above_high"])
    def test_rejected_value_names_the_setting(self, value, kwargs, error):
        with pytest.raises(error, match="knob"):
            check_number("knob", value, **kwargs)

    def test_bounds_are_inclusive_and_value_passes_through(self):
        assert check_number("knob", 0, 0, 1) == 0
        assert check_number("knob", 1.0, 0, 1) == 1.0
        assert check_number("knob", np.int64(3), 3, integer=True) == 3
        assert check_number("knob", 10 ** 400, integer=True) == 10 ** 400


class TestGateActivation:
    def test_sigmoid_at_zero(self):
        out = gate_activation(Tensor([0.0]), GateMode.SIGMOID)
        assert out.data[0] == 0.5

    def test_binary_tie_breaks_closed(self):
        out = gate_activation(Tensor([0.0]), GateMode.BINARY)
        assert out.data[0] == 0.0

    def test_binary_thresholds_strictly(self):
        out = gate_activation(Tensor([-0.1, 1e-12, 5.0]), GateMode.BINARY)
        np.testing.assert_array_equal(out.data, [0.0, 1.0, 1.0])

    def test_modes_agree_at_saturation(self):
        z = Tensor([20.0])
        sg = gate_activation(z, GateMode.SIGMOID).data[0]
        bg = gate_activation(z, GateMode.BINARY).data[0]
        assert bg == 1.0
        assert 1.0 - sg < 1e-8

    def test_saturation_agreement_both_signs(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([rng.uniform(20.001, 60, 50),
                            rng.uniform(-60, -20.001, 50)])
        sg = gate_activation(Tensor(z), GateMode.SIGMOID).data
        bg = gate_activation(Tensor(z), GateMode.BINARY).data
        assert np.abs(sg - bg).max() < 1e-8

    def test_binary_is_constant_in_backward(self):
        z = Tensor([1.0, -1.0], requires_grad=True)
        out = gate_activation(z, GateMode.BINARY)
        assert not out.requires_grad
        sum_all(gate_activation(z, GateMode.SIGMOID)).backward()
        assert z.grad is not None


class TestSampleGateModes:
    def test_p_one_all_sigmoid(self):
        modes = sample_gate_modes(1.0, 20, np.random.default_rng(0))
        assert all(m is GateMode.SIGMOID for m in modes)

    def test_p_zero_all_binary(self):
        modes = sample_gate_modes(0.0, 20, np.random.default_rng(0))
        assert all(m is GateMode.BINARY for m in modes)

    def test_deterministic_under_seed(self):
        a = sample_gate_modes(0.5, 30, np.random.default_rng(7))
        b = sample_gate_modes(0.5, 30, np.random.default_rng(7))
        assert a == b

    def test_sigmoid_fraction_monte_carlo(self):
        rng = np.random.default_rng(1)
        n, trials = 54, 100_000
        hits = sum(sample_gate_modes(0.1, n, rng).count(GateMode.SIGMOID)
                   for _ in range(trials // 100))
        frac = hits / (n * trials // 100)
        assert abs(frac - 0.1) < 0.01

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            sample_gate_modes(1.5, 4, np.random.default_rng(0))


class TestGateForward:
    def test_zero_params_give_half_sigmoid_and_closed_binary(self):
        gp = zero_gate_params(8)
        x = Tensor(np.random.default_rng(2).standard_normal((3, 4, 5, 8)))
        sg = gate_forward(x, 0.5, gp, GateMode.SIGMOID)
        bg = gate_forward(x, 0.5, gp, GateMode.BINARY)
        np.testing.assert_array_equal(sg.data, [0.5, 0.5, 0.5])
        np.testing.assert_array_equal(bg.data, [0.0, 0.0, 0.0])

    def test_feature_free_gate_is_sample_independent(self):
        rng = np.random.default_rng(3)
        gp = GateParams.create(8, 2, rng)
        x = Tensor(rng.standard_normal((5, 3, 4, 8)))
        out = gate_forward(x, 0.3, gp, GateMode.SIGMOID,
                           use_feature_input=False)
        assert np.all(out.data == out.data[0])

    def test_feature_input_varies_across_samples(self):
        rng = np.random.default_rng(4)
        gp = GateParams.create(8, 2, rng)
        gp.w2.data[...] = rng.standard_normal(gp.w2.shape)  # amplify
        x = Tensor(rng.standard_normal((5, 3, 4, 8)) * 3)
        out = gate_forward(x, 0.3, gp, GateMode.SIGMOID)
        assert np.unique(out.data).size > 1

    def test_channel_mismatch_rejected(self):
        gp = GateParams.create(8, 2, np.random.default_rng(5))
        with pytest.raises(ValueError, match="channels on axis 3, got 4"):
            gate_forward(Tensor(np.zeros((1, 2, 3, 4))), 0.5, gp,
                         GateMode.SIGMOID)

    def test_hidden_width_uses_reduction(self):
        gp = GateParams.create(16, 2, np.random.default_rng(6))
        assert gp.w1.shape == (17, 9)  # ceil(17/2)
        gp16 = GateParams.create(16, 16, np.random.default_rng(6))
        assert gp16.w1.shape == (17, 2)  # ceil(17/16)

    def test_scale_reaches_output(self):
        rng = np.random.default_rng(7)
        gp = GateParams.create(4, 2, rng)
        gp.w1.data[...] = 0.0
        gp.w1.data[4, :] = 1.0  # only the scale column is live
        gp.b2.data[...] = 0.0
        gp.w2.data[...] = 1.0
        x = Tensor(np.zeros((2, 3, 5, 4)))
        low = gate_forward(x, 0.1, gp, GateMode.SIGMOID).data[0]
        high = gate_forward(x, 0.9, gp, GateMode.SIGMOID).data[0]
        assert high > low

    def test_w2_gradients_in_sigmoid_mode(self):
        rng = np.random.default_rng(8)
        gp = GateParams.create(6, 2, rng)
        x = Tensor(rng.standard_normal((4, 3, 5, 6)))
        err = grad_check(
            lambda: sum_all(gate_forward(x, 0.6, gp, GateMode.SIGMOID)),
            [gp.w2, gp.b2, gp.w1, gp.b1])
        assert err < 1e-4

    def test_invalid_scale_rejected(self):
        gp = GateParams.create(4, 2, np.random.default_rng(9))
        with pytest.raises(ValueError, match="scale"):
            gate_forward(Tensor(np.zeros((1, 2, 3, 4))), 1.2, gp,
                         GateMode.BINARY)


class TestGatedBlockForward:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.block = make_block(6, rng=rng)
        # block inputs follow a ReLU in the network, keep them non-negative
        self.x = Tensor(np.abs(rng.standard_normal((3, 4, 5, 6))))

    def test_zero_gate_is_bitwise_identity(self):
        out = gated_block_forward(self.x, self.block, Tensor(np.zeros(3)),
                                  GateMode.BINARY)
        assert out.data.tobytes() == self.x.data.tobytes()

    def assert_closed_gate_skips_branch(self, block, monkeypatch):
        zero = Tensor(np.zeros(3))
        masked = relu(add(_shortcut(self.x, block, False),
                          scale_features(_residual_branch(self.x, block, False),
                                         zero)))
        calls = spy_branch(monkeypatch)
        out = gated_block_forward(self.x, block, zero, GateMode.BINARY)
        assert calls == []
        assert out.data.tobytes() == masked.data.tobytes()
        return out

    def test_skip_path_equals_masked_path_for_zero_gate(self, monkeypatch):
        self.assert_closed_gate_skips_branch(self.block, monkeypatch)

    def test_projection_block_changes_shape(self, monkeypatch):
        block = make_block(6, 12, stride=2, rng=np.random.default_rng(11))
        out = self.assert_closed_gate_skips_branch(block, monkeypatch)
        assert out.shape == (3, 2, 3, 12)

    def test_closed_gate_in_bn_training_still_runs_branch(self, monkeypatch):
        calls = spy_branch(monkeypatch)
        layers = (self.block.conv1, self.block.conv2)
        before = [layer.running_mean.copy() for layer in layers]
        out = gated_block_forward(self.x, self.block, Tensor(np.zeros(3)),
                                  GateMode.BINARY, bn_training=True)
        assert len(calls) == 1
        for layer, mean in zip(layers, before):
            assert not np.array_equal(layer.running_mean, mean)
        assert out.data.tobytes() == self.x.data.tobytes()

    def test_mixed_gates_bypass_per_sample(self):
        gate = Tensor(np.array([0.0, 1.0, 0.0]))
        out = gated_block_forward(self.x, self.block, gate, GateMode.BINARY)
        assert out.data[0].tobytes() == self.x.data[0].tobytes()
        assert out.data[2].tobytes() == self.x.data[2].tobytes()
        assert not np.array_equal(out.data[1], self.x.data[1])

    @pytest.mark.parametrize("c_out,stride", [(6, 1), (12, 2)],
                             ids=["identity", "projection"])
    def test_mixed_binary_gate_runs_branch_on_open_rows(self, monkeypatch,
                                                        c_out, stride):
        block = make_block(6, c_out, stride=stride,
                           rng=np.random.default_rng(12))
        shortcut = _shortcut(self.x, block, False).data
        branch = _residual_branch(self.x, block, False).data
        convs = spy_convs(monkeypatch)
        out = gated_block_forward(self.x, block, Tensor([1.0, 0.0, 1.0]),
                                  GateMode.BINARY)
        # the two 3x3 branch convs see the open rows, a 1x1 projection all
        assert [rows for k, rows in convs if k == 3] == [2, 2]
        assert [rows for k, rows in convs if k == 1] == \
            ([3] if block.proj is not None else [])
        assert out.data[1].tobytes() == \
            np.maximum(shortcut[1], 0.0).tobytes()
        np.testing.assert_allclose(out.data[[0, 2]],
                                   np.maximum(shortcut + branch, 0.0)[[0, 2]],
                                   rtol=0, atol=1e-12)

    def test_mixed_gate_in_bn_training_runs_branch_on_every_row(
            self, monkeypatch):
        convs = spy_convs(monkeypatch)
        gated_block_forward(self.x, self.block, Tensor([1.0, 0.0, 1.0]),
                            GateMode.BINARY, bn_training=True)
        assert convs == [(3, 3), (3, 3)]

    def test_open_rows_path_gradients(self):
        # gate-only training: batch norm on running statistics, mixed binary
        # gate; gradients reach the input through the row ops and the folded
        # convs, and never the frozen weights
        rng = np.random.default_rng(13)
        x = Tensor(self.x.data.copy(), requires_grad=True)
        r = Tensor(rng.standard_normal(self.x.shape))
        gate = Tensor([0.0, 1.0, 1.0])
        for layer in (self.block.conv1, self.block.conv2):
            layer.running_mean[...] = rng.standard_normal(6) * 0.1
            layer.running_var[...] = rng.uniform(0.5, 2.0, 6)

        def loss():
            return sum_all(mul(gated_block_forward(
                x, self.block, gate, GateMode.BINARY), r))

        assert grad_check(loss, [x]) < 1e-4
        assert self.block.conv1.w.grad is None

    def test_sigmoid_gate_is_never_skipped(self, monkeypatch):
        calls = spy_branch(monkeypatch)
        gated_block_forward(self.x, self.block, Tensor(np.zeros(3)),
                            GateMode.SIGMOID)
        assert len(calls) == 1

    def test_half_gate_matches_direct_formula(self):
        gate = Tensor(np.full(3, 0.5))
        out = gated_block_forward(self.x, self.block, gate, GateMode.SIGMOID)
        branch = _residual_branch(self.x, self.block, False).data
        ref = np.maximum(self.x.data + 0.5 * branch, 0.0)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)


class TestGatedResNetForward:
    def make_model(self, **kw):
        spec = ModelSpec(stage_blocks=kw.pop("stage_blocks", (2, 2)),
                         channels=kw.pop("channels", (8, 16)),
                         num_classes=kw.pop("num_classes", 4), **kw)
        return GatedResNet(spec, np.random.default_rng(kw.get("seed", 12)))

    def test_forward_shapes_and_record(self):
        model = self.make_model()
        x = np.random.default_rng(13).standard_normal((5, 3, 8, 8))
        logits, record = model.forward(x, 0.5)
        assert logits.shape == (5, 4)
        assert record.gates.shape == (5, 4)
        assert set(np.unique(record.gates)) <= {0.0, 1.0}

    def test_all_zero_gate_modules_skip_every_block(self):
        # single stage: every shortcut is an identity, so closing all
        # gates reduces the network to stem + head
        spec = ModelSpec(stage_blocks=(3,), channels=(8,), num_classes=4)
        model = GatedResNet(spec, np.random.default_rng(14))
        for gp in model.gate_modules:
            for t in (gp.w1, gp.b1, gp.w2, gp.b2):
                t.data[...] = 0.0
        x = Tensor(np.random.default_rng(15).standard_normal((2, 3, 8, 7)))
        logits, record = model.forward(x, 0.5,
                                       modes=[GateMode.BINARY] * 3)
        assert np.all(record.gates == 0.0)
        stem_head = model._head(model._stem(x, False))
        np.testing.assert_array_equal(logits.data, stem_head.data)

    def test_forward_is_deterministic(self):
        model = self.make_model()
        x = np.random.default_rng(16).standard_normal((3, 3, 8, 8))
        modes = sample_gate_modes(0.5, 4, np.random.default_rng(99))
        la, ra = model.forward(x, 0.7, modes)
        lb, rb = model.forward(x, 0.7, modes)
        np.testing.assert_array_equal(la.data, lb.data)
        np.testing.assert_array_equal(ra.gates, rb.gates)

    def test_binary_gates_block_gate_module_gradients(self):
        model = self.make_model()
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 3, 8, 8))
        labels = rng.integers(0, 4, 4)
        logits, record = model.forward(x, 0.8,
                                       modes=[GateMode.BINARY] * 4,
                                       bn_training=True)
        assert record.gates.min() == 1.0  # fresh init opens all gates
        softmax_cross_entropy(logits, labels).backward()
        for p in model.gate_parameters():
            assert p.grad is None or not p.grad.any()
        conv_grads = [b.conv1.w.grad for b in model.blocks]
        assert all(g is not None and np.abs(g).max() > 0 for g in conv_grads)

    def test_sigmoid_gates_pass_gate_module_gradients(self):
        model = self.make_model()
        rng = np.random.default_rng(18)
        x = rng.standard_normal((4, 3, 8, 8))
        labels = rng.integers(0, 4, 4)
        logits, _ = model.forward(x, 0.8, modes=[GateMode.SIGMOID] * 4)
        softmax_cross_entropy(logits, labels).backward()
        grads = [np.abs(p.grad).max() for p in model.gate_parameters()
                 if p.grad is not None]
        assert grads and max(grads) > 0

    def test_invalid_scale_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="scale"):
            model.forward(np.zeros((1, 3, 8, 8)), -0.1)

    def test_wrong_mode_count_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="gate modes"):
            model.forward(np.zeros((1, 3, 8, 8)), 0.5,
                          modes=[GateMode.BINARY])

    def test_parameter_names_are_unique(self):
        model = self.make_model()
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        bnames = [n for n, _ in model.named_buffers()]
        assert len(bnames) == len(set(bnames))

    def test_gate_backbone_split_covers_all(self):
        model = self.make_model()
        total = len(model.parameters())
        assert total == len(model.gate_parameters()) \
            + len(model.backbone_parameters())


class TestFoldedEvalBatchNorm:
    """A layer on running statistics runs as one conv with folded weights
    and a bias, whether or not a graph is recorded."""

    LAYERS = pytest.mark.parametrize(
        "k,stride", [(3, 1), (3, 2), (1, 2)],
        ids=["3x3", "3x3-stride2", "1x1-projection"])

    @staticmethod
    def randomize_bn(layers, rng):
        """Random gamma, beta and running stats on each conv + batch-norm
        layer (None skipped)."""
        for bn in filter(None, layers):
            c = bn.gamma.shape[0]
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            bn.beta.data[...] = rng.standard_normal(c) * 0.3
            bn.running_mean[...] = rng.standard_normal(c) * 0.5
            bn.running_var[...] = rng.uniform(0.2, 3.0, c)

    def make_layer(self, k, stride, seed):
        rng = np.random.default_rng(seed)
        layer = ConvBn.create(5, 7, k, stride, rng)
        self.randomize_bn([layer], rng)
        x = Tensor(rng.standard_normal((3, 8, 7, 5)), requires_grad=True)
        return layer, x, rng

    @LAYERS
    @pytest.mark.parametrize("record", [True, False],
                             ids=["graph", "no_grad"])
    def test_fold_normalizes_by_running_statistics(self, k, stride, record):
        layer, x, _ = self.make_layer(k, stride, 54)
        mean, var = layer.running_mean.copy(), layer.running_var.copy()
        with contextlib.nullcontext() if record else no_grad():
            out = _conv_bn(x, layer, False)
        assert out.requires_grad == record
        raw = conv2d(x, layer.w, stride=stride, pad=k // 2).data
        ref = (raw - mean) / np.sqrt(var + BN_EPS) * layer.gamma.data \
            + layer.beta.data
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(layer.running_mean, mean)
        np.testing.assert_array_equal(layer.running_var, var)

    @LAYERS
    def test_fold_passes_gradient_to_input_only(self, k, stride):
        layer, x, rng = self.make_layer(k, stride, 55)
        r = Tensor(rng.standard_normal(_conv_bn(x, layer, False).shape))
        err = grad_check(lambda: sum_all(mul(_conv_bn(x, layer, False), r)),
                         [x])
        assert err < 1e-4
        assert layer.w.grad is None
        assert layer.gamma.grad is None and layer.beta.grad is None

    def test_no_grad_forward_matches_batch_norm_forward(self):
        spec = ModelSpec(stage_blocks=(2, 2), channels=(6, 10),
                         num_classes=4)
        model = GatedResNet(spec, np.random.default_rng(50))
        rng = np.random.default_rng(51)
        self.randomize_bn(
            [layer for _, _, layer in model._conv_bn_layers()], rng)
        x = Tensor(rng.standard_normal((16, 3, 8, 7)), requires_grad=True)
        # centre every gate head on its block input at S=0.5, so that the
        # gates open for about half of the samples
        h = model._stem(x, False)
        for block, gp in zip(model.blocks, model.gate_modules):
            gp.w2.data[...] = rng.standard_normal(gp.w2.shape) * 3.0
            s = gate_forward(h, 0.5, gp, GateMode.SIGMOID).data
            gp.b2.data -= np.median(np.log(s / (1.0 - s)))
            gate = gate_forward(h, 0.5, gp, GateMode.BINARY)
            h = gated_block_forward(h, block, gate, GateMode.BINARY)
        assert any(b.proj is not None for b in model.blocks)
        mixed = 0
        for scale in (0.0, 0.5, 1.0):
            ref_logits, ref_record = model.forward(x, scale)
            assert ref_logits.requires_grad
            with no_grad():
                logits, record = model.forward(x, scale)
            np.testing.assert_array_equal(record.gates, ref_record.gates)
            np.testing.assert_array_equal(logits.data, ref_logits.data)
            g = record.gates
            mixed += int(np.sum((g.min(axis=0) == 0) & (g.max(axis=0) == 1)))
        assert mixed > 0  # some block ran its branch on a subset of rows

    @pytest.mark.parametrize("c_out,stride", [(6, 1), (12, 2)],
                             ids=["identity", "projection"])
    def test_mixed_gate_block_matches_batch_norm(self, c_out, stride):
        block = make_block(6, c_out, stride=stride,
                           rng=np.random.default_rng(52))
        rng = np.random.default_rng(53)
        self.randomize_bn([block.conv1, block.conv2, block.proj], rng)
        x = Tensor(np.maximum(rng.standard_normal((3, 8, 7, 6)), 0.0),
                   requires_grad=True)
        gate = Tensor([1.0, 0.0, 1.0])
        ref = gated_block_forward(x, block, gate, GateMode.BINARY)
        assert ref.requires_grad
        with no_grad():
            out = gated_block_forward(x, block, gate, GateMode.BINARY)
        np.testing.assert_array_equal(out.data, ref.data)


class TestRandomDropForward:
    def test_scale_one_keeps_everything(self, monkeypatch):
        spec = ModelSpec(stage_blocks=(2, 2), channels=(8, 16), num_classes=4)
        model = GatedResNet(spec, np.random.default_rng(19))
        x = np.random.default_rng(20).standard_normal((2, 3, 8, 8))
        calls = []

        def spy(features, gate):
            calls.append(features.shape)
            return scale_features(features, gate)

        monkeypatch.setattr(resizenet.model, "scale_features", spy)
        for grad in (True, False):
            with contextlib.nullcontext() if grad else no_grad():
                logits, kept = random_drop_forward(model, x, 1.0,
                                                   np.random.default_rng(0))
                full, record = model.forward(x, 1.0)
            assert kept.all()
            # fresh init opens all gates, so gated forward runs every block
            # too, adding each branch unscaled as a kept block does
            assert record.gates.min() == 1.0
            assert calls == []
            np.testing.assert_array_equal(logits.data, full.data)

    def test_half_scale_keeps_exactly_half(self):
        spec = ModelSpec(stage_blocks=(54,), channels=(4,), num_classes=2)
        model = GatedResNet(spec, np.random.default_rng(21))
        x = np.random.default_rng(22).standard_normal((1, 3, 4, 4))
        _, kept = random_drop_forward(model, x, 0.5, np.random.default_rng(1))
        assert kept.sum() == 27

    def test_dropped_block_never_runs_branch(self, monkeypatch):
        spec = ModelSpec(stage_blocks=(2, 2), channels=(8, 16), num_classes=4)
        model = GatedResNet(spec, np.random.default_rng(19))
        x = np.random.default_rng(20).standard_normal((2, 3, 8, 8))
        calls = spy_branch(monkeypatch)
        _, kept = random_drop_forward(model, x, 0.5, np.random.default_rng(2))
        assert len(calls) == kept.sum() == 2

    def test_kept_frequency_matches_scale(self):
        from resizenet.model import sample_kept_blocks
        rng = np.random.default_rng(23)
        n, scale, draws = 12, 0.5, 10_000
        counts = np.zeros(n)
        for _ in range(draws):
            counts += sample_kept_blocks(scale, n, rng)
        np.testing.assert_allclose(counts / draws, scale, atol=0.02)
