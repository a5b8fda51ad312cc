"""MAC accounting, usage statistics, and budget calibration tests."""

import numpy as np
import pytest

from resizenet.data import make_synthetic
from resizenet.metrics import (
    EVAL_BATCH,
    FlopsModel,
    budget_to_scale,
    evaluate,
    monotone_envelope,
)
from resizenet.model import GatedResNet, GateMode, ModelSpec
from resizenet.tensor import no_grad, softmax_cross_entropy


TOY_SPEC = ModelSpec(stage_blocks=(4, 4, 4), channels=(16, 32, 64),
                     num_classes=4)


class TestFlopsModel:
    def test_toy_config_block_costs(self):
        fm = FlopsModel.for_model(TOY_SPEC, (8, 8))
        assert fm.stem_macs == 27_648
        assert fm.head_macs == 256
        # plain 16-channel block at 8x8: two 3x3 convs
        assert fm.block_macs[0] == 2 * 147_456
        # downsampling block: stride-2 conv then full-width conv at 4x4
        assert fm.block_macs[4] == 73_728 + 147_456
        assert fm.proj_macs[4] == 8_192
        assert fm.proj_macs[0] == 0
        # gate on a 16-channel input: 17->9->1 bottleneck
        assert fm.gate_macs[0] == 162

    def test_total_is_sum_of_parts(self):
        fm = FlopsModel.for_model(TOY_SPEC, (8, 8))
        assert fm.total_macs == fm.fixed_macs + sum(fm.block_macs)
        assert all(m > 0 for m in fm.block_macs)
        assert all(m > 0 for m in fm.gate_macs)

    def test_gate_overhead_below_one_percent(self):
        toy = FlopsModel.for_model(TOY_SPEC, (8, 8))
        assert toy.gate_overhead_ratio < 0.01
        cifar = FlopsModel.for_model(
            ModelSpec(stage_blocks=(6, 6, 6), channels=(16, 32, 64),
                      num_classes=10), (32, 32))
        assert cifar.gate_overhead_ratio < 0.01

    def test_sample_macs_from_gate_rows(self):
        fm = FlopsModel.for_model(TOY_SPEC, (8, 8))
        n = fm.num_blocks
        all_open = fm.sample_macs(np.ones(n))
        assert all_open[0] == fm.total_macs
        all_closed = fm.sample_macs(np.zeros(n))
        assert all_closed[0] == fm.fixed_macs
        mixed = np.zeros(n)
        mixed[3] = 1.0
        assert fm.sample_macs(mixed)[0] == fm.fixed_macs + fm.block_macs[3]

    @pytest.mark.parametrize("spec,hw", [
        (TOY_SPEC, (8, 6)),
        (ModelSpec(stage_blocks=(2, 1, 2), channels=(6, 10, 10),
                   num_classes=3, in_channels=2, reduction=3), (7, 5)),
        # a 1-pixel side stays 1 under stride 2 (ceil), which the payload
        # bound of load_checkpoint relies on at a (1, 1) input
        (ModelSpec(stage_blocks=(1, 2, 1), channels=(4, 6, 8),
                   num_classes=3), (1, 2)),
    ], ids=["toy", "odd_input_reduction3", "three_stages_1x2"])
    def test_matches_macs_of_executed_layers(self, spec, hw, monkeypatch):
        # count Cin*Cout*k^2*Ho*Wo per conv and Din*Dout per affine map
        # that one sample's graph-free forward pass, the evaluation path
        # FlopsModel describes, actually runs
        import resizenet.model as model_mod
        counted = []
        conv2d, affine = model_mod.conv2d, model_mod.affine

        def spy_conv(x, w, *args, **kwargs):
            out = conv2d(x, w, *args, **kwargs)
            counted.append(w.data.size * out.shape[1] * out.shape[2])
            return out

        def spy_affine(x, w, b):
            counted.append(w.data.size)
            return affine(x, w, b)

        monkeypatch.setattr(model_mod, "conv2d", spy_conv)
        monkeypatch.setattr(model_mod, "affine", spy_affine)
        fm = FlopsModel.for_model(spec, hw)
        model = GatedResNet(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal(
            (1, spec.in_channels) + hw)

        def macs_with_open(open_blocks):
            for i, g in enumerate(model.gate_modules):
                g.b2.data[...] = 10.0 if i in open_blocks else -10.0
            counted.clear()
            with no_grad():
                model.forward(x, 0.5)
            return sum(counted)

        n = model.num_blocks
        assert macs_with_open(range(n)) == fm.total_macs
        assert macs_with_open(()) == fm.fixed_macs
        for i in range(n):
            assert macs_with_open({i}) == fm.fixed_macs + fm.block_macs[i]

    def test_sample_macs_validates_width(self):
        fm = FlopsModel.for_model(TOY_SPEC, (8, 8))
        with pytest.raises(ValueError, match="columns"):
            fm.sample_macs(np.ones(3))


@pytest.fixture(scope="module")
def setup():
    spec = ModelSpec(stage_blocks=(2, 2), channels=(8, 16), num_classes=4)
    model = GatedResNet(spec, np.random.default_rng(0))
    dataset = make_synthetic(64, 4, 8, seed=1)
    return model, dataset


class TestEvaluate:
    def test_fresh_model_runs_every_block(self, setup):
        model, dataset = setup
        result = evaluate(model, dataset, 0.5)
        # positive-bias gate init opens everything before training
        assert result.stats.usage_mean == model.num_blocks
        assert result.stats.usage_std == 0.0
        assert result.stats.macs_std == 0.0

    def test_usage_mean_is_sum_of_per_block(self, setup):
        model, dataset = setup
        stats = evaluate(model, dataset, 0.8).stats
        assert stats.usage_mean == stats.per_block_usage.sum()

    def test_macs_match_gate_recomputation(self, setup):
        model, dataset = setup
        fm = FlopsModel.for_model(model.spec, (8, 8))
        result = evaluate(model, dataset, 0.5)
        # recompute per-sample cost directly from the gathered gate rows
        gates = np.ones((len(dataset), model.num_blocks))
        np.testing.assert_array_equal(result.per_sample_macs,
                                      fm.sample_macs(gates))

    def test_deterministic_and_side_effect_free(self, setup):
        model, dataset = setup
        before = {n: arr.copy() for n, arr in model.named_buffers()}
        a = evaluate(model, dataset, 0.6)
        b = evaluate(model, dataset, 0.6)
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.per_sample_macs, b.per_sample_macs)
        for name, arr in model.named_buffers():
            np.testing.assert_array_equal(arr, before[name])

    def test_builds_no_graph_and_leaves_training_intact(self, setup,
                                                        monkeypatch):
        model, _ = setup
        dataset = make_synthetic(EVAL_BATCH + 8, 4, 8, seed=1)  # two batches
        tracked = []
        forward = model.forward

        def spy(*args, **kwargs):
            logits, record = forward(*args, **kwargs)
            tracked.append(logits.requires_grad)
            return logits, record

        monkeypatch.setattr(model, "forward", spy)
        evaluate(model, dataset, 0.5)
        monkeypatch.undo()
        assert tracked == [False, False]
        assert all(p.grad is None for p in model.parameters())
        logits, _ = model.forward(dataset.images[:8], 0.5,
                                  [GateMode.SIGMOID] * model.num_blocks,
                                  bn_training=True)
        softmax_cross_entropy(logits, dataset.labels[:8]).backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_runs_folded_convs_and_no_batch_norm(self, setup, monkeypatch):
        # evaluation folds every batch norm into its conv: the convs of a
        # training forward (one norm each) run, and no norm; a fresh model
        # opens every gate, so both passes run every block
        import resizenet.model as model_mod
        model, dataset = setup
        calls = {"conv2d": 0, "batch_norm": 0}
        for name in calls:
            def spy(*args, _name=name, _fn=getattr(model_mod, name),
                    **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(model_mod, name, spy)
        model.forward(dataset.images, 0.5, bn_training=True)
        train_calls = dict(calls)
        assert train_calls["batch_norm"] == train_calls["conv2d"] > 0
        calls.update(conv2d=0, batch_norm=0)
        assert len(dataset) <= EVAL_BATCH  # one batch, as in the forward
        evaluate(model, dataset, 0.5)
        assert calls == {"conv2d": train_calls["conv2d"], "batch_norm": 0}

    def test_feature_free_model_has_zero_variance(self):
        # gates that see only the scale agree on every sample, so each
        # binary gate is open for all of them or for none
        spec = ModelSpec(stage_blocks=(2, 2), channels=(8, 16),
                         num_classes=4, use_feature_input=False)
        model = GatedResNet(spec, np.random.default_rng(2))
        dataset = make_synthetic(48, 4, 8, seed=3)
        for s in (0.2, 0.5, 0.9):
            usage = evaluate(model, dataset, s).stats.per_block_usage
            assert np.all((usage == 0.0) | (usage == 1.0))

    def test_sigmoid_override_gives_fractional_gates(self, setup):
        model, dataset = setup
        result = evaluate(model, dataset, 0.5,
                          gate_override=GateMode.SIGMOID)
        gates_seen = result.stats.per_block_usage
        assert np.all((gates_seen > 0) & (gates_seen < 1))

    def test_empty_dataset_rejected(self, setup):
        model, dataset = setup
        from resizenet.data import Dataset
        empty = Dataset(images=np.zeros((0, 3, 8, 8)),
                        labels=np.zeros(0, dtype=int), split="test")
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, empty, 0.5)


class TestBudgetToScale:
    CAL = [(0.2, 100.0), (1.0, 200.0)]

    def test_linear_interpolation(self):
        assert budget_to_scale(self.CAL, 150.0) == pytest.approx(0.6)

    def test_clamps_to_endpoints(self):
        assert budget_to_scale(self.CAL, 1e9) == 1.0
        assert budget_to_scale(self.CAL, 5.0) == 0.2

    def test_exact_hit_returns_calibrated_scale(self):
        cal = [(0.2, 100.0), (0.5, 150.0), (1.0, 200.0)]
        assert budget_to_scale(cal, 150.0) == 0.5

    def test_monotone_in_budget(self):
        cal = [(0.2, 100.0), (0.4, 120.0), (0.7, 120.0), (1.0, 300.0)]
        budgets = np.linspace(50, 350, 61)
        scales = [budget_to_scale(cal, b) for b in budgets]
        assert all(b >= a for a, b in zip(scales, scales[1:]))

    def test_flat_segment_takes_largest_scale(self):
        cal = [(0.2, 100.0), (0.4, 120.0), (0.7, 120.0), (1.0, 300.0)]
        assert budget_to_scale(cal, 120.0) == 0.7

    def test_empty_calibration_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            budget_to_scale([], 10.0)

    def test_decreasing_costs_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            budget_to_scale([(0.2, 200.0), (1.0, 100.0)], 150.0)

    def test_monotone_envelope_repairs(self):
        fixed, changed = monotone_envelope([(0.2, 100.0), (0.5, 90.0),
                                            (1.0, 150.0)])
        assert changed
        assert fixed == [(0.2, 100.0), (0.5, 100.0), (1.0, 150.0)]
        same, changed = monotone_envelope([(0.2, 1.0), (1.0, 2.0)])
        assert not changed
