"""MAC accounting, usage statistics, and budget calibration tests."""

import numpy as np
import pytest

from resizenet.data import make_synthetic
from resizenet.metrics import (
    ConvLayer,
    FlopsModel,
    LinearLayer,
    budget_to_scale,
    count_macs,
    evaluate,
    monotone_envelope,
    read_usage_map_csv,
    write_usage_map_csv,
)
from resizenet.model import GatedResNet, GateMode, ModelSpec
from resizenet.tensor import softmax_cross_entropy


TOY_SPEC = ModelSpec(stage_blocks=(4, 4, 4), channels=(16, 32, 64),
                     num_classes=4)


class TestCountMacs:
    # ten layer shapes with hand-computed multiply-accumulate counts
    HAND_COMPUTED = [
        (LinearLayer(64, 10), 640),
        (ConvLayer(16, 16, 3, 32, 32), 2_359_296),
        (ConvLayer(8, 8, 1, 1, 1), 64),
        (ConvLayer(3, 16, 3, 8, 8), 27_648),
        (LinearLayer(17, 9), 153),
        (ConvLayer(16, 32, 3, 4, 4), 73_728),
        (ConvLayer(32, 32, 3, 4, 4), 147_456),
        (ConvLayer(16, 32, 1, 4, 4), 8_192),
        (LinearLayer(9, 1), 9),
        (ConvLayer(3, 64, 5, 7, 7), 235_200),
    ]

    @pytest.mark.parametrize("layer,expected", HAND_COMPUTED)
    def test_hand_computed_values(self, layer, expected):
        assert count_macs(layer) == expected

    def test_unsupported_layer_rejected(self):
        with pytest.raises(TypeError):
            count_macs(("conv", 1, 2, 3))


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
        result = evaluate(model, dataset, 0.5, flops_model=fm)
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
        model, dataset = setup
        tracked = []
        forward = model.forward

        def spy(*args, **kwargs):
            logits, record = forward(*args, **kwargs)
            tracked.append(logits.requires_grad)
            return logits, record

        monkeypatch.setattr(model, "forward", spy)
        evaluate(model, dataset, 0.5, batch_size=32)
        monkeypatch.undo()
        assert tracked == [False, False]
        assert all(p.grad is None for p in model.parameters())
        logits, _ = model.forward(dataset.images[:8], 0.5,
                                  [GateMode.SIGMOID] * model.num_blocks,
                                  bn_training=True)
        softmax_cross_entropy(logits, dataset.labels[:8]).backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_feature_free_model_has_zero_variance(self):
        spec = ModelSpec(stage_blocks=(2, 2), channels=(8, 16),
                         num_classes=4, use_feature_input=False)
        model = GatedResNet(spec, np.random.default_rng(2))
        dataset = make_synthetic(48, 4, 8, seed=3)
        for s in (0.2, 0.5, 0.9):
            stats = evaluate(model, dataset, s).stats
            assert np.all(stats.per_block_variance == 0.0)

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


class TestUsageMap:
    def test_csv_roundtrip(self, tmp_path):
        grid = [0.2, 0.6, 1.0]
        matrix = np.array([[0.0, 0.5, 1.0], [1.0, 1.0, 1.0]])
        path = tmp_path / "map.csv"
        write_usage_map_csv(path, grid, matrix)
        grid2, matrix2 = read_usage_map_csv(path)
        assert grid2 == grid
        np.testing.assert_array_equal(matrix2, matrix)


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
