"""Trainer tests: scale sampling, annealing closed form, optimizer update
rules, freeze contracts, mode ablations, and reproducibility."""

import json
import math
from collections import defaultdict

import numpy as np
import pytest

from resizenet import model as model_module
from resizenet import training
from resizenet.cli import EXIT_OK, main
from resizenet.data import make_synthetic
from resizenet.metrics import evaluate
from resizenet.model import GatedResNet, GateMode, ModelSpec
from resizenet.tensor import Tensor
from resizenet.training import (
    AdamOptimizer,
    DivergenceError,
    FixedScaleConfig,
    OptimizerSpec,
    SgdOptimizer,
    TrainConfig,
    Trainer,
    annealed_scale,
    annealed_scale_base,
    parameter_checksum,
    sample_scale,
)

SMALL_SPEC = ModelSpec(stage_blocks=(2,), channels=(8,), num_classes=4)


def small_setup(seed=0, m=64, **cfg_kw):
    model = GatedResNet(SMALL_SPEC, np.random.default_rng(seed))
    train = make_synthetic(m, 4, 8, seed=seed + 1)
    val = make_synthetic(32, 4, 8, seed=seed + 1, split="val")
    defaults = dict(epochs_total=2, epochs_gate_only=1, batch_size=32,
                    seed=seed, lr_schedule=((0, 1e-3),))
    defaults.update(cfg_kw)
    cfg = TrainConfig(**defaults)
    return model, train, val, cfg


class TestSampleScale:
    def test_degenerate_range(self):
        assert sample_scale((0.5, 0.5), np.random.default_rng(0)) == 0.5

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_scale((0.2, 1.0), rng)
                          for _ in range(100_000)])
        assert abs(draws.mean() - 0.6) < 0.01

    def test_support(self):
        rng = np.random.default_rng(2)
        draws = [sample_scale((0.2, 1.0), rng) for _ in range(5000)]
        assert min(draws) >= 0.2 and max(draws) <= 1.0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            sample_scale((0.9, 0.2), np.random.default_rng(0))


class TestAnnealedScale:
    CFG = FixedScaleConfig(scale=0.6, sigma=0.0, anneal_epochs=10)

    def test_starts_at_one(self):
        assert annealed_scale(0, self.CFG, np.random.default_rng(0)) == 1.0

    def test_ends_at_fixed_scale(self):
        rng = np.random.default_rng(0)
        assert annealed_scale(10, self.CFG, rng) == 0.6
        assert annealed_scale(25, self.CFG, rng) == 0.6

    def test_cosine_midpoint(self):
        got = annealed_scale(5, self.CFG, np.random.default_rng(0))
        assert abs(got - 0.8) < 1e-12

    def test_matches_closed_form_everywhere(self):
        cfg = FixedScaleConfig(scale=0.35, sigma=0.0, anneal_epochs=7)
        for epoch in range(15):
            t = min(epoch, 7) / 7
            expect = 0.35 + 0.65 * (1 + math.cos(math.pi * t)) / 2
            got = annealed_scale_base(epoch, cfg)
            assert abs(got - expect) < 1e-12

    def test_noise_clamped_to_unit_interval(self):
        cfg = FixedScaleConfig(scale=0.95, sigma=0.5, anneal_epochs=1)
        rng = np.random.default_rng(3)
        draws = [annealed_scale(5, cfg, rng) for _ in range(2000)]
        assert max(draws) <= 1.0 and min(draws) >= 0.0
        assert len(set(draws)) > 100  # noise actually applied

    def test_zero_anneal_window(self):
        cfg = FixedScaleConfig(scale=0.4, sigma=0.0, anneal_epochs=0)
        assert annealed_scale(0, cfg, np.random.default_rng(0)) == 0.4


class TestOptimizers:
    def test_sgd_zero_gradient_leaves_params(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        SgdOptimizer([p], OptimizerSpec(kind="sgd", momentum=0.0,
                                        weight_decay=0.0)).step(0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_sgd_single_step(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        SgdOptimizer([p], OptimizerSpec(kind="sgd", momentum=0.0,
                                        weight_decay=0.0)).step(0.1)
        assert p.data[0] == pytest.approx(0.9, abs=1e-15)

    def test_sgd_momentum_accumulates(self):
        p = Tensor([0.0], requires_grad=True)
        opt = SgdOptimizer([p], OptimizerSpec(kind="sgd", momentum=0.9,
                                              weight_decay=0.0))
        p.grad = np.array([1.0])
        opt.step(1.0)          # v=1, p=-1
        opt.step(1.0)          # v=1.9, p=-2.9
        assert p.data[0] == pytest.approx(-2.9, abs=1e-12)

    def test_sgd_weight_decay_is_l2(self):
        p = Tensor([2.0], requires_grad=True)
        p.grad = np.array([0.0])
        SgdOptimizer([p], OptimizerSpec(kind="sgd", momentum=0.0,
                                        weight_decay=0.1)).step(0.5)
        assert p.data[0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0, abs=1e-15)

    def test_adam_rejects_weight_decay(self):
        # AdamOptimizer.step has no decay term, so the value would be ignored
        with pytest.raises(ValueError, match="weight_decay"):
            OptimizerSpec(kind="adam", weight_decay=1e-3)
        OptimizerSpec(kind="adam", weight_decay=0.0)

    def test_adam_first_step_magnitude(self):
        p = Tensor([5.0, 5.0], requires_grad=True)
        p.grad = np.array([0.3, -40.0])
        AdamOptimizer([p], OptimizerSpec(kind="adam")).step(0.001)
        # bias-corrected first step is lr * g/|g| regardless of magnitude
        np.testing.assert_allclose(p.data, [5.0 - 0.001, 5.0 + 0.001],
                                   rtol=1e-6)

    def test_adam_first_moment_decay_is_momentum(self):
        # with no first-moment memory, a step of +1 then one of -1 undoes
        # the first: each bias-corrected step is lr * g/|g|
        p = Tensor([1.0], requires_grad=True)
        opt = AdamOptimizer([p], OptimizerSpec(kind="adam", momentum=0.0))
        for g in (1.0, -1.0):
            p.grad = np.array([g])
            opt.step(0.1)
        assert p.data[0] == pytest.approx(1.0, abs=1e-7)

    def test_adam_skips_missing_grads(self):
        p = Tensor([1.0], requires_grad=True)
        AdamOptimizer([p], OptimizerSpec(kind="adam")).step(0.1)
        assert p.data[0] == 1.0


class TestTrainConfig:
    def test_lr_schedule_steps(self):
        cfg = TrainConfig(lr_schedule=((0, 1e-3), (10, 1e-4), (20, 1e-5)))
        assert cfg.lr_at(0) == 1e-3
        assert cfg.lr_at(9) == 1e-3
        assert cfg.lr_at(10) == 1e-4
        assert cfg.lr_at(25) == 1e-5

    @pytest.mark.parametrize("schedule,epoch,lr", [
        (((0, 0.1),), 0, 0.1),
        (((0, 0.1),), 7, 0.1),
        (((0, 0.1), (3, 0.01), (5, 0.001)), 2, 0.1),
        (((0, 0.1), (3, 0.01), (5, 0.001)), 3, 0.01),
        (((0, 0.1), (3, 0.01), (5, 0.001)), 4, 0.01),
        (((0, 0.1), (3, 0.01), (5, 0.001)), 5, 0.001),
        (((0, 0.1), (3, 0.01), (5, 0.001)), 99, 0.001),
    ])
    def test_lr_at_is_last_entry_at_or_before_epoch(self, schedule, epoch,
                                                    lr):
        assert TrainConfig(lr_schedule=schedule).lr_at(epoch) == lr

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(beta=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(p=1.5)
        with pytest.raises(ValueError):
            TrainConfig(scale_range=(0.9, 0.1))
        with pytest.raises(ValueError):
            TrainConfig(epochs_total=5, epochs_gate_only=6)
        with pytest.raises(ValueError):
            TrainConfig(baseline_mode="bogus")
        # a run with no epochs has no final row to report
        with pytest.raises(ValueError, match="epochs_total"):
            TrainConfig(epochs_total=0, epochs_gate_only=0)

    def test_scale_fixed_excludes_scale_range(self):
        with pytest.raises(ValueError) as exc:
            TrainConfig(scale_fixed=FixedScaleConfig(0.5))
        assert "scale_fixed" in str(exc.value)
        assert "scale_range" in str(exc.value)
        cfg = TrainConfig(scale_fixed=FixedScaleConfig(0.5), scale_range=None)
        assert cfg.scale_fixed.scale == 0.5

    def test_random_drop_needs_a_scale_source(self):
        # the random-drop baseline draws its keep rate from the scale too
        with pytest.raises(ValueError, match="scale_range"):
            TrainConfig(baseline_mode="random_drop", scale_range=None)

    def test_random_drop_has_no_gate_only_phase(self):
        # the baseline trains no gates, so gate-only epochs would silently
        # run as baseline epochs
        with pytest.raises(ValueError, match="epochs_gate_only"):
            TrainConfig(baseline_mode="random_drop", epochs_total=2,
                        epochs_gate_only=2, p=0.7)


class TestGateOnlyPhase:
    def test_backbone_frozen_bitwise(self):
        model, train, val, cfg = small_setup()
        before = [p.data.copy() for p in model.backbone_parameters()]
        buffers_before = [arr.copy() for _, arr in model.named_buffers()]
        trainer = Trainer(model, train, None, cfg)
        trainer.train_phase_gate_only()
        for p, b in zip(model.backbone_parameters(), before):
            assert p.data.tobytes() == b.tobytes()
        for (_, arr), b in zip(model.named_buffers(), buffers_before):
            assert arr.tobytes() == b.tobytes()

    def test_gate_parameters_move(self):
        # p=1 so every iteration draws the differentiable gate form
        model, train, val, cfg = small_setup(p=1.0)
        before = parameter_checksum(model.gate_parameters())
        Trainer(model, train, None, cfg).train_phase_gate_only()
        assert parameter_checksum(model.gate_parameters()) != before

    def test_conv_bn_layers_get_no_gradient(self):
        # every conv + batch-norm layer runs folded: backward reaches the
        # gates through the backbone but never the layers' own tensors
        model, train, val, cfg = small_setup(p=1.0)
        Trainer(model, train, None, cfg).train_phase_gate_only()
        assert all(p.grad is not None for p in model.gate_parameters())
        for _, _, layer in model._conv_bn_layers():
            assert layer.w.grad is None
            assert layer.gamma.grad is None and layer.beta.grad is None

    def test_scale_loss_decreases_early(self):
        model, train, val, cfg = small_setup(
            seed=3, m=1024, epochs_total=3, epochs_gate_only=3,
            p=1.0, gate_lr_scale=10.0)
        trainer = Trainer(model, train, None, cfg)
        trainer.train_phase_gate_only()
        losses = [r.loss_scale for r in trainer.report.rows]
        assert losses[1] < losses[0] and losses[2] < losses[1]


class TestJointPhase:
    def test_p_zero_never_updates_gate_modules(self):
        model, train, val, cfg = small_setup(p=0.0)
        before = parameter_checksum(model.gate_parameters())
        Trainer(model, train, None, cfg).run()
        assert parameter_checksum(model.gate_parameters()) == before

    def test_p_one_updates_gate_modules_every_epoch(self):
        model, train, val, cfg = small_setup(p=1.0)
        before = parameter_checksum(model.gate_parameters())
        Trainer(model, train, None, cfg).run()
        assert parameter_checksum(model.gate_parameters()) != before

    def test_seeded_runs_are_identical(self):
        results = []
        for _ in range(2):
            model, train, val, cfg = small_setup(seed=9)
            trainer = Trainer(model, train, val, cfg)
            trainer.run()
            results.append((parameter_checksum(model.parameters()),
                            [r.loss_total for r in trainer.report.rows]))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_divergence_guard_raises(self):
        # batch norm renormalizes almost any blowup, so only an absurd lr
        # pushes weights past the overflow threshold of the variance
        model, train, val, cfg = small_setup(
            lr_schedule=((0, 1e200),), epochs_total=3, epochs_gate_only=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                Trainer(model, train, None, cfg).run()

    def test_divergence_in_validation_names_epoch(self):
        # one plain SGD step this large leaves the weights finite, so the
        # first non-finite value shows in the epoch's validation pass
        model, train, val, cfg = small_setup(
            lr_schedule=((0, 1e100),), epochs_total=1, epochs_gate_only=0,
            optimizer=OptimizerSpec(kind="sgd", momentum=0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch 0"):
                Trainer(model, train, val, cfg).run()

    def test_report_has_one_row_per_epoch(self):
        model, train, val, cfg = small_setup(epochs_total=3,
                                             epochs_gate_only=1)
        trainer = Trainer(model, train, val, cfg)
        trainer.run()
        assert len(trainer.report.rows) == 3
        assert [r.phase for r in trainer.report.rows] \
            == ["gate-only", "joint", "joint"]
        assert all(np.isfinite(r.val_accuracy) for r in trainer.report.rows)


class TestBaselineTraining:
    def test_full_scale_never_drops(self):
        model, train, val, cfg = small_setup(
            baseline_mode="random_drop", scale_range=(1.0, 1.0),
            epochs_total=2, epochs_gate_only=0)
        trainer = Trainer(model, train, None, cfg)
        trainer.run()
        for row in trainer.report.rows:
            assert row.mean_usage == model.num_blocks

    def test_dropped_count_tracks_scale(self):
        model, train, val, cfg = small_setup(
            baseline_mode="random_drop", scale_range=(0.2, 1.0),
            epochs_total=6, epochs_gate_only=0, m=128)
        trainer = Trainer(model, train, None, cfg)
        trainer.run()
        usage = np.mean([r.mean_usage for r in trainer.report.rows])
        scale = np.mean([r.mean_scale for r in trainer.report.rows])
        assert abs(usage - scale * model.num_blocks) < 0.75

    def test_gate_modules_untouched(self):
        model, train, val, cfg = small_setup(
            baseline_mode="random_drop", scale_range=(0.5, 1.0),
            epochs_gate_only=0)
        before = parameter_checksum(model.gate_parameters())
        Trainer(model, train, None, cfg).run()
        assert parameter_checksum(model.gate_parameters()) == before

    def test_validates_the_network_with_every_block_kept(self):
        # the baseline never trains its gates, so shut ones must not decide
        # its validation accuracy
        model, train, val, cfg = small_setup(
            baseline_mode="random_drop", epochs_total=1, epochs_gate_only=0)
        for g in model.gate_modules:
            g.b2.data[...] = -100.0
        trainer = Trainer(model, train, val, cfg)
        trainer.run()
        assert evaluate(model, val, 1.0).stats.usage_mean == 0.0
        for g in model.gate_modules:
            g.b2.data[...] = 100.0
        every_block = evaluate(model, val, 1.0)
        assert every_block.stats.usage_mean == model.num_blocks
        assert trainer.report.rows[0].val_accuracy == every_block.accuracy


@pytest.mark.parametrize("augment", [False, True])
def test_augments_exactly_when_training_set_says_so(monkeypatch, augment):
    calls = []

    def spy(images, rng):
        calls.append(len(images))
        return images

    monkeypatch.setattr("resizenet.training.augment_batch", spy)
    # the 32-sample val set is never augmented
    model, train, val, cfg = small_setup(m=64, epochs_total=2,
                                         augment=augment)
    Trainer(model, train, val, cfg).run()
    # two epochs of two 32-sample batches, the gate-only epoch included
    assert calls == ([32] * 4 if augment else [])


def spy_schedule(monkeypatch, trainer) -> list[tuple]:
    """Run ``trainer`` and return one row per epoch: its phase label, the
    set of (forward, bn_training) pairs it ran, whether any gate module
    ran, and the parameter group of each optimizer it stepped, in step
    order."""
    model = trainer.model
    groups = {"backbone": model.backbone_parameters(),
              "gates": model.gate_parameters()}
    seen = defaultdict(lambda: {"forwards": set(), "gate_forward": False,
                                "optimizers": {}})

    def now():  # the epoch in progress has no report row yet
        return seen[len(trainer.report.rows)]

    real_forward = GatedResNet.forward

    def forward(self, x, scale, modes=None, *, bn_training=False):
        now()["forwards"].add(("gated", bn_training))
        return real_forward(self, x, scale, modes, bn_training=bn_training)

    real_drop = training.random_drop_forward

    def drop(model, x, scale, rng, *, bn_training=False):
        now()["forwards"].add(("random_drop", bn_training))
        return real_drop(model, x, scale, rng, bn_training=bn_training)

    real_gate = model_module.gate_forward

    def gate(*args, **kwargs):
        now()["gate_forward"] = True
        return real_gate(*args, **kwargs)

    real_make = training.make_optimizer

    def make(params, spec):
        optimizer = real_make(params, spec)
        group = next(name for name, group in groups.items()
                     if [id(p) for p in group] == [id(p) for p in params])
        real_step = optimizer.step

        def step(lr):
            now()["optimizers"][id(optimizer)] = group
            real_step(lr)
        optimizer.step = step
        return optimizer

    monkeypatch.setattr(GatedResNet, "forward", forward)
    monkeypatch.setattr(training, "random_drop_forward", drop)
    monkeypatch.setattr(model_module, "gate_forward", gate)
    monkeypatch.setattr(training, "make_optimizer", make)
    trainer.run()
    return [(row.phase, seen[row.epoch]["forwards"],
             seen[row.epoch]["gate_forward"],
             list(seen[row.epoch]["optimizers"].values()))
            for row in trainer.report.rows]


# per epoch: phase label, forwards run with their bn_training, whether a
# gate module ran, and the parameter groups of the optimizers stepped
GATE_ONLY = ("gate-only", {("gated", False)}, True, ["gates"])
JOINT = ("joint", {("gated", True)}, True, ["backbone", "gates"])
BASELINE = ("baseline", {("random_drop", True)}, False, ["backbone"])


class TestOneSchedule:
    """Every regime runs gate-only epochs, then joint epochs; the phase
    label alone sets each epoch's forward, batch norm and optimizers."""

    def test_gated(self, monkeypatch):
        model, train, _, cfg = small_setup(epochs_total=3,
                                           epochs_gate_only=1)
        assert spy_schedule(monkeypatch, Trainer(model, train, None, cfg)) \
            == [GATE_ONLY, JOINT, JOINT]

    def test_fixed_scale(self, monkeypatch):
        model, train, _, cfg = small_setup(
            epochs_total=3, epochs_gate_only=1, scale_range=None,
            scale_fixed=FixedScaleConfig(0.5))
        assert spy_schedule(monkeypatch, Trainer(model, train, None, cfg)) \
            == [GATE_ONLY, JOINT, JOINT]

    def test_random_drop(self, monkeypatch):
        model, train, _, cfg = small_setup(
            epochs_total=2, epochs_gate_only=0, baseline_mode="random_drop")
        assert spy_schedule(monkeypatch, Trainer(model, train, None, cfg)) \
            == [BASELINE, BASELINE]


class TestUsageSlope:
    def test_random_drop_slope_is_near_one(self):
        # random drop keeps round(S*N) of N blocks, so usage/N follows the
        # drawn S one to one, up to rounding; six blocks keep that small
        model = GatedResNet(ModelSpec(stage_blocks=(6,), channels=(4,),
                                      num_classes=4),
                            np.random.default_rng(0))
        cfg = TrainConfig(baseline_mode="random_drop", scale_range=(0.0, 1.0),
                          epochs_total=1, epochs_gate_only=0, batch_size=8)
        trainer = Trainer(model, make_synthetic(256, 4, 8, seed=1), None, cfg)
        trainer.run()
        assert abs(trainer.report.rows[0].usage_slope - 1.0) < 0.1


class TestReportOutputs:
    """The trainer writes no file; `resizenet train` writes its report."""

    def _train(self, tmp_path):
        config = {
            "model": {"stage_blocks": [2], "channels": [8], "num_classes": 4},
            "train": {"epochs_total": 2, "epochs_gate_only": 1,
                      "batch_size": 32, "seed": 0,
                      "lr_schedule": [[0, 1e-3]]},
            "dataset": {"kind": "synthetic", "m": 64, "val_m": 32,
                        "classes": 4, "image_size": 8, "seed": 1},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path),
                     "--out", str(out)]) == EXIT_OK
        return out, config["train"]["epochs_total"]

    def test_csv_and_summary_written(self, tmp_path):
        out, _ = self._train(tmp_path)
        assert (out / "epochs.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "model.ckpt").exists()
        header = (out / "epochs.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,phase,lr,loss_total")

    def test_csv_cells_after_phase_are_numbers(self, tmp_path):
        out, epochs = self._train(tmp_path)
        lines = (out / "epochs.csv").read_text().splitlines()[1:]
        assert len(lines) == epochs
        for line in lines:
            for cell in line.split(",")[2:]:
                float(cell)
