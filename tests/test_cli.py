"""Command-line harness tests: config validation, command outputs, exit
codes, and byte-level determinism of emitted files."""

import csv
import json
import pathlib
from dataclasses import fields

import numpy as np
import pytest

from resizenet import cli
from resizenet.cli import (
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    load_dataset_spec,
    load_run_config,
    main,
    parse_model_spec,
    parse_train_config,
)
from resizenet.data import load_checkpoint, make_synthetic, save_checkpoint
from resizenet.model import GatedResNet, ModelSpec
from resizenet.training import EpochRow

SMALL_MODEL = {"stage_blocks": [2], "channels": [8], "num_classes": 4}
SMALL_DATASET = {"kind": "synthetic", "m": 64, "val_m": 32,
                 "classes": 4, "image_size": 8, "seed": 5}
# a two-record file that test_malformed_config_shape_is_usage_error writes
# into its working directory
CIFAR_DATASET = {"kind": "cifar10", "train_path": "cifar.bin",
                 "test_path": "cifar.bin"}
# one short epoch, so a malformed case that slips through trains briefly
SHORT_TRAIN = {"epochs_total": 1, "epochs_gate_only": 0, "batch_size": 32}
NAN, INF = float("nan"), float("inf")


@pytest.fixture()
def run_config(tmp_path):
    cfg = {
        "model": SMALL_MODEL,
        "train": {"epochs_total": 2, "epochs_gate_only": 1,
                  "batch_size": 32, "seed": 1},
        "dataset": SMALL_DATASET,
        "out_dir": str(tmp_path / "run"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def checkpoint(tmp_path):
    model = GatedResNet(ModelSpec(**{k: tuple(v) if isinstance(v, list)
                                     else v for k, v in SMALL_MODEL.items()}),
                        np.random.default_rng(3))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    return str(path)


@pytest.fixture()
def dataset_spec(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(SMALL_DATASET))
    return str(path)


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": SMALL_MODEL, "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config(path)

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ConfigError, match="kernel"):
            parse_model_spec({**SMALL_MODEL, "kernel": 5})

    def test_unknown_train_key_rejected(self):
        with pytest.raises(ConfigError, match="warmup"):
            parse_train_config({"warmup": 3})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(path)

    def test_dataset_kinds(self):
        ds = load_dataset_spec(SMALL_DATASET, "train")
        assert len(ds) == 64
        val = load_dataset_spec(SMALL_DATASET, "val")
        assert len(val) == 32
        with pytest.raises(ConfigError, match="kind"):
            load_dataset_spec({"kind": "imagenet"})

    def test_dataset_section_takes_loader_defaults(self):
        # a key the section leaves out takes make_synthetic's default
        ds = load_dataset_spec({"kind": "synthetic", "m": 16}, "train")
        assert ds.images.tobytes() == make_synthetic(16).images.tobytes()
        assert len(load_dataset_spec({"kind": "synthetic"}, "val")) == 256

    def test_synthetic_val_split_is_unseen_samples_of_training_task(self):
        spec = {"kind": "synthetic", "m": 64, "val_m": 256, "seed": 5}
        train = load_dataset_spec(spec, "train")
        val = load_dataset_spec(spec, "val")
        templates = train.meta["templates"]
        assert np.array_equal(val.meta["templates"], templates)
        assert len(val) == 256
        same = (val.images[:, None] == train.images[None]).all(axis=(2, 3, 4))
        assert not same.any()
        flat = val.images.reshape(len(val), 1, -1)
        d2 = ((flat - templates.reshape(1, len(templates), -1)) ** 2).sum(2)
        assert (d2.argmin(axis=1) == val.labels).mean() >= 0.9

    @pytest.mark.parametrize("key,value", [("m", 1.5), ("m", "x"),
                                           ("val_m", True), ("val_m", 0)])
    @pytest.mark.parametrize("split", ["train", "val"])
    def test_synthetic_sizes_checked_on_both_splits(self, key, value, split):
        with pytest.raises(ConfigError,
                           match=f"^bad dataset spec: {key} must"):
            load_dataset_spec({**SMALL_DATASET, key: value}, split)

    def test_train_config_roundtrip(self):
        cfg = parse_train_config({
            "beta": 4.0, "p": 0.5, "scale_range": [0.3, 0.9],
            "epochs_total": 3, "epochs_gate_only": 1, "batch_size": 16,
            "seed": 2, "optimizer": {"kind": "sgd", "momentum": 0.9},
            "lr_schedule": [[0, 0.01]],
        })
        assert cfg.beta == 4.0
        assert cfg.scale_range == (0.3, 0.9)
        assert cfg.optimizer.kind == "sgd"


class TestTrainCommand:
    def test_gated_run_writes_outputs(self, run_config, tmp_path):
        code = main(["train", "--config", str(run_config)])
        assert code == EXIT_OK
        out = tmp_path / "run"
        for name in ("model.ckpt", "epochs.csv", "summary.json"):
            assert (out / name).exists(), name

    def test_rerun_writes_identical_bytes(self, run_config, tmp_path):
        names = ("model.ckpt", "epochs.csv", "summary.json")
        blobs = []
        for _ in range(2):
            assert main(["train", "--config", str(run_config),
                         "--out", str(tmp_path / "run")]) == EXIT_OK
            blobs.append([(tmp_path / "run" / name).read_bytes()
                          for name in names])
        assert blobs[0] == blobs[1]

    def test_missing_out_dir_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": SMALL_MODEL}))
        code = main(["train", "--config", str(path)])
        assert code == EXIT_USAGE
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        {**SMALL_MODEL, "stage_blocks": [1.5]},
        {**SMALL_MODEL, "channels": [0]},
    ], ids=["stage_blocks_float", "channels_zero"])
    def test_malformed_model_value_is_usage_error(self, run_config, model,
                                                  capsys):
        cfg = json.loads(run_config.read_text())
        run_config.write_text(json.dumps({**cfg, "model": model}))
        assert main(["train", "--config", str(run_config)]) == EXIT_USAGE
        assert "bad model spec" in capsys.readouterr().err

    def test_config_without_model_section_trains_default_spec(
            self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "train": {"epochs_total": 1, "epochs_gate_only": 0,
                      "batch_size": 32},
            "dataset": SMALL_DATASET, "out_dir": str(tmp_path / "run")}))
        assert main(["train", "--config", str(path)]) == EXIT_OK
        model, _ = load_checkpoint(tmp_path / "run" / "model.ckpt")
        assert model.spec == ModelSpec()

    def test_model_section_without_num_classes_takes_default(self):
        spec = parse_model_spec({"stage_blocks": [2], "channels": [8]})
        assert spec == ModelSpec(stage_blocks=(2,), channels=(8,))

    def test_init_from_checkpoint(self, run_config, checkpoint, tmp_path):
        code = main(["train", "--config", str(run_config),
                     "--init-from", checkpoint,
                     "--out", str(tmp_path / "warm")])
        assert code == EXIT_OK

    def _config_with_train(self, run_config, **train):
        cfg = json.loads(run_config.read_text())
        cfg["train"].update(train)
        run_config.write_text(json.dumps(cfg))
        return run_config

    def test_init_from_checkpoint_with_other_p(self, run_config, checkpoint,
                                               tmp_path):
        # train.p sets the training regime only, not the architecture
        path = self._config_with_train(run_config, p=0.5)
        code = main(["train", "--config", str(path),
                     "--init-from", checkpoint,
                     "--out", str(tmp_path / "warm")])
        assert code == EXIT_OK

    def test_config_regime_applies_without_mode_flag(self, run_config,
                                                     tmp_path):
        path = self._config_with_train(run_config,
                                       baseline_mode="random_drop",
                                       epochs_gate_only=0)
        assert main(["train", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["baseline_mode"] == "random_drop"
        rows = (tmp_path / "run" / "epochs.csv").read_text().splitlines()
        assert all(",baseline," in row for row in rows[1:])

    def test_config_fixed_scale_applies_without_mode_flag(self, run_config,
                                                          tmp_path):
        path = self._config_with_train(
            run_config, scale_range=None,
            scale_fixed={"scale": 0.5, "sigma": 0.0, "anneal_epochs": 0})
        assert main(["train", "--config", str(path)]) == EXIT_OK
        with open(tmp_path / "run" / "epochs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["mean_scale"] for row in rows] == ["0.5", "0.5"]
        # every batch draws the same scale, so no slope is defined
        assert [row["usage_slope"] for row in rows] == ["nan", "nan"]

    def test_divergence_exits_3_with_one_line(self, run_config, capsys):
        # numpy's overflow warning is an error under pytest, as in CI;
        # main must still report the divergence itself
        path = self._config_with_train(
            run_config, epochs_total=1, epochs_gate_only=0,
            optimizer={"kind": "sgd", "momentum": 0.0},
            lr_schedule=[[0, 1e200]])
        assert main(["train", "--config", str(path)]) == EXIT_DIVERGED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("diverged: ")

    def test_divergence_keeps_the_epochs_that_finished(self, run_config,
                                                       tmp_path, capsys):
        # epoch 0 trains at a sane rate, epoch 1 overflows the weights
        path = self._config_with_train(
            run_config, epochs_total=2, epochs_gate_only=0,
            optimizer={"kind": "sgd", "momentum": 0.0},
            lr_schedule=[[0, 0.05], [1, 1e200]])
        assert main(["train", "--config", str(path)]) == EXIT_DIVERGED
        assert "epoch 1" in capsys.readouterr().err
        with open(tmp_path / "run" / "epochs.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == [f.name for f in fields(EpochRow)]
        assert [row[:3] for row in rows] == [["0", "joint", "0.05"]]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
            ["epochs.csv"]

    @pytest.mark.parametrize("section,value,words", [
        ("train", [1, 2], ["train"]),
        ("train", {"lr_schedule": []}, ["lr_schedule"]),
        ("train", {"epochs_total": 0, "epochs_gate_only": 0},
         ["epochs_total"]),
        ("train", {"optimizer": {"kind": "adam", "weight_decay": 1e-3}},
         ["weight_decay"]),
        ("train", {"scale_fixed": {"scale": 0.6}, "scale_range": [0.2, 1.0]},
         ["scale_fixed", "scale_range"]),
        ("dataset", {**SMALL_DATASET, "m": 0}, ["dataset"]),
        ("dataset", {**SMALL_DATASET, "classes": None}, ["dataset"]),
        ("dataset", {**SMALL_DATASET, "image_size": [8]}, ["dataset"]),
        ("dataset", {**SMALL_DATASET, "m": "x"}, ["dataset"]),
        ("dataset", {**SMALL_DATASET, "sigma": 0.5}, ["sigma"]),
        ("dataset", {**SMALL_DATASET, "noise_sigma": 1e308}, ["overflow"]),
        ("train", {**SHORT_TRAIN, "scale_range": None,
                   "scale_fixed": {"scale": 0.6, "anneal_epochs": NAN}},
         ["anneal_epochs"]),
        ("train", {**SHORT_TRAIN, "gate_lr_scale": NAN}, ["gate_lr_scale"]),
        ("train", {**SHORT_TRAIN, "beta": NAN}, ["beta"]),
        ("train", {**SHORT_TRAIN, "lr_schedule": [[0, INF]]},
         ["lr_schedule"]),
        ("train", {**SHORT_TRAIN, "batch_size": 16.5}, ["batch_size"]),
        ("train", {**SHORT_TRAIN, "epochs_total": 1.5}, ["epochs_total"]),
        ("train", {**SHORT_TRAIN, "seed": 1.5}, ["seed"]),
        ("train", {**SHORT_TRAIN, "lr_schedule": [["0", "0.01"]]},
         ["lr_schedule"]),
        ("train", {**SHORT_TRAIN, "epochs_total": True}, ["epochs_total"]),
        ("train", {**SHORT_TRAIN, "scale_range": None,
                   "scale_fixed": {"scale": 0.6, "sigma": NAN}}, ["sigma"]),
        ("train", {**SHORT_TRAIN, "optimizer": {"kind": "adam",
                                                "momentum": 1.0}},
         ["momentum"]),
        ("train", {**SHORT_TRAIN, "optimizer": {"kind": "sgd",
                                                "weight_decay": INF}},
         ["weight_decay"]),
        ("train", {**SHORT_TRAIN, "optimizer": None}, ["optimizer"]),
        ("train", {**SHORT_TRAIN, "optimizer": {"beta1": 0.5}}, ["beta1"]),
        ("seed", 1, ["seed"]),
        ("dataset", {**SMALL_DATASET, "noise_sigma": NAN}, ["noise_sigma"]),
        # removed keys: the template scale and the cifar statistics are
        # fixed, so even their former default values are rejected
        ("dataset", {**SMALL_DATASET, "template_scale": 0.12},
         ["template_scale"]),
        ("dataset", {**CIFAR_DATASET, "means": [0.4914, 0.4822, 0.4465]},
         ["means"]),
        ("dataset", {**CIFAR_DATASET, "stds": [0.2470, 0.2435, 0.2616]},
         ["stds"]),
        ("dataset", {**CIFAR_DATASET, "stds": [0, 1, 1]}, ["stds"]),
        ("dataset", {**CIFAR_DATASET, "stds": [NAN, 1, 1]}, ["stds"]),
        ("dataset", {**CIFAR_DATASET, "means": [NAN, 0, 0]}, ["means"]),
        ("dataset", {**CIFAR_DATASET, "means": 0.5}, ["means"]),
        ("train", {**SHORT_TRAIN, "p": True}, ["p must"]),
        ("train", {**SHORT_TRAIN, "optimizer": {"kind": "sgd",
                                                "momentum": False}},
         ["momentum"]),
        ("train", {**SHORT_TRAIN, "scale_range": None,
                   "scale_fixed": {"scale": True}}, ["scale must"]),
        ("train", {**SHORT_TRAIN, "scale_range": [False, True]},
         ["scale_range"]),
        ("train", {**SHORT_TRAIN, "scale_range": [0.2, 0.6, 1.0]},
         ["scale_range"]),
        ("train", {**SHORT_TRAIN, "scale_range": 0.5}, ["scale_range"]),
        ("train", {**SHORT_TRAIN, "lr_schedule": [[0, 0.01, 5]]},
         ["lr_schedule"]),
        ("train", {**SHORT_TRAIN, "lr_schedule": [0.1]}, ["lr_schedule"]),
        ("dataset", {**SMALL_DATASET, "image_size": 0},
         ["dataset", "image_size"]),
        ("dataset", {**CIFAR_DATASET, "num_classes": 10}, ["num_classes"]),
        ("dataset", {**SMALL_DATASET, "val_m": True}, ["val_m"]),
        # the epoch a schedule entry starts at is never ambiguous
        ("train", {**SHORT_TRAIN, "lr_schedule": [[5, 0.1], [0, 0.2]]},
         ["lr_schedule"]),
        ("train", {**SHORT_TRAIN, "lr_schedule": [[0, 0.1], [0, 0.3]]},
         ["lr_schedule"]),
        ("train", {**SHORT_TRAIN, "lr_schedule": [[3, 0.1]]},
         ["lr_schedule"]),
        # augmentation is a training setting, not a dataset one
        ("dataset", {**CIFAR_DATASET, "augment": True}, ["augment"]),
        ("train", {**SHORT_TRAIN, "augment": 1}, ["augment"]),
    ], ids=["train_list", "lr_schedule_empty", "zero_epochs",
            "adam_weight_decay", "scale_fixed_and_range", "synthetic_m_zero",
            "synthetic_classes_null", "synthetic_image_size_list",
            "synthetic_m_string", "synthetic_unknown_key",
            "synthetic_noise_overflow", "anneal_epochs_nan",
            "gate_lr_scale_nan", "beta_nan", "lr_infinite",
            "batch_size_float", "epochs_total_float", "seed_float",
            "lr_schedule_strings", "epochs_total_bool", "sigma_nan",
            "adam_momentum_one", "weight_decay_infinite", "optimizer_null",
            "optimizer_beta1", "top_level_seed", "synthetic_noise_nan",
            "synthetic_template_scale", "cifar_means", "cifar_stds",
            "cifar_stds_zero", "cifar_stds_nan", "cifar_means_nan",
            "cifar_means_scalar",
            "p_true", "momentum_false", "scale_fixed_scale_true",
            "scale_range_bools", "scale_range_three", "scale_range_scalar",
            "lr_schedule_triple", "lr_schedule_scalar",
            "synthetic_image_size_zero", "cifar_num_classes",
            "synthetic_val_m_bool", "lr_schedule_unsorted",
            "lr_schedule_repeated", "lr_schedule_late_start",
            "cifar_augment", "augment_int"])
    def test_malformed_config_shape_is_usage_error(self, run_config, section,
                                                   value, words, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(run_config.parent)
        pathlib.Path("cifar.bin").write_bytes(bytes(2 * 3073))
        cfg = json.loads(run_config.read_text())
        run_config.write_text(json.dumps({**cfg, section: value}))
        assert main(["train", "--config", str(run_config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        for word in words:
            assert word in err

    def test_random_drop_without_scale_range_is_usage_error(self, run_config,
                                                            capsys):
        path = self._config_with_train(run_config,
                                       baseline_mode="random_drop",
                                       scale_range=None)
        assert main(["train", "--config", str(path)]) == EXIT_USAGE
        assert "scale_range" in capsys.readouterr().err

    def test_random_drop_with_gate_only_epochs_is_usage_error(
            self, run_config, capsys):
        # the fixture's train section keeps one gate-only epoch
        path = self._config_with_train(run_config,
                                       baseline_mode="random_drop")
        assert main(["train", "--config", str(path)]) == EXIT_USAGE
        assert "epochs_gate_only" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--mode", "gated"], ["--p", "0.5"], ["--beta", "2"],
        ["--range", "0.2", "1"], ["--s-fixed", "0.6"], ["--sigma", "0"],
        ["--anneal", "0"], ["--epochs", "1"], ["--seed", "1"]],
        ids=lambda flag: flag[0])
    def test_removed_training_flag_is_usage_error(self, run_config, flag,
                                                  tmp_path, capsys):
        # the run config's train section is the one description of a run
        code = main(["train", "--config", str(run_config), *flag])
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_directory_as_dataset_path_is_data_error(self, run_config,
                                                     tmp_path, capsys):
        cfg = json.loads(run_config.read_text())
        cfg["dataset"] = {"kind": "cifar10", "train_path": str(tmp_path),
                          "test_path": str(tmp_path)}
        run_config.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(run_config)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_init_from_mismatched_checkpoint_is_data_error(
            self, run_config, tmp_path):
        other = GatedResNet(ModelSpec(stage_blocks=(3,), channels=(8,),
                                      num_classes=4),
                            np.random.default_rng(0))
        path = tmp_path / "other.ckpt"
        save_checkpoint(path, other)
        code = main(["train", "--config", str(run_config),
                     "--init-from", str(path),
                     "--out", str(tmp_path / "warm2")])
        assert code == EXIT_DATA

    def test_out_under_regular_file_fails_before_training(
            self, run_config, tmp_path, monkeypatch, capsys):
        # the output directory is made before the schedule, so an unusable
        # --out exits 2 without training first
        ran = []
        monkeypatch.setattr(
            cli.Trainer, "run", lambda self: ran.append(self) or self)
        (tmp_path / "file").write_text("")
        code = main(["train", "--config", str(run_config),
                     "--out", str(tmp_path / "file" / "run")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert ran == []


def assert_knob_numbers_match_csv(out, n_blocks) -> dict:
    """Check eval.json's calibration_error, the mean |usage/N - S|, and
    usage_span, usage/N at the top S minus at the bottom, against the rows
    of eval.csv; returns eval.json."""
    with open(out / "eval.csv") as fh:
        rows = [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]
    usage = [r["usage_mean"] / n_blocks for r in rows]
    doc = json.loads((out / "eval.json").read_text())
    assert doc["calibration_error"] == \
        sum(abs(u - r["scale"]) for u, r in zip(usage, rows)) / len(rows)
    assert doc["usage_span"] == usage[-1] - usage[0]
    return doc


class TestEvalCommand:
    def test_eval_writes_csv_schema(self, checkpoint, dataset_spec,
                                    tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec,
                     "--grid", "0.2", "0.6", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == \
            "scale,accuracy,usage_mean,usage_std,flops_mean,flops_std"
        assert len(lines) == 4
        assert_knob_numbers_match_csv(out, 2)

    def test_eval_reports_how_usage_follows_the_knob(self, dataset_spec,
                                                     tmp_path):
        # the scale input alone drives both gates: block 0 opens above
        # S=0.1, block 1 above S=0.7, so usage/N reads .5, .5 and 1
        model = GatedResNet(ModelSpec(stage_blocks=(2,), channels=(8,),
                                      num_classes=4),
                            np.random.default_rng(3))
        for g, b2 in zip(model.gate_modules, (-5.0, -35.0)):
            g.w1.data[:-1, :] = 0.0
            g.w1.data[-1, :] = 10.0
            g.b1.data[:] = 0.0
            g.w2.data[:] = 1.0
            g.b2.data[:] = b2
        ckpt = tmp_path / "knob.ckpt"
        save_checkpoint(ckpt, model)
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--dataset", dataset_spec, "--grid", "0.2", "0.6", "1.0",
                     "--out", str(out)]) == EXIT_OK
        doc = assert_knob_numbers_match_csv(out, 2)
        assert doc["usage_span"] == 0.5
        assert doc["calibration_error"] == pytest.approx(0.4 / 3, abs=1e-15)

    def test_eval_writes_timing_next_to_flops(self, checkpoint, dataset_spec,
                                              tmp_path):
        out = tmp_path / "eval"
        main(["eval", "--checkpoint", checkpoint, "--dataset", dataset_spec,
              "--grid", "0.2", "1.0", "--out", str(out)])
        rows = json.loads((out / "timing.json").read_text())["rows"]
        evals = json.loads((out / "eval.json").read_text())["rows"]
        assert [set(r) for r in rows] == [{
            "scale", "flops_mean", "ms_per_sample", "time_ratio",
            "macs_ratio"}] * 2
        assert [(r["scale"], r["flops_mean"]) for r in rows] == \
            [(r["scale"], r["flops_mean"]) for r in evals]
        assert all(r["ms_per_sample"] > 0 for r in rows)
        # both ratios are to the grid's top scale
        top = rows[-1]
        assert top["time_ratio"] == top["macs_ratio"] == 1.0
        assert rows[0]["time_ratio"] == \
            rows[0]["ms_per_sample"] / top["ms_per_sample"]
        assert rows[0]["macs_ratio"] == \
            rows[0]["flops_mean"] / top["flops_mean"]

    def test_dataset_spec_not_an_object_is_usage_error(self, checkpoint,
                                                       tmp_path, capsys):
        code = main(["eval", "--checkpoint", checkpoint, "--dataset", "[1]",
                     "--grid", "0.5", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err

    def test_eval_grid_must_ascend(self, checkpoint, dataset_spec, tmp_path):
        code = main(["eval", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec,
                     "--grid", "0.9", "0.1", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_removed_split_flag_is_usage_error(self, checkpoint,
                                               dataset_spec, tmp_path,
                                               capsys):
        # eval always reads the dataset's val split
        code = main(["eval", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec, "--split", "val",
                     "--grid", "0.5", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_gate_override_changes_costs(self, checkpoint, dataset_spec,
                                         tmp_path):
        rows = {}
        for mode, flags in (("default", []),
                            ("sigmoid", ["--gate-override", "sigmoid"])):
            out = tmp_path / mode
            main(["eval", "--checkpoint", checkpoint,
                  "--dataset", dataset_spec, "--grid", "0.5",
                  "--out", str(out)] + flags)
            rows[mode] = json.loads((out / "eval.json").read_text())["rows"]
        assert rows["default"][0]["usage_mean"] != \
            rows["sigmoid"][0]["usage_mean"]

    def test_out_under_regular_file_fails_before_the_sweep(
            self, checkpoint, dataset_spec, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "evaluate",
                            lambda *args, **kwargs: ran.append(args))
        (tmp_path / "file").write_text("")
        code = main(["eval", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec, "--grid", "0.5",
                     "--out", str(tmp_path / "file" / "eval")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert ran == []

    def test_missing_checkpoint_is_data_error(self, dataset_spec, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--dataset", dataset_spec, "--grid", "0.5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA

    def test_directory_as_checkpoint_is_data_error(self, dataset_spec,
                                                   tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path),
                     "--dataset", dataset_spec, "--grid", "0.5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        (b'{"crc32', b'\xff"crc32'),            # undecodable header byte
        (b'"payload_nbytes"', b'"payload_nbytez"'),  # missing header key
        (b'"train_state": {}', b'"train_state": 5 '),  # not a JSON object
        (b'"offset": 0, ', b'"offset":"0",'),    # offset is a string
        (b'"stage_blocks": [2], ', b'"stage_blocks":[1.5],'),  # fractional
        (b'"channels": [8]', b'"channels": [0]'),    # zero width
    ], ids=["undecodable_byte", "missing_key", "train_state_not_object",
            "offset_string", "stage_blocks_float", "channels_zero"])
    def test_malformed_checkpoint_header_is_data_error(
            self, checkpoint, dataset_spec, tmp_path, old, new):
        blob = pathlib.Path(checkpoint).read_bytes()
        assert old in blob and len(old) == len(new)
        with open(checkpoint, "wb") as fh:
            fh.write(blob.replace(old, new))
        code = main(["eval", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec, "--grid", "0.5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA

    def test_rerun_is_byte_identical(self, checkpoint, dataset_spec,
                                     tmp_path):
        # timing.json holds wall times, so it is the one file left out
        names = ("eval.csv", "eval.json", "usage_map.csv",
                 "calibration.json")
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["eval", "--checkpoint", checkpoint,
                  "--dataset", dataset_spec, "--grid", "0.3", "0.8",
                  "--out", str(out)])
            blobs.append([(out / name).read_bytes() for name in names])
        assert blobs[0] == blobs[1]

    def test_sigmoid_override_writes_no_calibration(self, checkpoint,
                                                    dataset_spec, tmp_path):
        # resolve serves binary gates; a sigmoid sweep has no table for it
        out = tmp_path / "sig"
        code = main(["eval", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec, "--grid", "0.2", "1.0",
                     "--gate-override", "sigmoid", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("eval.csv", "eval.json", "timing.json",
                     "usage_map.csv"):
            assert (out / name).exists(), name
        assert not (out / "calibration.json").exists()

    def test_sigmoid_override_removes_stale_calibration(self, checkpoint,
                                                        dataset_spec,
                                                        tmp_path):
        # a binary sweep's calibration would not describe the sigmoid
        # sweep's files that replace its own in the same directory
        out = tmp_path / "eval"
        args = ["eval", "--checkpoint", checkpoint, "--dataset", dataset_spec,
                "--grid", "0.2", "1.0", "--out", str(out)]
        assert main(args) == EXIT_OK
        assert (out / "calibration.json").exists()
        assert main(args + ["--gate-override", "sigmoid"]) == EXIT_OK
        assert not (out / "calibration.json").exists()

    def test_gates_closing_with_scale_warn_and_get_envelope(
            self, tmp_path, dataset_spec, capsys):
        # a negative scale column opens every gate at S=0.2 and closes them
        # all at S=1.0, so cost falls as S rises
        model = GatedResNet(ModelSpec(stage_blocks=(2,), channels=(8,),
                                      num_classes=4),
                            np.random.default_rng(3))
        for g in model.gate_modules:
            g.w1.data[:-1, :] = 0.0
            g.w1.data[-1, :] = -10.0
            g.b1.data[:] = 5.0
            g.w2.data[:] = 1.0
            g.b2.data[:] = -1.0
        ckpt = tmp_path / "closing.ckpt"
        save_checkpoint(ckpt, model)
        out = tmp_path / "e"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--dataset", dataset_spec, "--grid", "0.2", "1.0",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "not monotone" in capsys.readouterr().err
        rows = json.loads((out / "eval.json").read_text())["rows"]
        assert [r["usage_mean"] for r in rows] == [2.0, 0.0]
        entries = json.loads((out / "calibration.json").read_text())["entries"]
        # the running max carries S=0.2's cost over to S=1.0
        assert [e["flops_mean"] for e in entries] == \
            [rows[0]["flops_mean"]] * 2


class TestUsageMapOutput:
    """The usage map is one of eval's outputs."""

    def test_matrix_dimensions(self, checkpoint, dataset_spec, tmp_path):
        out = tmp_path / "map"
        code = main(["eval", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec,
                     "--grid", "0.2", "0.5", "0.8", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "usage_map.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one row per block
        assert all(len(ln.split(",")) == 3 for ln in lines)

    def test_consistent_with_eval_usage(self, checkpoint, dataset_spec,
                                        tmp_path):
        main(["eval", "--checkpoint", checkpoint, "--dataset", dataset_spec,
              "--grid", "0.4", "0.9", "--out", str(tmp_path / "e")])
        matrix = np.loadtxt(tmp_path / "e" / "usage_map.csv",
                            delimiter=",", skiprows=1)
        rows = json.loads(
            (tmp_path / "e" / "eval.json").read_text())["rows"]
        for j, row in enumerate(rows):
            assert abs(matrix[:, j].sum() - row["usage_mean"]) < 1e-12


def run_on_data(command, tmp_path, model, dataset) -> tuple[int, pathlib.Path]:
    """Run ``train`` or ``eval`` with ``SMALL_MODEL`` updated by ``model``
    on the dataset section ``dataset``; returns the exit code and the
    output directory the command was given."""
    out = tmp_path / "out"
    spec = {**SMALL_MODEL, **model}
    if command == "train":
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": spec, "train": SHORT_TRAIN,
                                    "dataset": dataset}))
        return main(["train", "--config", str(path), "--out", str(out)]), out
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, GatedResNet(parse_model_spec(spec),
                                      np.random.default_rng(0)))
    return main(["eval", "--checkpoint", str(ckpt), "--dataset",
                 json.dumps(dataset), "--grid", "0.5", "--out", str(out)]), out


@pytest.mark.parametrize("command", ["train", "eval"])
def test_more_dataset_classes_than_model_is_usage_error(command, tmp_path,
                                                        capsys):
    # checked before the output directory exists, not at the first batch
    code, out = run_on_data(command, tmp_path, {},
                            {**SMALL_DATASET, "classes": 6})
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "6 classes" in err and "outputs 4" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_image_channels_other_than_model_is_usage_error(command, tmp_path,
                                                        capsys):
    code, out = run_on_data(command, tmp_path, {"in_channels": 1},
                            SMALL_DATASET)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "3-channel" in err and "takes 1" in err
    assert not out.exists()


def test_data_check_covers_every_split_it_is_given():
    spec = parse_model_spec(SMALL_MODEL)
    train = make_synthetic(8, classes=4)
    val = make_synthetic(8, classes=5, split="val")
    cli.check_data_fits(spec, train)
    with pytest.raises(ConfigError, match="val split has 5 classes"):
        cli.check_data_fits(spec, train, val)


def test_csv_outputs_end_lines_in_lf(run_config, checkpoint, dataset_spec,
                                     tmp_path):
    assert main(["train", "--config", str(run_config)]) == EXIT_OK
    assert main(["eval", "--checkpoint", checkpoint, "--dataset",
                 dataset_spec, "--grid", "0.5", "1.0",
                 "--out", str(tmp_path / "e")]) == EXIT_OK
    for path in (tmp_path / "run" / "epochs.csv", tmp_path / "e" / "eval.csv",
                 tmp_path / "e" / "usage_map.csv"):
        assert b"\r" not in path.read_bytes(), path.name


class TestCalibrateResolve:
    def test_eval_calibration_then_resolve(self, checkpoint, dataset_spec,
                                    tmp_path, capsys):
        out = tmp_path / "cal"
        code = main(["eval", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec,
                     "--grid", "0.2", "0.6", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        cal_path = out / "calibration.json"
        doc = json.loads(cal_path.read_text())
        assert len(doc["entries"]) == 3
        assert doc["gate_overhead_ratio"] < 0.01

        capsys.readouterr()
        code = main(["resolve", "--calibration", str(cal_path),
                     "--budget", "1e18"])
        assert code == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_resolve_interpolates(self, tmp_path, capsys):
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(json.dumps(
            {"entries": [{"scale": 0.2, "flops_mean": 100.0},
                         {"scale": 1.0, "flops_mean": 200.0}]}))
        main(["resolve", "--calibration", str(cal_path),
              "--budget", "150"])
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.6)


    @pytest.mark.parametrize("budget,scale", [
        ("nan", None), ("inf", 1.0), ("-inf", 0.2)])
    def test_resolve_non_finite_budget(self, tmp_path, capsys, budget,
                                       scale):
        # infinite budgets clamp to the table's ends; NaN has no answer
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(json.dumps(
            {"entries": [{"scale": 0.2, "flops_mean": 100.0},
                         {"scale": 1.0, "flops_mean": 200.0}]}))
        code = main(["resolve", "--calibration", str(cal_path),
                     f"--budget={budget}"])
        out, err = capsys.readouterr()
        if scale is None:
            assert code == EXIT_USAGE
            assert "nan" in err
        else:
            assert code == EXIT_OK
            assert float(out.strip()) == scale

    @pytest.mark.parametrize("text", [
        json.dumps({"tables": []}),
        json.dumps({"entries": [{"scale": 0.2}]}),
        "{not json",
        json.dumps({"entries": [{"scale": 1.0, "flops_mean": 2.0},
                                {"scale": 0.2, "flops_mean": 1.0}]}),
        '{"entries": [{"scale": 0.2, "flops_mean": NaN},'
        ' {"scale": 1.0, "flops_mean": 200.0}]}',
        '{"entries": [{"scale": NaN, "flops_mean": 100.0},'
        ' {"scale": 1.0, "flops_mean": 200.0}]}',
        json.dumps({"entries": [{"scale": 5, "flops_mean": 100.0},
                                {"scale": 7, "flops_mean": 200.0}]}),
        json.dumps({"entries": [{"scale": 0.2, "flops_mean": 100.0},
                                {"scale": True, "flops_mean": 200.0}]}),
        '{"entries": [{"scale": 0.2, "flops_mean": 100.0},'
        ' {"scale": 1.0, "flops_mean": Infinity}]}',
    ], ids=["no_entries", "entry_without_flops_mean", "not_json",
            "unsorted", "nan_cost", "nan_scale", "scale_above_one",
            "bool_scale", "infinite_cost"])
    def test_malformed_calibration_is_data_error(self, tmp_path, text,
                                                 capsys):
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(text)
        code = main(["resolve", "--calibration", str(cal_path),
                     "--budget", "150"])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestArgumentErrors:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE
