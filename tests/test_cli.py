"""Command-line harness tests: config validation, command outputs, exit
codes, and byte-level determinism of emitted files."""

import json
import pathlib

import numpy as np
import pytest

from resizenet.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    load_dataset_spec,
    load_run_config,
    main,
    parse_model_spec,
    parse_train_config,
)
from resizenet.data import make_synthetic, save_checkpoint
from resizenet.model import GatedResNet, ModelSpec

SMALL_MODEL = {"stage_blocks": [2], "channels": [8], "num_classes": 4}
SMALL_DATASET = {"kind": "synthetic", "m": 64, "val_m": 32,
                 "classes": 4, "image_size": 8, "seed": 5}


@pytest.fixture()
def run_config(tmp_path):
    cfg = {
        "model": SMALL_MODEL,
        "train": {"epochs_total": 2, "epochs_gate_only": 1,
                  "batch_size": 32, "seed": 1},
        "dataset": SMALL_DATASET,
        "out_dir": str(tmp_path / "run"),
        "seed": 1,
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

    def test_fixed_mode_needs_target(self, run_config):
        code = main(["train", "--config", str(run_config),
                     "--mode", "fixed"])
        assert code == EXIT_USAGE

    def test_fixed_mode_flags(self, run_config, tmp_path):
        code = main(["train", "--config", str(run_config), "--mode", "fixed",
                     "--s-fixed", "0.6", "--sigma", "0.1", "--anneal", "1",
                     "--out", str(tmp_path / "fx")])
        assert code == EXIT_OK

    def test_baseline_mode(self, run_config, tmp_path):
        code = main(["train", "--config", str(run_config),
                     "--mode", "baseline-random",
                     "--out", str(tmp_path / "bl")])
        assert code == EXIT_OK

    def test_flag_overrides_apply(self, run_config, tmp_path):
        out = tmp_path / "ov"
        code = main(["train", "--config", str(run_config), "--p", "1.0",
                     "--beta", "8.0", "--range", "0.5", "0.9",
                     "--out", str(out)])
        assert code == EXIT_OK

    def test_init_from_checkpoint(self, run_config, checkpoint, tmp_path):
        code = main(["train", "--config", str(run_config),
                     "--init-from", checkpoint,
                     "--out", str(tmp_path / "warm")])
        assert code == EXIT_OK

    def test_init_from_checkpoint_with_p_flag(self, run_config, checkpoint,
                                              tmp_path):
        # --p sets the training regime only, not the architecture
        code = main(["train", "--config", str(run_config),
                     "--init-from", checkpoint, "--p", "0.5",
                     "--out", str(tmp_path / "warm")])
        assert code == EXIT_OK

    def _config_with_train(self, run_config, **train):
        cfg = json.loads(run_config.read_text())
        cfg["train"].update(train)
        run_config.write_text(json.dumps(cfg))
        return run_config

    def test_config_regime_applies_without_mode_flag(self, run_config,
                                                     tmp_path):
        path = self._config_with_train(run_config,
                                       baseline_mode="random_drop")
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
        rows = (tmp_path / "run" / "epochs.csv").read_text().splitlines()
        assert all(row.endswith(",0.5") for row in rows[1:])

    def test_fixed_scale_flags_apply_without_mode_flag(self, run_config,
                                                       tmp_path):
        assert main(["train", "--config", str(run_config), "--s-fixed",
                     "0.6", "--sigma", "0", "--anneal", "0"]) == EXIT_OK
        rows = (tmp_path / "run" / "epochs.csv").read_text().splitlines()
        assert all(row.endswith(",0.6") for row in rows[1:])

    @pytest.mark.parametrize("mode", ["gated", "baseline-random"])
    def test_fixed_scale_flags_rejected_with_other_modes(self, run_config,
                                                         mode, capsys):
        code = main(["train", "--config", str(run_config), "--mode", mode,
                     "--s-fixed", "0.6"])
        assert code == EXIT_USAGE
        assert "--s-fixed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--mode", "fixed", "--s-fixed", "0.6"],
        ["--s-fixed", "0.6"],
    ], ids=["mode_fixed", "s_fixed_only"])
    def test_range_rejected_on_fixed_scale_runs(self, run_config, flags,
                                                capsys):
        code = main(["train", "--config", str(run_config), *flags,
                     "--sigma", "0", "--anneal", "0", "--range", "0.2", "0.4"])
        assert code == EXIT_USAGE
        assert "--range" in capsys.readouterr().err

    @pytest.mark.parametrize("section,value", [
        ("train", [1, 2]),
        ("train", {"lr_schedule": []}),
        ("dataset", {**SMALL_DATASET, "m": 0}),
    ], ids=["train_list", "lr_schedule_empty", "synthetic_m_zero"])
    def test_malformed_config_shape_is_usage_error(self, run_config, section,
                                                   value, capsys):
        cfg = json.loads(run_config.read_text())
        run_config.write_text(json.dumps({**cfg, section: value}))
        assert main(["train", "--config", str(run_config)]) == EXIT_USAGE
        assert "error: " in capsys.readouterr().err

    def test_random_drop_without_scale_range_is_usage_error(self, run_config,
                                                            capsys):
        path = self._config_with_train(run_config,
                                       baseline_mode="random_drop",
                                       scale_range=None)
        assert main(["train", "--config", str(path)]) == EXIT_USAGE
        assert "scale_range" in capsys.readouterr().err

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

    def test_eval_writes_timing_next_to_flops(self, checkpoint, dataset_spec,
                                              tmp_path):
        out = tmp_path / "eval"
        main(["eval", "--checkpoint", checkpoint, "--dataset", dataset_spec,
              "--grid", "0.2", "1.0", "--out", str(out)])
        rows = json.loads((out / "timing.json").read_text())["rows"]
        evals = json.loads((out / "eval.json").read_text())["rows"]
        assert [set(r) for r in rows] == \
            [{"scale", "flops_mean", "ms_per_sample"}] * 2
        assert [(r["scale"], r["flops_mean"]) for r in rows] == \
            [(r["scale"], r["flops_mean"]) for r in evals]
        assert all(r["ms_per_sample"] > 0 for r in rows)

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
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["eval", "--checkpoint", checkpoint,
                  "--dataset", dataset_spec, "--grid", "0.3", "0.8",
                  "--out", str(out)])
            blobs.append((out / "eval.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestUsageMapCommand:
    def test_matrix_dimensions(self, checkpoint, dataset_spec, tmp_path):
        out = tmp_path / "map"
        code = main(["usage-map", "--checkpoint", checkpoint,
                     "--dataset", dataset_spec,
                     "--grid", "0.2", "0.5", "0.8", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "usage_map.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one row per block
        assert all(len(ln.split(",")) == 3 for ln in lines)

    def test_consistent_with_eval_usage(self, checkpoint, dataset_spec,
                                        tmp_path):
        main(["usage-map", "--checkpoint", checkpoint,
              "--dataset", dataset_spec, "--grid", "0.4", "0.9",
              "--out", str(tmp_path / "m")])
        main(["eval", "--checkpoint", checkpoint, "--dataset", dataset_spec,
              "--grid", "0.4", "0.9", "--out", str(tmp_path / "e")])
        matrix = np.loadtxt(tmp_path / "m" / "usage_map.csv",
                            delimiter=",", skiprows=1)
        rows = json.loads(
            (tmp_path / "e" / "eval.json").read_text())["rows"]
        for j, row in enumerate(rows):
            assert abs(matrix[:, j].sum() - row["usage_mean"]) < 1e-12


class TestCalibrateResolve:
    def test_calibrate_then_resolve(self, checkpoint, dataset_spec,
                                    tmp_path, capsys):
        out = tmp_path / "cal"
        code = main(["calibrate", "--checkpoint", checkpoint,
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


    @pytest.mark.parametrize("text", [
        json.dumps({"tables": []}),
        json.dumps({"entries": [{"scale": 0.2}]}),
        "{not json",
        json.dumps({"entries": [{"scale": 1.0, "flops_mean": 2.0},
                                {"scale": 0.2, "flops_mean": 1.0}]}),
    ], ids=["no_entries", "entry_without_flops_mean", "not_json",
            "unsorted"])
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
