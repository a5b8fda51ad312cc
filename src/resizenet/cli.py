"""Command-line harness: ``train`` fits a model, ``eval`` sweeps a scale grid
once and writes every per-scale output (accuracy, usage and cost, wall time,
the per-block usage map and the scale-to-cost calibration), and ``resolve``
maps a compute budget back to a scale through that calibration.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric divergence.  The library returns values and this module writes
every run output, through one JSON and one CSV writer, under the chosen
output directory; reruns with the same config and seed produce
byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .data import (
    CheckpointError,
    Dataset,
    DatasetFormatError,
    load_checkpoint,
    load_cifar_binary,
    make_synthetic,
    save_checkpoint,
)
from .metrics import (
    EVAL_BATCH,
    FlopsModel,
    budget_to_scale,
    evaluate,
    monotone_envelope,
)
from .model import GatedResNet, GateMode, ModelSpec, check_number
from .tensor import NonFiniteError
from .training import (
    DivergenceError,
    EpochRow,
    FixedScaleConfig,
    OptimizerSpec,
    TrainConfig,
    Trainer,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    """Run configuration is malformed."""


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, not {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_model_spec(obj: dict) -> ModelSpec:
    _check_keys(obj, {f.name for f in fields(ModelSpec)}, "model")
    try:  # a key the config leaves out takes ModelSpec's default
        return ModelSpec.from_dict({**ModelSpec().to_dict(), **obj})
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc


def parse_train_config(obj: dict) -> TrainConfig:
    """Turn a ``train`` section's JSON shapes into ``TrainConfig``'s: nested
    objects become dataclasses and lists become tuples.  The dataclasses
    check every value."""
    _check_keys(obj, {f.name for f in fields(TrainConfig)}, "train")
    obj = dict(obj)
    nested = {"optimizer": OptimizerSpec, "gate_optimizer": OptimizerSpec,
              "scale_fixed": FixedScaleConfig}
    try:
        for key, cls in nested.items():
            if obj.get(key) is not None:
                _check_keys(obj[key], {f.name for f in fields(cls)},
                            f"train.{key}")
                obj[key] = cls(**obj[key])
        if isinstance(obj.get("scale_range"), list):
            obj["scale_range"] = tuple(obj["scale_range"])
        if isinstance(obj.get("lr_schedule"), list):
            obj["lr_schedule"] = tuple(tuple(e) if isinstance(e, list) else e
                                       for e in obj["lr_schedule"])
        return TrainConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}") from exc


def load_dataset_spec(obj: dict, split: str = "train") -> Dataset:
    """One split of a ``dataset`` section.  Its keys are ``kind``, each
    split's size or file, and the loader's own parameters, so the loader
    rejects an unknown key and a key left out takes the loader's default."""
    if not isinstance(obj, dict):
        raise ConfigError(f"dataset spec must be a JSON object, not {obj!r}")
    kwargs = dict(obj)
    kind = kwargs.pop("kind", None)
    try:
        if kind == "synthetic":
            # both sizes are checked on either split, under their own names
            m = check_number("m", kwargs.pop("m", 512), 1, integer=True)
            val_m = kwargs.pop("val_m", None)
            if val_m is not None:
                check_number("val_m", val_m, 1, integer=True)
            if split == "val":
                m = max(1, m // 2) if val_m is None else val_m
            return make_synthetic(m, split=split, **kwargs)
        if kind in ("cifar10", "cifar100"):
            path = {"train": kwargs.pop("train_path", None),
                    "val": kwargs.pop("test_path", None)}.get(split)
            if not path:
                raise ConfigError(f"dataset spec lacks a {split} path")
            return load_cifar_binary(path, record_format=kind, split=split,
                                     **kwargs)
    except (ConfigError, DatasetFormatError):
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad dataset spec: {exc}") from exc
    raise ConfigError(f"unknown dataset kind {kind!r}")


def check_data_fits(spec: ModelSpec, *datasets: Dataset) -> None:
    """Reject a split with more classes than the model outputs, or images
    whose channels the model's stem does not take; both commands call this
    before they create their output directory."""
    for data in datasets:
        if data.num_classes > spec.num_classes:
            raise ConfigError(
                f"{data.split} split has {data.num_classes} classes but the "
                f"model outputs {spec.num_classes}")
        if data.images.shape[1] != spec.in_channels:
            raise ConfigError(
                f"{data.split} split has {data.images.shape[1]}-channel "
                f"images but the model takes {spec.in_channels}")


def load_run_config(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(obj, {"model", "train", "dataset", "out_dir",
                      "init_checkpoint"}, "run config")
    return obj


def _json_or_file(value: str) -> dict:
    if os.path.exists(value):
        with open(value) as fh:
            return json.load(fh)
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"--dataset must be a JSON file path or inline JSON: {exc}"
        ) from exc


def _write_json(path, doc) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, rows) -> None:
    """One LF-terminated line per row.  A float, ``np.float64`` included,
    is written as the repr of a Python float, since numpy 2's repr of
    ``np.float64`` is not a number; any other cell as ``str``."""
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float)
                              else str(v) for v in row) + "\n")


# -- commands ----------------------------------------------------------------


def cmd_train(args) -> int:
    config = load_run_config(args.config) if args.config else {}
    dataset_obj = config.get("dataset", {"kind": "synthetic"})
    out_dir = args.out or config.get("out_dir")
    if not out_dir:
        raise ConfigError("no output directory (use --out or out_dir)")

    spec = parse_model_spec(config.get("model", {}))
    cfg = parse_train_config(config.get("train", {}))
    train_data = load_dataset_spec(dataset_obj, "train")
    val_data = load_dataset_spec(dataset_obj, "val")
    check_data_fits(spec, train_data, val_data)

    init = args.init_from or config.get("init_checkpoint")
    if init:
        model, _ = load_checkpoint(init, expected_spec=spec)
    else:
        model = GatedResNet(spec, np.random.default_rng(cfg.seed))

    # made before the schedule runs, so an unusable --out fails at once
    os.makedirs(out_dir, exist_ok=True)
    trainer = Trainer(model, train_data, val_data, cfg)
    rows = trainer.report.rows
    try:
        trainer.run()
    finally:
        # a run that diverges still leaves the epochs it finished
        _write_csv(os.path.join(out_dir, "epochs.csv"),
                   [[f.name for f in fields(EpochRow)], *map(astuple, rows)])
    ckpt = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(ckpt, model, train_state={"epoch": len(rows)})
    last = rows[-1]
    _write_json(os.path.join(out_dir, "summary.json"), {
        "epochs": len(rows), "final_val_accuracy": last.val_accuracy,
        "final_loss": last.loss_total, "final_mean_usage": last.mean_usage,
        "baseline_mode": cfg.baseline_mode, "beta": cfg.beta, "p": cfg.p,
        "seed": cfg.seed, "checkpoint": ckpt})
    print(f"trained {len(rows)} epochs; "
          f"final val accuracy {last.val_accuracy:.4f}, "
          f"mean usage {last.mean_usage:.2f}/{model.num_blocks}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _parse_grid(values) -> list[float]:
    grid = [check_number("scale grid value", float(v), 0, 1) for v in values]
    if grid != sorted(grid):
        raise ConfigError("scale grid must be ascending")
    return grid


def cmd_eval(args) -> int:
    override = GateMode.SIGMOID if args.gate_override else None
    model, _ = load_checkpoint(args.checkpoint)
    dataset = load_dataset_spec(_json_or_file(args.dataset), "val")
    check_data_fits(model.spec, dataset)
    grid = _parse_grid(args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before the sweep, as in train
    fm = FlopsModel.for_model(model.spec, dataset.images.shape[2:])
    # one untimed batch takes the one-off start-up costs (BLAS, memory
    # pools) that would otherwise be timed at grid[0]
    head = Dataset(dataset.images[:EVAL_BATCH], dataset.labels[:EVAL_BATCH],
                   dataset.split)
    evaluate(model, head, grid[0], gate_override=override)
    results, seconds = [], []
    for s in grid:
        t0 = time.perf_counter()
        results.append(evaluate(model, dataset, s, gate_override=override))
        seconds.append(time.perf_counter() - t0)

    rows = [r.summary() for r in results]
    # eval.csv's columns are summary()'s keys, in order
    _write_csv(out / "eval.csv", [list(rows[0]), *map(dict.values, rows)])
    # how closely usage/N follows S, and how far the grid moves it
    usage = [row["usage_mean"] / model.num_blocks for row in rows]
    _write_json(out / "eval.json", {
        "gate_override": args.gate_override, "rows": rows,
        "gate_overhead_ratio": fm.gate_overhead_ratio,
        "calibration_error": sum(abs(u - s) for u, s in zip(usage, grid))
        / len(grid),
        "usage_span": usage[-1] - usage[0]})
    # wall time varies run to run, so it stays out of eval.csv/eval.json
    ms = [1000.0 * sec / r.stats.n_samples for r, sec in zip(results, seconds)]
    # both ratios are to the top of the grid, so time can be read against
    # MACs at every S
    _write_json(out / "timing.json", {"rows": [
        {"scale": row["scale"], "flops_mean": row["flops_mean"],
         "ms_per_sample": t, "time_ratio": t / ms[-1],
         "macs_ratio": row["flops_mean"] / rows[-1]["flops_mean"]}
        for row, t in zip(rows, ms)]})
    # a header row of scales, then one row of mean gate values per block
    _write_csv(out / "usage_map.csv", [grid, *np.stack(
        [r.stats.per_block_usage for r in results], axis=1)])
    # resolve maps budgets for the binary gates that serving runs, so a
    # sigmoid sweep writes no calibration and removes a stale one
    calibration = out / "calibration.json"
    if override is None:
        table, changed = monotone_envelope(
            [(s, r.stats.macs_mean) for s, r in zip(grid, results)])
        if changed:
            print("warning: calibration was not monotone; envelope applied",
                  file=sys.stderr)
        _write_json(calibration, {
            "entries": [{"scale": s, "flops_mean": f} for s, f in table],
            "fixed_flops": fm.fixed_macs, "total_flops": fm.total_macs,
            "gate_overhead_ratio": fm.gate_overhead_ratio})
    else:
        calibration.unlink(missing_ok=True)
    for row in rows:
        print(f"S={row['scale']:.2f} acc={row['accuracy']:.4f} "
              f"usage={row['usage_mean']:.2f}+-{row['usage_std']:.2f} "
              f"MACs={row['flops_mean']:.3e}+-{row['flops_std']:.2e}")
    return EXIT_OK


def cmd_resolve(args) -> int:
    if math.isnan(args.budget):
        raise ConfigError("--budget must be a number, not nan")
    try:
        with open(args.calibration) as fh:
            entries = json.load(fh)["entries"]
        scale = budget_to_scale(
            [(e["scale"], e["flops_mean"]) for e in entries], args.budget)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DatasetFormatError(
            f"{args.calibration}: not a calibration table: {exc!r}") from exc
    print(repr(scale))
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resizenet",
        description="Train and operate scale-gated residual networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training schedule")
    p_train.add_argument("--config", help="run-config JSON path")
    p_train.add_argument("--out", help="output directory")
    p_train.add_argument("--init-from", help="checkpoint to start from")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "eval", help="accuracy, usage, cost, usage map and calibration "
                     "across a scale grid")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True,
                        help="dataset spec: JSON file path or inline JSON")
    p_eval.add_argument("--grid", nargs="+", required=True,
                        metavar="S", help="ascending scale values")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--gate-override", choices=("sigmoid",),
                        help="evaluate with sigmoid gates instead of the "
                             "binary default (writes no calibration.json)")
    p_eval.set_defaults(func=cmd_eval)

    p_res = sub.add_parser("resolve",
                           help="map a compute budget to a scale value")
    p_res.add_argument("--calibration", required=True)
    p_res.add_argument("--budget", type=float, required=True)
    p_res.set_defaults(func=cmd_resolve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # the engine checks every op's output, so a numpy overflow surfaces
        # as NonFiniteError; its RuntimeWarning would only precede that
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (DatasetFormatError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, NonFiniteError) as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
