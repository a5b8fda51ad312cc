"""Command-line harness: train models, sweep evaluation over a scale grid,
emit block-usage maps, and calibrate compute budgets back to scale values.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric divergence.  All outputs land under the chosen output directory;
reruns with the same config and seed produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields

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
    FlopsModel,
    budget_to_scale,
    evaluate,
    monotone_envelope,
    read_calibration_json,
    write_calibration_json,
    write_usage_map_csv,
)
from .model import GatedResNet, GateMode, ModelSpec
from .tensor import NonFiniteError
from .training import (
    DivergenceError,
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
    try:
        return ModelSpec.from_dict(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc


def parse_train_config(obj: dict) -> TrainConfig:
    _check_keys(obj, {f.name for f in fields(TrainConfig)}, "train")
    obj = dict(obj)
    try:
        for key in ("optimizer", "gate_optimizer"):
            if obj.get(key) is not None:
                opt = obj[key]
                _check_keys(opt, {f.name for f in fields(OptimizerSpec)},
                            f"train.{key}")
                obj[key] = OptimizerSpec(**opt)
        if obj.get("scale_fixed") is not None:
            fx = obj["scale_fixed"]
            _check_keys(fx, {f.name for f in fields(FixedScaleConfig)},
                        "train.scale_fixed")
            obj["scale_fixed"] = FixedScaleConfig(**fx)
        if obj.get("scale_range") is not None:
            obj["scale_range"] = tuple(obj["scale_range"])
        if "lr_schedule" in obj:
            obj["lr_schedule"] = tuple((int(e), float(lr))
                                       for e, lr in obj["lr_schedule"])
        return TrainConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}") from exc


def load_dataset_spec(obj: dict, split: str = "train") -> Dataset:
    if not isinstance(obj, dict):
        raise ConfigError(f"dataset spec must be a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind == "synthetic":
        _check_keys(obj, {"kind", "m", "val_m", "classes", "image_size",
                          "seed", "noise_sigma", "template_scale"},
                    "dataset")
        seed = int(obj.get("seed", 0))
        m = int(obj.get("val_m", max(1, obj.get("m", 512) // 2))) \
            if split == "val" else int(obj.get("m", 512))
        if m < 1:
            raise ConfigError(f"synthetic {split} split needs at least one "
                              f"sample, got {m}")
        return make_synthetic(
            m, int(obj.get("classes", 4)), int(obj.get("image_size", 8)),
            seed=seed + (1 if split == "val" else 0),
            noise_sigma=float(obj.get("noise_sigma", 0.5)),
            template_scale=float(obj.get("template_scale", 0.12)),
            split=split)
    if kind in ("cifar10", "cifar100"):
        _check_keys(obj, {"kind", "train_path", "test_path", "num_classes",
                          "means", "stds", "augment"}, "dataset")
        path = obj.get("test_path" if split == "val" else "train_path")
        if not path:
            raise ConfigError(f"dataset spec lacks a path for split {split}")
        kwargs = {}
        if "means" in obj:
            kwargs["means"] = tuple(obj["means"])
        if "stds" in obj:
            kwargs["stds"] = tuple(obj["stds"])
        return load_cifar_binary(
            path, num_classes=int(obj.get("num_classes",
                                          10 if kind == "cifar10" else 100)),
            record_format=kind, split=split,
            augment=bool(obj.get("augment", False)) and split == "train",
            **kwargs)
    raise ConfigError(f"unknown dataset kind {kind!r}")


def load_run_config(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(obj, {"model", "train", "dataset", "out_dir", "seed",
                      "init_checkpoint"}, "run config")
    if not isinstance(obj.get("train", {}), dict):
        raise ConfigError(f"train section of {path} must be a JSON object")
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


# -- commands ----------------------------------------------------------------


def cmd_train(args) -> int:
    config = load_run_config(args.config) if args.config else {}
    train_obj = dict(config.get("train", {}))
    dataset_obj = config.get("dataset", {"kind": "synthetic", "m": 1024})
    out_dir = args.out or config.get("out_dir")
    if not out_dir:
        raise ConfigError("no output directory (use --out or out_dir)")

    # flag overrides; without --mode the train section picks the regime
    fixed = {key: v for key, v in (("scale", args.s_fixed),
                                   ("sigma", args.sigma),
                                   ("anneal_epochs", args.anneal))
             if v is not None}
    if fixed and args.mode in ("gated", "baseline-random"):
        raise ConfigError(f"--s-fixed/--sigma/--anneal need --mode fixed or "
                          f"no --mode, not --mode {args.mode}")
    if args.mode == "gated":
        train_obj["baseline_mode"] = "none"
        train_obj["scale_fixed"] = None
    elif args.mode == "fixed":
        train_obj["baseline_mode"] = "none"
        train_obj["scale_range"] = None
    elif args.mode == "baseline-random":
        train_obj["baseline_mode"] = "random_drop"
        train_obj["scale_fixed"] = None
    if fixed or args.mode == "fixed":  # scale_fixed wins over scale_range
        fx = {**(train_obj.get("scale_fixed") or {}), **fixed}
        if "scale" not in fx:
            raise ConfigError("fixed-scale training needs --s-fixed or a "
                              "train.scale_fixed.scale entry")
        train_obj["scale_fixed"] = fx
    if args.range is not None and train_obj.get("scale_fixed") is not None:
        raise ConfigError("--range has no effect on a fixed-scale run; "
                          "drop it or use --mode gated")
    if args.p is not None:
        train_obj["p"] = args.p
    if args.beta is not None:
        train_obj["beta"] = args.beta
    if args.range is not None:
        train_obj["scale_range"] = tuple(args.range)
    if args.epochs is not None:
        train_obj["epochs_total"] = args.epochs
    if args.seed is not None:
        train_obj["seed"] = args.seed

    spec = parse_model_spec(config.get("model", {}))
    cfg = parse_train_config(train_obj)
    train_data = load_dataset_spec(dataset_obj, "train")
    val_data = load_dataset_spec(dataset_obj, "val")

    init = args.init_from or config.get("init_checkpoint")
    if init:
        model, _ = load_checkpoint(init, expected_spec=spec)
    else:
        model = GatedResNet(spec, np.random.default_rng(
            config.get("seed", cfg.seed)))

    trainer = Trainer(model, train_data, val_data, cfg, out_dir=out_dir)
    report = trainer.run()
    last = report.rows[-1]
    print(f"trained {len(report.rows)} epochs; "
          f"final val accuracy {last.val_accuracy:.4f}, "
          f"mean usage {last.mean_usage:.2f}/{model.num_blocks}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _parse_grid(values) -> list[float]:
    grid = [float(v) for v in values]
    if not grid:
        raise ConfigError("scale grid is empty")
    if grid != sorted(grid):
        raise ConfigError("scale grid must be ascending")
    if any(not 0.0 <= s <= 1.0 for s in grid):
        raise ConfigError("scale grid values must lie in [0, 1]")
    return grid


def _sweep(args, gate_override: GateMode | None = None):
    """Load the checkpoint and dataset, then evaluate at every grid scale.

    Returns the grid, the MAC model, one EvalResult per scale, and the wall
    time of each scale's ``evaluate`` in seconds.
    """
    model, _ = load_checkpoint(args.checkpoint)
    dataset = load_dataset_spec(_json_or_file(args.dataset), args.split)
    grid = _parse_grid(args.grid)
    fm = FlopsModel.for_model(model.spec, dataset.images.shape[2:])
    # one untimed batch (evaluate's default size) takes the one-off start-up
    # costs (BLAS, memory pools) that would otherwise be timed at grid[0]
    head = Dataset(dataset.images[:256], dataset.labels[:256], dataset.split)
    evaluate(model, head, grid[0], gate_override=gate_override,
             flops_model=fm)
    results, seconds = [], []
    for s in grid:
        t0 = time.perf_counter()
        results.append(evaluate(model, dataset, s,
                                gate_override=gate_override, flops_model=fm))
        seconds.append(time.perf_counter() - t0)
    return grid, fm, results, seconds


def cmd_eval(args) -> int:
    override = GateMode.SIGMOID if args.gate_override else None
    _, fm, results, seconds = _sweep(args, override)
    rows = [r.summary() for r in results]
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "eval.csv")
    with open(csv_path, "w") as fh:
        fields = ("scale", "accuracy", "usage_mean", "usage_std",
                  "flops_mean", "flops_std")
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[f])) for f in fields) + "\n")
    with open(os.path.join(args.out, "eval.json"), "w") as fh:
        json.dump({"gate_override": args.gate_override, "rows": rows,
                   "gate_overhead_ratio": fm.gate_overhead_ratio},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    # wall time varies run to run, so it stays out of eval.csv/eval.json
    with open(os.path.join(args.out, "timing.json"), "w") as fh:
        json.dump({"rows": [
            {"scale": row["scale"], "flops_mean": row["flops_mean"],
             "ms_per_sample": 1000.0 * sec / r.stats.n_samples}
            for row, r, sec in zip(rows, results, seconds)]},
            fh, indent=2, sort_keys=True)
        fh.write("\n")
    for row in rows:
        print(f"S={row['scale']:.2f} acc={row['accuracy']:.4f} "
              f"usage={row['usage_mean']:.2f}+-{row['usage_std']:.2f} "
              f"MACs={row['flops_mean']:.3e}+-{row['flops_std']:.2e}")
    return EXIT_OK


def cmd_usage_map(args) -> int:
    grid, _, results, _ = _sweep(args)
    matrix = np.stack([r.stats.per_block_usage for r in results], axis=1)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "usage_map.csv")
    write_usage_map_csv(path, grid, matrix)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} usage map to {path}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    grid, fm, results, _ = _sweep(args)
    table = [(s, r.stats.macs_mean) for s, r in zip(grid, results)]
    table, changed = monotone_envelope(table)
    if changed:
        print("warning: calibration was not monotone; envelope applied",
              file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "calibration.json")
    write_calibration_json(path, table, fm)
    print(f"wrote {len(table)}-point calibration to {path}")
    return EXIT_OK


def cmd_resolve(args) -> int:
    try:
        scale = budget_to_scale(read_calibration_json(args.calibration),
                                args.budget)
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
    p_train.add_argument("--mode",
                         choices=("gated", "fixed", "baseline-random"),
                         help="training regime; overrides the config's "
                              "train section when given")
    p_train.add_argument("--p", type=float,
                         help="probability of the differentiable gate form")
    p_train.add_argument("--beta", type=float,
                         help="weight of the scale-adherence loss")
    p_train.add_argument("--range", type=float, nargs=2,
                         metavar=("MIN", "MAX"),
                         help="uniform scale-sampling range")
    p_train.add_argument("--s-fixed", type=float,
                         help="fixed-scale target scale")
    p_train.add_argument("--sigma", type=float,
                         help="fixed-scale Gaussian scale noise")
    p_train.add_argument("--anneal", type=int,
                         help="fixed-scale annealing epochs")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--init-from", help="checkpoint to start from")
    p_train.set_defaults(func=cmd_train)

    def eval_like(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--dataset", required=True,
                       help="dataset spec: JSON file path or inline JSON")
        p.add_argument("--split", choices=("train", "val"), default="val")
        p.add_argument("--grid", nargs="+", required=True,
                       metavar="S", help="ascending scale values")
        p.add_argument("--out", required=True)
        return p

    p_eval = eval_like("eval", "accuracy/usage/cost across a scale grid")
    p_eval.add_argument("--gate-override", choices=("sigmoid",),
                        help="evaluate with sigmoid gates instead of the "
                             "binary default")
    p_eval.set_defaults(func=cmd_eval)

    p_map = eval_like("usage-map", "per-block usage across a scale grid")
    p_map.set_defaults(func=cmd_usage_map)

    p_cal = eval_like("calibrate", "build a scale-to-cost table")
    p_cal.set_defaults(func=cmd_calibrate)

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
