"""The benchmark's workloads: set-up, closed measurement loop and checks.

Every workload uses the reference model (stage_blocks (4, 4, 4), channels
(16, 32, 64), 4 classes) on seeded 8x8 ``make_synthetic`` inputs, with one
caller that starts the next call when the previous one returns.

* ``train_joint``: joint-phase training through ``Trainer.train_phase_joint``.
  One unit of work is one training step.
* ``infer_knob``: ``evaluate`` on one 256-sample batch per call, cycling the
  scale grid, on a model whose gates open more blocks as S rises.
* ``infer_open``: the same loop on the same backbone with every gate open.

On ``infer_*`` one unit of work is one ``evaluate`` call (one batch).

End-to-end numbers come from an untraced run.  A traced run alternates
traced and untraced passes, derives per-layer self times from the traced
ones and reports the difference between the two as the tracing overhead.
"""
from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import resizenet.metrics
from resizenet.data import Dataset, load_checkpoint, make_synthetic, save_checkpoint
from resizenet.metrics import evaluate
from resizenet.model import GatedResNet, ModelSpec
from resizenet.tensor import NonFiniteError
from resizenet.training import (DivergenceError, OptimizerSpec, TrainConfig,
                                Trainer, parameter_checksum)

import refnet
from spans import ALL_SPANS, Tracer, analyse

SPEC = ModelSpec(stage_blocks=(4, 4, 4), channels=(16, 32, 64), num_classes=4)
IMAGE = 8
S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
# timed order: S=0.5 next to S=1, so their ratio is taken between
# neighbouring calls and slow drifts in machine speed cancel
SWEEP = (0.0, 0.25, 0.5, 1.0, 0.75)
EVAL_BATCH = 256
INFER_M = 2 * EVAL_BATCH    # evaluated half, knob calibration half
TRAIN_BATCH, TRAIN_M, VAL_M = 32, 512, 64
SETUP_REPEATS = 15
LOGIT_RTOL = 1e-7   # engine vs reference logits, relative to the largest logit
LOSS_RTOL = 1e-6    # recorded training reference
EXPECTED = Path(__file__).with_name("expected.json")

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "time_ratio_half": "ratio",
    "peak_rss_mb": "MB",
}
SELF_TIMED = ("tensor.conv2d", "tensor.backward", "tensor.batch_norm",
              "tensor.affine", "model.forward", "model.gated_block_forward",
              "model.gate_forward", "objective.total_loss",
              "training.optimizer_step", "training.loop", "metrics.evaluate")
PER_LAYER = {
    **{f"{name}.self_ms": "ms" for name in SELF_TIMED},
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.rows": "count",
    "model.gate_forward.calls": "count",
    "model.branch_rows_computed": "count",
    "model.branch_rows_open": "count",
    "model.branch_useful_share": "share",
    "model.closed_gate_share": "share",
    "metrics.macs_ratio_half": "ratio",
    "metrics.usage_mean_half": "blocks",
    "data.save_checkpoint.ms": "ms",
    "data.load_checkpoint.ms": "ms",
    "trace.overhead_ms": "ms",
}
# spans a train_joint step needs even when tracing is off
STEP_SPANS = frozenset({"model.forward", "training.optimizer_step",
                        "metrics.evaluate"})


def _seeds(seed: int, n: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(n)]


def _split(data: Dataset, n: int) -> tuple[Dataset, Dataset]:
    return (Dataset(data.images[:n], data.labels[:n], data.split, data.meta),
            Dataset(data.images[n:], data.labels[n:], data.split, data.meta))


def _new_model(seed: int) -> GatedResNet:
    model = GatedResNet(SPEC, np.random.default_rng(seed))
    refnet.init_params(model, np.random.default_rng(seed))
    return model


def _set_up(n: int, data_seed: int, model: GatedResNet,
            path: Path) -> tuple[Dataset, GatedResNet, dict]:
    """Time the library's set-up SETUP_REPEATS times; keep the last result.

    One set-up makes the ``n`` inputs, saves ``model`` and loads it back
    (which builds a new model), so every workload starts from a
    checkpoint.  ``model`` is prepared beforehand by the benchmark's own
    code, which is not timed.  Set-up is single-threaded CPU work, and it is
    timed in process CPU time: the repeats take a fraction of a second, and
    on a shared virtual machine a burst of CPU time taken by the host would
    otherwise read as set-up cost.
    """
    times = {"setup": [], "save": [], "load": []}
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        data = make_synthetic(n, SPEC.num_classes, IMAGE, seed=data_seed)
        t1 = time.process_time()
        save_checkpoint(path, model)
        t2 = time.process_time()
        loaded, _ = load_checkpoint(path, SPEC)
        t3 = time.process_time()
        times["setup"].append(t3 - t0)
        times["save"].append(t2 - t1)
        times["load"].append(t3 - t2)
    return data, loaded, times


def _timing_metrics(setup_times: dict, unit_ms: list[float], samples: int,
                    wall_s: float, ratio: float) -> dict:
    return {
        "setup_s": statistics.median(setup_times["setup"]),
        "samples_per_s": samples / wall_s,
        "batch_ms_p50": float(np.percentile(unit_ms, 50)),
        "batch_ms_p90": float(np.percentile(unit_ms, 90)),
        "time_ratio_half": ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _layer_metrics(spans, self_s, roots, children, traced_roots: set,
                   n_units: int, extra: dict) -> dict:
    """Per-unit aggregates over the spans under ``traced_roots``."""
    self_total = dict.fromkeys(SELF_TIMED, 0.0)
    calls = {"tensor.conv2d": 0, "model.gate_forward": 0}
    conv_rows = block_rows = rows_open = rows_computed = 0
    for i, (name, _, _, _, attrs) in enumerate(spans):
        if roots[i] not in traced_roots:
            continue
        if name in self_total:
            self_total[name] += self_s[i]
        if name in calls:
            calls[name] += 1
        if name == "tensor.conv2d":
            conv_rows += attrs["rows"]
        elif name == "model.gated_block_forward":
            block_rows += attrs["rows"]
            rows_open += attrs["open"]
            # the branch is two 3x3 convolutions; a projection shortcut is 1x1
            rows_computed += sum(spans[c][4]["rows"] for c in children[i]
                                 if spans[c][0] == "tensor.conv2d"
                                 and spans[c][4]["k"] == 3) / 2
    out = {f"{name}.self_ms": 1000.0 * total / n_units
           for name, total in self_total.items()}
    out.update({
        "tensor.conv2d.calls": calls["tensor.conv2d"] / n_units,
        "tensor.conv2d.rows": conv_rows / n_units,
        "model.gate_forward.calls": calls["model.gate_forward"] / n_units,
        "model.branch_rows_computed": rows_computed / n_units,
        "model.branch_rows_open": rows_open / n_units,
        "model.branch_useful_share": rows_open / rows_computed
        if rows_computed else 0.0,
        "model.closed_gate_share": 1.0 - rows_open / block_rows,
    })
    out.update(extra)
    return out


def _layer_extras(setup_times: dict, half, full, traced_ms,
                  untraced_ms) -> dict:
    """Per-layer numbers measured outside the spans: checkpoint calls in
    set-up, ``evaluate`` results at S=0.5 and S=1, tracing overhead."""
    return {
        "data.save_checkpoint.ms":
        1000.0 * statistics.median(setup_times["save"]),
        "data.load_checkpoint.ms":
        1000.0 * statistics.median(setup_times["load"]),
        "metrics.macs_ratio_half": half.stats.macs_mean / full.stats.macs_mean,
        "metrics.usage_mean_half": half.stats.usage_mean,
        "trace.overhead_ms":
        statistics.median(traced_ms) - statistics.median(untraced_ms),
    }


def _spans_doc(spans, unit, parent_of=None) -> list[dict]:
    """Spans as JSON records, times in seconds from the first span."""
    t0 = spans[0][1] if spans else 0.0
    parent_of = parent_of or {}
    return [{"id": i, "name": name, "start": start - t0, "end": end - t0,
             "parent": parent_of.get(i, parent), "unit": unit[i],
             "attrs": attrs or {}}
            for i, (name, start, end, parent, attrs) in enumerate(spans)]


# -- inference ------------------------------------------------------------------


def _prepare_infer(kind: str, s_data: int, s_model: int) -> GatedResNet:
    """The benchmark's own parameter drawing and gate setting; the knob
    model is calibrated on the inputs that are not evaluated."""
    model = _new_model(s_model)
    if kind == "knob":
        data = make_synthetic(INFER_M, SPEC.num_classes, IMAGE, seed=s_data)
        refnet.calibrate_knob(model, _split(data, EVAL_BATCH)[1].images)
    else:
        refnet.open_gates(model)
    return model


def _same_result(a, b) -> bool:
    return (a.accuracy == b.accuracy
            and np.array_equal(a.stats.per_block_usage, b.stats.per_block_usage)
            and a.stats.macs_mean == b.stats.macs_mean)


def _check_infer(kind: str, model: GatedResNet, evalset: Dataset,
                 record: dict) -> list[str]:
    """Workload shape, then every recorded result against the reference."""
    n = model.num_blocks
    usage = [record[s].stats.usage_mean for s in S_GRID]
    problems = []
    if kind == "knob":
        if any(b < a for a, b in zip(usage, usage[1:])):
            problems.append(f"knob usage decreases with S: {usage}")
        if usage[-1] - usage[0] < n / 2:
            problems.append(f"knob usage spans less than {n / 2} blocks: {usage}")
        mid = record[0.5].stats.per_block_usage
        if not np.any((mid > 0) & (mid < 1)):
            problems.append("knob model has no mixed gates at S=0.5")
    elif any(u != n for u in usage):
        problems.append(f"open model does not use all {n} blocks: {usage}")

    arrays = refnet.model_arrays(model)
    probe = evalset.images[:64]
    for s in S_GRID:
        ref_logits, ref_gates = refnet.forward(arrays, SPEC, evalset.images, s)
        ref_acc = float((ref_logits.argmax(axis=1) == evalset.labels).mean())
        if not np.array_equal(ref_gates.mean(axis=0),
                              record[s].stats.per_block_usage):
            problems.append(f"S={s}: gate usage differs from the reference")
        if record[s].accuracy != ref_acc:
            problems.append(f"S={s}: accuracy {record[s].accuracy} != "
                            f"reference {ref_acc}")
        logits = model.forward(probe, s)[0].data
        tol = LOGIT_RTOL * max(1.0, float(np.abs(ref_logits).max()))
        err = float(np.abs(logits - ref_logits[:64]).max())
        if err > tol:
            problems.append(f"S={s}: logits differ from the reference by {err}")
    return problems


def run_infer(kind: str, seed: int, seconds: float, trace: bool,
              workdir: Path) -> dict:
    ckpt = workdir / f"infer_{kind}-{seed}-{os.getpid()}.ckpt"
    s_data, s_model = _seeds(seed, 2)
    try:
        data, model, setup_times = _set_up(
            INFER_M, s_data, _prepare_infer(kind, s_data, s_model), ckpt)
    finally:
        ckpt.unlink(missing_ok=True)
    evalset = _split(data, EVAL_BATCH)[0]
    # first pass over the grid: warm-up, and the results every later call
    # at the same S must repeat exactly
    record = {s: evaluate(model, evalset, s) for s in S_GRID}
    problems = _check_infer(kind, model, evalset, record)

    tracer = Tracer(active=())
    failed = calls = 0
    with tracer:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        # whole sweeps only, so every S is timed equally often; a traced run
        # alternates untraced and traced sweeps and makes at least one of each
        while (time.perf_counter() < deadline or calls % len(SWEEP)
               or calls < len(SWEEP) * (1 + trace)):
            s = SWEEP[calls % len(SWEEP)]
            traced = trace and (calls // len(SWEEP)) % 2 == 1
            tracer.active = ALL_SPANS if traced else frozenset()
            with tracer.span("bench.batch", {"scale": s, "traced": traced}):
                result = resizenet.metrics.evaluate(model, evalset, s)
            failed += not _same_result(result, record[s])
            calls += 1
        wall = time.perf_counter() - t0

    spans = tracer.spans
    self_s, roots, children = analyse(spans)
    batches = [i for i, rec in enumerate(spans) if rec[3] is None]
    ms = {i: 1000.0 * (spans[i][2] - spans[i][1]) for i in batches}
    untraced = [i for i in batches if not spans[i][4]["traced"]]

    info = {"usage_by_scale": {str(s): record[s].stats.usage_mean
                               for s in S_GRID},
            "accuracy_by_scale": {str(s): record[s].accuracy for s in S_GRID},
            "macs_by_scale": {str(s): record[s].stats.macs_mean
                              for s in S_GRID},
            "closed_gate_share": 1.0 - statistics.mean(
                record[s].stats.usage_mean for s in S_GRID) / model.num_blocks,
            "units": len(untraced), "unit": f"evaluate batch of {EVAL_BATCH}"}
    if trace:
        traced = set(batches) - set(untraced)
        metrics = _layer_metrics(
            spans, self_s, roots, children, traced, len(traced),
            _layer_extras(setup_times, record[0.5], record[1.0],
                          [ms[i] for i in traced], [ms[i] for i in untraced]))
        info.update(traced_units=len(traced), unhooked=tracer.unhooked)
    else:
        # one batch at each S per sweep, so zip pairs calls of one sweep
        at = {s: [ms[i] for i in untraced if spans[i][4]["scale"] == s]
              for s in (0.5, 1.0)}
        metrics = _timing_metrics(
            setup_times, [ms[i] for i in untraced], calls * EVAL_BATCH, wall,
            statistics.median(a / b for a, b in zip(at[0.5], at[1.0])))
    return {"correct": not problems and not failed, "attempted": calls,
            "failed": failed, "metrics": metrics, "problems": problems,
            "info": info, "spans": _spans_doc(spans, roots) if trace else None}


# -- training -------------------------------------------------------------------


def train_config(seed: int) -> TrainConfig:
    """The README's joint-phase settings; one epoch per call."""
    return TrainConfig(beta=2.0, p=0.1, scale_range=(0.2, 1.0),
                       epochs_total=1, epochs_gate_only=0,
                       optimizer=OptimizerSpec(kind="sgd", momentum=0.9,
                                               weight_decay=5e-4),
                       gate_optimizer=OptimizerSpec(kind="adam"),
                       gate_lr_scale=0.2, batch_size=TRAIN_BATCH, seed=seed,
                       lr_schedule=((0, 0.05),))


def train_reference() -> dict:
    """Three joint steps from a fixed seed; ``expected.json`` records them."""
    model = _new_model(0)
    data = make_synthetic(3 * TRAIN_BATCH, SPEC.num_classes, IMAGE, seed=0)
    trainer = Trainer(model, data, None, train_config(0))
    trainer.train_phase_joint()
    return {"loss_total": float(trainer.report.rows[-1].loss_total),
            "param_checksum": parameter_checksum(model.parameters())}


def _check_train_reference() -> list[str]:
    expected = json.loads(EXPECTED.read_text())["train_joint"]
    got = train_reference()
    return [f"training reference {key}: {got[key]!r}, recorded "
            f"{expected[key]!r}" for key in ("loss_total", "param_checksum")
            if not math.isclose(got[key], expected[key], rel_tol=LOSS_RTOL)]


def _steps(spans, children, root: int, first_id: int, unit: list,
           parent: dict) -> list[list]:
    """Split one ``training.loop`` span into steps.

    A step starts at a training forward pass (a direct child of the loop)
    and ends with the last layer call before the next one; the epoch's
    validation ``evaluate`` belongs to the step before it but does not
    extend it.  Returns ``training.step`` span records numbered from
    ``first_id`` and points each direct child's ``unit`` and ``parent`` at
    its step.
    """
    steps = []
    for c in children[root]:
        name, start, end, _, attrs = spans[c]
        if name == "model.forward":
            steps.append(["training.step", start, end, root,
                          {"scale": attrs["scale"]}])
        elif steps and name != "metrics.evaluate":
            steps[-1][2] = end
        if steps:
            unit[c] = parent[c] = first_id + len(steps) - 1
    return steps


def run_train(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    ckpt = workdir / f"train_joint-{seed}-{os.getpid()}.ckpt"
    problems = _check_train_reference()   # also warms up every code path
    s_data, s_model, s_train = _seeds(seed, 3)
    try:
        data, model, setup_times = _set_up(TRAIN_M + VAL_M, s_data,
                                           _new_model(s_model), ckpt)
        train, val = _split(data, TRAIN_M)
        trainer = Trainer(model, train, val, train_config(s_train))
        tracer = Tracer(active=STEP_SPANS)
        loops = 0
        with tracer:
            t0 = time.perf_counter()
            deadline = t0 + seconds
            while time.perf_counter() < deadline or loops < 1 + trace:
                traced = trace and loops % 2 == 1
                tracer.active = ALL_SPANS if traced else STEP_SPANS
                with tracer.span("training.loop", {"traced": traced}) as rec:
                    try:
                        trainer.train_phase_joint()
                    except (DivergenceError, NonFiniteError) as exc:
                        # the step that raised fails; training restarts from
                        # the checkpoint
                        rec[4]["error"] = str(exc)
                        model, _ = load_checkpoint(ckpt, SPEC)
                        trainer = Trainer(model, trainer.train_data, val,
                                          trainer.cfg)
                loops += 1
            wall = time.perf_counter() - t0
    finally:
        ckpt.unlink(missing_ok=True)

    spans = tracer.spans
    self_s, roots, children = analyse(spans)
    unit, parent = [None] * len(spans), {}
    steps, step_traced, traced_roots, failed = [], [], set(), 0
    for root in (i for i, rec in enumerate(spans) if rec[3] is None):
        new = _steps(spans, children, root, len(spans) + len(steps), unit,
                     parent)
        attrs = spans[root][4]
        failed += "error" in attrs
        if attrs["traced"]:
            traced_roots.add(root)
        steps += new
        step_traced += [attrs["traced"]] * len(new)
    for i, rec in enumerate(spans):
        if unit[i] is None and rec[3] is not None:
            unit[i] = unit[rec[3]]
    step_ms = [1000.0 * (end - start) for _, start, end, _, _ in steps]
    untraced = [(m, st[4]["scale"]) for m, st, t
                in zip(step_ms, steps, step_traced) if not t]

    rows = trainer.report.rows  # epochs since the last restart
    info = {"closed_gate_share": 1.0 - statistics.mean(
                row.mean_usage for row in rows) / SPEC.num_blocks
            if rows else None,
            "units": len(untraced), "unit": f"training step of {TRAIN_BATCH}",
            "epochs": loops}
    doc = None
    if trace:
        traced_ms = [m for m, t in zip(step_ms, step_traced) if t]
        metrics = _layer_metrics(
            spans, self_s, roots, children, traced_roots, len(traced_ms),
            _layer_extras(setup_times, evaluate(trainer.model, val, 0.5),
                          evaluate(trainer.model, val, 1.0), traced_ms,
                          [m for m, _ in untraced]))
        info.update(traced_units=len(traced_ms), unhooked=tracer.unhooked)
        unit += range(len(spans), len(spans) + len(steps))
        doc = _spans_doc(spans + steps, unit, parent)
    else:
        # training runs every branch whatever S is drawn; compare the steps
        # that drew the lower half of the scale range with the upper half
        low, high = ([m for m, s in untraced if (s < 0.6) == side]
                     for side in (True, False))
        metrics = _timing_metrics(setup_times, [m for m, _ in untraced],
                                  len(steps) * TRAIN_BATCH, wall,
                                  statistics.median(low)
                                  / statistics.median(high))
    return {"correct": not problems and not failed, "attempted": len(steps),
            "failed": failed, "metrics": metrics, "problems": problems,
            "info": info, "spans": doc}
