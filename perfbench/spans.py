"""Spans around calls into resizenet's public functions, recorded from outside.

Each hook replaces one public name in the namespace it is called through
(``resizenet.model`` calls ``conv2d``, ``batch_norm`` and ``affine`` by
their module-level names, so those are the names to wrap) and restores it
on exit.  A name the library no longer has is listed in
``Tracer.unhooked`` and its layer reads zero.  Spans are kept in memory as
``[name, start, end, parent, attrs]``; self times and per-unit aggregates
are derived after the run.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import resizenet.metrics
import resizenet.model
import resizenet.tensor
import resizenet.training


def _conv_attrs(x, w, *args, **kwargs):
    return {"rows": x.shape[0], "k": w.shape[2]}


def _block_attrs(x, block, gate, *args, **kwargs):
    # open rows are the sum of the gate values, as training's mean_usage
    # counts them: a binary gate adds 0 or 1, a sigmoid gate its value
    return {"rows": x.shape[0], "open": float(gate.data.sum())}


def _forward_attrs(model, x, scale, *args, **kwargs):
    return {"scale": float(scale)}


# (owner, attribute, span name, attribute extractor)
HOOKS = (
    (resizenet.model, "conv2d", "tensor.conv2d", _conv_attrs),
    (resizenet.model, "batch_norm", "tensor.batch_norm", None),
    (resizenet.model, "affine", "tensor.affine", None),
    (resizenet.tensor, "backward", "tensor.backward", None),
    (resizenet.model.GatedResNet, "forward", "model.forward", _forward_attrs),
    (resizenet.model, "gate_forward", "model.gate_forward", None),
    (resizenet.model, "gated_block_forward", "model.gated_block_forward",
     _block_attrs),
    (resizenet.training, "total_loss", "objective.total_loss", None),
    (resizenet.training.SgdOptimizer, "step", "training.optimizer_step", None),
    (resizenet.training.AdamOptimizer, "step", "training.optimizer_step", None),
    (resizenet.training, "evaluate", "metrics.evaluate", None),
    (resizenet.metrics, "evaluate", "metrics.evaluate", None),
)
ALL_SPANS = frozenset(name for _, _, name, _ in HOOKS)


class Tracer:
    """Records spans for the hooked names listed in ``active``.

    ``active`` may be changed between units of work; spans the benchmark
    opens itself with :meth:`span` are always recorded.
    """

    def __init__(self, active=ALL_SPANS):
        self.active = frozenset(active)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.unhooked: list[str] = []

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if name not in self.active:
                return fn(*args, **kwargs)
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            with self.span(name, attrs):
                return fn(*args, **kwargs)
        return hooked

    def __enter__(self):
        for owner, attr, name, attrs_of in HOOKS:
            orig = vars(owner).get(attr)
            if orig is None:
                self.unhooked.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, attrs_of))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False


def analyse(spans: list[list]) -> tuple[list[float], list[int], list[list[int]]]:
    """Self time (s), root index and direct children of every span.

    A span's self time is its duration minus its children's durations;
    calls are single-threaded, so children never overlap.
    """
    self_s = [end - start for _, start, end, _, _ in spans]
    roots, children = [], [[] for _ in spans]
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent is None:
            roots.append(i)
        else:
            self_s[parent] -= end - start
            children[parent].append(i)
            roots.append(roots[parent])
    return self_s, roots, children
