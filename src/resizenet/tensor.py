"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine covers exactly the operations a gated residual classifier needs:
convolution, affine maps, relu/sigmoid/add, per-sample feature scaling,
global average pooling, batch norm, and softmax cross-entropy.  There is no
implicit broadcasting beyond the documented bias-add and per-sample gate
cases; shape mismatches raise ``ShapeError`` naming the offending axes.

Each op records its inputs and a backward rule on the output tensor, so the
computation graph is the implicit DAG of parent links.  ``backward`` walks
that DAG once in reverse topological order and accumulates gradients into
every reachable tensor that has ``requires_grad`` set.  Inside
:func:`no_grad` ops record nothing, so their buffers are freed as soon as
the result no longer needs them.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(FloatingPointError):
    """A tensor held or produced a NaN or infinite value."""


class Tensor:
    """N-dimensional float64 array, optionally tracked for autodiff.

    ``data`` is row-major and treated as immutable once the tensor has been
    consumed by an op; ``grad`` is a same-shaped accumulator populated by
    :func:`backward`.  Values are validated to be finite at creation, and
    every op re-validates its output, so a diverging computation surfaces
    as :class:`NonFiniteError` instead of silent NaN propagation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_rule")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor created with NaN/Inf values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_rule: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no graph inside the block: op results are constants.

    Ops still check their outputs for NaN/Inf, but record no parents and no
    backward rule, so the buffers a rule would keep (conv columns, batch-norm
    ``xhat``) are dropped with the op.  The previous mode comes back on exit,
    also when the block raises.
    """
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...],
             rule: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op result, recording parents and the backward rule."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteError("operation produced NaN/Inf values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad
                                              for p in parents)
    out._parents = parents if out.requires_grad else ()
    out._backward_rule = rule if out.requires_grad else None
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Visits each recorded op exactly once in reverse topological order;
    tensors feeding several consumers receive the sum of all contributions.
    Gradients accumulate into ``t.grad`` for every ``requires_grad`` tensor
    reachable from ``loss``; repeated calls keep accumulating until the
    grads are cleared.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and node._backward_rule is None:
            # leaf parameter: accumulate
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._backward_rule is not None:
            for parent, pg in zip(node._parents, node._backward_rule(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = flowing.get(id(parent))
                flowing[id(parent)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shaped tensors."""
    _require(a.shape == b.shape, f"add: shape {a.shape} != {b.shape}")
    return _from_op(a.data + b.data, (a, b), lambda g: (g, g))


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum a list of same-shaped tensors in one node."""
    _require(len(tensors) >= 1, "add_n: empty list")
    shape = tensors[0].shape
    for t in tensors[1:]:
        _require(t.shape == shape, f"add_n: shape {t.shape} != {shape}")
    total = tensors[0].data.copy()
    for t in tensors[1:]:
        total += t.data
    return _from_op(total, tuple(tensors), lambda g: tuple(g for _ in tensors))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shaped tensors."""
    _require(a.shape == b.shape, f"mul: shape {a.shape} != {b.shape}")
    return _from_op(a.data * b.data, (a, b),
                    lambda g: (g * b.data, g * a.data))


def add_scalar(x: Tensor, c: float) -> Tensor:
    return _from_op(x.data + c, (x,), lambda g: (g,))


def mul_scalar(x: Tensor, c: float) -> Tensor:
    return _from_op(x.data * c, (x,), lambda g: (g * c,))


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0.0
    return _from_op(out, (x,), lambda g: (g * mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split on sign so exp never overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _from_op(s, (x,), lambda g: (g * s * (1.0 - s),))


def scale_features(features: Tensor, gate: Tensor) -> Tensor:
    """Scale each sample's whole feature map by its scalar gate.

    ``features`` is [B,C,H,W]; ``gate`` is [B], broadcast over the remaining
    axes.  This is the one sanctioned broadcast besides the affine bias-add.
    """
    _require(features.data.ndim == 4,
             f"scale_features: features must be 4-d, got {features.shape}")
    _require(gate.data.ndim == 1 and gate.shape[0] == features.shape[0],
             f"scale_features: gate batch {gate.shape} does not match "
             f"features batch {features.shape[0]}")
    gcol = gate.data[:, None, None, None]
    out = features.data * gcol

    def rule(g):
        return g * gcol, np.einsum("bchw,bchw->b", g, features.data)

    return _from_op(out, (features, gate), rule)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with x [B,Din], w [Din,Dout], b [Dout]."""
    _require(x.data.ndim == 2 and w.data.ndim == 2 and b.data.ndim == 1,
             f"affine: need 2-d/2-d/1-d, got {x.shape}/{w.shape}/{b.shape}")
    _require(x.shape[1] == w.shape[0],
             f"affine: inner dims disagree, x axis 1 is {x.shape[1]} "
             f"but w axis 0 is {w.shape[0]}")
    _require(w.shape[1] == b.shape[0],
             f"affine: bias length {b.shape[0]} != output dim {w.shape[1]}")
    out = x.data @ w.data + b.data

    def rule(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _from_op(out, (x, w, b), rule)


def _check_rows(rows, n: int, op: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.intp)
    _require(rows.ndim == 1 and rows.size > 0
             and rows[0] >= 0 and rows[-1] < n
             and bool(np.all(rows[1:] > rows[:-1])),
             f"{op}: rows must be strictly ascending indices in [0, {n})")
    return rows


def take_rows(x: Tensor, rows) -> Tensor:
    """The rows ``rows`` of ``x`` along axis 0 (strictly ascending)."""
    rows = _check_rows(rows, x.shape[0], "take_rows")

    def rule(g):
        gx = np.zeros_like(x.data)
        gx[rows] = g
        return (gx,)

    return _from_op(x.data[rows], (x,), rule)


def add_rows(a: Tensor, rows, b: Tensor) -> Tensor:
    """``a`` with ``b`` added into its rows ``rows``; other rows are copied.

    ``b`` holds one row per index, so ``add_rows(a, rows, take_rows(x,
    rows))`` adds ``x`` on those rows only.
    """
    rows = _check_rows(rows, a.shape[0], "add_rows")
    _require(b.shape == (len(rows),) + a.shape[1:],
             f"add_rows: {len(rows)} rows of {a.shape[1:]} needed, "
             f"got {b.shape}")
    out = a.data.copy()
    out[rows] += b.data
    return _from_op(out, (a, b), lambda g: (g, g[rows]))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two [B, *] matrices along the feature axis."""
    _require(a.data.ndim == 2 and b.data.ndim == 2,
             f"concat_cols: need 2-d inputs, got {a.shape}/{b.shape}")
    _require(a.shape[0] == b.shape[0],
             f"concat_cols: batch {a.shape[0]} != {b.shape[0]}")
    na = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)
    return _from_op(out, (a, b), lambda g: (g[:, :na], g[:, na:]))


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [B,C,H,W] -> [B,C]."""
    _require(x.data.ndim == 4, f"global_avg_pool: need 4-d, got {x.shape}")
    _, _, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def rule(g):
        return (np.broadcast_to(g[:, :, None, None], x.shape) / (h * w),)

    return _from_op(out, (x,), rule)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View the same elements under a new shape (row-major order)."""
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from exc
    return _from_op(out.copy(), (x,), lambda g: (g.reshape(x.shape),))


def mean_all(x: Tensor) -> Tensor:
    """Mean over every element, producing a scalar."""
    n = x.data.size
    out = np.asarray(x.data.mean())
    return _from_op(out, (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def sum_all(x: Tensor) -> Tensor:
    """Sum over every element, producing a scalar."""
    out = np.asarray(x.data.sum())
    return _from_op(out, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


# -- convolution ------------------------------------------------------------

# Columns are gathered from a channels-last copy of the input and ordered
# (i, j, c): every window row is then k runs of k*C contiguous values, and
# the k^2 adds of _col2im touch contiguous C-long runs.  The layout stays
# inside these helpers; conv2d takes and returns [B,C,H,W].

def _im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """[B,C,H,W] -> [B*Ho*Wo, k*k*C] window columns ordered (i, j, c)."""
    b, c, h, w = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    img = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    img[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    # [B, Ho, Wo, C, k, k] window view, subsampled by the stride
    windows = np.lib.stride_tricks.sliding_window_view(img, (k, k),
                                                       axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * ho * wo, k * k * c)


def _col2im(cols: np.ndarray, x_shape: tuple, k: int, stride: int,
            pad: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add columns back to [B,C,H,W]."""
    b, c, h, w = x_shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    cols = cols.reshape(b, ho, wo, k, k, c)
    img = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    for i in range(k):
        i_max = i + stride * ho
        for j in range(k):
            j_max = j + stride * wo
            img[:, i:i_max:stride, j:j_max:stride] += cols[:, :, :, i, j]
    return np.ascontiguousarray(
        img[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2))


def _weight_matrix(w: np.ndarray) -> np.ndarray:
    """[Cout,C,k,k] weights -> [k*k*C, Cout], rows in the column order."""
    return w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d cross-correlation of [B,C,H,W] with [Cout,C,k,k] weights.

    Square odd kernels only; output spatial size is
    ``(H + 2*pad - k) // stride + 1``.  Differentiable in both arguments.
    """
    _require(x.data.ndim == 4,
             f"conv2d: input must be 4-d [B,C,H,W], got {x.shape}")
    _require(w.data.ndim == 4,
             f"conv2d: weight must be 4-d [Cout,Cin,k,k], got {w.shape}")
    b, c, h, width = x.shape
    cout, cin, kh, kw = w.shape
    _require(kh == kw, f"conv2d: kernel must be square, got {kh}x{kw}")
    _require(kh % 2 == 1, f"conv2d: kernel size must be odd, got {kh}")
    _require(cin == c,
             f"conv2d: weight axis 1 is {cin} but input axis 1 is {c}")
    _require(h + 2 * pad >= kh and width + 2 * pad >= kw,
             f"conv2d: padded input {h + 2 * pad}x{width + 2 * pad} smaller "
             f"than kernel {kh}")
    k = kh
    ho = (h + 2 * pad - k) // stride + 1
    wo = (width + 2 * pad - k) // stride + 1

    cols = _im2col(x.data, k, stride, pad)           # [B*Ho*Wo, k*k*C]
    out = (cols @ _weight_matrix(w.data)).reshape(b, ho, wo, cout) \
        .transpose(0, 3, 1, 2)

    # requires_grad is read at recording time; phase-frozen parameters and
    # raw input batches skip their (expensive) half of the backward work
    need_gx, need_gw = x.requires_grad, w.requires_grad

    def rule(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, cout)
        gw = (cols.T @ gmat).reshape(k, k, cin, cout).transpose(3, 2, 0, 1) \
            if need_gw else None
        # the weight matrix is rebuilt here rather than kept alive by the
        # closure: the optimizer steps only after backward
        gx = _col2im(gmat @ _weight_matrix(w.data).T, x.shape, k, stride,
                     pad) if need_gx else None
        return gx, gw

    return _from_op(np.ascontiguousarray(out), (x, w), rule)


# -- batch norm -------------------------------------------------------------

def batch_norm(x: Tensor, gamma: Tensor, beta_shift: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization over [B,C,H,W].

    Training mode normalizes by batch statistics and updates the running
    arrays in place with the given momentum; eval mode normalizes by the
    running statistics (freshly initialized stats are mean 0 / var 1, so an
    untrained eval pass is well defined).  Variances are biased, matching
    the normalization denominator.
    """
    _require(x.data.ndim == 4, f"batch_norm: need 4-d input, got {x.shape}")
    c = x.shape[1]
    _require(gamma.shape == (c,) and beta_shift.shape == (c,),
             f"batch_norm: gamma/beta must be [{c}], got "
             f"{gamma.shape}/{beta_shift.shape}")
    _require(running_mean.shape == (c,) and running_var.shape == (c,),
             f"batch_norm: running stats must be [{c}]")

    b, _, h, w = x.shape
    m = b * h * w
    xv = x.data.reshape(b, c, h * w)
    if training:
        mean = np.einsum("bcn->c", xv) / m
        xhat = xv - mean[:, None]
        var = np.einsum("bcn,bcn->c", xhat, xhat) / m
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        xhat = xv - running_mean[:, None]
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[:, None]
    out = xhat * gamma.data[:, None]
    out += beta_shift.data[:, None]

    def rule(g):
        gv = g.reshape(b, c, h * w)
        dbeta = np.einsum("bcn->c", gv)
        dgamma = np.einsum("bcn,bcn->c", gv, xhat)
        if training:
            # three-term formula for batch statistics; with dxhat = g*gamma,
            # sum(dxhat) = gamma*dbeta and sum(dxhat*xhat) = gamma*dgamma
            gx = gv - dbeta[:, None] / m
            gx -= xhat * (dgamma / m)[:, None]
            gx *= (gamma.data * inv_std)[:, None]
        else:
            gx = gv * (gamma.data * inv_std)[:, None]
        return gx.reshape(x.shape), dgamma, dbeta

    return _from_op(out.reshape(x.shape), (x, gamma, beta_shift), rule)


# -- loss -------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax at the label index, log-sum-exp stabilized."""
    _require(logits.data.ndim == 2,
             f"softmax_cross_entropy: logits must be [B,K], got {logits.shape}")
    labels = np.asarray(labels)
    b, k = logits.shape
    _require(labels.shape == (b,),
             f"softmax_cross_entropy: labels must be [{b}], got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(
            f"label out of range: labels span [{labels.min()}, {labels.max()}] "
            f"but logits have {k} classes")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1)) + zmax[:, 0]
    losses = lse - z[np.arange(b), labels]
    out = np.asarray(losses.mean())

    def rule(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(b), labels] -= 1.0
        return (g * probs / b,)

    return _from_op(out, (logits,), rule)


# -- gradient checking ------------------------------------------------------

def grad_check(fn: Callable[[], Tensor], params: Iterable[Tensor],
               eps: float = 1e-5, max_coords: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients against central finite differences.

    ``fn`` recomputes the scalar loss from the current parameter values.
    Returns the max over checked coordinates of
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.
    With ``max_coords`` set, that many coordinates per parameter are
    sampled (seeded ``rng`` required for reproducibility).
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        idx = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            idx = rng.choice(flat.size, size=max_coords, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn().item()
            flat[i] = orig - eps
            f_minus = fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = ana.reshape(-1)[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
