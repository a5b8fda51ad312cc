"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine covers exactly the operations a gated residual classifier needs:
convolution, affine maps, relu/sigmoid/add, per-sample feature scaling,
global average pooling, batch norm, and softmax cross-entropy.  There is no
implicit broadcasting beyond the documented bias-add and per-sample gate
cases; shape mismatches raise ``ShapeError`` naming the offending axes.
Every 4-d activation is channels-last, [B,H,W,C]; batch norm works on its
[B*H*W, C] view.  Conv weights stay [Cout,Cin,k,k].

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


def grad_enabled() -> bool:
    """Whether ops record a graph: false inside :func:`no_grad`."""
    return _grad_enabled


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
    # the mask is rebuilt from the (immutable) output when backward needs it
    return _from_op(out, (x,), lambda g: (g * (out > 0.0),))


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

    ``features`` is [B,H,W,C]; ``gate`` is [B], broadcast over the remaining
    axes.  This is the one sanctioned broadcast besides the affine bias-add.
    """
    _require(features.data.ndim == 4,
             f"scale_features: need 4-d [B,H,W,C], got {features.shape}")
    _require(gate.data.ndim == 1 and gate.shape[0] == features.shape[0],
             f"scale_features: gate batch {gate.shape} does not match "
             f"features batch {features.shape[0]}")
    gcol = gate.data[:, None, None, None]
    out = features.data * gcol

    def rule(g):
        return g * gcol, np.einsum("bhwc,bhwc->b", g, features.data)

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
    """Mean over the spatial axes: [B,H,W,C] -> [B,C]."""
    _require(x.data.ndim == 4, f"global_avg_pool: {x.shape} is not [B,H,W,C]")
    _, h, w, _ = x.shape
    out = x.data.mean(axis=(1, 2))

    def rule(g):
        return (np.broadcast_to(g[:, None, None, :], x.shape) / (h * w),)

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

# Columns are ordered (i, j, c), so every window row is one contiguous run of
# k*C values of the channels-last input.

# Every conv builds and consumes its columns a block of samples at a time,
# at most this many bytes, or one sample when its columns alone are larger,
# so they are still in cache when the GEMM reads them: half of a common
# 2 MiB per-core L2, leaving room for the block's padded image and output.
# The weight gradient rebuilds them from x.  The blocks follow from the
# shapes alone, so a batch always splits the same way.
_COLS_BLOCK_BYTES = 1 << 20


def _im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """[B,H,W,C] -> [B*Ho*Wo, k*k*C] window columns ordered (i, j, c)."""
    b, h, w, c = x.shape
    if k == 1 and pad == 0:
        # a 1x1 window is one pixel: no padded image, the strided input
        return x[:, ::stride, ::stride].reshape(-1, c)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    img = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    img[:, pad:pad + h, pad:pad + w] = x
    # [B, Ho, Wo, k, k*C]: window row i is k*C contiguous values of img
    sb, sh, sw, sc = img.strides
    return np.lib.stride_tricks.as_strided(
        img, (b, ho, wo, k, k * c), (sb, sh * stride, sw * stride, sh, sc),
        writeable=False).reshape(b * ho * wo, k * k * c)


def _weight_matrix(w: np.ndarray) -> np.ndarray:
    """[Cout,C,k,k] weights -> [k*k*C, Cout], rows in the column order."""
    return w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])


def _col_blocks(x: np.ndarray, k: int, stride: int, pad: int) -> Iterator:
    """Yield (output-row slice, window columns) per block of samples."""
    b, h, w, c = x.shape
    n = ((h + 2 * pad - k) // stride + 1) * ((w + 2 * pad - k) // stride + 1)
    step = max(1, _COLS_BLOCK_BYTES // (n * k * k * c * x.itemsize))
    for i in range(0, b, step):
        yield (slice(i * n, (i + step) * n),
               _im2col(x[i:i + step], k, stride, pad))


def _conv(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Array-level conv: [B,H,W,C] -> [B,Ho,Wo,Cout], columns in blocks."""
    b, cout, k = x.shape[0], w.shape[0], w.shape[2]
    ho, wo = ((n + 2 * pad - k) // stride + 1 for n in x.shape[1:3])
    wm = _weight_matrix(w)
    out = np.empty((b * ho * wo, cout))
    for rows, cols in _col_blocks(x, k, stride, pad):
        np.matmul(cols, wm, out=out[rows])
    return out.reshape(b, ho, wo, cout)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """2-d cross-correlation of [B,H,W,C] with [Cout,C,k,k] weights into
    [B,Ho,Wo,Cout], plus an optional [Cout] ``bias`` per output channel.

    Square odd kernels and ``0 <= pad < k`` only; output spatial size is
    ``(H + 2*pad - k) // stride + 1``.  Differentiable in every argument.
    """
    _require(x.data.ndim == 4,
             f"conv2d: input must be 4-d [B,H,W,C], got {x.shape}")
    _require(w.data.ndim == 4,
             f"conv2d: weight must be 4-d [Cout,Cin,k,k], got {w.shape}")
    b, h, width, c = x.shape
    cout, cin, kh, kw = w.shape
    _require(kh == kw, f"conv2d: kernel must be square, got {kh}x{kw}")
    _require(kh % 2 == 1, f"conv2d: kernel size must be odd, got {kh}")
    _require(cin == c,
             f"conv2d: weight axis 1 is {cin} but input axis 3 is {c}")
    # a pad of k or more only adds windows of pure padding
    _require(0 <= pad < kh, f"conv2d: pad {pad} outside [0, {kh - 1}]")
    _require(h + 2 * pad >= kh and width + 2 * pad >= kw,
             f"conv2d: padded input {h + 2 * pad}x{width + 2 * pad} smaller "
             f"than kernel {kh}")
    if bias is not None:
        _require(bias.shape == (cout,),
                 f"conv2d: bias must be [{cout}], got {bias.shape}")
    k = kh
    # requires_grad is read at recording time; phase-frozen parameters and
    # raw input batches skip their (expensive) half of the backward work
    need_gx, need_gw = x.requires_grad, w.requires_grad
    out = _conv(x.data, w.data, stride, pad)
    if bias is not None:
        out += bias.data

    def rule(g):
        gw = gx = None
        if need_gw:
            gmat = g.reshape(-1, cout)
            # x is a graph parent, so its data is unchanged since forward
            gw = np.zeros((k * k * cin, cout))
            for rows, cols in _col_blocks(x.data, k, stride, pad):
                gw += cols.T @ gmat[rows]
            gw = gw.reshape(k, k, cin, cout).transpose(3, 2, 0, 1)
        if need_gx:
            # a stride-1 conv of g spread onto the padded input's window
            # starts, with the flipped, transposed kernel (w is read here,
            # not kept by the closure: the optimizer steps after backward)
            gd = np.zeros((b, h + 2 * pad - k + 1, width + 2 * pad - k + 1,
                           cout), dtype=g.dtype)
            gd[:, ::stride, ::stride] = g
            gx = _conv(gd, w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                       1, k - 1 - pad)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 1, 2))

    parents = (x, w) if bias is None else (x, w, bias)
    return _from_op(out, parents, rule)


# -- batch norm -------------------------------------------------------------

BN_EPS = 1e-5  # added to the variance; the eval fold into a conv uses it too
BN_MOMENTUM = 0.1  # weight of a batch's statistics in the running ones


def batch_norm(x: Tensor, gamma: Tensor, beta_shift: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Per-channel batch normalization over the [B*H*W, C] view of [B,H,W,C].

    Training mode normalizes by batch statistics and updates the running
    arrays in place with ``BN_MOMENTUM``; eval mode normalizes by the
    running statistics (freshly initialized stats are mean 0 / var 1, so an
    untrained eval pass is well defined).  Variances are biased, matching
    the normalization denominator.
    """
    _require(x.data.ndim == 4, f"batch_norm: need [B,H,W,C], got {x.shape}")
    c = x.shape[3]
    _require(gamma.shape == (c,) and beta_shift.shape == (c,),
             f"batch_norm: gamma/beta must be [{c}] (input axis 3), got "
             f"{gamma.shape}/{beta_shift.shape}")
    _require(running_mean.shape == (c,) and running_var.shape == (c,),
             f"batch_norm: running stats must be [{c}]")

    xv = x.data.reshape(-1, c)
    m = xv.shape[0]
    if training:
        mean = np.einsum("nc->c", xv) / m
        xhat = xv - mean
        var = np.einsum("nc,nc->c", xhat, xhat) / m
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        xhat = xv - running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    out = xhat * gamma.data
    out += beta_shift.data

    def rule(g):
        gv = g.reshape(-1, c)
        dbeta = np.einsum("nc->c", gv)
        dgamma = np.einsum("nc,nc->c", gv, xhat)
        if training:
            # three-term formula for batch statistics; with dxhat = g*gamma,
            # sum(dxhat) = gamma*dbeta and sum(dxhat*xhat) = gamma*dgamma
            gx = gv - dbeta / m
            gx -= xhat * (dgamma / m)
            gx *= gamma.data * inv_std
        else:
            gx = gv * (gamma.data * inv_std)
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
