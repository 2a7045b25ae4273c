"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

A Tensor is both the value container and the computation-graph node: ops
record their parents and a backward closure, and backward() replays the
graph in reverse topological order. Complex values are carried as paired
(real, imaginary) tensors; the Fourier ops treat the transform as a linear
map with its exact adjoint, so gradients flow through frequency-domain code
the same way they flow through a matmul.

There is no implicit broadcasting: shapes must match exactly except for the
documented bias add (a vector added along the last axis) and matmul, which
multiplies two equal-rank stacks of matrices, or a matrix or a (batch, rows,
cols) stack by one matrix shared by all its members.

Inside ``with no_grad():`` ops record nothing: every result is a plain value
with no parents, so a forward pass frees each intermediate as soon as the
next op has used it. The switch is process-wide and restored on exit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .fourier import fft_along


class Tensor:
    """Value plus gradient bookkeeping. Treat data as immutable once built."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def const(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a leaf keeps its grad, so it gets its own copy; an op's grad is
        # consumed and dropped by backward(), so a view of g is enough
        t.grad = np.array(g) if t._backward is None else np.asarray(g)
    else:
        t.grad = t.grad + g


_recording = True


@contextmanager
def no_grad():
    """Run the enclosed ops without building a graph."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _node(data, parents, backward) -> Tensor:
    tracked = _recording and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=tracked, parents=parents if tracked else (),
                  backward=backward if tracked else None)


def zero_grad(tensors):
    for t in tensors:
        t.grad = None


def backward(loss: Tensor):
    """Accumulate d(loss)/d(t) into t.grad for every tensor reachable from loss.

    loss must be a scalar. Grads add onto whatever is already stored, so zero
    parameter grads between optimization steps, not between samples of a batch.
    Only leaves (tensors no op produced, such as parameters) keep their grads:
    an op's output grad is dropped once it has been passed on, so a batched
    graph does not hold a second copy of its activations.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise and structural ops

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _node(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bw(g):
        _accum(a, g * s)

    return _node(a.data * s, (a,), bw)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b with b a vector broadcast along the last axis (the one documented
    broadcast in this module)."""
    if b.data.ndim != 1 or x.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"bias shape {b.data.shape} does not fit {x.data.shape}")

    def bw(g):
        _accum(x, g)
        _accum(b, g.reshape(-1, b.data.shape[0]).sum(axis=0))

    return _node(x.data + b.data, (x, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == bd.ndim >= 3:
        if ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-2]:
            raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")

        def grad_a(g):
            return g @ np.swapaxes(bd, -1, -2)

        def grad_b(g):
            return np.swapaxes(ad, -1, -2) @ g

    elif ad.ndim in (2, 3) and bd.ndim == 2:
        if ad.shape[-1] != bd.shape[0]:
            raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")

        def grad_a(g):
            return g @ bd.T

        # a matrix reshapes to itself, so its grad is the plain ad.T @ g
        def grad_b(g):
            return ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])

    else:
        raise ValueError(f"unsupported matmul ranks: {ad.ndim} @ {bd.ndim}")

    # a constant operand (the input features, a transform kernel) gets no grad,
    # so its product is skipped rather than computed and dropped
    def bw(g):
        if a.requires_grad:
            _accum(a, grad_a(g))
        if b.requires_grad:
            _accum(b, grad_b(g))

    return _node(ad @ bd, (a, b), bw)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    inverse = np.argsort(axes)

    def bw(g):
        _accum(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def bw(g):
        _accum(a, g.reshape(old))

    return _node(a.data.reshape(shape), (a,), bw)


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(p, g[tuple(idx)])

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


def slice_axis(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or start + length > a.data.shape[axis]:
        raise ValueError(f"slice [{start}:{start + length}] outside axis of size {a.data.shape[axis]}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bw(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _node(a.data[idx].copy(), (a,), bw)


# ---------------------------------------------------------------------------
# nonlinear ops

def relu(a: Tensor) -> Tensor:
    keep = a.data > 0

    def bw(g):
        _accum(a, g * keep)

    return _node(np.where(keep, a.data, 0.0), (a,), bw)


# exp(x) is exactly 0.0 for every x below this (the cutoff is -745.13)
EXP_ZERO_BELOW = -746.0


def softmax_inplace(x: np.ndarray, axis: int = -1, scale: float | None = None) -> np.ndarray:
    """Overwrite x with softmax(scale * x) along axis and return it.

    Raises ValueError if a scaled value is NaN or infinite, leaving x
    overwritten. Such a value turns its row sum into NaN (NaN and +inf
    through the shift, -inf through the masking below), and a finite row
    sums to at least 1, so the row sums are the only check."""
    if scale is not None:
        x *= scale
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows raise below
        x -= np.max(x, axis=axis, keepdims=True)
        # np.exp runs about 15x slower on inputs whose result underflows;
        # send those through as -0.0 and zero their results, same bits
        keep = x >= EXP_ZERO_BELOW
        x *= keep
        np.exp(x, out=x)
        x *= keep
        total = x.sum(axis=axis, keepdims=True)
    if not np.isfinite(total).all():
        raise ValueError("softmax over non-finite input")
    x /= total
    return x


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = softmax_inplace(a.data.copy(), axis=axis)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accum(a, out * (g - inner))

    return _node(out, (a,), bw)


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """(out, xhat, inv) of layer_norm on arrays: xhat = (x - mean) * inv
    along the last axis, inv = 1 / sqrt(var + eps), out = gain * xhat + bias.
    Raises ValueError for a non-finite x."""
    if not np.isfinite(x).all():
        raise ValueError("layer_norm over non-finite input")
    # np.var's own ops on the centred values, so the same bits as np.var
    centred = x - x.mean(axis=-1, keepdims=True)
    var = np.square(centred).sum(axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    return gain * xhat + bias, xhat, inv


def layer_norm_backward(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray):
    """(grad of x, grad of gain, grad of bias) of layer_norm for the output
    grad g, from the xhat and inv of layer_norm_forward."""
    d = g.shape[-1]
    g_bias = g.reshape(-1, d).sum(axis=0)
    g_gain = (g * xhat).reshape(-1, d).sum(axis=0)
    gx = g * gain
    term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    return term * inv, g_gain, g_bias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """(x - mean) / sqrt(var + eps) along the last axis, then per-feature gain and bias."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layer_norm gain/bias must be vectors matching the normalized axis")
    out, xhat, inv = layer_norm_forward(x.data, gain.data, bias.data, eps)

    def bw(g):
        g_x, g_gain, g_bias = layer_norm_backward(g, gain.data, xhat, inv)
        _accum(bias, g_bias)
        _accum(gain, g_gain)
        _accum(x, g_x)

    return _node(out, (x, gain, bias), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add_bias(matmul(x, w), b)


def mean_pool(x: Tensor, axis: int = 0) -> Tensor:
    n = x.data.shape[axis]

    def bw(g):
        _accum(x, np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return _node(x.data.mean(axis=axis), (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    def bw(g):
        _accum(x, np.full_like(x.data, float(g)))

    return _node(x.data.sum(), (x,), bw)


def cross_entropy(logits: Tensor, targets, class_weights=None) -> Tensor:
    """Mean negative log-likelihood, each sample weighted by its class weight
    and the mean taken over total weight. logits: (n_classes,) with an int
    target, or (batch, n_classes) with a sequence of ints."""
    x = logits.data
    if not np.isfinite(x).all():
        raise ValueError("cross_entropy over non-finite logits")
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
        targets = [int(targets)]
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape[0] != x.shape[0]:
        raise ValueError("one target per logits row required")
    n, c = x.shape
    if class_weights is None:
        w = np.ones(n)
    else:
        class_weights = np.asarray(class_weights, dtype=np.float64)
        if class_weights.shape != (c,):
            raise ValueError(f"class_weights must have shape ({c},)")
        w = class_weights[targets]
    wsum = w.sum()

    m = x.max(axis=1, keepdims=True)
    probs = np.exp(x - m)
    total = probs.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(total[:, 0])
    nll = lse - x[np.arange(n), targets]
    loss = float((w * nll).sum() / wsum)
    probs /= total

    def bw(g):
        gx = probs.copy()
        gx[np.arange(n), targets] -= 1.0
        gx *= (g * w / wsum)[:, None]
        _accum(logits, gx[0] if squeeze else gx)

    return _node(loss, (logits,), bw)


# ---------------------------------------------------------------------------
# Fourier ops (complex values carried as paired real tensors)

def fft_pair(re: Tensor, im: Tensor | None, axis: int, inverse: bool = False):
    """Differentiable DFT along one axis of (real, imaginary) tensor pairs.

    im may be None for purely real inputs. Forward is unnormalized, inverse
    scaled by 1/n, matching fourier.fft_along. The backward pass applies the
    Hermitian adjoint of the transform, which is one more forward transform.
    """
    z = re.data.astype(np.complex128)
    if im is not None:
        if im.data.shape != re.data.shape:
            raise ValueError("real/imaginary parts must share a shape")
        z = z + 1j * im.data
    out = fft_along(z, axis=axis, inverse=inverse)
    n = re.data.shape[axis]
    parents = (re,) if im is None else (re, im)

    # With F = C - iS (symmetric per-axis kernel), a grad G on the output
    # pulls back through C and S products, both recoverable from one forward
    # transform of G: F G = C G - i S G.
    def pull(g):
        fg = fft_along(g, axis=axis, inverse=False)
        return fg.real, -fg.imag  # (C g, S g)

    if not inverse:
        def bw_re(g):
            cg, sg = pull(g)
            _accum(re, cg)
            if im is not None:
                _accum(im, sg)

        def bw_im(g):
            cg, sg = pull(g)
            _accum(re, -sg)
            if im is not None:
                _accum(im, cg)
    else:
        def bw_re(g):
            cg, sg = pull(g)
            _accum(re, cg / n)
            if im is not None:
                _accum(im, -sg / n)

        def bw_im(g):
            cg, sg = pull(g)
            _accum(re, sg / n)
            if im is not None:
                _accum(im, cg / n)

    out_re = _node(out.real.copy(), parents, bw_re)
    out_im = _node(out.imag.copy(), parents, bw_im)
    return out_re, out_im
