"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps a float64 array together with the bookkeeping needed to
replay the computation backwards: the tensors it was derived from and a
closure that routes an incoming gradient to them. ``backward()`` on a
scalar tensor walks the recorded graph once, in reverse topological
order, accumulating gradients into every tensor that requires them.

Broadcasting is deliberately limited so every gradient rule stays
auditable: equal-shape operands, a scalar with a tensor, and for ``add``
an (n, m) left operand with a (1, m) right one (a layer's bias), whose
gradient is ``ones((1, n)) @ g``. All data is
kept in 64-bit floats; gradient checks against central finite
differences are not reliable below that precision. ``conv2d`` and
``max_pool2d`` take (n, c, h, w) batches in any strides: ``conv2d``
returns an NCHW-shaped view of channels-last memory, and the pool keeps
that order. The ops are those the models differentiate: add, mul,
relu, softplus, matmul, sum/mean, log-softmax, reshape, concat, the row
gather and take ops, conv2d and max_pool2d. An op of its own, such as the
soft gate, is built on :func:`make_op` with a hand-written backward.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ShapeError


class Tensor:
    """A dense array plus the links and gradient slot used by backward()."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self, axis=None):
        return _reduce(self, axis, kind="sum")

    def mean(self, axis=None):
        return _reduce(self, axis, kind="mean")

    def reshape(self, shape):
        return reshape(self, shape)

    def backward(self):
        """Populate .grad for every contributing tensor; the seed gradient is 1."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _toposort(root):
    """Parents-before-children ordering of the graph below ``root``."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block: every op's output is a constant, whatever its parents.

    The values are those of a graph-building run; only the parent links
    and backward closures, which keep intermediate arrays alive, are
    dropped. The previous setting is restored on exit, also on an
    exception.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def make_op(data, parents, op, backward):
    """Create a graph tensor for a primitive; used by extension ops as well.

    ``backward`` receives the output gradient and must push contributions
    to the parents via :func:`accumulate_grad`. Links are dropped when no
    parent requires gradients, or inside :func:`no_grad`, so constant
    subgraphs carry no overhead.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out.op = op
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def accumulate_grad(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))  # one pass, in t.data's memory order
    else:
        t.grad += g


def _check_elementwise(a, b, name, row=False):
    """Equal shapes or a size-1 operand; with ``row``, also an (n, m) left and a (1, m) right operand."""
    if a.data.shape == b.data.shape or a.data.size == 1 or b.data.size == 1:
        return
    if row and a.data.ndim == 2 and b.data.shape == (1, a.data.shape[1]):
        return
    allowed = "equal-shape, scalar and (n, m) + (1, m) operands" if row else "equal-shape and scalar operands"
    raise ShapeError(f"{name}: shapes {a.data.shape} and {b.data.shape} are incompatible (only {allowed})")


def _fit_grad(g, shape):
    """Collapse a broadcast gradient back onto its operand: a (1, m) row by ones @ g, a scalar by a sum."""
    if g.shape == shape:
        return g
    if len(shape) == 2 and shape[0] == 1 and g.ndim == 2 and g.shape[1] == shape[1]:
        return np.ones((1, g.shape[0])) @ g
    return np.sum(g).reshape(shape)


def add(a, b):
    """a + b; ``b`` may be a (1, m) row added to every row of an (n, m) ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "add", row=True)

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, _fit_grad(g, a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _fit_grad(g, b.data.shape))

    return make_op(a.data + b.data, (a, b), "add", backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, _fit_grad(g * b.data, a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _fit_grad(g * a.data, b.data.shape))

    return make_op(a.data * b.data, (a, b), "mul", backward)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0  # subgradient at exactly 0 is defined as 0

    def backward(g):
        accumulate_grad(a, g * mask)

    return make_op(np.where(mask, a.data, 0.0), (a,), "relu", backward)


def _sigmoid_values(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a):
    """log(1 + exp(x)) computed without overflow; gradient is sigmoid(x)."""
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    s = _sigmoid_values(a.data)

    def backward(g):
        accumulate_grad(a, g * s)

    return make_op(out_data, (a,), "softplus", backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, g @ b.data.T)
        if b.requires_grad:
            accumulate_grad(b, a.data.T @ g)

    return make_op(a.data @ b.data, (a, b), "matmul", backward)


def reshape(a, shape):
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        accumulate_grad(a, g.reshape(a.data.shape))

    return make_op(data, (a,), "reshape", backward)


def concat(parts, axis=0):
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of an empty sequence")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(lo), int(hi))
            accumulate_grad(p, g[tuple(sl)])

    return make_op(data, tuple(parts), "concat", backward)


def gather_rows(table, indices):
    """Select rows of a 2-d table by integer index; rows may repeat."""
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-d, got {table.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            accumulate_grad(table, gt)

    return make_op(data, (table,), "gather_rows", backward)


def take_along(a, indices):
    """Pick a[i, indices[i]] from each row of a 2-d tensor; ``indices`` is (n,) or (n, m).

    The indices within a row must be distinct: the backward writes each
    gradient entry back, it does not add repeats.
    """
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"take_along: input must be 2-d, got {a.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.data.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))
    data = a.data[rows, idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        accumulate_grad(a, ga)

    return make_op(data, (a,), "take_along", backward)


def _check_axis(a, axis):
    if axis is not None and not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"axis {axis} is out of range for shape {a.data.shape}")


def _reduce(a, axis, kind):
    a = as_tensor(a)
    _check_axis(a, axis)
    if kind == "sum":
        data, scale = a.data.sum(axis=axis), 1.0
    else:
        data, scale = a.data.mean(axis=axis), 1.0 / (a.data.size if axis is None else a.data.shape[axis])

    def backward(g):
        if axis is None:
            accumulate_grad(a, np.full(a.data.shape, float(g) * scale))
        else:
            accumulate_grad(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape) * scale)

    return make_op(data, (a,), kind, backward)


def log_softmax(a, axis=-1):
    """Log of softmax computed directly: x - max - log(sum(exp(x - max)))."""
    a = as_tensor(a)
    _check_axis(a, axis)
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(g):
        accumulate_grad(a, g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    return make_op(out_data, (a,), "log_softmax", backward)


def _as_pair(v):
    return (int(v), int(v)) if np.isscalar(v) else (int(v[0]), int(v[1]))


def conv2d(x, kernels, padding=0):
    """Cross-correlation of x with a bank of kernels (no kernel flip).

    ``x`` is a batch (n, c, h, w) in any strides; ``kernels`` has shape
    (c_out, c_in, kh, kw). The stride is 1,
    so the output spatial extent is h + 2*padding - kh + 1 per axis. The
    output is an NCHW-shaped view of channels-last memory.
    """
    x, kernels = as_tensor(x), as_tensor(kernels)
    xd, kd = x.data, kernels.data
    if xd.ndim != 4 or kd.ndim != 4:
        raise ShapeError(f"conv2d: input {xd.shape} and kernels {kd.shape} must be 4-d")
    n, c, h, w = xd.shape
    c_out, c_in, kh, kw = kd.shape
    if c_in != c:
        raise ShapeError(f"conv2d: input has {c} channels but kernels expect {c_in}")
    ph, pw = _as_pair(padding)
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ShapeError(
            f"conv2d: kernel {(kh, kw)} larger than padded input {(h + 2 * ph, w + 2 * pw)}"
        )
    oh = h + 2 * ph - kh + 1
    ow = w + 2 * pw - kw + 1

    # im2col in one copy; columns ordered (c, kh, kw) like the kernel rows. flat is column-major, so
    # it is copied along contiguous runs of a (c, n, h, w) view, and OpenBLAS gives each row of the
    # product the same bits at every row count above one. Full-width kernels (ow == 1, as in text)
    # pad into width-major (c, w, n, h) memory, so that a run is a column of oh entries, not one.
    buf = np.zeros((c, w + 2 * pw, n, h + 2 * ph) if ow == 1 else (c, n, h + 2 * ph, w + 2 * pw))
    buf = buf.transpose(0, 2, 3, 1) if ow == 1 else buf
    buf[:, :, ph : ph + h, pw : pw + w] = xd.transpose(1, 0, 2, 3)
    # the (kh, kw) windows of each (c, n) plane, sliding_window_view's array without its Python set-up
    windows = buf.shape[:2] + (oh, ow, kh, kw)
    cols = np.lib.stride_tricks.as_strided(buf, windows, buf.strides + buf.strides[2:], writeable=False)
    cols = cols.transpose(0, 4, 5, 1, 2, 3)
    flat = np.ascontiguousarray(cols).reshape(c * kh * kw, n * oh * ow).T
    out_data = (flat @ kd.reshape(c_out, -1).T).reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    def backward(g):
        gflat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c_out)
        if kernels.requires_grad:
            accumulate_grad(kernels, (gflat.T @ flat).reshape(kd.shape))
        if x.requires_grad:
            dcols = (gflat @ kd.reshape(c_out, -1)).reshape(n, oh, ow, c, kh, kw)
            dbuf = np.zeros((n, h + 2 * ph, w + 2 * pw, c))  # channels-last, like the rows of dcols
            if ow == 1:  # swap the one output column and the kernel columns: each kernel row is one add
                dcols = dcols.swapaxes(2, 5)
            for i, j in np.ndindex(kh, dcols.shape[5]):
                dbuf[:, i : i + oh, j : j + dcols.shape[2]] += dcols[..., i, j]
            accumulate_grad(x, dbuf[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2))

    return make_op(out_data, (x, kernels), "conv2d", backward)


def max_pool2d(x, window):
    """Maximum over non-overlapping windows of an (n, c, h, w) batch in any strides, kept in its memory order.

    Each output is the first maximum of its window in row-major order,
    compared bitwise: [0.0, -0.0] gives 0.0, [-0.0, 0.0] gives -0.0, and
    NaN propagates. The gradient routes to the first position equal to
    the output, so a NaN output routes none.
    """
    x = as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"max_pool2d: input must be 4-d, got {xd.shape}")
    wh, ww = _as_pair(window)
    h, w = xd.shape[2:]
    if wh > h or ww > w:
        raise ShapeError(f"max_pool2d: window {(wh, ww)} exceeds input extent {(h, w)}")
    oh, ow = h // wh, w // ww

    at = [(slice(i, i + wh * oh, wh), slice(j, j + ww * ow, ww)) for i in range(wh) for j in range(ww)]
    pooled = xd[(..., *at[-1])].copy(order="K")
    for rows, cols in reversed(at[:-1]):
        np.maximum(pooled, xd[..., rows, cols], out=pooled)  # a tie returns the second operand: the earlier offset

    def backward(g):
        dx = np.zeros_like(xd)
        free = np.ones_like(pooled, dtype=bool)
        for rows, cols in at:
            hit = (xd[..., rows, cols] == pooled) & free
            dx[..., rows, cols] = np.where(hit, g, 0.0)  # windows do not overlap, so no position repeats
            free ^= hit
        accumulate_grad(x, dx)

    return make_op(pooled, (x,), "max_pool2d", backward)
