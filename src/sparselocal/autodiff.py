"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps a float64 array together with the bookkeeping needed to
replay the computation backwards: the tensors it was derived from and a
closure that routes an incoming gradient to them. ``backward()`` on a
scalar tensor walks the recorded graph once, in reverse topological
order, accumulating gradients into every tensor that requires them.

Broadcasting is deliberately limited to scalar-with-tensor and
equal-shape operands so every gradient rule stays auditable. All data is
kept in 64-bit floats; gradient checks against central finite
differences are not reliable below that precision.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError


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

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

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


def make_op(data, parents, op, backward):
    """Create a graph tensor for a primitive; used by extension ops as well.

    ``backward`` receives the output gradient and must push contributions
    to the parents via :func:`accumulate_grad`. Links are dropped when no
    parent requires gradients, so constant subgraphs carry no overhead.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
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
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _check_elementwise(a, b, name):
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ShapeError(
        f"{name}: shapes {a.data.shape} and {b.data.shape} are incompatible "
        "(only equal-shape and scalar operands are supported)"
    )


def _fit_grad(g, shape):
    """Collapse a broadcast gradient back onto a scalar operand."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "add")

    def backward(g):
        accumulate_grad(a, _fit_grad(g, a.data.shape))
        accumulate_grad(b, _fit_grad(g, b.data.shape))

    return make_op(a.data + b.data, (a, b), "add", backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "sub")

    def backward(g):
        accumulate_grad(a, _fit_grad(g, a.data.shape))
        accumulate_grad(b, _fit_grad(-g, b.data.shape))

    return make_op(a.data - b.data, (a, b), "sub", backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, _fit_grad(g * b.data, a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _fit_grad(g * a.data, b.data.shape))

    return make_op(a.data * b.data, (a, b), "mul", backward)


def neg(a):
    a = as_tensor(a)

    def backward(g):
        accumulate_grad(a, -g)

    return make_op(-a.data, (a,), "neg", backward)


def square(a):
    a = as_tensor(a)

    def backward(g):
        accumulate_grad(a, g * (2.0 * a.data))

    return make_op(a.data * a.data, (a,), "square", backward)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0  # subgradient at exactly 0 is defined as 0

    def backward(g):
        accumulate_grad(a, g * mask)

    return make_op(np.where(mask, a.data, 0.0), (a,), "relu", backward)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        accumulate_grad(a, g * out_data)

    return make_op(out_data, (a,), "exp", backward)


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0):
        bad = float(np.min(a.data))
        raise DomainError(f"log of non-positive value (min entry {bad})")

    def backward(g):
        accumulate_grad(a, g / a.data)

    return make_op(np.log(a.data), (a,), "log", backward)


def _sigmoid_values(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    a = as_tensor(a)
    s = _sigmoid_values(a.data)

    def backward(g):
        accumulate_grad(a, g * s * (1.0 - s))

    return make_op(s, (a,), "sigmoid", backward)


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


def slice_cols(a, start, stop):
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols: input must be 2-d, got {a.data.shape}")
    data = a.data[:, start:stop]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[:, start:stop] = g
        accumulate_grad(a, ga)

    return make_op(data, (a,), "slice_cols", backward)


def take_along(a, indices):
    """Pick a[i, indices[i]] from each row of a 2-d tensor."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"take_along: input must be 2-d, got {a.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
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


def softmax(a, axis=-1):
    """Normalized exponentials along ``axis``, computed with max subtraction."""
    a = as_tensor(a)
    _check_axis(a, axis)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        accumulate_grad(a, s * (g - dot))

    return make_op(s, (a,), "softmax", backward)


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

    ``x`` may be a single (c, h, w) map or a batch (n, c, h, w);
    ``kernels`` has shape (c_out, c_in, kh, kw). The stride is 1, so the
    output spatial extent is h + 2*padding - kh + 1 per axis.
    """
    x, kernels = as_tensor(x), as_tensor(kernels)
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    kd = kernels.data
    if xd.ndim != 4 or kd.ndim != 4:
        raise ShapeError(f"conv2d: input {x.data.shape} and kernels {kd.shape} must be 3/4-d and 4-d")
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

    xp = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else xd
    cols = np.empty((n, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + oh, j : j + ow]
    flat = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    out_data = (flat @ kd.reshape(c_out, -1).T).reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
    if single:
        out_data = out_data[0]

    def backward(g):
        gb = g[None] if single else g
        gflat = gb.transpose(0, 2, 3, 1).reshape(n * oh * ow, c_out)
        if kernels.requires_grad:
            accumulate_grad(kernels, (gflat.T @ flat).reshape(kd.shape))
        if x.requires_grad:
            dcols = (gflat @ kd.reshape(c_out, -1)).reshape(n, oh, ow, c, kh, kw)
            dcols = dcols.transpose(0, 3, 4, 5, 1, 2)
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
            dx = dxp[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else dxp
            accumulate_grad(x, dx[0] if single else dx)

    return make_op(out_data, (x, kernels), "conv2d", backward)


def max_pool2d(x, window):
    """Maximum over non-overlapping windows; gradient routes to the argmax, ties to the lowest linear index."""
    x = as_tensor(x)
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    if xd.ndim != 4:
        raise ShapeError(f"max_pool2d: input must be 3-d or 4-d, got {x.data.shape}")
    wh, ww = _as_pair(window)
    n, c, h, w = xd.shape
    if wh > h or ww > w:
        raise ShapeError(f"max_pool2d: window {(wh, ww)} exceeds input extent {(h, w)}")
    oh, ow = h // wh, w // ww

    windows = np.empty((n, c, oh, ow, wh * ww))
    for i in range(wh):
        for j in range(ww):
            windows[:, :, :, :, i * ww + j] = xd[:, :, i : i + wh * oh : wh, j : j + ww * ow : ww]
    arg = windows.argmax(axis=-1)  # first maximum wins, matching row-major input order
    out_data = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    if single:
        out_data = out_data[0]

    def backward(g):
        gb = g[None] if single else g
        ni, ci, oi, oj = np.indices((n, c, oh, ow))
        dx = np.zeros_like(xd)
        dx[ni, ci, oi * wh + arg // ww, oj * ww + arg % ww] = gb  # windows do not overlap, so no index repeats
        accumulate_grad(x, dx[0] if single else dx)

    return make_op(out_data, (x,), "max_pool2d", backward)


def finite_difference_grad(f, x, eps=1e-4):
    """Central-difference gradient of a scalar function, the verification oracle.

    ``f`` must be deterministic (freeze any noise before calling) and is
    evaluated at 2 * x.size perturbed points. The same array object is
    passed to ``f`` every time with one coordinate displaced.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        fp = float(f(x))
        flat[j] = orig - eps
        fm = float(f(x))
        flat[j] = orig
        gflat[j] = (fp - fm) / (2.0 * eps)
    return grad


def rel_error(a, b):
    """Max-norm relative disagreement between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale
