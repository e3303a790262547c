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
differences are not reliable below that precision. The ops are those the
models differentiate: add, mul, relu, softplus, matmul, sum/mean,
log-softmax, reshape, concat, the row gather and take ops, and the two
CNN trunk ops. ``conv_block`` is the image trunk's conv (im2col + GEMM),
max pool and relu as one op on (n, c, h, w) batches in any strides, in
channels-last memory: its backward routes the gradient through relu and
the pool straight into the conv GEMMs' buffer, and col2im is one GEMM
per kernel tap. ``sequence_conv_pool`` is the text trunk's: sequences of
embedding rows laid one after another, each convolved by every filter
width over its own windows and max-pooled whole, then relu, so a batch
pays for no padding past a sequence's end. ``conv2d`` and ``max_pool2d`` share
``conv_block``'s code as graph ops of their own, which the benchmark's
tracer patches by name. An op of its own, such as the soft gate, is
built on :func:`make_op` with a hand-written backward.
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
    to the parents via :func:`accumulate_grad`: only arrays it built itself
    go as ``fresh``, to be kept (zeros as +0.0); views are copied. Links are
    dropped when no parent requires gradients, or inside :func:`no_grad`, so
    constant subgraphs carry no overhead.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out.op = op
    out._parents, out._backward = (tuple(parents), backward) if out.requires_grad else ((), None)
    return out


def accumulate_grad(t, g, fresh=False):
    """Add g into t.grad, storing a first g as g + 0.0 so that a zero reads +0.0.

    A ``fresh`` g, an array its op built and holds no other reference to, becomes t.grad in place when it is
    laid out as ``np.empty_like(t.data)``. Any other g, a view above all, is copied, so no two gradients share memory.
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif (fresh and type(g) is np.ndarray and g.dtype == np.float64 and g.shape == t.data.shape
          and g.strides == np.empty_like(t.data).strides):  # a numpy scalar, as from 0-d operands, is copied
        t.grad = np.add(g, 0.0, out=g)
    else:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))  # one pass, in t.data's memory order


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
        for p in (a, b):  # g itself passes through to an operand of its shape; a row's or scalar's sum is fresh
            if p.requires_grad:
                accumulate_grad(p, _fit_grad(g, p.data.shape), fresh=p.data.shape != g.shape)

    return make_op(a.data + b.data, (a, b), "add", backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, _fit_grad(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            accumulate_grad(b, _fit_grad(g * a.data, b.data.shape), fresh=True)

    return make_op(a.data * b.data, (a, b), "mul", backward)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0  # subgradient at exactly 0 is defined as 0

    def backward(g):
        accumulate_grad(a, g * mask, fresh=True)

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
        accumulate_grad(a, g * s, fresh=True)

    return make_op(out_data, (a,), "softplus", backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, g @ b.data.T, fresh=True)
        if b.requires_grad:
            accumulate_grad(b, a.data.T @ g, fresh=True)

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
    cuts = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def backward(g):
        for p, part in zip(parts, np.split(g, cuts, axis=axis)):
            accumulate_grad(p, part)

    return make_op(data, tuple(parts), "concat", backward)


def gather_rows(table, indices):
    """Select rows of a 2-d table by a 1-d array of row numbers, each in [0, rows); rows may repeat."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows: table must be 2-d and indices 1-d, got {table.data.shape} and {idx.shape}")
    data = table.data[idx]

    def backward(g):
        if table.requires_grad:  # one bincount over row·m + column bins adds the rows in np.add.at's order
            m = table.data.shape[1]
            bins = (idx[:, None] * m + np.arange(m)).ravel()
            gt = np.bincount(bins, weights=g.ravel(), minlength=table.data.size).reshape(table.data.shape)
            accumulate_grad(table, gt, fresh=True)

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
        accumulate_grad(a, ga, fresh=True)

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
            accumulate_grad(a, np.full(a.data.shape, float(g) * scale), fresh=True)
        else:
            accumulate_grad(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape) * scale, fresh=True)

    return make_op(data, (a,), kind, backward)


def log_softmax(a, axis=-1):
    """Log of softmax computed directly: x - max - log(sum(exp(x - max)))."""
    a = as_tensor(a)
    _check_axis(a, axis)
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(g):
        accumulate_grad(a, g - np.exp(out_data) * g.sum(axis=axis, keepdims=True), fresh=True)

    return make_op(out_data, (a,), "log_softmax", backward)


def _as_pair(v):
    return (int(v), int(v)) if np.isscalar(v) else (int(v[0]), int(v[1]))


def _conv(xd, kd, padding, name):
    """im2col + GEMM, stride 1: the output (an NCHW view of channels-last memory), im2col's flat, the padding."""
    if xd.ndim != 4 or kd.ndim != 4:
        raise ShapeError(f"{name}: input {xd.shape} and kernels {kd.shape} must be 4-d")
    n, c, h, w = xd.shape
    c_out, c_in, kh, kw = kd.shape
    if c_in != c:
        raise ShapeError(f"{name}: input has {c} channels but kernels expect {c_in}")
    ph, pw = _as_pair(padding)
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ShapeError(f"{name}: kernel {(kh, kw)} larger than padded input {(h + 2 * ph, w + 2 * pw)}")
    oh = h + 2 * ph - kh + 1
    ow = w + 2 * pw - kw + 1

    # im2col in one copy; columns ordered (c, kh, kw) like the kernel rows. flat is column-major, so
    # it is copied along contiguous runs of a (c, n, h, w) view, and OpenBLAS gives each row of the
    # product the same bits at every row count above one.
    buf = np.zeros((c, n, h + 2 * ph, w + 2 * pw))
    buf[:, :, ph : ph + h, pw : pw + w] = xd.transpose(1, 0, 2, 3)
    # the (kh, kw) windows of each (c, n) plane, sliding_window_view's array without its Python set-up
    windows = buf.shape[:2] + (oh, ow, kh, kw)
    cols = np.lib.stride_tricks.as_strided(buf, windows, buf.strides + buf.strides[2:], writeable=False)
    cols = cols.transpose(0, 4, 5, 1, 2, 3)
    flat = np.ascontiguousarray(cols).reshape(c * kh * kw, n * oh * ow).T
    return (flat @ kd.reshape(c_out, -1).T).reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2), flat, (ph, pw)


def _conv_grads(x, kernels, flat, g, padding):
    """Push dkernels, ``gflat.T @ flat``, and dx by col2im from g, the output gradient, as (n*oh*ow, c_out) gflat.

    col2im adds one GEMM per kernel tap, ``gflat @ K[:, :, i, j]``, into the
    padded channels-last buffer as one ``ow * c`` run per output row. One
    input channel takes one GEMM for all taps, as numpy's path for a
    one-column product rounds differently.
    """
    kd = kernels.data
    gflat = g.transpose(0, 2, 3, 1).reshape(-1, kd.shape[0])
    if kernels.requires_grad:
        accumulate_grad(kernels, (gflat.T @ flat).reshape(kd.shape), fresh=True)
    if not x.requires_grad:
        return
    n, c, h, w = x.data.shape
    (c_out, _, kh, kw), (oh, ow), (ph, pw) = kd.shape, g.shape[2:], padding
    taps = kh * kw if c == 1 else 1  # per GEMM, in (kh, kw) order
    # row-major (c_out, taps * c) blocks: each GEMM has the layout, and so the bits, of the one over all taps
    blocks = np.ascontiguousarray(kd.reshape(c_out, c, -1, taps).transpose(2, 0, 3, 1))
    dbuf, prod = np.zeros((n, h + 2 * ph, w + 2 * pw, c)), np.empty((n * oh * ow, taps * c))  # one product buffer
    for first, block in zip(range(0, kh * kw, taps), blocks):
        part = np.matmul(gflat, block.reshape(c_out, -1), out=prod).reshape(n, oh, ow, taps, c)
        for t in range(taps):
            i, j = divmod(first + t, kw)
            dbuf[:, i : i + oh, j : j + ow] += part[:, :, :, t]
    accumulate_grad(x, dbuf[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2))


def conv2d(x, kernels, padding=0):
    """Cross-correlation (no kernel flip, stride 1) of an (n, c, h, w) x with (c_out, c, kh, kw) kernels.

    The output, h + 2*padding - kh + 1 by the same for w, is an NCHW view
    of channels-last memory.
    """
    x, kernels = as_tensor(x), as_tensor(kernels)
    out, flat, pad = _conv(x.data, kernels.data, padding, "conv2d")
    return make_op(out, (x, kernels), "conv2d", lambda g: _conv_grads(x, kernels, flat, g, pad))


def _windows(xd, wh, ww):
    """The non-overlapping windows of an (n, c, h, w) array in any strides, as an (n, c, oh, wh, ow, ww) view."""
    n, c, h, w = xd.shape
    return xd[:, :, : h - h % wh, : w - w % ww].reshape(n, c, h // wh, wh, w // ww, ww)


def _pool(xd, window, name):
    """Max pool of an array in any strides: its windows, and the pooled maxima in xd's memory order."""
    if xd.ndim != 4:
        raise ShapeError(f"{name}: input must be 4-d, got {xd.shape}")
    wh, ww = _as_pair(window)
    if wh > xd.shape[2] or ww > xd.shape[3]:
        raise ShapeError(f"{name}: window {(wh, ww)} exceeds input extent {xd.shape[2:]}")
    win = _windows(xd, wh, ww)
    pooled = win[:, :, :, -1, :, -1].copy(order="K")
    for i, j in reversed([divmod(t, ww) for t in range(wh * ww - 1)]):
        np.maximum(pooled, win[:, :, :, i, :, j], out=pooled)  # a tie returns the second operand, the earlier offset
    return win, pooled


def _route(xd, win, pooled, g, free):
    """A max pool's input gradient, laid out like xd: where ``free``, g at each window's first position equal to it.

    The other entries are zeros of either sign, which the gradient sums
    absorb; g must be finite. A map the windows tile is written, not zeroed.
    """
    dx = np.empty_like(xd) if win.size == xd.size else np.zeros_like(xd)
    hit = win == pooled[:, :, :, None, :, None]  # a NaN output equals nothing and routes none
    taken = ~free
    for i, j in np.ndindex(win.shape[3], win.shape[5]):  # row-major: an earlier offset wins a tie
        at = hit[:, :, :, i, :, j]
        at &= ~taken
        taken |= at
    np.multiply(g[:, :, :, None, :, None], hit, out=_windows(dx, win.shape[3], win.shape[5]))
    return dx


def max_pool2d(x, window):
    """Maximum over non-overlapping windows of an (n, c, h, w) batch, kept in its memory order.

    Each output is its window's first maximum in row-major order, compared
    bitwise ([0.0, -0.0] gives 0.0, [-0.0, 0.0] gives -0.0), and NaN
    propagates. The gradient routes to the first position equal to it.
    """
    x = as_tensor(x)
    win, pooled = _pool(x.data, window, "max_pool2d")
    return make_op(pooled, (x,), "max_pool2d",
                   lambda g: accumulate_grad(x, _route(x.data, win, pooled, g, pooled == pooled)))


def conv_block(x, kernels, window, padding=0):
    """relu(max_pool2d(conv2d(x, kernels, padding), window)) as one op, bitwise the three ops'.

    The backward routes g through relu and the pool into gflat.
    """
    x, kernels = as_tensor(x), as_tensor(kernels)
    conv, flat, pad = _conv(x.data, kernels.data, padding, "conv_block")
    if not (_grad_enabled and (x.requires_grad or kernels.requires_grad)):
        del flat  # the backward's operand: free it before the pool allocates, as conv2d's dropped closure does
    win, pooled = _pool(conv, window, "conv_block")
    live = pooled > 0  # relu's subgradient at exactly 0 is 0; _route lays its output out like conv, channels-last
    return make_op(np.where(live, pooled, 0.0), (x, kernels), "conv_block",
                   lambda g: _conv_grads(x, kernels, flat, _route(conv, win, pooled, g, live), pad))


def sequence_conv_pool(x, lengths, *kernels):
    """relu of each sequence's maximum over its own conv windows, per kernel: (n, Σ c_out) from (T, e) rows.

    ``x`` holds n sequences one after another, sequence i in its
    ``lengths[i]`` rows, each at least as many as the widest kernel. Each
    kernel is (c_out, 1, w, e); its outputs take the next c_out columns.
    One im2col of the widest kernel's windows serves every kernel through
    its first w·e columns. Its flat is column-major over every w
    consecutive rows, as ``conv2d``'s, so each conv value has the bits of
    ``conv2d`` over the sequences padded to the longest; a window across
    two sequences is formed but pooled by neither. The gradient goes to
    each sequence's first maximal window where the maximum is above 0.
    dkernels is the GEMM over that padded grid's windows, zeros past each
    sequence's end, so its sums group the terms as ``conv2d``'s do; dx adds
    one GEMM per kernel row, in row order, and sums the kernels' dx in
    kernel order, as one op per kernel would.
    """
    x, kernels = as_tensor(x), [as_tensor(k) for k in kernels]
    xd = x.data
    lengths = np.asarray(lengths, dtype=np.int64)
    shapes = [k.data.shape for k in kernels]
    if not kernels or xd.ndim != 2 or any(len(s) != 4 or s[1] != 1 or s[3] != xd.shape[1] for s in shapes):
        raise ShapeError(f"sequence_conv_pool: rows {xd.shape} and kernels {shapes} must be (T, e) and (c_out, 1, w, e)"
                         " with at least one kernel")
    (t, e), widths = xd.shape, [s[2] for s in shapes]
    wide, narrow = max(widths), min(widths)
    if lengths.ndim != 1 or lengths.sum() != t or (lengths < wide).any():
        raise ShapeError(f"sequence_conv_pool: lengths must be at least {wide} and sum to the {t} rows")
    n, starts = len(lengths), np.cumsum(lengths) - lengths
    # im2col: flat's column r·e + j is x's column j at row offset r, column-major as conv2d's flat; the zero
    # columns past x's end only fill the widest kernel's windows past T that narrower kernels' rows leave out
    m = t - narrow + 1
    xt = np.empty((e, t + wide - narrow))
    xt[:, :t], xt[:, t:] = xd.T, 0.0
    flat = np.concatenate([xt[:, r : r + m] for r in range(wide)], out=np.empty((wide * e, m))).T
    convs, outs = [], []
    for kd, w in zip((k.data for k in kernels), widths):
        # each sequence's first window, then the first across into the next: reduceat's odd rows, which are dropped
        cuts = np.stack([starts, starts + lengths - (w - 1)], axis=1).ravel()[:-1]
        conv = flat[: t - w + 1, : w * e] @ kd.reshape(len(kd), -1).T
        pooled = np.maximum.reduceat(conv, cuts, axis=0)[::2]
        live = pooled > 0  # relu's subgradient at exactly 0 is 0; a NaN maximum is dead and routes nothing
        convs.append((conv, cuts, pooled, live))
        outs.append(np.where(live, pooled, 0.0))

    def backward(g):
        dx, grid = None, None
        columns = np.split(g, np.cumsum([len(k.data) for k in kernels])[:-1], axis=1)
        for kernel, w, g_k, (conv, cuts, pooled, live) in zip(kernels, widths, columns, convs):
            kd, mw, c_out = kernel.data, t - w + 1, g_k.shape[1]
            hit = np.where(conv == np.repeat(pooled, lengths, axis=0)[:mw], np.arange(mw)[:, None], mw)
            i, f = np.nonzero(live)
            at = np.minimum.reduceat(hit, cuts, axis=0)[::2][i, f]  # each live sequence's first maximal window
            if kernel.requires_grad:  # the padded grid: sequence i in columns i·span to i·span + lengths[i]
                span = int(lengths.max())
                if grid is None:
                    grid = np.zeros((e, n, span))
                    grid.reshape(e, -1)[:, np.arange(t) + np.repeat(np.arange(n) * span - starts, lengths)] = xt[:, :t]
                out = span - w + 1
                pflat = np.concatenate([grid[:, :, r : r + out] for r in range(w)], out=np.empty((w * e, n, out)))
                gflat = np.zeros((n, out, c_out))
                gflat[i, at - starts[i], f] = g_k[i, f]
                accumulate_grad(kernel, (gflat.reshape(-1, c_out).T @ pflat.reshape(w * e, -1).T).reshape(kd.shape),
                                fresh=True)
            if x.requires_grad:
                gflat = np.zeros((mw, c_out))
                gflat[at, f] = g_k[i, f]
                blocks = np.ascontiguousarray(kd[:, 0].transpose(1, 0, 2))  # (w, c_out, e): kernel row r's block
                dk, prod = np.zeros(xd.shape), np.empty((mw, e))
                for r, block in enumerate(blocks):
                    dk[r : r + mw] += np.matmul(gflat, block, out=prod)
                dx = dk if dx is None else np.add(dx, dk, out=dx)
        if x.requires_grad:
            accumulate_grad(x, dx, fresh=True)

    return make_op(np.concatenate(outs, axis=1), (x, *kernels), "sequence_conv_pool", backward)
