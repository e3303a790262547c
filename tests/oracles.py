"""References the tests compare the package against; the package itself never calls them.

- The paper's formulas for one draw of the gate on a single weight
  vector, in plain numpy: ``log pi`` is the log softmax of ``w**2`` over
  the unmasked entries, a draw is ``softmax((log pi + lam) / tau)``, and
  its winner is masked out before the next draw. They share no code with
  ``sparselocal.gate``, take no arguments but valid ones, and build no
  autodiff graph.
- The soft gate built as an autodiff graph, the way the package built it
  before the gate became one op with its own backward: a square node, and
  per draw a noise add, a masked-softmax node, a zeroing multiply when
  some row is past its count and a running-sum add, with the live-column
  block gathered and scattered by graph nodes. Its value and gradient are
  the bitwise reference for ``sparselocal.gate.k_hot_gate_rows``.
- ``Replay``, a stand-in for the soft gate's rng that serves it given
  uniforms, so a test can freeze the gate's noise or replay a batch's
  draws one sample at a time.
- The CNN trunk block as the graph the package built before the block
  became one op: ``conv2d``, for text a ``mul`` by the end mask,
  ``max_pool2d`` and ``relu``, one node each. Its value and gradients are
  the bitwise reference for ``sparselocal.autodiff.conv_block``; the two
  public ops it uses are checked against loop code in the autodiff tests.
- The per-head scores z . (g * w) as the graph the model built before
  they became one op: z tiled per head, a mul by g, a mul by w, a
  reshape and a sum. Its value and gradients are the bitwise reference
  for ``sparselocal.model.gated_scores``.
- Central finite differences, the gradient oracle, with one helper for a
  function of one input array and one for a model's parameters.
- The digit renderer as it was before it took all segments of an image
  in one pass: each stroke jittered and placed on its own, then one
  ``np.linalg.norm`` pass per segment. Its ink fields, images and labels
  are the bitwise reference for ``sparselocal.digits``.
"""

import numpy as np

from sparselocal import autodiff as ad
from sparselocal import digits as dg
from sparselocal import gate as gt


def masked_log_prob(w, mask):
    """Log selection probabilities of one draw: log softmax of w**2 over mask == 0, -inf elsewhere."""
    live = np.asarray(mask) == 0
    s = np.where(live, np.square(w), -np.inf)
    s = s - s.max()
    return s - np.log(np.exp(s).sum())


def gate_step(log_pi, lam, tau):
    """One relaxed draw: softmax of (log_pi + lam) / tau; entries whose log_pi is -inf get exact zeros."""
    x = (np.asarray(log_pi) + lam) / tau
    e = np.exp(x - x.max())
    return e / e.sum()


def update_mask(mask, step):
    """The mask with the draw's winner, its first maximum, marked as used."""
    out = np.array(mask)
    out[np.argmax(step)] = 1
    return out


def oracle_draws(w, mask, noise, tau):
    """The soft draws of one weight row, one per array of ``noise``: the draws, their winners and the final mask."""
    m, steps, order = np.asarray(mask), [], []
    for lam in noise:
        step = gate_step(masked_log_prob(w, m), lam, tau)
        steps.append(step)
        order.append(int(np.argmax(step)))
        m = update_mask(m, step)
    return steps, order, m


def square(a):
    """The graph node a * a, whose backward is g * (2 a)."""
    return ad.make_op(a.data * a.data, (a,), "square", lambda g: ad.accumulate_grad(a, g * (2.0 * a.data)))


def put_along(a, indices, width):
    """The graph node that scatters (n, m) rows into zero (n, width) rows: out[i, indices[i, j]] = a[i, j]."""
    rows = np.arange(a.data.shape[0])[:, None]
    data = np.zeros((a.data.shape[0], width))
    data[rows, indices] = a.data
    return ad.make_op(data, (a,), "put_along", lambda g: ad.accumulate_grad(a, g[rows, indices]))


def row_sum(a):
    return a.sum(axis=-1, keepdims=True)


def masked_softmax(x, live, row_sum=row_sum):
    """The graph node of a row-wise softmax over the live entries; dead entries are exact 0.

    ``row_sum`` takes both sums along the last axis, the normalizer and
    the backward's dot product.
    """
    data = x.data
    shifted = np.where(live, data, 0.0)
    m = np.max(np.where(live, data, -np.inf), axis=-1, keepdims=True)
    e = np.where(live, np.exp(shifted - m), 0.0)
    s = e / row_sum(e)

    def backward(g):
        dot = row_sum(g * s)
        ad.accumulate_grad(x, s * (g - dot))

    return ad.make_op(s, (x,), "masked_softmax", backward)


class Replay:
    """A stand-in for the soft gate's rng whose ``random(out=)`` serves given uniforms, in order, once.

    The gate reads (heads, max(k), n, d) uniforms head-major, so
    ``Replay(u)`` feeds a batched call the uniforms ``u``,
    ``Replay(u[:, :k_i, i : i + 1])`` feeds sample i's one-sample call
    the same draws, and ``Replay(u[:, :j])`` a call cut to j draws.
    ``used`` counts the uniforms served and ``reads`` lists the shape of
    each ``out`` asked for.
    """

    def __init__(self, uniforms):
        self.stream, self.used, self.reads = np.ravel(uniforms), 0, []

    def random(self, out):
        out[...] = self.stream[self.used : self.used + out.size].reshape(out.shape)
        self.used += out.size
        self.reads.append(out.shape)
        return out


def graph_gate_rows(w, mask, k, tau, rng):
    """The soft gate of ``k_hot_gate_rows`` on valid arguments, as a graph of one node per step.

    It draws the same noise from ``rng``, runs the draws on
    the same live-column block, and takes the softmax's row sums over a
    zero full-width buffer, so its gate and gradient are the reference's
    bits.
    """
    w = ad.as_tensor(w)
    live = np.asarray(mask) == 0
    n, d = live.shape
    heads = w.data.shape[1] // d
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), (n,))
    draws = int(k.max(initial=0))
    if draws == 0:
        return ad.Tensor(np.zeros((n, heads * d)))
    width = int(live.sum(axis=1).max(initial=0))
    at = np.s_[:, :]
    if width < d:
        cols = np.argsort(~live, axis=1, kind="stable")[:, :width]
        at = (np.arange(n)[:, None], cols)
    lam, uniform = np.empty((heads, draws, n, width)), np.empty((n, d))
    for block in lam.reshape(-1, n, width):
        block[...] = rng.random(out=uniform)[at]
    lam = gt._gumbel(lam)
    lam = lam.transpose(1, 2, 0, 3).reshape(draws, n * heads, width) * (1.0 / tau)
    k, free = np.repeat(k, heads), np.repeat(live[at], heads, axis=0)
    rows, block_sum = ad.reshape(w, (n * heads, d)), row_sum
    if width < d:
        at = (np.arange(n * heads)[:, None], np.repeat(cols, heads, axis=0))
        rows = ad.take_along(rows, at[1])
        full = np.zeros((n * heads, d))

        def block_sum(a):
            full[at] = a
            return full.sum(axis=1, keepdims=True)

    scaled = square(rows) * (1.0 / tau)
    gate = None
    for t in range(draws):
        active = t < k
        step = masked_softmax(scaled + ad.Tensor(lam[t]), free | ~active[:, None], block_sum)
        if not active.all():
            step = step * ad.Tensor(np.broadcast_to(active[:, None], free.shape) * 1.0)
        free[active, np.argmax(step.data, axis=1)[active]] = False
        gate = step if gate is None else gate + step
    if width < d:
        gate = put_along(gate, at[1], d)
    return ad.reshape(gate, (n, heads * d))


def graph_conv_block(x, kernels, window, padding=0, keep=None):
    """relu(max_pool2d(conv2d(x, kernels, padding) * keep, window)), one graph node per op."""
    conv = ad.conv2d(x, kernels, padding=padding)
    if keep is not None:
        conv = conv * ad.Tensor(np.broadcast_to(keep, conv.data.shape))
    return ad.relu(ad.max_pool2d(conv, window))


def graph_scores(z, w, g=None):
    """Every head's score z . (g * w) from (n, d) z, one graph node per step: tile, mul, mul, reshape, sum."""
    n, d = z.shape
    heads = w.data.shape[1] // d
    zt = ad.Tensor(np.tile(z, heads))
    return (zt * w if g is None else zt * g * w).reshape((n, heads, d)).sum(axis=2)


def finite_difference_grad(f, x, eps=1e-4):
    """Central-difference gradient of a scalar function of an array.

    ``f`` must be deterministic (seed any noise inside it) and is
    evaluated at 2 * x.size perturbed points. The same array object is
    passed to ``f`` every time with one coordinate displaced.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
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


def grad_error(build, x0, eps=1e-4):
    """rel_error of the backward() gradient of the scalar ``build(Tensor(x))`` at x0 against finite differences."""
    t = ad.Tensor(x0, requires_grad=True)
    build(t).backward()
    fd = finite_difference_grad(lambda x: float(build(ad.Tensor(x)).data), x0, eps=eps)
    return rel_error(t.grad, fd)


def param_grad_error(model, loss_of, names=None):
    """rel_error of the backward() gradient of ``loss_of()`` against finite differences over model parameters.

    ``names`` picks the parameters, all of them in sorted order by
    default. A parameter that the loss does not reach has no grad, which
    counts as zero. The parameters are restored afterwards.
    """
    named = model.named_parameters()
    params = [named[n] for n in (sorted(named) if names is None else names)]
    base = np.concatenate([p.data.ravel() for p in params])

    def loss_at(vec):
        lo = 0
        for p in params:
            p.data[...] = vec[lo : lo + p.data.size].reshape(p.data.shape)
            lo += p.data.size
        return float(loss_of().data)

    loss_of().backward()
    analytic = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel() for p in params])
    fd = finite_difference_grad(loss_at, base)
    loss_at(base)
    return rel_error(analytic, fd)


def stroke_ink(strokes, sigma):
    """The ink field, (SIZE * SIZE,), of strokes in pixel coordinates, one segment at a time."""
    pixels = dg._PIXELS
    ink = np.zeros(dg.SIZE * dg.SIZE)
    for pts in strokes:
        for p, q in zip(pts[:-1], pts[1:]):
            seg = q - p
            denom = float(seg @ seg)
            if denom < 1e-12:
                dist = np.linalg.norm(pixels - p, axis=1)
            else:
                t = np.clip(((pixels - p) @ seg) / denom, 0.0, 1.0)
                dist = np.linalg.norm(pixels - (p + t[:, None] * seg), axis=1)
            np.maximum(ink, np.exp(-0.5 * (dist / sigma) ** 2), out=ink)
    return ink


def digit_ink(digit, rng):
    """One rendering's float ink field: geometry, stroke width, then each stroke's jitter, drawn from rng."""
    margin = 4.0
    span = dg.SIZE - 2.0 * margin
    theta = rng.uniform(-0.25, 0.25)
    scale = rng.uniform(0.80, 1.12, size=2)
    shear = rng.uniform(-0.18, 0.18)
    shift = rng.uniform(-2.6, 2.6, size=2)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    aff = rot @ np.array([[scale[0], shear * scale[0]], [0.0, scale[1]]])
    sigma = rng.uniform(0.55, 0.95)
    strokes = []
    for stroke in dg._STROKES[digit]:
        pts = stroke + rng.normal(0.0, 0.018, size=stroke.shape)
        pts = (pts - 0.5) @ aff.T + 0.5
        pts = margin + pts * span
        pts += shift
        strokes.append(pts)
    return stroke_ink(strokes, sigma)


def make_digit_images(n, seed):
    """``(images, digits, inks)``: n rendered digits, their classes and each image's ink before scaling and noise."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.empty((n, dg.SIZE, dg.SIZE), dtype=np.uint8)
    inks = []
    for i in range(n):
        inks.append(digit_ink(int(digits[i]), rng))
        img = inks[-1].reshape(dg.SIZE, dg.SIZE) * rng.uniform(200.0, 255.0)
        img += rng.normal(0.0, 6.0, size=img.shape)
        images[i] = np.clip(img, 0, 255).astype(np.uint8)
    return images, digits, inks
