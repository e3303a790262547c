"""Differentiable selection of exactly k features per sample.

The gate vector is assembled from k sequential draws. Each draw is a
temperature-controlled softmax over the squared weight magnitudes,
perturbed by Gumbel noise, restricted to the entries that are still
available; the winner of every draw is masked out before the next one so
no feature can be chosen twice. Summing the draws gives the gate.

There is one function per gate, each batched over rows of weights.

- The soft gate, :func:`k_hot_gate_rows`, is the training relaxation
  over the ``(n, heads·d)`` rows of every head of a batch, each row with
  its own gate count. Every draw is a relaxed simplex vector; only their
  sum is returned. It is one autodiff op whose hand-written backward sums
  each draw's softmax Jacobian, the mask updates treated as
  gradient-stopped. A draw is the softmax
  of ``(w**2 + lam) / tau`` over the live entries, which equals the
  paper's ``softmax((log pi + lam) / tau)``: ``log pi`` is ``w**2`` less
  one constant per row, and a softmax ignores such a shift. The draws
  run on a block of each row's live columns, bitwise equal to draws over
  the full rows, so a bag-of-words mask with about 1% live entries pays
  for those alone.
- The hard gate, :func:`k_hot_gate`, is the inference-time behaviour
  over any ``(..., d)`` batch. The noise is dropped and each draw is the
  exact one-hot argmax. Noise-free greedy draws are exactly a top-k, so
  the hard gate is computed in one step: an exact stable top-k over the
  live ``w**2``, ties going to the lowest index.

The paper's formulas for one draw of a single vector, ``log pi``, the
draw and the mask update, are written out in plain numpy in the tests'
``tests/oracles.py``; the tests compare both gates against them. The same
file builds the soft gate as a graph of one node per step, the bitwise
reference for the op's value and gradient.

Masked-out entries are excluded from every softmax sum and carry an
infinite negative sentinel in log space, so their gate values are exact
zeros rather than small numbers.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import GateExhaustedError, ShapeError

SENTINEL = -np.inf


def _gumbel(u):
    """Standard Gumbel values -log(-log(u)) of uniforms u, clamped away from {0, 1}."""
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def live_block(live, width):
    """Each row's first ``width`` columns once its live ones move to the front, both parts in index order."""
    return np.argsort(~live, axis=-1, kind="stable")[..., :width]


def k_hot_gate(w, live, k):
    """The hard gate: a 0/1 gate over ``(..., d)`` weights and its ``(..., k)`` order.

    A row's order is the stable sort of its keys, ``-w**2`` if live and
    ``+inf`` if dead, cut to k: the k largest live ``w**2``, ties to the
    lowest index, then dead indices, then live NaN weights, which sort
    after ``+inf``. The gate opens the selected live entries. ``live`` is
    ``True`` or has ``w``'s number of axes. With some entry dead, only
    each row's :func:`live_block` of all live and k dead columns is sorted.
    """
    w, live = np.asarray(w, dtype=np.float64), np.asarray(live)
    rows = np.arange(0, w.size, w.shape[-1]).reshape(w.shape[:-1] + (1,))  # each row's flat offset
    with np.errstate(over="ignore"):  # a |w| above about 1.3e154 squares to inf: its key -inf sorts first
        if live.all():  # dense data: sort the rows themselves; every selected entry opens
            order, opened = np.argsort(-(w * w), axis=-1, kind="stable")[..., :k], 1.0
        else:
            counts = live.sum(axis=-1, keepdims=True)
            at = rows + live_block(live, int(counts.max()) + k)  # the flat positions of each row's block
            key = np.where(np.arange(at.shape[-1]) < counts, -np.square(w.reshape(-1)[at]), np.inf)
            sub = np.argsort(key, axis=-1, kind="stable")[..., :k]
            order, opened = np.take_along_axis(at, sub, axis=-1) - rows, (sub < counts).ravel()
    gate = np.zeros(w.size)  # a flat scatter costs half of put_along_axis on one sample
    gate[(rows + order).ravel()] = opened
    return gate.reshape(w.shape), order


def k_hot_gate_rows(w, mask, k, tau, rng=None, noise=None):
    """The soft gate for a batch of weight rows: every head's (n, heads·d) gate, the sum of its k draws.

    ``w`` holds the generator's (n, heads·d) rows, head c in columns
    c·d to (c+1)·d, and ``mask`` the (n, d) mask that every head of a
    sample shares. Each draw is one masked softmax
    ``softmax((w**2 + lam) / tau)`` over the live entries of each head,
    whose winner is masked out before that head's next draw. ``k`` is one
    gate count or one count per sample; sample i takes the first k[i] of
    the max(k) draws, and a sample whose count is 0 gets the all-zero
    gate. A sample past its count draws over all its entries, so the
    softmax stays defined, and that draw is zeroed.

    One draw loop serves every head, on ``w`` read as (n·heads, d) rows:
    row i·heads + c is head c of sample i. The draws run on a block of
    each row's live columns, as wide as the largest live count, gathered
    and scattered back once, so a sparse mask costs its live entries, not
    d. A row's live columns come first, in index order, so a draw's first
    maximum is the dense row's; a shorter row is padded with distinct dead
    columns. The softmax's two row sums run over the block scattered into
    a zero (n·heads, d) buffer: numpy's pairwise sum groups by position,
    so only a full-width sum keeps the dense row's rounding. When some
    sample is all live, the block is the rows: nothing is gathered or scattered.
    The gate is one graph node over ``w``. Its backward adds each draw's
    term ``s * (g - row_sum(g * s))`` in draw order, with the same row
    sums, so ``w.grad`` has the bits of a graph of one node per step.

    ``rng`` is a numpy ``Generator``; all noise is taken before the first
    draw, head-major: max(k) (n, d) arrays of uniforms for head 0, then
    head 1, and so on, each cut to the block's columns. ``noise``, when
    given, holds at least max(k) pre-drawn Gumbel arrays of shape (n, d),
    which every head uses, and overrides ``rng``; freezing it makes the
    gate deterministic, which the finite-difference checks rely on.
    Draw t of a call is ``gate(k=t+1) - gate(k=t)`` under the same noise,
    up to the rounding of the sum.
    """
    w = ad.as_tensor(w)
    live = np.asarray(mask) == 0
    n, d = live.shape if live.ndim == 2 else (-1, 0)
    heads = w.data.shape[1] // d if d and w.data.ndim == 2 else 0
    if heads < 1 or w.data.shape != (n, heads * d):
        raise ShapeError(
            f"k_hot_gate_rows: weights {w.data.shape} must be (n, heads·d) rows for the (n, d) mask {live.shape}"
        )
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), (n,))
    if (k < 0).any():
        raise ValueError(f"gate counts must be non-negative, got {int(k.min())}")
    counts = live.sum(axis=1)
    short = counts < k
    if short.any():
        row = int(np.argmax(short))
        raise GateExhaustedError(
            f"k={int(k[row])} gates requested but row {row} has only {int(counts[row])} unmasked features"
        )
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    draws = int(k.max(initial=0))
    if noise is None:
        if rng is None:
            raise ValueError("soft gating needs an rng or pre-drawn noise")
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape[1:] != (n, d) or noise.shape[0] < draws:
            raise ShapeError(
                f"k_hot_gate_rows: noise {noise.shape} must hold at least {draws} draws "
                f"of the per-head weights' shape {(n, d)}"
            )
    if draws == 0:
        return ad.Tensor(np.zeros((n, heads * d)))

    width = int(counts.max(initial=0))
    # when some sample is all live, each block is its whole head and x[at] is x
    at = np.s_[:, :] if width == d else (np.arange(n)[:, None], live_block(live, width))
    if noise is None:
        lam = np.empty((heads, draws, n, width))
        if width == d:  # every block is its rows: one call draws all of them, the same stream
            rng.random(out=lam)
        else:
            uniform = np.empty((n, d))
            for block in lam.reshape(-1, n, width):  # one (n, d) buffer: a (heads, draws, n, d) array faults pages in
                block[...] = rng.random(out=uniform)[at]
        lam = _gumbel(lam)
    else:
        lam = np.broadcast_to(noise[:draws][(..., *at)], (heads, draws, n, width))
    lam = lam.transpose(1, 2, 0, 3).reshape(draws, n * heads, width) * (1.0 / tau)
    k, free = np.repeat(k, heads), np.repeat(live[at], heads, axis=0)
    # row i·heads + c is head c of sample i; when the block is the rows, nothing is scattered
    rows, spread, full = w.data.reshape(n * heads, d), (lambda a, out=None: a), None
    if width < d:
        at = (np.arange(n * heads)[:, None], np.repeat(at[1], heads, axis=0))  # each sample's columns, per head
        rows, full = rows[at], np.zeros((n * heads, d))

        def spread(a, out=None):  # the block's entries at their own positions, zeros elsewhere
            out = np.zeros((n * heads, d)) if out is None else out
            out[at] = a
            return out

    def row_sum(a):
        return spread(a, full).sum(axis=1, keepdims=True)

    every, first = bool((k == draws).all()), np.arange(0, free.size, width)  # first: each row's flat offset in free
    steps, gate = [], 0.0  # steps: each draw's softmax, kept for the backward
    with np.errstate(over="ignore", invalid="ignore"):  # a |w| above about 1.3e154 squares to inf: its row is NaN
        scaled = rows * rows * (1.0 / tau)
        for t in range(draws):
            x = scaled + lam[t]
            on = free if every else free | (t >= k)[:, None]  # a row past its count draws over all its entries...
            m = np.max(np.where(on, x, SENTINEL), axis=1, keepdims=True)
            e = np.where(on, np.exp(np.where(on, x, 0.0) - m), 0.0)
            steps.append(e / row_sum(e))
            step = steps[t] if every else steps[t] * ((t < k)[:, None] * 1.0)  # ...and that draw is zeroed
            won = first + np.argmax(step, axis=1)
            free.reshape(-1)[won if every else won[t < k]] = False
            gate = gate + step

    def backward(g):  # each draw's softmax Jacobian, summed in draw order; the mask updates are gradient-stopped
        g, total = g.reshape(n * heads, d)[at], 0.0
        for t, s in enumerate(steps):
            g_t = g if every else g * ((t < k)[:, None] * 1.0)
            total = total + s * (g_t - row_sum(g_t * s))
        grad = spread(total * (1.0 / tau) * (2.0 * rows))
        ad.accumulate_grad(w, grad.reshape(w.data.shape), fresh=True)

    return ad.make_op(spread(gate).reshape(n, heads * d), (w,), "soft_gate", backward)
