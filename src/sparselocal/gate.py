"""Differentiable selection of exactly k features per sample.

The gate vector is assembled from k sequential draws. Each draw is a
temperature-controlled softmax over the squared weight magnitudes,
perturbed by Gumbel noise, restricted to the entries that are still
available; the winner of every draw is masked out before the next one so
no feature can be chosen twice. Summing the draws gives the gate.

There is one function per gate, each batched over rows of weights.

- The soft gate, :func:`k_hot_gate_rows`, is the training relaxation
  over the ``(n, heads·d)`` rows of every head of a batch, each row with
  its own gate count. One draw loop serves every row; a row past its
  count gets exact-zero draws. Every draw is a relaxed simplex vector;
  only their sum is returned. It is one autodiff op whose hand-written
  backward sums each draw's softmax Jacobian, the mask updates treated
  as gradient-stopped. A draw is the softmax
  of ``(w**2 + lam) / tau`` over the live entries, which equals the
  paper's ``softmax((log pi + lam) / tau)``: ``log pi`` is ``w**2`` less
  one constant per row, and a softmax ignores such a shift. The noise
  ``lam`` has one source, the ``rng`` argument: serving it the same
  uniforms again freezes or replays the gate. The draws run on a block
  of each row's live columns, bitwise equal to draws over the full rows,
  so a bag-of-words mask with about 1% live entries pays for those alone.
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

def _gumbel(u):
    """Standard Gumbel values -log(-log(u)) of uniforms u, clamped away from {0, 1}."""
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def live_block(live, width):
    """Each row's first ``width`` columns once its live ones move to the front, both parts in index order.

    That is ``argsort(~live, kind="stable")[..., :width]``, built from live
    positions: the dead columns a block takes are among the row's first
    ``width``. Each row of one boolean scan holds the row's live flags in
    its first half and the inverted head in its second; a half is a power
    of two, so a scan position's low bits are its column.
    """
    d = live.shape[-1]
    width, rows = min(width, d), live.reshape(-1, d)
    half = 1 << (d - 1).bit_length()
    scan = np.zeros((len(rows), 2 * half), dtype=bool)
    scan[:, :d] = rows
    np.invert(rows[:, :width], out=scan[:, half : half + width])
    at = np.flatnonzero(scan)  # row by row: the live columns, then the dead ones of the head
    picks = np.searchsorted(at, np.arange(0, scan.size, 2 * half))[:, None] + np.arange(width)
    np.take(at, picks, out=picks, mode="clip")  # each row has at least width entries; in place, one index at a time
    picks &= half - 1
    return picks.reshape(live.shape[:-1] + (width,))


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


def k_hot_gate_rows(w, mask, k, tau, rng=None):
    """The soft gate for a batch of weight rows: every head's (n, heads·d) gate, the sum of its k draws.

    ``w`` holds the generator's (n, heads·d) rows, head c in columns
    c·d to (c+1)·d, and ``mask`` the (n, d) mask that every head of a
    sample shares. ``k`` is one gate count or one count per sample;
    sample i takes the first k[i] of the max(k) draws.

    One draw loop serves every head, on ``w`` read as (n·heads, d) rows:
    row i·heads + c is head c of sample i. Each draw is one masked softmax
    ``softmax((w**2 + lam) / tau)`` with the entries no longer free at
    -inf; its winner is masked out before the row's next draw. A row past
    its count draws over all its entries, so the softmax stays defined,
    and its stored draw is set to exact zeros; the rows that stop early
    are listed per draw once, so equal counts cost nothing extra. The
    draws run on a block of each row's live columns, as wide as the
    largest live count (the rows themselves when some sample is all live):
    a row's live columns first, in index order, then distinct dead ones.
    The row sums run over the block scattered into a zero (n·heads, d)
    buffer, as numpy's pairwise sum groups by position. The gate is one
    graph node over ``w``; its backward adds each draw's softmax Jacobian
    ``s * (g - row_sum(g * s))`` in draw order, so ``w.grad`` has the
    bits of a graph of one node per step.

    ``rng``, the one noise source, is a numpy ``Generator`` or any object
    whose ``random(out=)`` fills ``out`` with uniforms. All of it is taken
    before the first draw, head-major: max(k) (n, d) uniform arrays for
    head 0, then head 1, and so on, each cut to the block's columns.
    Serving the same uniforms again freezes or replays the gate: under
    uniforms ``u`` of shape (heads, max(k), n, d), draw t is the gate of
    ``u[:, :t+1]`` at k=t+1 less that of ``u[:, :t]`` at k=t, up to rounding.
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
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if rng is None:
        raise ValueError("soft gating needs an rng")
    draws = int(k.max(initial=0))
    if draws == 0:
        return ad.Tensor(np.zeros((n, heads * d)))

    width = int(counts.max(initial=0))
    # when some sample is all live, each block is its whole head and x[at] is x
    at = np.s_[:, :] if width == d else (np.arange(n)[:, None], live_block(live, width))
    lam = np.empty((heads, draws, n, width))
    if width == d:  # every block is its rows: one call draws all of them, the same stream
        rng.random(out=lam)
    else:
        uniform = np.empty((n, d))
        for block in lam.reshape(-1, n, width):  # one (n, d) buffer: a (heads, draws, n, d) array faults pages in
            block[...] = rng.random(out=uniform)[at]
    lam = _gumbel(lam).transpose(1, 2, 0, 3).reshape(draws, n * heads, width) * (1.0 / tau)
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

    first = np.arange(0, free.size, width)  # each row's flat offset in free
    stops = {t: np.flatnonzero(k <= t) for t in range(int(k.min()), draws)}  # the rows past their count at draw t
    steps, gate = [], 0.0  # steps: each draw's softmax, kept for the backward
    with np.errstate(over="ignore", invalid="ignore"):  # a |w| above about 1.3e154 squares to inf: its row is NaN
        scaled = rows * rows * (1.0 / tau)
        for t in range(draws):
            stop = stops.get(t)
            if stop is not None:
                free[stop] = True  # a stopped row draws over all its entries...
            x = np.where(free, scaled + lam[t], -np.inf)
            e = np.exp(x - np.max(x, axis=1, keepdims=True))
            steps.append(e / row_sum(e))
            if stop is not None:
                steps[t][stop] = 0.0  # ...and that draw is exact zeros, NaN weights or not
            free.reshape(-1)[first + np.argmax(steps[t], axis=1)] = False
            gate = gate + steps[t]

    def backward(g):  # each draw's softmax Jacobian, summed in draw order; the mask updates are gradient-stopped
        g, total = g.reshape(n * heads, d)[at], 0.0
        for s in steps:
            total = total + s * (g - row_sum(g * s))
        grad = spread(total * (1.0 / tau) * (2.0 * rows))
        ad.accumulate_grad(w, grad.reshape(w.data.shape), fresh=True)

    return ad.make_op(spread(gate).reshape(n, heads * d), (w,), "soft_gate", backward)
