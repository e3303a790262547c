"""Differentiable selection of exactly k features per sample.

The gate vector is assembled from k sequential draws. Each draw is a
temperature-controlled softmax over the squared weight magnitudes,
perturbed by Gumbel noise, restricted to the entries that are still
available; the winner of every draw is masked out before the next one so
no feature can be chosen twice. Summing the draws gives the gate.

In soft mode each draw is a relaxed simplex vector and the whole
construction is differentiable with respect to the weights (the mask
updates are treated as gradient-stopped). A draw is the softmax of
``(w**2 + lam) / tau`` over the live entries, which equals the paper's
``softmax((log pi + lam) / tau)``: ``log pi`` is ``w**2`` less one
constant per row, and a softmax ignores such a shift. One draw loop
serves soft mode over ``(n, d)`` rows, each with its own gate count; a
single vector is a one-row batch. In hard mode the noise is
dropped and each draw is the exact one-hot argmax. Noise-free greedy
draws are exactly a top-k, so hard mode is computed in one step by
:func:`topk_select`: an exact stable top-k over the live ``w**2``, ties
going to the lowest index. That is the inference-time behaviour, and it
works on whole ``(..., d)`` batches at once.

Masked-out entries are excluded from every softmax sum and carry an
infinite negative sentinel in log space, so their gate values are exact
zeros rather than small numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import GateExhaustedError, GateStateError, ShapeError

SENTINEL = -np.inf


def sample_gumbel(shape, rng):
    """Standard Gumbel draws, -log(-log(u)); uniforms clamped away from {0, 1}."""
    u = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def _masked_log_softmax(x, live):
    """Row-wise log softmax over live entries only; dead entries get the sentinel."""
    data = x.data
    shifted = np.where(live, data, 0.0)
    m = np.max(np.where(live, data, SENTINEL), axis=-1, keepdims=True)
    e = np.where(live, np.exp(shifted - m), 0.0)
    z = e.sum(axis=-1, keepdims=True)
    out = np.where(live, data - m - np.log(z), SENTINEL)
    p = e / z

    def backward(g):
        gl = np.where(live, g, 0.0)
        ad.accumulate_grad(x, gl - p * gl.sum(axis=-1, keepdims=True))

    return ad.make_op(out, (x,), "masked_log_softmax", backward)


def _masked_softmax(x, live):
    """Row-wise softmax whose sum runs over live entries; dead entries are exact 0."""
    data = x.data
    shifted = np.where(live, data, 0.0)
    m = np.max(np.where(live, data, SENTINEL), axis=-1, keepdims=True)
    e = np.where(live, np.exp(shifted - m), 0.0)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        ad.accumulate_grad(x, s * (g - dot))

    return ad.make_op(s, (x,), "masked_softmax", backward)


def masked_log_prob(w, mask):
    """Log selection probabilities for one draw: log softmax of w**2 over unmasked entries.

    Masked entries receive the sentinel so that they contribute exactly
    zero to any later softmax sum.
    """
    w = ad.as_tensor(w)
    mask = np.asarray(mask)
    if mask.shape != w.data.shape:
        raise ShapeError(f"masked_log_prob: weights {w.data.shape} vs mask {mask.shape}")
    live = mask == 0
    if not live.any():
        raise GateExhaustedError("every feature is masked; nothing can be gated open")
    return _masked_log_softmax(ad.square(w), live)


def gate_step(log_pi, lam, tau):
    """One relaxed draw: softmax of (log_pi + lam) / tau over non-sentinel entries."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    log_pi = ad.as_tensor(log_pi)
    live = np.isfinite(log_pi.data)
    if not live.any():
        raise GateExhaustedError("gate_step: no live entries left")
    lam = np.where(live, np.asarray(lam, dtype=np.float64), 0.0)
    scores = (log_pi + ad.Tensor(lam)) * (1.0 / tau)
    return _masked_softmax(scores, live)


def topk_select(w, live, k):
    """Indices of the k largest ``w**2`` among live entries, along the last axis.

    ``w`` is any ``(..., d)`` array and ``live`` a boolean array that
    broadcasts against it. Each row of the ``(..., k)`` result lists its
    indices in descending ``w**2`` order, ties going to the lowest index.
    Dead entries sort after every live one, so a row with fewer than k
    live entries ends with dead indices; callers clamp k to the live
    count.
    """
    w = np.asarray(w, dtype=np.float64)
    keys = np.where(live, -(w * w), np.inf)
    return np.argsort(keys, axis=-1, kind="stable")[..., :k]


def update_mask(mask, step):
    """Mark the winning index of one draw as used; ties resolve to the lowest index."""
    values = step.data if isinstance(step, ad.Tensor) else np.asarray(step)
    mask = np.asarray(mask)
    j = int(np.argmax(values))
    if mask[j] != 0:
        raise GateStateError(f"draw winner {j} is already masked; masking of earlier draws was violated")
    out = mask.copy()
    out[j] = 1
    return out


@dataclass
class GateResult:
    """The k draws, their sum, and the mask state after the final draw."""

    steps: list
    gate: object  # Tensor in soft mode, ndarray in hard mode
    final_mask: np.ndarray
    mode: str

    @property
    def values(self):
        return self.gate.data if isinstance(self.gate, ad.Tensor) else self.gate

    def selection_order(self):
        """Winning index of each draw, in draw order."""
        return [int(np.argmax(s.data if isinstance(s, ad.Tensor) else s)) for s in self.steps]


def k_hot_gate(w, mask, k, tau=1.0, mode="soft", rng=None, noise=None):
    """Gate exactly k of the unmasked entries of a weight vector.

    ``noise``, when given, holds at least k rows of pre-drawn Gumbel values and
    overrides ``rng``; freezing it makes soft mode deterministic, which
    the finite-difference checks rely on. Hard mode ignores noise and
    takes its draws from :func:`topk_select`.
    """
    w = ad.as_tensor(w)
    if w.data.ndim != 1:
        raise ShapeError(f"k_hot_gate expects a weight vector, got shape {w.data.shape}")
    d = w.data.shape[0]
    mask = np.asarray(mask).astype(np.int64).copy()
    if mask.shape != (d,):
        raise ShapeError(f"k_hot_gate: weights {w.data.shape} vs mask {mask.shape}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    available = int((mask == 0).sum())
    if k > available:
        raise GateExhaustedError(f"k={k} gates requested but only {available} features are unmasked")
    if mode not in ("soft", "hard"):
        raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")

    if mode == "hard":
        order = topk_select(w.data, mask == 0, k)
        steps = np.zeros((k, d))
        steps[np.arange(k), order] = 1.0
        final = mask.copy()
        final[order] = 1
        return GateResult(steps=list(steps), gate=steps.sum(axis=0), final_mask=final, mode=mode)

    noise = _soft_inputs("k_hot_gate", tau, rng, noise, k, (d,))
    gate, steps, live = _soft_draws(w.reshape((1, d)), (mask == 0)[None], np.array([k]), tau, rng, noise)
    final = mask.copy()
    final[(mask == 0) & ~live[0]] = 1
    return GateResult(steps=[s.reshape((d,)) for s in steps], gate=gate.reshape((d,)), final_mask=final, mode=mode)


def k_hot_gate_rows(w, mask, k, tau, rng=None, noise=None):
    """Soft gates for a whole batch of weight rows at once.

    Equivalent to stacking per-row :func:`k_hot_gate` soft results (given
    the same noise) but runs each draw as one vectorized softmax
    ``softmax((w**2 + lam) / tau)`` over the live entries of the batch.
    ``k`` is one gate count or one count per row; a row whose count is 0
    gets the all-zero gate. ``noise`` has shape (max(k), n, d) when
    provided, and row i uses its first k[i] draws.
    """
    w = ad.as_tensor(w)
    if w.data.ndim != 2:
        raise ShapeError(f"k_hot_gate_rows expects (n, d) weights, got {w.data.shape}")
    n, d = w.data.shape
    live = np.asarray(mask) == 0
    if live.shape != (n, d):
        raise ShapeError(f"k_hot_gate_rows: weights {w.data.shape} vs mask {np.asarray(mask).shape}")
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), (n,))
    if (k < 0).any():
        raise ValueError(f"gate counts must be non-negative, got {int(k.min())}")
    short = live.sum(axis=1) < k
    if short.any():
        row = int(np.argmax(short))
        raise GateExhaustedError(
            f"k={int(k[row])} gates requested but row {row} has only {int(live[row].sum())} unmasked features"
        )
    noise = _soft_inputs("k_hot_gate_rows", tau, rng, noise, int(k.max(initial=0)), (n, d))
    return _soft_draws(w, live, k, tau, rng, noise)[0]


def _soft_inputs(caller, tau, rng, noise, k, shape):
    """Check the soft-gate inputs; return pre-drawn noise as (draws, rows, d), or None to draw from rng.

    ``noise`` must hold at least k draws of the weights' ``shape``.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if noise is None:
        if rng is None:
            raise ValueError("soft gating needs an rng or pre-drawn noise")
        return None
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape[1:] != shape or noise.shape[0] < k:
        raise ShapeError(f"{caller}: noise {noise.shape} must hold at least {k} draws of the weights' shape {shape}")
    return noise.reshape(noise.shape[0], -1, shape[-1])


def _soft_draws(w, live, k, tau, rng, noise):
    """The soft draw loop over (n, d) rows: the gate, the draws and the live mask left after them.

    Row i takes ``k[i]`` of the max(k) draws. A row past its count draws
    over all its entries, so the softmax stays defined, and that draw is
    zeroed, so its gate and live mask stop changing.
    """
    n, d = w.data.shape
    scaled = ad.square(w) * (1.0 / tau)
    live = live.copy()
    gate = None
    steps = []
    for t in range(int(k.max(initial=0))):
        active = t < k
        lam = noise[t] if noise is not None else sample_gumbel((n, d), rng)
        step = _masked_softmax(scaled + ad.Tensor(lam * (1.0 / tau)), live | ~active[:, None])
        if not active.all():
            step = step * ad.Tensor(np.broadcast_to(active[:, None], (n, d)) * 1.0)
        live[active, np.argmax(step.data, axis=1)[active]] = False
        steps.append(step)
        gate = step if gate is None else gate + step
    if gate is None:  # every count is zero
        gate = ad.Tensor(np.zeros((n, d)))
    return gate, steps, live
