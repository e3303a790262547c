"""Optimizers, the coarse-to-fine training loop, and accuracy evaluation.

Training runs in two phases. The coarse phase uses a generous gate count
and the model's coarse temperature (``ModelConfig.tau_coarse``) so
gradients reach every weight dimension, and optimizes with Adam. Once
validation loss stops improving, the fine phase resets the gate count to
its target and the temperature to ``ModelConfig.tau_fine``, and continues
from the current parameters with momentum SGD at one tenth of the Adam
learning rate. Either phase can be disabled by setting its epoch budget
to zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import GateExhaustedError, NonFiniteLossError


_SLICE = 1 << 15  # entries per pass of an in-place optimizer update, whose temporaries fill a fixed scratch


class _Optimizer:
    """Steps in place: one pass over a small parameter, runs of rows along the first axis of a large one."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        width = max([min(p.data.size, max(_SLICE, p.data[:1].size)) for p in self.params if p.data.ndim] + [1])
        scratch = np.empty((2, width))  # as large as the largest pass
        self._plans = []  # per parameter: (index, scratch, scratch) of each pass, the scratch in the pass's shape
        for p in self.params:
            rows = max(1, _SLICE * len(p.data) // p.data.size) if p.data.size > _SLICE else None
            cuts = [...] if rows is None else [slice(lo, lo + rows) for lo in range(0, len(p.data), rows)]
            self._plans.append([(at, *(s[: p.data[at].size].reshape(p.data[at].shape) for s in scratch)) for at in cuts])

    def _passes(self, *state):  # views (param, grad, *state, scratch, scratch) per pass with a gradient
        for p, plan, *rest in zip(self.params, self._plans, *state):
            for at, a, b in plan if p.grad is not None else ():
                arrays = (p.data, p.grad, *rest)
                yield *(arrays if at is ... else [x[at] for x in arrays]), a, b


class Adam(_Optimizer):
    """Adam with bias correction, betas (0.9, 0.999) and eps 1e-8; lr 1e-3 by default."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3):
        super().__init__(params, lr)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v, a, b in self._passes(self.m, self.v):  # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            v += np.multiply(np.multiply(g, g, out=a), 1.0 - self.beta2, out=a)
            np.multiply(np.divide(m, b1t, out=a), self.lr, out=a)
            p -= np.divide(a, np.add(np.sqrt(np.divide(v, b2t, out=b), out=b), self.eps, out=b), out=a)


class MomentumSGD(_Optimizer):
    """Heavy-ball update: v <- momentum * v + grad; param <- param - lr * v."""

    def __init__(self, params, lr, momentum=0.9):
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, g, v, a, _ in self._passes(self.v):
            v *= self.momentum
            v += g
            p -= np.multiply(v, self.lr, out=a)


def zero_grads(params):
    for p in params:
        p.grad = None


@dataclass
class TrainSchedule:
    """Two-phase settings: Adam/large-k first, momentum-SGD/target-k second; the model owns both taus."""

    adam_lr: float = 1e-3
    momentum: float = 0.9
    k_coarse: int = 10
    k_target: int | None = None  # defaults to the model's configured k
    batch_size: int = 64
    max_coarse_epochs: int = 50
    max_fine_epochs: int = 50
    patience: int = 5

    def __post_init__(self):
        for field, least in (("k_coarse", 1), ("k_target", 1), ("batch_size", 1), ("max_coarse_epochs", 0),
                             ("max_fine_epochs", 0), ("patience", 1)):
            value = getattr(self, field)
            if value is None and field == "k_target":  # the model's k
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{field} must be an integer >= {least}, got {value!r}")
        if self.k_target is not None and not self.k_coarse >= self.k_target:
            raise ValueError("schedule requires k_coarse >= k_target >= 1")
        for field, top in (("adam_lr", math.inf), ("momentum", 1)):  # a NaN fails 0 <= value
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < top:
                raise ValueError(f"{field} must be a real number in [0, {top}), got {value!r}")

    @property
    def fine_lr(self):
        return self.adam_lr / 10.0

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, payload):
        return cls(**payload)


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo : lo + batch_size]


def _check_finite(value, what, where):
    """Raise NonFiniteLossError on a NaN or infinite loss, before backward() or patience sees it."""
    if not math.isfinite(value):
        raise NonFiniteLossError(f"{what} is {value} in {where}")
    return value


def _mean_loss(loss_fn, samples, batch_size, rng):
    """Mean of ``loss_fn`` over ``samples`` in batches, built without a graph."""
    total = 0.0
    with ad.no_grad():
        for lo in range(0, len(samples), batch_size):
            batch = samples[lo : lo + batch_size]
            total += float(loss_fn(batch, rng).data) * len(batch)
    return total / len(samples)


def evaluate(model, samples, k=None, mode="hard", rng=None):
    """Fraction of samples whose gated prediction matches the label."""
    if not samples:
        return float("nan")
    predicted = model.predict_labels(samples, k=k, mode=mode, rng=rng)
    truth = np.array([s.y for s in samples])
    return float(np.mean(predicted == truth))


def _run_phase(model, phase, optimizer, loss_fn, train, val, rng, log, *,
               epochs, batch_size, patience, fields, acc_k=None, progress=None):
    """The one epoch loop: ``optimizer`` steps on ``loss_fn(batch, rng)`` over shuffled batches.

    Each epoch appends a record to ``log``: its number, then ``fields``,
    the mean training loss and, given validation samples, their mean
    loss and (when ``acc_k`` is set) their hard-gated accuracy at that k.
    The phase stops once validation loss has not improved for
    ``patience`` epochs; with no patience or no validation it runs all
    ``epochs``. A NaN or infinite training or validation loss raises
    ``NonFiniteLossError``, naming the phase and the epoch.
    """
    if not train:
        raise ValueError("training needs a non-empty train set")
    params = model.parameters()
    best = np.inf
    stale = 0
    for _ in range(epochs):
        total = 0.0
        for b, idx in enumerate(_batches(len(train), batch_size, rng)):
            batch = [train[i] for i in idx]
            zero_grads(params)
            loss = loss_fn(batch, rng)
            value = _check_finite(float(loss.data), "loss", f"phase {phase!r}, epoch {len(log) + 1}, batch {b}")
            loss.backward()
            optimizer.step()
            total += value * len(batch)
        record = {"epoch": len(log) + 1, **fields, "train_loss": total / len(train)}
        if val:
            record["val_loss"] = _check_finite(_mean_loss(loss_fn, val, batch_size, rng), "validation loss",
                                               f"phase {phase!r}, epoch {record['epoch']}")
            if acc_k is not None:
                record["val_acc"] = evaluate(model, val, k=acc_k)
        log.append(record)
        if progress is not None:
            progress(record)
        if not val or patience is None:
            continue
        if record["val_loss"] < best - 1e-12:
            best = record["val_loss"]
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break


def coarse_to_fine_train(model, train, val, schedule=None, rng=None, progress=None):
    """Run both phases and return the per-epoch log (one dict per epoch).

    The fine phase requires the target gate count to be feasible for
    every training sample; the coarse gate count is clamped per sample
    instead, since it is only a gradient-spreading device. Every
    validation sample needs one live feature, as its loss is gated too.
    Both checks run before the first epoch.
    """
    schedule = schedule or TrainSchedule()
    rng = rng if rng is not None else np.random.default_rng()
    if not val:
        raise ValueError("training needs a non-empty validation set")
    k_target = model.config.k if schedule.k_target is None else schedule.k_target
    if not schedule.k_coarse >= k_target >= 1:
        raise ValueError("schedule requires k_coarse >= k_target >= 1")
    for split, samples, need in (("training", train, k_target), ("validation", val, 1)):
        live = np.array([s.live_count for s in samples])
        if (live < need).any():
            bad = [samples[i].id for i in np.flatnonzero(live < need)[:5]]
            raise GateExhaustedError(f"k={need} is infeasible for some {split} samples (e.g. ids {bad})")

    log = []

    def run(phase, optimizer, k, tau, epochs, lr):
        _run_phase(
            model, phase, optimizer, lambda batch, r: model.batch_loss(batch, k=k, tau=tau, rng=r),
            train, val, rng, log, epochs=epochs, batch_size=schedule.batch_size, patience=schedule.patience,
            fields={"phase": phase, "tau": tau, "k": k, "lr": lr}, acc_k=k, progress=progress,
        )

    run("coarse", Adam(model.parameters(), lr=schedule.adam_lr), min(schedule.k_coarse, model.config.d),
        model.config.tau_coarse, schedule.max_coarse_epochs, schedule.adam_lr)
    # fresh optimizer state: momentum starts at zero, Adam moments are dropped
    run("fine", MomentumSGD(model.parameters(), lr=schedule.fine_lr, momentum=schedule.momentum),
        k_target, model.config.tau_fine, schedule.max_fine_epochs, schedule.fine_lr)
    return log


def train_plain(model, train, val, *, epochs, lr=1e-3, batch_size=64, rng=None, patience=None, loss_fn=None):
    """Adam training as one ``"plain"`` phase of the shared epoch loop; returns the per-epoch log.

    ``loss_fn(batch, rng)`` is the objective, by default the model's own
    ``batch_loss``: the plain classifier trains on its logits, and the
    dense (gate-free) ablation passes
    ``lambda batch, rng: model.batch_loss(batch, gated=False)``. Records
    hold the epoch, the training loss and, given validation samples,
    the validation loss; ``patience`` stops early on it.
    """
    rng = rng if rng is not None else np.random.default_rng()
    if loss_fn is None:
        loss_fn = lambda batch, r: model.batch_loss(batch, rng=r)
    log = []
    _run_phase(
        model, "plain", Adam(model.parameters(), lr=lr), loss_fn, train, val, rng, log,
        epochs=epochs, batch_size=batch_size, patience=patience, fields={},
    )
    return log
