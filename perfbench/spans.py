"""In-memory span tracing around the public layer boundaries of ``sparselocal``.

The traced run installs wrappers from the benchmark's own files; the
program itself carries no tracing code. Each wrapper records a span
``[name, start, end, parent]``, where ``parent`` is the index of the span
that was open when the call began (-1 at the top). ``make_op`` is wrapped
so that every ``backward`` closure it receives is timed as a
``bwd.<tag>`` span when ``Tensor.backward`` replays it; the tag is the op
name for conv2d, max_pool2d, matmul and relu, ``gate.soft`` for ops built
inside the soft gate, and ``other`` for the rest.

Counters computed from argument shapes (FLOPs, bytes, graph nodes, live
gate entries) are kept per top-level span so that training steps,
validation and inference are counted apart. Spans stay in memory until
:meth:`Tracer.write` stores them once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from sparselocal import autodiff, checkpoint, gate, model, train

NAMED_OPS = ("conv2d", "max_pool2d", "matmul", "relu")


def _conv2d_counts(x, kernels, stride=1, padding=0):
    xs = np.shape(getattr(x, "data", x))
    ks = np.shape(getattr(kernels, "data", kernels))
    n = 1 if len(xs) == 3 else xs[0]
    h, w = xs[-2:]
    c_out, c_in, kh, kw = ks
    sh, sw = autodiff._as_pair(stride)
    ph, pw = autodiff._as_pair(padding)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    flop = 2 * n * oh * ow * c_out * c_in * kh * kw
    nbytes = 8 * (int(np.prod(xs)) + int(np.prod(ks)) + n * c_out * oh * ow)
    return {"conv2d.flop": flop, "conv2d.bytes": nbytes}


def _matmul_counts(a, b):
    m, k = np.shape(getattr(a, "data", a))
    n = np.shape(getattr(b, "data", b))[1]
    return {"matmul.flop": 2 * m * k * n, "matmul.bytes": 8 * (m * k + k * n + m * n)}


def _soft_gate_counts(w, mask, k, tau, rng=None, noise=None):
    live = np.asarray(mask) == 0
    return {"gate.live": int(live.sum()), "gate.entries": live.size}


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counts = defaultdict(lambda: defaultdict(int))  # top-level span name -> counter -> value
        self._gate_depth = 0
        self._restore = []

    # -- recording -------------------------------------------------------
    def _context(self):
        return self.spans[self.stack[0]][0] if self.stack else "-"

    def _timed(self, fn, name, counter=None, gate_scope=False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if counter is not None:
                bucket = self.counts[self._context() if stack else name]
                for key, value in counter(*args, **kwargs).items():
                    bucket[key] += value
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            if gate_scope:
                self._gate_depth += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                if gate_scope:
                    self._gate_depth -= 1
                stack.pop()

        return wrapper

    def _patch(self, owner, attr, name, **kwargs):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._timed(original, name, **kwargs))

    def _make_op(self, original):
        def make_op(data, parents, op, backward):
            self.counts[self._context()]["nodes"] += 1
            if op in NAMED_OPS:
                tag = op
            else:
                tag = "gate.soft" if self._gate_depth else "other"
            return original(data, parents, op, self._timed(backward, "bwd." + tag))

        return make_op

    def __enter__(self):
        self._patch(autodiff, "conv2d", "autodiff.conv2d", counter=_conv2d_counts)
        self._patch(autodiff, "max_pool2d", "autodiff.max_pool2d")
        self._patch(autodiff, "matmul", "autodiff.matmul", counter=_matmul_counts)
        self._patch(autodiff, "relu", "autodiff.relu")
        self._patch(autodiff.Tensor, "backward", "autodiff.backward")
        self._patch(gate, "k_hot_gate", "gate.k_hot_gate", gate_scope=True)
        self._patch(gate, "k_hot_gate_rows", "gate.k_hot_gate_rows", counter=_soft_gate_counts, gate_scope=True)
        self._patch(model.WeightGenerator, "rows", "model.rows")
        for method in ("batch_loss", "explain", "predict_labels"):
            self._patch(model.GatedLocalLinear, method, f"model.{method}")
        self._patch(train.Adam, "step", "train.optimizer")
        self._patch(train.MomentumSGD, "step", "train.optimizer")
        self._patch(train, "_mean_loss", "train.validate")
        self._patch(train, "evaluate", "train.validate")
        self._patch(checkpoint, "save_checkpoint", "checkpoint.save")
        self._patch(checkpoint, "load_checkpoint", "checkpoint.load")
        original = autodiff.make_op
        self._restore.append((autodiff, "make_op", original))
        autodiff.make_op = self._make_op(original)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    # -- analysis --------------------------------------------------------
    def self_times(self):
        """Per span: duration minus the time covered by its direct children."""
        selfs = np.array([end - start for _, start, end, _ in self.spans])
        for _, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def roots(self):
        """Index of the top-level span that each span belongs to."""
        out = np.empty(len(self.spans), dtype=np.int64)
        for i, (_, _, _, parent) in enumerate(self.spans):
            out[i] = i if parent < 0 else out[parent]
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], round(a - t0, 9), round(b - t0, 9), p] for n, a, b, p in self.spans],
            "counts": {ctx: dict(c) for ctx, c in self.counts.items()},
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")

