"""One benchmark run: set up a workload, train, serve explanations, check every output.

A run is a closed loop with one caller: every call starts when the
previous one returned. The phases are

1. set-up: generate and ingest the inputs and build the model;
2. a warm-up epoch, then one run of the workload's fixed coarse-to-fine
   schedule; the trained model is saved and loaded back
   ``min_setup_reps`` times, and the loaded model serves;
3. the measured phase, about ``--seconds`` long: the schedule is trained
   again, repeat after repeat, and every 0.2 s of step time a round runs
   ``explain`` at k=1, ``explain`` at k=10 (one sample per call),
   ``predict_labels(batch, k=10)`` and set-up repeats. Each activity gets
   its share of the training time so far, so every metric is spread over
   the same stretch of machine time; the host's speed drifts over seconds;
4. top-up calls until every activity has its minimum number of samples.

Only the untraced run (``--trace 0``) yields end-to-end metrics. The
traced run (``--trace 1``) skips step 3; it times explain k=10 untraced,
then trains, checkpoints, explains and predicts under
:class:`spans.Tracer`, and reports per-layer metrics plus the tracing
overhead between the untraced and traced numbers.

The last line of standard output is the JSON result; earlier lines hold
the environment record and one ``name value unit`` line per metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import sparselocal
from sparselocal import GatedLocalLinear, TrainSchedule, checkpoint, coarse_to_fine_train, evaluate
from sparselocal import train as train_module

from checks import bitwise_equal, explanation_error, reference_label, reference_scores
from spans import Tracer
from workloads import NAMES, make_inputs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# In the measured phase each activity gets this many seconds per second of
# training: serving about as long as training, plus some set-up repeats.
SHARES = {"explain_k1": 0.3, "explain_k10": 0.35, "predict": 0.35, "setup": 0.15}
ROUND_SLICE_S = 0.05
# In the measured phase a round runs once this much step time has passed since
# the last one: after every step on text, every second step on digits and about
# every 60 steps on synthetic, whose 3 ms steps would leave serving calls only
# cold caches.
ROUND_EVERY_S = 0.2
# train_samples_per_s reads each phase's per-sample step time at this percentile.
TRAIN_PERCENTILE = 75
# predict_labels scores the test split in batches of this many samples.
PREDICT_BATCH = 16
# A traced run times explain k=10 for this share of --seconds, untraced and traced.
TRACE_EXPLAIN_SHARE = 0.15

# A percentile needs at least ten samples beyond it: 1000 explain calls cover
# the p99 printed in the detail record, 100 predict batches the p90 batch time.
LIMITS = {
    "full": {"min_setup_reps": 3, "min_explain_calls": 1000, "warmup_calls": 50, "min_predict_calls": 100},
    "tiny": {"min_setup_reps": 1, "min_explain_calls": 20, "warmup_calls": 2, "min_predict_calls": 1},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "test_acc": "fraction",
    "explain_k1_p90_ms": "ms",
    "explain_k1_p95_ms": "ms",
    "explain_k10_p90_ms": "ms",
    "explain_k10_p95_ms": "ms",
    "predict_k10_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "train.step_ms": "ms",
    "train.forward_ms": "ms",
    "train.backward_ms": "ms",
    "train.optimizer_ms": "ms",
    "train.epoch_overhead_ms": "ms",
    "autodiff.conv2d.fwd_share": "fraction",
    "autodiff.conv2d.bwd_share": "fraction",
    "autodiff.max_pool2d.fwd_share": "fraction",
    "autodiff.max_pool2d.bwd_share": "fraction",
    "autodiff.matmul.fwd_ms": "ms",
    "autodiff.matmul.bwd_ms": "ms",
    "autodiff.relu.fwd_ms": "ms",
    "autodiff.relu.bwd_ms": "ms",
    "autodiff.other.fwd_ms": "ms",
    "autodiff.other.bwd_ms": "ms",
    "autodiff.engine_ms": "ms",
    "autodiff.conv2d.calls": "count",
    "autodiff.conv2d.gflop": "GFLOP",
    "autodiff.conv2d.mb": "MB",
    "autodiff.max_pool2d.calls": "count",
    "autodiff.matmul.gflop": "GFLOP",
    "autodiff.matmul.mb": "MB",
    "autodiff.nodes_per_step": "count",
    "gate.soft_ms": "ms",
    "gate.soft_bwd_ms": "ms",
    "gate.soft_calls_per_step": "count",
    "gate.step_share": "fraction",
    "gate.live_frac": "fraction",
    "gate.clamped_frac": "fraction",
    "gate.hard_ms": "ms",
    "gate.hard_calls_per_explain": "count",
    "gate.hard_explain_share": "fraction",
    "model.rows_ms": "ms",
    "model.explain.generate_ms": "ms",
    "model.explain.assemble_ms": "ms",
    "model.predict.rows_ms": "ms",
    "model.predict.gate_ms": "ms",
    "explain.pool_k10_frac": "fraction",
    "data.generate_s": "s",
    "data.ingest_s": "s",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.mb": "MB",
    "trace.overhead.train_pct": "%",
    "trace.overhead.explain_k10_pct": "%",
}


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def record(self, reason=None):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1


# -- environment ------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, else the pinned setting."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(value) if value else None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "sparselocal": sparselocal.__file__,
        "seed": seed,
    }


# -- phases -----------------------------------------------------------------


class SetupRepeats:
    """Repeats of the set-up: generate and ingest the inputs, build the model.

    Calling it runs one repeat and returns the inputs. The repeats after
    the first run as an activity of the measured phase, so their median
    samples the same stretch of machine time as the other metrics.
    """

    def __init__(self, name, seed, workdir, size):
        self.name, self.seed, self.workdir, self.size = name, seed, workdir, size
        self.totals, self.generate, self.ingest = [], [], []

    def __call__(self):
        t0 = time.perf_counter()
        inputs = make_inputs(self.name, self.seed, self.workdir, self.size)
        GatedLocalLinear(inputs.config, np.random.default_rng(self.seed))
        self.totals.append(time.perf_counter() - t0)
        self.generate.append(inputs.generate_s)
        self.ingest.append(inputs.ingest_s)
        return inputs

    def median(self, which):
        return float(np.median(getattr(self, which)))


def _warm_up_training(inputs, seed):
    """A short throwaway training so the timed one does not pay first-touch costs."""
    schedule = TrainSchedule(k_coarse=10, k_target=inputs.k_target, max_coarse_epochs=1, max_fine_epochs=0)
    rng = np.random.default_rng(seed)
    model = GatedLocalLinear(inputs.config, rng)
    coarse_to_fine_train(model, inputs.train[:128], inputs.val[:64], schedule, rng)


class StepClock:
    """Per-sample time of every training step; other work runs between steps, off the clock.

    While it is active, both optimizers' ``step`` are wrapped, and nothing
    else is touched. A step is timed from the end of the previous step (or
    the start of its epoch) to the end of its update, and divided by its
    batch size, so validation is not in it. ``between``, when set, is
    called after every step with the step seconds so far; its own time is
    excluded.
    """

    PHASES = {"Adam": "coarse", "MomentumSGD": "fine"}

    def __init__(self, sizes):
        self.sizes = sizes  # batch sizes of the steps of one epoch
        self.costs = {phase: [] for phase in self.PHASES.values()}
        self.seconds = 0.0
        self.between = None
        self._restore = []
        self._mark = 0.0
        self._index = 0

    def __enter__(self):
        for cls in (train_module.Adam, train_module.MomentumSGD):
            self._restore.append((cls, cls.step))
            cls.step = self._timed(cls.step, self.PHASES[cls.__name__])
        self.new_epoch()
        return self

    def __exit__(self, *exc):
        for cls, original in reversed(self._restore):
            cls.step = original
        self._restore.clear()
        return False

    def _timed(self, original, phase):
        def step(optimizer):
            original(optimizer)
            end = time.perf_counter()
            self.costs[phase].append((end - self._mark) / self.sizes[self._index])
            self.seconds += end - self._mark
            self._index += 1
            if self.between is not None:
                self.between(self.seconds)
            self._mark = time.perf_counter()

        return step

    def new_epoch(self):
        self._index = 0
        self._mark = time.perf_counter()

    def samples_per_s(self, log, percentile):
        """Throughput if every step ran at its phase's ``percentile`` per-sample time.

        The phases are weighted by their epochs in ``log``.
        """
        epochs = Counter(record["phase"] for record in log)
        per_sample = sum(n * float(np.percentile(self.costs[phase], percentile)) for phase, n in epochs.items())
        return sum(epochs.values()) / per_sample


def _train_once(inputs, seed, tally, clock, reference=None):
    """One run of the fixed schedule under ``clock``; returns (model, log, wall seconds).

    Each epoch is checked as it ends: its losses must be finite and, given
    a ``reference`` log, equal to the reference epoch of the same number.
    """
    rng = np.random.default_rng(seed)
    model = GatedLocalLinear(inputs.config, rng)
    done = []

    def progress(record):
        error = None
        if not (math.isfinite(record["train_loss"]) and math.isfinite(record["val_loss"])):
            error = "train_loss_not_finite"
        elif reference is not None and record != reference[len(done)]:
            error = "train_not_deterministic"
        for _ in clock.sizes:
            tally.record(error)
        done.append(record)
        clock.new_epoch()

    t0 = time.perf_counter()
    with clock:
        log = coarse_to_fine_train(model, inputs.train, inputs.val, inputs.schedule, rng, progress=progress)
    return model, log, time.perf_counter() - t0


def _checkpoint(trained, inputs, log, workdir, reps):
    """Save and reload ``reps`` times; returns (served model, save s, load s, MB)."""
    path = workdir / "model.sllm"
    saves, loads = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        checkpoint.save_checkpoint(path, trained, schedule=inputs.schedule, phase_log=log)
        t1 = time.perf_counter()
        served, _header = checkpoint.load_checkpoint(path)
        loads.append(time.perf_counter() - t1)
        saves.append(t1 - t0)
    return served, float(np.median(saves)), float(np.median(loads)), path.stat().st_size / 1e6


class Serving:
    """The activities of a round: checked serving calls and set-up repeats.

    ``explain`` (k=1, k=10) and ``predict_labels`` run on the served model.
    Every call's output is compared with references computed from the
    served model's ``generate_weights``; the comparison is not timed.
    """

    def __init__(self, served, inputs, weights, tally, setup):
        self.served, self.tally, self.setup = served, tally, setup
        self.test, self.names = inputs.test, inputs.feature_names
        self.weights = weights
        self._scores = {}
        self.pools = {k: [i for i, s in enumerate(self.test) if s.live_count >= k] for k in (1, 10)}
        self.batched = {
            k: dict(zip(pool, served.predict_labels([self.test[i] for i in pool], k=k).tolist()))
            for k, pool in self.pools.items()
        }
        self.expected = np.array([reference_label(self.scores(i, 10)) for i in range(len(self.test))])
        self.times = {activity: [] for activity in SHARES}
        self.spent = dict.fromkeys(SHARES, 0.0)
        self._activities = {
            "explain_k1": lambda: self.explain(1),
            "explain_k10": lambda: self.explain(10),
            "predict": self.predict,
            "setup": self.repeat_setup,
        }

    def scores(self, i, k):
        if (i, k) not in self._scores:
            self._scores[i, k] = reference_scores(self.weights[i], self.test[i], k)
        return self._scores[i, k]

    def explain(self, k):
        key = f"explain_k{k}"
        pool = self.pools[k]
        i = pool[len(self.times[key]) % len(pool)]
        t0 = time.perf_counter()
        try:
            expl = self.served.explain(self.test[i], k=k, feature_names=self.names)
        except Exception as exc:  # a failed call is counted, not fatal
            expl, error = None, f"explain_raised_{type(exc).__name__}"
        elapsed = time.perf_counter() - t0
        if expl is not None:
            error = explanation_error(expl, self.scores(i, k), self.batched[k][i])
        self.times[key].append(elapsed)
        self.spent[key] += elapsed
        self.tally.record(error)

    def predict(self):
        n_batches = -(-len(self.test) // PREDICT_BATCH)
        lo = PREDICT_BATCH * (len(self.times["predict"]) % n_batches)
        batch = self.test[lo : lo + PREDICT_BATCH]
        t0 = time.perf_counter()
        labels = self.served.predict_labels(batch, k=10)
        elapsed = time.perf_counter() - t0
        self.times["predict"].append(elapsed / len(batch))
        self.spent["predict"] += elapsed
        expected = self.expected[lo : lo + PREDICT_BATCH]
        self.tally.record(None if np.array_equal(labels, expected) else "predict_label_mismatch")

    def repeat_setup(self):
        t0 = time.perf_counter()
        self.setup()
        elapsed = time.perf_counter() - t0
        self.times["setup"].append(elapsed)
        self.spent["setup"] += elapsed

    def call(self, activity):
        self._activities[activity]()

    def warm_up(self, calls):
        for k in (1, 10):
            for j in range(calls):
                self.served.explain(self.test[self.pools[k][j % len(self.pools[k])]], k=k, feature_names=self.names)
        self.served.predict_labels(self.test[:PREDICT_BATCH], k=10)

    def round(self, target):
        """Run each activity until its time reaches its share of ``target`` seconds.

        The activities take turns in slices of ``ROUND_SLICE_S``, so each
        one samples the whole round rather than a third of it.
        """
        behind = list(SHARES)
        while behind:
            for activity in behind:
                stop = min(SHARES[activity] * target, self.spent[activity] + ROUND_SLICE_S)
                while self.spent[activity] < stop:
                    self.call(activity)
            behind = [a for a in behind if self.spent[a] < SHARES[a] * target]

    def top_up(self, activity, calls):
        while len(self.times[activity]) < calls:
            self.call(activity)

    def explain_for(self, k, seconds, calls):
        """Explain at k for ``seconds`` more and at least ``calls`` more calls; returns their latencies."""
        key = f"explain_k{k}"
        n0, s0 = len(self.times[key]), self.spent[key]
        while self.spent[key] - s0 < seconds or len(self.times[key]) - n0 < calls:
            self.explain(k)
        return self.times[key][n0:]


# -- per-layer metrics from the traced spans --------------------------------


def _layer_metrics(tracer, ranges, train_wall, epochs, inputs):
    names = np.array([s[0] for s in tracer.spans], dtype=object)
    parents = np.array([s[3] for s in tracer.spans], dtype=np.int64)
    durs = np.array([s[2] - s[1] for s in tracer.spans])
    selfs = tracer.self_times()
    roots = tracer.roots()
    idx = np.arange(len(names))

    lo, hi = ranges["train"]
    top = [i for i in range(lo, hi) if parents[i] < 0]
    steps = []  # (batch_loss, backward, optimizer) span indices
    for a, b, c in zip(top, top[1:], top[2:]):
        if (names[a], names[b], names[c]) == ("model.batch_loss", "autodiff.backward", "train.optimizer"):
            steps.append((a, b, c))
    n_steps = len(steps)
    step_roots = np.array([i for step in steps for i in step])
    in_step = np.isin(roots, step_roots) & (idx >= lo) & (idx < hi)
    step_total = float(sum(durs[list(s)].sum() for s in steps))

    def per_step(values, name):
        return float(values[in_step & (names == name)].sum()) / n_steps

    def share(name):
        return float(selfs[in_step & (names == name)].sum()) / step_total

    counts = tracer.counts["model.batch_loss"]
    m = {
        "train.step_ms": 1e3 * float(np.median([durs[list(s)].sum() for s in steps])),
        "train.forward_ms": 1e3 * per_step(durs, "model.batch_loss"),
        "train.backward_ms": 1e3 * per_step(durs, "autodiff.backward"),
        "train.optimizer_ms": 1e3 * per_step(durs, "train.optimizer"),
        "train.epoch_overhead_ms": 1e3 * (train_wall - step_total) / epochs,
        "autodiff.conv2d.fwd_share": share("autodiff.conv2d"),
        "autodiff.conv2d.bwd_share": share("bwd.conv2d"),
        "autodiff.max_pool2d.fwd_share": share("autodiff.max_pool2d"),
        "autodiff.max_pool2d.bwd_share": share("bwd.max_pool2d"),
    }
    for op in ("matmul", "relu"):
        m[f"autodiff.{op}.fwd_ms"] = 1e3 * per_step(selfs, f"autodiff.{op}")
        m[f"autodiff.{op}.bwd_ms"] = 1e3 * per_step(selfs, f"bwd.{op}")
    m["autodiff.other.fwd_ms"] = 1e3 * (per_step(selfs, "model.batch_loss") + per_step(selfs, "model.rows"))
    m["autodiff.other.bwd_ms"] = 1e3 * per_step(selfs, "bwd.other")
    m["autodiff.engine_ms"] = 1e3 * per_step(selfs, "autodiff.backward")
    m["autodiff.conv2d.calls"] = float((in_step & (names == "autodiff.conv2d")).sum()) / n_steps
    m["autodiff.conv2d.gflop"] = counts["conv2d.flop"] / n_steps / 1e9
    m["autodiff.conv2d.mb"] = counts["conv2d.bytes"] / n_steps / 1e6
    m["autodiff.max_pool2d.calls"] = float((in_step & (names == "autodiff.max_pool2d")).sum()) / n_steps
    m["autodiff.matmul.gflop"] = counts["matmul.flop"] / n_steps / 1e9
    m["autodiff.matmul.mb"] = counts["matmul.bytes"] / n_steps / 1e6
    m["autodiff.nodes_per_step"] = counts["nodes"] / n_steps
    m["gate.soft_ms"] = 1e3 * per_step(selfs, "gate.k_hot_gate_rows")
    m["gate.soft_bwd_ms"] = 1e3 * per_step(selfs, "bwd.gate.soft")
    m["gate.soft_calls_per_step"] = float((in_step & (names == "gate.k_hot_gate_rows")).sum()) / n_steps
    m["gate.step_share"] = share("gate.k_hot_gate_rows") + share("bwd.gate.soft")
    m["gate.live_frac"] = counts["gate.live"] / counts["gate.entries"]
    k_coarse = min(inputs.schedule.k_coarse, inputs.config.d)
    m["gate.clamped_frac"] = float(np.mean([s.live_count < k_coarse for s in inputs.train]))
    m["model.rows_ms"] = 1e3 * per_step(durs, "model.rows")

    lo, hi = ranges["explain"]
    sel = (idx >= lo) & (idx < hi)
    calls = int((sel & (names == "model.explain")).sum())
    hard = float(durs[sel & (names == "gate.k_hot_gate")].sum())
    m["gate.hard_ms"] = 1e3 * hard / calls
    m["gate.hard_calls_per_explain"] = float((sel & (names == "gate.k_hot_gate")).sum()) / calls
    m["gate.hard_explain_share"] = hard / float(durs[sel & (names == "model.explain")].sum())
    m["model.explain.generate_ms"] = 1e3 * float(durs[sel & (names == "model.rows")].sum()) / calls
    m["model.explain.assemble_ms"] = 1e3 * float(selfs[sel & (names == "model.explain")].sum()) / calls

    lo, hi = ranges["predict"]
    sel = (idx >= lo) & (idx < hi)
    calls = int((sel & (names == "model.predict_labels")).sum())
    m["model.predict.rows_ms"] = 1e3 * float(durs[sel & (names == "model.rows")].sum()) / calls
    m["model.predict.gate_ms"] = 1e3 * float(durs[sel & (names == "gate.k_hot_gate")].sum()) / calls

    lo, hi = ranges["checkpoint"]
    sel = (idx >= lo) & (idx < hi)
    m["checkpoint.save_ms"] = 1e3 * float(np.median(durs[sel & (names == "checkpoint.save")]))
    m["checkpoint.load_ms"] = 1e3 * float(np.median(durs[sel & (names == "checkpoint.load")]))
    return m


# -- one workload -----------------------------------------------------------


class _Enough(Exception):
    """Raised between two training steps to end the measured phase."""


def _measure(inputs, seed, seconds, serving, tally, log, clock):
    """Training repeats with a serving round every ``ROUND_EVERY_S`` of step time, for about ``seconds``.

    Training and serving so sample the same stretches of machine time. The
    phase ends at the first step boundary past ``seconds``; the steps of
    the unfinished repeat count, its unfinished epoch is not checked.
    """
    start, before = time.perf_counter(), clock.seconds
    last = before

    def between(trained):
        nonlocal last
        if trained - last >= ROUND_EVERY_S:
            serving.round(trained - before)
            last = trained
        if time.perf_counter() - start >= seconds:
            raise _Enough

    clock.between = between
    try:
        while True:
            _train_once(inputs, seed, tally, clock, reference=log)
    except _Enough:
        pass
    finally:
        clock.between = None


def _untraced(inputs, seed, seconds, limits, serving, tally, log, clock):
    """End-to-end metrics of the measured phase (everything but set-up and test_acc)."""
    _measure(inputs, seed, seconds, serving, tally, log, clock)
    for activity in ("explain_k1", "explain_k10"):
        serving.top_up(activity, limits["min_explain_calls"])
    serving.top_up("predict", limits["min_predict_calls"])
    serving.top_up("setup", limits["min_setup_reps"] - 1)
    metrics = {
        "train_samples_per_s": clock.samples_per_s(log, TRAIN_PERCENTILE),
        "predict_k10_samples_per_s": 1.0 / float(np.percentile(serving.times["predict"], 90)),
    }
    detail = {"calls": {a: len(t) for a, t in serving.times.items()}, "explain_p50_ms": {}, "explain_p99_ms": {}}
    detail["train_steps_timed"] = {phase: len(costs) for phase, costs in clock.costs.items()}
    for k in (1, 10):
        times = np.array(serving.times[f"explain_k{k}"])
        metrics[f"explain_k{k}_p90_ms"] = 1e3 * float(np.percentile(times, 90))
        metrics[f"explain_k{k}_p95_ms"] = 1e3 * float(np.percentile(times, 95))
        detail["explain_p50_ms"][f"k{k}"] = 1e3 * float(np.median(times))
        detail["explain_p99_ms"][f"k{k}"] = 1e3 * float(np.percentile(times, 99))
    return metrics, detail


def _traced(inputs, seed, seconds, limits, serving, tally, first, clock, workdir):
    """Per-layer metrics: explain k=10 untraced, then train/checkpoint/explain/predict traced."""
    log, first_s = first
    explain_s, calls = TRACE_EXPLAIN_SHARE * seconds, limits["min_explain_calls"] // 5
    serving.top_up("setup", limits["min_setup_reps"] - 1)
    untraced_k10 = float(np.median(serving.explain_for(10, explain_s, calls)))
    ranges = {}
    with Tracer() as tracer:
        lo = len(tracer.spans)
        traced, traced_log, train_wall = _train_once(inputs, seed, tally, clock, reference=log)
        ranges["train"] = (lo, len(tracer.spans))
        lo = len(tracer.spans)
        _checkpoint(traced, inputs, traced_log, workdir, limits["min_setup_reps"])
        ranges["checkpoint"] = (lo, len(tracer.spans))
        lo = len(tracer.spans)
        traced_k10 = float(np.median(serving.explain_for(10, explain_s, calls)))
        ranges["explain"] = (lo, len(tracer.spans))
        lo = len(tracer.spans)
        serving.predict()
        ranges["predict"] = (lo, len(tracer.spans))
    untraced_rate = len(log) * len(inputs.train) / first_s
    traced_rate = len(traced_log) * len(inputs.train) / train_wall
    metrics = _layer_metrics(tracer, ranges, train_wall, len(traced_log), inputs)
    metrics.update({
        "explain.pool_k10_frac": len(serving.pools[10]) / len(inputs.test),
        "trace.overhead.train_pct": 100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "trace.overhead.explain_k10_pct": 100.0 * (traced_k10 - untraced_k10) / untraced_k10,
    })
    spans_path = OUT / f"spans-{inputs.name}-seed{seed}.json"
    tracer.write(spans_path)
    detail = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "untraced_train_samples_per_s": untraced_rate, "traced_train_samples_per_s": traced_rate}
    return metrics, detail


def run_workload(name, seed, seconds, trace, size="full"):
    """Run one workload in this process; returns (result of the output contract, detail)."""
    limits = LIMITS[size]
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setup = SetupRepeats(name, seed, workdir, size)
        inputs = setup()
        _warm_up_training(inputs, seed)
        n, batch = len(inputs.train), inputs.schedule.batch_size
        clock = StepClock([batch] * (n // batch) + ([n % batch] if n % batch else []))
        trained, log, first_s = _train_once(inputs, seed, tally, clock)
        served, save_s, load_s, ckpt_mb = _checkpoint(trained, inputs, log, workdir, limits["min_setup_reps"])
        before = [trained.generate_weights(s.x) for s in inputs.test]
        weights = [served.generate_weights(s.x) for s in inputs.test]
        checkpoint_ok = bitwise_equal(before, weights)
        serving = Serving(served, inputs, weights, tally, setup)
        serving.warm_up(limits["warmup_calls"])
        if trace:
            metrics, detail = _traced(inputs, seed, seconds, limits, serving, tally, (log, first_s), clock, workdir)
            metrics.update({"data.generate_s": setup.median("generate"), "data.ingest_s": setup.median("ingest"),
                            "checkpoint.mb": ckpt_mb})
            units = PER_LAYER_UNITS
        else:
            metrics, detail = _untraced(inputs, seed, seconds, limits, serving, tally, log, clock)
            metrics.update({
                "setup_s": setup.median("totals") + save_s + load_s,
                "test_acc": evaluate(served, inputs.test, k=inputs.k_target),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update({"workload": name, "setup_reps": len(setup.totals), "checkpoint_bitwise": checkpoint_ok,
                   "failures": dict(tally.reasons)})
    return {
        "correct": bool(checkpoint_ok and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()},
    }, detail


def _print_metrics(result, detail):
    print(json.dumps({"detail": detail}, sort_keys=True))
    for key, entry in result["metrics"].items():
        print(f"{detail['workload']:>9}  {key:<34} {entry['value']:>14.6g}  {entry['unit']}")
    print(f"{detail['workload']:>9}  {'ops_attempted':<34} {result['attempted']:>14d}  count")
    print(f"{detail['workload']:>9}  {'ops_failed':<34} {result['failed']:>14d}  count")


def _run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(LIMITS), default="full",
                        help="'tiny' shrinks inputs and minimum call counts for the self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    print(json.dumps({"env": environment(args.seed)}, sort_keys=True))
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    _print_metrics(result, detail)
    print(json.dumps(result, sort_keys=True))
    return 0
