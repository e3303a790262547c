"""Self-tests of the benchmark: output contract, checkers, determinism.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own suite; they
start several small benchmark processes and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import bitwise_equal, explanation_error, reference_label, reference_scores  # noqa: E402
from sparselocal import GatedLocalLinear, ModelConfig, Sample  # noqa: E402
from sparselocal.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics computed from shapes and inputs; they must repeat exactly for a seed.
EXACT_COUNTS = (
    "autodiff.conv2d.calls", "autodiff.conv2d.gflop", "autodiff.conv2d.mb", "autodiff.max_pool2d.calls",
    "autodiff.matmul.gflop", "autodiff.matmul.mb", "autodiff.nodes_per_step", "gate.soft_calls_per_step",
    "gate.live_frac", "gate.clamped_frac", "gate.hard_calls_per_explain", "explain.pool_k10_frac",
    "checkpoint.mb",
)


@lru_cache(maxsize=None)
def tiny_run(workload, trace, seed=5):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(np.isfinite(entry["value"]) for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["synthetic", "text"])
def test_same_seed_repeats_counts_and_test_acc(workload):
    first = tiny_run(workload, 1)
    repeat = tiny_run.__wrapped__(workload, 1)  # a fresh process, not the cached result
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == repeat["metrics"][name], name
    acc = tiny_run(workload, 0)["metrics"]["test_acc"]
    assert tiny_run.__wrapped__(workload, 0)["metrics"]["test_acc"] == acc


def test_run_without_source_tree_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synthetic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- checkers -----------------------------------------------------------------


def _model_and_sample(num_classes, seed=0, d=12):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(d=d, k=3, extractor={"kind": "vector", "dim": d}, fc_width=16, num_classes=num_classes)
    model = GatedLocalLinear(cfg, rng)
    mask = np.zeros(d, dtype=np.int64)
    mask[[1, 4]] = 1
    y = 1 if num_classes == 2 else 0
    sample = Sample(id="s", x=rng.normal(size=d), z=rng.normal(size=d), y=y, m=mask)
    return model, sample


@pytest.mark.parametrize("num_classes", [2, 3])
def test_checker_accepts_the_model_and_flags_a_permuted_selection(num_classes):
    model, sample = _model_and_sample(num_classes)
    scores = reference_scores(model.generate_weights(sample.x), sample, 3)
    batched = int(model.predict_labels([sample], k=3)[0])
    expl = model.explain(sample, k=3)
    assert explanation_error(expl, scores, batched) is None
    assert reference_label(scores) == batched

    expl.entries = expl.entries[1:] + expl.entries[:1]
    assert explanation_error(expl, scores, batched) == "selection"


def test_checker_flags_a_wrong_prediction_and_a_disagreeing_batch_label():
    model, sample = _model_and_sample(2)
    scores = reference_scores(model.generate_weights(sample.x), sample, 3)
    expl = model.explain(sample, k=3)
    batched = 1 if expl.prediction >= 0 else -1
    assert explanation_error(expl, scores, -batched) == "batched"
    expl.prediction += 1e-6 * max(1.0, abs(expl.prediction))
    assert explanation_error(expl, scores, batched) == "prediction"


def test_reference_topk_breaks_ties_to_the_lowest_live_index():
    from checks import reference_topk

    w = np.array([1.0, -2.0, 2.0, 0.5, -2.0])
    assert reference_topk(w, np.array([0, 1, 0, 0, 0]), 3).tolist() == [2, 4, 0]


def test_checkpoint_check_is_bitwise(tmp_path):
    model, sample = _model_and_sample(2)
    save_checkpoint(tmp_path / "m.sllm", model)
    loaded, _ = load_checkpoint(tmp_path / "m.sllm")
    before, after = [model.generate_weights(sample.x)], [loaded.generate_weights(sample.x)]
    assert bitwise_equal(before, after)

    nudged = after[0].copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert not bitwise_equal(before, [nudged])
    assert not bitwise_equal(before, [after[0].astype(np.float32)])
