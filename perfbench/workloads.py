"""Seeded inputs, model configurations and training schedules for each workload.

Every workload turns the benchmark seed into files or arrays through the
public API of ``sparselocal`` (``make_synthetic``, ``make_digit_images`` plus
the IDX writers and ``load_image_dataset``, or a generated TSV corpus read by
``build_text_dataset``). The program under test only ever sees those inputs.

``SIZES`` fixes how much work one run does. ``full`` is what the benchmark
measures; ``tiny`` exists so the self-tests can run every code path in a few
seconds. The training schedules set ``patience`` to the epoch budget so that
the number of epochs, and with it the work per run, cannot drift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from sparselocal import ModelConfig, TrainSchedule, make_synthetic, split_dataset
from sparselocal.data import build_text_dataset, load_image_dataset, write_idx_images, write_idx_labels
from sparselocal.digits import make_digit_images

NAMES = ("synthetic", "digits", "text")

# n: samples generated; epochs: (coarse, fine) under a fixed schedule.
SIZES = {
    "full": {
        "synthetic": {"n": 4000, "epochs": (6, 4)},
        "digits": {"n": 1700, "epochs": (3, 0)},
        "text": {"n": 800, "epochs": (1, 1)},
    },
    "tiny": {
        "synthetic": {"n": 300, "epochs": (1, 1)},
        "digits": {"n": 120, "epochs": (1, 1)},
        "text": {"n": 160, "epochs": (1, 1)},
    },
}

# digits: share of the rendered images that form the test split.
DIGIT_TEST_SHARE = 0.25


@dataclass
class Inputs:
    """The splits of one workload and the model/schedule that train on them."""

    name: str
    train: list
    val: list
    test: list
    config: ModelConfig
    schedule: TrainSchedule
    k_target: int
    feature_names: list
    generate_s: float  # wall time to produce the raw inputs (arrays or files)
    ingest_s: float  # wall time to read them back into samples and split them


def _schedule(epochs, k_target, adam_lr=1e-3, batch_size=64):
    coarse, fine = epochs
    return TrainSchedule(
        adam_lr=adam_lr, k_coarse=10, k_target=k_target, batch_size=batch_size,
        max_coarse_epochs=coarse, max_fine_epochs=fine, patience=max(coarse, fine),
    )


def _synthetic(size, seed, workdir):
    d = 20
    t0 = time.perf_counter()
    ds = make_synthetic(size["n"], d, seed=seed)
    t1 = time.perf_counter()
    train, val, test = split_dataset(ds.samples, [0.7, 0.05, 0.25], seed=seed)
    t2 = time.perf_counter()
    config = ModelConfig(d=d, k=1, extractor={"kind": "vector", "dim": d + 2}, fc_width=128)
    return Inputs("synthetic", train, val, test, config, _schedule(size["epochs"], 1), 1,
                  ds.feature_names, t1 - t0, t2 - t1)


def _digits(size, seed, workdir):
    n = size["n"]
    n_test = int(round(n * DIGIT_TEST_SHARE))
    t0 = time.perf_counter()
    images, digits = make_digit_images(n, seed=seed)
    paths = {name: workdir / f"{name}.idx" for name in ("train-images", "train-labels", "test-images", "test-labels")}
    write_idx_images(paths["train-images"], images[n_test:])
    write_idx_labels(paths["train-labels"], digits[n_test:])
    write_idx_images(paths["test-images"], images[:n_test])
    write_idx_labels(paths["test-labels"], digits[:n_test])
    t1 = time.perf_counter()
    train_ds = load_image_dataset(paths["train-images"], paths["train-labels"])
    test_ds = load_image_dataset(paths["test-images"], paths["test-labels"], id_prefix="t")
    train, val = split_dataset(train_ds.samples, [0.92, 0.08], seed=seed)
    t2 = time.perf_counter()
    config = ModelConfig(
        d=49, k=10,
        extractor={"kind": "image", "in_shape": [1, 28, 28], "channels": [16, 32, 64]},
        fc_layers=1, fc_width=128,
    )
    # k_target equals k_coarse here, so a fine epoch would only lower tau; with
    # (2, 1) epochs test accuracy ranged 0.83-0.92 over seeds, with (3, 0) 0.89-0.95.
    return Inputs("digits", train, val, test_ds.samples, config, _schedule(size["epochs"], 10), 10,
                  train_ds.feature_names, t1 - t0, t2 - t1)


# text corpus shape: a Zipf filler vocabulary, per-class cue words, shared
# common words, and 8-40 tokens per line.
TEXT_LABELS = ("alpha", "beta", "gamma")
TEXT_FILLER_WORDS = 12000
TEXT_ZIPF_EXPONENT = 0.9
TEXT_CUES_PER_CLASS = 12
TEXT_COMMON_WORDS = 24


def write_text_corpus(path, n, seed):
    """Write an n-line ``label<TAB>text`` corpus drawn from ``seed``.

    Each line holds three distinct cue words of its class, two distinct
    common words and Zipf-distributed filler. The cue and common words
    recur in every few lines, so every line keeps at least five distinct
    in-vocabulary tokens after ``min_freq=2`` and k_target=5 is feasible.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, TEXT_FILLER_WORDS + 1, dtype=np.float64)
    zipf = ranks**-TEXT_ZIPF_EXPONENT
    zipf /= zipf.sum()
    lines = []
    for _ in range(n):
        label = int(rng.integers(len(TEXT_LABELS)))
        length = int(rng.integers(8, 41))
        cues = [f"cue{label}x{j}" for j in rng.choice(TEXT_CUES_PER_CLASS, size=3, replace=False)]
        common = [f"common{j}" for j in rng.choice(TEXT_COMMON_WORDS, size=2, replace=False)]
        filler = [f"w{j}" for j in rng.choice(TEXT_FILLER_WORDS, size=length - 5, p=zipf)]
        tokens = cues + common + filler
        rng.shuffle(tokens)
        lines.append(f"{TEXT_LABELS[label]}\t{' '.join(tokens)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _text(size, seed, workdir):
    path = workdir / "corpus.tsv"
    t0 = time.perf_counter()
    write_text_corpus(path, size["n"], seed)
    t1 = time.perf_counter()
    ds = build_text_dataset(path, min_freq=2)
    train, val, test = split_dataset(ds.samples, [0.6, 0.1, 0.3], seed=seed)
    t2 = time.perf_counter()
    config = ModelConfig(
        d=ds.d, k=5,
        extractor={"kind": "text", "vocab_size": len(ds.vocab), "pad_index": ds.vocab.oov_index},
        fc_layers=1, fc_width=128, num_classes=ds.num_classes,
    )
    # At Adam's default lr, two epochs leave test accuracy anywhere in 0.5-0.8
    # depending on the seed; 3e-3 gives 0.87-0.98 in batches of 64 and 0.99-1.0
    # in batches of 32, so the quality guard is steady. Batches of 32 also
    # double the steps a run times: a 64-sample step takes about 0.6 s.
    schedule = _schedule(size["epochs"], 5, adam_lr=3e-3, batch_size=32)
    return Inputs("text", train, val, test, config, schedule, 5, ds.feature_names, t1 - t0, t2 - t1)


_BUILDERS = {"synthetic": _synthetic, "digits": _digits, "text": _text}


def make_inputs(name, seed, workdir, size="full"):
    """Generate and ingest the inputs of workload ``name`` inside ``workdir``."""
    return _BUILDERS[name](SIZES[size][name], seed, workdir)
