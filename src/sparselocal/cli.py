"""Command-line interface: train, eval, explain, bench.

Run configurations and dataset manifests are JSON files; all tabular
output is line-delimited JSON so downstream tooling can parse it without
version sniffing. ``train`` and ``eval`` (whose soft mode draws gates)
take --seed and are deterministic given it; ``explain`` and ``bench``
use the deterministic hard gate and take no seed.

Dataset manifests, resolved relative to the manifest file:

  {"type": "synthetic", "n": 4000, "d": 20, "seed": 7,
   "fractions": [0.7, 0.1, 0.2]}

  {"type": "image", "train_images": "...", "train_labels": "...",
   "test_images": "...", "test_labels": "...", "val_fraction": 0.1,
   "seed": 0, "train_limit": null, "test_limit": null}

  {"type": "text", "path": "corpus.tsv", "min_freq": 2, "counts": false,
   "fractions": [0.7, 0.1, 0.2], "seed": 0, "stopwords": null}

Training config:

  {"dataset": "manifest.json", "seed": 0,
   "model": {"k": 10, "fc_layers": 1, "fc_width": 128,
             "tau_coarse": 1.0, "tau_fine": 0.1},
   "train": {"adam_lr": 1e-3, "k_coarse": 10, "batch_size": 64,
             "max_coarse_epochs": 20, "max_fine_epochs": 15, "patience": 5}}

"model" takes the ``ModelConfig`` settings and the architecture keys of
the dataset's extractor kind (``EXTRACTOR_DEFAULTS``); omitted ones keep
their defaults, and k defaults to 10. "train" takes ``TrainSchedule``.
"seed" (default 0, overridden by --seed) is a non-negative integer.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines as bl
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    build_text_dataset,
    content_tokens,
    image_sample,
    load_image_dataset,
    make_synthetic,
    parse_idx,
    split_dataset,
    text_sample,
)
from .errors import CheckpointError, ConfigError, DataFormatError, GateExhaustedError
from .model import EXTRACTOR_DEFAULTS, GatedLocalLinear, ModelConfig
from .render import render_image_svg, render_text_html
from .train import TrainSchedule, coarse_to_fine_train, evaluate


@dataclass
class LoadedData:
    dataset: Dataset
    train: list
    val: list
    test: list

    @property
    def all_samples(self):
        return self.train + self.val + self.test


def _emit(record, stream=None):
    (stream or sys.stdout).write(json.dumps(record, sort_keys=True) + "\n")


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} file {path} holds a JSON {type(payload).__name__}, not an object")
    return payload


def load_manifest(path):
    """Train/validation/test splits from a dataset manifest; a bad field is a ConfigError."""
    manifest = _read_json(path, "dataset manifest")
    try:
        return _load_splits(manifest, Path(path).parent)
    except KeyError as exc:
        raise ConfigError(f"dataset manifest {path} is missing required field {exc}") from exc
    except DataFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dataset manifest {path} has a bad field: {exc}") from exc


def _load_splits(manifest, base):
    kind = manifest.get("type")
    if kind == "image":
        parts = {}
        for part in ("train", "test"):
            try:
                parts[part] = load_image_dataset(
                    base / manifest[f"{part}_images"], base / manifest[f"{part}_labels"],
                    limit=manifest.get(f"{part}_limit"), id_prefix=part,
                )
            except ConfigError as exc:
                raise ConfigError(f'field "{part}_limit": {exc}') from None
        train_ds, test_ds = parts["train"], parts["test"]
        val_fraction = manifest.get("val_fraction", 0.1)
        train, val = split_dataset(
            train_ds.samples, [1.0 - val_fraction, val_fraction], manifest.get("seed", 0)
        )
        return LoadedData(train_ds, train, val, test_ds.samples)
    if kind == "synthetic":
        ds = make_synthetic(manifest["n"], manifest["d"], manifest["seed"])
    elif kind == "text":
        stopwords = None
        if manifest.get("stopwords"):
            stop_path = base / manifest["stopwords"]
            stopwords = frozenset(stop_path.read_text(encoding="utf-8").split())
        ds = build_text_dataset(
            base / manifest["path"],
            min_freq=manifest.get("min_freq", 2),
            stopwords=stopwords,
            counts=manifest.get("counts", False),
        )
    else:
        raise ConfigError(f'dataset manifest has unknown type {kind!r}; expected synthetic, image or text')
    fractions = manifest.get("fractions", [0.7, 0.1, 0.2])
    if len(fractions) != 3:
        raise ValueError(f"fractions needs three entries (train, validation, test), got {fractions!r}")
    train, val, test = split_dataset(ds.samples, fractions, manifest.get("seed", 0))
    return LoadedData(ds, train, val, test)


def build_model_config(dataset, model_cfg):
    """``ModelConfig`` from a "model" section plus what the dataset decides: d, classes, input size."""
    if not isinstance(model_cfg, dict):
        raise ConfigError('config field "model" must be a JSON object')
    if not dataset.samples:
        raise ConfigError("the dataset has no samples")
    sample = dataset.samples[0]
    if dataset.kind == "image":
        extractor = {"kind": "image", "in_shape": list(sample.x.shape)}
    elif dataset.kind == "vector":
        extractor = {"kind": "vector", "dim": int(np.asarray(sample.x).shape[0])}
    else:
        extractor = {"kind": "text", "vocab_size": len(dataset.vocab), "pad_index": dataset.vocab.oov_index}
    fields = {f.name for f in dataclasses.fields(ModelConfig)} - {"d", "num_classes", "extractor"}
    arch = set(EXTRACTOR_DEFAULTS[dataset.kind]) - set(extractor)
    unknown = sorted(model_cfg.keys() - fields - arch)
    if unknown:
        raise ConfigError(f"unknown or dataset-decided model keys for a {dataset.kind} dataset: {unknown}")
    settings = {"k": 10, **{key: model_cfg[key] for key in model_cfg.keys() & fields}}
    extractor.update({key: model_cfg[key] for key in model_cfg.keys() & arch})
    try:
        return ModelConfig(d=dataset.d, num_classes=dataset.num_classes, extractor=extractor, **settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def _file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_seed(seed):
    """The seed of ``train`` and ``eval``: a non-negative integer, else a ConfigError."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"the seed must be a non-negative integer, got {seed!r}")
    return seed


def cmd_train(args):
    config = _read_json(args.config, "config")
    if not isinstance(config.get("dataset"), str):
        raise ConfigError('config is missing required field "dataset", or it is not a path string')
    seed = _check_seed(args.seed if args.seed is not None else config.get("seed", 0))
    manifest_path = Path(args.config).parent / config["dataset"]
    data = load_manifest(manifest_path)

    cfg = build_model_config(data.dataset, config.get("model", {}))
    try:
        schedule = TrainSchedule(**{"k_target": cfg.k, **config.get("train", {})})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train section: {exc}") from exc

    rng = np.random.default_rng(seed)
    model = GatedLocalLinear(cfg, rng)
    log_path = Path(args.log) if args.log else Path(args.checkpoint).with_suffix(".log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_fh:

        def progress(record):
            _emit(record)
            _emit(record, log_fh)

        log = coarse_to_fine_train(model, data.train, data.val, schedule, rng, progress=progress)

    save_checkpoint(
        args.checkpoint, model, schedule=schedule, phase_log=log,
        manifest_sha256=_file_sha256(manifest_path),
    )
    final = {
        "event": "trained",
        "checkpoint": str(args.checkpoint),
        "log": str(log_path),
        "epochs": len(log),
        "val_acc": log[-1]["val_acc"] if log else None,
        "seed": seed,
    }
    _emit(final)
    return 0


def _parse_k_list(text):
    try:
        ks = [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--k must be a comma-separated list of integers, got {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"--k values must be positive, got {text!r}")
    return ks


def cmd_eval(args):
    rng = np.random.default_rng(_check_seed(args.seed))
    model, _header = load_checkpoint(args.checkpoint)
    data = load_manifest(args.dataset)
    if not data.test:
        raise ConfigError("evaluation needs a non-empty test split")
    ks = _parse_k_list(args.k)
    if args.dense and model.config.num_classes != 2:
        raise ConfigError("dense truncation evaluation supports binary models only")
    if args.baselines and model.config.num_classes != 2:
        raise ConfigError("linear baselines support binary labels only")
    for k in ks:
        acc = evaluate(model, data.test, k=k, mode=args.mode, rng=rng)
        _emit({"model": "gated", "k": k, "mode": args.mode, "accuracy": acc})
    if args.dense:
        # the top-k of the dense weights is the hard gate over samples with every feature live
        unmasked = [replace(s, m=np.zeros_like(s.m)) for s in data.test]
        for k in ks:
            _emit({"model": "dense_topk", "k": k, "accuracy": evaluate(model, unmasked, k)})
    if args.baselines:
        for name, fit in (("ridge", bl.ridge_fit), ("lasso", bl.lasso_fit)):
            linear, alpha = bl.select_alpha(fit, data.train, data.val)
            for k in ks:
                _emit({
                    "model": name,
                    "k": k,
                    "accuracy": bl.topk_truncate_eval(linear.weights, data.test, k),
                    "alpha": alpha,
                })
    return 0


def _sample_from_file(path, data):
    """Build an unlabeled sample from a raw input file (text line or IDX image)."""
    ds = data.dataset
    if ds.kind == "text":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: sample is not UTF-8 text ({exc.reason})") from exc
        return text_sample(str(path), content_tokens(text, ds.stopwords), 1, ds.vocab, ds.counts)
    if ds.kind == "image":
        images = parse_idx(path)
        if images.ndim != 3 or not len(images):
            raise DataFormatError(f"{path}: expected an IDX image file holding at least one image")
        return image_sample(str(path), images[0], 1)
    raise ConfigError(f"file-based samples are not supported for {data.dataset.kind!r} datasets")


def _locate_sample(args, data):
    wanted = args.sample
    if wanted is not None and Path(str(wanted)).is_file():
        return _sample_from_file(wanted, data)
    pool = data.all_samples
    if wanted is None:
        return pool[0]
    for s in pool:
        if str(s.id) == str(wanted):
            return s
    try:
        index = int(wanted)
    except ValueError:
        index = len(pool)  # not an integer, so not found
    if index < 0:
        raise ConfigError(f"sample index must be non-negative, got {index}")
    if index >= len(pool):
        raise ConfigError(f"sample {wanted!r} not found in the dataset")
    return pool[index]


def cmd_explain(args):
    model, _header = load_checkpoint(args.checkpoint)
    data = load_manifest(args.dataset)
    sample = _locate_sample(args, data)
    k = model.config.k if args.k is None else args.k
    if k < 1:
        raise ConfigError(f"--k must be at least 1, got {k}")
    explanation = model.explain(sample, k=k, feature_names=data.dataset.feature_names)
    record = {
        "sample_id": explanation.sample_id,
        "prediction": explanation.prediction,
        "mode": "hard",
        "k": k,
        "entries": [
            {"index": i, "name": n, "weight": w} for i, n, w in explanation.entries
        ],
    }
    _emit(record)
    if args.svg:
        if data.dataset.kind != "image":
            raise ConfigError("--svg is only available for image datasets")
        side = int(round(np.sqrt(model.config.d)))
        render_image_svg(sample.x[0], explanation.entries, side, args.svg)
        _emit({"event": "wrote", "path": str(args.svg)})
    if args.html:
        if data.dataset.kind != "text":
            raise ConfigError("--html is only available for text datasets")
        tokens = sample.tokens
        if tokens is None:
            tokens = [data.dataset.vocab.tokens[i] for i in np.asarray(sample.x, dtype=int)]
        render_text_html(tokens, data.dataset.vocab, explanation.entries, explanation.prediction, args.html)
        _emit({"event": "wrote", "path": str(args.html)})
    return 0


def cmd_bench(args):
    model, _header = load_checkpoint(args.checkpoint)
    data = load_manifest(args.dataset)
    pool = list(data.test) or data.all_samples
    if not pool:
        raise ConfigError("benchmark needs at least one sample")
    names = data.dataset.feature_names
    reps = args.reps
    if reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {reps}")
    for k in _parse_k_list(args.k):
        usable = [s for s in pool if s.live_count >= k]
        if not usable:
            raise ConfigError(f"no sample has {k} unmasked features to benchmark")
        for i in range(min(10, reps)):  # warm-up draws are not measured
            model.explain(usable[i % len(usable)], k=k, feature_names=names)
        times = np.empty(reps)
        for i in range(reps):
            sample = usable[i % len(usable)]
            start = time.perf_counter()
            model.explain(sample, k=k, feature_names=names)
            times[i] = time.perf_counter() - start
        _emit({
            "k": k,
            "reps": reps,
            "mean_ms": float(times.mean() * 1e3),
            "sd_ms": float(times.std(ddof=1) * 1e3) if reps > 1 else 0.0,
            "p50_ms": float(np.percentile(times, 50) * 1e3),
            "p95_ms": float(np.percentile(times, 95) * 1e3),
        })
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparselocal",
        description="Train, evaluate, and explain per-sample sparse linear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run coarse-to-fine training from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--checkpoint", required=True)
    p_train.add_argument("--log", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="accuracy table over a list of gate counts")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--k", default="1,5,10")
    p_eval.add_argument("--mode", choices=["hard", "soft"], default="hard")
    p_eval.add_argument("--dense", action="store_true", help="also evaluate top-k truncated dense weights")
    p_eval.add_argument("--baselines", action="store_true", help="also fit and evaluate ridge and lasso")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(fn=cmd_eval)

    p_explain = sub.add_parser("explain", help="explanation record for one sample")
    p_explain.add_argument("--checkpoint", required=True)
    p_explain.add_argument("--dataset", required=True)
    p_explain.add_argument("--sample", default=None, help="sample id, integer index, or input file")
    p_explain.add_argument("--k", type=int, default=None)
    p_explain.add_argument("--svg", default=None)
    p_explain.add_argument("--html", default=None)
    p_explain.set_defaults(fn=cmd_explain)

    p_bench = sub.add_parser("bench", help="per-sample explanation latency")
    p_bench.add_argument("--checkpoint", required=True)
    p_bench.add_argument("--dataset", required=True)
    p_bench.add_argument("--k", default="1,5,10")
    p_bench.add_argument("--reps", type=int, default=100)
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GateExhaustedError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
