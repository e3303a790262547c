"""Property tests: truncated or mutated input files raise only their reader's typed error.

Each reader either returns its result or raises its own error type:
``parse_idx`` and ``build_text_dataset`` a ``DataFormatError``,
``load_manifest`` a ``ConfigError`` and ``load_checkpoint`` a
``CheckpointError``. Hypothesis runs derandomized, so every run tries the
same inputs.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselocal.checkpoint import load_checkpoint, save_checkpoint
from sparselocal.cli import load_manifest
from sparselocal.data import IMAGE_MAGIC, LABEL_MAGIC, build_text_dataset, parse_idx
from sparselocal.errors import CheckpointError, ConfigError, DataFormatError
from sparselocal.model import GatedLocalLinear, ModelConfig

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)

# bytes that turn valid JSON and numbers into other valid JSON and numbers
_SYNTAX = b'-0129e."[]{},: '


def _edit(blob, cut, edits):
    out = bytearray(blob)
    for i, value in edits:
        out[i] = value
    return bytes(out[:cut])


def mutated(blob, lo=0, hi=None):
    """``blob`` with up to four bytes in ``[lo, hi)`` overwritten, sometimes cut short."""
    hi = len(blob) if hi is None else hi
    cut = st.one_of(st.just(len(blob)), st.integers(0, len(blob)))
    byte = st.one_of(st.integers(0, 255), st.sampled_from(_SYNTAX))
    edits = st.lists(st.tuples(st.integers(lo, hi - 1), byte), max_size=4)
    return st.builds(_edit, st.just(blob), cut, edits)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _images_blob():
    images = np.arange(3 * 4 * 4, dtype=np.uint8).reshape(3, 4, 4)
    return struct.pack(">iiii", IMAGE_MAGIC, 3, 4, 4) + images.tobytes()


@FUZZ
@given(raw=st.one_of(mutated(_images_blob()), mutated(struct.pack(">ii", LABEL_MAGIC, 5) + bytes(range(5)))))
def test_parse_idx_raises_only_data_format_errors(scratch, raw):
    path = scratch / "fuzz.idx"
    path.write_bytes(raw)
    try:
        out = parse_idx(path)
    except DataFormatError:
        return
    assert out.dtype == np.uint8 and out.ndim in (1, 3)


@FUZZ
@given(
    magic=st.sampled_from([IMAGE_MAGIC, LABEL_MAGIC]),
    dims=st.tuples(*[st.integers(-3, 3)] * 3),
    payload=st.integers(0, 30),
)
def test_parse_idx_header_sizes(scratch, magic, dims, payload):
    path = scratch / "sizes.idx"
    path.write_bytes(struct.pack(">iiii", magic, *dims) + bytes(payload))
    try:
        out = parse_idx(path)
    except DataFormatError:
        return
    assert out.size == payload and all(v >= 0 for v in out.shape)


_CORPUS = "+1\tgreat film great plot\n-1\tdull film dull plot\n+1\tgreat acting\n-1\tdull acting\n".encode()


@FUZZ
@given(raw=mutated(_CORPUS))
def test_build_text_dataset_raises_only_data_format_errors(scratch, raw):
    path = scratch / "corpus.tsv"
    path.write_bytes(raw)
    try:
        ds = build_text_dataset(path, min_freq=2)
    except DataFormatError:
        return
    assert ds.samples and all(s.z.shape == (ds.d,) for s in ds.samples)


_MANIFEST = json.dumps({"type": "synthetic", "n": 40, "d": 6, "seed": 3, "fractions": [0.5, 0.25, 0.25]}).encode()


@FUZZ
@given(raw=mutated(_MANIFEST))
def test_load_manifest_raises_only_config_errors(scratch, raw):
    path = scratch / "manifest.json"
    path.write_bytes(raw)
    try:
        data = load_manifest(path)
    except ConfigError:
        return
    assert len(data.all_samples) == len(data.dataset.samples)


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    cfg = ModelConfig(d=4, k=2, extractor={"kind": "vector", "dim": 6}, fc_width=3)
    save_checkpoint(path, GatedLocalLinear(cfg, np.random.default_rng(0)))
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_load_checkpoint_raises_only_checkpoint_errors(scratch, checkpoint_blob, data):
    (header_len,) = struct.unpack("<I", checkpoint_blob[8:12])
    in_header = mutated(checkpoint_blob, 12, 12 + header_len)  # the payload checksum does not cover these bytes
    path = scratch / "m.ckpt"
    path.write_bytes(data.draw(st.one_of(mutated(checkpoint_blob), in_header)))
    try:
        model, _header = load_checkpoint(path)
    except CheckpointError:
        return
    assert model.named_parameters()
