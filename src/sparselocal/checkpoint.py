"""Self-describing binary checkpoints for trained models.

Layout: an 8-byte prelude (magic ``SLLM`` and a little-endian uint32
format version), a little-endian uint32 header length, a JSON header,
then the raw parameter payload. The header records the model
configuration, the training schedule, per-parameter names, shapes,
dtypes and offsets, plus a SHA-256 of the payload. Parameters are stored
little-endian at their native 64-bit precision so a load reproduces the
saved model's predictions bit for bit on any host.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .errors import CheckpointError
from .model import GatedLocalLinear, ModelConfig

MAGIC = b"SLLM"
VERSION = 1
DTYPE = "<f8"  # the only payload dtype


def save_checkpoint(path, model, schedule=None, phase_log=None, manifest_sha256=None):
    """Write the model (and training metadata) to ``path``."""
    named = model.named_parameters()
    names = sorted(named)
    entries = []
    chunks = []
    offset = 0
    for name in names:
        data = np.ascontiguousarray(named[name].data, dtype=DTYPE)
        raw = data.tobytes()
        entries.append(
            {"name": name, "shape": list(data.shape), "dtype": DTYPE, "offset": offset, "nbytes": len(raw)}
        )
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    log_digest = None
    if phase_log is not None:
        log_lines = "\n".join(json.dumps(rec, sort_keys=True) for rec in phase_log)
        log_digest = hashlib.sha256(log_lines.encode("utf-8")).hexdigest()
    header = {
        "config": model.config.to_dict(),
        "schedule": schedule.to_dict() if schedule is not None else None,
        "params": entries,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "phase_log_sha256": log_digest,
        "dataset_manifest_sha256": manifest_sha256,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_checkpoint(path):
    """Rebuild the model from ``path``; returns (model, header dict)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    payload = memoryview(raw)[12 + header_len :]  # parameters are read in place, not copied out of raw
    _check_header(path, header, len(payload))
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload checksum mismatch; file is corrupt")

    try:
        config = ModelConfig.from_dict(header["config"])
        model = GatedLocalLinear(config, np.random.default_rng(0))
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid model config ({exc!r})") from exc
    named = model.named_parameters()
    expected = set(named)
    stored = {entry["name"] for entry in header["params"]}
    if stored != expected or len(stored) != len(header["params"]):
        raise CheckpointError(
            f"{path}: parameter set mismatch (missing {sorted(expected - stored)[:3]},"
            f" unexpected {sorted(stored - expected)[:3]})"
        )
    for entry in header["params"]:
        tensor = named[entry["name"]]
        shape = tuple(entry["shape"])
        if shape != tensor.data.shape:
            raise CheckpointError(f"{path}: shape mismatch for parameter {entry['name']!r}")
        values = np.frombuffer(payload, dtype=DTYPE, count=entry["nbytes"] // 8, offset=entry["offset"])
        tensor.data[...] = values.reshape(shape)
    return model, header


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(path, header, payload_len):
    """Raise CheckpointError unless the header has the schema that save_checkpoint writes."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for field, kind in (("payload_sha256", str), ("config", dict), ("params", list)):
        if not isinstance(header.get(field), kind):
            raise CheckpointError(f"{path}: header field {field!r} is missing or not a {kind.__name__}")
    for i, entry in enumerate(header["params"]):
        ok = (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and entry.get("dtype") == DTYPE
            and isinstance(entry.get("shape"), list)
            and all(_is_count(v) for v in entry["shape"])
            and _is_count(entry.get("offset"))
            and _is_count(entry.get("nbytes"))
        )
        if not ok:
            raise CheckpointError(f"{path}: malformed entry {i} in header 'params' (dtype must be {DTYPE!r})")
        end = entry["offset"] + entry["nbytes"]
        if entry["nbytes"] != 8 * math.prod(entry["shape"]) or end > payload_len:
            raise CheckpointError(f"{path}: parameter {entry['name']!r} does not fit the payload")
