"""Seeded end-to-end outputs are pinned bytes: a given seed gives these outputs, bit for bit.

Each workload is perfbench's ``tiny`` input at seed 1, trained by
``coarse_to_fine_train`` under its fixed schedule from a model and rng
seeded with 1. The test pins SHA-256 prefixes of the per-epoch log, the
parameters, the checkpoint file, and over the first 200 test samples the
hard labels, the soft labels (rng seed 5), ``explain_batch`` and
``margin``. A change that is meant to compute the same thing must leave
every row as it is.

The bits depend on the BLAS build and the kernels it picks for this CPU,
so the table is keyed by a canary: the hash of a few GEMMs of the
trunk's shapes at 1, 7 and 64 rows. A machine whose canary is not in the
table fails with the canary and the BLAS build in the message; its row
is recorded on purpose, from a commit known to compute the pinned
outputs, never filled in to make a failure pass.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sparselocal import GatedLocalLinear, coarse_to_fine_train
from sparselocal.checkpoint import save_checkpoint

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
SOFT_SEED = 5
SAMPLES = 200

# canary -> workload -> output -> SHA-256 prefix
GOLDEN = {
    "e4a15b46c2b517bd": {  # numpy 2.4.6, OpenBLAS 0.3.31 (DYNAMIC_ARCH) on x86-64, BLAS at one thread
        "synthetic": {
            "log": "4026e8504a831101", "params": "28c49254185f3a17", "checkpoint": "f8985002c45d4c0d",
            "hard": "b8215293b9672b46", "soft": "63d165dac3f17a8a",
            "explain": "7311341dfd1c31fb", "margin": "7fdc6a401e5d0c04",
        },
        "digits": {
            "log": "81200d2ddfcee63b", "params": "1089eed1d7c25c39", "checkpoint": "853294e364b36fa3",
            "hard": "cea76c1100d9cd49", "soft": "fb3349169a852b1b",
            "explain": "02d627b0d16e9923", "margin": "2496460867322ebb",
        },
        "text": {
            "log": "1cdfd509675cb2e0", "params": "975f8cbcbe020265", "checkpoint": "dc8323508ce928a4",
            "hard": "fd1e3e2734a9814c", "soft": "261004a5bbef7d72",
            "explain": "c676bf76bca291f9", "margin": "f3b35c56bb7997ce",
        },
    },
    "5ab894376b9df501": {  # numpy 2.4.6, OpenBLAS 0.3.31 (DYNAMIC_ARCH) on x86-64, BLAS at two or more threads
        "synthetic": {
            "log": "4026e8504a831101", "params": "28c49254185f3a17", "checkpoint": "f8985002c45d4c0d",
            "hard": "b8215293b9672b46", "soft": "63d165dac3f17a8a",
            "explain": "7311341dfd1c31fb", "margin": "7fdc6a401e5d0c04",
        },
        "digits": {
            "log": "81200d2ddfcee63b", "params": "5d6d007d0b6d6cf1", "checkpoint": "33abb9b65d7ae509",
            "hard": "cea76c1100d9cd49", "soft": "fb3349169a852b1b",
            "explain": "c9b3a062adb44b6e", "margin": "b933a7fb9493b3f0",
        },
        "text": {
            "log": "ab38d0491176bd48", "params": "fcedd3296282ccba", "checkpoint": "ba7e0eb87cd1df5a",
            "hard": "fd1e3e2734a9814c", "soft": "261004a5bbef7d72",
            "explain": "9f7eeded9d3a0ed9", "margin": "34a958e638432e32",
        },
    },
}


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def _json(value):
    return json.dumps(value, sort_keys=True).encode()


def blas_canary():
    """The hash of trunk-shaped products of 1, 7 and 64 samples.

    Per sample count: digits layer 2's conv GEMM over its column-major
    im2col rows and its kernel gradient, whose reduction runs over every
    output position (OpenBLAS rounds it by its thread count at 7 samples),
    then the hidden layer and the head.
    """
    rng = np.random.default_rng(0)
    products = []
    for n in (1, 7, 64):
        flat, gflat = rng.normal(size=(144, n * 196)).T, rng.normal(size=(n * 196, 32))
        products += [flat @ rng.normal(size=(32, 144)).T, gflat.T @ flat]
        for n_in, n_out in ((576, 128), (128, 49)):
            products.append(rng.normal(size=(n, n_in)) @ rng.normal(size=(n_in, n_out)))
    return _sha(*products)


def seeded_outputs(name, workdir):
    """The pinned outputs of workload ``name``, as SHA-256 prefixes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        from workloads import make_inputs

    inputs = make_inputs(name, SEED, workdir, size="tiny")
    rng = np.random.default_rng(SEED)
    model = GatedLocalLinear(inputs.config, rng)
    log = coarse_to_fine_train(model, inputs.train, inputs.val, inputs.schedule, rng)
    params = model.named_parameters()
    save_checkpoint(workdir / "model.sllm", model, schedule=inputs.schedule, phase_log=log)
    test = inputs.test[:SAMPLES]
    explained = [[e.sample_id, e.prediction, e.entries]
                 for e in model.explain_batch(test, feature_names=inputs.feature_names)]
    return {
        "log": _sha(_json(log)),
        "params": _sha(*[part for key in sorted(params) for part in (key.encode(), params[key].data)]),
        "checkpoint": _sha((workdir / "model.sllm").read_bytes()),
        "hard": _sha(model.predict_labels(test)),
        "soft": _sha(model.predict_labels(test, mode="soft", rng=np.random.default_rng(SOFT_SEED))),
        "explain": _sha(_json(explained)),
        "margin": _sha(_json([model.margin(s) for s in test])),
    }


@pytest.mark.parametrize("name", ["synthetic", "digits", "text"])
def test_seeded_outputs_are_the_pinned_bytes(name, tmp_path, blas_build):
    canary = blas_canary()
    if canary not in GOLDEN:
        pytest.fail(f"no golden row for BLAS canary {canary} on {blas_build}")
    got = seeded_outputs(name, tmp_path)
    want = GOLDEN[canary][name]
    changed = {key: f"{want[key]} -> {got[key]}" for key in want if got[key] != want[key]}
    assert not changed, f"{name}: seeded outputs changed on canary {canary}, {blas_build}: {changed}"
