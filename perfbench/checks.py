"""Output checks that do not trust the code under test.

An explanation is correct when its selected indices are the k largest
``w**2`` among live features (a stable argsort of ``-w**2``, ties to the
lowest index), its prediction is ``z . (g * w)`` for that selection, and
its sign or class agrees with batched ``predict_labels``. ``w`` comes from
``generate_weights`` of the served model; the checkpoint round trip is
checked separately by requiring those weights to be bitwise equal before
and after it.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance on a prediction recomputed as z . (g * w); the model
# computes the same expression, so any difference beyond rounding is an error.
PREDICTION_RTOL = 1e-9


def reference_topk(w, m, k):
    """Indices of the k largest w**2 over live (m == 0) entries, ties to the lowest index."""
    live = np.flatnonzero(np.asarray(m) == 0)
    order = np.argsort(-(np.asarray(w)[live] ** 2), kind="stable")
    return live[order[:k]]


def reference_scores(weights, sample, k):
    """Per head: (reference selection, z . (g * w)) at k clamped to the live count."""
    z = np.asarray(sample.z, dtype=np.float64)
    m = np.asarray(sample.m)
    rows = np.atleast_2d(weights)
    k_eff = min(k, int((m == 0).sum()))
    out = []
    for w in rows:
        idx = reference_topk(w, m, k_eff)
        g = np.zeros_like(w)
        g[idx] = 1.0
        out.append((idx, float(z @ (g * w))))
    return out


def reference_label(scores):
    """Sign of the margin for one head, argmax (lowest index on ties) for several."""
    if len(scores) == 1:
        return 1 if scores[0][1] >= 0 else -1
    return int(np.argmax([s for _, s in scores]))


def explanation_error(expl, scores, batched_label):
    """None when ``expl`` passes all three checks, else the name of the first failed one."""
    if len(scores) == 1:
        selection, expected = scores[0]
        if abs(expl.prediction - expected) > PREDICTION_RTOL * max(1.0, abs(expected)):
            return "prediction"
        sign = 1 if expl.prediction >= 0 else -1
    else:
        label = reference_label(scores)
        if expl.prediction != label:
            return "prediction"
        selection = scores[label][0]
        sign = label
    if list(expl.indices) != selection.tolist():
        return "selection"
    if sign != batched_label:
        return "batched"
    return None


def bitwise_equal(before, after):
    """True when two sequences of arrays hold identical bytes, shapes and dtypes."""
    if len(before) != len(after):
        return False
    return all(
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(before, after)
    )
