"""The full model: feature extractor, weight generator, gate, linear head.

A sample carries two representations. The rich one (image pixels, token
sequence, raw feature vector) feeds the weight generator network, which
emits one dense weight vector per sample (one per class for multiclass
problems). The gate keeps exactly k of those weights; the prediction is
the inner product of the gated weights with the simplified
representation, so every prediction decomposes into k named, signed
contributions.

Both models are one network trunk (``WeightGenerator``, which they
subclass) and differ only in its head width: d weights per class for the
gated model, class logits for the plain ``DirectClassifier`` reference.
Every extractor takes the whole batch of rich representations, so the
trunk is one batched forward pass for images, token sequences and
vectors alike.

``batch_loss`` is the one loss: it gates every head's weight rows for
the whole batch with one soft-gate call (``gate.k_hot_gate_rows``) and
scores them with one op (:func:`gated_scores`); a single sample is a
one-sample batch. The dense ablation is ``batch_loss(gated=False)``, the
same loss with every gate open.
Inference (``margin``, ``predict_labels`` and ``explain_batch``) is one
pass over chunks of ``CHUNK`` samples: per chunk, the weight grid, one
gate call for every head (hard ``gate.k_hot_gate``, or soft draws for
``predict_labels(mode="soft")``) and the scores. So its memory depends
on the chunk size, not on the length of the list.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import gate as gt
from .errors import GateExhaustedError


CHUNK = 256  # samples per inference pass; its memory scales with this, not with the list

# Per-kind architecture defaults; the data decides in_shape (image), dim (vector) and vocab_size (text).
EXTRACTOR_DEFAULTS = {"image": {"channels": (16, 32, 64)}, "vector": {},
                      "text": {"embed_dim": 64, "filter_widths": (3, 4, 5), "filters": 32, "pad_index": 0}}


@dataclass
class ModelConfig:
    """Architecture and gate temperatures; ``EXTRACTOR_DEFAULTS`` fill the extractor spec's gaps."""

    d: int
    k: int
    extractor: dict
    fc_layers: int = 1  # hidden layers between extractor and weight head
    fc_width: int = 128
    num_classes: int = 2
    tau_coarse: float = 1.0
    tau_fine: float = 0.1

    def __post_init__(self):
        kind = self.extractor.get("kind") if isinstance(self.extractor, dict) else None
        if kind not in EXTRACTOR_DEFAULTS:
            raise ValueError(f"unknown extractor kind {kind!r}")
        self.extractor = {**EXTRACTOR_DEFAULTS[kind], **self.extractor}
        spec = self.extractor
        sizes = [(key, spec[key]) for key in ("embed_dim", "filters") if key in spec]
        sizes += [(f"{key} entry", v) for key in ("channels", "filter_widths") for v in spec.get(key, ())]
        bad = [f"{key} {v!r}" for key, v in sizes if not v >= 1]
        if bad:
            raise ValueError(f"extractor sizes must be at least 1, got {', '.join(bad)}")
        if kind == "text" and len(spec["filter_widths"]) == 0:
            raise ValueError("a text extractor needs at least one filter width")
        if not 1 <= self.k <= self.d:
            raise ValueError(f"k must satisfy 1 <= k <= d, got k={self.k}, d={self.d}")
        if self.fc_layers < 1 or self.fc_width < 1:
            raise ValueError("at least one fully-connected layer, of width at least 1, is required")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not self.tau_coarse > self.tau_fine > 0:
            raise ValueError("temperatures must satisfy tau_coarse > tau_fine > 0")

    @property
    def heads(self):
        return 1 if self.num_classes == 2 else self.num_classes

    def to_dict(self):
        return asdict(self)  # copies the extractor dict

    @classmethod
    def from_dict(cls, payload):
        return cls(**payload)


@dataclass
class Explanation:
    """Ranked open-gate features with signed weights, plus the prediction."""

    prediction: float
    entries: list  # (feature_index, feature_name, weight), |weight| descending
    sample_id: object = None

    @property
    def indices(self):
        return [e[0] for e in self.entries]


class _Linear:
    def __init__(self, n_in, n_out, rng, std=None):
        if std is None:
            std = math.sqrt(2.0 / n_in)
        self.weight = ad.Tensor(rng.normal(0.0, std, size=(n_in, n_out)), requires_grad=True)
        self.bias = ad.Tensor(np.zeros((1, n_out)), requires_grad=True)

    def __call__(self, x):
        return ad.matmul(x, self.weight) + self.bias  # the (1, n_out) bias row broadcasts over the batch

    def params(self, prefix):
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


def _stack(xs):
    """One float64 tensor of shape (n, ...) from a batch of equal-shape arrays."""
    return ad.Tensor(np.array(xs, dtype=np.float64))  # one copy; np.stack pays per-array Python set-up


class ImageExtractor:
    """Stacked blocks over (channels, height, width) maps: one ``ad.conv_block`` of 3x3 conv (pad 1), 2x2 pool, relu."""

    def __init__(self, in_shape, channels, rng):
        self.in_shape = tuple(int(v) for v in in_shape)
        sizes = [self.in_shape[0], *(int(c) for c in channels)]
        self.kernels = [ad.Tensor(rng.normal(0.0, math.sqrt(2.0 / (c_in * 9)), size=(c_out, c_in, 3, 3)),
                                  requires_grad=True) for c_in, c_out in zip(sizes, sizes[1:])]
        self.out_dim = self([np.zeros(self.in_shape)]).data.shape[1]

    def __call__(self, xs):
        h = _stack(xs)
        for kernels in self.kernels:
            h = ad.conv_block(h, kernels, 2, padding=1)
        return h.reshape((h.data.shape[0], -1))

    def params(self):
        return {f"extractor.block{i}.kernels": kernels for i, kernels in enumerate(self.kernels)}


class VectorExtractor:
    """Pass-through for samples whose rich representation is already a flat vector."""

    def __init__(self, dim):
        self.dim = int(dim)
        self.out_dim = self.dim

    def __call__(self, xs):
        return _stack(xs)

    def params(self):
        return {}


class TextExtractor:
    """Embedding, parallel 1-d convolutions of several widths, global max pooling.

    A batch is encoded as its sequences' embedding rows one after another:
    each id sequence is padded with ``pad_index`` (the out-of-vocabulary
    id) up to the widest filter, as if the sample carried that padding,
    and no further. One ``ad.sequence_conv_pool`` per filter width takes
    relu of each sequence's maximum over its own windows, so each row and
    its gradient are those of the sequence alone, and a batch pays only
    for its own tokens.
    """

    def __init__(self, vocab_size, rng, embed_dim, filter_widths, filters, pad_index):
        self.embed_dim = int(embed_dim)
        self.filter_widths = tuple(int(w) for w in filter_widths)
        self.filters = int(filters)
        self.pad_index = int(pad_index)
        self.embed = ad.Tensor(rng.normal(0.0, 0.1, size=(vocab_size, self.embed_dim)), requires_grad=True)
        self.kernels = [
            ad.Tensor(
                rng.normal(0.0, math.sqrt(2.0 / (w * self.embed_dim)), size=(self.filters, 1, w, self.embed_dim)),
                requires_grad=True,
            )
            for w in self.filter_widths
        ]
        self.out_dim = self.filters * len(self.filter_widths)

    def __call__(self, xs):
        seqs = [np.asarray(x, dtype=np.int64) for x in xs]
        floor = max(self.filter_widths)
        pad = np.full(floor, self.pad_index, dtype=np.int64)
        emb = ad.gather_rows(self.embed, np.concatenate([part for s in seqs for part in (s, pad[s.size :])]))
        lengths = np.maximum([s.size for s in seqs], floor)
        return ad.concat([ad.sequence_conv_pool(emb, lengths, kernels) for kernels in self.kernels], axis=1)

    def params(self):
        out = {"extractor.embed": self.embed}
        for w, kernels in zip(self.filter_widths, self.kernels):
            out[f"extractor.conv{w}.kernels"] = kernels
        return out


def _build_extractor(spec, rng):
    if spec["kind"] == "image":
        return ImageExtractor(spec["in_shape"], spec["channels"], rng)
    if spec["kind"] == "vector":
        return VectorExtractor(spec["dim"])
    return TextExtractor(
        spec["vocab_size"], rng, spec["embed_dim"], spec["filter_widths"], spec["filters"], spec["pad_index"]
    )


class WeightGenerator:
    """The one network trunk: extractor, hidden layers and a linear head of ``width`` outputs."""

    def __init__(self, config: ModelConfig, rng, width):
        self.config = config
        self.extractor = _build_extractor(config.extractor, rng)
        self.hidden = []
        n_in = self.extractor.out_dim
        for _ in range(config.fc_layers):
            self.hidden.append(_Linear(n_in, config.fc_width, rng))
            n_in = config.fc_width
        self.head = _Linear(n_in, width, rng, std=math.sqrt(1.0 / n_in))

    def rows(self, xs):
        """Head outputs for a batch of rich representations, shape (n, width)."""
        h = self.extractor(xs)
        for layer in self.hidden:
            h = ad.relu(layer(h))
        return self.head(h)

    def named_parameters(self):
        out = dict(self.extractor.params())
        for i, layer in enumerate(self.hidden):
            out.update(layer.params(f"hidden{i}"))
        out.update(self.head.params("head"))
        return out

    def parameters(self):
        return list(self.named_parameters().values())


def _binary_targets(samples):
    y = np.array([s.y for s in samples], dtype=np.float64)
    bad = [s.id for s in samples if s.y not in (-1, 1)]
    if bad:
        raise ValueError(f"binary labels must be +1 or -1; offending sample ids: {bad[:5]}")
    return y


def _class_targets(samples, num_classes):
    y = np.array([s.y for s in samples], dtype=np.int64)
    if ((y < 0) | (y >= num_classes)).any():
        bad = [s.id for s in samples if not 0 <= s.y < num_classes]
        raise ValueError(f"class labels must lie in [0, {num_classes}); offending sample ids: {bad[:5]}")
    return y


def gated_scores(z, w, g=None):
    """Every head's score z . (g * w) as one op: (n, heads) from (n, d) z and (n, heads·d) rows w and gate g.

    ``g=None`` opens every gate. The bits are those of the graph ``z * g * w`` over z tiled per head, summed over
    d: ``(z * g) * w`` forward, ``dw = G * (z * g)`` and ``dg = (G * w) * z`` back, up to the sign of a NaN that
    meets a NaN of the other sign, which numpy's loops pick by their blocking.
    """
    shape = (len(z), w.data.shape[1] // z.shape[1], z.shape[1])
    z3, w3 = z[:, None, :], w.data.reshape(shape)
    zg = z3 if g is None else z3 * g.data.reshape(shape)

    def backward(grad):
        grad = grad[:, :, None]
        ad.accumulate_grad(w, (grad * zg).reshape(w.data.shape), fresh=True)
        if g is not None:  # a parent that needs no gradient takes none
            ad.accumulate_grad(g, (grad * w3 * z3).reshape(g.data.shape), fresh=True)

    return ad.make_op((zg * w3).sum(axis=2), (w,) if g is None else (g, w), "scores", backward)


def _live(samples, need=0):
    """Boolean (n, d) array of the samples' unmasked features, of which each sample needs ``need``."""
    live = np.array([s.m for s in samples]) == 0
    if need:
        counts = live.sum(axis=1)
        if (counts < need).any():
            i = int(np.argmax(counts < need))
            raise GateExhaustedError(
                f"sample {samples[i].id!r} has {int(counts[i])} unmasked features, fewer than k={need}"
            )
    return live


class GatedLocalLinear(WeightGenerator):
    """Per-sample linear classifier whose weights pass through a k-hot gate."""

    def __init__(self, config: ModelConfig, rng):
        super().__init__(config, rng, config.d * config.heads)

    # -- weight generation ----------------------------------------------
    def generate_weights(self, x):
        """Dense weight vector(s) for one rich representation.

        Returns shape (d,) for binary models and (num_classes, d) when
        the model has per-class heads.
        """
        with ad.no_grad():
            rows = self.rows([x]).data
        return rows[0] if self.config.heads == 1 else rows.reshape(self.config.heads, self.config.d)

    # -- losses ----------------------------------------------------------
    def batch_loss(self, samples, k=None, tau=None, rng=None, gated=True):
        """Mean soft-gated classification loss over a batch; the training objective.

        The gate's one noise source is ``rng``; a freshly seeded one gives
        the same loss on every call. Per-sample gate counts are clamped to the number of
        unmasked features so short bag-of-words samples stay trainable;
        a sample with no unmasked features at all is an error.
        """
        if not samples:
            raise ValueError("batch_loss needs at least one sample")
        k = self.config.k if k is None else int(k)
        tau = self.config.tau_fine if tau is None else float(tau)
        w = self.rows([s.x for s in samples])
        if not gated:
            return self._losses(samples, w, None).mean()
        live = _live(samples, need=1)
        g = gt.k_hot_gate_rows(w, ~live, np.minimum(k, live.sum(axis=1)), tau, rng=rng)
        return self._losses(samples, w, g).mean()

    def _losses(self, samples, w, g):
        """Per-sample losses from the generator rows w and their gate g; ``g=None`` opens every gate.

        Every head's score z . (g * w) is one :func:`gated_scores` op.
        Binary models take the logistic loss of the margin, multiclass
        models the softmax cross-entropy of the per-head scores.
        """
        scores = gated_scores(np.array([s.z for s in samples], dtype=np.float64), w, g)
        if self.config.num_classes == 2:
            return ad.softplus(scores.reshape((len(samples),)) * ad.Tensor(-_binary_targets(samples)))
        picked = ad.take_along(ad.log_softmax(scores, axis=1), _class_targets(samples, self.config.num_classes))
        return picked * (-1.0)

    # -- inference --------------------------------------------------------
    def _chunks(self, samples, k, rng=None, need=0):
        """The one inference pass: ``(batch, grid, scores, order)`` per ``CHUNK`` samples.

        Per chunk: the live check (each sample needs ``need`` features),
        the weight grid (n, heads, d) without a graph, one gate call for
        every head, and the scores z . (g * w), shape (n, heads). Without
        ``rng`` the gate is the exact hard top-k, whose selected indices
        (n, heads, min(k, d)) are ``order``; with it, soft draws at
        ``tau_fine`` and no order. Both clamp each count to the sample's
        live features, so a sample with none scores the empty sum, zero.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        heads, d = self.config.heads, self.config.d
        for lo in range(0, len(samples), CHUNK):
            batch = samples[lo : lo + CHUNK]
            live = _live(batch, need)
            with ad.no_grad():
                grid = self.rows([s.x for s in batch]).data.reshape(len(batch), heads, d)
            if rng is None:
                g, order = gt.k_hot_gate(grid, live[:, None, :], k)
            else:
                counts = np.minimum(k, live.sum(axis=1))
                g = gt.k_hot_gate_rows(grid.reshape(len(batch), -1), ~live, counts, self.config.tau_fine, rng=rng)
                g, order = g.data.reshape(grid.shape), None
            z = np.array([s.z for s in batch], dtype=np.float64)
            yield batch, grid, np.vecdot(z[:, None, :], g * grid), order
            del grid, g, order  # the next chunk's trunk and gate run without this one's arrays

    def margin(self, sample, k=None):
        """Hard-gated prediction: a signed margin (binary) or class scores.

        The gate count clamps to the sample's unmasked features; with none
        the prediction is the empty sum, zero.
        """
        k = self.config.k if k is None else int(k)
        scores = next(self._chunks([sample], k))[2][0]
        if self.config.num_classes == 2:
            return float(scores[0])
        return [float(v) for v in scores]

    def predict_labels(self, samples, k=None, mode="hard", rng=None):
        """Gated labels for a list of samples; +1/-1 or class indices.

        Hard mode is the deterministic deployment path; soft mode draws
        relaxed gates at ``tau_fine`` from ``rng`` (seed 0 when none is
        given) and exists for inspecting the training objective. Both
        gate a whole chunk at once. Gate counts clamp to each sample's
        unmasked features; a sample with none gets the empty-sum margin
        of zero.
        """
        k = self.config.k if k is None else int(k)
        if mode not in ("soft", "hard"):
            raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
        if mode == "hard":
            rng = None
        elif rng is None:
            rng = np.random.default_rng(0)
        binary = self.config.num_classes == 2
        labels = [np.empty(0, dtype=np.int64)]
        for _, _, scores, _ in self._chunks(samples, k, rng):
            labels.append(np.where(scores[:, 0] >= 0, 1, -1) if binary else np.argmax(scores, axis=1))
            del scores, _  # only the labels stay while the next chunk's trunk and gate run
        return np.concatenate(labels)

    def explain(self, sample, k=None, feature_names=None):
        """Hard-gated explanation: the k open features with their signed weights."""
        return self.explain_batch([sample], k=k, feature_names=feature_names)[0]

    def explain_batch(self, samples, k=None, feature_names=None):
        """Explanations for a list of samples, one inference pass per ``CHUNK`` of them.

        Each entry lists the k live features with the largest ``w**2`` of
        the predicted class's weights (ties to the lowest index) with
        their signed weights. Every sample needs at least k unmasked
        features.
        """
        k = self.config.k if k is None else int(k)
        out = []
        for batch, grid, scores, order in self._chunks(samples, k, need=k):
            for i, s in enumerate(batch):
                head = 0 if self.config.heads == 1 else int(np.argmax(scores[i]))
                prediction = float(scores[i, 0]) if self.config.heads == 1 else head
                entries = [(j, f"f{j}" if feature_names is None else feature_names[j], float(grid[i, head, j]))
                           for j in order[i, head].tolist()]
                out.append(Explanation(prediction=prediction, entries=entries, sample_id=s.id))
            del grid, scores, order  # the next chunk's trunk and gate run without this one's arrays
        return out


class DirectClassifier(WeightGenerator):
    """The same trunk with a head of class logits in place of weight rows."""

    def __init__(self, config: ModelConfig, rng):
        super().__init__(config, rng, config.num_classes)

    def _class_indices(self, samples):
        if self.config.num_classes == 2:
            y = _binary_targets(samples)
            return ((y + 1) // 2).astype(np.int64)
        return _class_targets(samples, self.config.num_classes)

    def batch_loss(self, samples, rng=None):
        y = self._class_indices(samples)
        logp = ad.log_softmax(self.rows([s.x for s in samples]), axis=1)
        return (ad.take_along(logp, y) * (-1.0)).mean()

    def predict_labels(self, samples, k=None, mode=None, rng=None):
        with ad.no_grad():  # one trunk pass per CHUNK samples, as in the gated model's inference
            picks = [np.argmax(self.rows([s.x for s in samples[lo : lo + CHUNK]]).data, axis=1)
                     for lo in range(0, len(samples), CHUNK)]
        picks = np.concatenate([np.empty(0, dtype=np.int64), *picks])
        if self.config.num_classes == 2:
            return picks * 2 - 1
        return picks
