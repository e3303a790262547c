"""The full model: feature extractor, weight generator, gate, linear head.

A sample carries two representations. The rich one (image pixels, token
sequence, raw feature vector) feeds the weight generator network, which
emits one dense weight vector per sample (one per class for multiclass
problems). The gate keeps exactly k of those weights; the prediction is
the inner product of the gated weights with the simplified
representation, so every prediction decomposes into k named, signed
contributions.

Both models share one network trunk (``WeightGenerator``) and differ
only in its head width: d weights per class for the gated model, class
logits for the plain ``DirectClassifier`` reference. Every extractor
takes the whole batch of rich representations, so the trunk is one
batched forward pass for images, token sequences and vectors alike. The
dense ablation is ``batch_loss(gated=False)``, the same loss with every
gate open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import gate as gt
from .errors import GateExhaustedError


@dataclass
class ModelConfig:
    """Architecture choices; extractor is a kind-tagged dict (see _build_extractor)."""

    d: int
    k: int
    extractor: dict
    fc_layers: int = 1  # hidden layers between extractor and weight head
    fc_width: int = 128
    num_classes: int = 2
    tau_coarse: float = 1.0
    tau_fine: float = 0.1

    def __post_init__(self):
        if not 1 <= self.k <= self.d:
            raise ValueError(f"k must satisfy 1 <= k <= d, got k={self.k}, d={self.d}")
        if self.fc_layers < 1:
            raise ValueError("at least one fully-connected layer is required")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not self.tau_coarse > self.tau_fine > 0:
            raise ValueError("temperatures must satisfy tau_coarse > tau_fine > 0")

    @property
    def heads(self):
        return 1 if self.num_classes == 2 else self.num_classes

    def to_dict(self):
        return {
            "d": self.d,
            "k": self.k,
            "extractor": dict(self.extractor),
            "fc_layers": self.fc_layers,
            "fc_width": self.fc_width,
            "num_classes": self.num_classes,
            "tau_coarse": self.tau_coarse,
            "tau_fine": self.tau_fine,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(**payload)


@dataclass
class Explanation:
    """Ranked open-gate features with signed weights, plus the prediction."""

    prediction: float
    entries: list  # (feature_index, feature_name, weight), |weight| descending
    mode: str
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
        # bias broadcast over rows realized as ones @ bias, keeping add shape-strict
        ones = ad.Tensor(np.ones((x.data.shape[0], 1)))
        return ad.matmul(x, self.weight) + ad.matmul(ones, self.bias)

    def params(self, prefix):
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class _ConvBlock:
    """convolution (3x3, stride 1, pad 1) -> relu -> 2x2 max pool."""

    def __init__(self, c_in, c_out, rng):
        std = math.sqrt(2.0 / (c_in * 9))
        self.kernels = ad.Tensor(rng.normal(0.0, std, size=(c_out, c_in, 3, 3)), requires_grad=True)

    def __call__(self, x):
        return ad.max_pool2d(ad.relu(ad.conv2d(x, self.kernels, padding=1)), 2)

    def params(self, prefix):
        return {f"{prefix}.kernels": self.kernels}


def _stack(xs):
    """One float64 tensor of shape (n, ...) from a batch of equal-shape arrays."""
    return ad.Tensor(np.stack([np.asarray(x, dtype=np.float64) for x in xs]))


class ImageExtractor:
    """Stacked convolution blocks over (channels, height, width) maps."""

    def __init__(self, in_shape, channels, rng):
        self.in_shape = tuple(int(v) for v in in_shape)
        self.blocks = []
        c = self.in_shape[0]
        for c_out in channels:
            self.blocks.append(_ConvBlock(c, int(c_out), rng))
            c = int(c_out)
        self.out_dim = self([np.zeros(self.in_shape)]).data.shape[1]

    def __call__(self, xs):
        h = _stack(xs)
        for block in self.blocks:
            h = block(h)
        return h.reshape((h.data.shape[0], -1))

    def params(self):
        out = {}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"extractor.block{i}"))
        return out


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

    A batch is encoded as one (n, 1, length, embed_dim) grid: every id
    sequence is padded with ``pad_index`` (the out-of-vocabulary id) to
    the batch's longest, and at least to the widest filter. Padding up to
    that floor is part of a short sequence, as if the sample carried it.
    Padding past a sequence's own end is cut out of the pool by zeroing
    those relu outputs; since relu outputs are non-negative and a
    sequence's own positions come first, each row's maximum and its
    gradient routing are those of the sequence encoded alone.
    """

    def __init__(self, vocab_size, rng, embed_dim=64, filter_widths=(3, 4, 5), filters=32, pad_index=0):
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
        n = len(seqs)
        lengths = np.maximum([s.size for s in seqs], max(self.filter_widths))
        span = int(lengths.max())
        ids = np.full((n, span), self.pad_index, dtype=np.int64)
        for i, s in enumerate(seqs):
            ids[i, : s.size] = s
        grid = ad.gather_rows(self.embed, ids.ravel()).reshape((n, 1, span, self.embed_dim))
        ragged = bool((lengths < span).any())  # an unpadded batch (one sample, say) skips the mask
        pooled = []
        for w, kernels in zip(self.filter_widths, self.kernels):
            conv = ad.relu(ad.conv2d(grid, kernels))
            out = span - w + 1
            if ragged:
                ends = np.arange(out)[None, :] < (lengths - w + 1)[:, None]
                conv = conv * ad.Tensor(np.broadcast_to(ends[:, None, :, None], conv.data.shape))
            pooled.append(ad.max_pool2d(conv, (out, 1)).reshape((n, self.filters)))
        return ad.concat(pooled, axis=1)

    def params(self):
        out = {"extractor.embed": self.embed}
        for w, kernels in zip(self.filter_widths, self.kernels):
            out[f"extractor.conv{w}.kernels"] = kernels
        return out


def _build_extractor(spec, rng):
    kind = spec.get("kind")
    if kind == "image":
        return ImageExtractor(spec["in_shape"], spec.get("channels", (16, 32, 64)), rng)
    if kind == "vector":
        return VectorExtractor(spec["dim"])
    if kind == "text":
        return TextExtractor(
            spec["vocab_size"],
            rng,
            embed_dim=spec.get("embed_dim", 64),
            filter_widths=spec.get("filter_widths", (3, 4, 5)),
            filters=spec.get("filters", 32),
            pad_index=spec.get("pad_index", 0),
        )
    raise ValueError(f"unknown extractor kind {kind!r}")


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


def _live(samples):
    """Boolean (n, d) array of the samples' unmasked features."""
    return np.array([s.m for s in samples]) == 0


class _TrunkModel:
    """A model whose parameters are those of one ``WeightGenerator`` trunk."""

    def __init__(self, config: ModelConfig, rng, width):
        self.config = config
        self.generator = WeightGenerator(config, rng, width)

    def named_parameters(self):
        return self.generator.named_parameters()

    def parameters(self):
        return list(self.named_parameters().values())


class GatedLocalLinear(_TrunkModel):
    """Per-sample linear classifier whose weights pass through a k-hot gate."""

    def __init__(self, config: ModelConfig, rng):
        super().__init__(config, rng, config.d * config.heads)

    # -- weight generation ----------------------------------------------
    def generate_weights(self, x):
        """Dense weight vector(s) for one rich representation.

        Returns shape (d,) for binary models and (num_classes, d) when
        the model has per-class heads.
        """
        row = self.generator.rows([x]).data[0]
        if self.config.heads == 1:
            return row
        return row.reshape(self.config.heads, self.config.d)

    # -- losses ----------------------------------------------------------
    def batch_loss(self, samples, k=None, tau=None, rng=None, noise=None, gated=True):
        """Mean soft-gated classification loss over a batch; the training objective.

        Gate noise comes from ``rng`` or from pre-drawn ``noise`` of shape
        (k, n, d). Per-sample gate counts are clamped to the number of
        unmasked features so short bag-of-words samples stay trainable;
        a sample with no unmasked features at all is an error.
        """
        if not samples:
            raise ValueError("batch_loss needs at least one sample")
        k = self.config.k if k is None else int(k)
        tau = self.config.tau_fine if tau is None else float(tau)
        w = self.generator.rows([s.x for s in samples])
        if not gated:
            return self._losses(samples, self._heads(w), None).mean()

        live = _live(samples)
        counts = live.sum(axis=1)
        if (counts < 1).any():
            bad = samples[int(np.argmin(counts))].id
            raise GateExhaustedError(f"sample {bad!r} has no unmasked features")
        heads = self._heads(w)
        gates = [gt.k_hot_gate_rows(wc, ~live, np.minimum(k, counts), tau, rng=rng, noise=noise) for wc in heads]
        return self._losses(samples, heads, gates).mean()

    def _heads(self, w):
        """Per-head (n, d) weight columns of generator rows w."""
        d = self.config.d
        if self.config.heads == 1:
            return [w]
        return [ad.slice_cols(w, c * d, (c + 1) * d) for c in range(self.config.heads)]

    def _losses(self, samples, heads, gates):
        """Per-sample losses from each head's weight rows and gate; ``gates=None`` opens every gate.

        Binary models take the logistic loss of the margin, multiclass
        models the softmax cross-entropy of the per-head scores.
        """
        z = ad.Tensor(np.stack([np.asarray(s.z, dtype=np.float64) for s in samples]))
        gates = gates or [None] * len(heads)
        cols = [(z * w if g is None else z * g * w).sum(axis=1) for w, g in zip(heads, gates)]
        if self.config.num_classes == 2:
            return ad.softplus(cols[0] * ad.Tensor(-_binary_targets(samples)))
        logits = ad.concat([c.reshape((len(samples), 1)) for c in cols], axis=1)
        picked = ad.take_along(ad.log_softmax(logits, axis=1), _class_targets(samples, self.config.num_classes))
        return picked * (-1.0)

    def forward_loss(self, sample, mode="soft", k=None, tau=None, rng=None, noise=None):
        """Loss and gate trace for a single sample: the one-sample batch loss, gated by ``k_hot_gate``.

        Returns (loss tensor, GateResult); multiclass models return the
        list of per-class gate results instead.
        """
        k = self.config.k if k is None else int(k)
        tau = self.config.tau_fine if tau is None else float(tau)
        m = np.asarray(sample.m, dtype=np.int64)
        k_eff = min(k, int((m == 0).sum()))
        if k_eff < 1:
            raise GateExhaustedError(f"sample {sample.id!r} has no unmasked features")
        d = self.config.d
        heads = self._heads(self.generator.rows([sample.x]))
        results = [gt.k_hot_gate(wc.reshape((d,)), m, k_eff, tau=tau, mode=mode, rng=rng, noise=noise) for wc in heads]
        gates = [ad.as_tensor(r.gate).reshape((1, d)) for r in results]
        loss = self._losses([sample], heads, gates).reshape(())
        return loss, results[0] if self.config.num_classes == 2 else results

    # -- inference --------------------------------------------------------
    def _weight_grid(self, samples):
        """Weight rows for a batch of samples, shape (n, heads, d)."""
        rows = self.generator.rows([s.x for s in samples]).data
        return rows.reshape(len(samples), self.config.heads, self.config.d)

    def _gated_scores(self, samples, grid, live, k, rng=None):
        """Gated scores (n, heads) and, in hard mode, the selected indices (n, heads, min(k, d)).

        ``live`` is the (n, d) boolean of unmasked features. Without
        ``rng`` the gates are the exact hard top-k: dead indices sort
        after live ones, so keeping the live entries of each top-k clamps
        its gate count to the sample's live features. With ``rng`` they
        are soft draws at ``tau_fine`` for the whole batch, one
        ``k_hot_gate_rows`` call per head with the per-sample counts
        clamped the same way. A sample with no live feature gets the
        empty-sum score of zero. Every score is the per-row dot z . (g * w).
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        n, heads, d = grid.shape
        order = None
        if rng is None:
            order = gt.topk_select(grid, live[:, None, :], k)
            g = np.zeros(grid.size)  # a flat scatter costs half of put_along_axis on one sample
            g[(np.arange(0, grid.size, d).reshape(n, heads, 1) + order).ravel()] = 1.0
            g = g.reshape(grid.shape) * live[:, None, :]
        else:
            counts = np.minimum(k, live.sum(axis=1))
            tau = self.config.tau_fine
            g = np.stack([gt.k_hot_gate_rows(grid[:, c], ~live, counts, tau, rng=rng).data for c in range(heads)], axis=1)
        scores = np.empty((n, heads))
        for i, s in enumerate(samples):
            z = np.asarray(s.z, dtype=np.float64)
            for c in range(heads):
                scores[i, c] = z @ (g[i, c] * grid[i, c])
        return scores, order

    def margin(self, sample, k=None):
        """Hard-gated prediction: a signed margin (binary) or class scores.

        The gate count clamps to the sample's unmasked features; with none
        the prediction is the empty sum, zero.
        """
        k = self.config.k if k is None else int(k)
        scores = self._gated_scores([sample], self._weight_grid([sample]), _live([sample]), k)[0][0]
        if self.config.num_classes == 2:
            return float(scores[0])
        return [float(v) for v in scores]

    def predict_labels(self, samples, k=None, mode="hard", rng=None, chunk=256):
        """Gated labels for a list of samples; +1/-1 or class indices.

        Hard mode is the deterministic deployment path; soft mode draws
        relaxed gates at ``tau_fine`` from ``rng`` (seed 0 when none is
        given) and exists for inspecting the training objective. Both
        gate a whole chunk at once, and soft mode draws its gates for the
        chunk with one ``k_hot_gate_rows`` call per head. Gate counts
        clamp to each sample's unmasked features; a sample with none gets
        the empty-sum margin of zero.
        """
        k = self.config.k if k is None else int(k)
        if mode not in ("soft", "hard"):
            raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
        if mode == "hard":
            rng = None
        elif rng is None:
            rng = np.random.default_rng(0)
        out = np.empty(len(samples), dtype=np.int64)
        for lo in range(0, len(samples), chunk):
            batch = samples[lo : lo + chunk]
            scores = self._gated_scores(batch, self._weight_grid(batch), _live(batch), k, rng)[0]
            if self.config.num_classes == 2:
                out[lo : lo + len(batch)] = np.where(scores[:, 0] >= 0, 1, -1)
            else:
                out[lo : lo + len(batch)] = np.argmax(scores, axis=1)
        return out

    def explain(self, sample, k=None, feature_names=None):
        """Hard-gated explanation: the k open features with their signed weights."""
        return self.explain_batch([sample], k=k, feature_names=feature_names)[0]

    def explain_batch(self, samples, k=None, feature_names=None):
        """Explanations for a list of samples from one batched weight pass and gate selection.

        Each entry lists the k live features with the largest ``w**2`` of
        the predicted class's weights (ties to the lowest index) with
        their signed weights. Every sample needs at least k unmasked
        features.
        """
        k = self.config.k if k is None else int(k)
        if not samples:
            return []
        live = _live(samples)
        counts = live.sum(axis=1)
        if (counts < k).any():
            i = int(np.argmax(counts < k))
            raise GateExhaustedError(
                f"sample {samples[i].id!r} has {int(counts[i])} unmasked features, fewer than k={k}"
            )
        names = feature_names if feature_names is not None else [f"f{j}" for j in range(self.config.d)]
        grid = self._weight_grid(samples)
        scores, order = self._gated_scores(samples, grid, live, k)
        out = []
        for i, s in enumerate(samples):
            if self.config.num_classes == 2:
                head, prediction = 0, float(scores[i, 0])
            else:
                head = int(np.argmax(scores[i]))
                prediction = head
            entries = [(int(j), names[j], float(grid[i, head, j])) for j in order[i, head]]
            out.append(Explanation(prediction=prediction, entries=entries, mode="hard", sample_id=s.id))
        return out


class DirectClassifier(_TrunkModel):
    """The same trunk with a head of class logits in place of weight rows."""

    def __init__(self, config: ModelConfig, rng):
        super().__init__(config, rng, config.num_classes)

    def logits(self, xs):
        return self.generator.rows(xs)

    def dnn_forward(self, x):
        """Logits for one rich representation, length num_classes."""
        return self.logits([x]).data[0]

    def _class_indices(self, samples):
        if self.config.num_classes == 2:
            y = _binary_targets(samples)
            return ((y + 1) // 2).astype(np.int64)
        return _class_targets(samples, self.config.num_classes)

    def batch_loss(self, samples, rng=None, **_ignored):
        y = self._class_indices(samples)
        logp = ad.log_softmax(self.logits([s.x for s in samples]), axis=1)
        return (ad.take_along(logp, y) * (-1.0)).mean()

    def predict_labels(self, samples, k=None, mode=None, rng=None):
        picks = np.argmax(self.logits([s.x for s in samples]).data, axis=1)
        if self.config.num_classes == 2:
            return picks * 2 - 1
        return picks
