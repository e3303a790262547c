"""Dataset ingestion and representation building.

Three dataset families are supported: grayscale digit images in IDX
containers (28x28 pixels, simplified to a 7x7 block average), tab
separated text corpora (token sequences, simplified to a binary
bag-of-words), and a synthetic vector task with planted context
dependent explanations used as a testing oracle.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# Compact English stopword list (NLTK-style, apostrophes split off).
STOPWORDS = frozenset(
    """a about above after again against ain all am an and any are aren as at be
    because been before being below between both but by can cannot could couldn d
    did didn do does doesn doing don down during each few for from further had hadn
    has hasn have haven having he her here hers herself him himself his how i if in
    into is isn it its itself just ll m ma me mightn more most mustn my myself needn
    no nor not now o of off on once only or other our ours ourselves out over own re
    s same shan she should shouldn so some such t than that the their theirs them
    themselves then there these they this those through to too under until up ve
    very was wasn we were weren what when where which while who whom why will with
    won wouldn y you your yours yourself yourselves""".split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _frozen(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=8)
def _all_live(d):
    """The one read-only index array that every all-live sample of d features shares."""
    return _frozen(np.arange(d))


@dataclass(init=False)
class Sample:
    """One labelled example: rich representation x, simplified z, label y, mask m (1 masks a feature).

    A sample stores ``live``, the sorted indices of its unmasked features,
    and z as ``values`` at the sorted indices ``support``: the live ones
    plus any masked feature whose z is not zero. So a bag-of-words, live
    exactly where z is not zero, holds memory per distinct word rather
    than per vocabulary entry, and all-live samples of d features share
    one ``live``. ``z`` and ``m`` read as read-only dense arrays built on
    demand, bitwise those given except for the sign of a zero z at a
    masked feature; assigning either re-derives the stored form.
    """

    id: object
    x: object
    z: np.ndarray
    y: int
    m: np.ndarray
    truth: int | None = None  # planted explanation index, synthetic data only
    tokens: list | None = None  # original words for text rendering, before OOV substitution

    def __init__(self, id, x, z, y, m, truth=None, tokens=None):
        self.id, self.x, self.y, self.truth, self.tokens = id, x, y, truth, tokens
        self._store(z, m)

    @classmethod
    def from_live(cls, id, x, d, live, values, y, truth=None, tokens=None):
        """A sample of d features, z being ``values`` at the sorted indices ``live`` and 0 at the masked rest.

        ``live`` and ``values`` must be read-only arrays, which the sample
        keeps as its own; no dense z or m is built.
        """
        s = cls.__new__(cls)
        s.id, s.x, s.y, s.truth, s.tokens = id, x, y, truth, tokens
        s.d, s.live, s.support, s.values = d, live, live, values
        return s

    def _store(self, z, m):
        z, live = np.array(z, dtype=np.float64), np.asarray(m) == 0
        if z.ndim != 1 or live.shape != z.shape:
            raise ValueError(f"z and m must be 1-d and of one length, got shapes {z.shape} and {live.shape}")
        support, live = np.flatnonzero(live | (z != 0)), np.flatnonzero(live)
        self.d = z.size
        self.live = _all_live(z.size) if live.size == z.size else _frozen(live)
        self.support = self.live if support.size == live.size else _frozen(support)
        self.values = _frozen(z if support.size == z.size else z[support])

    @property
    def z(self):
        if self.support.size == self.d:
            return self.values
        z = np.zeros(self.d)
        z[self.support] = self.values
        return _frozen(z)

    @z.setter
    def z(self, z):
        self._store(z, self.m)

    @property
    def m(self):
        m = np.ones(self.d, dtype=np.int64)
        m[self.live] = 0
        return _frozen(m)

    @m.setter
    def m(self, m):
        self._store(self.z, m)

    @property
    def live_count(self):
        return self.live.size


@dataclass
class Vocabulary:
    """Contiguously indexed token table with a reserved out-of-vocabulary symbol."""

    tokens: list
    index: dict = field(init=False)

    OOV, oov_index = "<unk>", 0  # the out-of-vocabulary symbol and its index

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if self.tokens[self.oov_index] != self.OOV:
            raise ValueError("vocabulary must hold the OOV symbol at oov_index")

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token):
        return self.index.get(token, self.oov_index)


@dataclass
class Dataset:
    """Samples plus the feature dictionary that names each z dimension."""

    kind: str  # image | text | vector
    d: int
    num_classes: int
    feature_names: list
    samples: list
    vocab: Vocabulary | None = None
    stopwords: frozenset | None = None  # text only: the stopwords removed before featurizing
    counts: bool = False  # text only: z holds occurrence counts instead of presence


# --- IDX containers ---------------------------------------------------------


def parse_idx(path):
    """Read one big-endian IDX file; returns images (n, h, w) uint8 or labels (n,).

    The magic number selects the payload layout: 0x00000803 for image
    tensors, 0x00000801 for label vectors. Truncation, negative sizes and
    unknown magic values are reported with the offending byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise DataFormatError(f"{path}: truncated header at byte offset {len(raw)}")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic == LABEL_MAGIC:
        if len(raw) < 8:
            raise DataFormatError(f"{path}: truncated label header at byte offset {len(raw)}")
        (n,) = struct.unpack(">i", raw[4:8])
        if len(raw) != 8 + n:
            raise DataFormatError(
                f"{path}: expected {8 + n} bytes, payload ends at byte offset {len(raw)}"
            )
        return np.frombuffer(raw, dtype=np.uint8, count=n, offset=8).copy()
    if magic == IMAGE_MAGIC:
        if len(raw) < 16:
            raise DataFormatError(f"{path}: truncated image header at byte offset {len(raw)}")
        n, h, w = struct.unpack(">iii", raw[4:16])
        if min(n, h, w) < 0:
            raise DataFormatError(f"{path}: negative image size {(n, h, w)} at byte offset 4")
        expected = 16 + n * h * w
        if len(raw) != expected:
            raise DataFormatError(
                f"{path}: expected {expected} bytes, payload ends at byte offset {len(raw)}"
            )
        return np.frombuffer(raw, dtype=np.uint8, count=n * h * w, offset=16).reshape(n, h, w).copy()
    raise DataFormatError(f"{path}: unknown magic 0x{magic:08x} at byte offset 0")


def write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IMAGE_MAGIC, n, h, w))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


# --- image representations --------------------------------------------------


def binarize_labels(digits):
    """Digits 0-4 map to -1, digits 5-9 map to +1."""
    digits = np.asarray(digits)
    if ((digits < 0) | (digits > 9)).any():
        raise DataFormatError(f"digit labels must lie in 0..9, got {sorted(set(digits.tolist()))[:12]}")
    return np.where(digits <= 4, -1, 1).astype(np.int64)


def downsample_7x7(image):
    """Non-overlapping 4x4 block average of a 28x28 image, flattened row-major."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (28, 28):
        raise DataFormatError(f"expected a 28x28 image, got {image.shape}")
    return image.reshape(7, 4, 7, 4).mean(axis=(1, 3)).reshape(49)


def image_sample(sample_id, image, y):
    """One image sample: 28x28 pixels scaled to [0, 1] as a one-channel map x, their 7x7 block means as z, all live."""
    x = np.asarray(image, dtype=np.float64) / 255.0
    return Sample.from_live(sample_id, x[None], 49, _all_live(49), _frozen(downsample_7x7(x)), y)


def load_image_dataset(images_path, labels_path, limit=None, id_prefix=""):
    """Binary classification dataset from an IDX image/label file pair; ``limit`` keeps the first images."""
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, (int, np.integer)) or limit < 0):
        raise ConfigError(f"limit must be None or a non-negative integer, got {limit!r}")
    images = parse_idx(images_path)
    digits = parse_idx(labels_path)
    if images.ndim != 3:
        raise DataFormatError(f"{images_path}: holds labels, expected images")
    if digits.ndim != 1:
        raise DataFormatError(f"{labels_path}: holds images, expected labels")
    if images.shape[0] != digits.shape[0]:
        raise DataFormatError(
            f"image count {images.shape[0]} does not match label count {digits.shape[0]}"
        )
    if limit is not None:
        images, digits = images[:limit], digits[:limit]
    y = binarize_labels(digits)
    samples = [image_sample(f"{id_prefix}{i}", images[i], int(y[i])) for i in range(images.shape[0])]
    names = [f"block({r},{c})" for r in range(7) for c in range(7)]
    return Dataset(kind="image", d=49, num_classes=2, feature_names=names, samples=samples)


# --- text -------------------------------------------------------------------


def tokenize(text):
    return _TOKEN_RE.findall(text.lower())


def content_tokens(text, stopwords):
    """The tokens of ``text`` that are not stopwords, in order."""
    return [t for t in tokenize(text) if t not in stopwords]


def build_text_dataset(path, min_freq=2, stopwords=None, counts=False):
    """Text classification dataset from a TSV corpus (label <TAB> text per line).

    Stopwords are removed from every token sequence; the vocabulary keeps
    tokens whose corpus frequency reaches ``min_freq``, plus the OOV
    symbol at index 0 which substitutes for every other token. z is the
    bag-of-words vector over the vocabulary (binary presence by default,
    occurrence counts with ``counts=True``) and the mask flags exactly
    the zero entries of z. ``+1`` is read as ``1``. Two labels select
    binary mode, the first in sorted order as -1 (so {-1, +1} keep their
    signs); three or more are mapped to class indices in sorted order.
    """
    stopwords = STOPWORDS if stopwords is None else frozenset(stopwords)
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t", 1)
                if len(parts) != 2 or not parts[0].strip():
                    raise DataFormatError(f"{path}:{lineno}: expected 'label<TAB>text'")
                label = parts[0].strip()
                rows.append((lineno, "1" if label == "+1" else label, content_tokens(parts[1], stopwords)))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: corpus is not UTF-8 text ({exc.reason})") from exc
    if not rows:
        raise DataFormatError(f"{path}: corpus is empty")

    freq = {}
    for _, _, tokens in rows:
        for t in tokens:
            freq[t] = freq.get(t, 0) + 1
    kept = sorted((t for t, n in freq.items() if n >= min_freq), key=lambda t: (-freq[t], t))
    if not kept:
        raise DataFormatError(f"{path}: vocabulary is empty after frequency filtering")
    vocab = Vocabulary(tokens=[Vocabulary.OOV] + kept)

    label_set = sorted(set(label for _, label, _ in rows))
    if len(label_set) < 2:
        raise DataFormatError(f"{path}: a classifier needs at least two labels, got {label_set}")
    # two labels are -1 and +1 in sorted order, and "-1" sorts before "1"; more are class indices
    to_y = dict(zip(label_set, (-1, 1))) if len(label_set) == 2 else {s: i for i, s in enumerate(label_set)}
    samples = [text_sample(f"line{lineno}", tokens, to_y[label], vocab, counts) for lineno, label, tokens in rows]
    return Dataset(
        kind="text",
        d=len(vocab),
        num_classes=len(label_set),
        feature_names=list(vocab.tokens),
        samples=samples,
        vocab=vocab,
        stopwords=stopwords,
        counts=bool(counts),
    )


def text_sample(sample_id, tokens, y, vocab, counts=False):
    """One text sample from a stopword-filtered token list: token ids x, bag-of-words z and mask m.

    z holds binary presence, or occurrence counts with ``counts=True``;
    the mask flags exactly the zero entries of z. The sample is built
    from the ids' distinct values alone, so its memory follows the words
    the line holds, not the vocabulary.
    """
    ids = np.array([vocab.id_of(t) for t in tokens], dtype=np.int64)
    live, occurrences = np.unique(ids, return_counts=True)
    values = occurrences.astype(np.float64) if counts else np.ones(live.size)
    return Sample.from_live(sample_id, ids, len(vocab), _frozen(live), _frozen(values), y, tokens=tokens)


# --- synthetic oracle -------------------------------------------------------


def make_synthetic(n, d, seed):
    """Vector dataset with context-dependent planted explanations.

    Each sample carries a hidden context bit appended to x. Under context
    A the label is the sign of feature j_a; under context B it is the
    opposite sign of feature j_b (j_a != j_b). A single global linear
    model can only serve one context at a time, capping its accuracy near
    0.75, while a context-aware model that picks the right feature per
    sample separates the data perfectly. The relevant feature index is
    recorded per sample as the ground-truth explanation.
    """
    if d < 4:
        raise ValueError(f"synthetic data needs d >= 4, got {d}")
    rng = np.random.default_rng(seed)
    j_a, j_b = rng.choice(d, size=2, replace=False)
    z = rng.uniform(0.1, 1.0, size=(n, d))  # magnitudes, then signed in place
    z *= rng.choice([-1.0, 1.0], size=(n, d))
    _frozen(z)  # each sample's z is a read-only row of it
    context = rng.random(n) < 0.5
    xs = np.concatenate([z, np.where(context[:, None], [1.0, 0.0], [0.0, 1.0])], axis=1)  # z plus the context flag
    samples = []
    for i in range(n):
        if context[i]:
            y = 1 if z[i, j_a] > 0 else -1
            truth = int(j_a)
        else:
            y = 1 if -z[i, j_b] > 0 else -1
            truth = int(j_b)
        samples.append(Sample.from_live(i, xs[i], d, _all_live(d), z[i], y, truth=truth))
    names = [f"f{j}" for j in range(d)]
    return Dataset(kind="vector", d=d, num_classes=2, feature_names=names, samples=samples)


# --- splitting ---------------------------------------------------------------


def split_dataset(samples, fractions, seed):
    """Deterministic shuffle-and-cut into disjoint, exhaustive parts."""
    fractions = [float(f) for f in fractions]
    if not all(f >= 0 for f in fractions):
        raise ValueError(f"fractions must be non-negative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    cuts = [int(round(c * len(samples))) for c in np.cumsum(fractions)]
    cuts[-1] = len(samples)
    parts = []
    lo = 0
    for hi in cuts:
        parts.append([samples[i] for i in order[lo:hi]])
        lo = hi
    return tuple(parts)
