"""Procedural 28x28 grayscale digit images.

Each digit has a stroke skeleton (polylines and arcs in a unit box, built
once at import) that is jittered, rotated, scaled, sheared and translated
per image, then rendered as a soft-edged ink distance field with pixel
noise; the field is a few array passes over all segments at once. The
output uses the same container conventions as classic handwritten-digit
IDX files, so the full ingestion pipeline can be exercised end to end
without external downloads. Not a substitute for real handwriting, but
hard enough that a global linear model on the 7x7 block average cannot
separate the digit groups.
"""

from __future__ import annotations

import numpy as np


def _arc(cx, cy, rx, ry, a0, a1, n=14):
    t = np.linspace(a0, a1, n)
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _polyline(strokes):
    """All stroke points, (n, 2), and the index of each segment's first point; no segment joins two strokes."""
    ends = np.cumsum([len(s) for s in strokes])
    return np.concatenate(strokes), np.setdiff1d(np.arange(ends[-1] - 1), ends - 1)


# Each digit's strokes in [0, 1]^2, (x right, y down) like image axes.
_STROKES = {
    0: [_arc(0.5, 0.5, 0.30, 0.40, 0.0, 2.0 * np.pi, 22)],
    1: [np.array([[0.34, 0.26], [0.52, 0.10], [0.52, 0.90]])],
    2: [_arc(0.5, 0.30, 0.27, 0.22, -np.pi * 0.95, 0.15, 12), np.array([[0.74, 0.36], [0.24, 0.88]]),
        np.array([[0.24, 0.88], [0.78, 0.88]])],
    3: [_arc(0.46, 0.29, 0.26, 0.20, -np.pi * 0.8, np.pi * 0.5, 12),
        _arc(0.46, 0.70, 0.28, 0.22, -np.pi * 0.5, np.pi * 0.8, 12)],
    4: [np.array([[0.64, 0.10], [0.22, 0.62], [0.82, 0.62]]), np.array([[0.64, 0.34], [0.64, 0.90]])],
    5: [np.array([[0.74, 0.12], [0.30, 0.12], [0.27, 0.46]]),
        _arc(0.48, 0.66, 0.26, 0.23, -np.pi * 0.6, np.pi * 0.75, 14)],
    6: [np.array([[0.66, 0.10], [0.40, 0.40], [0.30, 0.62]]), _arc(0.48, 0.68, 0.22, 0.21, 0.0, 2.0 * np.pi, 18)],
    7: [np.array([[0.22, 0.12], [0.78, 0.12], [0.42, 0.90]])],
    8: [_arc(0.5, 0.30, 0.21, 0.19, 0.0, 2.0 * np.pi, 18), _arc(0.5, 0.70, 0.24, 0.21, 0.0, 2.0 * np.pi, 18)],
    9: [_arc(0.50, 0.32, 0.22, 0.21, 0.0, 2.0 * np.pi, 18), np.array([[0.72, 0.36], [0.66, 0.66], [0.52, 0.90]])],
}
_SKELETONS = {digit: _polyline(strokes) for digit, strokes in _STROKES.items()}  # (points, segment starts)

SIZE = 28  # image side in pixels, the size that ``data.image_sample`` accepts
# (x, y) of every pixel, row-major
_PIXELS = np.stack([np.tile(np.arange(SIZE), SIZE), np.repeat(np.arange(SIZE), SIZE)], axis=1).astype(np.float64)


def _ink_field(pts, starts, sigma):
    """Each pixel's ink, (SIZE * SIZE,): the maximum over segments of exp(-dist**2 / (2 sigma**2)).

    ``dist`` reaches the segment's closest point, at ``t`` in [0, 1] along it (t = 0 on a segment shorter than
    1e-6). Each product and sum is the one a one-segment ``np.linalg.norm`` pass makes, so the bits are its bits.
    """
    p, seg = pts[starts], pts[starts + 1] - pts[starts]
    rel = np.tile(-p, SIZE * SIZE)  # (S, 2 * SIZE**2): each pixel's (x, y) minus each segment's start, flat
    rel += _PIXELS.ravel()
    t = (rel.reshape(len(p), -1, 2) @ seg[:, :, None])[..., 0]
    denom = (seg[:, None, :] @ seg[:, :, None])[..., 0]
    t = np.divide(t, denom, out=np.zeros_like(t), where=denom >= 1e-12)
    np.clip(t, 0.0, 1.0, out=t)
    ex, ey = rel.reshape(2, len(p), -1)  # rel's buffer, reused: each pixel minus its closest point, per axis
    for e, axis in ((ex, 0), (ey, 1)):
        np.multiply(t, seg[:, axis, None], out=e)
        e += p[:, axis, None]
        np.subtract(_PIXELS[:, axis], e, out=e)
        e *= e
    ex += ey
    ink = np.sqrt(ex, out=ex)
    ink /= sigma
    np.square(ink, out=ink)
    ink *= -0.5
    return np.exp(ink, out=ink).max(axis=0)


def _ink(digit, rng):
    """Draw one rendering's geometry, stroke width and jitter from ``rng``; its float ink field, (SIZE * SIZE,)."""
    margin = 4.0
    span = SIZE - 2.0 * margin
    theta = rng.uniform(-0.25, 0.25)
    scale = rng.uniform(0.80, 1.12, size=2)
    shear = rng.uniform(-0.18, 0.18)
    shift = rng.uniform(-2.6, 2.6, size=2)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    aff = rot @ np.array([[scale[0], shear * scale[0]], [0.0, scale[1]]])
    sigma = rng.uniform(0.55, 0.95)
    pts, starts = _SKELETONS[digit]
    pts = pts + rng.normal(0.0, 0.018, size=pts.shape)
    pts = (pts - 0.5) @ aff.T + 0.5
    pts = margin + pts * span
    pts += shift
    return _ink_field(pts, starts, sigma)


def render_digit(digit, rng):
    """One jittered grayscale rendering of a digit, uint8 (SIZE, SIZE)."""
    img = _ink(digit, rng).reshape(SIZE, SIZE) * rng.uniform(200.0, 255.0)
    img += rng.normal(0.0, 6.0, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def make_digit_images(n, seed):
    """n digit images with uniformly drawn classes; returns (images, digits)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.empty((n, SIZE, SIZE), dtype=np.uint8)
    for i in range(n):
        images[i] = render_digit(int(digits[i]), rng)
    return images, digits
