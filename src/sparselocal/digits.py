"""Procedural 28x28 grayscale digit images.

Each digit has a stroke skeleton (polylines and arcs in a unit box) that
is jittered, rotated, scaled, sheared and translated per image, then
rendered as a soft-edged ink distance field with pixel noise. The output
uses the same container conventions as classic handwritten-digit IDX
files, so the full ingestion pipeline can be exercised end to end
without external downloads. Not a substitute for real handwriting, but
hard enough that a global linear model on the 7x7 block average cannot
separate the digit groups.
"""

from __future__ import annotations

import numpy as np


def _arc(cx, cy, rx, ry, a0, a1, n=14):
    t = np.linspace(a0, a1, n)
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _digit_skeleton(digit):
    """Strokes for one digit as a list of (n, 2) point arrays in [0, 1]^2.

    Coordinates are (x right, y down) like image axes.
    """
    P = np.array
    if digit == 0:
        return [_arc(0.5, 0.5, 0.30, 0.40, 0.0, 2.0 * np.pi, 22)]
    if digit == 1:
        return [P([[0.34, 0.26], [0.52, 0.10], [0.52, 0.90]])]
    if digit == 2:
        return [
            _arc(0.5, 0.30, 0.27, 0.22, -np.pi * 0.95, 0.15, 12),
            P([[0.74, 0.36], [0.24, 0.88]]),
            P([[0.24, 0.88], [0.78, 0.88]]),
        ]
    if digit == 3:
        return [
            _arc(0.46, 0.29, 0.26, 0.20, -np.pi * 0.8, np.pi * 0.5, 12),
            _arc(0.46, 0.70, 0.28, 0.22, -np.pi * 0.5, np.pi * 0.8, 12),
        ]
    if digit == 4:
        return [
            P([[0.64, 0.10], [0.22, 0.62], [0.82, 0.62]]),
            P([[0.64, 0.34], [0.64, 0.90]]),
        ]
    if digit == 5:
        return [
            P([[0.74, 0.12], [0.30, 0.12], [0.27, 0.46]]),
            _arc(0.48, 0.66, 0.26, 0.23, -np.pi * 0.6, np.pi * 0.75, 14),
        ]
    if digit == 6:
        return [
            P([[0.66, 0.10], [0.40, 0.40], [0.30, 0.62]]),
            _arc(0.48, 0.68, 0.22, 0.21, 0.0, 2.0 * np.pi, 18),
        ]
    if digit == 7:
        return [P([[0.22, 0.12], [0.78, 0.12], [0.42, 0.90]])]
    if digit == 8:
        return [
            _arc(0.5, 0.30, 0.21, 0.19, 0.0, 2.0 * np.pi, 18),
            _arc(0.5, 0.70, 0.24, 0.21, 0.0, 2.0 * np.pi, 18),
        ]
    if digit == 9:
        return [
            _arc(0.50, 0.32, 0.22, 0.21, 0.0, 2.0 * np.pi, 18),
            P([[0.72, 0.36], [0.66, 0.66], [0.52, 0.90]]),
        ]
    raise ValueError(f"digit must be 0..9, got {digit}")


SIZE = 28  # image side in pixels, the size that ``data.image_sample`` accepts
# (x, y) of every pixel, row-major
_PIXELS = np.stack([np.tile(np.arange(SIZE), SIZE), np.repeat(np.arange(SIZE), SIZE)], axis=1).astype(np.float64)


def render_digit(digit, rng):
    """One jittered grayscale rendering of a digit, uint8 (SIZE, SIZE)."""
    margin = 4.0
    span = SIZE - 2.0 * margin
    theta = rng.uniform(-0.25, 0.25)
    scale = rng.uniform(0.80, 1.12, size=2)
    shear = rng.uniform(-0.18, 0.18)
    shift = rng.uniform(-2.6, 2.6, size=2)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    aff = rot @ np.array([[scale[0], shear * scale[0]], [0.0, scale[1]]])

    ink = np.zeros(SIZE * SIZE)
    sigma = rng.uniform(0.55, 0.95)
    for stroke in _digit_skeleton(digit):
        pts = stroke + rng.normal(0.0, 0.018, size=stroke.shape)
        pts = (pts - 0.5) @ aff.T + 0.5
        pts = margin + pts * span
        pts += shift
        for p, q in zip(pts[:-1], pts[1:]):
            seg = q - p
            denom = float(seg @ seg)
            if denom < 1e-12:
                dist = np.linalg.norm(_PIXELS - p, axis=1)
            else:
                t = np.clip(((_PIXELS - p) @ seg) / denom, 0.0, 1.0)
                dist = np.linalg.norm(_PIXELS - (p + t[:, None] * seg), axis=1)
            np.maximum(ink, np.exp(-0.5 * (dist / sigma) ** 2), out=ink)

    img = ink.reshape(SIZE, SIZE) * rng.uniform(200.0, 255.0)
    img += rng.normal(0.0, 6.0, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def make_digit_images(n, seed):
    """n digit images with uniformly drawn classes; returns (images, digits)."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.empty((n, SIZE, SIZE), dtype=np.uint8)
    for i in range(n):
        images[i] = render_digit(int(digits[i]), rng)
    return images, digits
