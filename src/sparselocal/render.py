"""Static SVG and HTML renderings of per-sample explanations.

Positive weights are drawn red and negative weights blue, with opacity
proportional to magnitude. Image explanations show the input pixels in
grayscale under the colored simplified-feature cells; text explanations
highlight the contributing tokens inline and grey out tokens that fell
outside the vocabulary.
"""

from __future__ import annotations

import html as _html

import numpy as np


def _weight_color(weight, strongest):
    alpha = 0.0 if strongest == 0 else min(1.0, abs(weight) / strongest)
    color = (214, 39, 40) if weight > 0 else (31, 119, 180)
    return color, alpha


def render_image_svg(image, entries, side, path):
    """Weight heatmap over an image whose z features are square blocks.

    ``image`` is the (h, w) grayscale input in [0, 1]; ``entries`` are
    (feature_index, name, weight) with indices laid out row-major on a
    ``side`` x ``side`` grid.
    """
    cell = 16  # pixels per grid cell
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    px = cell * side / max(h, w)
    strongest = max((abs(wt) for _, _, wt in entries), default=0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side * cell}" height="{side * cell}" '
        f'viewBox="0 0 {side * cell} {side * cell}">',
        f'<rect width="{side * cell}" height="{side * cell}" fill="white"/>',
    ]
    for r in range(h):
        for c in range(w):
            v = image[r, c]
            if v <= 0.01:
                continue
            shade = int(round(255 * (1.0 - v)))
            parts.append(
                f'<rect x="{c * px:.2f}" y="{r * px:.2f}" width="{px:.2f}" height="{px:.2f}" '
                f'fill="rgb({shade},{shade},{shade})"/>'
            )
    for index, _name, weight in entries:
        r, c = divmod(int(index), side)
        (cr, cg, cb), alpha = _weight_color(weight, strongest)
        parts.append(
            f'<rect x="{c * cell}" y="{r * cell}" width="{cell}" height="{cell}" '
            f'fill="rgb({cr},{cg},{cb})" fill-opacity="{0.25 + 0.55 * alpha:.3f}" '
            f'stroke="rgb({cr},{cg},{cb})" stroke-width="1"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def render_text_html(tokens, vocab, entries, prediction, path):
    """Token sequence with per-word weight highlighting.

    Every occurrence of an explained word is colored by its weight sign;
    out-of-vocabulary tokens are greyed out.
    """
    weight_by_index = {int(i): float(wt) for i, _n, wt in entries}
    strongest = max((abs(w) for w in weight_by_index.values()), default=0.0)
    spans = []
    for token in tokens:
        text = _html.escape(str(token))
        idx = vocab.id_of(token)
        if idx == vocab.oov_index and token != vocab.tokens[vocab.oov_index]:
            spans.append(f'<span class="oov">{text}</span>')
        elif idx in weight_by_index:
            (cr, cg, cb), alpha = _weight_color(weight_by_index[idx], strongest)
            spans.append(
                f'<span class="hit" style="background: rgba({cr},{cg},{cb},{0.2 + 0.6 * alpha:.3f})" '
                f'title="{weight_by_index[idx]:+.4f}">{text}</span>'
            )
        else:
            spans.append(f"<span>{text}</span>")
    rows = "".join(
        f"<tr><td>{_html.escape(str(n))}</td><td>{float(w):+.4f}</td></tr>" for _i, n, w in entries
    )
    doc = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><style>
body {{ font-family: sans-serif; margin: 2em; }}
.oov {{ color: #999; }}
.hit {{ border-radius: 3px; padding: 0 2px; }}
td {{ padding: 0 0.8em; font-variant-numeric: tabular-nums; }}
</style></head><body>
<p>{" ".join(spans)}</p>
<p>prediction: {prediction}</p>
<table><tr><th>feature</th><th>weight</th></tr>{rows}</table>
</body></html>
"""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
