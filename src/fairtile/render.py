"""Deterministic SVG rendering of tiling documents.

Documents keep mathematical orientation; the y-axis is flipped here, at
render time only.  One path element per tile, optional id labels, output
bytes depend only on the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.sax.saxutils import escape

from .errors import InvalidParameter
from .geometry import bounding_box, tile_label

__all__ = ["RenderOptions", "render_svg"]


@dataclass(frozen=True)
class RenderOptions:
    stroke_width: float = 0.02
    viewbox: tuple[float, float, float, float] | None = None  # x, y, w, h (render coords)
    label_tiles: bool = False
    scale: float = 40.0  # pixels per geometry unit

    def __post_init__(self):
        if self.scale <= 0.0:
            raise InvalidParameter(f"scale must be positive, got {self.scale}")
        if self.viewbox is not None and (self.viewbox[2] <= 0 or self.viewbox[3] <= 0):
            raise InvalidParameter(f"viewbox must be nonempty, got {self.viewbox}")


def _num(x: float) -> str:
    s = format(x, ".8g")
    return "0" if s in ("-0", "-0.0") else s


def render_svg(tiles, options: RenderOptions = RenderOptions()) -> str:
    """SVG 1.1 text for a list of tiles (triangles or quadrangles)."""
    tiles = list(tiles)
    if options.viewbox is not None:
        vx, vy, vw, vh = options.viewbox
    elif tiles:
        boxes = [bounding_box(t) for t in tiles]
        xmin = min(b[0] for b in boxes)
        ymin = min(b[1] for b in boxes)
        xmax = max(b[2] for b in boxes)
        ymax = max(b[3] for b in boxes)
        pad = 0.02 * max(xmax - xmin, ymax - ymin, 1.0)
        # flip: render y = -math y
        vx, vy = xmin - pad, -ymax - pad
        vw, vh = (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad
    else:
        vx, vy, vw, vh = 0.0, 0.0, 1.0, 1.0

    width = vw * options.scale
    height = vh * options.scale
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_num(width)}" height="{_num(height)}" '
        f'viewBox="{_num(vx)} {_num(vy)} {_num(vw)} {_num(vh)}">',
        f'<g fill="white" stroke="black" stroke-width="{_num(options.stroke_width)}" '
        'stroke-linejoin="round">',
    ]
    labels = []
    for tile in tiles:
        pts = tile.vertices
        d = "M" + "L".join(f"{_num(v.x)} {_num(-v.y)}" for v in pts) + "Z"
        out.append(f'<path d="{d}"/>')
        if options.label_tiles:
            cx = sum(v.x for v in pts) / len(pts)
            cy = sum(v.y for v in pts) / len(pts)
            labels.append(
                f'<text x="{_num(cx)}" y="{_num(-cy)}" font-size="{_num(0.18)}" '
                f'text-anchor="middle" fill="black" stroke="none">'
                f"{escape(tile_label(tile))}</text>")
    out.append("</g>")
    if labels:
        out.append('<g font-family="sans-serif">')
        out.extend(labels)
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
