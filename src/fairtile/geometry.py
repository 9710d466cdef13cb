"""Planar points, triangles and quadrangles, and the handful of primitive
operations everything else is built on.

Conventions used throughout the package:

* polygons store their vertices in counterclockwise order and have strictly
  positive area;
* edge vectors are ``v[k+1] - v[k]`` in that order, so they sum to zero;
* all arithmetic is binary64 and tolerances are absolute unless a caller
  says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegeneratePolygon, InvalidParameter

__all__ = [
    "Point",
    "TileId",
    "Triangle",
    "Quadrangle",
    "signed_area",
    "area",
    "perimeter",
    "edge_vectors",
    "edge_lengths",
    "interior_angles",
    "vertical_width",
    "is_convex",
    "bounding_box",
    "translate",
    "shear",
    "scale_uniform",
    "reflect_x",
    "with_vertices",
    "tile_label",
]

_DEGENERACY_EPS = 1e-14

CORNERS = ("A", "B", "C")


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidParameter(f"non-finite coordinates ({self.x}, {self.y})")

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, order=True)
class TileId:
    """Address of a tile: strip row, column, and slot within the column.

    Slots 1..4 run top to bottom inside a column; the mirror-symmetric
    center column 0 only has the two boundary slots 1 and 4.
    """

    row: int = 0
    col: int = 0
    slot: int = 1

    def __post_init__(self):
        if self.slot not in (1, 2, 3, 4):
            raise InvalidParameter(f"slot must be 1..4, got {self.slot}")
        if self.col == 0 and self.slot not in (1, 4):
            raise InvalidParameter(f"column 0 only has slots 1 and 4, got {self.slot}")


def signed_area(points: Sequence[Point]) -> float:
    """Shoelace sum; positive for counterclockwise order."""
    s = 0.0
    n = len(points)
    for k in range(n):
        p, q = points[k], points[(k + 1) % n]
        s += p.x * q.y - q.x * p.y
    return 0.5 * s


def _segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    # Proper crossing of open segments ab and cd.
    def orient(p, q, r):
        return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


@dataclass(frozen=True)
class Triangle:
    v1: Point
    v2: Point
    v3: Point
    id: TileId | None = None

    def __post_init__(self):
        s = signed_area(self.vertices)
        if abs(s) <= _DEGENERACY_EPS:
            raise DegeneratePolygon(f"collinear vertices (signed area {s:.3e})")
        if s < 0:
            raise DegeneratePolygon("vertices must be in counterclockwise order")

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.v1, self.v2, self.v3)


@dataclass(frozen=True)
class Quadrangle:
    """A simple quadrangle; ``corner`` records which triangle corner it
    covers when it came out of a fair split."""

    vertices: tuple[Point, Point, Point, Point]
    id: TileId | None = None
    corner: str | None = None

    def __post_init__(self):
        if len(self.vertices) != 4:
            raise InvalidParameter("a quadrangle needs exactly 4 vertices")
        if self.corner is not None and self.corner not in CORNERS:
            raise InvalidParameter(f"corner must be one of {CORNERS}, got {self.corner!r}")
        s = signed_area(self.vertices)
        if abs(s) <= _DEGENERACY_EPS:
            raise DegeneratePolygon(f"degenerate quadrangle (signed area {s:.3e})")
        if s < 0:
            raise DegeneratePolygon("vertices must be in counterclockwise order")
        v = self.vertices
        if _segments_cross(v[0], v[1], v[2], v[3]) or _segments_cross(v[1], v[2], v[3], v[0]):
            raise DegeneratePolygon("self-intersecting quadrangle")


def area(p) -> float:
    s = signed_area(p.vertices)
    if abs(s) <= _DEGENERACY_EPS:
        raise DegeneratePolygon(f"degenerate polygon (signed area {s:.3e})")
    return abs(s)


def perimeter(p) -> float:
    pts = p.vertices
    return sum(math.hypot(q.x - r.x, q.y - r.y) for q, r in zip(pts, pts[1:] + pts[:1]))


def edge_vectors(p) -> list[tuple[float, float]]:
    """Edge vectors v[k+1]-v[k] in counterclockwise order; they sum to zero."""
    pts = p.vertices
    return [(q.x - r.x, q.y - r.y) for r, q in zip(pts, pts[1:] + pts[:1])]


def edge_lengths(p) -> list[float]:
    return [math.hypot(dx, dy) for dx, dy in edge_vectors(p)]


def interior_angles(p) -> list[float]:
    """Unsigned interior angles in radians, one per vertex (convex polygons)."""
    pts = p.vertices
    n = len(pts)
    out = []
    for k in range(n):
        v = pts[k]
        a = (pts[(k + 1) % n].x - v.x, pts[(k + 1) % n].y - v.y)
        b = (pts[(k - 1) % n].x - v.x, pts[(k - 1) % n].y - v.y)
        cross = a[0] * b[1] - a[1] * b[0]
        dot = a[0] * b[0] + a[1] * b[1]
        out.append(math.atan2(abs(cross), dot))
    return out


def vertical_width(t) -> float:
    """Largest difference between second coordinates of the vertices."""
    ys = [v.y for v in t.vertices]
    return max(ys) - min(ys)


def is_convex(p, tol: float = 1e-12) -> bool:
    """True when all consecutive-edge cross products share one sign."""
    ev = edge_vectors(p)
    crosses = [
        ev[k][0] * ev[(k + 1) % len(ev)][1] - ev[k][1] * ev[(k + 1) % len(ev)][0]
        for k in range(len(ev))
    ]
    return all(c >= -tol for c in crosses) or all(c <= tol for c in crosses)


def bounding_box(p) -> tuple[float, float, float, float]:
    pts = p.vertices
    xs = [v.x for v in pts]
    ys = [v.y for v in pts]
    return (min(xs), min(ys), max(xs), max(ys))


def with_vertices(p, pts: Iterable[Point]):
    """Copy of the polygon with replaced vertices, keeping its identity."""
    pts = tuple(pts)
    if isinstance(p, Triangle):
        return Triangle(*pts, id=p.id)
    return Quadrangle(pts, id=p.id, corner=p.corner)


def tile_label(p) -> str:
    """Compact "row/col/slot[/corner]" label for reports, "?" if unknown."""
    tid = p.id
    if tid is None:
        return "?"
    corner = getattr(p, "corner", None)
    base = f"{tid.row}/{tid.col}/{tid.slot}"
    return f"{base}/{corner}" if corner else base


def _map_polygon(p, f, reverses_orientation: bool = False):
    pts = [Point(*f(v.x, v.y)) for v in p.vertices]
    if reverses_orientation:
        pts.reverse()
    return with_vertices(p, pts)


def translate(p, dx: float, dy: float):
    return _map_polygon(p, lambda x, y: (x + dx, y + dy))


def shear(p, mu: float):
    """Horizontal shear (x, y) -> (x + mu*y, y); preserves areas."""
    return _map_polygon(p, lambda x, y: (x + mu * y, y))


def scale_uniform(p, s: float):
    """Uniform scaling about the origin by a positive factor."""
    if s <= 0:
        raise InvalidParameter(f"scale factor must be positive, got {s!r}")
    return _map_polygon(p, lambda x, y: (s * x, s * y))


def reflect_x(p):
    """Reflection through the horizontal axis (x, y) -> (x, -y).

    Vertex order is reversed so the result stays counterclockwise.
    """
    return _map_polygon(p, lambda x, y: (x, -y), reverses_orientation=True)
