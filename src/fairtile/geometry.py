"""Planar points, triangles and quadrangles, the array record that carries
a whole document's tiles, and the handful of primitive operations
everything else is built on.

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

import numpy as np

from .errors import DegeneratePolygon, InvalidParameter

__all__ = [
    "Point",
    "TileId",
    "Triangle",
    "Quadrangle",
    "Tiles",
    "CORNERS",
    "signed_area",
    "edge_vectors",
    "is_convex",
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


def signed_area(points) -> float:
    """Shoelace sum of (x, y) pairs, floats or arrays alike; positive for
    counterclockwise order."""
    s = 0.0
    n = len(points)
    for k in range(n):
        (px, py), (qx, qy) = points[k], points[(k + 1) % n]
        s += px * qy - qx * py
    return 0.5 * s


def _segments_cross(a, b, c, d):
    """Proper crossing of open segments ab and cd, for (x, y) pairs of floats
    or of arrays."""
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) & (o3 * o4 < 0)


@dataclass(frozen=True)
class Triangle:
    v1: Point
    v2: Point
    v3: Point
    id: TileId | None = None

    def __post_init__(self):
        s = signed_area([v.xy for v in self.vertices])
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
        # a repeated vertex leaves a triangle with positive area
        if min(math.hypot(dx, dy) for dx, dy in edge_vectors(self)) <= _DEGENERACY_EPS:
            raise DegeneratePolygon("quadrangle with a zero-length edge")
        v = [p.xy for p in self.vertices]
        s = signed_area(v)
        if abs(s) <= _DEGENERACY_EPS:
            raise DegeneratePolygon(f"degenerate quadrangle (signed area {s:.3e})")
        if s < 0:
            raise DegeneratePolygon("vertices must be in counterclockwise order")
        if _segments_cross(v[0], v[1], v[2], v[3]) or _segments_cross(v[1], v[2], v[3], v[0]):
            raise DegeneratePolygon("self-intersecting quadrangle")


_LETTER = {-1: None, **dict(enumerate(CORNERS))}


@dataclass(frozen=True, eq=False)
class Tiles:
    """N tiles of n vertices as arrays: counterclockwise coordinates ``xy``
    (N, n, 2); integer ids ``row``, ``col``, ``slot`` (all None for tiles
    without ids); for quadrangles, ``corner`` codes (0, 1, 2 for A, B, C; -1
    for none).  The constructor applies the rules of :class:`TileId`,
    :class:`Point`, :class:`Triangle` and :class:`Quadrangle` as array
    predicates; the first offending tile raises what building it raises.
    ``tiles[i]`` builds tile i as that object, on demand.
    """

    xy: np.ndarray
    row: np.ndarray | None = None
    col: np.ndarray | None = None
    slot: np.ndarray | None = None
    corner: np.ndarray | None = None

    def __post_init__(self):
        shape = self.xy.shape[1:]
        if shape not in ((3, 2), (4, 2)) or (self.corner is not None and shape[0] == 3):
            raise InvalidParameter(f"tiles need (N, 3 or 4, 2) coordinates, corners only on "
                                   f"quadrangles; got {self.xy.shape}")
        with np.errstate(all="ignore"):  # as Python floats do, overflow and nan pass quietly
            s = self.signed_areas()
            bad = ~np.isfinite(self.xy).all(axis=(1, 2)) | (np.abs(s) <= _DEGENERACY_EPS) | (s < 0)
            if self.slot is not None:
                bad |= ~np.isin(self.slot, (1, 2, 3, 4)) | (self.col == 0) & (self.slot % 3 != 1)
            if self.xy.shape[1] == 4:
                v = list(self.xy.transpose(1, 2, 0))  # per vertex, its (x, y) arrays
                bad |= ((self.lengths().min(axis=1) <= _DEGENERACY_EPS)
                        | _segments_cross(*v) | _segments_cross(*v[1:], v[0]))
                if self.corner is not None:
                    bad |= ~np.isin(self.corner, tuple(_LETTER))
        for i in np.flatnonzero(bad).tolist():
            self[i]  # the object constructors name the offence

    def __len__(self) -> int:
        return len(self.xy)

    def __getitem__(self, i: int) -> Triangle | Quadrangle:
        tid = None if self.row is None else TileId(*map(int, (self.row[i], self.col[i], self.slot[i])))
        pts = tuple(Point(x, y) for x, y in self.xy[i].tolist())
        if len(pts) == 3:
            return Triangle(*pts, id=tid)
        code = -1 if self.corner is None else int(self.corner[i])
        return Quadrangle(pts, id=tid, corner=_LETTER.get(code, code))

    @classmethod
    def of(cls, polys) -> Tiles:
        """The record of polygons with one vertex count, ids on all or none."""
        polys = list(polys)
        n = len(polys[0].vertices) if polys else 3
        xy = np.array([[v.xy for v in p.vertices] for p in polys], dtype=float).reshape(-1, n, 2)
        ids = np.array([(t.row, t.col, t.slot) for t in (p.id for p in polys) if t], np.int64)
        if 0 < len(ids) < len(polys):
            raise InvalidParameter("tiles carry ids on all or none")
        corner = np.array([CORNERS.index(p.corner) if p.corner else -1 for p in polys],
                          dtype=np.int8) if n == 4 else None
        return cls(xy, *(ids.reshape(-1, 3).T if len(ids) or not polys else (None,) * 3), corner)

    def edges(self) -> np.ndarray:
        """Edge vectors ``v[k+1] - v[k]``, shape (N, n, 2)."""
        return np.roll(self.xy, -1, axis=1) - self.xy

    def lengths(self) -> np.ndarray:
        """Edge lengths (N, n), each ``math.hypot`` of an edge vector."""
        e = self.edges()
        return np.array(list(map(math.hypot, e[..., 0].ravel().tolist(),
                                 e[..., 1].ravel().tolist()))).reshape(e.shape[:2])

    def angles(self) -> np.ndarray:
        """Unsigned interior angles (N, n) in radians (convex tiles), each
        ``math.atan2`` of |cross| and dot of the edges to the next and the
        previous vertex."""
        ahead, behind = self.edges(), np.roll(self.xy, 1, axis=1) - self.xy
        cross = ahead[..., 0] * behind[..., 1] - ahead[..., 1] * behind[..., 0]
        dot = ahead[..., 0] * behind[..., 0] + ahead[..., 1] * behind[..., 1]
        return np.array(list(map(math.atan2, np.abs(cross).ravel().tolist(),
                                 dot.ravel().tolist()))).reshape(cross.shape)

    def signed_areas(self) -> np.ndarray:
        """The :func:`signed_area` of every tile, in its operation order."""
        return signed_area(list(self.xy.transpose(1, 2, 0)))

    def convex(self, tol: float = 1e-12) -> np.ndarray:
        """Per tile, whether :func:`is_convex` holds."""
        e = self.edges()
        f = np.roll(e, -1, axis=1)
        cross = e[..., 0] * f[..., 1] - e[..., 1] * f[..., 0]
        return (cross >= -tol).all(axis=1) | (cross <= tol).all(axis=1)


def edge_vectors(p) -> list[tuple[float, float]]:
    """Edge vectors v[k+1]-v[k] in counterclockwise order; they sum to zero."""
    pts = p.vertices
    return [(q.x - r.x, q.y - r.y) for r, q in zip(pts, pts[1:] + pts[:1])]


def is_convex(p, tol: float = 1e-12) -> bool:
    """True when all consecutive-edge cross products share one sign."""
    ev = edge_vectors(p)
    crosses = [
        ev[k][0] * ev[(k + 1) % len(ev)][1] - ev[k][1] * ev[(k + 1) % len(ev)][0]
        for k in range(len(ev))
    ]
    return all(c >= -tol for c in crosses) or all(c <= tol for c in crosses)


def tile_label(p) -> str:
    """Compact "row/col/slot[/corner]" label for reports, "?" if unknown."""
    tid = p.id
    if tid is None:
        return "?"
    corner = getattr(p, "corner", None)
    base = f"{tid.row}/{tid.col}/{tid.slot}"
    return f"{base}/{corner}" if corner else base
