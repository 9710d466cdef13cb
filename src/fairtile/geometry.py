"""The array record that carries a whole document's tiles, and the handful
of primitive operations everything else is built on.

Conventions used throughout the package:

* tiles store their vertices in counterclockwise order and have strictly
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

__all__ = ["Tile", "Tiles", "CORNERS", "signed_area"]

_DEGENERACY_EPS = 1e-14

CORNERS = ("A", "B", "C")


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


def _label(row, col, slot, code) -> str:
    """Compact "row/col/slot[/corner]" label for reports; corner code -1 is none."""
    return f"{row}/{col}/{slot}" + (f"/{CORNERS[code]}" if code >= 0 else "")


@dataclass(frozen=True)
class Tile:
    """One tile of a record: its vertices as (x, y) pairs, and its label."""

    vertices: tuple[tuple[float, float], ...]
    label: str


@dataclass(frozen=True, eq=False)
class Tiles:
    """N tiles of n vertices as arrays: counterclockwise coordinates ``xy``
    (N, n, 2); integer ids ``row``, ``col``, ``slot`` (all None for tiles
    without ids); for quadrangles, ``corner`` codes (0, 1, 2 for A, B, C; -1
    for none).  ``tiles[i]`` is tile i as a :class:`Tile`.

    The constructor refuses the first offending tile by the first rule it
    breaks, in this order: its slot (1 to 4; 1 or 4 in column 0), finite
    coordinates vertex by vertex, then for quadrangles the corner code and
    edges of nonzero length, then nonzero area, counterclockwise order and,
    for quadrangles, no self-crossing.
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
        quad, slot, corner = shape[0] == 4, self.slot, self.corner
        rules = []  # (offending tiles, refusal, message or its function of tile i), in order
        with np.errstate(all="ignore"):  # as Python floats do, overflow and nan pass quietly
            if slot is not None:
                rules += [(~np.isin(slot, (1, 2, 3, 4)), InvalidParameter,
                           lambda i: f"slot must be 1..4, got {slot[i]}"),
                          ((self.col == 0) & (slot % 3 != 1), InvalidParameter,
                           lambda i: f"column 0 only has slots 1 and 4, got {slot[i]}")]
            rules.append((~np.isfinite(self.xy).all(axis=(1, 2)), InvalidParameter,
                          lambda i: "non-finite coordinates ({}, {})".format(*self.xy[
                              i, np.argmin(np.isfinite(self.xy[i]).all(axis=1))].tolist())))
            if corner is not None:
                rules.append((~np.isin(corner, (-1, 0, 1, 2)), InvalidParameter,
                              lambda i: f"corner must be one of {CORNERS}, got {corner[i]}"))
            if quad:
                rules.append((self.lengths().min(axis=1) <= _DEGENERACY_EPS, DegeneratePolygon,
                              "quadrangle with a zero-length edge"))
            s, what = self.signed_areas(), "degenerate quadrangle" if quad else "collinear vertices"
            rules += [(np.abs(s) <= _DEGENERACY_EPS, DegeneratePolygon,
                       lambda i: f"{what} (signed area {s[i]:.3e})"),
                      (s < 0, DegeneratePolygon, "vertices must be in counterclockwise order")]
            if quad:
                v = list(self.xy.transpose(1, 2, 0))  # per vertex, its (x, y) arrays
                rules.append((_segments_cross(*v) | _segments_cross(*v[1:], v[0]),
                              DegeneratePolygon, "self-intersecting quadrangle"))
        bad = np.logical_or.reduce([mask for mask, *_ in rules])
        if bad.any():
            i = int(np.argmax(bad))
            _, refusal, message = next(rule for rule in rules if rule[0][i])
            raise refusal(message if isinstance(message, str) else message(i))

    def __len__(self) -> int:
        return len(self.xy)

    def __getitem__(self, i: int) -> Tile:
        return Tile(tuple(map(tuple, self.xy[i].tolist())), self.label(i))

    def label(self, i: int) -> str:
        """The report label of tile i, "?" for tiles without ids."""
        if self.row is None:
            return "?"
        return _label(self.row[i], self.col[i], self.slot[i],
                      -1 if self.corner is None else self.corner[i])

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
        """Per tile, whether all consecutive-edge cross products share one sign."""
        e = self.edges()
        f = np.roll(e, -1, axis=1)
        cross = e[..., 0] * f[..., 1] - e[..., 1] * f[..., 0]
        return (cross >= -tol).all(axis=1) | (cross <= tol).all(axis=1)
