"""Scaling the strip tiling to the equilateral regime, certified shear
selection, and stacking sheared strip copies into a tiling of the plane.

The vertical stretch by sqrt(3) turns the unit strip into
R x [-sqrt(3), sqrt(3)] and every unit-area tile into a near-equilateral
triangle of area sqrt(3).  Stacked rows are copies of one base strip, each
sheared by its own small parameter mu_n; odd rows are additionally
reflected through the horizontal axis, and every row is translated so that
consecutive strips share their boundary vertices exactly.  The shear
parameters are drawn from nested intervals (so the total horizontal drift
2*sqrt(3)*sum|mu_n| stays under the closeness budget) and certified against
the finite collision sets of the window: no co-sheared pair congruent, no
tile congruent to a tile of an earlier row, no tile equilateral.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .congruence import bad_shear_set, equilateral_shear_set
from .errors import (
    BoundaryMismatch,
    ExhaustedRetries,
    IndexOutOfRange,
    InvalidParameter,
)
from .geometry import Point, TileId, Triangle, edge_vectors, reflect_x, shear, translate
from .strip import StripTiling, tile_ids, triangle_at, window_triangles

__all__ = [
    "SQRT3",
    "StripTransform",
    "PlaneTiling",
    "scale_to_equilateral",
    "shear",
    "row_order",
    "shear_index",
    "select_shears",
    "stack_plane",
    "window",
    "plane_triangle",
    "periodic_triangle",
]

SQRT3 = math.sqrt(3.0)

_BOUNDARY_TOL = 1e-9

# root-avoidance margins tried largest first: window tiles are all nearly
# congruent, so collision roots pile up densely near 0 and the feasible
# margin depends on the window; the floor matches the signature quantum
_MARGIN_CAP = 1e-6
_MARGIN_FLOOR = 1e-9
_MARGIN_STEP = 8.0


@dataclass(frozen=True)
class StripTransform:
    """Placement of one sheared strip copy: optional reflection through the
    horizontal axis, then a translation."""

    mu: float
    reflected: bool
    translation: tuple[float, float]


@dataclass(frozen=True, eq=False)
class PlaneTiling:
    """Stacked sheared copies of one certified base strip.

    ``rows`` holds the generated strip rows (contiguous, containing 0) and
    ``transforms`` their placements.  Tiles materialize lazily through
    :func:`plane_triangle` / :func:`window`.
    """

    base: StripTiling
    shears: tuple[float, ...]
    rows: tuple[int, ...]
    transforms: dict[int, StripTransform]
    window_cols: int
    epsilon: float | None = None
    seed: int | None = None

    def tiles(self) -> list[tuple[TileId, Triangle]]:
        """Every generated tile, ordered by (row, col, slot)."""
        out = []
        for k in self.rows:
            for tid in tile_ids(self.window_cols, row=k):
                out.append((tid, plane_triangle(self, tid)))
        return out


def scale_to_equilateral(t: StripTiling) -> StripTiling:
    """Stretch second coordinates by sqrt(3); tile areas become sqrt(3)."""
    if t.y_scale != 1.0:
        raise InvalidParameter("strip tiling is already vertically scaled")
    return t.scaled(SQRT3)


def row_order(count: int) -> list[int]:
    """Strip rows in construction order: 0, +1, -1, +2, -2, ..."""
    if count < 1:
        raise InvalidParameter(f"row count must be >= 1, got {count}")
    out = [0]
    k = 1
    while len(out) < count:
        out.append(k)
        if len(out) < count:
            out.append(-k)
        k += 1
    return out


def shear_index(k: int) -> int:
    """1-based index of the shear parameter used by strip row k.

    Row 0 takes the first parameter, then rows +1, -1, +2, -2, ... consume
    the rest in construction order.
    """
    if k == 0:
        return 1
    return 2 * k if k > 0 else 2 * (-k) + 1


def _cross_roots(e0: np.ndarray, fixed_sq: list[np.ndarray]) -> np.ndarray:
    """Shear parameters matching one certificate edge length of each base
    tile against any fixed edge length of the earlier rows (vectorized)."""
    if not fixed_sq:
        return np.empty(0)
    lengths = np.concatenate(fixed_sq)
    x0 = e0[:, 0:1]
    y0 = e0[:, 1:2]
    p = 2.0 * x0 * y0 / (y0 * y0)
    q = (x0 * x0 + y0 * y0 - lengths[None, :]) / (y0 * y0)
    disc = 0.25 * p * p - q
    disc = np.where(np.abs(disc) < 1e-12, 0.0, disc)
    ok = disc >= 0.0
    root = np.sqrt(np.where(ok, disc, 0.0))
    mid = np.broadcast_to(-0.5 * p, disc.shape)
    return np.concatenate([(mid - root)[ok], (mid + root)[ok]])


def select_shears(base: StripTiling, count: int, epsilon: float, seed: int,
                  window_cols: int, *, max_retries: int = 1000,
                  rng: random.Random | None = None) -> list[float]:
    """Draw and certify the shear parameters for ``count`` strip rows.

    Parameter n comes from (-2^-n * eps/(2*sqrt(3)), +2^-n * eps/(2*sqrt(3)))
    so the stacked drift stays under eps, and is redrawn until it clears
    every collision root of the window by a positive margin: the co-shear
    and equilateral roots of the base, and the match roots against all
    previously fixed rows.  The base must already be free of
    translation/half-turn congruent pairs on the window.
    """
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    if not 0.0 < epsilon:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    if window_cols < 1 or window_cols > base.n_cols:
        raise InvalidParameter(
            f"window_cols must be in [1, {base.n_cols}], got {window_cols}")
    rng = rng if rng is not None else random.Random(seed)

    tiles = window_triangles(base, window_cols)
    static: list[float] = []
    for a in range(len(tiles)):
        static.extend(equilateral_shear_set(tiles[a]).roots)
        for bdx in range(a + 1, len(tiles)):
            static.extend(bad_shear_set(tiles[a], tiles[bdx]).roots)
    static_roots = np.asarray(sorted(static))

    ev = np.array([edge_vectors(t) for t in tiles])  # (N, 3, 2)
    pick = np.argmax(np.abs(ev[:, :, 1]), axis=1)
    e0 = ev[np.arange(len(tiles)), pick, :]

    chosen: list[float] = []
    fixed_sq: list[np.ndarray] = []
    for n in range(1, count + 1):
        half = (0.5 ** n) * epsilon / (2.0 * SQRT3)
        roots = np.sort(np.concatenate([static_roots, _cross_roots(e0, fixed_sq)]))

        def gap_to_roots(value: float) -> float:
            idx = int(np.searchsorted(roots, value))
            gap = math.inf
            if idx < roots.size:
                gap = roots[idx] - value
            if idx > 0:
                gap = min(gap, value - roots[idx - 1])
            return gap

        margins = [min(_MARGIN_CAP, half / 20.0)]
        while margins[-1] / _MARGIN_STEP > _MARGIN_FLOOR:
            margins.append(margins[-1] / _MARGIN_STEP)
        margins.append(_MARGIN_FLOOR)
        margins.sort(reverse=True)  # intervals narrower than the floor still try it first
        mu = None
        for margin in margins:
            for _ in range(max_retries):
                cand = rng.uniform(-half, half)
                if roots.size == 0 or gap_to_roots(cand) >= margin:
                    mu = cand
                    break
            if mu is not None:
                break
        if mu is None:
            raise ExhaustedRetries(
                f"no shear for row parameter {n} clears the collision roots by "
                f"{_MARGIN_FLOOR} within {max_retries} draws per margin level "
                f"(window too dense for epsilon={epsilon})")
        chosen.append(mu)
        sx = ev[:, :, 0] + mu * ev[:, :, 1]
        sy = ev[:, :, 1]
        fixed_sq.append((sx * sx + sy * sy).ravel())
    return chosen


def _row_offsets(ks: list[int], mu_of: dict[int, float]) -> dict[int, float]:
    # translation x-offsets chaining boundary matches away from row 0
    t_off = {0: 0.0}
    for k in range(1, max(ks) + 1 if ks else 1):
        if k - 1 in t_off and k in mu_of:
            if (k - 1) % 2 == 0:
                t_off[k] = t_off[k - 1] + (mu_of[k - 1] - mu_of[k]) * SQRT3
            else:
                t_off[k] = t_off[k - 1] + (mu_of[k] - mu_of[k - 1]) * SQRT3
    for k in range(-1, min(ks) - 1 if ks else -1, -1):
        if k + 1 in t_off and k in mu_of:
            if (k + 1) % 2 == 0:
                t_off[k] = t_off[k + 1] + (mu_of[k] - mu_of[k + 1]) * SQRT3
            else:
                t_off[k] = t_off[k + 1] + (mu_of[k + 1] - mu_of[k]) * SQRT3
    return t_off


def stack_plane(base: StripTiling, shears, rows, window_cols: int, *,
                epsilon: float | None = None,
                seed: int | None = None) -> PlaneTiling:
    """Stack sheared copies of the base strip into a plane tiling.

    ``rows`` is either a row count (rows are then taken in construction
    order 0, +1, -1, ...) or an explicit contiguous range containing 0.
    Row k is sheared by its assigned parameter, reflected when k is odd,
    and translated so consecutive strips share boundary vertices; the
    shared-vertex property is asserted on the window to 1e-9 and a
    violation raises :class:`BoundaryMismatch`.
    """
    if base.y_scale != SQRT3:
        raise InvalidParameter("stack_plane needs the vertically scaled strip")
    if window_cols < 1 or window_cols > base.n_cols:
        raise InvalidParameter(
            f"window_cols must be in [1, {base.n_cols}], got {window_cols}")
    if isinstance(rows, int):
        ks = row_order(rows)
    else:
        ks = sorted(set(int(k) for k in rows))
        if not ks or 0 not in ks or ks != list(range(min(ks), max(ks) + 1)):
            raise InvalidParameter("rows must form a contiguous range containing 0")
    shears = tuple(float(m) for m in shears)
    needed = max(shear_index(k) for k in ks)
    if len(shears) < needed:
        raise InvalidParameter(f"{needed} shear parameters needed, got {len(shears)}")

    mu_of = {k: shears[shear_index(k) - 1] for k in ks}
    t_off = _row_offsets(ks, mu_of)
    transforms = {
        k: StripTransform(mu=mu_of[k], reflected=(k % 2 != 0),
                          translation=(t_off[k], 2.0 * k * SQRT3))
        for k in ks
    }
    plane = PlaneTiling(base=base, shears=shears, rows=tuple(sorted(ks)),
                        transforms=transforms, window_cols=window_cols,
                        epsilon=epsilon, seed=seed)
    _assert_boundaries(plane)
    return plane


def _boundary_profiles(p: PlaneTiling, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted x-coordinates of a row's (top, bottom) boundary vertices."""
    w = p.window_cols
    a_pos = p.base.aa[1:w + 2]
    b_pos = p.base.bb[1:w + 2]
    a_full = np.concatenate([-a_pos[::-1], a_pos])
    b_full = np.concatenate([-b_pos[::-1], b_pos])
    tr = p.transforms[k]
    shift = tr.mu * p.base.y_scale
    if tr.reflected:
        top = b_full - shift + tr.translation[0]
        bottom = a_full + shift + tr.translation[0]
    else:
        top = a_full + shift + tr.translation[0]
        bottom = b_full - shift + tr.translation[0]
    return top, bottom


def _assert_boundaries(p: PlaneTiling) -> None:
    for k in p.rows[:-1]:
        if k + 1 not in p.transforms:
            continue
        top, _ = _boundary_profiles(p, k)
        _, bottom = _boundary_profiles(p, k + 1)
        dev = float(np.max(np.abs(top - bottom)))
        if dev > _BOUNDARY_TOL:
            raise BoundaryMismatch(k + 1, dev)


def plane_triangle(p: PlaneTiling, tid: TileId) -> Triangle:
    """Materialize one tile of the plane tiling."""
    if tid.row not in p.transforms:
        raise IndexOutOfRange(f"row {tid.row} not generated")
    if abs(tid.col) > p.window_cols:
        raise IndexOutOfRange(f"column {tid.col} outside window +-{p.window_cols}")
    tr = p.transforms[tid.row]
    tri = triangle_at(p.base, tid.col, tid.slot)
    tri = shear(tri, tr.mu)
    if tr.reflected:
        tri = reflect_x(tri)
    tri = translate(tri, tr.translation[0], tr.translation[1])
    return Triangle(*tri.vertices, id=tid)


def _periodic_strip_triangle(i: int, j: int) -> Triangle:
    """Closed-form tile of the scaled undistorted strip (edge-2 triangles)."""
    s = SQRT3
    if i < 0:
        m = _periodic_strip_triangle(-i, j)
        p1, p2, p3 = m.vertices
        return Triangle(Point(-p3.x, p3.y), Point(-p2.x, p2.y), Point(-p1.x, p1.y))
    if i == 0:
        if j == 1:
            return Triangle(Point(0.0, 0.0), Point(1.0, s), Point(-1.0, s))
        return Triangle(Point(0.0, 0.0), Point(-1.0, -s), Point(1.0, -s))
    lo, hi, mid_prev, mid = 2.0 * i - 1.0, 2.0 * i + 1.0, 2.0 * i - 2.0, 2.0 * i
    if j == 1:
        return Triangle(Point(lo, s), Point(mid, 0.0), Point(hi, s))
    if j == 2:
        return Triangle(Point(mid_prev, 0.0), Point(mid, 0.0), Point(lo, s))
    if j == 3:
        return Triangle(Point(mid_prev, 0.0), Point(lo, -s), Point(mid, 0.0))
    return Triangle(Point(lo, -s), Point(hi, -s), Point(mid, 0.0))


def periodic_triangle(tid: TileId) -> Triangle:
    """The tile's counterpart in the periodic tiling by equilateral
    triangles of edge length 2 (zero shears, zero horizontal offsets)."""
    tri = _periodic_strip_triangle(tid.col, tid.slot)
    if tid.row % 2 != 0:
        tri = reflect_x(tri)
    tri = translate(tri, 0.0, 2.0 * tid.row * SQRT3)
    return Triangle(*tri.vertices, id=tid)


def window(p: PlaneTiling, x_range: tuple[float, float],
           row_range: tuple[int, int]) -> list[tuple[TileId, Triangle]]:
    """Every generated tile meeting the closed box, ordered (row, col, slot).

    ``x_range`` is a closed interval (empty if reversed); ``row_range`` is
    an inclusive pair of strip rows.  Ranges outside the generated data
    raise :class:`IndexOutOfRange`.
    """
    x_lo, x_hi = x_range
    k_lo, k_hi = row_range
    if x_lo > x_hi or k_lo > k_hi:
        return []
    if k_lo < min(p.rows) or k_hi > max(p.rows):
        raise IndexOutOfRange(f"row range {row_range} outside generated rows {p.rows}")
    coverage = 2.0 * p.window_cols - 1.0
    if x_lo < -coverage or x_hi > coverage:
        raise IndexOutOfRange(
            f"x range {x_range} outside certified coverage +-{coverage}")
    return [(tid, tri) for tid, tri in p.tiles()
            if k_lo <= tid.row <= k_hi
            and max(v.x for v in tri.vertices) >= x_lo
            and min(v.x for v in tri.vertices) <= x_hi]
