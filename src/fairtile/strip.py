"""Distorted tilings of the strip R x [-1, 1] by unit-area triangles.

One height parameter ``y0`` fixes the whole tiling: the midline vertex at
the origin moves up to ``(0, y0)`` and, requiring unchanged topology, mirror
symmetry about ``x = 0`` and unit tile areas, every other vertex follows by
a rational recursion.  Column ``i`` of the right half contributes a top
boundary vertex ``(a_i, 1)``, a bottom boundary vertex ``(b_i, -1)`` and a
midline vertex ``(x_i, y_i)``; negative columns are mirror images.

Internally the recursion is run in deviation form, i.e. in the offsets

    alpha_i = a_i - (2i - 1),   beta_i = b_i - (2i - 1),   xi_i = x_i - 2i

from the undistorted coordinates.  These stay O(y0) while the raw
coordinates grow like 2i, so the deviation form avoids the cancellation the
raw recursion would accumulate over many thousands of columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DenominatorVanished, IndexOutOfRange, InvalidParameter
from .geometry import Point, TileId, Triangle

__all__ = [
    "MAX_COLS",
    "StripTiling",
    "DeviationSeries",
    "strip_tiling",
    "critical_tiling",
    "deviations",
    "triangle_at",
    "tile_ids",
    "window_triangles",
    "unit_area_residual",
    "identity_residual",
]

MAX_COLS = 10_000_000

# |denominator| below this signals a height parameter outside the valid regime
_DENOMINATOR_EPS = 1e-14


@dataclass(frozen=True, eq=False)
class StripTiling:
    """Vertex data of the distorted strip tiling for columns -n_cols..n_cols.

    ``xs``/``ys`` hold the midline vertices x_0..x_n, y_0..y_n.  ``aa`` and
    ``bb`` hold the boundary abscissas a_1..a_{n+1} and b_1..b_{n+1} and are
    1-based (index 0 is NaN padding) so indices match the recursion.  The
    deviation arrays use the same indexing as their raw counterparts.

    ``y_scale`` stretches second coordinates at materialization time only
    (the stored sequences always describe the unit strip), so a vertically
    scaled tiling shares all sequence identities with its parent.
    """

    y0: float
    n_cols: int
    xs: np.ndarray
    ys: np.ndarray
    aa: np.ndarray
    bb: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    xi: np.ndarray
    y_scale: float = 1.0

    def scaled(self, y_scale: float) -> "StripTiling":
        return replace(self, y_scale=y_scale)


@dataclass(frozen=True, eq=False)
class DeviationSeries:
    """Deviations of a strip tiling from the undistorted coordinates.

    ``alpha``/``beta`` are 1-based (NaN at index 0) like the boundary
    sequences they shadow; ``xi``, ``y`` and ``h`` are 0-based.  ``h`` is
    the contraction driver h_i = 1 + alpha_{i+1} + beta_{i+1}.
    """

    alpha: np.ndarray
    beta: np.ndarray
    xi: np.ndarray
    y: np.ndarray
    h: np.ndarray


def _validate_args(y0: float, n_cols: int) -> None:
    if not (isinstance(n_cols, (int, np.integer)) and 1 <= n_cols <= MAX_COLS):
        raise InvalidParameter(f"n_cols must be an integer in [1, {MAX_COLS}], got {n_cols!r}")
    if not (isinstance(y0, (int, float, np.floating)) and 0.0 < y0 < 1.0):
        raise InvalidParameter(f"y0 must lie in (0, 1), got {y0!r}")


def strip_tiling(y0: float, n_cols: int) -> StripTiling:
    """Build the distorted strip tiling for the given apex height.

    Runs the deviation-form recursion for columns 1..n_cols and returns the
    full vertex data.  Raises :class:`DenominatorVanished` if the recursion
    denominator 1 + alpha_i + beta_i falls below 1e-14 in magnitude, which
    happens only for height parameters outside the valid regime.
    """
    _validate_args(y0, n_cols)
    n = int(n_cols)
    y0 = float(y0)

    alpha = np.empty(n + 2)
    beta = np.empty(n + 2)
    xi = np.empty(n + 1)
    ys = np.empty(n + 1)
    alpha[0] = beta[0] = np.nan
    alpha[1] = y0 / (1.0 - y0)
    beta[1] = -y0 / (1.0 + y0)
    xi[0] = 0.0
    ys[0] = y0

    al, be, x_dev, y = alpha[1], beta[1], 0.0, y0
    for i in range(1, n + 1):
        d = 1.0 + al + be
        if abs(d) < _DENOMINATOR_EPS:
            raise DenominatorVanished(i, d)
        x_dev = x_dev - (al - be) * y / d
        y = y - 2.0 * y / d
        xi[i] = x_dev
        ys[i] = y
        al = al + 2.0 * y / (1.0 - y)
        be = be - 2.0 * y / (1.0 + y)
        alpha[i + 1] = al
        beta[i + 1] = be

    idx = np.arange(n + 2, dtype=np.float64)
    aa = (2.0 * idx - 1.0) + alpha
    bb = (2.0 * idx - 1.0) + beta
    xs = 2.0 * np.arange(n + 1, dtype=np.float64) + xi
    return StripTiling(y0=y0, n_cols=n, xs=xs, ys=ys, aa=aa, bb=bb,
                       alpha=alpha, beta=beta, xi=xi)


def critical_tiling(n_cols: int) -> StripTiling:
    """The closed-form tiling at the critical height 1/sqrt(3).

    At this height the midline collapses onto the axis after one step:
    x_i = 2i - 1/2, y_i = 0, a_i = 2i + (sqrt(3)-1)/2 and
    b_i = 2i - (sqrt(3)+1)/2 for i >= 1.  Built directly from these forms,
    not from the recursion, so it serves as an independent oracle.
    """
    if not (isinstance(n_cols, (int, np.integer)) and 1 <= n_cols <= MAX_COLS):
        raise InvalidParameter(f"n_cols must be an integer in [1, {MAX_COLS}], got {n_cols!r}")
    n = int(n_cols)
    rt3 = math.sqrt(3.0)
    y0 = 1.0 / rt3

    idx = np.arange(n + 2, dtype=np.float64)
    aa = 2.0 * idx + (rt3 - 1.0) / 2.0
    bb = 2.0 * idx - (rt3 + 1.0) / 2.0
    xs = 2.0 * np.arange(n + 1, dtype=np.float64) - 0.5
    ys = np.zeros(n + 1)
    xs[0] = 0.0
    ys[0] = y0

    alpha = aa - (2.0 * idx - 1.0)
    beta = bb - (2.0 * idx - 1.0)
    alpha[0] = beta[0] = aa[0] = bb[0] = np.nan
    xi = np.full(n + 1, -0.5)
    xi[0] = 0.0
    return StripTiling(y0=y0, n_cols=n, xs=xs, ys=ys, aa=aa, bb=bb,
                       alpha=alpha, beta=beta, xi=xi)


def deviations(t: StripTiling) -> DeviationSeries:
    """Deviation series of a strip tiling, including the driver sequence h.

    ``h`` is accumulated from its non-negative increments 4y^2/(1-y^2),
    which keeps it exactly non-decreasing in floating point; the equivalent
    closed form 1 + alpha_{i+1} + beta_{i+1} holds to rounding and is
    exercised by the tests.
    """
    y = t.ys
    h = np.empty(t.n_cols + 1)
    h[0] = 1.0 + 2.0 * y[0] * y[0] / (1.0 - y[0] * y[0])
    inc = 4.0 * y[1:] * y[1:] / (1.0 - y[1:] * y[1:])
    acc = h[0]
    for i, step in enumerate(inc, start=1):
        acc += step
        h[i] = acc
    return DeviationSeries(alpha=t.alpha, beta=t.beta, xi=t.xi, y=y, h=h)


def tile_ids(n_cols: int, row: int = 0):
    """All tile addresses of a strip window, ordered by (col, slot)."""
    for i in range(-n_cols, n_cols + 1):
        for j in (1, 4) if i == 0 else (1, 2, 3, 4):
            yield TileId(row, i, j)


def window_triangles(t: StripTiling, n_cols: int) -> list[Triangle]:
    """Every triangle of the window -n_cols..n_cols, ordered by (col, slot)."""
    return [triangle_at(t, tid.col, tid.slot) for tid in tile_ids(n_cols)]


def triangle_at(t: StripTiling, i: int, j: int) -> Triangle:
    """The triangle in column ``i``, slot ``j``, with vertices in ccw order.

    Negative columns return the exact mirror image (coordinate negation)
    of the corresponding positive column.
    """
    if abs(i) > t.n_cols:
        raise IndexOutOfRange(f"column {i} outside generated range +-{t.n_cols}")
    if j not in (1, 2, 3, 4) or (i == 0 and j in (2, 3)):
        raise IndexOutOfRange(f"no tile at column {i}, slot {j}")

    s = t.y_scale
    if i < 0:
        m = triangle_at(t, -i, j)
        # negate x and reverse the order so the mirror stays ccw
        p1, p2, p3 = m.vertices
        return Triangle(Point(-p3.x, p3.y), Point(-p2.x, p2.y), Point(-p1.x, p1.y),
                        id=TileId(0, i, j))

    if i == 0:
        apex = Point(0.0, t.y0 * s)
        if j == 1:
            tri = (apex, Point(t.aa[1], s), Point(-t.aa[1], s))
        else:
            tri = (apex, Point(-t.bb[1], -s), Point(t.bb[1], -s))
        return Triangle(*tri, id=TileId(0, 0, j))

    mid_prev = Point(t.xs[i - 1], t.ys[i - 1] * s)
    mid = Point(t.xs[i], t.ys[i] * s)
    if j == 1:
        tri = (Point(t.aa[i], s), mid, Point(t.aa[i + 1], s))
    elif j == 2:
        tri = (mid_prev, mid, Point(t.aa[i], s))
    elif j == 3:
        tri = (mid_prev, Point(t.bb[i], -s), mid)
    else:
        tri = (Point(t.bb[i], -s), Point(t.bb[i + 1], -s), mid)
    return Triangle(*tri, id=TileId(0, i, j))


def unit_area_residual(t: StripTiling) -> float:
    """Worst |area - y_scale| over all generated tiles (every tile's area
    is the vertical scale), computed from the four determinant families
    (vectorized; covers every column at once)."""
    s = t.y_scale
    n = t.n_cols
    a, b = t.aa, t.bb
    x, y = t.xs, t.ys * s

    # slot 2 / slot 3 share the midline edge (x_{i-1},y_{i-1}) -> (x_i,y_i)
    dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]
    up = 0.5 * (dx * (s - y[:-1]) - dy * (a[1:n + 1] - x[:-1]))
    lo = 0.5 * ((b[1:n + 1] - x[:-1]) * dy - (-s - y[:-1]) * dx)
    # slot 1 / slot 4 have a horizontal boundary edge
    top = 0.5 * (a[2:] - a[1:n + 1]) * (s - y[1:])
    bot = 0.5 * (b[2:] - b[1:n + 1]) * (y[1:] + s)
    # the two center tiles span the mirror axis
    center = np.array([0.5 * 2.0 * a[1] * (s - t.y0 * s), 0.5 * 2.0 * b[1] * (t.y0 * s + s)])

    worst = 0.0
    for fam in (up, lo, top, bot, center):
        if fam.size:
            worst = max(worst, float(np.max(np.abs(fam - s))))
    return worst


def identity_residual(t: StripTiling) -> float:
    """Worst absolute residual of the area-bookkeeping identity

        4i - 3 = ((x_{i-1} + a_i)(1 - y_{i-1}) + (x_{i-1} + b_i)(1 + y_{i-1})) / 2

    over i = 1..n_cols (evaluated on the unscaled sequences)."""
    n = t.n_cols
    i = np.arange(1, n + 1, dtype=np.float64)
    xprev, yprev = t.xs[:-1], t.ys[:-1]
    rhs = 0.5 * ((xprev + t.aa[1:n + 1]) * (1.0 - yprev) + (xprev + t.bb[1:n + 1]) * (1.0 + yprev))
    return float(np.max(np.abs(rhs - (4.0 * i - 3.0))))
