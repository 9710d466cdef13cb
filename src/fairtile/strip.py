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

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorVanished, InvalidParameter
from .geometry import Tiles

__all__ = [
    "MAX_COLS",
    "StripTiling",
    "strip_tiling",
    "deviations",
    "window_tiles",
    "flat_vertices",
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
            raise DenominatorVanished(f"recursion denominator ~ {d:.3e} at column {i}")
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


def deviations(t: StripTiling) -> np.ndarray:
    """The contraction driver h_i of a strip tiling, 0-based like ``t.ys``.

    ``h`` is accumulated from its non-negative increments 4y^2/(1-y^2),
    which keeps it exactly non-decreasing in floating point; the equivalent
    closed form 1 + alpha_{i+1} + beta_{i+1} holds to rounding and is
    exercised by the tests.
    """
    y = t.ys
    h0 = 1.0 + 2.0 * y[0] * y[0] / (1.0 - y[0] * y[0])
    inc = 4.0 * y[1:] * y[1:] / (1.0 - y[1:] * y[1:])
    return np.cumsum(np.concatenate(([h0], inc)))  # adds in order, as a running sum does


# Column n >= 1 of a strip has eight points: 0 (a_n, s), 1 (a_{n+1}, s),
# 2 (b_n, -s), 3 (b_{n+1}, -s), the midline vertices 4 (n - 1) and 5 (n),
# and the mirror images 6 (-a_n, s) and 7 (-b_n, -s).  Row j - 1 lists the
# three that the tile in slot j joins, counterclockwise; rows 4 and 5 list
# the center column's slots 1 and 4, read off column 1.
_SLOTS = np.array([(0, 5, 1), (4, 5, 0), (4, 2, 5), (2, 3, 5), (4, 0, 6), (4, 7, 2)])


def _slot_vertices(cols, slots, which, a, b, x, y, s: float) -> np.ndarray:
    """Vertices (m, 3, 2) of the tiles in columns ``cols``, slots ``slots``,
    where row ``which[k]`` of ``a``, ``b``, ``x``, ``y`` holds (a_n, a_{n+1}),
    (b_n, b_{n+1}) and the midline vertices n - 1, n (``y`` scaled) of tile k's
    column n = max(|col|, 1).  Negative columns mirror: x negated, order reversed."""
    up = np.full((len(a), 2), s)
    points = np.stack([np.concatenate([a, b, x, -a[:, :1], -b[:, :1]], 1),
                       np.concatenate([up, -up, y, up[:, :1], -up[:, :1]], 1)], -1)
    verts = points[which[:, None], _SLOTS[np.where(cols == 0, 4 + (slots == 4), slots - 1)]]
    verts[cols < 0] = verts[cols < 0, ::-1] * (-1.0, 1.0)
    return verts


def window_tiles(t: StripTiling) -> Tiles:
    """Every tile of the tiling as row 0: ``8*n_cols + 2`` tiles, columns
    -n_cols..n_cols ordered by (col, slot), each counterclockwise."""
    cols, slots = np.divmod(np.arange(-4 * t.n_cols, 4 * t.n_cols + 4), 4)
    keep = (cols != 0) | (slots % 3 == 0)  # the center column has slots 1 and 4 only
    cols, slots = cols[keep], slots[keep] + 1
    # per column n: (a_n, a_{n+1}), (b_n, b_{n+1}), (x_{n-1}, x_n), (y_{n-1}, y_n)
    pairs = [np.stack([v[:-1], v[1:]], -1) for v in (t.aa[1:], t.bb[1:], t.xs, t.ys * t.y_scale)]
    verts = _slot_vertices(cols, slots, np.maximum(np.abs(cols), 1) - 1, *pairs, t.y_scale)
    return Tiles(verts, 0 * cols, cols, slots)


def flat_vertices(cols: np.ndarray, slots: np.ndarray, y_scale: float) -> np.ndarray:
    """Vertices (m, 3, 2) of tiles of the undistorted strip (a_n = b_n = 2n - 1,
    midline vertex n at (2n, 0)), each from its own column in closed form."""
    x = 2.0 * np.maximum(np.abs(cols), 1)
    ends = np.stack([x - 1.0, x + 1.0], -1)
    return _slot_vertices(cols, slots, np.arange(len(x)), ends, ends, np.stack([x - 2.0, x], -1),
                          0.0 * ends, y_scale)


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
