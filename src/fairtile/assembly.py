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
from dataclasses import dataclass, replace

import numpy as np

from .congruence import (DEFAULT_QUANTUM, aligned_sweep, bad_shear_set, equilateral_shear_set,
                         halfturn_key, halfturn_variants, match_roots, pair_shear_roots)
from .errors import BoundaryMismatch, ExhaustedRetries, InvalidParameter
from .geometry import Tiles
from .strip import StripTiling, flat_vertices, window_tiles

__all__ = [
    "SQRT3",
    "StripTransform",
    "PlaneTiling",
    "scale_to_equilateral",
    "row_order",
    "select_shears",
    "stack_plane",
    "periodic_triangles",
]

SQRT3 = math.sqrt(3.0)

_BOUNDARY_TOL = 1e-9

# root-avoidance margins tried largest first: window tiles are all nearly
# congruent, so collision roots pile up densely near 0 and the feasible
# margin depends on the window; the floor matches the signature quantum
_MARGIN_CAP = 1e-6
_MARGIN_FLOOR = 1e-9
_MARGIN_STEP = 8.0
_DRAWS_PER_MARGIN = 1000
_PAIR_BLOCK = 4096  # tile pairs per static-root pass
_CROSS_BLOCK = 1 << 15  # quadratics per cross-row root pass


@dataclass(frozen=True)
class StripTransform:
    """Placement of one strip copy: the shear (x, y) -> (x + mu*y, y), an
    optional reflection through the horizontal axis, then a translation."""

    mu: float
    reflected: bool
    translation: tuple[float, float]

    def place(self, x, y):
        """Image of the strip point(s) ``(x, y)``, for floats or arrays alike."""
        tx, ty = self.translation
        return (x + self.mu * y) + tx, (-y if self.reflected else y) + ty


def _placed(tr: StripTransform, verts: np.ndarray) -> np.ndarray:
    """The copies of the strip tiles ``verts`` (m, 3, 2) that ``tr`` places;
    reflected copies reverse their vertex order to stay counterclockwise."""
    placed = np.stack(tr.place(verts[..., 0], verts[..., 1]), -1)
    return placed[:, ::-1] if tr.reflected else placed


@dataclass(frozen=True, eq=False)
class PlaneTiling:
    """Stacked sheared copies of one certified base strip.

    ``rows`` holds the generated strip rows (contiguous, containing 0) and
    ``transforms`` their placements.  Each row is the whole base strip,
    columns -n_cols..n_cols, placed from its vertex array by ``tiles()``.
    """

    base: StripTiling
    rows: tuple[int, ...]
    transforms: dict[int, StripTransform]

    def tiles(self) -> Tiles:
        """Every generated tile, ordered by (row, col, slot)."""
        strip, k = window_tiles(self.base), len(self.rows)
        xy = np.concatenate([_placed(self.transforms[r], strip.xy) for r in self.rows])
        return Tiles(xy, np.repeat(self.rows, len(strip)), *np.tile([strip.col, strip.slot], k))


def scale_to_equilateral(t: StripTiling) -> StripTiling:
    """Stretch second coordinates by sqrt(3); tile areas become sqrt(3)."""
    if t.y_scale != 1.0:
        raise InvalidParameter("strip tiling is already vertically scaled")
    return replace(t, y_scale=SQRT3)


def row_order(count: int) -> list[int]:
    """Strip rows in construction order: 0, +1, -1, +2, -2, ..."""
    if count < 1:
        raise InvalidParameter(f"row count must be >= 1, got {count}")
    return [0, *(sign * k for k in range(1, count) for sign in (1, -1))][:count]


def _gaps(roots: list[np.ndarray], values: np.ndarray) -> np.ndarray:
    """Distance from each value to the nearest root in any of the sorted root
    arrays, which need no merging; infinite where they hold none."""
    gap = np.full(len(values), math.inf)
    for r in (r for r in roots if r.size):
        idx = np.searchsorted(r, values)
        gap = np.minimum(gap, np.minimum(np.abs(r[np.maximum(idx - 1, 0)] - values),
                                         np.abs(r[np.minimum(idx, r.size - 1)] - values)))
    return gap


def select_shears(base: StripTiling, count: int, epsilon: float,
                  rng: random.Random) -> list[float]:
    """Draw and certify the shear parameters for ``count`` copies of the base.

    Parameter n is drawn from ``rng`` in
    (-2^-n * eps/(2*sqrt(3)), +2^-n * eps/(2*sqrt(3))) so the stacked drift
    stays under eps, and is redrawn until it clears
    every collision root of the window by a positive margin: the co-shear
    and equilateral roots of the base, and the match roots against all
    previously fixed rows.  A pair of base tiles that agrees up to
    translation or half-turn admits no certified shear and raises
    :class:`DegeneratePair`.
    """
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    if not 0.0 < epsilon:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")

    tiles = window_tiles(base)
    _, collisions = aligned_sweep(tiles, halfturn_variants, halfturn_key, DEFAULT_QUANTUM)
    if collisions:
        bad_shear_set(*(tiles[i] for i in collisions[0]))  # raises DegeneratePair

    ev = tiles.edges()  # (N, 3, 2)
    # every draw lies in [-half_1, half_1] and every margin is at most
    # _MARGIN_CAP, so a root r with |r| > half_1 + _MARGIN_CAP rejects no
    # draw: were it the nearest root, the gap would clear every margin, and
    # the gap to the nearest root kept is no smaller.  The second _MARGIN_CAP
    # absorbs the rounding of the draw and of |r - draw|; every nearer root
    # is kept, so each verdict is the one the full root set gives.
    reach = 0.5 * epsilon / (2.0 * SQRT3) + 2.0 * _MARGIN_CAP
    equilateral = equilateral_shear_set(tiles)
    a, b = np.triu_indices(len(tiles), 1)
    static = [equilateral[np.abs(equilateral) <= reach]] + [
        pair_shear_roots(ev[a[k:k + _PAIR_BLOCK]], ev[b[k:k + _PAIR_BLOCK]], reach)
        for k in range(0, len(a), _PAIR_BLOCK)]
    roots = [np.sort(np.concatenate(static))]  # and one sorted array per fixed row

    chosen: list[float] = []
    for n in range(1, count + 1):
        half = (0.5 ** n) * epsilon / (2.0 * SQRT3)
        margins = [min(_MARGIN_CAP, half / 20.0)]
        while margins[-1] / _MARGIN_STEP > _MARGIN_FLOOR:
            margins.append(margins[-1] / _MARGIN_STEP)
        margins.append(_MARGIN_FLOOR)
        margins.sort(reverse=True)  # intervals narrower than the floor still try it first
        for margin in margins:
            # the level's draws of rng.uniform (a + (b - a) * random()) in one gap pass;
            # a hit rewinds rng to just after the first accepted draw: the same stream
            state = rng.getstate()
            draws = -half + (half - -half) * np.array([rng.random()
                                                       for _ in range(_DRAWS_PER_MARGIN)])
            hit = np.flatnonzero(_gaps(roots, draws) >= margin)
            if hit.size:
                rng.setstate(state)
                for _ in range(int(hit[0]) + 1):
                    rng.random()
                break
        else:
            raise ExhaustedRetries(
                f"no shear for row parameter {n} clears the collision roots by "
                f"{_MARGIN_FLOOR} within {_DRAWS_PER_MARGIN} draws per margin level "
                f"(window too dense for epsilon={epsilon})")
        mu = float(draws[hit[0]])
        chosen.append(mu)
        if n < count:
            # later rows must also avoid matching this row's sheared edges
            sheared = np.stack([ev[:, :, 0] + mu * ev[:, :, 1], ev[:, :, 1]],
                               axis=-1).reshape(1, -1, 2)
            step = max(1, _CROSS_BLOCK // sheared.shape[1])
            roots.append(np.sort(np.concatenate([match_roots(ev[k:k + step], sheared, reach)
                                                 for k in range(0, len(ev), step)])))
    return chosen


def _row_offsets(ks: list[int], mu_of: dict[int, float]) -> dict[int, float]:
    # translation x-offsets chaining boundary matches away from row 0; the sign
    # flips with the inner neighbour's parity and below row 0 (exact negation)
    t_off = {0: 0.0}
    for k in sorted(ks, key=abs)[1:]:
        step = 1 if k > 0 else -1
        j = k - step  # the inner neighbour, already placed
        sign = step if j % 2 == 0 else -step
        t_off[k] = t_off[j] + sign * (mu_of[j] - mu_of[k]) * SQRT3
    return t_off


def stack_plane(base: StripTiling, shears, rows: int) -> PlaneTiling:
    """Stack sheared copies of the base strip into a plane tiling.

    ``rows`` strip rows are taken in construction order 0, +1, -1, ...
    Row k is sheared by its assigned parameter, reflected when k is odd,
    and translated so consecutive strips share boundary vertices; the
    shared-vertex property is asserted on the window to 1e-9 and a
    violation raises :class:`BoundaryMismatch`.
    """
    if base.y_scale != SQRT3:
        raise InvalidParameter("stack_plane needs the vertically scaled strip")
    ks = row_order(rows)
    shears = tuple(float(m) for m in shears)
    if len(shears) < len(ks):
        raise InvalidParameter(f"{len(ks)} shear parameters needed, got {len(shears)}")

    mu_of = dict(zip(ks, shears))  # the n-th row in construction order takes parameter n
    t_off = _row_offsets(ks, mu_of)
    transforms = {
        k: StripTransform(mu=mu_of[k], reflected=(k % 2 != 0),
                          translation=(t_off[k], 2.0 * k * SQRT3))
        for k in ks
    }
    plane = PlaneTiling(base=base, rows=tuple(sorted(ks)), transforms=transforms)
    _assert_boundaries(plane)
    return plane


def _boundary_profiles(p: PlaneTiling, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted x-coordinates of a row's (top, bottom) boundary vertices."""
    a_pos, b_pos, s = p.base.aa[1:], p.base.bb[1:], p.base.y_scale
    tr = p.transforms[k]
    upper, _ = tr.place(np.concatenate([-a_pos[::-1], a_pos]), s)
    lower, _ = tr.place(np.concatenate([-b_pos[::-1], b_pos]), -s)
    return (lower, upper) if tr.reflected else (upper, lower)


def _assert_boundaries(p: PlaneTiling) -> None:
    for k in p.rows[:-1]:
        top, _ = _boundary_profiles(p, k)
        _, bottom = _boundary_profiles(p, k + 1)
        dev = float(np.max(np.abs(top - bottom)))
        if dev > _BOUNDARY_TOL:
            raise BoundaryMismatch(k + 1, dev)


def periodic_triangles(row: np.ndarray, col: np.ndarray, slot: np.ndarray) -> Tiles:
    """The counterparts of the tiles with these ids in the periodic tiling by
    equilateral triangles of edge length 2: the undistorted strip's, placed
    as ``StripTransform(0.0, row % 2 != 0, (0.0, 2*row*sqrt(3)))`` places them."""
    verts = flat_vertices(col, slot, SQRT3)
    odd = (row % 2 != 0)[:, None]
    y = np.where(odd, -verts[..., 1], verts[..., 1]) + (2.0 * row * SQRT3)[:, None]
    placed = np.stack([verts[..., 0] + 0.0, y], -1)  # x + 0.0*y + 0.0 is x, with -0.0 as 0.0
    return Tiles(np.where(odd[..., None], placed[:, ::-1], placed), row, col, slot)
