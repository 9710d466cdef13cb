"""Scaling the strip tiling to the equilateral regime, shear selection by
the incongruence margin each draw produces, and stacking sheared strip
copies into a tiling of the plane.

The vertical stretch by sqrt(3) turns the unit strip into
R x [-sqrt(3), sqrt(3)] and every unit-area tile into a near-equilateral
triangle of area sqrt(3).  Stacked rows are copies of one base strip, each
sheared by its own small parameter mu_n; odd rows are additionally
reflected through the horizontal axis, and every row is translated so that
consecutive strips share their boundary vertices exactly.  The shear
parameters are drawn from nested intervals, so the total horizontal drift
2*sqrt(3)*sum|mu_n| stays under the closeness budget.  A draw is kept when
the sheared row is incongruent, by more than a stated floor, to itself and
to every row fixed before it, and when no tile of it can be equilateral.
Reflection and translation leave a tile's signature unchanged, so the
rows are compared sheared but unplaced, and the finished plane's
incongruence margin is the smallest margin a row was accepted with.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .congruence import (DEFAULT_QUANTUM, aligned_sweep, bad_shear_set, equilateral_shear_set,
                         halfturn_key, halfturn_variants, signature_key, signature_variants)
from .errors import BoundaryMismatch, ExhaustedRetries, InvalidParameter
from .geometry import Tiles
from .strip import StripTiling, flat_vertices, window_tiles

__all__ = [
    "SQRT3",
    "MARGIN_FLOOR",
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

# a draw is accepted when its row's incongruence margin exceeds four
# quanta of the plane check, and it lies a quantum or more from every shear
# at which a base tile could turn equilateral; a row that no draw of
# _DRAWS_PER_ROW clears is refused
MARGIN_FLOOR = 4.0 * DEFAULT_QUANTUM
_DRAWS_PER_ROW = 64


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


def select_shears(base: StripTiling, count: int, epsilon: float,
                  rng: random.Random, accepted: list | None = None) -> list[float]:
    """Draw the shear parameters for ``count`` copies of the base.

    Parameter n is drawn by ``rng.uniform`` from
    (-2^-n * eps/(2*sqrt(3)), +2^-n * eps/(2*sqrt(3))) so the stacked drift
    stays under eps.  A draw is accepted when the base sheared by it has
    signature margin above :data:`MARGIN_FLOOR` within itself and against
    every row fixed before it, and it clears every equilateral shear of a
    base tile by 1e-9.  ``(draws, margin)`` of each accepted row is
    appended to ``accepted`` when one is given.  A row that no draw of
    ``_DRAWS_PER_ROW`` clears raises :class:`ExhaustedRetries`, and a pair
    of base tiles that agrees up to translation or half-turn, which no
    shear separates, raises :class:`DegeneratePair`.
    """
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    if not 0.0 < epsilon:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")

    tiles = window_tiles(base)
    _, collisions = aligned_sweep(tiles, halfturn_variants, halfturn_key, DEFAULT_QUANTUM)
    if collisions:
        bad_shear_set(tiles.xy[list(collisions[0])])  # raises DegeneratePair
    equilateral = equilateral_shear_set(tiles)
    equilateral = equilateral[~np.isnan(equilateral)]

    x, y = tiles.xy[..., 0], tiles.xy[..., 1]
    fixed = np.empty((0, 6, 6))  # the signature rows of the accepted rows
    chosen: list[float] = []
    for n in range(1, count + 1):
        half = (0.5 ** n) * epsilon / (2.0 * SQRT3)
        best = 0.0
        for draw in range(1, _DRAWS_PER_ROW + 1):
            mu = rng.uniform(-half, half)
            if np.any(np.abs(equilateral - mu) < DEFAULT_QUANTUM):
                continue
            sheared = Tiles(np.stack([x + mu * y, y], -1))
            margin, _ = aligned_sweep(sheared, signature_variants, signature_key,
                                      DEFAULT_QUANTUM, fixed)
            if margin > MARGIN_FLOOR:
                break
            best = max(best, margin)
        else:
            raise ExhaustedRetries(
                f"no shear for row parameter {n} (strip row {row_order(count)[n - 1]}) "
                f"clears the incongruence floor "
                f"{MARGIN_FLOOR:.0e} within {_DRAWS_PER_ROW} draws (best margin {best:.3e}; "
                f"window too dense for epsilon={epsilon})")
        chosen.append(mu)
        if accepted is not None:
            accepted.append((draw, margin))
        fixed = np.concatenate([fixed, signature_variants(sheared)])
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
