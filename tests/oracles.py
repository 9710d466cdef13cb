"""Reference implementations the tests compare the package against, each
the code a faster or smaller package path replaced, or paper-only code:

* the per-tile objects (``Point``, ``TileId``, ``Triangle``, ``Quadrangle``)
  that :class:`fairtile.geometry.Tiles` replaced, whose constructors are
  the reference for the record's refusals and labels, and the object-built
  document parser and serializer, strip slot chain and fair split;
* per-pair congruence distances and per-polygon alignment rows for the
  batched sweep, the central-difference Jacobian the fair-split Newton
  iteration took before its analytic one, the numpy Newton iteration, the
  list-built Newton step and max-norm, the elementary plane maps of
  :class:`StripTransform`, the shear selection over every pair of the rows
  drawn so far, per-triangle equilateral shear roots, and the per-tile box
  pass and pair-major contact rules of the conformity check;
* the paper-only code no run reaches: the reconstruction of a triangle
  from any one of its quadrangles, the two Jacobian determinant anchors
  of the fair-split and reconstruction systems at the symmetric point,
  and the closed-form critical tiling at height 1/sqrt(3)."""

import json
import math
from dataclasses import dataclass

import numpy as np

from fairtile.assembly import _DRAWS_PER_ROW, MARGIN_FLOOR, SQRT3, row_order
from fairtile.congruence import (_LEADING_EPS, DEFAULT_QUANTUM, _dedup, _roots, aligned_sweep,
                                 bad_shear_set, halfturn_key, halfturn_variants, signature_key,
                                 signature_variants)
from fairtile.document import FORMAT_VERSION, KINDS, fmt17
from fairtile.errors import (DegeneratePolygon, DegenerateTriangle, DocumentError,
                             EdgeOutOfRange, ExhaustedRetries, FairtileError, InvalidParameter,
                             NoConvergence, NonConvexOutput, NoUnequalHeights,
                             SingularDenominator, SingularJacobian, TileFailed)
from fairtile.geometry import CORNERS, Tiles, _segments_cross, signed_area
from fairtile.quadsplit import (_COND_LIMIT, DELTA_Q, P0, QUADIFY_SCALE, _corners,
                                _split_residual, apex, solve_fair_split)
from fairtile.quadsplit import newton3 as package_newton3
from fairtile.strip import StripTiling, _validate_args, strip_tiling, window_tiles


# ---------------------------------------------------------------------------
# the per-tile objects that the array record replaced: each validates itself
# on construction, the reference for the record's refusals and labels


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
    """Strip row, column and slot of a tile; column 0 has only slots 1 and 4."""

    row: int = 0
    col: int = 0
    slot: int = 1

    def __post_init__(self):
        if self.slot not in (1, 2, 3, 4):
            raise InvalidParameter(f"slot must be 1..4, got {self.slot}")
        if self.col == 0 and self.slot not in (1, 4):
            raise InvalidParameter(f"column 0 only has slots 1 and 4, got {self.slot}")


@dataclass(frozen=True)
class Triangle:
    v1: Point
    v2: Point
    v3: Point
    id: TileId | None = None

    def __post_init__(self):
        s = signed_area([v.xy for v in self.vertices])
        if abs(s) <= 1e-14:
            raise DegeneratePolygon(f"collinear vertices (signed area {s:.3e})")
        if s < 0:
            raise DegeneratePolygon("vertices must be in counterclockwise order")

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.v1, self.v2, self.v3)


@dataclass(frozen=True)
class Quadrangle:
    vertices: tuple[Point, Point, Point, Point]
    id: TileId | None = None
    corner: str | None = None

    def __post_init__(self):
        if self.corner is not None and self.corner not in CORNERS:
            raise InvalidParameter(f"corner must be one of {CORNERS}, got {self.corner!r}")
        if min(math.hypot(dx, dy) for dx, dy in edge_vectors(self)) <= 1e-14:
            raise DegeneratePolygon("quadrangle with a zero-length edge")
        v = [p.xy for p in self.vertices]
        s = signed_area(v)
        if abs(s) <= 1e-14:
            raise DegeneratePolygon(f"degenerate quadrangle (signed area {s:.3e})")
        if s < 0:
            raise DegeneratePolygon("vertices must be in counterclockwise order")
        if _segments_cross(v[0], v[1], v[2], v[3]) or _segments_cross(v[1], v[2], v[3], v[0]):
            raise DegeneratePolygon("self-intersecting quadrangle")


def edge_vectors(p) -> list[tuple[float, float]]:
    """Edge vectors v[k+1]-v[k] in counterclockwise order; they sum to zero."""
    pts = vertices_of(p)
    return [(q[0] - r[0], q[1] - r[1]) for r, q in zip(pts, pts[1:] + pts[:1])]


def is_convex(p, tol: float = 1e-12) -> bool:
    """True when all consecutive-edge cross products share one sign."""
    ev = edge_vectors(p)
    crosses = [a[0] * b[1] - a[1] * b[0] for a, b in zip(ev, ev[1:] + ev[:1])]
    return all(c >= -tol for c in crosses) or all(c <= tol for c in crosses)


def tile_label(p) -> str:
    """Compact "row/col/slot[/corner]" label for reports, "?" if unknown."""
    corner = getattr(p, "corner", None)
    return "?" if p.id is None else "/".join(
        map(str, (p.id.row, p.id.col, p.id.slot) + ((corner,) if corner else ())))


def record(polys) -> Tiles:
    """The record of polygons or vertex lists of one vertex count, with ids
    when every polygon has one."""
    polys = list(polys)
    xy = np.array([vertices_of(p) for p in polys], dtype=float)
    tids = [getattr(p, "id", None) for p in polys]
    ids = zip(*[(t.row, t.col, t.slot) for t in tids]) if all(tids) else [None] * 3
    corner = np.array([CORNERS.index(c) if c else -1 for c in (getattr(p, "corner", None)
                                                               for p in polys)], dtype=np.int8)
    return Tiles(xy, *(None if a is None else np.array(a, dtype=np.int64) for a in ids),
                 corner if xy.shape[1] == 4 else None)


def polygon(ids, corner, pts):
    """The polygon of (x, y) pairs, built in the order its parts validate:
    id (row, col, slot) if any, vertices one by one, then the polygon."""
    tid = None if ids is None else TileId(*ids)
    pts = [Point(x, y) for x, y in pts]
    return (Triangle(*pts, id=tid) if len(pts) == 3
            else Quadrangle(tuple(pts), id=tid, corner=corner))


def polygons(tiles: Tiles) -> list:
    """The tiles of a record as polygons, with their ids and corners."""
    ids = [None] * len(tiles) if tiles.row is None else zip(
        tiles.row.tolist(), tiles.col.tolist(), tiles.slot.tolist())
    codes = [-1] * len(tiles) if tiles.corner is None else tiles.corner.tolist()
    return [polygon(i, CORNERS[c] if c >= 0 else None, pts)
            for i, c, pts in zip(ids, codes, tiles.xy.tolist())]


def take(tiles: Tiles, idx) -> Tiles:
    """The record of the tiles of ``tiles`` at ``idx``."""
    return Tiles(*(None if a is None else a[idx]
                   for a in (tiles.xy, tiles.row, tiles.col, tiles.slot, tiles.corner)))


def quad_vertices(a: float, b: float, c: float, p) -> tuple:
    """:func:`split_polygons` of the posed triangle cut by the parameters."""
    return split_polygons((a, b, c), _corners(a, *apex(a, b, c), p.alpha, p.beta, p.gamma,
                                              p.xi, p.eta))


def split_polygons(sides, posed) -> tuple:
    """The posed quadrangles of a split at corners A, B and C, built as
    polygons; a degenerate one, then a non-convex one at 1e-12, raises
    :class:`NonConvexOutput`."""
    try:
        quads = tuple(Quadrangle(tuple(Point(*v) for v in vs), corner=corner)
                      for corner, vs in zip(CORNERS, posed))
    except DegeneratePolygon as e:
        raise NonConvexOutput(f"degenerate quadrangle for sides {sides}: {e}") from e
    for q in quads:
        if not is_convex(q, 1e-12):
            raise NonConvexOutput(f"non-convex quadrangle at corner {q.corner}")
    return quads


def vertices_of(p) -> list[tuple[float, float]]:
    """The (x, y) pairs of a polygon, of a record's tile or of an (n, 2) array."""
    return [v.xy if isinstance(v, Point) else tuple(map(float, v))
            for v in getattr(p, "vertices", p)]


def interior_angles(p) -> list[float]:
    """Unsigned interior angles in radians, one per vertex (convex polygons)."""
    pts = vertices_of(p)
    pairs = [((nx - x, ny - y), (px - x, py - y)) for (px, py), (x, y), (nx, ny)
             in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1])]
    return [math.atan2(abs(a[0] * b[1] - a[1] * b[0]), a[0] * b[0] + a[1] * b[1]) for a, b in pairs]


def edge_lengths(p) -> list[float]:
    return [math.hypot(dx, dy) for dx, dy in edge_vectors(p)]


def area(p) -> float:
    s = signed_area(vertices_of(p))
    if abs(s) <= 1e-14:
        raise DegeneratePolygon(f"degenerate polygon (signed area {s:.3e})")
    return abs(s)


def perimeter(p) -> float:
    return sum(edge_lengths(p))


def tile_ids(n_cols: int, row: int = 0):
    """All tile addresses of a strip window, ordered by (col, slot)."""
    window = window_tiles(strip_tiling(0.005, n_cols))
    return (TileId(row, i, j) for i, j in zip(window.col.tolist(), window.slot.tolist()))


def ids_of(tids):
    """The (row, col, slot) integer arrays of a list of tile ids."""
    tids = list(tids)
    return tuple(np.array([getattr(t, f) for t in tids], dtype=np.int64)
                 for f in ("row", "col", "slot"))


def window_triangles(t) -> list:
    """Every triangle of a strip window, one slot chain at a time."""
    return [triangle_at(t, tid.col, tid.slot) for tid in tile_ids(t.n_cols)]


def plane_triangles(plane) -> list:
    """Every tile of a plane window, each strip triangle placed one vertex at
    a time through its row's :class:`StripTransform`."""
    out = []
    for k in plane.rows:
        tr = plane.transforms[k]
        for tri in window_triangles(plane.base):
            pts = [Point(*tr.place(v.x, v.y)) for v in tri.vertices]
            out.append(Triangle(*(pts[::-1] if tr.reflected else pts),
                                id=TileId(k, tri.id.col, tri.id.slot)))
    return out


def _canonical_frame(origin: Point, along: Point, upper: Point):
    """The inverse of the isometry (possibly with a reflection) taking
    ``origin`` to (0,0), ``along`` onto the positive x-axis and ``upper``
    above it, and whether it reflects."""
    ux, uy = along.x - origin.x, along.y - origin.y
    norm = math.hypot(ux, uy)
    if norm <= 1e-14:
        raise DegeneratePolygon("coincident frame points")
    ex = (ux / norm, uy / norm)
    ey = (-ex[1], ex[0])
    up = (upper.x - origin.x) * ey[0] + (upper.y - origin.y) * ey[1]
    m = -1.0 if up < 0.0 else 1.0

    def inverse(px: float, py: float) -> Point:
        yy = m * py
        return Point(origin.x + px * ex[0] + yy * ey[0],
                     origin.y + px * ex[1] + yy * ey[1])

    return inverse, m < 0.0


def fair_split(t: Triangle) -> tuple[Quadrangle, Quadrangle, Quadrangle]:
    """Fair split of an arbitrarily placed near-unit triangle.

    The triangle is posed canonically (longest edge on the positive x-axis
    from the origin, apex above, second-longest edge at the origin corner;
    ties broken by lexicographic vertex order), solved there, and the
    quadrangles are mapped back through the inverse isometry.  Corner
    labels and the source tile id ride along on the outputs.
    """
    pts = t.vertices
    pairs = [(0, 1), (1, 2), (2, 0)]
    lengths = {pr: math.hypot(pts[pr[1]].x - pts[pr[0]].x, pts[pr[1]].y - pts[pr[0]].y)
               for pr in pairs}
    if any(not (1.0 - DELTA_Q < L < 1.0 + DELTA_Q) for L in lengths.values()):
        raise EdgeOutOfRange(
            f"edge lengths {sorted(lengths.values())} outside "
            f"({1 - DELTA_Q}, {1 + DELTA_Q})")

    def edge_rank(pr):
        ends = sorted((pts[pr[0]].xy, pts[pr[1]].xy))
        return (-lengths[pr], ends[0], ends[1])

    base = min(pairs, key=edge_rank)
    i, j = base
    k = 3 - i - j
    p, q, r = pts[i], pts[j], pts[k]
    bp = math.hypot(r.x - p.x, r.y - p.y)
    bq = math.hypot(r.x - q.x, r.y - q.y)
    if abs(bp - bq) <= 1e-12:
        va, vb = sorted((p, q), key=lambda v: v.xy)
    elif bp > bq:
        va, vb = p, q
    else:
        va, vb = q, p

    a = lengths[base]
    b = math.hypot(r.x - va.x, r.y - va.y)
    c = math.hypot(r.x - vb.x, r.y - vb.y)
    params = solve_fair_split(a, b, c)

    inverse, mirrored = _canonical_frame(va, vb, r)
    out = []
    for posed in quad_vertices(a, b, c, params):
        mapped = [inverse(*v.xy) for v in posed.vertices]
        if mirrored:
            mapped.reverse()
        out.append(Quadrangle(tuple(mapped), id=t.id, corner=posed.corner))
    return tuple(out)


def quadify_plane(tiles) -> list:
    """The fair split of every triangle, each scaled as its own polygon."""
    out = []
    for tri in tiles:
        pts = [Point(QUADIFY_SCALE * x, QUADIFY_SCALE * y) for x, y in vertices_of(tri)]
        try:
            out.extend(fair_split(Triangle(*pts, id=tri.id)))
        except FairtileError as e:
            raise TileFailed(tile_label(tri), e) from e
    return out


def _tile_fields(line: str):
    """(id, corner, vertex pairs) of a tile line read through ``json``, with
    its id types, vertex count and corner label checked."""
    obj = json.loads(line)
    ids = []
    for key in ("row", "col", "slot"):
        ids.append(obj["id"][key])
        if type(ids[-1]) is not int:
            raise DocumentError(f"tile id field {key!r} must be an integer, got {ids[-1]!r}")
    corner = obj["id"].get("corner")
    pts = [(float(x), float(y)) for x, y in obj["vertices"]]
    if len(pts) not in (3, 4):
        raise DocumentError(f"tiles must have 3 or 4 vertices, got {len(pts)}")
    if corner is not None and len(pts) == 3:
        raise DocumentError("corner labels belong to quadrangle tiles")
    if corner is not None and corner not in CORNERS:
        raise InvalidParameter(f"corner must be one of {CORNERS}, got {corner!r}")
    return ids, corner, pts


def parse(text: str):
    """(kind, parameters, polygons) of a document, every tile line read
    through ``json`` and checked, then each tile's vertex count checked
    against the kind, then each tile built as a validated polygon, an id
    seen twice refused at its second line."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise DocumentError("empty document")
    try:
        header = json.loads(lines[0])
        version = header["format_version"]
        kind = header["kind"]
        parameters = header["parameters"]
        fields = [_tile_fields(ln) for ln in lines[1:]]
        n = {"strip": 3, "plane": 3, "quad": 4}[kind] if kind in KINDS else None
        for ids, corner, pts in fields if n else ():
            if len(pts) != n:
                label = "/".join(map(str, ids + [corner] if corner else ids))
                raise DocumentError(f"{kind} documents hold {n}-vertex tiles; "
                                    f"tile {label} has {len(pts)}")
        tiles = [polygon(*f) for f in (fields if n else ())]
    except DocumentError:
        raise
    except Exception as e:
        raise DocumentError(f"malformed document: {e}") from e
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {version!r}")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    seen = {}
    for number, tile in zip([n for n, ln in enumerate(text.split("\n"), 1) if ln][1:], tiles):
        key = (tile.id, getattr(tile, "corner", None))
        if key in seen:
            raise DocumentError(f"duplicate tile id {tile_label(tile)} on lines "
                                f"{seen[key]} and {number}")
        seen[key] = number
    return kind, parameters, tiles


def signature_rows(p) -> np.ndarray:
    """All 2n (edge length, interior angle) alignment rows of one polygon,
    shape (2n, 2n), built from :func:`edge_lengths` and :func:`interior_angles`."""
    n = len(vertices_of(p))
    k = np.arange(n)
    fwd = (k[:, None] + k) % n
    rev = (-1 - k[:, None] - k) % n
    rows = np.empty((2 * n, 2 * n))
    rows[:, 0::2] = np.array(edge_lengths(p))[np.concatenate([fwd, (rev - 1) % n])]
    rows[:, 1::2] = np.array(interior_angles(p))[np.concatenate([fwd, rev])]
    return rows


def halfturn_rows(p) -> np.ndarray:
    """All 2n edge-vector cycle alignment rows of one polygon, shape (2n, 2n)."""
    ev = np.array(edge_vectors(p))
    rotations = np.stack([np.roll(ev, -r, axis=0) for r in range(len(ev))])
    return np.concatenate([rotations, -rotations]).reshape(2 * len(ev), -1)


def fd_jacobian(residual, x: np.ndarray, step: float) -> np.ndarray:
    n = x.size
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        cols.append((np.asarray(residual(x + e), dtype=float)
                     - np.asarray(residual(x - e), dtype=float)) / (2.0 * step))
    return np.column_stack(cols)


_FD_STEP = 1e-7


def _fd_jacobian(residual, x) -> list[tuple[float, ...]]:
    """Central-difference Jacobian of ``residual`` at ``x``, as row tuples:
    the Jacobian the package's Newton iteration took before it had the
    analytic one."""
    cols, ups = [], [v + 0.0 for v in x]  # v + 0.0 is v, but 0.0 for -0.0
    for k, v in enumerate(x):
        up, down = ups.copy(), list(x)
        up[k], down[k] = v + _FD_STEP, v - _FD_STEP
        cols.append([(p - m) / (2.0 * _FD_STEP) for p, m in zip(residual(up), residual(down))])
    return list(zip(*cols))


def with_fd_jacobian(residual):
    """``residual`` as the system :func:`fairtile.quadsplit.newton3` takes:
    each residual with a callable giving its :func:`_fd_jacobian`."""
    return lambda x: (residual(x), lambda: _fd_jacobian(residual, x))


def newton3(residual, x0) -> tuple[np.ndarray, int]:
    """The damped Newton iteration on numpy arrays, with the
    central-difference Jacobian and an SVD condition test at every step."""
    x = np.array(x0, dtype=float)
    fx = np.asarray(residual(x), dtype=float)
    res = float(np.max(np.abs(fx)))
    for it in range(50):
        if res <= 1e-12:
            return x, it
        jac = fd_jacobian(residual, x, 1e-7)
        if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e12:
            raise SingularJacobian("Jacobian condition number exceeds 1e+12")
        step = np.linalg.solve(jac, fx)
        lam = 1.0
        for _ in range(20):
            x_new = x - lam * step
            try:
                f_new = np.asarray(residual(x_new), dtype=float)
            except (SingularDenominator, DegenerateTriangle, ValueError):
                lam *= 0.5
                continue
            r_new = float(np.max(np.abs(f_new)))
            if r_new < res:
                break
            lam *= 0.5
        else:
            raise NoConvergence(it + 1, res)
        x, fx, res = x_new, f_new, r_new
    if res <= 1e-12:
        return x, 50
    raise NoConvergence(50, res)


# the Newton step and max-norm the package's iteration took before their
# arithmetic was spelled out in named floats: the bit-for-bit reference


def _max_abs(f) -> float:
    """Max-norm of a residual vector; NaN when any component is NaN."""
    return math.nan if any(map(math.isnan, f)) else max(map(abs, f))


def _step(jac, fx) -> list[float]:
    """The Newton step J^-1 f, or :class:`SingularJacobian` when the 3x3
    ``jac`` holds a non-finite entry or has cond2 above 1e12.

    cond2(J) <= k = ||J||_F * ||adj J||_F / |det J|.  Each cofactor and
    the determinant carry an a priori rounding bound (with an absolute
    floor for underflow).  Where k is at most 1e11 and the determinant's
    relative rounding bound at most 1e-15 * k, so that the step is as
    accurate as LAPACK's, it is adj(J) f / det J from the same cofactors.
    ``np.linalg.cond`` decides the rare rest, and LAPACK solves those it
    accepts.
    """
    (a, b, c), (d, e, f), (g, h, i) = jac
    pairs = ((e * i, f * h), (f * g, d * i), (d * h, e * g),
             (c * h, b * i), (a * i, c * g), (b * g, a * h),
             (b * f, c * e), (c * d, a * f), (a * e, b * d))
    cof, size = [p - q for p, q in pairs], [abs(p) + abs(q) for p, q in pairs]
    det = a * cof[0] + b * cof[1] + c * cof[2]
    det_size = abs(a) * size[0] + abs(b) * size[1] + abs(c) * size[2]
    low = abs(det) - (1e-15 * det_size + 1e-300)
    fro_adj = math.hypot(a, b, c, d, e, f, g, h, i) * math.hypot(
        *[abs(m) + 1e-15 * s + 1e-300 for m, s in zip(cof, size)])
    if not (math.isfinite(det) and low > 0.0 and det_size <= fro_adj
            and fro_adj / low <= _COND_LIMIT / 10.0):
        arr = np.array(jac, dtype=float)
        if not np.all(np.isfinite(arr)) or np.linalg.cond(arr) > _COND_LIMIT:
            raise SingularJacobian(f"Jacobian condition number exceeds {_COND_LIMIT:.0e}")
        return np.linalg.solve(arr, np.asarray(fx, dtype=float)).tolist()
    f0, f1, f2 = fx
    return [(cof[0] * f0 + cof[3] * f1 + cof[6] * f2) / det,
            (cof[1] * f0 + cof[4] * f1 + cof[7] * f2) / det,
            (cof[2] * f0 + cof[5] * f1 + cof[8] * f2) / det]


def signature_distance(p, q) -> float:
    """Smallest max-component difference between aligned signatures.

    Zero exactly for congruent polygons; the reported value is the margin
    by which the pair fails to be congruent.  Polygons with different
    vertex counts are infinitely far apart.
    """
    if len(vertices_of(p)) != len(vertices_of(q)):
        return math.inf
    rows = signature_rows(p)
    return float(np.min(np.max(np.abs(rows - signature_rows(q)[0]), axis=1)))


def simeq_distance(t, u) -> float:
    """Distance of u from the set {T + v, -T + v} of translated half-turns.

    Both relations preserve the counterclockwise edge cycle, so it suffices
    to compare edge-vector cycles up to rotation and a global sign; the
    value is the smallest max-component difference over those alignments.
    """
    ev_t = edge_vectors(t)
    ev_u = edge_vectors(u)
    if len(ev_t) != len(ev_u):
        return math.inf
    n = len(ev_t)
    best = math.inf
    for s in (1.0, -1.0):
        for r in range(n):
            d = max(
                max(abs(ev_u[(k + r) % n][0] - s * ev_t[k][0]),
                    abs(ev_u[(k + r) % n][1] - s * ev_t[k][1]))
                for k in range(n)
            )
            best = min(best, d)
    return best


def translate(p, dx: float, dy: float) -> list:
    return [(x + dx, y + dy) for x, y in vertices_of(p)]


def shear(p, mu: float) -> list:
    """Horizontal shear (x, y) -> (x + mu*y, y) of the vertices; preserves areas."""
    return [(x + mu * y, y) for x, y in vertices_of(p)]


def reflect_x(p) -> list:
    """Reflection through the horizontal axis (x, y) -> (x, -y), the vertex
    order reversed so the result stays counterclockwise."""
    return [(x, -y) for x, y in reversed(vertices_of(p))]


def equilateral_shear_set(t: Triangle) -> tuple[float, ...]:
    """Shear parameters at which the sheared triangle could be equilateral.

    Uses the edge-vector pair with the largest height difference; outside
    the (at most two) roots those two sheared edges differ in length, so
    the sheared triangle is certified non-equilateral.  The root set is a
    superset filter: a root need not actually produce an equilateral image.
    """
    ev = edge_vectors(t)
    pairs = [(ev[i], ev[j]) for i in range(3) for j in range(i + 1, 3)]
    (x1, y1), (x2, y2) = max(pairs, key=lambda p: abs(abs(p[0][1]) - abs(p[1][1])))
    if abs(abs(y1) - abs(y2)) <= _LEADING_EPS:
        raise NoUnequalHeights("every edge-vector pair has equal |y| components")
    row = _dedup(_roots(y1 * y1 - y2 * y2, 2.0 * (x1 * y1 - x2 * y2),
                        x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2))
    return tuple(row[~np.isnan(row)].tolist())


def select_shears(base, count: int, epsilon: float, rng) -> list[float]:
    """The shear selection on whole planes: a draw is accepted when one sweep
    over every pair of the rows sheared so far, its own row included, has
    signature margin above the floor, and it clears the equilateral roots
    of each triangle, solved one triangle at a time.  The earlier rows'
    pairs all cleared the floor, so the verdicts, and a refusal's best
    margin, are those of sweeping only the pairs with a tile in the new row."""
    tiles = window_triangles(base)
    _, collisions = aligned_sweep(record(tiles), halfturn_variants, halfturn_key, DEFAULT_QUANTUM)
    if collisions:
        bad_shear_set(record(tiles[i] for i in collisions[0]).xy)  # raises DegeneratePair
    equilateral = [r for tile in tiles for r in equilateral_shear_set(tile)]
    chosen = []
    for n in range(1, count + 1):
        half = (0.5 ** n) * epsilon / (2.0 * SQRT3)
        best = 0.0
        for _ in range(_DRAWS_PER_ROW):
            cand = rng.uniform(-half, half)
            if any(abs(r - cand) < DEFAULT_QUANTUM for r in equilateral):
                continue
            rows = record(shear(tile, mu) for mu in chosen + [cand] for tile in tiles)
            margin, _ = aligned_sweep(rows, signature_variants, signature_key, DEFAULT_QUANTUM)
            if margin > MARGIN_FLOOR:
                chosen.append(cand)
                break
            best = max(best, margin)
        else:
            raise ExhaustedRetries(
                f"no shear for row parameter {n} (strip row {row_order(count)[n - 1]}) "
                f"clears the incongruence floor {MARGIN_FLOOR:.0e} within {_DRAWS_PER_ROW} "
                f"draws (best margin {best:.3e}; window too dense for epsilon={epsilon})")
    return chosen


def serialize(doc) -> str:
    """A document as JSON Lines, every line written by ``json.dumps``."""
    def dump(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    lines = [dump({"format_version": FORMAT_VERSION, "kind": doc.kind,
                   "parameters": doc.parameters})]
    for tile in polygons(doc.tiles):
        tid = tile.id
        id_obj = {"row": tid.row, "col": tid.col, "slot": tid.slot}
        if getattr(tile, "corner", None) is not None:
            id_obj["corner"] = tile.corner
        lines.append(dump({"id": id_obj,
                           "vertices": [[fmt17(v.x), fmt17(v.y)] for v in tile.vertices]}))
    return "\n".join(lines) + "\n"


def triangle_at(t, i: int, j: int) -> Triangle:
    """The strip triangle in column ``i``, slot ``j``, with vertices in ccw
    order; negative columns are the exact mirror image (coordinate
    negation) of the corresponding positive column."""
    if abs(i) > t.n_cols or j not in (1, 2, 3, 4) or (i == 0 and j in (2, 3)):
        raise ValueError(f"no tile at column {i}, slot {j}")
    s = t.y_scale
    if i == 0:
        apex = Point(0.0, t.y0 * s)
        if j == 1:
            tri = (apex, Point(t.aa[1], s), Point(-t.aa[1], s))
        else:
            tri = (apex, Point(-t.bb[1], -s), Point(t.bb[1], -s))
        return Triangle(*tri, id=TileId(0, 0, j))

    n = abs(i)
    mid_prev = Point(t.xs[n - 1], t.ys[n - 1] * s)
    mid = Point(t.xs[n], t.ys[n] * s)
    if j == 1:
        tri = (Point(t.aa[n], s), mid, Point(t.aa[n + 1], s))
    elif j == 2:
        tri = (mid_prev, mid, Point(t.aa[n], s))
    elif j == 3:
        tri = (mid_prev, Point(t.bb[n], -s), mid)
    else:
        tri = (Point(t.bb[n], -s), Point(t.bb[n + 1], -s), mid)
    if i < 0:
        # negate x and reverse the order so the mirror stays ccw
        tri = tuple(Point(-p.x, p.y) for p in reversed(tri))
    return Triangle(*tri, id=TileId(0, i, j))


def _vertex_edge(V, W):
    """Vertices ``V`` (M, n, 2) against the edges of ccw polygons ``W``
    (M, m, 2): each vertex's distance to the nearest edge (M, n), and per
    pair the largest, over the edges of ``W``, of the least signed distance
    of ``V`` outside that edge's line (M,)."""
    D = np.roll(W, -1, axis=1) - W
    L2 = D[..., 0] ** 2 + D[..., 1] ** 2
    ax, ay = W[:, None, :, 0], W[:, None, :, 1]
    vx, vy = V[:, :, None, 0], V[:, :, None, 1]
    dx, dy = D[:, None, :, 0], D[:, None, :, 1]
    rx, ry = vx - ax, vy - ay
    t = np.clip((rx * dx + ry * dy) / L2[:, None, :], 0.0, 1.0)
    seg = np.hypot(vx - (ax + t * dx), vy - (ay + t * dy))
    outside = (dy * rx - dx * ry) / np.sqrt(L2)[:, None, :]
    return seg.min(axis=2), outside.min(axis=1).max(axis=1)


def contact(P, Q, tol: float):
    """The contact classification of tile pairs ``P`` (M, n, 2) and ``Q``
    (M, m, 2) on pair-major arrays: (violates, size) per pair, by the rules
    of :func:`fairtile.verify._contact`."""
    dist = np.hypot(P[:, :, None, 0] - Q[:, None, :, 0], P[:, :, None, 1] - Q[:, None, :, 1])
    match = dist <= tol
    shared_p, shared_q = match.any(axis=2), match.any(axis=1)
    n_shared = shared_p.sum(axis=1)
    coincide = ((match.sum(axis=2) > 1).any(axis=1) | (match.sum(axis=1) > 1).any(axis=1)
                | (n_shared >= 3))
    edge_gap_p, sep_q = _vertex_edge(P, Q)
    edge_gap_q, sep_p = _vertex_edge(Q, P)
    depth = -np.maximum(sep_p, sep_q)
    v_gap = np.concatenate([dist.min(axis=2), dist.min(axis=1)], axis=1)
    on_edge = (v_gap > tol) & (np.concatenate([edge_gap_p, edge_gap_q], axis=1) <= tol)
    adjacent = ((shared_p & np.roll(shared_p, -1, axis=1)).any(axis=1)
                & (shared_q & np.roll(shared_q, -1, axis=1)).any(axis=1))
    rules = [coincide, depth > tol, on_edge.any(axis=1), (n_shared == 2) & ~adjacent]
    sizes = [tol, depth, v_gap[np.arange(len(P)), np.argmax(on_edge, axis=1)], tol]
    return np.logical_or.reduce(rules), np.select(rules, sizes, 0.0)


def vertex_to_vertex_violations(tiles, tol: float):
    """Every non-conforming pair (i, j), i < j, in that order, and its size:
    each tile's bounding box against those of all later tiles, one pass per
    tile, the pairs within ``tol`` classified by :func:`contact`."""
    (xmin, ymin), (xmax, ymax) = tiles.xy.min(axis=1).T, tiles.xy.max(axis=1).T
    n = len(tiles)
    near = [np.nonzero(
        (xmin[i + 1:] <= xmax[i] + tol) & (xmax[i + 1:] >= xmin[i] - tol)
        & (ymin[i + 1:] <= ymax[i] + tol) & (ymax[i + 1:] >= ymin[i] - tol))[0] + i + 1
        for i in range(n)]
    I = np.repeat(np.arange(n), [len(js) for js in near])
    J = np.concatenate(near)
    bad, size = contact(tiles.xy[I], tiles.xy[J], tol)
    return list(zip(I[bad].tolist(), J[bad].tolist())), size[bad]


# ---------------------------------------------------------------------------
# the paper's inverse problem, the two Jacobian anchors and the critical
# tiling: closed forms and proofs of the paper that no run needs


class OutOfBasin(FairtileError):
    """Input is too far from the undistorted shape for reconstruction."""


@dataclass(frozen=True)
class ReconstructionTriple:
    """Scale parameters recovering a triangle from one of its split quads."""

    rho: float
    sigma: float
    tau: float
    iterations: int = 0


# every cut parameter of the unit equilateral split, where its Newton starts
T0 = 1.0 - math.sqrt(3.0) / 3.0

# the symmetric point of the reconstruction: the scale triple and the posed
# corner quadrangle (a^, x^, y^, z^, w^) of the unit equilateral split
RHO0, SIGMA0, TAU0 = (3.0 + math.sqrt(3.0)) / 2.0, math.sqrt(3.0), T0
QUAD0 = (T0, math.sqrt(3.0) / 6.0, 0.5, 0.5, math.sqrt(3.0) / 6.0)

# reconstruction rejects posed quadrangles further than this per coordinate
# from the symmetric shape
_BASIN_RADIUS = 0.1

_ANGLE_TIE_TOL = 1e-9


def _reconstruction_residual(ah: float, xh: float, yh: float, zh: float, wh: float):
    """Equal-area and perimeter residuals of the reconstruction unknowns.

    The posed quadrangle (0,0), (ah,0), (zh,wh), (xh,yh) is the corner
    piece of a split triangle (0,0), rho*(ah,0), sigma*(xh,yh) whose edge
    cut opposite the origin sits at the tau-point between the two scaled
    corners.  The three signed-area identities and the perimeter of the
    second quadrangle pin (rho, sigma, tau).
    """

    def det(u0, u1, v0, v1):
        return u0 * v1 - u1 * v0

    area1 = 0.5 * det(ah, 0.0, xh, yh) + 0.5 * det(xh - zh, yh - wh, ah - zh, -wh)

    def residual(u):
        rho, sigma, tau = float(u[0]), float(u[1]), float(u[2])
        bx = rho * ah
        cx, cy = sigma * xh, sigma * yh
        px = (1.0 - tau) * bx + tau * cx
        py = tau * cy
        area2 = (0.5 * det(px - bx, py, ah - bx, 0.0)
                 + 0.5 * det(ah - zh, -wh, px - zh, py - wh))
        area3 = (0.5 * det(xh - cx, yh - cy, px - cx, py - cy)
                 + 0.5 * det(px - zh, py - wh, xh - zh, yh - wh))
        perim = (math.hypot(px - bx, py) + math.hypot(ah - bx, 0.0)
                 + math.hypot(ah - zh, wh) + math.hypot(px - zh, py - wh))
        return area1 - area2, area1 - area3, perim - P0

    return residual


def _posed_tuple(pts, start: int, mirrored: bool):
    """(a^, x^, y^, z^, w^) of the quadrangle read from vertex ``start`` on,
    backwards when ``mirrored``, after the isometry (a reflection if need
    be) taking that vertex to (0,0), the next onto the positive x-axis and
    the one after above it."""
    step = -1 if mirrored else 1
    (ox, oy), *seq = [pts[(start + step * k) % len(pts)] for k in range(len(pts))]
    ux, uy = seq[0][0] - ox, seq[0][1] - oy
    norm = math.hypot(ux, uy)
    if norm <= 1e-14:
        raise DegeneratePolygon("coincident frame points")
    ex, ey = (ux / norm, uy / norm), (-(uy / norm), ux / norm)
    m = -1.0 if (seq[1][0] - ox) * ey[0] + (seq[1][1] - oy) * ey[1] < 0.0 else 1.0
    (ah, _), (zh, wh), (xh, yh) = [((x - ox) * ex[0] + (y - oy) * ex[1],
                                    m * ((x - ox) * ey[0] + (y - oy) * ey[1])) for x, y in seq]
    return (ah, xh, yh, zh, wh)


def reconstruct_triangle(q) -> tuple[np.ndarray, ReconstructionTriple]:
    """Recover the split triangle's shape, as its (3, 2) counterclockwise
    vertices, from the (4, 2) vertices of any one of its quadrangles.

    The quadrangle is posed with its strictly smallest interior angle at
    the origin (that angle belongs to the dissected triangle); both
    handednesses are tried, since a reflected copy reconstructs the mirror
    triangle.  The package's Newton iteration, given the central-difference
    Jacobian, then solves for the scale triple from the symmetric initial
    guess.  Far-from-symmetric inputs raise :class:`OutOfBasin`.
    """
    quad = Tiles(np.array(q, dtype=float).reshape(1, 4, 2))
    pts, angles = quad.xy[0].tolist(), quad.angles()[0].tolist()
    order = sorted(range(4), key=lambda k: angles[k])
    if angles[order[1]] - angles[order[0]] <= _ANGLE_TIE_TOL:
        raise OutOfBasin("smallest interior angle is not unique")
    start = order[0]

    chosen = None
    for mirrored in (False, True):
        tup = _posed_tuple(pts, start, mirrored)
        if max(abs(v - v0) for v, v0 in zip(tup, QUAD0)) <= _BASIN_RADIUS:
            chosen = tup
            break
    if chosen is None:
        raise OutOfBasin("posed quadrangle too far from the symmetric shape")

    ah, xh, yh, zh, wh = chosen
    residual = _reconstruction_residual(ah, xh, yh, zh, wh)
    u, iterations = package_newton3(with_fd_jacobian(residual), (RHO0, SIGMA0, TAU0))
    rho, sigma, tau = (float(v) for v in u)
    triple = ReconstructionTriple(rho=rho, sigma=sigma, tau=tau, iterations=iterations)
    triangle = Tiles(np.array([[[0.0, 0.0], [rho * ah, 0.0], [sigma * xh, sigma * yh]]]))
    return triangle.xy[0], triple


def fair_split_jacobian_det(step: float = 1e-6) -> float:
    """Central-difference Jacobian determinant of the perimeter system in
    (alpha, beta, gamma) at the unit equilateral configuration."""
    system = _split_residual(1.0, 1.0, 1.0, apex(1.0, 1.0, 1.0))
    jac = fd_jacobian(lambda u: system(u)[0], np.array([T0, T0, T0]), step)
    return float(np.linalg.det(jac))


def reconstruction_jacobian_det(step: float = 1e-6) -> float:
    """Central-difference Jacobian determinant of the reconstruction system
    in (rho, sigma, tau) at the symmetric quadrangle."""
    residual = _reconstruction_residual(*QUAD0)
    jac = fd_jacobian(residual, np.array([RHO0, SIGMA0, TAU0]), step)
    return float(np.linalg.det(jac))


def critical_tiling(n_cols: int) -> StripTiling:
    """The closed-form tiling at the critical height 1/sqrt(3).

    At this height the midline collapses onto the axis after one step:
    x_i = 2i - 1/2, y_i = 0, a_i = 2i + (sqrt(3)-1)/2 and
    b_i = 2i - (sqrt(3)+1)/2 for i >= 1.  Built directly from these forms,
    not from the recursion, so it serves as an independent oracle.
    """
    rt3 = math.sqrt(3.0)
    y0 = 1.0 / rt3
    _validate_args(y0, n_cols)
    n = int(n_cols)

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
