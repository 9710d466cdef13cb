"""Reference implementations the tests compare the package against: the
per-pair congruence distances that :func:`fairtile.congruence.aligned_sweep`
replaced, the per-polygon alignment rows that the batched row builders
replaced, the numpy Newton iteration that :func:`fairtile.quadsplit.newton3`
replaced, the elementary plane maps that :class:`StripTransform`
composes into one placement, the shear selection that sweeps every pair of
the rows drawn so far (the package sweeps only the pairs with a tile in
the new row), and the ``json.dumps`` document serializer that the tile-line template replaced, the slot
chain that built one strip tile at a time before the window became one
vertex array, the object builders and document parser that the array
tile record (:class:`fairtile.geometry.Tiles`) replaced, and the fair
split of one :class:`Triangle` into :class:`Quadrangle` objects that the
record split (:func:`fairtile.quadsplit.fair_split`) replaced, and the
per-tile bounding-box pass that the sorted window of
:func:`fairtile.verify.check_vertex_to_vertex` replaced, and the
equilateral shear roots of one :class:`Triangle` that the record pass
(:func:`fairtile.congruence.equilateral_shear_set`) replaced, and the
pair-major contact classification that the pairs-last
:func:`fairtile.verify._contact` replaced."""

import json
import math

import numpy as np

from fairtile.assembly import _DRAWS_PER_ROW, MARGIN_FLOOR, SQRT3, row_order
from fairtile.congruence import (_LEADING_EPS, DEFAULT_QUANTUM, _dedup, _roots, aligned_sweep,
                                 bad_shear_set, halfturn_key, halfturn_variants, signature_key,
                                 signature_variants)
from fairtile.document import FORMAT_VERSION, KINDS, fmt17
from fairtile.errors import (DegeneratePolygon, DegenerateTriangle, DocumentError,
                             EdgeOutOfRange, ExhaustedRetries, FairtileError, InvalidParameter,
                             NoConvergence, NoUnequalHeights, SingularDenominator,
                             SingularJacobian, TileFailed)
from fairtile.geometry import (Point, Quadrangle, TileId, Tiles, Triangle, edge_vectors,
                               signed_area, tile_label)
from fairtile.quadsplit import DELTA_Q, QUADIFY_SCALE, quad_vertices, solve_fair_split
from fairtile.strip import strip_tiling, window_tiles


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


def edge_lengths(p) -> list[float]:
    return [math.hypot(dx, dy) for dx, dy in edge_vectors(p)]


def area(p) -> float:
    s = signed_area([v.xy for v in p.vertices])
    if abs(s) <= 1e-14:
        raise DegeneratePolygon(f"degenerate polygon (signed area {s:.3e})")
    return abs(s)


def perimeter(p) -> float:
    pts = p.vertices
    return sum(math.hypot(q.x - r.x, q.y - r.y) for q, r in zip(pts, pts[1:] + pts[:1]))


def with_vertices(p, pts):
    """Copy of the polygon with replaced vertices, keeping its identity."""
    pts = tuple(pts)
    if isinstance(p, Triangle):
        return Triangle(*pts, id=p.id)
    return Quadrangle(pts, id=p.id, corner=p.corner)


def scale_uniform(p, s: float):
    """Uniform scaling about the origin by a positive factor."""
    if s <= 0:
        raise InvalidParameter(f"scale factor must be positive, got {s!r}")
    return with_vertices(p, (Point(s * v.x, s * v.y) for v in p.vertices))


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
    """Isometry (possibly with a reflection) taking ``origin`` to (0,0),
    ``along`` onto the positive x-axis and ``upper`` above it.

    Returns (forward, inverse, mirrored).
    """
    ux, uy = along.x - origin.x, along.y - origin.y
    norm = math.hypot(ux, uy)
    if norm <= 1e-14:
        raise DegeneratePolygon("coincident frame points")
    ex = (ux / norm, uy / norm)
    ey = (-ex[1], ex[0])
    up = (upper.x - origin.x) * ey[0] + (upper.y - origin.y) * ey[1]
    m = -1.0 if up < 0.0 else 1.0

    def forward(p: Point) -> Point:
        dx, dy = p.x - origin.x, p.y - origin.y
        return Point(dx * ex[0] + dy * ex[1], m * (dx * ey[0] + dy * ey[1]))

    def inverse(px: float, py: float) -> Point:
        yy = m * py
        return Point(origin.x + px * ex[0] + yy * ey[0],
                     origin.y + px * ex[1] + yy * ey[1])

    return forward, inverse, m < 0.0


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

    _, inverse, mirrored = _canonical_frame(va, vb, r)
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
        posed = scale_uniform(tri, QUADIFY_SCALE)
        try:
            out.extend(fair_split(posed))
        except FairtileError as e:
            raise TileFailed(tri.id, e) from e
    return out


def _id_field(id_obj, key: str) -> int:
    value = id_obj[key]
    if type(value) is not int:
        raise DocumentError(f"tile id field {key!r} must be an integer, got {value!r}")
    return value


def _parse_tile(obj):
    id_obj = obj["id"]
    tid = TileId(*(_id_field(id_obj, key) for key in ("row", "col", "slot")))
    corner = id_obj.get("corner")
    pts = [Point(float(x), float(y)) for x, y in obj["vertices"]]
    if len(pts) == 3:
        if corner is not None:
            raise DocumentError("corner labels belong to quadrangle tiles")
        return Triangle(*pts, id=tid)
    if len(pts) == 4:
        return Quadrangle(tuple(pts), id=tid, corner=corner)
    raise DocumentError(f"tiles must have 3 or 4 vertices, got {len(pts)}")


def parse(text: str):
    """(kind, parameters, polygons) of a document, every tile line read
    through ``json`` and built as a validated polygon, an id seen twice
    refused at its second line."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise DocumentError("empty document")
    try:
        header = json.loads(lines[0])
        version = header["format_version"]
        kind = header["kind"]
        parameters = header["parameters"]
        tiles = [_parse_tile(json.loads(ln)) for ln in lines[1:]]
    except DocumentError:
        raise
    except Exception as e:
        raise DocumentError(f"malformed document: {e}") from e
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {version!r}")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    n = {"strip": 3, "plane": 3, "quad": 4}[kind]
    for tile in tiles:
        if len(tile.vertices) != n:
            raise DocumentError(f"{kind} documents hold {n}-vertex tiles; "
                                f"tile {tile_label(tile)} has {len(tile.vertices)}")
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
    n = len(p.vertices)
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


def newton3(residual, x0) -> tuple[np.ndarray, int]:
    """The damped Newton iteration on numpy arrays, with an SVD condition
    test at every step."""
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


def signature_distance(p, q) -> float:
    """Smallest max-component difference between aligned signatures.

    Zero exactly for congruent polygons; the reported value is the margin
    by which the pair fails to be congruent.  Polygons with different
    vertex counts are infinitely far apart.
    """
    if len(p.vertices) != len(q.vertices):
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


def translate(p, dx: float, dy: float):
    return with_vertices(p, (Point(v.x + dx, v.y + dy) for v in p.vertices))


def shear(p, mu: float):
    """Horizontal shear (x, y) -> (x + mu*y, y); preserves areas."""
    return with_vertices(p, (Point(v.x + mu * v.y, v.y) for v in p.vertices))


def reflect_x(p):
    """Reflection through the horizontal axis (x, y) -> (x, -y).

    Vertex order is reversed so the result stays counterclockwise.
    """
    return with_vertices(p, reversed([Point(v.x, -v.y) for v in p.vertices]))


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
    _, collisions = aligned_sweep(Tiles.of(tiles), halfturn_variants, halfturn_key,
                                  DEFAULT_QUANTUM)
    if collisions:
        bad_shear_set(*(tiles[i] for i in collisions[0]))  # raises DegeneratePair
    equilateral = [r for tile in tiles for r in equilateral_shear_set(tile)]
    chosen = []
    for n in range(1, count + 1):
        half = (0.5 ** n) * epsilon / (2.0 * SQRT3)
        best = 0.0
        for _ in range(_DRAWS_PER_ROW):
            cand = rng.uniform(-half, half)
            if any(abs(r - cand) < DEFAULT_QUANTUM for r in equilateral):
                continue
            rows = Tiles.of(shear(tile, mu) for mu in chosen + [cand] for tile in tiles)
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
    lines = [dump({"format_version": doc.format_version, "kind": doc.kind,
                   "parameters": doc.parameters})]
    for tile in doc.tiles:
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
