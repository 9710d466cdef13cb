"""Invariant verification: equal areas and perimeters, shared-vertex
conformity, pairwise incongruence with explicit margins, the deviation
contraction suite, convexity, and closeness to the periodic reference.

Every check returns a :class:`VerificationReport` built the same way from
the same inputs, so reports are reproducible run to run.  Residual-type
checks pass when the worst residual stays under the tolerance (closeness
reports the largest per-coordinate deviation against 2*epsilon);
incongruence checks pass only when the reported margin exceeds the
quantum; the contraction suite passes when every margin is positive.
Checks never repair geometry: candidate shared vertices are snapped within
tolerance for classification only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import assembly
from .congruence import DEFAULT_QUANTUM, aligned_sweep, halfturn_variants, signature_variants
from .errors import InvalidParameter
from .geometry import (
    area,
    bounding_box,
    edge_lengths,
    is_convex,
    perimeter,
    tile_label,
)
from .strip import DeviationSeries, StripTiling, identity_residual, unit_area_residual

__all__ = [
    "VerificationReport",
    "check_equal_area",
    "check_equal_perimeter",
    "check_vertex_to_vertex",
    "check_pairwise_incongruent",
    "check_halfturn_incongruent",
    "check_contraction",
    "check_closeness",
    "check_convex",
    "check_identity",
]

_MAX_OFFENDERS = 10

# binary64 resolution floors for the strict-monotonicity chains of the
# contraction suite: increments of h below ~ulp(h) and |y| below the
# subnormal range cannot represent strict inequalities, so past these
# floors the checks require non-reversal instead and record the cutoff
_H_STRICT_FLOOR = 1e-7
_Y_STRICT_FLOOR = 1e-290


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    passed: bool
    worst_residual: float | None
    margin: float | None
    offenders: tuple[tuple[str, str], ...]
    tiles_checked: int
    tolerance_used: float
    note: str = ""
    subchecks: tuple["VerificationReport", ...] = ()


def _cap(offenders) -> tuple[tuple[str, str], ...]:
    return tuple(offenders[:_MAX_OFFENDERS])


def _scalar_sweep(name, tiles, target, tol, measure) -> VerificationReport:
    if not tiles:
        raise InvalidParameter(f"{name}: empty tile list")
    worst = 0.0
    offenders = []
    for p in tiles:
        r = float(abs(measure(p) - target))
        if r > tol:
            offenders.append((tile_label(p), tile_label(p)))
        worst = max(worst, r)
    return VerificationReport(
        check_name=name, passed=worst <= tol, worst_residual=worst, margin=None,
        offenders=_cap(offenders), tiles_checked=len(tiles), tolerance_used=tol)


def check_equal_area(tiles, target: float, tol: float = 1e-10) -> VerificationReport:
    """Worst |area - target| over the tiles."""
    return _scalar_sweep("equal-area", tiles, target, tol, area)


def check_equal_perimeter(tiles, target: float, tol: float = 1e-9) -> VerificationReport:
    """Worst |perimeter - target| over the tiles."""
    return _scalar_sweep("equal-perimeter", tiles, target, tol, perimeter)


def check_convex(tiles, tol: float = 1e-12) -> VerificationReport:
    """Every tile's consecutive-edge cross products share one sign."""
    if not tiles:
        raise InvalidParameter("convex: empty tile list")
    offenders = [(tile_label(p), tile_label(p)) for p in tiles if not is_convex(p, tol)]
    return VerificationReport(
        check_name="convex", passed=not offenders, worst_residual=None, margin=None,
        offenders=_cap(offenders), tiles_checked=len(tiles), tolerance_used=tol)


def check_identity(t: StripTiling, tol: float = 1e-10) -> VerificationReport:
    """Unit-area determinants and the area-bookkeeping identity of a strip."""
    worst = max(unit_area_residual(t), identity_residual(t))
    return VerificationReport(
        check_name="strip-identities", passed=worst <= tol, worst_residual=worst,
        margin=None, offenders=(), tiles_checked=4 * t.n_cols + 2, tolerance_used=tol)


# ---------------------------------------------------------------------------
# vertex-to-vertex conformity


def _point_segment_dist(v, a, b) -> float:
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    L2 = dx * dx + dy * dy
    if L2 <= 0.0:
        return math.hypot(v[0] - ax, v[1] - ay)
    t = ((v[0] - ax) * dx + (v[1] - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(v[0] - (ax + t * dx), v[1] - (ay + t * dy))


def _convex_clip_area(vp, vq) -> float:
    # Sutherland-Hodgman; both polygons convex and counterclockwise
    out = [tuple(v) for v in vp]
    m = len(vq)
    for k in range(m):
        ax, ay = vq[k]
        bx, by = vq[(k + 1) % m]
        ex, ey = bx - ax, by - ay
        res = []
        for idx in range(len(out)):
            px, py = out[idx]
            qx, qy = out[(idx + 1) % len(out)]
            sp = ex * (py - ay) - ey * (px - ax)
            sq = ex * (qy - ay) - ey * (qx - ax)
            if sp >= 0.0:
                res.append((px, py))
            if (sp > 0.0 > sq) or (sp < 0.0 < sq):
                f = sp / (sp - sq)
                res.append((px + f * (qx - px), py + f * (qy - py)))
        out = res
        if not out:
            return 0.0
    s = 0.0
    for idx in range(len(out)):
        px, py = out[idx]
        qx, qy = out[(idx + 1) % len(out)]
        s += px * qy - qx * py
    return abs(0.5 * s)


def _classify_pair(vp, vq, tol: float) -> tuple[bool, float]:
    """Classify the contact of two convex tiles.

    Returns (conforming, violation size): conforming means the intersection
    is numerically empty, one shared vertex, or a full common edge.
    """
    dist = np.hypot(vp[:, 0:1] - vq[None, :, 0], vp[:, 1:2] - vq[None, :, 1])
    matches = np.argwhere(dist <= tol)
    shared_p = {int(i) for i, _ in matches}
    shared_q = {int(j) for _, j in matches}
    if len(matches) > len(shared_p) or len(matches) > len(shared_q):
        return False, tol  # one vertex matched twice: degenerate neighbor
    if len(shared_p) >= 3:
        return False, tol  # tiles coincide

    # interior overlap
    overlap = _convex_clip_area(vp, vq)
    if overlap > max(100.0 * tol * tol, 10.0 * tol):
        return False, overlap

    # a vertex resting on the other tile's edge away from its vertices
    for verts, other in ((vp, vq), (vq, vp)):
        n_other = len(other)
        for v in verts:
            v_gap = float(np.min(np.hypot(other[:, 0] - v[0], other[:, 1] - v[1])))
            if v_gap <= tol:
                continue
            edge_gap = min(
                _point_segment_dist(v, other[k], other[(k + 1) % n_other])
                for k in range(n_other))
            if edge_gap <= tol:
                return False, v_gap

    if len(shared_p) == 2:
        (i1, j1), (i2, j2) = sorted((int(i), int(j)) for i, j in matches)
        np_, nq_ = len(vp), len(vq)
        edge_in_p = (i2 - i1) % np_ in (1, np_ - 1)
        edge_in_q = (j2 - j1) % nq_ in (1, nq_ - 1)
        if not (edge_in_p and edge_in_q):
            return False, tol
    return True, 0.0


def check_vertex_to_vertex(tiles, tol: float = 1e-9) -> VerificationReport:
    """Every tile pair must meet in nothing, one vertex, or a full edge."""
    n = len(tiles)
    if n == 0:
        raise InvalidParameter("vertex-to-vertex: empty tile list")
    verts = [np.array([v.xy for v in p.vertices]) for p in tiles]
    boxes = np.array([bounding_box(p) for p in tiles])
    xmin, ymin, xmax, ymax = boxes.T
    offenders = []
    worst = 0.0
    for i in range(n):
        near = np.nonzero(
            (xmin[i + 1:] <= xmax[i] + tol) & (xmax[i + 1:] >= xmin[i] - tol)
            & (ymin[i + 1:] <= ymax[i] + tol) & (ymax[i + 1:] >= ymin[i] - tol))[0]
        for off in near:
            j = int(off) + i + 1
            ok, size = _classify_pair(verts[i], verts[j], tol)
            if not ok:
                offenders.append((tile_label(tiles[i]), tile_label(tiles[j])))
                worst = max(worst, size)
    return VerificationReport(
        check_name="vertex-to-vertex", passed=not offenders,
        worst_residual=worst, margin=None, offenders=_cap(offenders),
        tiles_checked=n, tolerance_used=tol)


# ---------------------------------------------------------------------------
# pairwise incongruence


def _incongruence(name, polys, quantum: float, rows_of) -> VerificationReport:
    if quantum <= 0:
        raise InvalidParameter(f"quantum must be positive, got {quantum!r}")
    if not polys:
        raise InvalidParameter(f"{name}: empty tile list")
    margin, collisions = aligned_sweep(polys, rows_of, quantum)
    offenders = [(tile_label(polys[a]), tile_label(polys[b])) for a, b in collisions]
    return VerificationReport(
        check_name=name, passed=not collisions, worst_residual=None, margin=margin,
        offenders=_cap(offenders), tiles_checked=len(polys), tolerance_used=quantum)


def check_pairwise_incongruent(tiles, quantum: float = DEFAULT_QUANTUM) -> VerificationReport:
    """No two tiles congruent, and no equilateral triangle among them.

    The margin is the smallest aligned signature distance over all pairs,
    reflections included.  A pair at distance ``<= quantum`` is a collision,
    so the check passes only when the margin exceeds the quantum and no
    triangle has all edges equal within the quantum.
    """
    report = _incongruence("pairwise-incongruent", tiles, quantum, signature_variants)
    equilateral = []
    for p in tiles:
        if len(p.vertices) == 3:
            lengths = edge_lengths(p)
            spread = max(lengths) - min(lengths)
            if spread <= quantum:
                equilateral.append((tile_label(p), tile_label(p)))
    if not equilateral:
        return report
    return replace(report, passed=False, offenders=_cap(report.offenders + tuple(equilateral)),
                   note=f"{len(equilateral)} equilateral tile(s) flagged")


def check_halfturn_incongruent(tiles, quantum: float = DEFAULT_QUANTUM) -> VerificationReport:
    """No two tiles agree up to translation or translated half-turn.

    This is the strip-level relation: reflected column pairs are fully
    congruent by symmetry, but must stay separated under this relation for
    the shear certification to apply.  The margin is the smallest
    :func:`~fairtile.congruence.simeq_distance` over all pairs; the check
    passes only when it exceeds the quantum.
    """
    return _incongruence("halfturn-incongruent", tiles, quantum, halfturn_variants)


# ---------------------------------------------------------------------------
# deviation contraction suite


def _subreport(name, passed, margin, count, note="") -> VerificationReport:
    return VerificationReport(
        check_name=name, passed=passed, worst_residual=None, margin=margin,
        offenders=(), tiles_checked=count, tolerance_used=0.0, note=note)


def check_contraction(series: DeviationSeries) -> VerificationReport:
    """The four contraction estimates of the deviation series.

    Quantities that sink below binary64 resolution (h increments under one
    ulp, |y| in the subnormal range) cannot support strict comparisons, so
    past those floors the chains are required not to reverse and the
    cutoff index is recorded in the subcheck note.  The constant bounds
    (h between 1 and 2, h < 1 + 5*sum(y^2), sum|y| < 4) are enforced
    strictly over the whole series.
    """
    y = np.asarray(series.y, dtype=float)
    h = np.asarray(series.h, dtype=float)
    n = y.size

    cum_sq = 1.0 + 5.0 * np.cumsum(y * y)
    m1 = min(float(np.min(cum_sq - h)), float(np.min(2.0 - cum_sq)))
    sub1 = _subreport("h-bound", m1 > 0.0, m1, n)

    inc = np.diff(h)
    strict_h = np.abs(y[1:]) >= _H_STRICT_FLOOR if n > 1 else np.zeros(0, bool)
    bound = min(float(np.min(h - 1.0)), float(np.min(2.0 - h)))
    strict_ok = bool(np.all(inc[strict_h] > 0.0)) if inc.size else True
    relax_ok = bool(np.all(inc[~strict_h] >= 0.0)) if inc.size else True
    m2 = float(np.min(inc[strict_h])) if strict_h.any() else math.inf
    m2 = min(m2, bound)
    cut = int(np.argmin(strict_h)) if strict_h.any() and not strict_h.all() else None
    note = f"strict up to index {cut}, non-reversal beyond" if cut is not None else ""
    sub2 = _subreport("h-monotone", strict_ok and relax_ok and bound > 0.0, m2, n, note)

    sign_ok = bool(np.all(np.sign(y) == np.where(np.arange(n) % 2 == 0, 1.0, -1.0)))
    ay = np.abs(y)
    dec = ay[:-1] - ay[1:]
    strict_y = ay[:-1] >= _Y_STRICT_FLOOR if n > 1 else np.zeros(0, bool)
    strict_ok_y = bool(np.all(dec[strict_y] > 0.0)) if dec.size else True
    relax_ok_y = bool(np.all(dec[~strict_y] >= 0.0)) if dec.size else True
    m3 = float(np.min(dec[strict_y])) if strict_y.any() else math.inf
    cut_y = int(np.argmin(strict_y)) if strict_y.any() and not strict_y.all() else None
    note_y = f"strict up to index {cut_y}, non-reversal beyond" if cut_y is not None else ""
    sub3 = _subreport("y-alternating", sign_ok and strict_ok_y and relax_ok_y, m3, n, note_y)

    m4 = 4.0 - float(np.max(np.cumsum(ay)))
    sub4 = _subreport("y-abs-sum", m4 > 0.0, m4, n)

    subs = (sub1, sub2, sub3, sub4)
    margin = min(s.margin for s in subs)
    return VerificationReport(
        check_name="contraction", passed=all(s.passed for s in subs),
        worst_residual=None, margin=margin, offenders=(), tiles_checked=n,
        tolerance_used=0.0, subchecks=subs)


# ---------------------------------------------------------------------------
# closeness to the periodic reference


def check_closeness(tiles, epsilon: float) -> VerificationReport:
    """Per-coordinate deviation of every vertex from its counterpart in the
    periodic tiling by equilateral edge-2 triangles.

    The worst residual is the largest deviation; the check passes when it
    stays strictly under the tolerance 2*epsilon.
    """
    if not tiles:
        raise InvalidParameter("closeness: empty tile list")
    worst = 0.0
    for tri in tiles:
        if tri.id is None:
            raise InvalidParameter("closeness needs tiles with ids")
        if len(tri.vertices) != 3:
            raise InvalidParameter(
                f"closeness applies to triangles only; tile {tile_label(tri)} is not one")
        ref = assembly.periodic_triangle(tri.id)
        for v, r in zip(tri.vertices, ref.vertices):
            worst = max(worst, float(abs(v.x - r.x)), float(abs(v.y - r.y)))
    tol = 2.0 * epsilon
    return VerificationReport(
        check_name="closeness", passed=worst < tol, worst_residual=worst, margin=None,
        offenders=(), tiles_checked=len(tiles), tolerance_used=tol,
        note="periodic-equilateral-edge-2")
