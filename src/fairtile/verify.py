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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import assembly
from .congruence import (DEFAULT_QUANTUM, aligned_sweep, halfturn_key, halfturn_variants,
                         signature_key, signature_variants, window_pairs)
from .errors import InvalidParameter
from .geometry import Tiles
from .strip import DeviationSeries, StripTiling, identity_residual, unit_area_residual, window_tiles

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
_CONTACT_BLOCK = 4096  # box-surviving pairs per contact pass, gathered across windows

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


def _labels(tiles: Tiles, idx) -> tuple[tuple[str, str], ...]:
    """(label, label) of the first offending tiles among ``idx``."""
    return tuple((tiles.label(i),) * 2 for i in idx[:_MAX_OFFENDERS])


def _scalar_sweep(name, tiles: Tiles, target, tol, measure) -> VerificationReport:
    if not len(tiles):
        raise InvalidParameter(f"{name}: empty tile list")
    r = np.abs(measure(tiles) - target)
    worst = float(np.max(r))
    return VerificationReport(
        check_name=name, passed=worst <= tol, worst_residual=worst, margin=None,
        offenders=_labels(tiles, np.flatnonzero(r > tol)), tiles_checked=len(tiles),
        tolerance_used=tol)


def check_equal_area(tiles: Tiles, target: float, tol: float = 1e-10) -> VerificationReport:
    """Worst |area - target| over the tiles."""
    return _scalar_sweep("equal-area", tiles, target, tol, lambda t: np.abs(t.signed_areas()))


def check_equal_perimeter(tiles: Tiles, target: float, tol: float = 1e-9) -> VerificationReport:
    """Worst |perimeter - target| over the tiles, edge lengths summed in order."""
    return _scalar_sweep("equal-perimeter", tiles, target, tol,
                         lambda t: functools.reduce(np.add, t.lengths().T))


def check_convex(tiles: Tiles, tol: float = 1e-12) -> VerificationReport:
    """Every tile's consecutive-edge cross products share one sign."""
    if not len(tiles):
        raise InvalidParameter("convex: empty tile list")
    offenders = _labels(tiles, np.flatnonzero(~tiles.convex(tol)))
    return VerificationReport(
        check_name="convex", passed=not offenders, worst_residual=None, margin=None,
        offenders=offenders, tiles_checked=len(tiles), tolerance_used=tol)


def check_identity(t: StripTiling, tiles: Tiles, tol: float = 1e-10) -> VerificationReport:
    """Unit-area determinants and the area-bookkeeping identity of a strip, and
    ``tiles`` against its window: count, and each tile's id, vertex count and
    coordinates bit for bit (-0.0 and 0.0 differ), naming the tiles that differ."""
    worst = max(unit_area_residual(t), identity_residual(t))
    want = window_tiles(t)
    m = min(len(tiles), len(want))
    got, exp = (np.column_stack([r.row[:m], r.col[:m], r.slot[:m], np.full(m, r.xy.shape[1]),
                                 r.xy[:m, :3].reshape(m, 6)]) for r in (tiles, want))
    bad = np.flatnonzero((got.view(np.uint64) != exp.view(np.uint64)).any(1)).tolist()
    bad += range(m, len(tiles))
    note = (f"{len(bad)} of {len(tiles)} tiles differ from the {len(want)} of the header's strip"
            if bad or len(tiles) != len(want) else "")
    return VerificationReport(
        check_name="strip-identities", passed=worst <= tol and not note, worst_residual=worst,
        margin=None, offenders=_labels(tiles, bad), tiles_checked=len(want),
        tolerance_used=tol, note=note)


# ---------------------------------------------------------------------------
# vertex-to-vertex conformity


def _vertex_edge(vx, vy, wx, wy):
    """Vertices V (``vx``, ``vy``: (n, M)) against the edges of ccw polygons
    W (``wx``, ``wy``: (m, M)): each vertex's distance to the nearest edge
    (n, M), and per pair the largest, over the edges of ``W``, of the least
    signed distance of ``V`` outside that edge's line (M,), which is positive
    when that line separates the pair and minus the overlap along its normal
    otherwise."""
    dx, dy = np.roll(wx, -1, axis=0) - wx, np.roll(wy, -1, axis=0) - wy
    L2 = dx ** 2 + dy ** 2
    rx, ry = vx[:, None] - wx, vy[:, None] - wy
    t = np.clip((rx * dx + ry * dy) / L2, 0.0, 1.0)
    seg = np.hypot(vx[:, None] - (wx + t * dx), vy[:, None] - (wy + t * dy))
    outside = (dy * rx - dx * ry) / np.sqrt(L2)
    return seg.min(axis=1), outside.min(axis=0).max(axis=0)


def _contact(P, Q, tol: float):
    """Classify the contact of convex ccw tile pairs ``P`` (M, n, 2) and
    ``Q`` (M, m, 2).

    Returns (violates, size) per pair.  A pair conforms when it meets in
    nothing, one shared vertex or one full common edge.  The rules, first
    match deciding the size: a vertex matched twice or three shared
    vertices (``tol``); overlap depth above ``tol`` (the depth, a length:
    how far the pair must move apart along the best separating edge
    normal); a vertex away from every vertex of the other tile but on one
    of its edges (that vertex's gap to the nearest vertex); two shared
    vertices that are not an edge of both tiles (``tol``).  The arrays put
    the pairs last, as numpy is slow on short inner axes.
    """
    (px, py), (qx, qy) = np.ascontiguousarray(P.T), np.ascontiguousarray(Q.T)  # (n, M), (m, M)
    dist = np.hypot(px[:, None] - qx, py[:, None] - qy)  # (n, m, M)
    match = dist <= tol
    shared_p, shared_q = match.any(axis=1), match.any(axis=0)
    n_shared = shared_p.sum(axis=0)
    coincide = ((match.sum(axis=1) > 1).any(axis=0) | (match.sum(axis=0) > 1).any(axis=0)
                | (n_shared >= 3))

    edge_gap_p, sep_q = _vertex_edge(px, py, qx, qy)
    edge_gap_q, sep_p = _vertex_edge(qx, qy, px, py)
    depth = -np.maximum(sep_p, sep_q)

    v_gap = np.concatenate([dist.min(axis=1), dist.min(axis=0)], axis=0)
    on_edge = (v_gap > tol) & (np.concatenate([edge_gap_p, edge_gap_q], axis=0) <= tol)

    adjacent = ((shared_p & np.roll(shared_p, -1, axis=0)).any(axis=0)
                & (shared_q & np.roll(shared_q, -1, axis=0)).any(axis=0))
    rules = [coincide, depth > tol, on_edge.any(axis=0), (n_shared == 2) & ~adjacent]
    sizes = [tol, depth, v_gap[np.argmax(on_edge, axis=0), np.arange(len(P))], tol]
    return np.logical_or.reduce(rules), np.select(rules, sizes, 0.0)


def check_vertex_to_vertex(tiles: Tiles, tol: float = 1e-9) -> VerificationReport:
    """Every tile pair must meet in nothing, one vertex, or a full edge.

    Pairs whose bounding boxes are apart by more than ``tol`` are skipped,
    from a window of the tiles sorted by least x (widened against rounding);
    the rest are classified by :func:`_contact`, the earlier tile first.
    The worst residual is the largest violation size; an overlap counts by
    its depth.
    """
    n = len(tiles)
    if n == 0:
        raise InvalidParameter("vertex-to-vertex: empty tile list")
    convex = tiles.convex()
    if not convex.all():  # edge lines decide overlap only between convex tiles
        raise InvalidParameter(f"vertex-to-vertex needs convex tiles; "
                               f"{tiles.label(np.argmin(convex))} is not")
    lo, hi = tiles.xy.min(axis=1), tiles.xy.max(axis=1)
    order = np.argsort(lo[:, 0], kind="stable")
    near = [(np.empty(0, int), np.empty(0, int))]  # (i, j) of the pairs whose boxes meet
    for s, t in window_pairs(lo[order, 0], hi[order, 0] + 2.0 * tol):
        i, j = np.minimum(order[s], order[t]), np.maximum(order[s], order[t])
        meet = ((lo[j] <= hi[i] + tol) & (hi[j] >= lo[i] - tol)).all(axis=1)
        near.append((i[meet], j[meet]))
    i, j = map(np.concatenate, zip(*near))
    bad, size = map(np.concatenate, zip((np.empty(0, bool), np.empty(0)), *(
        _contact(tiles.xy[i[k:k + _CONTACT_BLOCK]], tiles.xy[j[k:k + _CONTACT_BLOCK]], tol)
        for k in range(0, len(i), _CONTACT_BLOCK))))
    i, j, size = i[bad], j[bad], size[bad]
    first = np.lexsort((j, i))[:_MAX_OFFENDERS]
    offenders = [(tiles.label(a), tiles.label(b)) for a, b in zip(i[first], j[first])]
    return VerificationReport(
        check_name="vertex-to-vertex", passed=not len(i),
        worst_residual=float(size.max(initial=0.0)), margin=None,
        offenders=tuple(offenders), tiles_checked=n, tolerance_used=tol)


# ---------------------------------------------------------------------------
# pairwise incongruence


def _incongruence(name, tiles: Tiles, quantum: float, rows_of, key_of) -> VerificationReport:
    if quantum <= 0:
        raise InvalidParameter(f"quantum must be positive, got {quantum!r}")
    if not len(tiles):
        raise InvalidParameter(f"{name}: empty tile list")
    margin, collisions = aligned_sweep(tiles, rows_of, key_of, quantum)
    offenders = [(tiles.label(a), tiles.label(b))
                 for a, b in collisions[:_MAX_OFFENDERS]]
    return VerificationReport(
        check_name=name, passed=not collisions, worst_residual=None, margin=margin,
        offenders=tuple(offenders), tiles_checked=len(tiles), tolerance_used=quantum)


def check_pairwise_incongruent(tiles, quantum: float = DEFAULT_QUANTUM) -> VerificationReport:
    """No two tiles congruent, and no equilateral triangle among them.

    The margin is the smallest aligned signature distance over all pairs,
    reflections included.  A pair at distance ``<= quantum`` is a collision,
    so the check passes only when the margin exceeds the quantum and no
    triangle has all edges equal within the quantum.
    """
    report = _incongruence("pairwise-incongruent", tiles, quantum, signature_variants,
                          signature_key)
    if tiles.xy.shape[1] != 3:
        return report
    lengths = tiles.lengths()
    equilateral = np.flatnonzero(lengths.max(axis=1) - lengths.min(axis=1) <= quantum)
    if not equilateral.size:
        return report
    offenders = report.offenders + _labels(tiles, equilateral)
    return replace(report, passed=False, offenders=offenders[:_MAX_OFFENDERS],
                   note=f"{equilateral.size} equilateral tile(s) flagged")


def check_halfturn_incongruent(tiles, quantum: float = DEFAULT_QUANTUM) -> VerificationReport:
    """No two tiles agree up to translation or translated half-turn.

    This is the strip-level relation: reflected column pairs are fully
    congruent by symmetry, but must stay separated under this relation for
    the shear certification to apply.  The margin is the smallest distance
    of one tile's edge-vector cycle from another's, or its negation, over
    all rotations and pairs; the check passes only when it exceeds the
    quantum.
    """
    return _incongruence("halfturn-incongruent", tiles, quantum, halfturn_variants, halfturn_key)


# ---------------------------------------------------------------------------
# deviation contraction suite


def _subreport(name, passed, margin, count, note="") -> VerificationReport:
    return VerificationReport(
        check_name=name, passed=passed, worst_residual=None, margin=margin,
        offenders=(), tiles_checked=count, tolerance_used=0.0, note=note)


def _chain(steps: np.ndarray, strict: np.ndarray) -> tuple[bool, float, str]:
    """Whether ``steps`` are positive where ``strict`` holds and non-negative
    elsewhere, the smallest strict step, and a note naming the first index
    past the strict floor."""
    holds = bool(np.all(steps[strict] > 0.0)) and bool(np.all(steps[~strict] >= 0.0))
    margin = float(np.min(steps[strict])) if strict.any() else math.inf
    cut = int(np.argmin(strict)) if strict.any() and not strict.all() else None
    note = f"strict up to index {cut}, non-reversal beyond" if cut is not None else ""
    return holds, margin, note


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

    bound = min(float(np.min(h - 1.0)), float(np.min(2.0 - h)))
    ok, m2, note = _chain(np.diff(h), np.abs(y[1:]) >= _H_STRICT_FLOOR)
    sub2 = _subreport("h-monotone", ok and bound > 0.0, min(m2, bound), n, note)

    sign_ok = bool(np.all(np.sign(y) == np.where(np.arange(n) % 2 == 0, 1.0, -1.0)))
    ay = np.abs(y)
    ok, m3, note = _chain(ay[:-1] - ay[1:], ay[:-1] >= _Y_STRICT_FLOOR)
    sub3 = _subreport("y-alternating", sign_ok and ok, m3, n, note)

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


def check_closeness(tiles: Tiles, epsilon: float) -> VerificationReport:
    """Per-coordinate deviation of every vertex from its counterpart in the
    periodic tiling by equilateral edge-2 triangles.

    The worst residual is the largest deviation; the check passes when it
    stays strictly under the tolerance 2*epsilon.
    """
    if not len(tiles):
        raise InvalidParameter("closeness: empty tile list")
    if tiles.row is None:
        raise InvalidParameter("closeness needs tiles with ids")
    if tiles.xy.shape[1] != 3:
        raise InvalidParameter(
            f"closeness applies to triangles only; tile {tiles.label(0)} is not one")
    ref = assembly.periodic_triangles(tiles.row, tiles.col, tiles.slot)
    worst = float(np.max(np.abs(tiles.xy - ref.xy)))
    tol = 2.0 * epsilon
    return VerificationReport(
        check_name="closeness", passed=worst < tol, worst_residual=worst, margin=None,
        offenders=(), tiles_checked=len(tiles), tolerance_used=tol,
        note="periodic-equilateral-edge-2")
