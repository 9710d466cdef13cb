"""Congruence predicates, the alignment rows that the pairwise sweeps
compare, and the shear parameters at which given triangles can collide
into congruent or equilateral shapes.

Two congruence relations appear side by side:

* full congruence under all Euclidean isometries, reflections included
  (written ``congruent`` here);
* the restricted relation "translate of T or of -T", i.e. translations
  composed with half-turns (``halfturn_translate_congruent``), which is the
  relation that matters inside a single strip before shearing.

Equality of ideal reals is not decidable in binary64, so predicates take an
explicit tolerance and the distances behind them are exposed as separation
margins rather than bare booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, InvalidParameter, NoUnequalHeights
from .geometry import (
    Triangle,
    edge_lengths,
    edge_vectors,
    vertical_width,
)

__all__ = [
    "ShearRootSet",
    "signature_variants",
    "halfturn_variants",
    "signature_distance",
    "congruent",
    "simeq_distance",
    "halfturn_translate_congruent",
    "bad_shear_set",
    "shear_match_roots",
    "equilateral_shear_set",
    "vertical_width",
]

DEFAULT_QUANTUM = 1e-9

# coefficient / discriminant thresholds for stable quadratic root extraction
_LEADING_EPS = 1e-14
_DISC_CLAMP = 1e-12
_ROOT_DEDUP = 1e-9


def _orderings(pts):
    """All 2n vertex orderings: cyclic rotations of both orientations."""
    n = len(pts)
    fwd = list(pts)
    rev = list(pts)[::-1]
    for base in (fwd, rev):
        for r in range(n):
            yield base[r:] + base[:r]


def _flat_pairs(pts) -> tuple[float, ...]:
    """Flattened (length, angle) pairs for one explicit vertex ordering."""
    n = len(pts)
    out = []
    for k in range(n):
        v, w = pts[k], pts[(k + 1) % n]
        u = pts[(k - 1) % n]
        a = (w.x - v.x, w.y - v.y)
        b = (u.x - v.x, u.y - v.y)
        out.append(math.hypot(*a))
        out.append(math.atan2(abs(a[0] * b[1] - a[1] * b[0]), a[0] * b[0] + a[1] * b[1]))
    return tuple(out)


def signature_variants(p) -> np.ndarray:
    """All 2n alignment rows of the (edge length, interior angle) signature,
    one per cyclic rotation of either orientation, shape (2n, 2n).

    Comparing every row of one polygon against a fixed row of another
    covers every relative alignment, which is what the vectorized pairwise
    sweeps rely on.
    """
    return np.array([_flat_pairs(o) for o in _orderings(p.vertices)])


def signature_distance(p, q) -> float:
    """Smallest max-component difference between aligned signatures.

    Zero exactly for congruent polygons; the reported value is the margin
    by which the pair fails to be congruent.  Polygons with different
    vertex counts are infinitely far apart.
    """
    if len(p.vertices) != len(q.vertices):
        return math.inf
    rows = signature_variants(p)
    return float(np.min(np.max(np.abs(rows - signature_variants(q)[0]), axis=1)))


def congruent(p, q, tol: float = DEFAULT_QUANTUM) -> bool:
    """Whether some Euclidean isometry (reflections included) maps p onto q.

    Triangles reduce to the side-side-side comparison; quadrangles compare
    aligned signatures at the given tolerance.
    """
    if len(p.vertices) != len(q.vertices):
        return False
    if len(p.vertices) == 3:
        lp, lq = sorted(edge_lengths(p)), sorted(edge_lengths(q))
        return max(abs(a - b) for a, b in zip(lp, lq)) <= tol
    return signature_distance(p, q) <= tol


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


def halfturn_variants(p) -> np.ndarray:
    """All 2n alignment rows of the edge-vector cycle, shape (2n, 2n).

    Rows are the n cyclic rotations of the cycle, then the same rotations
    negated, each flattened to (x0, y0, x1, y1, ...).  Every row of one
    polygon against the first row of another gives the alignments that
    :func:`simeq_distance` minimises over, with the same floating-point
    differences.
    """
    ev = np.array(edge_vectors(p))
    rotations = np.stack([np.roll(ev, -r, axis=0) for r in range(len(ev))])
    return np.concatenate([rotations, -rotations]).reshape(2 * len(ev), -1)


def halfturn_translate_congruent(t, u, tol: float = DEFAULT_QUANTUM) -> bool:
    """Whether u is a translate of t or of -t, within tol per component."""
    return simeq_distance(t, u) <= tol


@dataclass(frozen=True)
class ShearRootSet:
    """Real shear parameters at which a congruence collision can occur.

    Away from every root (the sets are finite), the sheared configuration
    is certified free of the collision the set was derived for.  Each root
    satisfies its defining quadratic to 1e-9.
    """

    roots: tuple[float, ...]
    degenerate: bool = False


def _real_roots(a: float, b: float, c: float) -> list[float]:
    # monic normalization when the leading coefficient is meaningful,
    # linear fallback otherwise; near-zero discriminants clamp to zero
    if abs(a) > _LEADING_EPS:
        p, q = b / a, c / a
        disc = 0.25 * p * p - q
        if abs(disc) < _DISC_CLAMP:
            disc = 0.0
        if disc < 0.0:
            return []
        r = math.sqrt(disc)
        if r == 0.0:
            return [-0.5 * p, -0.5 * p]
        # evaluate the cancellation-free root first, its partner via Vieta
        far = -0.5 * p - r if p >= 0.0 else -0.5 * p + r
        return sorted((far, q / far))
    if abs(b) > _LEADING_EPS:
        return [-c / b]
    return []


def _dedup(roots) -> tuple[float, ...]:
    out: list[float] = []
    for r in sorted(roots):
        if not out or r - out[-1] > _ROOT_DEDUP:
            out.append(r)
    return tuple(out)


def _pm_gap(e, f) -> float:
    """Distance of edge vectors up to sign (segments are unoriented)."""
    return min(max(abs(e[0] - f[0]), abs(e[1] - f[1])),
               max(abs(e[0] + f[0]), abs(e[1] + f[1])))


def _coshear_roots(t, u) -> list[float]:
    ev_t, ev_u = edge_vectors(t), edge_vectors(u)
    # the certificate edge must be a translate of none of u's edges; pick
    # the one farthest from all of them so its quadratics stay well scaled
    e0 = max(ev_t, key=lambda e: min(_pm_gap(e, f) for f in ev_u))
    x0, y0 = e0
    roots: list[float] = []
    for fx, fy in ev_u:
        roots += _real_roots(y0 * y0 - fy * fy,
                             2.0 * (x0 * y0 - fx * fy),
                             x0 * x0 + y0 * y0 - fx * fx - fy * fy)
    return roots


def _match_roots(t, fixed) -> list[float]:
    ev_t = edge_vectors(t)
    x0, y0 = max(ev_t, key=lambda e: abs(e[1]))
    if abs(y0) <= _LEADING_EPS:
        raise InvalidParameter("triangle has no edge with nonzero height")
    roots: list[float] = []
    for fx, fy in edge_vectors(fixed):
        roots += _real_roots(y0 * y0,
                             2.0 * x0 * y0,
                             x0 * x0 + y0 * y0 - (fx * fx + fy * fy))
    return roots


def bad_shear_set(t: Triangle, u: Triangle) -> ShearRootSet:
    """Shear parameters at which t and u can collide into congruent images.

    Covers both collision modes: the pair sheared together, and sheared t
    against u left fixed.  Outside the returned roots both are certified
    non-congruent.  If t and u agree up to translation/half-turn (within
    :data:`DEFAULT_QUANTUM`), every shear keeps them congruent and
    :class:`DegeneratePair` is raised.
    """
    if simeq_distance(t, u) <= DEFAULT_QUANTUM:
        raise DegeneratePair("triangles agree up to translation/half-turn")
    return ShearRootSet(roots=_dedup(_coshear_roots(t, u) + _match_roots(t, u)))


def shear_match_roots(t: Triangle, fixed: Triangle) -> ShearRootSet:
    """Shear parameters at which sheared t can become congruent to ``fixed``.

    Unlike :func:`bad_shear_set` this variant needs no relation between the
    inputs: it only compares one sheared edge length of t against the fixed
    edge lengths, so the root set is finite even for identical triangles.
    """
    return ShearRootSet(roots=_dedup(_match_roots(t, fixed)))


def equilateral_shear_set(t: Triangle) -> ShearRootSet:
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
    roots = _real_roots(y1 * y1 - y2 * y2,
                        2.0 * (x1 * y1 - x2 * y2),
                        x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2)
    return ShearRootSet(roots=_dedup(roots))
