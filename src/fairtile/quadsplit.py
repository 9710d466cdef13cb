"""Fair subdivision of near-equilateral triangles into three convex
quadrangles of equal area and one shared perimeter.

The dissection places one cut point on each edge and joins all three to an
interior point M.  For a triangle posed as (0,0), (a,0), apex(a,b,c) the
cut points are

    on the base:      alpha * (a, 0)
    on the left edge: (1 - beta) * apex
    on the right edge:(1 - gamma) * (a, 0) + gamma * apex

and M = xi*(a,0) + eta*apex.  Closed forms for (xi, eta) in terms of
(alpha, beta, gamma) make the three areas equal for every triangle at once
(the equal-area condition is affine-invariant), which leaves a 3x3
nonlinear system: all three quadrangle perimeters equal the constant

    p0 = 1 + sqrt(2) - sqrt(6)/3.

That system is solved by a damped Newton iteration from the symmetric
configuration alpha = beta = gamma = 1 - sqrt(3)/3, xi = eta = 1/3, which
is the exact solution for the unit equilateral triangle.  Its Jacobian is
analytic (the chain rule through xi_eta and the three distances to M, in
the same pass as the residual), and each step is adj(J) f / det J.  Both
are hand-derived from the figure geometry; the tests check the Jacobian
against central differences and pin its determinant at the symmetric
point to the closed form 2*sqrt(2)+sqrt(3)-2*sqrt(6) to 1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegeneratePolygon,
    DegenerateTriangle,
    EdgeOutOfRange,
    FairtileError,
    InvalidParameter,
    NoConvergence,
    NonConvexOutput,
    SingularDenominator,
    SingularJacobian,
    TileFailed,
)
from .geometry import CORNERS, Tiles, _segments_cross, signed_area

__all__ = [
    "P0",
    "DELTA_Q",
    "QUADIFY_SCALE",
    "FairConstants",
    "FAIR",
    "FairSplitParams",
    "apex",
    "xi_eta",
    "solve_fair_split",
    "fair_split",
    "newton3",
    "quadify_plane",
]

P0 = 1.0 + math.sqrt(2.0) - math.sqrt(6.0) / 3.0

# edge-length window of the solver, (1 - DELTA_Q, _EDGE_TOP), measured with the analytic
# Jacobian: s*(1, 1, 1) converges for s from 0.98 to 1.012911 (1e-6 grid) but not on to
# 1.02; 48,000 random and 12,000 near-equilateral triangles with edges below 1.01291 do;
# of 20,000 with edges in (0.98, 1.02), the 499 that fail all have one above 1.0139
DELTA_Q = 0.02
_EDGE_TOP = 1.012

# one global similarity takes the stacked tiling (edges ~ 2) into the
# near-unit regime of the solver; a common factor preserves equal
# perimeters across the whole plane
QUADIFY_SCALE = 0.5

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class FairConstants:
    """Exact parameter values of the split of the unit equilateral triangle."""

    p0: float
    alpha0: float
    beta0: float
    gamma0: float
    xi0: float
    eta0: float


_T0 = 1.0 - math.sqrt(3.0) / 3.0

FAIR = FairConstants(
    p0=P0,
    alpha0=_T0,
    beta0=_T0,
    gamma0=_T0,
    xi0=1.0 / 3.0,
    eta0=1.0 / 3.0,
)


@dataclass(frozen=True)
class FairSplitParams:
    """Solved cut parameters of one triangle's fair split."""

    alpha: float
    beta: float
    gamma: float
    xi: float
    eta: float
    iterations: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise InvalidParameter(f"{name}={v!r} outside (0, 1)")
        if not (self.xi > 0.0 and self.eta > 0.0 and self.xi + self.eta < 1.0):
            raise InvalidParameter(
                f"interior point weights xi={self.xi!r}, eta={self.eta!r} out of range"
            )


def apex(a: float, b: float, c: float) -> tuple[float, float]:
    """Apex (x, y) of the triangle with base (0,0)-(a,0), left side b, right
    side c.

    Raises :class:`DegenerateTriangle` when the side lengths violate the
    strict triangle inequalities (vanishing or negative radicand).
    """
    if min(a, b, c) <= 0.0:
        raise DegenerateTriangle(f"side lengths must be positive, got {(a, b, c)}")
    rad = (2.0 * a * a * b * b + 2.0 * a * a * c * c + 2.0 * b * b * c * c
           - a ** 4 - b ** 4 - c ** 4)
    if rad <= 1e-14:
        raise DegenerateTriangle(f"sides {(a, b, c)} violate the triangle inequalities")
    x, y = (a * a + b * b - c * c) / (2.0 * a), math.sqrt(rad) / (2.0 * a)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidParameter(f"non-finite coordinates ({x}, {y})")
    return x, y


def xi_eta(alpha: float, beta: float, gamma: float) -> tuple[float, float]:
    """Interior-point weights making the three quadrangle areas equal.

    The equal-area condition is affine-invariant, so these weights work for
    every triangle, not just the equilateral one.
    """
    d = 3.0 * (1.0 - alpha - beta - gamma + alpha * beta + alpha * gamma + beta * gamma)
    if abs(d) <= 1e-10:
        raise SingularDenominator(f"equal-area denominator {d:.3e} too close to zero")
    xi = (1.0 - 2.0 * alpha - gamma + 3.0 * alpha * gamma) / d
    eta = (1.0 - beta - 2.0 * gamma + 3.0 * beta * gamma) / d
    return xi, eta


def _corners(a, x, y, alpha, beta, gamma, xi, eta):
    """Posed vertices of the quadrangles at corners A, B and C, each
    counterclockwise, of the triangle (0,0), (a,0), (x,y) cut by the
    parameters; floats, or arrays of many triangles alike."""
    zero = 0.0 * a
    on_ab = (alpha * a, zero)
    on_ca = ((1.0 - beta) * x, (1.0 - beta) * y)
    on_bc = ((1.0 - gamma) * a + gamma * x, gamma * y)
    m = (xi * a + eta * x, eta * y)
    return (((zero, zero), on_ab, m, on_ca), (on_ab, (a, zero), on_bc, m),
            (m, on_bc, (x, y), on_ca))


def _probe(sides, posed) -> str | None:
    """Why the posed quadrangles of a split of the triangle with these sides,
    each four (x, y) pairs of finite floats, are refused, or None: the rules
    of :class:`~fairtile.geometry.Tiles`, then convexity at 1e-12, first on
    floats and, for a refusal, again on the record to name it."""
    for v in posed:
        e = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(v, v[1:] + v[:1])]
        turn = [s[0] * t[1] - s[1] * t[0] for s, t in zip(e, e[1:] + e[:1])]
        area = signed_area(v)
        if (min(math.hypot(*d) for d in e) <= 1e-14 or abs(area) <= 1e-14 or area < 0
                or _segments_cross(*v) or _segments_cross(*v[1:], v[0])
                or not (min(turn) >= -1e-12 or max(turn) <= 1e-12)):
            break
    else:
        return None
    try:
        convex = Tiles(np.array(posed)).convex(1e-12)
    except DegeneratePolygon as e:
        return f"degenerate quadrangle for sides {sides}: {e}"
    return None if convex.all() else f"non-convex quadrangle at corner {CORNERS[np.argmin(convex)]}"


def _split_residual(a: float, b: float, c: float, top=None):
    """Perimeter residuals of the three quadrangles as a function of
    (alpha, beta, gamma), with the interior point eliminated through
    :func:`xi_eta`, each with a callable giving their analytic Jacobian
    rows from the same pass; ``top`` is the apex (x, y) when the caller
    has it."""
    x, y = top or apex(a, b, c)

    def residual(u):
        al, be, ga = u[0], u[1], u[2]
        xi, eta = xi_eta(al, be, ga)
        mx, my = xi * a + eta * x, eta * y
        # M less the cut points on AB, CA and BC, and their distances
        x1, y1 = mx - al * a, my
        x2, y2 = mx - (1.0 - be) * x, my - (1.0 - be) * y
        x3, y3 = mx - ((1.0 - ga) * a + ga * x), my - ga * y
        ap, bp, cp = math.hypot(x1, y1), math.hypot(x2, y2), math.hypot(x3, y3)

        def jacobian():
            # chain rule: d(xi, eta) from xi = nx / d and eta = ny / d, dM = (p, q), then
            # each distance along its unit vector (u, v) less its cut point's own motion
            d = 3.0 * (1.0 - al - be - ga + al * be + al * ga + be * ga)
            da, db, dg = 3.0 * (be + ga - 1.0), 3.0 * (al + ga - 1.0), 3.0 * (al + be - 1.0)
            ea, eb = -eta * da / d, (3.0 * ga - 1.0 - eta * db) / d
            eg = (3.0 * be - 2.0 - eta * dg) / d
            pa = a * (3.0 * ga - 2.0 - xi * da) / d + x * ea
            pb, pg = -a * xi * db / d + x * eb, a * (3.0 * al - 1.0 - xi * dg) / d + x * eg
            qa, qb, qg = y * ea, y * eb, y * eg
            if not (ap and bp and cp):
                raise SingularJacobian("interior point on a cut point: no derivative there")
            u1, v1, u2, v2, u3, v3 = x1 / ap, y1 / ap, x2 / bp, y2 / bp, x3 / cp, y3 / cp
            g1a, g1b, g1g = u1 * (pa - a) + v1 * qa, u1 * pb + v1 * qb, u1 * pg + v1 * qg
            g2a, g2b, g2g = u2 * pa + v2 * qa, u2 * (pb + x) + v2 * (qb + y), u2 * pg + v2 * qg
            g3a, g3b, g3g = u3 * pa + v3 * qa, u3 * pb + v3 * qb, u3 * (pg + a - x) + v3 * (qg - y)
            return ((a + g1a + g2a, g1b + g2b - b, g1g + g2g),
                    (g2a + g3a, b + g2b + g3b, g2g + g3g - c),
                    (g3a + g1a - a, g3b + g1b, c + g3g + g1g))

        return (al * a + ap + bp + (1.0 - be) * b - P0,
                be * b + bp + cp + (1.0 - ga) * c - P0,
                ga * c + cp + ap + (1.0 - al) * a - P0), jacobian

    return residual


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


def newton3(residual, x0) -> tuple[np.ndarray, int]:
    """Damped Newton iteration for a 3x3 system.

    ``residual(x)`` returns the residual vector at ``x`` and a callable of
    no arguments giving the Jacobian rows there, called only at accepted
    iterates; the step comes from :func:`_step`.  Steps are halved (at most
    20 times) whenever the max-norm residual fails to decrease (a NaN
    component never decreases it); the iteration stops once that residual
    is at most 1e-12, within 50 iterations.  The iterate is a list of
    floats.  Returns the solution and the number of accepted iterations;
    raises :class:`NoConvergence` or :class:`SingularJacobian`.
    """
    x = [float(v) for v in x0]
    fx, jacobian = residual(x)
    res = _max_abs(fx)
    for it in range(_NEWTON_MAX_ITER):
        if res <= _NEWTON_TOL:
            return np.array(x), it
        step = _step(jacobian(), fx)
        lam = 1.0
        for _ in range(20):
            x_new = [v - lam * s for v, s in zip(x, step)]
            try:
                f_new, jac_new = residual(x_new)
            except (SingularDenominator, DegenerateTriangle, ValueError):
                lam *= 0.5
                continue
            r_new = _max_abs(f_new)
            if r_new < res:
                break
            lam *= 0.5
        else:
            raise NoConvergence(it + 1, res)
        x, fx, jacobian, res = x_new, f_new, jac_new, r_new
    if res <= _NEWTON_TOL:
        return np.array(x), _NEWTON_MAX_ITER
    raise NoConvergence(_NEWTON_MAX_ITER, res)


def solve_fair_split(a: float, b: float, c: float) -> FairSplitParams:
    """Cut parameters giving equal areas and the common perimeter p0.

    Newton runs on the analytic Jacobian of the perimeter residuals.  Meant
    for edge lengths near 1; far outside that window the iteration may fail
    (:class:`NoConvergence`) or land on parameters that no longer produce
    convex quadrangles (:class:`NonConvexOutput`).
    """
    top = apex(a, b, c)
    u, iterations = newton3(_split_residual(a, b, c, top), (FAIR.alpha0, FAIR.beta0, FAIR.gamma0))
    al, be, ga = u.tolist()
    try:
        xi, eta = xi_eta(al, be, ga)
        params = FairSplitParams(al, be, ga, xi, eta, iterations)
    except InvalidParameter as e:
        raise NonConvexOutput(f"solution left the perturbative regime: {e}") from e
    refusal = _probe((a, b, c), _corners(a, *top, al, be, ga, xi, eta))
    if refusal is not None:
        raise NonConvexOutput(refusal)
    return params


def fair_split(tiles: Tiles) -> Tiles:
    """Fair split of a record of arbitrarily placed near-unit triangles:
    per triangle, its quadrangles at corners A, B and C, with its id.  A
    package error on one tile is re-raised as :class:`TileFailed` carrying
    that tile's label, with the error as its cause.

    Each triangle is posed (longest edge on the positive x-axis from the
    origin, apex above, second-longest edge at the origin corner; ties
    broken by lexicographic vertex order), solved there by
    :func:`solve_fair_split`, and its quadrangles are mapped back; posing
    and mapping back run on the whole record.
    """
    n = np.arange(len(tiles))
    v, lengths = tiles.xy, tiles.lengths()
    w = np.roll(v, -1, axis=1)  # edge k runs from v[k] to w[k]
    swap = (w[..., 0] < v[..., 0]) | (w[..., 0] == v[..., 0]) & (w[..., 1] < v[..., 1])
    lo, hi = np.where(swap[..., None], w, v), np.where(swap[..., None], v, w)
    i = np.lexsort((hi[..., 1], hi[..., 0], lo[..., 1], lo[..., 0], -lengths))[:, 0]
    j, k = (i + 1) % 3, (i + 2) % 3  # the base joins v[i] and v[j]; the apex is v[k]
    a, bp, bq = lengths[n, i], lengths[n, k], lengths[n, j]
    flip = np.where(np.abs(bp - bq) <= 1e-12, swap[n, i], ~(bp > bq))  # origin at v[j]
    b, c = np.where(flip, bq, bp), np.where(flip, bp, bq)
    ok = ((1.0 - DELTA_Q < lengths) & (lengths < _EDGE_TOP)).all(axis=1).tolist()
    params = []  # one solve_fair_split per triangle: bench/tracing.py counts each as a split
    for t, abc in enumerate(zip(a.tolist(), b.tolist(), c.tolist())):
        try:
            if not ok[t]:
                raise EdgeOutOfRange(f"edge lengths {sorted(lengths[t].tolist())} outside "
                                     f"({1 - DELTA_Q}, {_EDGE_TOP})")
            p = solve_fair_split(*abc)
        except FairtileError as e:
            raise TileFailed(tiles.label(t), e) from e
        params.append((p.alpha, p.beta, p.gamma, p.xi, p.eta))

    # apex on arrays, the fourth powers taken on floats: libm rounds them, numpy may not
    a4, b4, c4 = (np.array([s ** 4 for s in e.tolist()]) for e in (a, b, c))
    rad = 2.0 * a * a * b * b + 2.0 * a * a * c * c + 2.0 * b * b * c * c - a4 - b4 - c4
    x, y = (a * a + b * b - c * c) / (2.0 * a), np.sqrt(rad) / (2.0 * a)
    px, py = np.array(_corners(a, x, y, *np.array(params).reshape(-1, 5).T)).transpose(2, 0, 1, 3)
    # back from the frame with its origin at (ox, oy), x-axis (co, si) and y-axis m * (-si, co)
    (ox, oy), (tx, ty) = np.where(flip, v[n, j].T, v[n, i].T), np.where(flip, v[n, i].T, v[n, j].T)
    co, si = (tx - ox) / a, (ty - oy) / a
    m = np.where((v[n, k, 0] - ox) * -si + (v[n, k, 1] - oy) * co < 0.0, -1.0, 1.0)
    yy = m * py
    out = np.stack([ox + px * co + yy * -si, oy + px * si + yy * co])  # (2, 3, 4, N)
    out = np.where(m < 0.0, out[:, :, ::-1], out).transpose(3, 1, 2, 0)
    ids = [None if e is None else np.repeat(e, 3) for e in (tiles.row, tiles.col, tiles.slot)]
    return Tiles(out.reshape(-1, 4, 2), *ids,
                 np.tile(np.array([0, 1, 2], dtype=np.int8), len(tiles)))


def quadify_plane(tiles: Tiles) -> Tiles:
    """Fair-split every triangle of a window, after one global rescaling.

    The single common factor takes stacked-tiling edges (about 2) to the
    near-unit regime; because it is shared, equal areas and equal
    perimeters hold across the whole output, three quadrangles per input
    triangle.
    """
    return fair_split(replace(tiles, xy=QUADIFY_SCALE * tiles.xy))
