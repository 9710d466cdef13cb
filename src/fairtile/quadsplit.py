"""Fair subdivision of near-equilateral triangles into three convex
quadrangles of equal area and one shared perimeter, and the inverse problem
of recovering the triangle from any single quadrangle.

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
is the exact solution for the unit equilateral triangle.  Both this system
and the reconstruction system below are hand-derived from the figure
geometry; their Jacobian determinants at the symmetric point are pinned to
the closed-form constants 2*sqrt(2)+sqrt(3)-2*sqrt(6) and
sqrt(6)/48-sqrt(2)/24 as derivation-error anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePolygon,
    DegenerateTriangle,
    EdgeOutOfRange,
    FairtileError,
    InvalidParameter,
    NoConvergence,
    NonConvexOutput,
    OutOfBasin,
    SingularDenominator,
    SingularJacobian,
    TileFailed,
)
from .geometry import (
    Point,
    Quadrangle,
    Triangle,
    interior_angles,
    is_convex,
    scale_uniform,
)

__all__ = [
    "P0",
    "DELTA_Q",
    "QUADIFY_SCALE",
    "FairConstants",
    "FAIR",
    "FairSplitParams",
    "ReconstructionTriple",
    "apex",
    "xi_eta",
    "quad_vertices",
    "solve_fair_split",
    "fair_split",
    "reconstruct_triangle",
    "newton3",
    "fair_split_jacobian_det",
    "reconstruction_jacobian_det",
    "quadify_plane",
]

P0 = 1.0 + math.sqrt(2.0) - math.sqrt(6.0) / 3.0

# operational edge-length window for the perturbative solver
DELTA_Q = 0.02

# one global similarity takes the stacked tiling (edges ~ 2) into the
# near-unit regime of the solver; a common factor preserves equal
# perimeters across the whole plane
QUADIFY_SCALE = 0.5

# reconstruction rejects posed quadrangles further than this per coordinate
# from the symmetric shape
_BASIN_RADIUS = 0.1

_ANGLE_TIE_TOL = 1e-9

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
_FD_STEP = 1e-7
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
    rho0: float
    sigma0: float
    tau0: float
    quad0: tuple[float, float, float, float, float]  # (a^, x^, y^, z^, w^)


_T0 = 1.0 - math.sqrt(3.0) / 3.0

FAIR = FairConstants(
    p0=P0,
    alpha0=_T0,
    beta0=_T0,
    gamma0=_T0,
    xi0=1.0 / 3.0,
    eta0=1.0 / 3.0,
    rho0=(3.0 + math.sqrt(3.0)) / 2.0,
    sigma0=math.sqrt(3.0),
    tau0=_T0,
    quad0=(_T0, math.sqrt(3.0) / 6.0, 0.5, 0.5, math.sqrt(3.0) / 6.0),
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


@dataclass(frozen=True)
class ReconstructionTriple:
    """Scale parameters recovering a triangle from one of its split quads."""

    rho: float
    sigma: float
    tau: float
    iterations: int = 0


def apex(a: float, b: float, c: float) -> Point:
    """Apex of the triangle with base (0,0)-(a,0), left side b, right side c.

    Raises :class:`DegenerateTriangle` when the side lengths violate the
    strict triangle inequalities (vanishing or negative radicand).
    """
    if min(a, b, c) <= 0.0:
        raise DegenerateTriangle(f"side lengths must be positive, got {(a, b, c)}")
    rad = (2.0 * a * a * b * b + 2.0 * a * a * c * c + 2.0 * b * b * c * c
           - a ** 4 - b ** 4 - c ** 4)
    if rad <= 1e-14:
        raise DegenerateTriangle(f"sides {(a, b, c)} violate the triangle inequalities")
    return Point((a * a + b * b - c * c) / (2.0 * a), math.sqrt(rad) / (2.0 * a))


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


def _cut_points(a: float, x: float, y: float, p: FairSplitParams):
    on_ab = (p.alpha * a, 0.0)
    on_ca = ((1.0 - p.beta) * x, (1.0 - p.beta) * y)
    on_bc = ((1.0 - p.gamma) * a + p.gamma * x, p.gamma * y)
    m = (p.xi * a + p.eta * x, p.eta * y)
    return on_ab, on_ca, on_bc, m


def quad_vertices(a: float, b: float, c: float,
                  p: FairSplitParams) -> tuple[Quadrangle, Quadrangle, Quadrangle]:
    """The three corner quadrangles of the posed triangle, counterclockwise.

    All three share the interior vertex M bit-for-bit.  Raises
    :class:`NonConvexOutput` if any of them fails convexity at 1e-12,
    which signals parameters outside the perturbative regime.
    """
    top = apex(a, b, c)
    x, y = top.x, top.y
    on_ab, on_ca, on_bc, m = _cut_points(a, x, y, p)
    pa, pb, pc = Point(0.0, 0.0), Point(a, 0.0), top
    cp, bp, ap_, mp = Point(*on_ab), Point(*on_ca), Point(*on_bc), Point(*m)
    try:
        q1 = Quadrangle((pa, cp, mp, bp), corner="A")
        q2 = Quadrangle((cp, pb, ap_, mp), corner="B")
        q3 = Quadrangle((mp, ap_, pc, bp), corner="C")
    except DegeneratePolygon as e:
        raise NonConvexOutput(f"degenerate quadrangle for sides {(a, b, c)}: {e}") from e
    for q in (q1, q2, q3):
        if not is_convex(q, 1e-12):
            raise NonConvexOutput(f"non-convex quadrangle at corner {q.corner}")
    return q1, q2, q3


def _split_residual(a: float, b: float, c: float):
    """Perimeter residuals of the three quadrangles as a function of
    (alpha, beta, gamma), with the interior point eliminated through
    :func:`xi_eta`."""
    top = apex(a, b, c)
    x, y = top.x, top.y

    def residual(u):
        al, be, ga = float(u[0]), float(u[1]), float(u[2])
        xi, eta = xi_eta(al, be, ga)
        mx, my = xi * a + eta * x, eta * y
        cpx, cpy = al * a, 0.0
        bpx, bpy = (1.0 - be) * x, (1.0 - be) * y
        apx, apy = (1.0 - ga) * a + ga * x, ga * y
        ap = math.hypot(mx - cpx, my - cpy)
        bp = math.hypot(mx - bpx, my - bpy)
        cp = math.hypot(mx - apx, my - apy)
        return np.array([
            al * a + ap + bp + (1.0 - be) * b - P0,
            be * b + bp + cp + (1.0 - ga) * c - P0,
            ga * c + cp + ap + (1.0 - al) * a - P0,
        ])

    return residual


def _fd_jacobian(residual, x: np.ndarray, step: float) -> np.ndarray:
    n = x.size
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        cols.append((np.asarray(residual(x + e), dtype=float)
                     - np.asarray(residual(x - e), dtype=float)) / (2.0 * step))
    return np.column_stack(cols)


def newton3(residual, x0) -> tuple[np.ndarray, int]:
    """Damped Newton iteration for a small dense system.

    The Jacobian comes from central differences.  Steps are halved (at
    most 20 times) whenever the max-norm residual fails to decrease; the
    iteration stops once that residual is at most 1e-12, within 50
    iterations.  Returns the solution and the number of accepted
    iterations; raises :class:`NoConvergence` or :class:`SingularJacobian`.
    """
    x = np.array(x0, dtype=float)
    fx = np.asarray(residual(x), dtype=float)
    res = float(np.max(np.abs(fx)))
    for it in range(_NEWTON_MAX_ITER):
        if res <= _NEWTON_TOL:
            return x, it
        jac = _fd_jacobian(residual, x, _FD_STEP)
        if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > _COND_LIMIT:
            raise SingularJacobian(f"Jacobian condition number exceeds {_COND_LIMIT:.0e}")
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
    if res <= _NEWTON_TOL:
        return x, _NEWTON_MAX_ITER
    raise NoConvergence(_NEWTON_MAX_ITER, res)


def solve_fair_split(a: float, b: float, c: float) -> FairSplitParams:
    """Cut parameters giving equal areas and the common perimeter p0.

    Meant for edge lengths near 1; far outside that window the Newton
    iteration may fail (:class:`NoConvergence`) or land on parameters that
    no longer produce convex quadrangles (:class:`NonConvexOutput`).
    """
    residual = _split_residual(a, b, c)
    u, iterations = newton3(residual, (FAIR.alpha0, FAIR.beta0, FAIR.gamma0))
    try:
        xi, eta = xi_eta(*u)
        params = FairSplitParams(alpha=float(u[0]), beta=float(u[1]), gamma=float(u[2]),
                                 xi=xi, eta=eta, iterations=iterations)
    except InvalidParameter as e:
        raise NonConvexOutput(f"solution left the perturbative regime: {e}") from e
    quad_vertices(a, b, c, params)
    return params


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

    def inverse(p: Point) -> Point:
        yy = m * p.y
        return Point(origin.x + p.x * ex[0] + yy * ey[0],
                     origin.y + p.x * ex[1] + yy * ey[1])

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
    quads = quad_vertices(a, b, c, params)

    _, inverse, mirrored = _canonical_frame(va, vb, r)
    # map the shared point M once so it stays bit-identical across quads
    cache: dict[tuple[float, float], Point] = {}

    def back(pt: Point) -> Point:
        key = pt.xy
        if key not in cache:
            cache[key] = inverse(pt)
        return cache[key]

    out = []
    for quad in quads:
        mapped = [back(v) for v in quad.vertices]
        if mirrored:
            mapped.reverse()
        out.append(Quadrangle(tuple(mapped), id=t.id, corner=quad.corner))
    return tuple(out)


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
        return np.array([area1 - area2, area1 - area3, perim - P0])

    return residual


def _posed_tuple(pts, start: int, mirrored: bool):
    n = len(pts)
    if mirrored:
        seq = [pts[(start - k) % n] for k in range(n)]
    else:
        seq = [pts[(start + k) % n] for k in range(n)]
    forward, _, _ = _canonical_frame(seq[0], seq[1], seq[2])
    posed = [forward(v) for v in seq]
    return (posed[1].x, posed[3].x, posed[3].y, posed[2].x, posed[2].y)


def reconstruct_triangle(q: Quadrangle) -> tuple[Triangle, ReconstructionTriple]:
    """Recover the split triangle's shape from any one of its quadrangles.

    The quadrangle is posed with its strictly smallest interior angle at
    the origin (that angle belongs to the dissected triangle); both
    handednesses are tried, since a reflected copy reconstructs the mirror
    triangle.  Newton then solves for the scale triple from the symmetric
    initial guess.  Far-from-symmetric inputs raise :class:`OutOfBasin`.
    """
    pts = list(q.vertices)
    angles = interior_angles(q)
    order = sorted(range(4), key=lambda k: angles[k])
    if angles[order[1]] - angles[order[0]] <= _ANGLE_TIE_TOL:
        raise OutOfBasin("smallest interior angle is not unique")
    start = order[0]

    chosen = None
    for mirrored in (False, True):
        tup = _posed_tuple(pts, start, mirrored)
        if max(abs(v - v0) for v, v0 in zip(tup, FAIR.quad0)) <= _BASIN_RADIUS:
            chosen = tup
            break
    if chosen is None:
        raise OutOfBasin("posed quadrangle too far from the symmetric shape")

    ah, xh, yh, zh, wh = chosen
    residual = _reconstruction_residual(ah, xh, yh, zh, wh)
    u, iterations = newton3(residual, (FAIR.rho0, FAIR.sigma0, FAIR.tau0))
    rho, sigma, tau = (float(v) for v in u)
    triple = ReconstructionTriple(rho=rho, sigma=sigma, tau=tau, iterations=iterations)
    triangle = Triangle(Point(0.0, 0.0), Point(rho * ah, 0.0), Point(sigma * xh, sigma * yh))
    return triangle, triple


def fair_split_jacobian_det(step: float = 1e-6) -> float:
    """Central-difference Jacobian determinant of the perimeter system in
    (alpha, beta, gamma) at the unit equilateral configuration."""
    residual = _split_residual(1.0, 1.0, 1.0)
    jac = _fd_jacobian(residual, np.array([FAIR.alpha0, FAIR.beta0, FAIR.gamma0]), step)
    return float(np.linalg.det(jac))


def reconstruction_jacobian_det(step: float = 1e-6) -> float:
    """Central-difference Jacobian determinant of the reconstruction system
    in (rho, sigma, tau) at the symmetric quadrangle."""
    residual = _reconstruction_residual(*FAIR.quad0)
    jac = _fd_jacobian(residual, np.array([FAIR.rho0, FAIR.sigma0, FAIR.tau0]), step)
    return float(np.linalg.det(jac))


def quadify_plane(tiles: list[Triangle]) -> list[Quadrangle]:
    """Fair-split every triangle of a window, after one global rescaling.

    The single common factor takes stacked-tiling edges (about 2) to the
    near-unit regime; because it is shared, equal areas and equal
    perimeters hold across the whole output, three quadrangles per input
    triangle.  A package error on one tile is re-raised as
    :class:`TileFailed` carrying that tile's id, with the error as its cause.
    """
    out: list[Quadrangle] = []
    for tri in tiles:
        posed = scale_uniform(tri, QUADIFY_SCALE)
        try:
            quads = fair_split(posed)
        except FairtileError as e:
            raise TileFailed(tri.id, e) from e
        out.extend(quads)
    return out
