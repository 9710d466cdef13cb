"""Reference implementations the tests compare the package against: the
per-pair congruence distances that :func:`fairtile.congruence.aligned_sweep`
replaced, the per-polygon alignment rows that the batched row builders
replaced, the numpy Newton iteration that :func:`fairtile.quadsplit.newton3`
replaced, and the elementary plane maps that :class:`StripTransform`
composes into one placement."""

import math

import numpy as np

from fairtile.errors import DegenerateTriangle, NoConvergence, SingularDenominator, SingularJacobian
from fairtile.geometry import Point, edge_lengths, edge_vectors, interior_angles, with_vertices


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
