"""Reference implementations the tests compare the package against: the
per-pair congruence distances that :func:`fairtile.congruence.aligned_sweep`
replaced, and the elementary plane maps that :class:`StripTransform`
composes into one placement."""

import math

import numpy as np

from fairtile.congruence import signature_variants
from fairtile.geometry import Point, edge_vectors, with_vertices


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
