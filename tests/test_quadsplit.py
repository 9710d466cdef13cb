"""Fair splitting, the Newton solver, and triangle reconstruction."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fairtile.errors import (
    DegenerateTriangle,
    EdgeOutOfRange,
    NoConvergence,
    NonConvexOutput,
    OutOfBasin,
    SingularDenominator,
    SingularJacobian,
    TileFailed,
)
from fairtile.geometry import (
    Point,
    Quadrangle,
    Triangle,
    area,
    edge_lengths,
    interior_angles,
    is_convex,
    perimeter,
    scale_uniform,
)
from fairtile.quadsplit import (
    FAIR,
    P0,
    FairSplitParams,
    apex,
    fair_split,
    fair_split_jacobian_det,
    newton3,
    quad_vertices,
    quadify_plane,
    reconstruct_triangle,
    reconstruction_jacobian_det,
    solve_fair_split,
    xi_eta,
)

SQRT3 = math.sqrt(3.0)


def exact_xi_eta(al: Fraction, be: Fraction, ga: Fraction):
    d = 3 * (1 - al - be - ga + al * be + al * ga + be * ga)
    xi = (1 - 2 * al - ga + 3 * al * ga) / d
    eta = (1 - be - 2 * ga + 3 * be * ga) / d
    return xi, eta


def test_apex():
    p = apex(1, 1, 1)
    assert p.x == pytest.approx(0.5, abs=1e-15)
    assert p.y == pytest.approx(SQRT3 / 2, abs=1e-15)
    # exact check: radicand of (4,3,5) is 576, so the apex is (0, 3)
    assert Fraction(2 * 16 * 9 + 2 * 16 * 25 + 2 * 9 * 25 - 256 - 81 - 625) == 576
    p = apex(4, 3, 5)
    assert p.x == pytest.approx(0.0, abs=1e-14)
    assert p.y == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(DegenerateTriangle):
        apex(1, 1, 2.1)
    with pytest.raises(DegenerateTriangle):
        apex(1, -1, 1)


def test_xi_eta_symmetric_and_exact():
    for t in (0.3, FAIR.alpha0, 0.55):
        xi, eta = xi_eta(t, t, t)
        assert xi == pytest.approx(1 / 3, abs=1e-14)
        assert eta == pytest.approx(1 / 3, abs=1e-14)
    want = exact_xi_eta(Fraction(4, 10), Fraction(42, 100), Fraction(44, 100))
    assert want == (Fraction(5, 14), Fraction(53, 168))
    xi, eta = xi_eta(0.4, 0.42, 0.44)
    assert xi == pytest.approx(float(want[0]), abs=1e-13)
    assert eta == pytest.approx(float(want[1]), abs=1e-13)
    with pytest.raises(SingularDenominator):
        xi_eta(1.0, 1.0, 1e-11)


def test_equal_area_weights_are_affine_invariant():
    rng = random.Random(77)
    for _ in range(1000):
        al, be, ga = (FAIR.alpha0 + rng.uniform(-0.05, 0.05) for _ in range(3))
        a, b, c = (rng.uniform(0.8, 1.2) for _ in range(3))
        try:
            top = apex(a, b, c)
        except DegenerateTriangle:
            continue
        xi, eta = xi_eta(al, be, ga)
        params = FairSplitParams(al, be, ga, xi, eta)
        try:
            quads = quad_vertices(a, b, c, params)
        except NonConvexOutput:
            continue
        areas = [area(q) for q in quads]
        tri_area = a * top.y / 2
        assert max(areas) - min(areas) <= 1e-10
        assert sum(areas) == pytest.approx(tri_area, abs=1e-10)


def test_symmetric_split_of_unit_equilateral():
    params = solve_fair_split(1, 1, 1)
    assert params.iterations == 0
    for v in (params.alpha, params.beta, params.gamma):
        assert v == pytest.approx(FAIR.alpha0, abs=1e-14)
    assert params.xi == pytest.approx(1 / 3, abs=1e-14)
    quads = quad_vertices(1, 1, 1, params)
    want_angles = sorted([math.pi / 3, 7 * math.pi / 12, 2 * math.pi / 3, 5 * math.pi / 12])
    for q in quads:
        assert perimeter(q) == pytest.approx(P0, abs=1e-12)
        assert area(q) == pytest.approx(SQRT3 / 4 / 3, abs=1e-12)
        got = sorted(interior_angles(q))
        for g, w in zip(got, want_angles):
            assert g == pytest.approx(w, abs=1e-12)


def test_shared_interior_vertex_is_bit_identical():
    params = solve_fair_split(1.004, 0.998, 0.995)
    q1, q2, q3 = quad_vertices(1.004, 0.998, 0.995, params)
    assert q1.vertices[2] == q2.vertices[3] == q3.vertices[0]


def test_perturbed_split_residuals():
    params = solve_fair_split(1.01, 1.00, 0.99)
    quads = quad_vertices(1.01, 1.00, 0.99, params)
    top = apex(1.01, 1.00, 0.99)
    tri_area = 1.01 * top.y / 2
    for q in quads:
        assert perimeter(q) == pytest.approx(P0, abs=1e-10)
        assert area(q) == pytest.approx(tri_area / 3, abs=1e-10)
        assert is_convex(q, 1e-12)


def test_far_from_equilateral_fails_cleanly():
    with pytest.raises((NoConvergence, NonConvexOutput)):
        solve_fair_split(1.5, 1.0, 1.0)


def test_newton3_basics():
    mat = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 1.0]])
    rhs = np.array([1.0, -2.0, 0.5])

    x_fd, _ = newton3(lambda u: mat @ u - rhs, (0.0, 0.0, 0.0))
    assert np.max(np.abs(mat @ x_fd - rhs)) <= 1e-12

    x, iters = newton3(lambda u: mat @ (u - x_fd), x_fd)
    assert iters == 0

    def flat(u):
        return np.array([(u[0] - u[1]) ** 2, 0.0, 0.0])

    with pytest.raises(SingularJacobian):
        newton3(flat, (1.0, 0.0, 0.0))


def test_shared_perimeter_constant_value():
    assert P0 == pytest.approx(1.597716981445369, abs=1e-12)
    assert FAIR.rho0 == pytest.approx(2.366025403784439, abs=1e-12)
    assert FAIR.sigma0 == pytest.approx(math.sqrt(3.0), abs=0)
    assert FAIR.tau0 == pytest.approx(0.42264973081037427, abs=1e-15)


def test_jacobian_anchor_constants():
    want_split = 2 * math.sqrt(2) + math.sqrt(3) - 2 * math.sqrt(6)
    want_recon = math.sqrt(6) / 48 - math.sqrt(2) / 24
    assert fair_split_jacobian_det() == pytest.approx(want_split, abs=1e-6)
    assert reconstruction_jacobian_det() == pytest.approx(want_recon, abs=1e-6)
    # step-size robustness of the central differences
    assert fair_split_jacobian_det(1e-5) == pytest.approx(fair_split_jacobian_det(1e-7), abs=1e-5)
    assert reconstruction_jacobian_det(1e-5) == pytest.approx(
        reconstruction_jacobian_det(1e-7), abs=1e-5)


def test_fair_split_requires_near_unit_edges():
    with pytest.raises(EdgeOutOfRange):
        fair_split(Triangle(Point(0, 0), Point(2, 0), Point(1, 1)))


def test_fair_split_of_equilateral_gives_congruent_quads():
    from fairtile.congruence import signature_distance

    c, s = math.cos(0.7), math.sin(0.7)
    pts = [(0, 0), (1, 0), (0.5, SQRT3 / 2)]
    placed = [Point(c * x - s * y - 4.0, s * x + c * y + 11.0) for x, y in pts]
    quads = fair_split(Triangle(*placed))
    assert all(signature_distance(p, q) <= 1e-9 for p, q in itertools.combinations(quads, 2))


def test_fair_split_equivariance_under_isometry():
    theta = 1.234
    c, s = math.cos(theta), math.sin(theta)

    def iso(v: Point) -> Point:
        x, y = v.x, -v.y
        return Point(c * x - s * y + 0.75, s * x + c * y - 2.0)

    t = Triangle(Point(0, 0), Point(1.004, 0), apex(1.004, 0.993, 1.008))
    g_t = Triangle(*(iso(v) for v in reversed(t.vertices)))
    for corner in "ABC":
        ours = next(q for q in fair_split(t) if q.corner == corner)
        theirs = next(q for q in fair_split(g_t) if q.corner == corner)
        want = sorted((iso(v).x, iso(v).y) for v in ours.vertices)
        got = sorted(v.xy for v in theirs.vertices)
        for (wx, wy), (gx, gy) in zip(want, got):
            assert gx == pytest.approx(wx, abs=1e-10)
            assert gy == pytest.approx(wy, abs=1e-10)


def test_reconstruction_of_symmetric_quad():
    a0, x0, y0, z0, w0 = FAIR.quad0
    q = Quadrangle((Point(0, 0), Point(a0, 0), Point(z0, w0), Point(x0, y0)))
    tri, triple = reconstruct_triangle(q)
    assert triple.rho == pytest.approx(FAIR.rho0, abs=1e-10)
    assert triple.sigma == pytest.approx(FAIR.sigma0, abs=1e-10)
    assert triple.tau == pytest.approx(FAIR.tau0, abs=1e-10)
    for L in edge_lengths(tri):
        assert L == pytest.approx(1.0, abs=1e-10)


def test_reconstruction_round_trip():
    rng = random.Random(13)
    done = 0
    while done < 120:
        a, b, c = (rng.uniform(0.99, 1.01) for _ in range(3))
        try:
            t = Triangle(Point(0, 0), Point(a, 0), apex(a, b, c))
        except DegenerateTriangle:
            continue
        want = sorted(edge_lengths(t))
        for q in fair_split(t):
            tri, _ = reconstruct_triangle(q)
            got = sorted(edge_lengths(tri))
            assert max(abs(u - v) for u, v in zip(want, got)) <= 1e-8
        done += 1


def test_reconstruction_accepts_mirrored_quads():
    t = Triangle(Point(0, 0), Point(1.006, 0), apex(1.006, 0.997, 1.001))
    want = sorted(edge_lengths(t))
    for q in fair_split(t):
        flipped = Quadrangle(tuple(Point(v.x, -v.y) for v in reversed(q.vertices)))
        tri, _ = reconstruct_triangle(flipped)
        got = sorted(edge_lengths(tri))
        assert max(abs(u - v) for u, v in zip(want, got)) <= 1e-8


def test_reconstruction_rejects_far_shapes():
    square = Quadrangle((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
    with pytest.raises(OutOfBasin):
        reconstruct_triangle(square)


def test_quadify_plane():
    from fairtile import assembly, pipeline

    assert quadify_plane([]) == []

    rng = random.Random(4)
    y0, base = pipeline.sample_certified_y0(rng, 2)
    scaled = assembly.scale_to_equilateral(base)
    shears = assembly.select_shears(scaled, 1, 0.01, 2, rng)
    plane = assembly.stack_plane(scaled, shears, 1, 2)
    tiles = plane.tiles()
    assert len(tiles) == 18
    quads = quadify_plane(tiles)
    assert len(quads) == 54
    tri_area = SQRT3 * 0.25  # after the global half-scale
    for q in quads:
        assert area(q) == pytest.approx(tri_area / 3, abs=1e-9)
        assert perimeter(q) == pytest.approx(P0, abs=1e-9)
        assert q.id is not None and q.corner in "ABC"


def test_quadify_plane_names_the_failing_tile():
    from fairtile.assembly import periodic_triangle
    from fairtile.strip import tile_ids

    tiles = [periodic_triangle(tid) for tid in tile_ids(1)]
    tiles[2] = scale_uniform(tiles[2], 3.0)
    with pytest.raises(TileFailed) as info:
        quadify_plane(tiles)
    assert info.value.tile_id == tiles[2].id
    assert isinstance(info.value.__cause__, EdgeOutOfRange)
