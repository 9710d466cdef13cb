"""Fair splitting and the Newton solver, with the reconstruction and the
Jacobian anchors of ``oracles`` checked against them."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtile.errors import (
    DegeneratePolygon,
    DegenerateTriangle,
    EdgeOutOfRange,
    InvalidParameter,
    NoConvergence,
    NonConvexOutput,
    SingularDenominator,
    SingularJacobian,
    TileFailed,
)
from fairtile.geometry import Tiles
from fairtile.quadsplit import (
    _EDGE_TOP,
    DELTA_Q,
    P0,
    FairSplitParams,
    _corners,
    _max_abs,
    _probe,
    _split_residual,
    _step,
    apex,
    fair_split,
    newton3,
    quadify_plane,
    solve_fair_split,
    xi_eta,
)
import oracles
from oracles import (QUAD0, RHO0, SIGMA0, T0, TAU0, OutOfBasin, Point, Quadrangle, area, edge_lengths,
                     fair_split_jacobian_det, ids_of, interior_angles, is_convex, perimeter,
                     quad_vertices, reconstruct_triangle, reconstruction_jacobian_det, tile_ids,
                     with_fd_jacobian)

SQRT3 = math.sqrt(3.0)


def exact_xi_eta(al: Fraction, be: Fraction, ga: Fraction):
    d = 3 * (1 - al - be - ga + al * be + al * ga + be * ga)
    xi = (1 - 2 * al - ga + 3 * al * ga) / d
    eta = (1 - be - 2 * ga + 3 * be * ga) / d
    return xi, eta


def test_apex():
    x, y = apex(1, 1, 1)
    assert x == pytest.approx(0.5, abs=1e-15)
    assert y == pytest.approx(SQRT3 / 2, abs=1e-15)
    # exact check: radicand of (4,3,5) is 576, so the apex is (0, 3)
    assert Fraction(2 * 16 * 9 + 2 * 16 * 25 + 2 * 9 * 25 - 256 - 81 - 625) == 576
    x, y = apex(4, 3, 5)
    assert x == pytest.approx(0.0, abs=1e-14)
    assert y == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(DegenerateTriangle):
        apex(1, 1, 2.1)
    with pytest.raises(DegenerateTriangle):
        apex(1, -1, 1)


def test_xi_eta_symmetric_and_exact():
    for t in (0.3, T0, 0.55):
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
        al, be, ga = (T0 + rng.uniform(-0.05, 0.05) for _ in range(3))
        a, b, c = (rng.uniform(0.8, 1.2) for _ in range(3))
        try:
            top = apex(a, b, c)
        except DegenerateTriangle:
            continue
        xi, eta = xi_eta(al, be, ga)
        params = FairSplitParams(al, be, ga, xi, eta, 0)
        try:
            quads = quad_vertices(a, b, c, params)
        except NonConvexOutput:
            continue
        areas = [area(q) for q in quads]
        tri_area = a * top[1] / 2
        assert max(areas) - min(areas) <= 1e-10
        assert sum(areas) == pytest.approx(tri_area, abs=1e-10)


def test_symmetric_split_of_unit_equilateral():
    params = solve_fair_split(1, 1, 1)
    assert params.iterations == 0
    for v in (params.alpha, params.beta, params.gamma):
        assert v == pytest.approx(T0, abs=1e-14)
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


def test_split_parameters_are_python_floats():
    params = solve_fair_split(1.004, 0.998, 0.995)
    fields = (params.alpha, params.beta, params.gamma, params.xi, params.eta)
    assert all(type(v) is float for v in fields)
    assert [v.hex() for v in fields] == [  # within 5 ulps of the central-difference solve's
        "0x1.afbadb73c0482p-2", "0x1.ae2223913e95ap-2", "0x1.ab633d5c49518p-2",
        "0x1.52bfe34fcf915p-2", "0x1.57a00ba3f2d39p-2"]
    m = _corners(1.004, *apex(1.004, 0.998, 0.995), *fields)[0][2]
    assert type(m[0]) is float and type(m[1]) is float


def test_perturbed_split_residuals():
    params = solve_fair_split(1.01, 1.00, 0.99)
    quads = quad_vertices(1.01, 1.00, 0.99, params)
    tri_area = 1.01 * apex(1.01, 1.00, 0.99)[1] / 2
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

    x_fd, _ = newton3(with_fd_jacobian(lambda u: mat @ u - rhs), (0.0, 0.0, 0.0))
    assert np.max(np.abs(mat @ x_fd - rhs)) <= 1e-12
    x, _ = newton3(lambda u: (mat @ u - rhs, lambda: mat.tolist()), (0.0, 0.0, 0.0))
    assert np.max(np.abs(x - x_fd)) <= 1e-12

    x, iters = newton3(with_fd_jacobian(lambda u: mat @ (u - x_fd)), x_fd)
    assert iters == 0

    def flat(u):
        return np.array([(u[0] - u[1]) ** 2, 0.0, 0.0])

    with pytest.raises(SingularJacobian):
        newton3(with_fd_jacobian(flat), (1.0, 0.0, 0.0))


def test_shared_perimeter_constant_value():
    assert P0 == pytest.approx(1.597716981445369, abs=1e-12)
    assert RHO0 == pytest.approx(2.366025403784439, abs=1e-12)
    assert SIGMA0 == pytest.approx(math.sqrt(3.0), abs=0)
    assert TAU0 == pytest.approx(0.42264973081037427, abs=1e-15)


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
    with pytest.raises(TileFailed) as info:
        fair_split(Tiles(np.array([[(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)]])))
    assert isinstance(info.value.__cause__, EdgeOutOfRange)


def _equilateral(s):
    return Tiles(np.array([[(0.0, 0.0), (s, 0.0), (s / 2, s * SQRT3 / 2)]]))


def test_fair_split_edge_window_is_the_solver_basin():
    # the solver leaves its basin inside the old (0.98, 1.02) window
    for s in (1.013, 1.015, 1.019):
        with pytest.raises(NoConvergence):
            solve_fair_split(s, s, s)
    for s in (0.9801, 1.0119):  # just inside either edge
        assert len(fair_split(_equilateral(s))) == 3
    for s in (0.9799, 1.0121, 1.013, 1.015, 1.019):  # refused before Newton runs
        with pytest.raises(TileFailed) as info:
            fair_split(_equilateral(s))
        assert isinstance(info.value.__cause__, EdgeOutOfRange)
    rng = random.Random(19)
    tris = []
    while len(tris) < 300:  # every triangle the window admits splits, the upper corner included
        a, b, c = sorted((rng.uniform(0.9801, 1.0119) for _ in range(3)), reverse=True)
        if len(tris) % 3 == 0:
            a, b, c = 1.0119, 1.0119 - rng.uniform(0, 1e-3), 1.0119 - rng.uniform(0, 1e-3)
        tris.append([(0.0, 0.0), (a, 0.0), apex(a, b, c)])
    assert len(fair_split(Tiles(np.array(tris)))) == 3 * len(tris)


def test_fair_split_of_equilateral_gives_congruent_quads():
    from fairtile.congruence import aligned_sweep, signature_key, signature_variants

    c, s = math.cos(0.7), math.sin(0.7)
    pts = [(0, 0), (1, 0), (0.5, SQRT3 / 2)]
    placed = [(c * x - s * y - 4.0, s * x + c * y + 11.0) for x, y in pts]
    quads = fair_split(Tiles(np.array([placed])))
    _, collisions = aligned_sweep(quads, signature_variants, signature_key, 1e-9)
    assert collisions == [(0, 1), (0, 2), (1, 2)]


def test_fair_split_equivariance_under_isometry():
    theta = 1.234
    c, s = math.cos(theta), math.sin(theta)

    def iso(v):
        x, y = v[0], -v[1]
        return (c * x - s * y + 0.75, s * x + c * y - 2.0)

    t = [(0.0, 0.0), (1.004, 0.0), apex(1.004, 0.993, 1.008)]
    g_t = [iso(v) for v in reversed(t)]
    ours, theirs = (fair_split(Tiles(np.array([u]))).xy.tolist() for u in (t, g_t))
    for k in range(3):  # the quadrangles at corners A, B and C
        want = sorted(iso(v) for v in ours[k])
        got = sorted(map(tuple, theirs[k]))
        for (wx, wy), (gx, gy) in zip(want, got):
            assert gx == pytest.approx(wx, abs=1e-10)
            assert gy == pytest.approx(wy, abs=1e-10)


def test_reconstruction_of_symmetric_quad():
    a0, x0, y0, z0, w0 = QUAD0
    tri, triple = reconstruct_triangle([(0.0, 0.0), (a0, 0.0), (z0, w0), (x0, y0)])
    assert triple.rho == pytest.approx(RHO0, abs=1e-10)
    assert triple.sigma == pytest.approx(SIGMA0, abs=1e-10)
    assert triple.tau == pytest.approx(TAU0, abs=1e-10)
    for L in edge_lengths(tri):
        assert L == pytest.approx(1.0, abs=1e-10)


def test_reconstruction_round_trip():
    rng = random.Random(13)
    done = 0
    while done < 120:
        a, b, c = (rng.uniform(0.99, 1.01) for _ in range(3))
        try:
            t = [(0.0, 0.0), (a, 0.0), apex(a, b, c)]
        except DegenerateTriangle:
            continue
        want = sorted(edge_lengths(t))
        for q in fair_split(Tiles(np.array([t]))).xy:
            tri, _ = reconstruct_triangle(q)
            got = sorted(edge_lengths(tri))
            assert max(abs(u - v) for u, v in zip(want, got)) <= 1e-8
        done += 1


def test_reconstruction_accepts_mirrored_quads():
    t = [(0.0, 0.0), (1.006, 0.0), apex(1.006, 0.997, 1.001)]
    want = sorted(edge_lengths(t))
    for q in fair_split(Tiles(np.array([t]))).xy:
        tri, _ = reconstruct_triangle([(x, -y) for x, y in q[::-1]])
        got = sorted(edge_lengths(tri))
        assert max(abs(u - v) for u, v in zip(want, got)) <= 1e-8


def test_reconstruction_rejects_far_shapes():
    with pytest.raises(OutOfBasin):
        reconstruct_triangle([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_quadify_plane():
    from fairtile import assembly, pipeline

    assert len(quadify_plane(Tiles(np.empty((0, 3, 2))))) == 0

    rng = random.Random(4)
    y0, base = pipeline.sample_certified_y0(rng, 2)
    scaled = assembly.scale_to_equilateral(base)
    shears = assembly.select_shears(scaled, 1, 0.01, rng)
    plane = assembly.stack_plane(scaled, shears, 1)
    tiles = plane.tiles()
    assert len(tiles) == 18
    quads = quadify_plane(tiles)
    assert len(quads) == 54 and quads.xy.shape == (54, 4, 2)
    tri_area = SQRT3 * 0.25  # after the global half-scale
    for q in quads:
        assert area(q) == pytest.approx(tri_area / 3, abs=1e-9)
        assert perimeter(q) == pytest.approx(P0, abs=1e-9)
        assert q.label.count("/") == 3 and q.label[-1] in "ABC"


def test_quadify_plane_names_the_failing_tile():
    from fairtile.assembly import periodic_triangles

    tiles = periodic_triangles(*ids_of(tile_ids(1)))
    xy = tiles.xy.copy()
    xy[2] *= 3.0
    with pytest.raises(TileFailed) as info:
        quadify_plane(replace(tiles, xy=xy))
    assert info.value.label == tiles.label(2) == "0/-1/3"
    assert isinstance(info.value.__cause__, EdgeOutOfRange)


# --- the analytic-Jacobian Newton iteration against the FD numpy oracle ------------

@pytest.fixture(scope="module")
def gate_plane():
    from fairtile import pipeline

    return pipeline.build_plane(0.005, 42, 6, 20).doc.tiles


def _posed_sides(tiles, monkeypatch):
    """The (a, b, c) of every triangle ``quadify_plane`` poses and solves."""
    import fairtile.quadsplit as quadsplit

    sides = []
    monkeypatch.setattr(quadsplit, "solve_fair_split",
                        lambda *abc: sides.append(abc) or solve_fair_split(*abc))
    quadify_plane(tiles)
    monkeypatch.undo()
    return sides


def _split_outcome(monkeypatch, abc, newton):
    """The parameters and iteration count of ``solve_fair_split(*abc)`` with
    ``newton`` as its Newton iteration, or the type of its error."""
    import fairtile.quadsplit as quadsplit

    monkeypatch.setattr(quadsplit, "newton3", newton)
    try:
        p = solve_fair_split(*abc)
        return (p.alpha, p.beta, p.gamma, p.xi, p.eta), p.iterations
    except (NoConvergence, NonConvexOutput, SingularJacobian) as e:
        return type(e), None
    finally:
        monkeypatch.undo()


def test_solve_fair_split_agrees_with_the_fd_newton_oracle(gate_plane, monkeypatch):
    """The analytic Jacobian and adjugate step against the central-difference
    Jacobian and LAPACK step of ``oracles.newton3``: the same outcome, the
    same iteration count inside the edge window, and parameters within a
    measured bound (worst seen: 1.3e-15 on the gate triangles; 2.9e-12 on
    the random ones, at the one triangle past the window's top edge that
    took one iteration fewer, and 1.9e-12 over 20,000 more)."""
    fd = lambda r, x0: oracles.newton3(lambda u: r(u)[0], x0)  # noqa: E731
    rng = random.Random(2024)
    drawn = [tuple(rng.uniform(0.985, 1.015) for _ in range(3)) for _ in range(300)]
    gate = _posed_sides(gate_plane, monkeypatch)
    assert len(gate) == 972
    for sides, bound in ((gate, 1e-14), (drawn, 1e-11)):
        for abc in sides:
            (got, iters), (want, want_iters) = (_split_outcome(monkeypatch, abc, n)
                                                for n in (newton3, fd))
            assert type(got) is type(want), abc
            in_window = all(1.0 - DELTA_Q < v < _EDGE_TOP for v in abc)
            assert iters == want_iters or not in_window, abc
            if iters is not None:
                assert max(abs(u - v) for u, v in zip(got, want)) <= bound, abc


def test_quadify_takes_no_lapack_step_on_the_gate_plane(gate_plane, monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    conds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "cond", lambda m: conds.append(m) or cond(m))
    assert len(quadify_plane(gate_plane)) == 3 * 972
    assert conds == []


def _window_points(rng, n):
    """``n`` random (sides, parameters) pairs in the solver's window."""
    points = []
    while len(points) < n:
        abc = tuple(rng.uniform(1.0 - DELTA_Q, _EDGE_TOP) for _ in range(3))
        u = [T0 + rng.uniform(-0.03, 0.03) for _ in range(3)]
        try:
            apex(*abc)
        except DegenerateTriangle:
            continue
        points.append((abc, u))
    return points


def test_analytic_jacobian_is_the_central_differences_limit():
    # at h = 1e-3 and 5e-4 the central-difference error is c * h^2, far above
    # rounding: were the analytic Jacobian off by some delta, the gap would
    # not shrink by 4 as h halves; at h = 1e-5 it is below 1e-8
    gaps = {1e-3: [], 5e-4: [], 1e-5: []}
    for abc, u in _window_points(random.Random(8), 1000):
        system = _split_residual(*abc, apex(*abc))
        jac = np.array(system(u)[1]())
        for h, found in gaps.items():
            found.append(np.abs(jac - oracles.fd_jacobian(lambda v: system(v)[0],
                                                          np.array(u), h)).max())
    assert max(gaps[1e-5]) <= 1e-8
    ratios = np.array(gaps[1e-3]) / np.array(gaps[5e-4])
    assert 3.9 < ratios.min() and ratios.max() < 4.1


def test_analytic_jacobian_refuses_an_interior_point_on_a_cut_point():
    # in the flat triangle (0, 0), (1, 0), (x, 0), M of the symmetric
    # parameters is the cut point alpha * (1, 0): a distance of 0, which has
    # no derivative
    u = [T0, T0, T0]
    xi, eta = xi_eta(*u)
    _, jacobian = _split_residual(1.0, 1.0, 1.0, ((u[0] - xi) / eta, 0.0))(u)
    with pytest.raises(SingularJacobian):
        jacobian()


def _quad_verdict(vertices):
    """None if ``vertices`` make a convex :class:`Quadrangle`, else the
    refusal of the split that posed it at corner A."""
    try:
        q = Quadrangle(tuple(Point(*v) for v in vertices))
    except DegeneratePolygon as e:
        return f"degenerate quadrangle for sides (1.0, 1.0, 1.0): {e}"
    return None if is_convex(q, 1e-12) else "non-convex quadrangle at corner A"


def test_probe_accepts_exactly_what_the_quadrangle_rules_accept():
    rng = random.Random(31)
    verdicts = set()
    for _ in range(4000):  # small grid quadrangles: repeated, collinear, clockwise, crossing
        scale = rng.choice([1.0, 3e-7])  # at 3e-7 every turn lies within the 1e-12 tolerance
        v = tuple((scale * rng.randint(0, 3), scale * rng.randint(0, 3)) for _ in range(4))
        want = _quad_verdict(v)
        assert _probe((1.0, 1.0, 1.0), [v]) == want, v
        verdicts.add(want if want is None or "area" not in want else "area")
    assert len(verdicts) == 6
    for d in (-3e-12, -6e-13, -4e-13, 0.0, 4e-13, 6e-13, 3e-12):  # one turn of -2d
        v = ((0.0, 0.0), (1.0, d), (2.0, 0.0), (1.0, 1.0))
        assert _probe((1.0, 1.0, 1.0), [v]) == _quad_verdict(v)
        assert (_quad_verdict(v) is None) == (d < 5e-13), d


_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
_DART = ((0.0, 0.0), (2.0, 0.0), (0.4, 0.4), (0.0, 2.0))
# a posed quadrangle: on a 4 x 4 grid (repeated, collinear, clockwise or
# crossing vertices are common), or a convex or a non-convex simple one
_POSED = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=4,
                  max_size=4) | st.sampled_from([_SQUARE, _DART])


@given(st.lists(_POSED, min_size=3, max_size=3), st.sampled_from([1.0, 3e-7]),
       st.tuples(*[st.floats(0.98, 1.012)] * 3))
@settings(max_examples=500, deadline=None)
def test_probe_names_the_refusal_the_split_polygons_raise(quads, scale, sides):
    posed = tuple(tuple((scale * x, scale * y) for x, y in q) for q in quads)
    try:
        oracles.split_polygons(sides, posed)
        want = None
    except NonConvexOutput as e:
        want = str(e)
    assert _probe(sides, posed) == want


def test_probe_and_fallback_give_the_object_split_verdict(monkeypatch):
    import fairtile.quadsplit as quadsplit

    monkeypatch.setattr(quadsplit, "DELTA_Q", 0.25)  # admit the drawn edges, 0.8 to 1.2
    monkeypatch.setattr(quadsplit, "_EDGE_TOP", 1.25)
    rng = random.Random(23)
    outcomes = {"accepted": 0, "refused": 0}
    for _ in range(3000):
        a, b, c = sorted((rng.uniform(0.8, 1.2) for _ in range(3)), reverse=True)
        # a triangle fair_split poses as it stands: longest edge from the origin, then the
        # left side; its posed sides are its record's edge lengths
        record = Tiles(np.array([[(0.0, 0.0), (a, 0.0), apex(a, b, c)]]))
        a, c, b = record.lengths()[0].tolist()
        spread = rng.choice([0.02, 0.1, 0.3, 0.6])
        al, be, ga = (T0 + rng.uniform(-spread, spread) for _ in range(3))
        try:
            top = apex(a, b, c)
            params = FairSplitParams(al, be, ga, *xi_eta(al, be, ga), 0)
        except (DegenerateTriangle, SingularDenominator, InvalidParameter):
            continue
        try:
            quad_vertices(a, b, c, params)
            want = None
        except NonConvexOutput as e:
            want = str(e)
        assert _probe((a, b, c), _corners(a, *top, al, be, ga, params.xi, params.eta)) == want
        # the solver, landing on these parameters, returns them unprobed; fair_split
        # accepts the triangle or gives the same refusal as its cause
        monkeypatch.setattr(quadsplit, "newton3", lambda r, x0: (np.array([al, be, ga]), 0))
        assert solve_fair_split(a, b, c) == params
        try:
            assert len(fair_split(record)) == 3 and want is None
        except TileFailed as e:
            assert isinstance(e.__cause__, NonConvexOutput) and str(e.__cause__) == want
        outcomes["accepted" if want is None else "refused"] += 1
    assert min(outcomes.values()) > 300


_SIDES = (1.004, 0.998, 0.995)  # posed as they stand: the record's lengths are these floats
_NON_CONVEX, _DEGENERATE = (0.57, 0.71, 0.78), (1e-15, 0.4, 0.4)  # cut parameters


def _split_refusal(u):
    """The refusal of the split of ``_SIDES`` cut by parameters ``u``."""
    with pytest.raises(NonConvexOutput) as info:
        quad_vertices(*_SIDES, FairSplitParams(*u, *xi_eta(*u), 0))
    return str(info.value)


def _copies(n, scaled=()):
    """n copies of the triangle of ``_SIDES`` with ids "0/t/1", those in
    ``scaled`` by 1.05, out of the edge window."""
    xy = np.repeat(np.array([[(0.0, 0.0), (_SIDES[0], 0.0), apex(*_SIDES)]]), n, axis=0)
    xy[list(scaled)] *= 1.05
    return Tiles(xy, np.zeros(n, dtype=int), np.arange(n), np.ones(n, dtype=int))


def _fair_split_failure(monkeypatch, faults, n=9):
    """The :class:`TileFailed`, with its cause, of ``fair_split`` on
    n copies of one triangle, where triangle t of ``faults`` is out of the
    edge window (None), or its Newton iteration raises (an error) or lands
    on cut parameters (a tuple); the rest land on the symmetric start."""
    import fairtile.quadsplit as quadsplit

    solved = []

    def newton(residual, x0):
        u = faults.get(len(solved), x0)
        solved.append(u)
        if isinstance(u, Exception):
            raise u
        return np.array(u), 0

    monkeypatch.setattr(quadsplit, "newton3", newton)
    with pytest.raises(TileFailed) as info:
        fair_split(_copies(n, [t for t, u in faults.items() if u is None]))
    monkeypatch.undo()
    assert str(info.value).endswith(str(info.value.__cause__))
    return info.value


def test_fair_split_names_the_first_failing_triangle(monkeypatch):
    edges = sorted(_copies(1, [0]).lengths()[0].tolist())
    out_of_range = f"edge lengths {edges} outside (0.98, 1.012)"
    with pytest.raises(InvalidParameter) as info:
        FairSplitParams(0.999, 0.4, 0.4, *xi_eta(0.999, 0.4, 0.4), 0)
    out_of_regime = f"solution left the perturbative regime: {info.value}"
    stuck = NoConvergence(50, 1.0)
    non_convex, degenerate = (f"NonConvexOutput: {_split_refusal(u)}"
                              for u in (_NON_CONVEX, _DEGENERATE))
    cases = [  # (faults, the triangle named, its refusal)
        ({2: _NON_CONVEX, 5: None}, 2, non_convex),
        ({2: None, 5: _NON_CONVEX}, 2, f"EdgeOutOfRange: {out_of_range}"),
        ({3: _NON_CONVEX, 7: _DEGENERATE}, 3, non_convex),
        ({3: _DEGENERATE, 7: _NON_CONVEX}, 3, degenerate),
        ({4: _DEGENERATE, 6: stuck}, 4, degenerate),
        ({4: stuck, 6: _DEGENERATE}, 4, f"NoConvergence: {stuck}"),
        ({1: _NON_CONVEX, 8: (0.999, 0.4, 0.4)}, 1, non_convex),
        ({1: (0.999, 0.4, 0.4), 8: _NON_CONVEX}, 1, f"NonConvexOutput: {out_of_regime}"),
    ]
    for faults, t, want in cases:
        assert str(_fair_split_failure(monkeypatch, faults)) == f"tile 0/{t}/1: {want}", faults
    assert _split_refusal(_NON_CONVEX) == "non-convex quadrangle at corner B"
    assert "zero-length edge" in _split_refusal(_DEGENERATE)
    # the degenerate quadrangle breaks a Tiles rule, the non-convex one none: the whole
    # record of both splits would name the later triangle's
    posed = [_corners(_SIDES[0], *apex(*_SIDES), *u, *xi_eta(*u)) for u in (_NON_CONVEX,
                                                                          _DEGENERATE)]
    Tiles(np.array(posed[0]))
    with pytest.raises(DegeneratePolygon):
        Tiles(np.array(posed).reshape(-1, 4, 2))


def test_fd_jacobian_steps_through_the_oracle_points():
    points = []

    def residual(u):
        points.append([float(v).hex() for v in u])
        return (u[0] * u[1], u[2] - u[0], math.copysign(1.0, u[1]) + u[2])

    for x in ([-0.0, 0.0, 0.4], [0.0, -0.0, -0.0], [0.25, -2.5, 1e-300]):
        points.clear()
        got = [[float(v).hex() for v in row] for row in oracles._fd_jacobian(residual, x)]
        traced = list(points)
        points.clear()
        want = oracles.fd_jacobian(residual, np.array(x), 1e-7)
        assert traced == points  # raised, -0.0 becomes 0.0; lowered, it stays -0.0
        assert got == [[v.hex() for v in row] for row in want.tolist()]


def _traced_outcome(solver, residual, x0):
    """The points ``solver`` evaluates ``residual`` at, in order, and its
    result or error, all as hex strings."""
    points = []

    def traced(u):
        points.append([float(v).hex() for v in u])
        return residual(u)

    try:
        x, iterations = solver(traced, x0)
    except (NoConvergence, SingularJacobian) as e:
        return points, type(e).__name__, str(e)
    return points, [float(v).hex() for v in x], iterations


@pytest.mark.parametrize("edge", [0.5, 0.9, 0.99])
def test_newton3_treats_a_nan_component_as_no_decrease(edge):
    # past ``edge`` the middle component is NaN; Newton's first full step
    # lands there, where a max that skipped the NaN would see a decrease
    def residual(u):
        return (u[0] - 1.0, math.nan if u[0] > edge else u[1] - 2.0, u[2] + 0.5 * u[0])

    got = _traced_outcome(lambda r, x0: newton3(with_fd_jacobian(r), x0), residual,
                          (0.0, 0.0, 0.0))
    assert got == _traced_outcome(oracles.newton3, residual, (0.0, 0.0, 0.0))
    assert got[1] in ("NoConvergence", "SingularJacobian")


def _with_singular_values(rng, values):
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return (u * values) @ v.T


def test_conditioning_guard_gives_the_svd_verdict(monkeypatch):
    rng = np.random.default_rng(11)
    mats = []
    for _ in range(3000):
        cond = 10.0 ** rng.uniform(9.0, 15.0)
        middle = cond ** -rng.uniform(0.0, 1.0)  # anywhere from 1 down to 1/cond
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        mats.append(scale * _with_singular_values(rng, [1.0, middle, 1.0 / cond]))
    mats += [np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]),
             np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0]),
             np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 0.1, 0.3]])]
    for bad in (math.inf, -math.inf, math.nan):
        for k in range(9):
            m = rng.standard_normal((3, 3))
            m.flat[k] = bad
            mats.append(m)
    mats += [10.0 ** e * rng.standard_normal((3, 3)) for e in (-200, -120, 120, 200)]
    cond, svds = np.linalg.cond, []
    monkeypatch.setattr(np.linalg, "cond", lambda m: svds.append(m) or cond(m))
    guarded = worst = 0
    for m in mats:
        want = not np.all(np.isfinite(m)) or cond(m) > 1e12
        f = rng.standard_normal(3)
        svds.clear()
        try:
            step = np.array(_step([tuple(row) for row in m.tolist()], f.tolist()))
            assert not want, m
            ref = np.linalg.solve(m, f)
            worst = max(worst, np.abs(step - ref).max() / np.abs(ref).max() / cond(m))
        except SingularJacobian:
            assert want, m
        guarded += not svds
    # both routes run: the bound settles some matrices, the SVD the rest;
    # every accepted step is LAPACK's to within cond2 * 1e-15, relatively
    # (worst seen 8.2e-17; without the determinant's own bound, 1.8e-11)
    assert 0 < guarded < len(mats)
    assert worst <= 1e-15, worst


def _step_outcome(step, jac, fx):
    """The step as hex strings, or the message of its SingularJacobian."""
    try:
        return [float(v).hex() for v in step(jac, fx)]
    except SingularJacobian as e:
        return str(e)


def test_step_and_max_norm_are_the_list_built_ones_bit_for_bit():
    rng = np.random.default_rng(29)
    mats = list(rng.standard_normal((2000, 3, 3)))
    for _ in range(300):  # the conditioning test's matrices, scaled from 1e-200 to 1e200
        cond = 10.0 ** rng.uniform(9.0, 15.0)
        m = _with_singular_values(rng, [1.0, cond ** -rng.uniform(0.0, 1.0), 1.0 / cond])
        mats += [10.0 ** e * m for e in range(-200, 201, 25)]
    for bad in (math.inf, -math.inf, math.nan):
        for k in range(9):
            m = rng.standard_normal((3, 3))
            m.flat[k] = bad
            mats.append(m)
    raised = 0
    for m in mats:
        jac, fx = [tuple(row) for row in m.tolist()], rng.standard_normal(3).tolist()
        got = _step_outcome(_step, jac, fx)
        assert got == _step_outcome(oracles._step, jac, fx), m
        raised += isinstance(got, str)
    assert 0 < raised < len(mats) / 2
    residuals = [rng.standard_normal(3).tolist() for _ in range(200)]
    residuals += [[math.nan, 1.0, 2.0], [1.0, math.nan, -3.0], [-1.0, 2.0, math.nan],
                  [math.nan] * 3, [math.inf, math.nan, 0.0], [-math.inf, 1.0, 2.0],
                  [-0.0, 0.0, -0.0], [2.0, -2.0, 1.0], np.array([0.5, math.nan, -7.0]),
                  np.array([0.5, -8.0, 7.0])]
    for f in residuals:
        assert float(_max_abs(f)).hex() == float(oracles._max_abs(f)).hex(), f
