"""Scaling, shearing, shear certification, stacking, windows."""

import random

import pytest

from fairtile import assembly
from fairtile.assembly import (
    SQRT3,
    periodic_triangle,
    plane_triangle,
    row_order,
    scale_to_equilateral,
    select_shears,
    shear_index,
    stack_plane,
    window,
)
from fairtile.congruence import bad_shear_set, congruent, halfturn_translate_congruent
from fairtile.errors import BoundaryMismatch, IndexOutOfRange, InvalidParameter
from fairtile.geometry import Point, TileId, Triangle, area, edge_lengths, shear
from fairtile.strip import strip_tiling, tile_ids, triangle_at
from fairtile.verify import check_closeness, check_vertex_to_vertex


@pytest.fixture(scope="module")
def base():
    return scale_to_equilateral(strip_tiling(0.004, 6))


def test_scale_produces_near_equilateral_tiles(base):
    for tid in tile_ids(6):
        tri = triangle_at(base, tid.col, tid.slot)
        assert area(tri) == pytest.approx(SQRT3, abs=1e-10)
        for L in edge_lengths(tri):
            assert L == pytest.approx(2.0, abs=0.05)
    with pytest.raises(InvalidParameter):
        scale_to_equilateral(base)


def test_scale_preserves_halfturn_relation(base):
    unscaled = strip_tiling(0.004, 6)
    for (i, j), (k, l) in [((1, 1), (-1, 1)), ((1, 2), (2, 2)), ((2, 3), (3, 3))]:
        before = halfturn_translate_congruent(
            triangle_at(unscaled, i, j), triangle_at(unscaled, k, l), 1e-9)
        after = halfturn_translate_congruent(
            triangle_at(base, i, j), triangle_at(base, k, l), 1e-9)
        assert before == after


def test_shear_map():
    t = Triangle(Point(0, 0), Point(2, 0), Point(1, SQRT3))
    assert shear(t, 0.0).vertices == t.vertices
    sheared = shear(t, 0.37)
    assert area(sheared) == pytest.approx(area(t), abs=1e-12)
    assert sheared.vertices[2] == Point(1 + 0.37 * SQRT3, SQRT3)


def test_row_order_and_shear_indices():
    assert row_order(6) == [0, 1, -1, 2, -2, 3]
    assert [shear_index(k) for k in (0, 1, -1, 2, -2, 3)] == [1, 2, 3, 4, 5, 6]


def test_select_shears_budget_and_determinism(base):
    mus = select_shears(base, count=16, epsilon=0.1, window_cols=3, rng=random.Random(7))
    assert len(mus) == 16
    assert sum(2 * SQRT3 * abs(m) for m in mus) < 0.1
    for n, mu in enumerate(mus, start=1):
        assert abs(mu) < (0.5 ** n) * 0.1 / (2 * SQRT3)
    again = select_shears(base, count=16, epsilon=0.1, window_cols=3, rng=random.Random(7))
    assert mus == again


def test_selected_shears_clear_root_sets(base):
    mus = select_shears(base, count=2, epsilon=0.01, window_cols=2, rng=random.Random(3))
    tiles = [triangle_at(base, tid.col, tid.slot) for tid in tile_ids(2)]
    for mu in mus:
        for a in range(len(tiles)):
            for b in range(a + 1, len(tiles)):
                gaps = [abs(mu - r) for r in bad_shear_set(tiles[a], tiles[b]).roots]
                assert min(gaps) >= 1e-9


def test_stack_plane_transforms(base):
    mus = select_shears(base, count=4, epsilon=0.01, window_cols=4, rng=random.Random(11))
    plane = stack_plane(base, mus, 4, 4)
    assert plane.rows == (-1, 0, 1, 2)
    t0, t1 = plane.transforms[0], plane.transforms[1]
    assert not t0.reflected and t1.reflected
    assert t0.translation == (0.0, 0.0)
    # consecutive strips are joined by ((mu_first - mu_second)*sqrt(3), 2*sqrt(3))
    assert t1.translation[0] == pytest.approx((mus[0] - mus[1]) * SQRT3, abs=1e-15)
    assert t1.translation[1] == pytest.approx(2 * SQRT3, abs=1e-15)
    assert plane.transforms[-1].mu == mus[2]
    assert plane.transforms[2].mu == mus[3]
    assert not plane.transforms[2].reflected


def test_stack_plane_validation(base):
    mus = select_shears(base, count=4, epsilon=0.01, window_cols=4, rng=random.Random(11))
    with pytest.raises(InvalidParameter):
        stack_plane(strip_tiling(0.004, 6), mus, 2, 4)  # unscaled base
    with pytest.raises(InvalidParameter):
        stack_plane(base, mus[:2], 4, 4)  # too few shears
    with pytest.raises(InvalidParameter):
        stack_plane(base, mus, 0, 4)  # no rows


def test_boundary_sentinel_detects_corruption(base):
    mus = select_shears(base, count=3, epsilon=0.01, window_cols=3, rng=random.Random(2))
    plane = stack_plane(base, mus, 3, 3)
    broken = plane.transforms[1]
    plane.transforms[1] = assembly.StripTransform(
        mu=broken.mu, reflected=broken.reflected,
        translation=(broken.translation[0] + 1e-6, broken.translation[1]))
    with pytest.raises(BoundaryMismatch):
        assembly._assert_boundaries(plane)


def test_stacked_window_is_vertex_to_vertex(base):
    mus = select_shears(base, count=3, epsilon=0.01, window_cols=5, rng=random.Random(5))
    plane = stack_plane(base, mus, 3, 5)
    report = check_vertex_to_vertex(plane.tiles(), 1e-9)
    assert report.passed


def test_closeness_of_stacked_window(base):
    eps = 0.01
    mus = select_shears(base, count=3, epsilon=eps, window_cols=5, rng=random.Random(5))
    plane = stack_plane(base, mus, 3, 5)
    rep = check_closeness(plane.tiles(), eps)
    assert rep.passed
    assert rep.worst_residual < 2 * eps
    # second coordinates move by at most sqrt(3)*y0; first by strip deviation
    # plus the shear drift, both well under the budget here
    assert rep.worst_residual < SQRT3 * 0.004 + sum(2 * SQRT3 * abs(m) for m in mus)


def test_periodic_reference_self_closeness():
    tiles = [periodic_triangle(tid) for k in (-1, 0, 1) for tid in tile_ids(3, row=k)]
    rep = check_closeness(tiles, 1e-6)
    assert rep.passed
    assert rep.worst_residual == 0.0


def test_periodic_tiles_are_equilateral_area_sqrt3():
    for tid in [TileId(0, 0, 1), TileId(0, 2, 3), TileId(1, -1, 2), TileId(-2, 3, 4)]:
        tri = periodic_triangle(tid)
        assert area(tri) == pytest.approx(SQRT3, abs=1e-12)
        for L in edge_lengths(tri):
            assert L == pytest.approx(2.0, abs=1e-12)
    assert congruent(periodic_triangle(TileId(0, 1, 2)), periodic_triangle(TileId(1, 2, 1)), 1e-9)


def _periodic_oracle(tid):
    """Vertices of the periodic tile in closed form: edge-2 equilateral
    triangles of the scaled undistorted strip, reflected through the
    horizontal axis on odd rows, then lifted by 2*sqrt(3) per row."""
    s = SQRT3
    i, j = tid.col, tid.slot
    if i == 0:
        pts = [(0.0, 0.0), (1.0, s), (-1.0, s)] if j == 1 else [(0.0, 0.0), (-1.0, -s), (1.0, -s)]
    else:
        n = abs(i)
        lo, hi, mid_prev, mid = 2.0 * n - 1.0, 2.0 * n + 1.0, 2.0 * n - 2.0, 2.0 * n
        pts = {1: [(lo, s), (mid, 0.0), (hi, s)],
               2: [(mid_prev, 0.0), (mid, 0.0), (lo, s)],
               3: [(mid_prev, 0.0), (lo, -s), (mid, 0.0)],
               4: [(lo, -s), (hi, -s), (mid, 0.0)]}[j]
        if i < 0:
            pts = [(-x, y) for x, y in reversed(pts)]
    if tid.row % 2 != 0:
        pts = [(x, -y) for x, y in reversed(pts)]
    return [(x, y + 2.0 * tid.row * s) for x, y in pts]


def test_periodic_triangle_matches_the_closed_form_lattice():
    for k in (-1, 0, 1):
        for tid in tile_ids(3, row=k):
            tri = periodic_triangle(tid)
            assert tri.id == tid
            assert [v.xy for v in tri.vertices] == _periodic_oracle(tid)


def test_window_selection(base):
    mus = select_shears(base, count=2, epsilon=0.01, window_cols=4, rng=random.Random(8))
    plane = stack_plane(base, mus, 2, 4)
    assert window(plane, (1.0, 0.0), (0, 1)) == []
    one_row = window(plane, (-4.5, 4.5), (0, 0))
    assert {t.id.row for t in one_row} == {0}
    all_cols = window(plane, (-7.0, 7.0), (0, 1))
    assert [t.id for t in all_cols] == sorted(t.id for t in all_cols)
    with pytest.raises(IndexOutOfRange):
        window(plane, (-1.0, 1.0), (0, 5))
    with pytest.raises(IndexOutOfRange):
        window(plane, (-100.0, 100.0), (0, 1))


def test_window_builds_only_its_rows(base, monkeypatch):
    mus = select_shears(base, count=3, epsilon=0.01, window_cols=4, rng=random.Random(8))
    plane = stack_plane(base, mus, 3, 4)
    calls = []

    def counted(p, tid):
        calls.append(tid)
        return plane_triangle(p, tid)

    monkeypatch.setattr(assembly, "plane_triangle", counted)
    tiles = window(plane, (-7.0, 7.0), (0, 0))
    assert len(calls) == 34 and {tid.row for tid in calls} == {0}
    assert tiles == [t for t in plane.tiles() if t.id.row == 0
                     and max(v.x for v in t.vertices) >= -7.0
                     and min(v.x for v in t.vertices) <= 7.0]


def test_plane_triangle_bounds(base):
    mus = select_shears(base, count=2, epsilon=0.01, window_cols=4, rng=random.Random(8))
    plane = stack_plane(base, mus, 2, 4)
    with pytest.raises(IndexOutOfRange):
        plane_triangle(plane, TileId(3, 1, 1))
    with pytest.raises(IndexOutOfRange):
        plane_triangle(plane, TileId(0, 9, 1))
