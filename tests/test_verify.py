"""The verification engine: residual sweeps, conformity, incongruence,
contraction suite, closeness, fault injection."""

import itertools
import math
import random

import numpy as np
import pytest

from fairtile import assembly, pipeline
from fairtile.congruence import signature_distance, simeq_distance
from fairtile.errors import InvalidParameter
from fairtile.geometry import (
    Point,
    Quadrangle,
    TileId,
    Triangle,
    perimeter,
    tile_label,
    with_vertices,
)
from fairtile.quadsplit import P0, quadify_plane
from fairtile.strip import (
    DeviationSeries,
    deviations,
    strip_tiling,
    tile_ids,
    triangle_at,
    window_triangles,
)
from fairtile.verify import (
    check_closeness,
    check_contraction,
    check_convex,
    check_equal_area,
    check_equal_perimeter,
    check_halfturn_incongruent,
    check_identity,
    check_pairwise_incongruent,
    check_vertex_to_vertex,
)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def small_plane():
    rng = random.Random(6)
    y0, base = pipeline.sample_certified_y0(rng, 4)
    scaled = assembly.scale_to_equilateral(base)
    shears = assembly.select_shears(scaled, 3, 0.01, 4, rng)
    plane = assembly.stack_plane(scaled, shears, 3, 4)
    return plane.tiles()


@pytest.fixture(scope="module")
def strip_tiles():
    t = strip_tiling(0.007, 5)
    return [triangle_at(t, tid.col, tid.slot) for tid in tile_ids(5)]


def _perturb(tiles, index, delta=1e-3):
    out = list(tiles)
    tri = out[index]
    v = tri.vertices[0]
    out[index] = with_vertices(tri, (Point(v.x + delta, v.y + delta),) + tri.vertices[1:])
    return out


def test_equal_area_pass_and_fault(strip_tiles):
    rep = check_equal_area(strip_tiles, 1.0, 1e-10)
    assert rep.passed and rep.worst_residual <= 1e-10
    bad = check_equal_area(_perturb(strip_tiles, 7), 1.0, 1e-10)
    assert not bad.passed
    assert bad.offenders and bad.worst_residual > 1e-4
    # reports are reproducible
    assert check_equal_area(strip_tiles, 1.0, 1e-10) == rep


def test_equal_perimeter(small_plane):
    quads = quadify_plane(small_plane)
    rep = check_equal_perimeter(quads, P0, 1e-9)
    assert rep.passed
    # the stacked triangles deliberately have unequal perimeters
    tri_rep = check_equal_perimeter(small_plane, 6.0, 1e-9)
    assert not tri_rep.passed
    single = check_equal_perimeter(small_plane[:1], perimeter(small_plane[0]), 1e-9)
    assert single.passed


def test_vertex_to_vertex(strip_tiles, small_plane):
    assert check_vertex_to_vertex(strip_tiles, 1e-9).passed
    assert check_vertex_to_vertex(small_plane, 1e-9).passed
    # a T-junction breaks conformity
    bad = check_vertex_to_vertex(_perturb(strip_tiles, 3), 1e-9)
    assert not bad.passed and bad.offenders
    # the quadrangle subdivision is deliberately not vertex-to-vertex
    quads = quadify_plane(small_plane)
    assert not check_vertex_to_vertex(quads, 1e-9).passed
    # disjoint tiles are fine
    far = [strip_tiles[2], Triangle(Point(90, 0), Point(92, 0), Point(91, 1), id=TileId(0, 3, 1))]
    assert check_vertex_to_vertex(far, 1e-9).passed


def test_pairwise_incongruent(small_plane):
    rep = check_pairwise_incongruent(small_plane, 1e-9)
    assert rep.passed and rep.margin > 0

    periodic = [assembly.periodic_triangle(tid) for tid in tile_ids(2)]
    rep2 = check_pairwise_incongruent(periodic, 1e-9)
    assert not rep2.passed
    assert rep2.offenders
    assert "equilateral" in rep2.note

    quads = quadify_plane(small_plane)
    assert check_pairwise_incongruent(quads, 1e-9).passed


def test_pair_straddling_a_rounding_boundary_is_congruent():
    # 2e-12 apart, with the base length on either side of a 1e-9 rounding
    # boundary: rounding to the quantum would separate them, the distance
    # does not
    pair = [Triangle(Point(0, 0), Point(0.9 + 0.5e-9 + d, 0), Point(0.3, 1.1))
            for d in (-1e-12, 1e-12)]
    rep = check_pairwise_incongruent(pair, 1e-9)
    assert not rep.passed and rep.offenders
    assert rep.margin <= 1e-9


def test_halfturn_check(strip_tiles):
    rep = check_halfturn_incongruent(strip_tiles, 1e-9)
    assert rep.passed and rep.margin > 0
    doubled = strip_tiles + [strip_tiles[0]]
    assert not check_halfturn_incongruent(doubled, 1e-9).passed


def test_sweeps_match_the_pair_distances(small_plane):
    strip = window_triangles(strip_tiling(0.004, 10), 10)
    quads = quadify_plane(small_plane)[:90]
    for tiles, check, distance in ((strip, check_halfturn_incongruent, simeq_distance),
                                   (quads, check_pairwise_incongruent, signature_distance)):
        dists = {(i, j): distance(tiles[i], tiles[j])
                 for i, j in itertools.combinations(range(len(tiles)), 2)}
        # the second quantum lies above the four smallest distances
        for quantum in (1e-9, sorted(dists.values())[3]):
            offenders = [(tile_label(tiles[i]), tile_label(tiles[j]))
                         for (i, j), d in dists.items() if d <= quantum]
            rep = check(tiles, quantum)
            assert rep.margin == min(dists.values())
            assert rep.offenders == tuple(offenders[:10])
            assert rep.passed == (not offenders)
        assert len(offenders) >= 4
        for bad in (0.0, -1e-9):
            with pytest.raises(InvalidParameter):
                check(tiles, bad)


def test_contraction_suite_passes_in_regime():
    for y0 in (0.01, 0.2):
        rep = check_contraction(deviations(strip_tiling(y0, 3000)))
        assert rep.passed, y0
        assert [s.check_name for s in rep.subchecks] == [
            "h-bound", "h-monotone", "y-alternating", "y-abs-sum"]


def test_contraction_fails_on_fabricated_series():
    good = deviations(strip_tiling(0.01, 50))
    h_bad = np.array(good.h)
    h_bad[10] = h_bad[9] - 1e-3
    rep = check_contraction(DeviationSeries(
        alpha=good.alpha, beta=good.beta, xi=good.xi, y=good.y, h=h_bad))
    assert not rep.passed
    assert not rep.subchecks[1].passed  # h-monotone

    y_bad = np.array(good.y)
    y_bad[5] = -y_bad[5]
    rep2 = check_contraction(DeviationSeries(
        alpha=good.alpha, beta=good.beta, xi=good.xi, y=y_bad, h=np.array(good.h)))
    assert not rep2.subchecks[2].passed  # y-alternating


def test_contraction_critical_height_fails():
    # at the critical height the midline collapses: the sign pattern breaks
    rep = check_contraction(deviations(strip_tiling(1 / SQRT3, 50)))
    assert not rep.subchecks[2].passed


def test_closeness(small_plane):
    rep = check_closeness(small_plane, 0.01)
    assert rep.passed and rep.worst_residual < 0.02
    assert not check_closeness(small_plane, rep.worst_residual / 4).passed
    exact = [assembly.periodic_triangle(tid) for tid in tile_ids(2, row=1)]
    assert check_closeness(exact, 1e-9).worst_residual == 0.0


def test_convexity_check():
    square = Quadrangle((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
    assert check_convex([square]).passed
    dart = Quadrangle((Point(0, 0), Point(2, 0), Point(0.4, 0.4), Point(0, 2)))
    rep = check_convex([square, dart])
    assert not rep.passed and len(rep.offenders) == 1 and rep.tiles_checked == 2
    with pytest.raises(InvalidParameter):
        check_convex([])


def test_perimeter_and_closeness_fault_injection(small_plane):
    quads = quadify_plane(small_plane)
    assert check_equal_perimeter(quads, P0, 1e-9).passed
    broken = list(quads)
    v = broken[11].vertices
    broken[11] = Quadrangle((Point(v[0].x + 1e-3, v[0].y),) + v[1:],
                            id=broken[11].id, corner=broken[11].corner)
    rep = check_equal_perimeter(broken, P0, 1e-9)
    assert not rep.passed and rep.offenders

    shifted = _perturb(small_plane, 0, delta=0.05)
    good = check_closeness(small_plane, 0.01)
    bad = check_closeness(shifted, 0.01)
    assert bad.worst_residual >= good.worst_residual + 0.04


def test_identity_check():
    assert check_identity(strip_tiling(0.0042, 2000)).passed
