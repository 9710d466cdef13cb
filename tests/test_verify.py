"""The verification engine: residual sweeps, conformity, incongruence,
contraction suite, closeness, fault injection."""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from fairtile import assembly, pipeline, verify
from fairtile.errors import InvalidParameter
from fairtile.geometry import Tiles
from fairtile.quadsplit import P0, quadify_plane
from fairtile.strip import (
    DeviationSeries,
    deviations,
    strip_tiling,
    window_tiles,
)
from fairtile.verify import (
    _CONTACT_BLOCK,
    _contact,
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
import oracles
from oracles import (ids_of, perimeter, signature_distance, simeq_distance, take, tile_ids,
                     vertex_to_vertex_violations)

SQRT3 = math.sqrt(3.0)


def _plane(cols):
    rng = random.Random(6)
    y0, base = pipeline.sample_certified_y0(rng, cols)
    scaled = assembly.scale_to_equilateral(base)
    shears = assembly.select_shears(scaled, 3, 0.01, rng)
    plane = assembly.stack_plane(scaled, shears, 3)
    return plane.tiles()


@pytest.fixture(scope="module")
def small_plane():
    return _plane(4)


@pytest.fixture(scope="module")
def strip_tiles():
    return window_tiles(strip_tiling(0.007, 5))


def _perturb(tiles, index, delta=1e-3):
    """The record with the first vertex of tile ``index`` moved by (delta, delta)."""
    xy = tiles.xy.copy()
    xy[index, 0] += delta
    return replace(tiles, xy=xy)


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
    single = check_equal_perimeter(take(small_plane, [0]), perimeter(small_plane[0]), 1e-9)
    assert single.passed


def _tri(*pts):
    return [tuple(map(float, p)) for p in pts]


_quad = _tri


def _record(polys):
    """The record of tiles of one vertex count, each given by its vertices."""
    return Tiles(np.array(polys, dtype=float).reshape(len(polys), -1, 2))


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
    far = [strip_tiles[2].vertices, _tri((90, 0), (92, 0), (91, 1))]
    assert check_vertex_to_vertex(_record(far), 1e-9).passed

    # one input per contact rule
    tol = 1e-9
    t1 = _tri((0, 0), (1, 0), (0, 1))
    square = _quad((0, 0), (1, 0), (1, 1), (0, 1))
    conforming = {
        "shared edge": [t1, _tri((1, 0), (1, 1), (0, 1))],
        "shared vertex": [t1, _tri((1, 0), (2, 0), (1.5, 1))],
        "disjoint, boxes overlapping": [t1, _tri((0.6, 0.6), (1, 0.6), (0.6, 1))],
        "quadrangle on a quadrangle's edge": [square, _quad((1, 0), (2, 0), (2, 1), (1, 1))],
    }
    for name, tiles in conforming.items():
        rep = check_vertex_to_vertex(_record(tiles), tol)
        assert rep.passed and rep.worst_residual == 0.0, name
    # (tiles, size of the violation); overlaps count by their depth, a length
    faulty = {
        "vertex matched twice": ([t1, _tri((0, 0), (0, -1), (5e-10, -1e-10))], tol),
        "coincident tiles": ([t1, _tri((0, 0), (1, 0), (0, 1))], tol),
        "T-junction": ([_tri((0, 0), (2, 0), (1, 1)), _tri((0, 0), (1, -1), (1, 0))], 1.0),
        # two vertices on an edge: the first one's gap to the nearest vertex
        "two T-junctions": ([_tri((0, 0), (4, 0), (2, 2)), _tri((0.5, 0), (1.5, -1), (3, 0))], 0.5),
        "quadrangle on the diagonal": (
            [square, _quad((0, 0), (1, 1), (0, 2), (-1, 1))], math.sqrt(0.5)),
        "corner penetration": ([t1, _tri((1e-5, 0.5), (-1, 1), (-1, 0))], 1e-5),
        "sliver overlap": ([t1, _tri((-0.5, 5e-9), (0.5, -1), (1.5, 5e-9))], 5e-9),
    }
    for name, (tiles, size) in faulty.items():
        rep = check_vertex_to_vertex(_record(tiles), tol)
        assert not rep.passed and rep.offenders == (("?", "?"),), name
        assert rep.worst_residual == pytest.approx(size, rel=1e-6), name
    # a record holds one vertex count; the contact rules take mixed ones
    on_edge = _contact(_record([square]).xy, _record([_tri((1, 0), (2, 0.5), (1, 1))]).xy, tol)
    assert not on_edge[0][0] and on_edge[1][0] == 0.0
    inside = _record([_tri((0.5, 0.5), (2, 0), (2, 1))])
    corner_in = _contact(_record([square]).xy, inside.xy, tol)
    assert corner_in[0][0] and corner_in[1][0] == pytest.approx(0.5, rel=1e-6)
    # edge lines decide overlap only between convex tiles
    dart = _quad((0, 0), (2, 0), (0.4, 0.4), (0, 2))
    with pytest.raises(InvalidParameter):
        check_vertex_to_vertex(_record([dart, _quad((1.2, 0.1), (1.5, 0.1), (1.5, 0.5),
                                                    (1.2, 0.5))]), tol)


def _shuffled(tiles, rng):
    perm = np.array(rng.sample(range(len(tiles)), len(tiles)))
    return Tiles(*(None if a is None else a[perm]
                   for a in (tiles.xy, tiles.row, tiles.col, tiles.slot, tiles.corner)))


def test_sorted_window_matches_the_per_tile_pass(strip_tiles, small_plane, monkeypatch):
    rng = random.Random(19)
    quads = quadify_plane(small_plane)  # many overlapping corners, boxes tied in x
    wide = quadify_plane(_plane(20))  # box-surviving pairs for more than one contact block
    blocks = []  # pairs per contact pass

    def counted(P, Q, tol):
        blocks.append(len(P))
        return _contact(P, Q, tol)

    monkeypatch.setattr(verify, "_contact", counted)
    # T-junctions across an x gap under tol, and across a y gap both ways (sizes 0.6, 0.4)
    near_miss = _record([_quad((0, 0), (1, 0), (1, 1), (0, 1)),
                         _quad((1 + 5e-10, 0.5), (2, 0.5), (2, 1.5), (1 + 5e-10, 1.5)),
                         _quad((-1, 1 + 5e-10), (0.6, 1 + 5e-10), (0.6, 2), (-1, 2))])
    cases = [quads, _shuffled(quads, rng), _shuffled(quads, rng), _perturb(strip_tiles, 3),
             _shuffled(_perturb(strip_tiles, 5, 0.3), rng), small_plane,
             _shuffled(small_plane, rng), near_miss, _shuffled(near_miss, rng),
             wide, _shuffled(wide, rng)]
    for k, tiles in enumerate(cases):
        for tol in (1e-9, 1e-3):
            pairs, sizes = vertex_to_vertex_violations(tiles, tol)
            blocks.clear()
            rep = check_vertex_to_vertex(tiles, tol)
            # one contact pass per full block of box-surviving pairs
            assert all(size == _CONTACT_BLOCK for size in blocks[:-1]), (k, tol)
            if tiles is wide:
                assert len(blocks) > 1
            labels = tuple((tiles.label(i), tiles.label(j)) for i, j in pairs[:10])
            assert rep.offenders == labels and rep.passed == (not pairs), (k, tol)
            assert rep.worst_residual == float(sizes.max(initial=0.0)), (k, tol)
    assert len(vertex_to_vertex_violations(quads, 1e-9)[0]) > 10
    assert check_vertex_to_vertex(near_miss, 1e-9).worst_residual == pytest.approx(0.6)


def test_contact_matches_the_pair_major_reference_bit_for_bit(small_plane):
    rng = np.random.default_rng(5)
    quads = quadify_plane(small_plane)
    cases = []
    for tiles, others in ((small_plane, small_plane), (quads, quads), (small_plane, quads)):
        lo, hi = tiles.xy.min(axis=1), tiles.xy.max(axis=1)
        olo, ohi = others.xy.min(axis=1), others.xy.max(axis=1)
        i, j = np.nonzero(((olo[None] <= hi[:, None] + 0.2) & (ohi[None] >= lo[:, None] - 0.2))
                          .all(axis=2))
        P, Q = tiles.xy[i], others.xy[j]
        # a third of the partners nudged: overlaps, T-junctions and near misses
        nudged = Q + rng.normal(scale=1e-3, size=Q.shape) * (rng.random((len(Q), 1, 1)) < 0.3)
        cases += [(P, Q), (Q, P), (P, nudged)]
    for P, Q in cases:
        for tol in (1e-9, 1e-3, 0.05):
            got, want = _contact(P, Q, tol), oracles.contact(P, Q, tol)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert oracles.contact(*cases[2], 1e-9)[0].any() and not oracles.contact(*cases[0], 1e-9)[0].all()


def test_pairwise_incongruent(small_plane):
    rep = check_pairwise_incongruent(small_plane, 1e-9)
    assert rep.passed and rep.margin > 0

    periodic = assembly.periodic_triangles(*ids_of(tile_ids(2)))
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
    pair = [_tri((0, 0), (0.9 + 0.5e-9 + d, 0), (0.3, 1.1)) for d in (-1e-12, 1e-12)]
    rep = check_pairwise_incongruent(_record(pair), 1e-9)
    assert not rep.passed and rep.offenders
    assert rep.margin <= 1e-9


def test_halfturn_check(strip_tiles):
    rep = check_halfturn_incongruent(strip_tiles, 1e-9)
    assert rep.passed and rep.margin > 0
    doubled = take(strip_tiles, [*range(len(strip_tiles)), 0])
    assert not check_halfturn_incongruent(doubled, 1e-9).passed


def test_sweeps_match_the_pair_distances(small_plane):
    strip = window_tiles(strip_tiling(0.004, 10))
    quads = take(quadify_plane(small_plane), slice(90))
    for tiles, check, distance in ((strip, check_halfturn_incongruent, simeq_distance),
                                   (quads, check_pairwise_incongruent, signature_distance)):
        polys = list(tiles)
        dists = {(i, j): distance(polys[i], polys[j])
                 for i, j in itertools.combinations(range(len(polys)), 2)}
        # the second quantum lies above the four smallest distances
        for quantum in (1e-9, sorted(dists.values())[3]):
            offenders = [(tiles.label(i), tiles.label(j))
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
    exact = assembly.periodic_triangles(*ids_of(tile_ids(2, row=1)))
    assert check_closeness(exact, 1e-9).worst_residual == 0.0


def test_convexity_check():
    square = _quad((0, 0), (1, 0), (1, 1), (0, 1))
    assert check_convex(_record([square])).passed
    dart = _quad((0, 0), (2, 0), (0.4, 0.4), (0, 2))
    rep = check_convex(_record([square, dart]))
    assert not rep.passed and len(rep.offenders) == 1 and rep.tiles_checked == 2
    with pytest.raises(InvalidParameter):
        check_convex(Tiles(np.empty((0, 4, 2))))


def test_perimeter_and_closeness_fault_injection(small_plane):
    quads = quadify_plane(small_plane)
    assert check_equal_perimeter(quads, P0, 1e-9).passed
    xy = quads.xy.copy()
    xy[11, 0, 0] += 1e-3
    rep = check_equal_perimeter(replace(quads, xy=xy), P0, 1e-9)
    assert not rep.passed and rep.offenders

    shifted = _perturb(small_plane, 0, delta=0.05)
    good = check_closeness(small_plane, 0.01)
    bad = check_closeness(shifted, 0.01)
    assert bad.worst_residual >= good.worst_residual + 0.04


def test_identity_check():
    t = strip_tiling(0.0042, 2000)
    rep = check_identity(t, window_tiles(t))
    assert rep.passed and rep.tiles_checked == 8 * 2000 + 2


def test_identity_counts_every_tile_of_the_document():
    doc = pipeline.strip_document(strip_tiling(0.004, 20))
    (rep,) = pipeline.run_checks(doc, ["identity"])
    assert rep.passed and rep.tiles_checked == len(doc.tiles) == 8 * 20 + 2


def test_identity_check_compares_the_tiles_bit_for_bit():
    t = strip_tiling(0.004, 3)
    tiles = window_tiles(t)
    good = check_identity(t, tiles)
    assert good.passed and good.offenders == () and good.note == ""
    # the mirror of column 1 slot 2 starts at the apex's mirror, x = -0.0
    k = next(k for k in range(len(tiles)) if tiles.label(k) == "0/-1/2")
    assert str(tiles[k].vertices[2][0]) == "-0.0"
    xy, row = tiles.xy.copy(), tiles.row.copy()
    xy[k, 2, 0] = 0.0
    row[0] = 1
    assert tiles.label(0) == "0/-3/1"
    other = window_tiles(strip_tiling(0.009, 3))
    cases = [(replace(tiles, xy=xy), ["0/-1/2"]), (replace(tiles, row=row), ["1/-3/1"]),
             (take(tiles, [*range(len(tiles)), 0]), ["0/-3/1"]), (take(tiles, slice(-1)), []),
             (other, [other.label(i) for i in range(10)])]
    for doc_tiles, labels in cases:
        rep = check_identity(t, doc_tiles)
        assert not rep.passed and rep.worst_residual == good.worst_residual
        assert rep.offenders == tuple((label, label) for label in labels)
        assert f"of {len(doc_tiles)} tiles differ from the {len(tiles)} " in rep.note
