"""Acceptance suite: every top-level claim of the package, each at its
pinned tolerance and runtime budget, one printed pass/fail line per
criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import random
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fairtile import cli
from fairtile.congruence import signature_distance
from fairtile.document import read_document
from fairtile.geometry import Point, Triangle, area, edge_lengths, perimeter
from fairtile.quadsplit import (
    P0,
    apex,
    fair_split,
    fair_split_jacobian_det,
    quad_vertices,
    reconstruct_triangle,
    reconstruction_jacobian_det,
    solve_fair_split,
)
from fairtile.render import RenderOptions, render_svg
from fairtile.strip import critical_tiling, deviations, identity_residual, strip_tiling, unit_area_residual
from fairtile.verify import (
    check_closeness,
    check_contraction,
    check_convex,
    check_equal_area,
    check_equal_perimeter,
    check_pairwise_incongruent,
    check_vertex_to_vertex,
)

SQRT3 = math.sqrt(3.0)

PLANE_EPSILON = 0.005
PLANE_SEED = 42
PLANE_ROWS = 6
PLANE_COLS = 20


def conclude(tag: str, elapsed: float, budget: float, detail: str):
    print(f"[PASS] {tag}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{tag} exceeded its runtime budget"


# --- A1: closed-form oracle for the critical strip ---------------------------

def test_a01_critical_strip_closed_forms():
    t0 = time.monotonic()
    rec = strip_tiling(1.0 / SQRT3, 100)
    i = np.arange(101, dtype=float)
    assert np.max(np.abs(rec.xs[1:] - (2 * i[1:] - 0.5))) <= 1e-12
    assert np.max(np.abs(rec.ys[1:])) <= 1e-12
    j = np.arange(1, 102, dtype=float)
    assert np.max(np.abs(rec.aa[1:] - (2 * j + (SQRT3 - 1) / 2))) <= 1e-12
    assert np.max(np.abs(rec.bb[1:] - (2 * j - (SQRT3 + 1) / 2))) <= 1e-12
    closed = critical_tiling(100)
    assert np.max(np.abs(closed.xs - rec.xs)) <= 1e-12
    conclude("A1", time.monotonic() - t0, 1.0,
             "recursion at the critical height matches closed forms to 1e-12 over 100 columns")


# --- A2: published figure coordinates ----------------------------------------

def test_a02_published_strip_coordinates():
    t0 = time.monotonic()
    t = strip_tiling(0.2, 6)
    listed = [
        (1.92307692308, -0.169230769231),
        (3.88360118583, 0.112523014511),
        (5.86782183927, -0.0671455252767),
        (7.86284679278, 0.0385390385326),
        (9.86102836451, -0.021837269111),
        (11.8605645724, 0.0123225275777),
    ]
    for i, (x, y) in enumerate(listed, start=1):
        assert abs(t.xs[i] - x) <= 1e-9
        assert abs(t.ys[i] - y) <= 1e-9
    conclude("A2", time.monotonic() - t0, 1.0,
             "strip at height 1/5 reproduces the published vertices to 1e-9")


# --- A3: contraction suite over 1e5 terms -------------------------------------

def test_a03_contraction_suite():
    t0 = time.monotonic()
    for y0 in (0.001, 0.005, 0.01):
        series = deviations(strip_tiling(y0, 100_000))
        rep = check_contraction(series)
        names = {s.check_name: s for s in rep.subchecks}
        assert rep.passed, f"y0={y0}: {[ (s.check_name, s.passed) for s in rep.subchecks ]}"
        # the constant bounds (2, 4, 5) hold strictly over all 1e5 terms
        assert names["h-bound"].margin > 0
        assert names["y-abs-sum"].margin > 0
        assert float(np.max(series.h)) < 2.0
        assert float(np.sum(np.abs(series.y))) < 4.0
    conclude("A3", time.monotonic() - t0, 5.0,
             "contraction estimates hold for heights 1e-3, 5e-3, 1e-2 over 1e5 terms")


# --- A4: unit areas and the bookkeeping identity ------------------------------

def test_a04_area_and_identity_invariants():
    t0 = time.monotonic()
    rng = random.Random(1234)
    worst_area = worst_ident = 0.0
    for _ in range(10):
        y0 = rng.uniform(1e-4, 0.01)
        t = strip_tiling(y0, 10_000)
        worst_area = max(worst_area, unit_area_residual(t))
        worst_ident = max(worst_ident, identity_residual(t))
    assert worst_area <= 1e-10
    assert worst_ident <= 1e-10
    conclude("A4", time.monotonic() - t0, 10.0,
             f"unit areas ({worst_area:.1e}) and the identity ({worst_ident:.1e}) "
             "hold to 1e-10 over 1e4 columns for 10 random heights")


# --- A5: desk-scale plane construction ----------------------------------------

@pytest.fixture(scope="module")
def plane_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "plane.tiles"
    t0 = time.monotonic()
    code = cli.main(["gen-plane", "--epsilon", str(PLANE_EPSILON), "--seed", str(PLANE_SEED),
                     "--rows", str(PLANE_ROWS), "--cols", str(PLANE_COLS),
                     "--out", str(out)])
    elapsed = time.monotonic() - t0
    return out, code, elapsed


def test_a05_plane_window(plane_run):
    out, code, elapsed = plane_run
    assert code == 0
    doc = read_document(out)
    tiles = doc.tiles
    assert len(tiles) == PLANE_ROWS * (8 * PLANE_COLS + 2)

    assert check_equal_area(tiles, SQRT3, 1e-10).passed
    assert check_vertex_to_vertex(tiles, 1e-9).passed
    incong = check_pairwise_incongruent(tiles, 1e-9)
    assert incong.passed and incong.margin > 0
    for tri in tiles:
        lengths = edge_lengths(tri)
        assert max(lengths) - min(lengths) > 1e-9  # no equilateral tile
    closeness = check_closeness(tiles, PLANE_EPSILON)
    assert closeness.passed and closeness.worst_residual < 2 * PLANE_EPSILON
    shears = doc.float_list("shears")
    assert sum(2 * SQRT3 * abs(m) for m in shears) < PLANE_EPSILON
    conclude("A5", elapsed, 60.0,
             f"{len(tiles)}-tile window: areas sqrt(3)+-1e-10, vertex-to-vertex at 1e-9, "
             f"incongruence margin {incong.margin:.1e}, deviation "
             f"{closeness.worst_residual:.4f} < {2 * PLANE_EPSILON}")


# --- A6: Jacobian determinant anchors ------------------------------------------

def test_a06_jacobian_anchors():
    t0 = time.monotonic()
    split = fair_split_jacobian_det()
    recon = reconstruction_jacobian_det()
    assert abs(split - (2 * math.sqrt(2) + SQRT3 - 2 * math.sqrt(6))) <= 1e-6
    assert abs(recon - (math.sqrt(6) / 48 - math.sqrt(2) / 24)) <= 1e-6
    conclude("A6", time.monotonic() - t0, 1.0,
             f"perimeter-system determinant {split:.8f} and reconstruction "
             f"determinant {recon:.8f} match their closed forms to 1e-6")


# --- A7 / A8: random fair splits and round trips -------------------------------

@pytest.fixture(scope="module")
def random_splits():
    rng = random.Random(777)
    cases = []
    t0 = time.monotonic()
    while len(cases) < 1000:
        a, b, c = (rng.uniform(0.99, 1.01) for _ in range(3))
        params = solve_fair_split(a, b, c)
        quads = quad_vertices(a, b, c, params)
        cases.append(((a, b, c), params, quads))
    return cases, time.monotonic() - t0


def test_a07_fair_split_ensemble(random_splits):
    cases, build_time = random_splits
    t0 = time.monotonic()
    for (a, b, c), params, quads in cases:
        assert params.iterations <= 12
        tri_area = a * apex(a, b, c).y / 2
        for q in quads:
            assert abs(perimeter(q) - P0) <= 1e-10
            assert abs(area(q) - tri_area / 3) <= 1e-10
        assert check_convex(quads).passed
        spread = max(a, b, c) - min(a, b, c)
        if spread >= 1e-4:
            assert all(signature_distance(p, q) > 1e-9
                       for p, q in itertools.combinations(quads, 2))

    placed = Triangle(Point(2.0, -1.0), Point(3.0, -1.0), Point(2.5, -1.0 + SQRT3 / 2))
    assert all(signature_distance(p, q) <= 1e-9
               for p, q in itertools.combinations(fair_split(placed), 2))
    conclude("A7", build_time + (time.monotonic() - t0), 30.0,
             "1000 random near-unit splits: <=12 Newton steps, perimeter p0 and "
             "area/3 to 1e-10, convex; equilateral gives congruent pieces")


def test_a08_reconstruction_round_trip(random_splits):
    cases, _ = random_splits
    t0 = time.monotonic()
    worst = 0.0
    for (a, b, c), _, quads in cases:
        want = sorted((a, b, c))
        for q in quads:
            tri, _ = reconstruct_triangle(q)
            got = sorted(edge_lengths(tri))
            worst = max(worst, max(abs(u - v) for u, v in zip(want, got)))
    assert worst <= 1e-8
    conclude("A8", time.monotonic() - t0, 60.0,
             f"3000 reconstructions recover sorted edge lengths to {worst:.1e} (<= 1e-8)")


# --- A9: quadrangle subdivision of the plane window ----------------------------

@pytest.fixture(scope="module")
def quad_run(plane_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-quad") / "quads.tiles"
    t0 = time.monotonic()
    code = cli.main(["quadify", "--in", str(plane_run[0]), "--out", str(out)])
    elapsed = time.monotonic() - t0
    return out, code, elapsed


def test_a09_quadify_plane_window(quad_run, plane_run, tmp_path):
    out, code, elapsed = quad_run
    assert code == 0
    doc = read_document(out)
    quads = doc.tiles
    assert len(quads) == 3 * PLANE_ROWS * (8 * PLANE_COLS + 2)
    scale = doc.float_param("scale")
    t0 = time.monotonic()
    assert check_equal_area(quads, SQRT3 * scale * scale / 3, 1e-9).passed
    assert check_equal_perimeter(quads, P0, 1e-9).passed
    assert check_convex(quads).passed
    incong = check_pairwise_incongruent(quads, 1e-9)
    assert incong.passed and incong.margin > 0

    svg_text = render_svg(quads, RenderOptions(stroke_width=0.005))
    root = ET.fromstring(svg_text)
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == len(quads)
    (tmp_path / "quads.svg").write_text(svg_text)
    conclude("A9", elapsed + (time.monotonic() - t0), 120.0,
             f"{len(quads)} quadrangles: equal areas and perimeters to 1e-9, all convex, "
             f"incongruence margin {incong.margin:.1e}; rendering has one path per tile")


# --- A10: determinism ------------------------------------------------------------

def test_a10_determinism(plane_run, quad_run, tmp_path):
    t0 = time.monotonic()
    plane_again = tmp_path / "plane2.tiles"
    assert cli.main(["gen-plane", "--epsilon", str(PLANE_EPSILON), "--seed", str(PLANE_SEED),
                     "--rows", str(PLANE_ROWS), "--cols", str(PLANE_COLS),
                     "--out", str(plane_again)]) == 0
    assert plane_again.read_bytes() == plane_run[0].read_bytes()
    quads_again = tmp_path / "quads2.tiles"
    assert cli.main(["quadify", "--in", str(plane_again), "--out", str(quads_again)]) == 0
    assert quads_again.read_bytes() == quad_run[0].read_bytes()
    conclude("A10", time.monotonic() - t0, 300.0,
             "re-running the plane and quadrangle pipelines with the same seed "
             "reproduces both documents byte for byte")
