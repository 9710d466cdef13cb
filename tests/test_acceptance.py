"""Acceptance suite: every top-level claim of the package, each at its
pinned tolerance and runtime budget, one printed pass/fail line per
criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import math
import random
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fairtile import cli
from fairtile.congruence import aligned_sweep, halfturn_variants, signature_key, signature_variants
from fairtile.document import read_document
from fairtile.geometry import Tiles
from fairtile.quadsplit import (
    FAIR,
    P0,
    _corners,
    _split_residual,
    apex,
    fair_split,
    solve_fair_split,
)
from fairtile.render import RenderOptions, render_svg
from fairtile.strip import deviations, identity_residual, strip_tiling, unit_area_residual
from fairtile.verify import (
    check_closeness,
    check_contraction,
    check_convex,
    check_equal_area,
    check_equal_perimeter,
    check_pairwise_incongruent,
    check_vertex_to_vertex,
)
from oracles import (area, critical_tiling, edge_lengths, fair_split_jacobian_det, halfturn_rows,
                     perimeter, reconstruct_triangle, reconstruction_jacobian_det,
                     signature_rows)

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
    shears = [float(m) for m in doc.parameters["shears"]]
    assert sum(2 * SQRT3 * abs(m) for m in shears) < PLANE_EPSILON
    conclude("A5", elapsed, 60.0,
             f"{len(tiles)}-tile window: areas sqrt(3)+-1e-10, vertex-to-vertex at 1e-9, "
             f"incongruence margin {incong.margin:.1e}, deviation "
             f"{closeness.worst_residual:.4f} < {2 * PLANE_EPSILON}")


# --- A6: Jacobian determinant anchors ------------------------------------------

def test_a06_jacobian_anchors():
    t0 = time.monotonic()
    want = 2 * math.sqrt(2) + SQRT3 - 2 * math.sqrt(6)
    split = fair_split_jacobian_det()
    recon = reconstruction_jacobian_det()
    assert abs(split - want) <= 1e-6
    assert abs(recon - (math.sqrt(6) / 48 - math.sqrt(2) / 24)) <= 1e-6
    # the package's own anchor: the analytic Jacobian the fair-split Newton steps with
    _, jacobian = _split_residual(1.0, 1.0, 1.0)([FAIR.alpha0, FAIR.beta0, FAIR.gamma0])
    analytic = float(np.linalg.det(np.array(jacobian())))
    assert abs(analytic - want) <= 1e-14
    conclude("A6", time.monotonic() - t0, 1.0,
             f"perimeter-system determinant {analytic:.15f} (analytic Jacobian, to 1e-14; "
             f"{split:.8f} by central differences, to 1e-6) and reconstruction "
             f"determinant {recon:.8f} (to 1e-6) match their closed forms")


# --- A7 / A8: random fair splits and round trips -------------------------------

@pytest.fixture(scope="module")
def random_splits():
    rng = random.Random(777)
    cases = []
    t0 = time.monotonic()
    while len(cases) < 1000:
        a, b, c = (rng.uniform(0.99, 1.01) for _ in range(3))
        params = solve_fair_split(a, b, c)
        p = (params.alpha, params.beta, params.gamma, params.xi, params.eta)
        quads = Tiles(np.array(_corners(a, *apex(a, b, c), *p)))  # the posed split, validated
        cases.append(((a, b, c), params, quads))
    return cases, time.monotonic() - t0


def test_a07_fair_split_ensemble(random_splits):
    cases, build_time = random_splits
    t0 = time.monotonic()
    for (a, b, c), params, quads in cases:
        assert params.iterations <= 12
        tri_area = a * apex(a, b, c)[1] / 2
        for q in quads.xy:
            assert abs(perimeter(q) - P0) <= 1e-10
            assert abs(area(q) - tri_area / 3) <= 1e-10
        assert check_convex(quads).passed
        spread = max(a, b, c) - min(a, b, c)
        if spread >= 1e-4:
            margin, _ = aligned_sweep(quads, signature_variants, signature_key, 1e-9)
            assert margin > 1e-9

    placed = Tiles(np.array([[(2.0, -1.0), (3.0, -1.0), (2.5, -1.0 + SQRT3 / 2)]]))
    _, collisions = aligned_sweep(fair_split(placed), signature_variants,
                                  signature_key, 1e-9)
    assert collisions == [(0, 1), (0, 2), (1, 2)]
    conclude("A7", build_time + (time.monotonic() - t0), 30.0,
             "1000 random near-unit splits: <=12 Newton steps, perimeter p0 and "
             "area/3 to 1e-10, convex; equilateral gives congruent pieces")


def test_a08_reconstruction_round_trip(random_splits):
    cases, _ = random_splits
    t0 = time.monotonic()
    worst = 0.0
    for (a, b, c), _, quads in cases:
        want = sorted((a, b, c))
        for q in quads.xy:
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


# --- A11: the gate margins, bit for bit -------------------------------------------

GATE_MARGINS = {  # (rows, cols): (triangle margin, quadrangle margin), eps 0.005, seed 42
    # each shear row was accepted above the floor assembly.MARGIN_FLOOR = 4e-9
    (6, 20): (8.280937358051688e-08, 8.928096173477229e-08),
    (16, 4): (5.126361113383382e-09, 8.74434813447067e-09),
}


@pytest.fixture(scope="module")
def gate16x4(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-16x4")
    plane16, quad16 = out / "plane16x4.tiles", out / "quads16x4.tiles"
    assert cli.main(["gen-plane", "--epsilon", "0.005", "--seed", "42", "--rows", "16",
                     "--cols", "4", "--out", str(plane16)]) == 0
    assert cli.main(["quadify", "--in", str(plane16), "--out", str(quad16)]) == 0
    return plane16, quad16


def test_a11_gate_margins(plane_run, quad_run, gate16x4):
    t0 = time.monotonic()
    docs = {(6, 20): (plane_run[0], quad_run[0]), (16, 4): gate16x4}
    for shape, paths in docs.items():
        got = tuple(check_pairwise_incongruent(read_document(p).tiles, 1e-9).margin for p in paths)
        assert [m.hex() for m in got] == [m.hex() for m in GATE_MARGINS[shape]], shape
    conclude("A11", time.monotonic() - t0, 60.0,
             "6x20 and 16x4 plane and quadrangle margins equal their pinned values bit for bit")


# --- A12: the gate windows' parameters, digit for digit ----------------------------

# A plane document is fixed by its header: the strip height and the shears.
GATE_HEADERS = {  # (rows, cols, epsilon, seed): (y0, shears)
    (6, 20, "0.005", 42): ("0.00097497734428502608", [
        "-0.00068558792083592572", "-0.00016235860449920325", "-9.9877721774109385e-05",
        "4.266459973537193e-05", "1.5940233848326059e-05", "1.7689451483208095e-05"]),
    (3, 30, "0.005", 11): ("0.00073199584553565369", [
        "8.6274007984201415e-05", "0.00030614761859898567", "-1.2394963296587913e-05"]),
    (10, 10, "0.05", 7): ("0.0039144948834984612", [
        "-0.0050395580855617256", "0.0010892757329944236", "-0.0015428376561763136",
        "6.4739015142282249e-05", "-0.00012116334371198274", "-0.0001993667498151774",
        "1.6769619369273454e-06", "-5.21537121288849e-05", "-3.7411799218178825e-06",
        "-1.2126176122541568e-05"]),
    (16, 4, "0.005", 42): ("0.00097497734428502608", [
        "-0.00068558792083592572", "-0.00016235860449920325", "-9.9877721774109385e-05",
        "4.266459973537193e-05", "1.5940233848326059e-05", "1.7689451483208095e-05",
        "-9.3156631317651433e-06", "-8.8043864106533754e-07", "-2.6510908391712953e-06",
        "-7.9318574700623962e-07", "7.5485279005475244e-09", "-3.3368479657547179e-07",
        "-1.0612558804067603e-07", "2.6408636626996894e-08", "-4.347581084370204e-08",
        "1.3470827283404664e-08"]),
}


@pytest.fixture(scope="module")
def gate_wide_tall(tmp_path_factory):
    """The 3x30 and 10x10 gate plane documents, by (rows, cols, epsilon, seed)."""
    out = tmp_path_factory.mktemp("acceptance-wide-tall")
    paths = {}
    for rows, cols, epsilon, seed in ((3, 30, "0.005", 11), (10, 10, "0.05", 7)):
        path = paths[rows, cols, epsilon, seed] = out / f"plane{rows}x{cols}.tiles"
        assert cli.main(["gen-plane", "--epsilon", epsilon, "--seed", str(seed), "--rows",
                         str(rows), "--cols", str(cols), "--out", str(path)]) == 0
    return paths


def test_a12_gate_window_headers(plane_run, gate16x4, gate_wide_tall):
    t0 = time.monotonic()
    paths = {(6, 20, "0.005", 42): plane_run[0], (16, 4, "0.005", 42): gate16x4[0],
             **gate_wide_tall}
    for shape, path in paths.items():
        params = read_document(path).parameters
        assert (params["y0"], params["shears"]) == GATE_HEADERS[shape], shape
    conclude("A12", time.monotonic() - t0, 60.0,
             "the 6x20, 3x30, 10x10 and 16x4 windows keep their pinned strip height and shears")


# --- A13: the gate documents, byte for byte ----------------------------------------

# SHA-256 of whole gate documents and of the strip gate's verify report, so a
# change in how any tile's coordinates are produced shows in every bit
GATE_DIGESTS = {
    "plane 6x20": "03f1591d40af830b3ec2d7983d98f959cc8cca2a0c0cddac58505eb08e4af3b9",
    "quad 6x20": "f58a20221bb84809d9707fd018da5652d876d4431ffff2141abd5f76a61eaead",
    "plane 16x4": "37e8ad20b015f08a11e72520baf55b254eee77df4d0de2280a6c27ca037df71d",
    "quad 16x4": "422375aca2cabc6b713cb936c9180d1fc93742d8e104286b5626f3c1b417c502",
    "plane 3x30": "a861e4b4f8910c81a5673a93fbbbd06e8175d24fd8b984d0bb9edb6f2f5e4ad4",
    "plane 10x10": "5d9fd963b8f95bc51afa50e01f6a58d35670cf2b5a1900344ea9d15b8d5f4f06",
    "strip 0.004x20": "20bc0ca24dc1beb5f5d27d89843c59ecc38f59a50afffb7fc68e6578e488afed",
    # strip-identities reports the window's 162 tiles as checked
    "verify strip 0.004x20": "9dc7ad729ee66535af1896bed2fc56f6775b7ab4d3dd92a0dc9598c59c93f2d2",
    "strip auto 7x40": "a89004fb63070ca02388c2e8fd29712969682a4c89096a61d4c0480be093db88",
}


def test_a13_gate_document_digests(plane_run, quad_run, gate16x4, gate_wide_tall, tmp_path):
    t0 = time.monotonic()
    paths = {"plane 6x20": plane_run[0], "quad 6x20": quad_run[0],
             "plane 16x4": gate16x4[0], "quad 16x4": gate16x4[1],
             "plane 3x30": gate_wide_tall[3, 30, "0.005", 11],
             "plane 10x10": gate_wide_tall[10, 10, "0.05", 7]}
    strip, report, auto = (tmp_path / name for name in ("s.tiles", "s.json", "auto.tiles"))
    assert cli.main(["gen-strip", "--y0", "0.004", "--cols", "20", "--out", str(strip)]) == 0
    assert cli.main(["verify", "--in", str(strip), "--json", str(report)]) == 0
    assert cli.main(["gen-strip", "--y0", "auto", "--seed", "7", "--cols", "40",
                     "--out", str(auto)]) == 0
    paths.update({"strip 0.004x20": strip, "verify strip 0.004x20": report,
                  "strip auto 7x40": auto})
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert got == GATE_DIGESTS
    conclude("A13", time.monotonic() - t0, 60.0,
             "the gate plane, quadrangle and strip documents and the strip report keep "
             "their pinned SHA-256 digests")


def test_batched_rows_equal_the_per_polygon_rows_on_the_window(plane_run, quad_run):
    for path in (plane_run[0], quad_run[0]):
        tiles = read_document(path).tiles
        for rows_of, one_rows in ((signature_variants, signature_rows),
                                  (halfturn_variants, halfturn_rows)):
            want = np.stack([one_rows(p) for p in tiles])
            assert rows_of(tiles).tobytes() == want.tobytes()
