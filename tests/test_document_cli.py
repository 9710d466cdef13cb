"""Document round-trips, CLI exit codes, rendering, determinism."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

from fairtile import cli, document, pipeline
from fairtile.document import fmt17, parse, read_document, serialize
from fairtile.errors import DocumentError
from fairtile.strip import strip_tiling


def test_fmt17_round_trips_binary64():
    for x in (0.1, 1 / 3, math.sqrt(3), -0.0069876687186852, 1e-300, 12345.6789e10):
        assert float(fmt17(x)) == x
        assert fmt17(float(fmt17(x))) == fmt17(x)


def test_document_round_trip_is_byte_identical(tmp_path):
    doc = pipeline.strip_document(strip_tiling(0.2, 4), 4)
    text = serialize(doc)
    assert serialize(parse(text)) == text
    path = tmp_path / "strip.tiles"
    document.write_document(doc, path)
    again = read_document(path)
    assert serialize(again) == text
    assert again.float_param("y0") == 0.2
    assert again.int_param("cols") == 4


def test_document_rejects_malformed_input():
    with pytest.raises(DocumentError):
        parse("")
    with pytest.raises(DocumentError):
        parse('{"format_version":"9","kind":"strip","parameters":{}}\n')
    with pytest.raises(DocumentError):
        parse('{"format_version":"1","kind":"blob","parameters":{}}\n')
    good = serialize(pipeline.strip_document(strip_tiling(0.2, 1), 1))
    with pytest.raises(DocumentError):
        parse(good + "not json\n")


def run_cli(*argv):
    return cli.main(list(argv))


def test_gen_strip_reproduces_published_coordinates(tmp_path):
    out = tmp_path / "fig.tiles"
    assert run_cli("gen-strip", "--y0", "0.2", "--cols", "6", "--out", str(out)) == 0
    doc = read_document(out)
    xs = {v.xy for t in doc.tiles for v in t.vertices}
    for want in [(1.92307692308, -0.169230769231), (3.88360118583, 0.112523014511),
                 (5.86782183927, -0.0671455252767)]:
        assert any(abs(x - want[0]) < 1e-9 and abs(y - want[1]) < 1e-9 for x, y in xs)


def test_gen_strip_critical_height(tmp_path):
    out = tmp_path / "crit.tiles"
    y0 = 1 / math.sqrt(3)
    assert run_cli("gen-strip", "--y0", fmt17(y0), "--cols", "5", "--out", str(out)) == 0
    doc = read_document(out)
    xs = {v.xy for t in doc.tiles for v in t.vertices}
    assert any(abs(x - 1.5) < 1e-12 and abs(y) < 1e-12 for x, y in xs)


def test_gen_strip_usage_errors(tmp_path):
    out = str(tmp_path / "x.tiles")
    assert run_cli("gen-strip", "--y0", "1.5", "--cols", "3", "--out", out) == 2
    assert run_cli("gen-strip", "--y0", "nope", "--cols", "3", "--out", out) == 2
    assert run_cli("gen-strip", "--y0", "0.2", "--cols", "0", "--out", out) == 2


def test_gen_strip_auto_is_seeded(tmp_path):
    a, b = tmp_path / "a.tiles", tmp_path / "b.tiles"
    assert run_cli("gen-strip", "--y0", "auto", "--seed", "5", "--cols", "3", "--out", str(a)) == 0
    assert run_cli("gen-strip", "--y0", "auto", "--seed", "5", "--cols", "3", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = read_document(a)
    assert 0.0 < doc.float_param("y0") <= 0.01
    assert doc.parameters["mode"] == "auto"


@pytest.fixture(scope="module")
def plane_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("plane") / "plane.tiles"
    code = run_cli("gen-plane", "--epsilon", "0.01", "--seed", "3",
                   "--rows", "2", "--cols", "4", "--out", str(out))
    assert code == 0
    return out


def test_gen_plane_usage_errors(tmp_path):
    out = str(tmp_path / "p.tiles")
    args = ["gen-plane", "--seed", "1", "--rows", "2", "--cols", "3", "--out", out]
    assert run_cli(*args, "--epsilon", "0") == 2
    assert run_cli(*args, "--epsilon", "0.2") == 2
    assert run_cli("gen-plane", "--epsilon", "0.01", "--seed", "1",
                   "--rows", "0", "--cols", "3", "--out", out) == 2


def test_verify_plane_document(plane_doc, tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli("verify", "--in", str(plane_doc), "--json", str(report_path)) == 0
    payload = json.loads(report_path.read_text())
    names = {entry["check_name"] for entry in payload}
    assert names == {"equal-area", "vertex-to-vertex", "pairwise-incongruent", "closeness"}
    assert all(entry["passed"] for entry in payload)
    # closeness uses the common report fields
    assert len({tuple(sorted(entry)) for entry in payload}) == 1


def test_verify_detects_tampering(plane_doc, tmp_path):
    lines = plane_doc.read_text().splitlines()
    record = json.loads(lines[5])
    x = float(record["vertices"][0][0])
    record["vertices"][0][0] = fmt17(x + 1e-3)
    lines[5] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "tampered.tiles"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--in", str(bad)) == 1


def test_verify_missing_file_and_unknown_check(plane_doc, tmp_path):
    assert run_cli("verify", "--in", str(tmp_path / "nope.tiles")) == 2
    assert run_cli("verify", "--in", str(plane_doc), "--check", "bogus") == 2


def test_verify_strip_contraction_report(tmp_path, capsys):
    out = tmp_path / "s.tiles"
    assert run_cli("gen-strip", "--y0", "0.005", "--cols", "10", "--out", str(out)) == 0
    assert run_cli("verify", "--in", str(out), "--check", "contraction") == 0
    text = capsys.readouterr().out
    for part in ("h-bound", "h-monotone", "y-alternating", "y-abs-sum"):
        assert part in text
    # by default the contraction suite runs only for heights in the sampling window
    report = tmp_path / "report.json"
    high = tmp_path / "high.tiles"
    assert run_cli("gen-strip", "--y0", "0.2", "--cols", "3", "--out", str(high)) == 0
    for path, contraction in ((out, True), (high, False)):
        assert run_cli("verify", "--in", str(path), "--json", str(report)) == 0
        names = [entry["check_name"] for entry in json.loads(report.read_text())]
        assert names == ["equal-area", "vertex-to-vertex", "halfturn-incongruent",
                         "strip-identities"] + ["contraction"] * contraction


def test_quadify_and_determinism(plane_doc, tmp_path):
    q1, q2 = tmp_path / "q1.tiles", tmp_path / "q2.tiles"
    assert run_cli("quadify", "--in", str(plane_doc), "--out", str(q1)) == 0
    assert run_cli("quadify", "--in", str(plane_doc), "--out", str(q2)) == 0
    assert q1.read_bytes() == q2.read_bytes()
    doc = read_document(q1)
    src = read_document(plane_doc)
    assert doc.kind == "quad"
    assert len(doc.tiles) == 3 * len(src.tiles)
    assert run_cli("verify", "--in", str(q1)) == 0


def test_verify_refuses_closeness_on_quad_documents(tmp_path):
    plane, quads = tmp_path / "p.tiles", tmp_path / "q.tiles"
    assert run_cli("gen-plane", "--epsilon", "0.05", "--seed", "4",
                   "--rows", "2", "--cols", "3", "--out", str(plane)) == 0
    assert run_cli("quadify", "--in", str(plane), "--out", str(quads)) == 0
    assert run_cli("verify", "--in", str(quads), "--check", "closeness") == 2


def test_reports_of_in_memory_documents_are_json():
    from fairtile.quadsplit import quadify_plane

    build = pipeline.build_plane(0.05, 4, 2, 3)
    plane = pipeline.plane_document(build, 0.05, 4, 2, 3)
    docs = [pipeline.strip_document(strip_tiling(0.005, 3), 3), plane,
            pipeline.quad_document(quadify_plane(build.tiles), plane)]
    for doc in docs:
        for r in pipeline.run_checks(doc, list(pipeline.CHECKS[doc.kind])):
            json.dumps(cli._report_dict(r))


def test_quadify_usage_errors(plane_doc, tmp_path):
    assert run_cli("quadify", "--in", str(tmp_path / "missing.tiles"),
                   "--out", str(tmp_path / "q.tiles")) == 2
    strip_path = tmp_path / "s.tiles"
    assert run_cli("gen-strip", "--y0", "0.2", "--cols", "2", "--out", str(strip_path)) == 0
    assert run_cli("quadify", "--in", str(strip_path), "--out", str(tmp_path / "q.tiles")) == 2


def test_quadify_refuses_equilateral_tiles(tmp_path):
    from fairtile.assembly import periodic_triangle
    from fairtile.strip import tile_ids

    tiles = [periodic_triangle(tid) for tid in tile_ids(2)]
    doc = document.TilingDocument(
        kind="plane",
        parameters=document.make_parameters(epsilon=0.01, seed=0, rows=1, cols=2, y0=0.0),
        tiles=tiles)
    path = tmp_path / "periodic.tiles"
    document.write_document(doc, path)
    assert run_cli("quadify", "--in", str(path), "--out", str(tmp_path / "q.tiles")) == 3


def test_documents_refuse_tiles_of_another_kind(plane_doc, tmp_path):
    from fairtile.quadsplit import quadify_plane

    plane = read_document(plane_doc)
    quad = pipeline.quad_document(quadify_plane(plane.tiles[:1]), plane)
    # a plane document with one quadrangle, a quad document with one triangle
    odd = {"plane": (plane, plane.tiles[1:] + quad.tiles[:1]),
           "quad": (quad, quad.tiles + plane.tiles[1:2])}
    for kind, (source, tiles) in odd.items():
        path = tmp_path / f"{kind}.tiles"
        document.write_document(document.TilingDocument(kind, source.parameters, tiles), path)
        with pytest.raises(DocumentError):
            read_document(path)
        assert run_cli("verify", "--in", str(path), "--check", "incongruent") == 2
    assert run_cli("quadify", "--in", str(tmp_path / "plane.tiles"),
                   "--out", str(tmp_path / "q.tiles")) == 2


def test_render(plane_doc, tmp_path):
    svg = tmp_path / "plane.svg"
    assert run_cli("render", "--in", str(plane_doc), "--out", str(svg), "--labels") == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == len(read_document(plane_doc).tiles)


def test_render_empty_document(tmp_path):
    doc = document.TilingDocument(kind="strip", parameters={}, tiles=[])
    path = tmp_path / "empty.tiles"
    document.write_document(doc, path)
    svg = tmp_path / "empty.svg"
    assert run_cli("render", "--in", str(path), "--out", str(svg)) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
