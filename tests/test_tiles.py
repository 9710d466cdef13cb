"""The array tile record: bit for bit against the object builders it
replaced, its refusals against the polygon constructors, the document
parser against the per-line ``json`` parser, and no per-tile views on the
strip path."""

import json
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtile import cli, document, pipeline
from fairtile.assembly import scale_to_equilateral, stack_plane
from fairtile.document import fmt17
from fairtile.errors import EdgeOutOfRange, InvalidParameter, TileFailed
from fairtile.geometry import CORNERS, Tiles
from fairtile.quadsplit import apex, fair_split, quadify_plane
from fairtile.strip import strip_tiling, window_tiles
import oracles
from oracles import polygon, polygons


def _table(tiles: Tiles):
    """Coordinates as uint64 bits, ids and corner letters of a record."""
    assert tiles.xy.dtype == np.float64 and tiles.row.dtype == np.int64
    corners = ([None] * len(tiles) if tiles.corner is None
               else [CORNERS[c] if c >= 0 else None for c in tiles.corner.tolist()])
    return (tiles.xy.view(np.uint64).tolist(), tiles.row.tolist(), tiles.col.tolist(),
            tiles.slot.tolist(), corners)


def _object_table(polys):
    """The same layout, read off polygon objects alone."""
    xy = np.array([[v.xy for v in p.vertices] for p in polys], dtype=float)
    return (xy.view(np.uint64).tolist(), [p.id.row for p in polys], [p.id.col for p in polys],
            [p.id.slot for p in polys], [getattr(p, "corner", None) for p in polys])


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def gate_texts(tmp_path_factory):
    """Document text of the 20-column strip, the seeded auto strip, the 6x20
    plane and its quadrangles."""
    d = tmp_path_factory.mktemp("gates")
    _run("gen-strip", "--y0", "0.004", "--cols", "20", "--out", d / "strip.tiles")
    _run("gen-strip", "--y0", "auto", "--seed", "7", "--cols", "40", "--out", d / "auto.tiles")
    _run("gen-plane", "--epsilon", "0.005", "--seed", "42", "--rows", "6", "--cols", "20",
         "--out", d / "plane.tiles")
    _run("quadify", "--in", d / "plane.tiles", "--out", d / "quad.tiles")
    return {name: (d / f"{name}.tiles").read_text() for name in ("strip", "auto", "plane", "quad")}


def test_strip_windows_match_the_object_builder(gate_texts):
    auto_y0 = float(json.loads(gate_texts["auto"].split("\n")[0])["parameters"]["y0"])
    for t in (strip_tiling(0.004, 20), strip_tiling(auto_y0, 40)):
        assert _table(window_tiles(t)) == _object_table(oracles.window_triangles(t))


def test_plane_and_quad_records_match_the_object_builders(gate_texts):
    params = document.parse(gate_texts["plane"]).parameters
    base = scale_to_equilateral(strip_tiling(float(params["y0"]), 20))
    plane = stack_plane(base, [float(m) for m in params["shears"]], 6)
    objects = oracles.plane_triangles(plane)
    assert _table(plane.tiles()) == _object_table(objects)
    assert _table(quadify_plane(plane.tiles())) == _object_table(oracles.quadify_plane(objects))


def _placed_triangles(rng, count):
    """Near-unit triangles, each rotated by a random angle, mirrored every
    other time and translated, counterclockwise."""
    out = []
    while len(out) < count:
        a, b, c = (rng.uniform(0.99, 1.01) for _ in range(3))
        pts = [(0.0, 0.0), (a, 0.0), apex(a, b, c)]
        theta, mirror = rng.uniform(0.0, 2.0 * math.pi), len(out) % 2
        dx, dy = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
        co, si = math.cos(theta), math.sin(theta)
        placed = [(co * x - si * y + dx, si * x + co * y + dy)
                  for x, y in ((x, -y if mirror else y) for x, y in pts)]
        out.append(placed[::-1] if mirror else placed)
    return out


def _tie_triangles():
    """Triangles whose pose is decided by a tie: equilateral, isosceles with
    the legs equal bit for bit beside a longest base, and two equal longest
    edges; each also mirrored and turned by quarter turns, which is exact."""
    shapes = [[(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)],
              [(0.0, 0.0), (1.01, 0.0), (0.505, 0.86)],
              [(0.0, 0.0), (0.99, 0.0), (0.495, 0.87)],
              [(2.0, -1.0), (3.0, -1.0), (2.5, -1.0 + math.sqrt(3.0) / 2.0)]]
    out = []
    for pts in shapes:
        for turned in (pts, [(-y, x) for x, y in pts], [(-x, -y) for x, y in pts]):
            out.append(turned)
            out.append([(-x, y) for x, y in turned[::-1]])
    return out


def test_record_split_matches_the_object_split_bit_for_bit():
    xy = np.array(_placed_triangles(random.Random(18), 300) + _tie_triangles())
    k = np.arange(len(xy))
    with_ids = Tiles(xy, k % 5 - 2, k + 1, 1 + k % 4)
    want = [q for t in polygons(with_ids) for q in oracles.fair_split(t)]
    assert _table(fair_split(with_ids)) == _object_table(want)

    bare = fair_split(Tiles(xy))
    assert bare.row is None and bare.col is None and bare.slot is None
    assert bare.xy.view(np.uint64).tolist() == _object_table(want)[0]
    assert bare.corner.dtype == np.int8 and bare.corner.tolist() == [0, 1, 2] * len(xy)
    assert len(fair_split(Tiles(np.empty((0, 3, 2))))) == 0


def test_record_split_names_the_failing_tile():
    xy = np.array(_placed_triangles(random.Random(5), 4))
    xy[2] = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)]
    row, col, slot = np.array([[0, 0, 3, 0], [1, 2, -4, 4], [2, 2, 3, 2]])
    with pytest.raises(TileFailed) as info:
        fair_split(Tiles(xy, row, col, slot))
    assert info.value.label == "3/-4/3"
    assert str(info.value).startswith("tile 3/-4/3: EdgeOutOfRange: ")
    assert isinstance(info.value.__cause__, EdgeOutOfRange)
    with pytest.raises(TileFailed) as info:
        fair_split(Tiles(xy))
    assert info.value.label == "?" and str(info.value).startswith("tile ?: EdgeOutOfRange: ")
    assert isinstance(info.value.__cause__, EdgeOutOfRange)


def test_gate_plane_and_its_mirror_image_split_as_the_object_split(gate_texts):
    tiles = document.parse(gate_texts["plane"]).tiles
    assert len(tiles) == 972
    for xy in (0.5 * tiles.xy, 0.5 * tiles.xy[:, ::-1] * [-1.0, 1.0]):  # x -> -x turns each pose
        scaled = Tiles(xy, tiles.row, tiles.col, tiles.slot)
        want = [q for t in polygons(scaled) for q in oracles.fair_split(t)]
        assert _table(fair_split(scaled)) == _object_table(want)


def test_parsed_documents_match_the_json_parser(gate_texts):
    for name, text in gate_texts.items():
        doc = document.parse(text)
        kind, params, polys = oracles.parse(text)
        assert (doc.kind, doc.parameters) == (kind, params), name
        assert _table(doc.tiles) == _object_table(polys), name
        assert document.serialize(doc) == text


# ---------------------------------------------------------------------------
# refusals: the first offending tile raises what building it as an object raises

_TRI = [(0.0, 0.0), (2.0, 0.1), (0.9, 1.7)]
_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

# (tile shape, index, replacement vertices or None, id changes, corner code)
_REFUSALS = {
    "nan": (_TRI, 2, [(0.0, float("nan")), _TRI[1], _TRI[2]], {}, None),
    "inf": (_SQUARE, 3, [_SQUARE[0], (float("inf"), 0.0), *_SQUARE[2:]], {}, None),
    "clockwise": (_TRI, 1, _TRI[::-1], {}, None),
    "collinear": (_TRI, 2, [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], {}, None),
    "area at the floor": (_TRI, 2, [(0.0, 0.0), (1.0, 0.0), (0.0, 2e-14)], {}, None),
    "area above the floor": (_TRI, 2, [(0.0, 0.0), (1.0, 0.0), (0.0, 2.2e-14)], {}, None),
    "quadrangle clockwise": (_SQUARE, 2, _SQUARE[::-1], {}, None),
    "repeated vertex": (_SQUARE, 2, [_SQUARE[0], _SQUARE[1], _SQUARE[1], _SQUARE[3]], {}, None),
    "self-crossing": (_SQUARE, 1, [(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (3.0, 1.0)], {}, None),
    "corner code": (_SQUARE, 2, None, {}, 7),
    "slot 5": (_TRI, 2, None, {"slot": 5}, None),
    "slot 0": (_SQUARE, 1, None, {"slot": 0}, None),
    "centre slot 2": (_TRI, 2, None, {"col": 0, "slot": 2}, None),
    "centre slot 3": (_SQUARE, 3, None, {"col": 0, "slot": 3}, None),
    "slot 5 and nan": (_TRI, 2, [(0.0, float("nan")), _TRI[1], _TRI[2]], {"slot": 5}, None),
}


def _offending(shape, index, verts, ids, code):
    """Five tiles of one shape, tile ``index`` changed, and a second offence
    (clockwise order) on the last tile, which must never be the one named."""
    xy = np.array([[(x + 3.0 * k, y) for x, y in shape] for k in range(5)])
    if verts is not None:
        xy[index] = verts
    xy[4] = xy[4, ::-1]
    row, col, slot = (np.array(a, dtype=np.int64) for a in ([0] * 5, [1, 2, 3, 4, 5], [1] * 5))
    for key, value in ids.items():
        {"row": row, "col": col, "slot": slot}[key][index] = value
    corner = None
    if len(shape) == 4:
        corner = np.array([0, 1, 2, -1, 0], dtype=np.int8)
        if code is not None:
            corner[index] = code
    return xy, row, col, slot, corner


def _object_refusal(xy, row, col, slot, corner):
    """Type and message of the first polygon that fails to build, in order."""
    try:
        for i in range(len(xy)):
            code = -1 if corner is None else int(corner[i])
            polygon(None if row is None else (int(row[i]), int(col[i]), int(slot[i])),
                    CORNERS[code] if 0 <= code < 3 else (None if code == -1 else code),
                    xy[i].tolist())
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("case", _REFUSALS)
def test_refusals_match_the_polygon_constructors(case):
    arrays = _offending(*_REFUSALS[case])
    want = _object_refusal(*arrays)
    with pytest.raises(want[0]) as info:
        Tiles(*arrays)
    assert str(info.value) == want[1]
    # without the second offence the first one still decides, or none does
    good_last = [a.copy() if a is not None else None for a in arrays]
    good_last[0][4] = good_last[0][4, ::-1]
    want = _object_refusal(*good_last)
    if want is None:
        assert len(Tiles(*good_last)) == 5
    else:
        with pytest.raises(want[0], match=re.escape(want[1])):
            Tiles(*good_last)


@st.composite
def _tile_arrays(draw):
    """Up to six tiles of 3 or 4 vertices on a 4 x 4 grid at scale 1 or 3e-7,
    so collinear, clockwise, zero-edge and self-crossing tiles are common;
    some coordinates non-finite, ids (bad and column-0 slots among them) on
    all or none, and corner codes, bad ones among them, on some quadrangles."""
    n, count = draw(st.sampled_from([3, 4])), draw(st.integers(1, 6))
    grid = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n)
    xy = draw(st.sampled_from([1.0, 3e-7])) * np.array(
        draw(st.lists(grid, min_size=count, max_size=count)), dtype=float)
    for _ in range(draw(st.integers(0, 2))):
        xy[draw(st.integers(0, count - 1)), draw(st.integers(0, n - 1)),
           draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))

    def column(values, dtype=np.int64):
        return np.array(draw(st.lists(values, min_size=count, max_size=count)), dtype=dtype)

    ids = (None,) * 3
    if draw(st.booleans()):
        ids = (column(st.integers(-2, 2)), column(st.sampled_from([-1, 0, 0, 1, 2])),
               column(st.sampled_from([1, 2, 3, 4, 1, 4, 0, 5])))
    corner = column(st.sampled_from([-1, 0, 1, 2, -2, 3]), np.int8) \
        if n == 4 and draw(st.booleans()) else None
    return xy, *ids, corner


@given(_tile_arrays())
@settings(max_examples=500, deadline=None)
def test_random_refusals_match_the_polygon_constructors(arrays):
    want = _object_refusal(*arrays)
    if want is None:
        assert len(Tiles(*arrays)) == len(arrays[0])
    else:
        with pytest.raises(want[0]) as info:
            Tiles(*arrays)
        assert type(info.value) is want[0] and str(info.value) == want[1]


def test_records_refuse_bad_shapes_and_corners_on_triangles():
    xy = np.array([_TRI])
    with pytest.raises(InvalidParameter):
        Tiles(xy, corner=np.array([0], dtype=np.int8))
    with pytest.raises(InvalidParameter):
        Tiles(np.zeros((2, 5, 2)))


# ---------------------------------------------------------------------------
# the document parser against the per-line json parser, line by mutated line


def _small_texts():
    plane = pipeline.build_plane(0.05, 4, 1, 1).doc
    quads = pipeline.quad_document(quadify_plane(oracles.take(plane.tiles, slice(3))), plane)
    return [document.serialize(pipeline.strip_document(strip_tiling(0.2, 1))),
            document.serialize(quads), document.serialize(plane)]


_TEXTS = _small_texts()
_COORDS = ["nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "1_0", "\\u0031", "-0", "0",
           "0.5", "1.5e+3", " 1", "1 ", "", "abc", "0x10", "1e", "--1", "1.", ".5"]
_IDS = ["1.0", "true", "false", "null", "-0", "0", "1", "2", "3", "4", "5", "-7", '"1"', "1e0",
        "01", " 2", "[]"]


def _mutate(line: str, kind: str, draw) -> str:
    obj = json.loads(line)
    n = len(obj["vertices"])
    if kind == "coordinate":  # stays in template form when the value is a numeral
        head, tail = line.split('"vertices":')
        k = draw(st.integers(0, 2 * n - 1))
        value = draw(st.sampled_from(_COORDS) | st.floats(allow_nan=False).map(repr))
        m = list(re.finditer(r'"[^"]*"', tail))[k]
        return f'{head}"vertices":{tail[:m.start()]}"{value}"{tail[m.end():]}'
    if kind == "id":
        key = draw(st.sampled_from(["row", "col", "slot"]))
        return re.sub(f'"{key}":[^,}}]*', f'"{key}":' + draw(st.sampled_from(_IDS)), line)
    if kind == "reorder":
        obj["id"] = dict(reversed(list(obj["id"].items())))
        return json.dumps(dict(reversed(list(obj.items()))), separators=(",", ":"))
    if kind == "whitespace":
        return draw(st.sampled_from([json.dumps(obj, sort_keys=True), " " + line, line + " ",
                                     line + "\r", line.replace(",", ", ", 1)]))
    if kind == "truncate":
        return line[:draw(st.integers(0, len(line) - 1))]
    if kind == "vertices":
        v = obj["vertices"]
        obj["vertices"] = draw(st.sampled_from([v[:-1], v + [v[0]], v + [["7", "7"]], v[::-1],
                                                [v[0], v[0], *v[2:]], [v[0]] + v[:-1], []]))
    if kind == "corner":
        corner = draw(st.sampled_from(["A", "B", "C", "D", "", None, 1, "a"]))
        if corner is None:
            obj["id"].pop("corner", None)
        else:
            obj["id"]["corner"] = corner
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _outcome_of_parse(text):
    try:
        doc = document.parse(text)
    except Exception as e:
        return type(e).__name__, str(e)
    return doc.kind, doc.parameters, _table(doc.tiles)


def _outcome_of_oracle(text):
    try:
        kind, params, polys = oracles.parse(text)
    except Exception as e:
        return type(e).__name__, str(e)
    return kind, params, _object_table(polys)


_KINDS = ["coordinate", "id", "reorder", "whitespace", "truncate", "vertices", "corner"]
# header edits, so that tile refusals meet version, kind and vertex-count refusals
_HEADERS = [None] * 4 + [('"format_version":"1"', '"format_version":"9"'),
                         ('"kind":"strip"', '"kind":"quad"'), ('"kind":"quad"', '"kind":"plane"'),
                         ('"kind":"strip"', '"kind":"blob"')]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_parse_agrees_with_the_json_parser_on_mutated_lines(data):
    text = data.draw(st.sampled_from(_TEXTS))
    lines = text.split("\n")
    for k in data.draw(st.lists(st.integers(1, len(lines) - 2), min_size=1, max_size=2,
                                unique=True)):
        lines[k] = _mutate(lines[k], data.draw(st.sampled_from(_KINDS)), data.draw)
    edit = data.draw(st.sampled_from(_HEADERS))
    if edit:
        lines[0] = lines[0].replace(*edit)
    mutated = "\n".join(lines)
    assert _outcome_of_parse(mutated) == _outcome_of_oracle(mutated)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parse_refuses_a_repeated_tile_id(data):
    lines = data.draw(st.sampled_from(_TEXTS)).split("\n")
    src, dst = data.draw(st.lists(st.integers(1, len(lines) - 2), min_size=2, max_size=2,
                                  unique=True))
    # the copy in template form, or in json form, which sends every line through json
    lines[dst] = lines[src].replace(",", ", ") if data.draw(st.booleans()) else lines[src]
    tid = json.loads(lines[src])["id"]
    label = "/".join(str(tid[k]) for k in ("row", "col", "slot", "corner") if k in tid)
    with pytest.raises(document.DocumentError) as info:
        document.parse("\n".join(lines))
    assert str(info.value) == (f"duplicate tile id {label} on lines {min(src, dst) + 1} "
                               f"and {max(src, dst) + 1}")


def _with_fault(line: str, fault: str) -> str:
    """A tile line in ``json`` form (so the whole document is read through
    ``json``) with one fault."""
    obj = json.loads(line)
    v, tid, quad = obj["vertices"], obj["id"], len(obj["vertices"]) == 4
    if fault == "json":
        return json.dumps(obj)[:-1]
    if fault == "id type":
        tid["col"] = float(tid["col"])
    elif fault == "numeral":
        v[1][0] = "abc"
    elif fault == "vertex pair":
        v[0] = v[0][:1]
    elif fault == "vertex count":
        v += v[:2]
    elif fault == "kind" and quad:  # a triangle in a quad document
        del v[-1], tid["corner"]
    elif fault == "kind":  # a quadrangle among triangles: a vertex added mid-edge
        v.append([fmt17((float(v[2][k]) + float(v[0][k])) / 2) for k in (0, 1)])
    elif fault == "corner":
        tid["corner"] = "D" if quad else "A"
    elif fault == "slot":
        tid["slot"] = 5
    elif fault == "centre slot":
        tid["col"], tid["slot"] = 0, 2
    elif fault == "non-finite":
        v[2][1] = "inf"
    elif fault == "clockwise":
        v.reverse()
    elif fault == "collinear":
        x, y = map(float, v[0])
        v[:] = [[fmt17(x + k), fmt17(y)] for k in range(len(v))]
    elif fault == "repeated vertex":
        v[1] = v[0]
    elif fault == "crossing":
        v[1], v[2] = v[2], v[1]
    return json.dumps(obj)


_FAULTS = ["json", "id type", "numeral", "vertex pair", "vertex count", "kind", "corner",
           "slot", "centre slot", "non-finite", "clockwise", "collinear", "repeated vertex",
           "crossing"]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_parse_refuses_one_fault_as_the_polygons_do(data):
    text = data.draw(st.sampled_from(_TEXTS))
    header, *lines = text.rstrip("\n").split("\n")
    fault = data.draw(st.sampled_from(_FAULTS if "quad" in header else _FAULTS[:-1]))
    k = data.draw(st.integers(0, len(lines) - 1))
    lines = [_with_fault(ln, fault) if i == k else json.dumps(json.loads(ln))
             for i, ln in enumerate(lines)]
    faulty = "\n".join([header, *lines]) + "\n"
    got, want = _outcome_of_parse(faulty), _outcome_of_oracle(faulty)
    assert got == want and len(got) == 2, fault  # (type name, message): refused


def test_ids_beyond_64_bits_are_refused_on_both_paths():
    header, first, *rest = _TEXTS[0].split("\n")
    huge = first.replace('"row":0', '"row":99999999999999999999')
    for line in (huge, huge.replace(",", ", ")):  # template form, then json form
        with pytest.raises(document.DocumentError, match="too large"):
            document.parse("\n".join([header, line, *rest]))


# ---------------------------------------------------------------------------
# the chunked template reader against the json path, and the distinct-value writer

_POOL = [0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, -2.75e-8, 1e-7, 1e22, -3e21, 5e-324, 1.5e300]
_SCALES = [1.0, 0.25, 1e-3, 7.0, 3e5]
_UNIT = {3: [(0, 0), (1, 0), (0, 1)], 4: [(0, 0), (1, 0), (1, 1), (0, 1)]}
# numerals and ids the reader's grammar takes although %.17g and the writer
# never write them, and ones it leaves to json
_ACCEPTED = {"numeral": ["1.50", "007", "1e+5", "-0.0", "2.5e-3"], "id": ["-0", "-12"]}
_FALLBACK = {"numeral": ["inf", "1_0", " 1", "0x1p3", "1E5", "٣"],
             "id": ["01", "+1", "1.0", "1٣"]}


def _header(kind):
    return '{"format_version":"1","kind":"%s","parameters":{}}' % kind


@st.composite
def _records(draw):
    """Document text of up to 12 tiles with ids of either sign, each a unit
    shape scaled and moved to a corner drawn from a small pool, so values
    repeat and -0.0 and exponent forms occur."""
    n = draw(st.sampled_from([3, 4]))
    ids = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 4),
                                  st.sampled_from("ABC") if n == 4 else st.none()),
                        min_size=1, max_size=12, unique=True))
    lines = [_header("quad" if n == 4 else draw(st.sampled_from(["strip", "plane"])))]
    for row, col, slot, corner in ids:
        (x0, y0), s = draw(st.tuples(*[st.sampled_from(_POOL)] * 2)), draw(st.sampled_from(_SCALES))
        xy = [[fmt17(x0 + s * u if u else x0), fmt17(y0 + s * v if v else y0)]
              for u, v in _UNIT[n]]
        tid = {"row": row, "col": col, "slot": slot, **({"corner": corner} if corner else {})}
        lines.append(json.dumps({"id": tid, "vertices": xy}, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _with_value(line, field, value, draw):
    """The line with one numeral, or one id, replaced by ``value`` as is."""
    if field == "id":
        key = draw(st.sampled_from(["row", "col", "slot"]))
        return re.sub(f'"{key}":[^,}}]*', f'"{key}":{value}', line)
    head, tail = line.split('"vertices":')
    m = list(re.finditer(r'"[^"]*"', tail))[draw(st.integers(0, tail.count('"') // 2 - 1))]
    return f'{head}"vertices":{tail[:m.start()]}"{value}"{tail[m.end():]}'


def _read_by_template(text):
    """The outcome of ``document.parse``, and whether any line went through json."""
    with mock.patch.object(document, "_tile_fields", wraps=document._tile_fields) as json_path:
        outcome = _outcome_of_parse(text)
    return outcome, json_path.called


@given(_records())
@settings(max_examples=300, deadline=None)
def test_template_reader_reads_random_records_as_json_does(text):
    assert _read_by_template(text) == (_outcome_of_oracle(text), False)


@given(_records(), st.sampled_from(["numeral", "id"]), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_template_reader_takes_its_grammar_and_leaves_the_rest_to_json(text, field, accepted,
                                                                      data):
    value = data.draw(st.sampled_from((_ACCEPTED if accepted else _FALLBACK)[field]))
    lines = text.split("\n")
    k = data.draw(st.integers(1, len(lines) - 2))
    lines[k] = _with_value(lines[k], field, value, data.draw)
    edited = "\n".join(lines)
    assert _read_by_template(edited) == (_outcome_of_oracle(edited), not accepted), value


@given(_records(), st.sampled_from(["", " ", "\t", "\r"]), st.data())
@settings(max_examples=100, deadline=None)
def test_blank_lines_and_crlf_endings_read_as_json_does(text, blank, data):
    lines = text.split("\n")
    k = data.draw(st.integers(1, len(lines) - 1))
    with_blank = "\n".join(lines[:k] + [blank] + lines[k:])
    assert _read_by_template(with_blank) == (_outcome_of_oracle(with_blank), blank != "")
    crlf = text.replace("\n", "\r\n")
    assert _read_by_template(crlf) == (_outcome_of_oracle(crlf), True)


@pytest.fixture(scope="module")
def long_text():
    """A strip document of more than two reading chunks."""
    text = document.serialize(pipeline.strip_document(strip_tiling(0.005, 420)))
    assert len(text) > 512 * 1024
    assert _read_by_template(text) == (_outcome_of_oracle(text), False)
    return text


@given(st.sampled_from(["numeral", "id"]), st.data())
@settings(max_examples=20, deadline=None)
def test_one_bad_line_past_the_first_chunk_sends_the_document_to_json(long_text, field, data):
    lines = long_text.split("\n")
    first = long_text.count("\n", 0, 1 << 18) + 1  # lines that start in the first chunk
    k = data.draw(st.integers(first + 1, len(lines) - 2))
    lines[k] = _with_value(lines[k], field, data.draw(st.sampled_from(_FALLBACK[field])),
                           data.draw)
    edited = "\n".join(lines)
    outcome, through_json = _read_by_template(edited)
    assert through_json and outcome == _outcome_of_oracle(edited)


def test_writer_keeps_every_bit():
    third = 1 / 3
    xy = np.array([[(0.0, -0.0), (1.0, 0.0), (third, 1.0)],
                   [(-0.0, 0.0), (1.0, -0.0), (np.nextafter(third, 1.0), 1.0)]])
    doc = document.TilingDocument("strip", {}, Tiles(xy, *np.array([[0, 0], [1, 2], [1, 1]])))
    assert len(set(xy.view(np.int64).ravel().tolist())) == 5  # 0.0 and -0.0, third and its ulp
    text = document.serialize(doc)
    assert text == oracles.serialize(doc)
    assert _table(document.parse(text).tiles) == _table(doc.tiles)


# ---------------------------------------------------------------------------
# the strip path builds no per-tile views


def test_strip_generation_and_verification_build_no_triangles(tmp_path, monkeypatch):
    from fairtile import geometry

    built, tile_view = [], geometry.Tile
    monkeypatch.setattr(geometry, "Tile", lambda *view: built.append(tile_view(*view)) or built[-1])
    path = tmp_path / "strip.tiles"
    _run("gen-strip", "--y0", "0.005", "--cols", "200", "--out", path)
    _run("verify", "--in", path, "--check", "area", "--check", "contraction",
         "--check", "identity")
    assert built == []
    tile = document.read_document(path).tiles[7]
    assert tile.label == "0/-199/4" and built == [tile]  # the counter sees a view built on demand
