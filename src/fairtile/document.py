"""Line-delimited text documents for tilings.

A document is JSON Lines: one header object with the format version, the
document kind (``strip``, ``plane`` or ``quad``) and a parameter map,
followed by one object per tile carrying its id and vertices.  Coordinates
are serialized as decimal strings with 17 significant digits, which
round-trips binary64 exactly; parsing and re-serializing a document
reproduces it byte for byte.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import DocumentError, InvalidParameter
from .geometry import CORNERS, Tiles, _label

__all__ = [
    "FORMAT_VERSION",
    "KINDS",
    "TilingDocument",
    "fmt17",
    "make_parameters",
    "serialize",
    "parse",
    "write_document",
    "read_document",
]

FORMAT_VERSION = "1"
KINDS = ("strip", "plane", "quad")
_VERTEX_COUNT = {"strip": 3, "plane": 3, "quad": 4}


def fmt17(x: float) -> str:
    """Decimal string with 17 significant digits (lossless for binary64)."""
    return format(float(x), ".17g")


def make_parameters(**kwargs) -> dict:
    """Parameter map with floats rendered as lossless decimal strings.

    Ints and strings pass through, floats and float sequences become
    17-digit strings, None values are dropped.
    """
    out: dict = {}
    for key, value in kwargs.items():
        if value is None:
            continue
        if isinstance(value, bool) or isinstance(value, int):
            out[key] = value
        elif isinstance(value, float):
            out[key] = fmt17(value)
        elif isinstance(value, str):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [fmt17(v) for v in value]
        else:
            raise DocumentError(f"unsupported parameter type for {key!r}: {type(value)}")
    return out


@dataclass
class TilingDocument:
    kind: str
    parameters: dict
    tiles: Tiles
    format_version: str = FORMAT_VERSION

    def float_param(self, key: str) -> float:
        try:
            return float(self.parameters[key])
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"missing or malformed parameter {key!r}") from e

    def int_param(self, key: str) -> int:
        value = self.parameters.get(key)
        if type(value) is not int:  # refuses floats, strings and booleans alike
            raise DocumentError(f"missing or malformed parameter {key!r}, got {value!r}")
        return value


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@functools.cache
def _tile_template(cornered: bool, n_vertices: int) -> str:
    """The %-template of a tile line: the bytes :func:`_dump` writes for
    ``{"id": ..., "vertices": [[fmt17(x), fmt17(y)], ...]}``, keys sorted,
    since ids are integers and corners are validated as A, B or C."""
    corner = '"corner":"%s",' if cornered else ""
    return ('{"id":{"col":%d,' + corner + '"row":%d,"slot":%d},"vertices":['
            + ",".join(['["%.17g","%.17g"]'] * n_vertices) + "]}")


@functools.cache
def _tile_pattern(n_vertices: int) -> re.Pattern:
    """The lines :func:`_tile_template` writes, a quadrangle's corner optional:
    ids as JSON integers, coordinates as ``%.17g`` numerals, grouped in order."""
    text = re.escape(_tile_template(n_vertices == 4, n_vertices)).replace(
        '"corner":"%s",', '(?:"corner":"([ABC])",)?').replace("%d", r"(-?(?:0|[1-9]\d*))")
    return re.compile("^" + text.replace(r"%\.17g", r"(-?\d+(?:\.\d+)?(?:e[-+]\d+)?)") + "$", re.M)


def serialize(doc: TilingDocument) -> str:
    if doc.kind not in KINDS:
        raise DocumentError(f"unknown document kind {doc.kind!r}")
    lines = [_dump({
        "format_version": doc.format_version,
        "kind": doc.kind,
        "parameters": doc.parameters,
    })]
    tiles = doc.tiles
    if tiles.row is None:
        raise DocumentError("document tiles need ids")
    n = tiles.xy.shape[1]
    codes = [-1] * len(tiles) if tiles.corner is None else tiles.corner.tolist()
    for col, code, row, slot, xy in zip(tiles.col.tolist(), codes, tiles.row.tolist(),
                                        tiles.slot.tolist(), tiles.xy.reshape(-1, 2 * n).tolist()):
        ids = (col, row, slot) if code < 0 else (col, CORNERS[code], row, slot)
        lines.append(_tile_template(code >= 0, n) % (*ids, *xy))
    return "\n".join(lines) + "\n"


def _tile_fields(line: str):
    """(row, col, slot, corner code, vertices) of a tile line read through
    ``json``, its id types, vertex pairs and count and its corner checked."""
    obj = json.loads(line)
    id_obj = obj["id"]
    for key in ("row", "col", "slot"):
        if type(id_obj[key]) is not int:  # refuses floats, strings and booleans alike
            raise DocumentError(f"tile id field {key!r} must be an integer, got {id_obj[key]!r}")
    corner = id_obj.get("corner")
    xy = [(float(x), float(y)) for x, y in obj["vertices"]]
    if len(xy) not in (3, 4):
        raise DocumentError(f"tiles must have 3 or 4 vertices, got {len(xy)}")
    if corner is not None and len(xy) == 3:
        raise DocumentError("corner labels belong to quadrangle tiles")
    if corner is not None and corner not in CORNERS:
        raise InvalidParameter(f"corner must be one of {CORNERS}, got {corner!r}")
    return id_obj["row"], id_obj["col"], id_obj["slot"], CORNERS.index(corner) if corner else -1, xy


def _read_tiles(text: str, start: int, kind):
    """The record of the tiles on the lines from ``start`` on, or None for an
    unknown ``kind``.  When every line has the template form, ids and
    coordinates are read with ``int`` and ``float`` as ``json`` would read
    them; else every line is read through ``json`` and checked, then each
    tile's vertex count against the kind's, then the record is built."""
    n = _VERTEX_COUNT[kind] if kind in KINDS else None
    parts, rows, pos, c = [], [], start, int(n == 4)

    def convert():  # the rows so far as the arrays of a record, a chunk at a time
        fields = list(zip(*rows)) or [()] * (3 + c + 2 * n)
        xy = np.array([list(map(float, f)) for f in fields[-2 * n:]]).T.reshape(-1, n, 2)
        ids = [np.array(list(map(int, fields[k])), dtype=np.int64) for k in (1 + c, 0, 2 + c)]
        corner = [-1 if x is None else CORNERS.index(x) for x in fields[1]] if c else None
        parts.append([xy, *ids, None if corner is None else np.array(corner, dtype=np.int8)])
        rows.clear()

    for m in _tile_pattern(n).finditer(text, start) if n else ():
        if text[pos:m.start()].strip("\n"):  # a line not in template form
            break
        rows.append(m.groups())
        pos = m.end()
        if len(rows) == 4096:
            convert()
    else:
        if n and not text[pos:].strip("\n"):
            convert()
            return Tiles(*(None if a[0] is None else np.concatenate(a) for a in zip(*parts)))
    tiles = [_tile_fields(line) for line in text[start:].split("\n") if line]
    if n is None:
        return None
    for row, col, slot, code, xy in tiles:
        if len(xy) != n:
            raise DocumentError(f"{kind} documents hold {n}-vertex tiles; "
                                f"tile {_label(row, col, slot, code)} has {len(xy)}")
    *ids, code, xy = zip(*tiles)
    return Tiles(np.array(xy, dtype=float), *(np.array(f, dtype=np.int64) for f in ids),
                 np.array(code, dtype=np.int8) if c else None)


def parse(text: str) -> TilingDocument:
    start = len(text) - len(text.lstrip("\n"))
    if start == len(text):
        raise DocumentError("empty document")
    end = text.find("\n", start) % (len(text) + 1)  # the header line; -1 when it is the last
    try:
        header = json.loads(text[start:end])
        version = header["format_version"]
        kind = header["kind"]
        parameters = header["parameters"]
        tiles = _read_tiles(text, end + 1, kind)
    except DocumentError:
        raise
    except Exception as e:
        raise DocumentError(f"malformed document: {e}") from e
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {version!r}")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    keys = [k for k in (tiles.corner, tiles.slot, tiles.col, tiles.row) if k is not None]
    order = np.lexsort(keys)  # stable: the tiles of one id stay in document order
    same = np.flatnonzero(np.logical_and.reduce([k[order[1:]] == k[order[:-1]] for k in keys]))
    if len(same):
        d = same[np.argmin(order[same + 1])]  # the first line that repeats an id
        first, again = order[d].item(), order[d + 1].item()
        lines = [n for n, line in enumerate(text.split("\n"), 1) if line]  # header, then tiles
        raise DocumentError(f"duplicate tile id {tiles.label(first)} on lines "
                            f"{lines[first + 1]} and {lines[again + 1]}")
    return TilingDocument(kind=kind, parameters=parameters, tiles=tiles,
                          format_version=version)


def write_document(doc: TilingDocument, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(doc))


def read_document(path) -> TilingDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DocumentError(f"{path} is not UTF-8 text: {e}") from e
    return parse(text)
