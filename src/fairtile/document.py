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
    "write_text",
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
def _tile_template(n_vertices: int) -> str:
    """The %-template of a tile line and its newline: the bytes :func:`_dump`
    writes for ``{"id": ..., "vertices": [[fmt17(x), fmt17(y)], ...]}``, keys
    sorted, filled with integer ids, the corner entry (``"corner":"A",`` or
    nothing) and the 17-digit numerals."""
    return ('{"id":{"col":%d,%s"row":%d,"slot":%d},"vertices":['
            + ",".join(['["%s","%s"]'] * n_vertices) + "]}\n")


@functools.cache
def _tile_pattern(n_vertices: int) -> re.Pattern:
    """The lines :func:`_tile_template` writes, a quadrangle's corner optional,
    with each id and numeral captured up to the delimiter that ends it; a
    match whose captures pass :data:`_ID` and :data:`_NUMERAL` is one line."""
    corner = '(?:"corner":"([ABC])",)?' if n_vertices == 4 else ""
    text = re.escape(_tile_template(n_vertices)[:-1]).replace('%s"row"', corner + '"row"')
    return re.compile("^" + text.replace('"%s"', '"([^"]*)"').replace("%d", "([^,}]*)") + "$",
                      re.M)


_ID = re.compile(r"-?(?:0|[1-9]\d*)", re.A)  # a JSON integer
_NUMERAL = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?", re.A)  # what %.17g writes, and more
_CORNER_ENTRY = np.array(['"corner":"%s",' % c for c in CORNERS] + [""], dtype=object)


def serialize(doc: TilingDocument) -> str:
    if doc.kind not in KINDS:
        raise DocumentError(f"unknown document kind {doc.kind!r}")
    header = _dump({
        "format_version": FORMAT_VERSION,
        "kind": doc.kind,
        "parameters": doc.parameters,
    })
    tiles = doc.tiles
    if tiles.row is None:
        raise DocumentError("document tiles need ids")
    count, n = tiles.xy.shape[:2]
    # each distinct coordinate formatted once; its bits keep -0.0 apart from 0.0
    bits, inverse = np.unique(tiles.xy.reshape(-1).view(np.int64), return_inverse=True)
    numerals = np.array([fmt17(x) for x in bits.view(np.float64).tolist()], dtype=object)
    fields = np.empty((count, 4 + 2 * n), dtype=object)
    fields[:, 0], fields[:, 2], fields[:, 3] = tiles.col, tiles.row, tiles.slot
    fields[:, 1] = "" if tiles.corner is None else _CORNER_ENTRY[tiles.corner]  # -1: none
    fields[:, 4:] = numerals[inverse].reshape(count, 2 * n)
    return f"{header}\n" + "".join([_tile_template(n)] * count) % tuple(fields.ravel().tolist())


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
    unknown ``kind``.  While every line of a chunk has the template form, its
    ids and coordinates are read with ``int`` and ``float`` as ``json`` would
    read them, each distinct one once; else every line is read through
    ``json`` and checked, then each tile's vertex count against the kind's,
    then the record is built."""
    n = _VERTEX_COUNT[kind] if kind in KINDS else None
    parts, pos, c = [], start, int(n == 4)
    while n:  # about 256 KB of whole lines at a time
        end = text.find("\n", pos + (1 << 18)) + 1 or len(text)
        rows = _tile_pattern(n).findall(text, pos, end)
        lines = text[pos:end].split("\n")
        fields = list(zip(*rows)) or [()] * (3 + c + 2 * n)
        ids, numerals = set().union(fields[0], *fields[1 + c:3 + c]), set().union(*fields[3 + c:])
        if (len(rows) != len(lines) - lines.count("") or not all(map(_ID.fullmatch, ids))
                or not all(map(_NUMERAL.fullmatch, numerals))):
            break  # a line not in template form
        floats, ints = dict(zip(numerals, map(float, numerals))), dict(zip(ids, map(int, ids)))
        xy = np.array([list(map(floats.__getitem__, f)) for f in fields[3 + c:]]).T.reshape(-1, n, 2)
        parts.append([xy, *(np.array(list(map(ints.__getitem__, fields[k])), dtype=np.int64)
                            for k in (1 + c, 0, 2 + c)),
                      np.array([CORNERS.index(x) if x else -1 for x in fields[1]], np.int8)
                      if c else None])
        pos = end
        if pos >= len(text):
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
    return TilingDocument(kind=kind, parameters=parameters, tiles=tiles)


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over the old bytes of ``path`` (a truncating open
    frees old blocks, which can cost far more than the write), cut to length only
    where the old file was longer; links followed, inode and mode kept, no sync."""
    import os  # loaded with the interpreter; kept off the module-level imports
    data = text.encode("utf-8")  # before the file is touched
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    except BaseException:
        try:
            os.ftruncate(fd, 0)  # empty, so no reader takes a half-written file
        except OSError:
            pass  # the write's own error is the one to report
        raise
    finally:
        os.close(fd)


def write_document(doc: TilingDocument, path) -> None:
    write_text(path, serialize(doc))


def read_document(path) -> TilingDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DocumentError(f"{path} is not UTF-8 text: {e}") from e
    return parse(text)
