"""Line-delimited text documents for tilings.

A document is JSON Lines: one header object with the format version, the
document kind (``strip``, ``plane`` or ``quad``) and a parameter map,
followed by one object per tile carrying its id and vertices.  Coordinates
are serialized as decimal strings with 17 significant digits, which
round-trips binary64 exactly; parsing and re-serializing a document
reproduces it byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DocumentError
from .geometry import Point, Quadrangle, TileId, Triangle, tile_label

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
    tiles: list
    format_version: str = FORMAT_VERSION

    def float_param(self, key: str) -> float:
        try:
            return float(self.parameters[key])
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"missing or malformed parameter {key!r}") from e

    def int_param(self, key: str) -> int:
        try:
            return int(self.parameters[key])
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"missing or malformed parameter {key!r}") from e

    def float_list(self, key: str) -> list[float]:
        try:
            return [float(v) for v in self.parameters[key]]
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"missing or malformed parameter {key!r}") from e


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def serialize(doc: TilingDocument) -> str:
    if doc.kind not in KINDS:
        raise DocumentError(f"unknown document kind {doc.kind!r}")
    lines = [_dump({
        "format_version": doc.format_version,
        "kind": doc.kind,
        "parameters": doc.parameters,
    })]
    for tile in doc.tiles:
        tid = tile.id
        if tid is None:
            raise DocumentError("document tiles need ids")
        id_obj: dict = {"row": tid.row, "col": tid.col, "slot": tid.slot}
        corner = getattr(tile, "corner", None)
        if corner is not None:
            id_obj["corner"] = corner
        lines.append(_dump({
            "id": id_obj,
            "vertices": [[fmt17(v.x), fmt17(v.y)] for v in tile.vertices],
        }))
    return "\n".join(lines) + "\n"


def _parse_tile(obj) -> Triangle | Quadrangle:
    id_obj = obj["id"]
    tid = TileId(int(id_obj["row"]), int(id_obj["col"]), int(id_obj["slot"]))
    corner = id_obj.get("corner")
    pts = [Point(float(x), float(y)) for x, y in obj["vertices"]]
    if len(pts) == 3:
        if corner is not None:
            raise DocumentError("corner labels belong to quadrangle tiles")
        return Triangle(*pts, id=tid)
    if len(pts) == 4:
        return Quadrangle(tuple(pts), id=tid, corner=corner)
    raise DocumentError(f"tiles must have 3 or 4 vertices, got {len(pts)}")


def parse(text: str) -> TilingDocument:
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise DocumentError("empty document")
    try:
        header = json.loads(lines[0])
        version = header["format_version"]
        kind = header["kind"]
        parameters = header["parameters"]
        tiles = [_parse_tile(json.loads(ln)) for ln in lines[1:]]
    except DocumentError:
        raise
    except Exception as e:
        raise DocumentError(f"malformed document: {e}") from e
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {version!r}")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    for tile in tiles:
        if len(tile.vertices) != _VERTEX_COUNT[kind]:
            raise DocumentError(
                f"{kind} documents hold {_VERTEX_COUNT[kind]}-vertex tiles; "
                f"tile {tile_label(tile)} has {len(tile.vertices)}")
    return TilingDocument(kind=kind, parameters=parameters, tiles=tiles,
                          format_version=version)


def write_document(doc: TilingDocument, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(doc))


def read_document(path) -> TilingDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
