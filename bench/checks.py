"""Output checks written apart from the program.

Documents are read here with ``json`` and ``float`` alone, and every
property is recomputed with NumPy from the coordinates: nothing from
``fairtile`` is imported, so a fault in the program's own verify code
cannot hide a fault in its output.  Each check returns a list of
failures; an empty list means the document passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SQRT3 = math.sqrt(3.0)
P0 = 1.0 + math.sqrt(2.0) - math.sqrt(6.0) / 3.0
CONGRUENCE_TOL = 1e-9


@dataclass
class Doc:
    kind: str
    params: dict
    ids: list[tuple]
    verts: np.ndarray  # (N, k, 2)


def parse(text: str) -> Doc:
    lines = [ln for ln in text.split("\n") if ln]
    header = json.loads(lines[0])
    ids, verts = [], []
    for ln in lines[1:]:
        tile = json.loads(ln)
        i = tile["id"]
        ids.append((int(i["row"]), int(i["col"]), int(i["slot"]), i.get("corner")))
        verts.append([[float(x), float(y)] for x, y in tile["vertices"]])
    return Doc(kind=header["kind"], params=header["parameters"], ids=ids,
               verts=np.array(verts, dtype=float))


def load(path) -> Doc:
    return parse(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# geometry on (N, k, 2) vertex arrays


def _edges(v: np.ndarray) -> np.ndarray:
    return np.roll(v, -1, axis=1) - v


def signed_areas(v: np.ndarray) -> np.ndarray:
    x, y = v[:, :, 0], v[:, :, 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)


def side_lengths(v: np.ndarray) -> np.ndarray:
    return np.hypot(*np.moveaxis(_edges(v), 2, 0))


def turn_crosses(v: np.ndarray) -> np.ndarray:
    e = _edges(v)
    f = np.roll(e, -1, axis=1)
    return e[:, :, 0] * f[:, :, 1] - e[:, :, 1] * f[:, :, 0]


def _close_pairs(keys: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Index pairs whose key rows agree within ``tol`` in every component.

    Sweep and prune on the first component: only rows whose first
    components lie within ``tol`` of each other are compared in full.
    """
    order = np.argsort(keys[:, 0], kind="stable")
    k = keys[order]
    hi = np.searchsorted(k[:, 0], k[:, 0] + tol, side="right")
    out = []
    for i in np.nonzero(hi > np.arange(len(k)) + 1)[0]:
        for j in range(i + 1, hi[i]):
            if np.max(np.abs(k[i] - k[j])) <= tol:
                out.append((int(order[i]), int(order[j])))
    return out


def congruent_triangles(v: np.ndarray, tol: float = CONGRUENCE_TOL) -> list[tuple[int, int]]:
    """Side-side-side: sorted side-length triples within ``tol``."""
    return _close_pairs(np.sort(side_lengths(v), axis=1), tol)


def _distance_rows(q: np.ndarray) -> np.ndarray:
    """The 4 sides then 2 diagonals of a quadrangle, under each of the 8
    relabellings of its vertices by the dihedral group, shape (8, 6)."""
    rows = []
    for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
        for r in range(4):
            p = q[np.roll(order, -r)]
            sides = np.hypot(*(np.roll(p, -1, axis=0) - p).T)
            diags = np.hypot(*(p[2:] - p[:2]).T)
            rows.append(np.concatenate([sides, diags]))
    return np.array(rows)


def congruent_quadrangles(v: np.ndarray, tol: float = CONGRUENCE_TOL) -> list[tuple[int, int]]:
    """Pairs with equal side and diagonal lengths under some vertex relabelling.

    A bijection of the vertices that keeps all six pairwise distances
    extends to an isometry, so this is congruence, reflections included.
    Candidates are first pruned by their sorted side lengths.
    """
    out = []
    for a, b in _close_pairs(np.sort(side_lengths(v), axis=1), tol):
        ref = _distance_rows(v[a])[0]
        if np.min(np.max(np.abs(_distance_rows(v[b]) - ref), axis=1)) <= tol:
            out.append((a, b))
    return out


def _limit(name: str, residual: np.ndarray, tol: float) -> list[str]:
    worst = float(np.max(residual)) if residual.size else 0.0
    if not worst <= tol:
        return [f"{name}: worst residual {worst:.3e} exceeds {tol:.0e}"]
    return []


def _pairs_failure(name: str, pairs, ids) -> list[str]:
    if not pairs:
        return []
    a, b = pairs[0]
    return [f"{name}: {len(pairs)} congruent pair(s), e.g. {ids[a]} and {ids[b]}"]


# ---------------------------------------------------------------------------
# document checks


def check_plane(doc: Doc, rows: int, cols: int, epsilon: float) -> list[str]:
    """Plane documents: tile count, areas, lattice closeness, incongruence."""
    fails = []
    if doc.kind != "plane":
        return [f"plane: document kind is {doc.kind!r}"]
    expected = rows * (8 * cols + 2)
    if len(doc.ids) != expected or len(set(doc.ids)) != len(doc.ids):
        return [f"plane: {len(doc.ids)} tiles with {len(set(doc.ids))} distinct ids, "
                f"expected {expected}"]
    if doc.verts.shape[1] != 3:
        return [f"plane: tiles have {doc.verts.shape[1]} vertices"]
    fails += _limit("plane area", np.abs(signed_areas(doc.verts) - SQRT3), 1e-10)
    # nearest point of the lattice spanned by (2, 0) and (1, sqrt(3))
    x, y = doc.verts[:, :, 0], doc.verts[:, :, 1]
    m = np.round(y / SQRT3)
    parity = np.mod(m, 2.0)
    lattice_x = parity + 2.0 * np.round((x - parity) / 2.0)
    dev = np.maximum(np.abs(x - lattice_x), np.abs(y - m * SQRT3))
    worst = float(np.max(dev))
    if not worst < 2.0 * epsilon:
        fails.append(f"plane closeness: vertex {worst:.3e} from the lattice, "
                     f"bound {2.0 * epsilon:.3e}")
    fails += _pairs_failure("plane incongruence", congruent_triangles(doc.verts), doc.ids)
    return fails


def check_quad(doc: Doc, source: Doc) -> list[str]:
    """Quad documents: three per triangle, equal area and perimeter,
    strict convexity, incongruence."""
    if doc.kind != "quad":
        return [f"quad: document kind is {doc.kind!r}"]
    want = {(r, c, s, corner) for r, c, s, _ in source.ids for corner in "ABC"}
    if len(doc.ids) != 3 * len(source.ids) or set(doc.ids) != want:
        return [f"quad: {len(doc.ids)} quadrangles do not cover the "
                f"{len(source.ids)} source triangles three times"]
    if doc.verts.shape[1] != 4:
        return [f"quad: tiles have {doc.verts.shape[1]} vertices"]
    s = float(doc.params["scale"])
    fails = []
    fails += _limit("quad area", np.abs(signed_areas(doc.verts) - SQRT3 * s * s / 3.0), 1e-9)
    fails += _limit("quad perimeter", np.abs(side_lengths(doc.verts).sum(axis=1) - P0), 1e-9)
    crosses = turn_crosses(doc.verts)
    if not np.all(crosses > 0.0):
        fails.append(f"quad convexity: {int(np.sum(np.any(crosses <= 0.0, axis=1)))} "
                     f"quadrangle(s) not strictly convex")
    fails += _pairs_failure("quad incongruence", congruent_quadrangles(doc.verts), doc.ids)
    return fails


def check_strip(doc: Doc, cols: int) -> list[str]:
    """Strip documents: unit areas, mirror symmetry about x = 0, and the
    boundary vertices on y = +-1."""
    if doc.kind != "strip":
        return [f"strip: document kind is {doc.kind!r}"]
    if len(doc.ids) != 8 * cols + 2 or doc.verts.shape[1] != 3:
        return [f"strip: {len(doc.ids)} tiles, expected {8 * cols + 2} triangles"]
    fails = _limit("strip area", np.abs(signed_areas(doc.verts) - 1.0), 1e-10)

    tiles = {frozenset(map(tuple, t)) for t in doc.verts.tolist()}
    mirrored = {frozenset((-x, y) for x, y in t) for t in tiles}
    if len(tiles) != len(doc.ids) or mirrored != tiles:
        fails.append(f"strip mirror: {len(mirrored - tiles)} tile(s) have no mirror image")

    y = doc.verts[:, :, 1]
    on_boundary = np.abs(y) == 1.0
    if np.any(np.abs(y) > 1.0) or not np.all(np.any(on_boundary, axis=1)):
        fails.append("strip boundary: a vertex lies outside y in [-1, 1] "
                     "or a tile has no vertex on the boundary")
    for side in (1.0, -1.0):
        xs = np.unique(doc.verts[:, :, 0][y == side])
        if xs.size != 2 * cols + 2:
            fails.append(f"strip boundary: {xs.size} distinct vertices on y = {side:+.0f}, "
                         f"expected {2 * cols + 2}")
    return fails


def check_output(check: dict, path) -> list[str]:
    """Dispatch on an operation's ``check`` entry from the workload plan."""
    doc = load(path)
    if check["kind"] == "plane":
        return check_plane(doc, check["rows"], check["cols"], check["epsilon"])
    if check["kind"] == "quad":
        return check_quad(doc, load(check["source"]))
    if check["kind"] == "strip":
        return check_strip(doc, check["cols"])
    raise ValueError(f"unknown check kind {check['kind']!r}")
