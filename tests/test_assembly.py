"""Scaling, shearing, shear certification, stacking, placement."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from fairtile import assembly
from fairtile.assembly import (
    SQRT3,
    StripTransform,
    periodic_triangles,
    row_order,
    scale_to_equilateral,
    select_shears,
    stack_plane,
)
from fairtile.congruence import (
    aligned_sweep,
    halfturn_key,
    halfturn_variants,
    signature_key,
    signature_variants,
)
from fairtile.errors import BoundaryMismatch, DegeneratePair, ExhaustedRetries, InvalidParameter
from fairtile import geometry
from fairtile.geometry import Tiles
from fairtile.pipeline import sample_certified_y0
from fairtile.strip import StripTiling, strip_tiling, window_tiles
from fairtile.verify import check_closeness, check_pairwise_incongruent, check_vertex_to_vertex
import oracles
from oracles import (TileId, area, critical_tiling, edge_lengths, ids_of, polygon, record,
                     reflect_x, shear, tile_ids, tile_label, translate, triangle_at, vertices_of)


# (epsilon, rows, cols, seed) of the gate planes
GATE_SHAPES = ((0.005, 6, 20, 42), (0.005, 3, 30, 11), (0.05, 10, 10, 7), (0.005, 16, 4, 42))


@pytest.fixture(scope="module")
def base():
    return scale_to_equilateral(strip_tiling(0.004, 6))


def window_base(cols):
    """The scaled base strip built at a window width; the recursion runs
    column by column, so its columns equal those of any wider base."""
    return scale_to_equilateral(strip_tiling(0.004, cols))


def test_scale_produces_near_equilateral_tiles(base):
    for tri in window_tiles(base):
        assert area(tri) == pytest.approx(SQRT3, abs=1e-10)
        for L in edge_lengths(tri):
            assert L == pytest.approx(2.0, abs=0.05)
    with pytest.raises(InvalidParameter):
        scale_to_equilateral(base)


def test_scale_preserves_halfturn_relation(base):
    unscaled = strip_tiling(0.004, 6)

    def collides(t, a, b):
        pair = [triangle_at(t, *a), triangle_at(t, *b)]
        return bool(aligned_sweep(record(pair), halfturn_variants, halfturn_key, 1e-9)[1])

    for a, b in [((1, 1), (-1, 1)), ((1, 2), (2, 2)), ((2, 3), (3, 3))]:
        assert collides(unscaled, a, b) == collides(base, a, b)


def test_shear_map():
    def shear_only(t, mu):
        place = StripTransform(mu, False, (0.0, 0.0)).place
        return [place(x, y) for x, y in t]

    t = [(0.0, 0.0), (2.0, 0.0), (1.0, SQRT3)]
    assert shear_only(t, 0.0) == t
    sheared = shear_only(t, 0.37)
    assert area(sheared) == pytest.approx(area(t), abs=1e-12)
    assert sheared[2] == (1 + 0.37 * SQRT3, SQRT3)


def test_row_order_and_shear_indices():
    assert row_order(6) == [0, 1, -1, 2, -2, 3]


def test_select_shears_budget_and_determinism():
    base = window_base(3)
    mus = select_shears(base, count=16, epsilon=0.1, rng=random.Random(7))
    assert len(mus) == 16
    assert sum(2 * SQRT3 * abs(m) for m in mus) < 0.1
    for n, mu in enumerate(mus, start=1):
        assert abs(mu) < (0.5 ** n) * 0.1 / (2 * SQRT3)
    again = select_shears(base, count=16, epsilon=0.1, rng=random.Random(7))
    assert mus == again


def _gate_shears(epsilon, rows, cols, seed):
    """The scaled gate base, its shears and each row's (draws, margin)."""
    rng = random.Random(seed)
    _, strip = sample_certified_y0(rng, cols, epsilon)
    base, accepted = scale_to_equilateral(strip), []
    return base, select_shears(base, rows, epsilon, rng, accepted), accepted


def test_selected_shears_clear_the_margin_floor():
    for shape in GATE_SHAPES:
        _, mus, accepted = _gate_shears(*shape)
        assert len(accepted) == len(mus) == shape[1]
        for draws, margin in accepted:
            assert 1 <= draws <= assembly._DRAWS_PER_ROW
            assert margin > assembly.MARGIN_FLOOR, shape


def test_smallest_row_margin_is_the_plane_margin():
    # the rows are swept sheared but unplaced; placing rounds each coordinate
    # once more, by half an ulp of its magnitude, and lengths and angles of
    # edge-2 triangles move by a few such ulps, so 8 ulps of the largest
    # coordinate bound the difference (row 0 is placed exactly)
    for epsilon, rows, cols, seed in GATE_SHAPES:
        base, mus, accepted = _gate_shears(epsilon, rows, cols, seed)
        tiles = stack_plane(base, mus, rows).tiles()
        plane = check_pairwise_incongruent(tiles).margin
        bound = 8.0 * math.ulp(float(np.max(np.abs(tiles.xy))))
        assert abs(min(m for _, m in accepted) - plane) <= bound, (rows, cols)


class _ScriptedRng:
    """Draws the listed values in turn, whatever the interval."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, lo, hi):
        return self.values.pop(0)


def test_select_shears_sweeps_the_new_row_against_the_fixed_rows():
    # the strip is mirror symmetric: the mirror of a tile sheared by -mu is
    # its mirror partner sheared by mu, so a row drawn at -mu repeats every
    # tile of a row fixed at mu, though each row alone is incongruent
    base, mu = window_base(6), 1e-4
    x, y = window_tiles(base).xy.T
    mirrored = Tiles(np.stack([x - mu * y, y]).T)
    assert aligned_sweep(mirrored, signature_variants, signature_key, 1e-9)[0] > 1e-6
    accepted = []
    mus = select_shears(base, 2, 0.01, _ScriptedRng([mu, -mu, 3e-5]), accepted)
    assert mus == [mu, 3e-5] and [d for d, _ in accepted] == [1, 2]
    assert check_pairwise_incongruent(stack_plane(base, mus, 2).tiles()).passed


def test_select_shears_sweeps_the_window_once(base, monkeypatch):
    # the critical strip's mirror columns agree up to a half-turn
    critical = scale_to_equilateral(critical_tiling(3))
    with pytest.raises(DegeneratePair):
        select_shears(critical, count=2, epsilon=0.01, rng=random.Random(0))
    calls = []
    monkeypatch.setattr(assembly, "bad_shear_set", lambda *pair: calls.append(pair))
    select_shears(base, count=2, epsilon=0.01, rng=random.Random(3))
    assert calls == []  # no per-pair root call on a window without degenerate pairs


def _shear_outcome(select, base, rows, epsilon, seed):
    """The shears by ``float.hex``, or the refusal's type and message."""
    try:
        return [m.hex() for m in select(base, rows, epsilon, random.Random(seed))]
    except (DegeneratePair, ExhaustedRetries) as e:
        return type(e).__name__, str(e)


def test_select_shears_matches_the_unfiltered_oracle():
    rng = random.Random(3)
    cases = []
    for _ in range(22):
        epsilon, rows = 10 ** rng.uniform(-6, -2), rng.randint(1, 8)
        strip = strip_tiling(10 ** rng.uniform(-6, -3), rng.randint(1, 12))
        cases.append((epsilon, rows, strip, rng.randrange(10 ** 6)))
    cases += [(0.0001, 6, strip_tiling(3e-4, 8), 1),
              (2.5e-6, 7, strip_tiling(3.2e-5, 6), 1),  # roots too dense for row 5
              (0.01, 3, critical_tiling(3), 0)]  # mirror columns agree up to a half-turn
    for epsilon, rows, cols, seed in GATE_SHAPES + ((0.005, 6, 40, 42),):
        _, strip = sample_certified_y0(random.Random(seed), cols, epsilon)
        cases.append((epsilon, rows, strip, seed))
    kinds = set()
    for epsilon, rows, strip, seed in cases:
        base = scale_to_equilateral(strip)
        got = _shear_outcome(select_shears, base, rows, epsilon, seed)
        assert got == _shear_outcome(oracles.select_shears, base, rows, epsilon, seed)
        kinds.add(got[0] if isinstance(got, tuple) else "shears")
    assert kinds == {"shears", "DegeneratePair", "ExhaustedRetries"}


def test_select_shears_solves_the_equilateral_roots_once(monkeypatch):
    equilateral_calls, sweeps = [], []  # sweeps: the fixed tiles of each row sweep
    real_equilateral, real_sweep = assembly.equilateral_shear_set, assembly.aligned_sweep

    def equilateral(tiles):
        equilateral_calls.append(len(tiles))
        return real_equilateral(tiles)

    def sweep(tiles, rows_of, key_of, quantum, fixed=None):
        if rows_of is signature_variants:
            sweeps.append(len(fixed))
        return real_sweep(tiles, rows_of, key_of, quantum, fixed)

    monkeypatch.setattr(assembly, "equilateral_shear_set", equilateral)
    monkeypatch.setattr(assembly, "aligned_sweep", sweep)
    for epsilon, rows, cols, seed in GATE_SHAPES:
        rng = random.Random(seed)
        _, strip = sample_certified_y0(rng, cols, epsilon)
        equilateral_calls.clear()
        sweeps.clear()
        accepted = []
        select_shears(scale_to_equilateral(strip), rows, epsilon, rng, accepted)
        n_tiles = len(window_tiles(strip))
        assert equilateral_calls == [n_tiles]
        # row n sweeps its draws against the n - 1 rows fixed before it
        assert sweeps == [(n - 1) * n_tiles for n, (draws, _) in enumerate(accepted, start=1)
                          for _ in range(draws)]
    # a window too dense for its budget sweeps every draw of the failing row
    equilateral_calls.clear()
    sweeps.clear()
    with pytest.raises(ExhaustedRetries, match=r"row parameter 5 \(strip row -2\) .*best margin"):
        select_shears(scale_to_equilateral(strip_tiling(1e-4, 6)), 7, 1e-5, random.Random(1))
    assert len(equilateral_calls) == 1
    assert sweeps.count(4 * 50) == assembly._DRAWS_PER_ROW


def test_select_shears_peaks_below_32_mib_at_6x40():
    # each draw sweeps one row against the fixed rows' stored signature
    # rows, (5 * 322, 6, 6) floats at most here: nothing grows as N^2
    rng = random.Random(5)
    _, strip = sample_certified_y0(rng, 40, 0.005)
    base = scale_to_equilateral(strip)
    tracemalloc.start()
    try:
        select_shears(base, 6, 0.005, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, f"select_shears peaked at {peak / 2 ** 20:.1f} MiB"


def test_stack_plane_transforms():
    base = window_base(4)
    mus = select_shears(base, count=4, epsilon=0.01, rng=random.Random(11))
    plane = stack_plane(base, mus, 4)
    assert plane.rows == (-1, 0, 1, 2)
    t0, t1 = plane.transforms[0], plane.transforms[1]
    assert not t0.reflected and t1.reflected
    assert t0.translation == (0.0, 0.0)
    # consecutive strips are joined by ((mu_first - mu_second)*sqrt(3), 2*sqrt(3))
    assert t1.translation[0] == pytest.approx((mus[0] - mus[1]) * SQRT3, abs=1e-15)
    assert t1.translation[1] == pytest.approx(2 * SQRT3, abs=1e-15)
    assert plane.transforms[-1].mu == mus[2]
    assert plane.transforms[2].mu == mus[3]
    assert not plane.transforms[2].reflected


def test_stack_plane_validation():
    base = window_base(4)
    mus = select_shears(base, count=4, epsilon=0.01, rng=random.Random(11))
    with pytest.raises(InvalidParameter):
        stack_plane(strip_tiling(0.004, 4), mus, 2)  # unscaled base
    with pytest.raises(InvalidParameter):
        stack_plane(base, mus[:2], 4)  # too few shears
    with pytest.raises(InvalidParameter):
        stack_plane(base, mus, 0)  # no rows


def test_boundary_sentinel_detects_corruption():
    base = window_base(3)
    mus = select_shears(base, count=3, epsilon=0.01, rng=random.Random(2))
    plane = stack_plane(base, mus, 3)
    broken = plane.transforms[1]
    plane.transforms[1] = assembly.StripTransform(
        mu=broken.mu, reflected=broken.reflected,
        translation=(broken.translation[0] + 1e-6, broken.translation[1]))
    with pytest.raises(BoundaryMismatch,
                       match=r"^boundary vertices of row 1 deviate by 1\.000e-06$"):
        assembly._assert_boundaries(plane)


def test_stacked_window_is_vertex_to_vertex():
    base = window_base(5)
    mus = select_shears(base, count=3, epsilon=0.01, rng=random.Random(5))
    plane = stack_plane(base, mus, 3)
    report = check_vertex_to_vertex(plane.tiles(), 1e-9)
    assert report.passed


def test_closeness_of_stacked_window():
    base = window_base(5)
    eps = 0.01
    mus = select_shears(base, count=3, epsilon=eps, rng=random.Random(5))
    plane = stack_plane(base, mus, 3)
    rep = check_closeness(plane.tiles(), eps)
    assert rep.passed
    assert rep.worst_residual < 2 * eps
    # second coordinates move by at most sqrt(3)*y0; first by strip deviation
    # plus the shear drift, both well under the budget here
    assert rep.worst_residual < SQRT3 * 0.004 + sum(2 * SQRT3 * abs(m) for m in mus)


def test_periodic_reference_self_closeness():
    tiles = periodic_triangles(*ids_of([tid for k in (-1, 0, 1) for tid in tile_ids(3, row=k)]))
    rep = check_closeness(tiles, 1e-6)
    assert rep.passed
    assert rep.worst_residual == 0.0


def test_periodic_tiles_are_equilateral_area_sqrt3():
    tids = [TileId(0, 0, 1), TileId(0, 2, 3), TileId(1, -1, 2), TileId(-2, 3, 4)]
    for tri in periodic_triangles(*ids_of(tids)):
        assert area(tri) == pytest.approx(SQRT3, abs=1e-12)
        for L in edge_lengths(tri):
            assert L == pytest.approx(2.0, abs=1e-12)
    # a tile and the mirrored copy of another, one row up
    mirrored_pair = periodic_triangles(*ids_of([TileId(0, 1, 2), TileId(1, 2, 1)]))
    margin, _ = aligned_sweep(mirrored_pair, signature_variants, signature_key, 1e-9)
    assert margin <= 1e-9


def _periodic_oracle(tid):
    """Vertices of the periodic tile in closed form: edge-2 equilateral
    triangles of the scaled undistorted strip, reflected through the
    horizontal axis on odd rows, then lifted by 2*sqrt(3) per row."""
    s = SQRT3
    i, j = tid.col, tid.slot
    if i == 0:
        pts = [(0.0, 0.0), (1.0, s), (-1.0, s)] if j == 1 else [(0.0, 0.0), (-1.0, -s), (1.0, -s)]
    else:
        n = abs(i)
        lo, hi, mid_prev, mid = 2.0 * n - 1.0, 2.0 * n + 1.0, 2.0 * n - 2.0, 2.0 * n
        pts = {1: [(lo, s), (mid, 0.0), (hi, s)],
               2: [(mid_prev, 0.0), (mid, 0.0), (lo, s)],
               3: [(mid_prev, 0.0), (lo, -s), (mid, 0.0)],
               4: [(lo, -s), (hi, -s), (mid, 0.0)]}[j]
        if i < 0:
            pts = [(-x, y) for x, y in reversed(pts)]
    if tid.row % 2 != 0:
        pts = [(x, -y) for x, y in reversed(pts)]
    return [(x, y + 2.0 * tid.row * s) for x, y in pts]


def test_periodic_triangle_matches_the_closed_form_lattice():
    tids = [tid for k in (-1, 0, 1) for tid in tile_ids(3, row=k)]
    # a tile read alone equals the same tile read in a list
    for tri, tid in zip(periodic_triangles(*ids_of(tids)), tids):
        assert [tri] == list(periodic_triangles(*ids_of([tid])))
        assert tri.label == f"{tid.row}/{tid.col}/{tid.slot}"
        assert list(tri.vertices) == _periodic_oracle(tid)
    # rows interleaved, so each row comes in several runs
    mixed = tids[::2] + tids[1::2]
    assert [list(tri.vertices) for tri in periodic_triangles(*ids_of(mixed))] == [
        _periodic_oracle(tid) for tid in mixed]
    assert len(periodic_triangles(*ids_of([]))) == 0


def test_periodic_reference_memory_does_not_grow_with_the_column():
    tid = TileId(1, 1_000_000, 3)
    tracemalloc.start()
    try:
        (tri,) = periodic_triangles(*ids_of([tid]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert list(tri.vertices) == _periodic_oracle(tid)


def _chained(tri, tid, mu, reflected, translation):
    """A strip triangle placed the long way round, one validated polygon per
    step: shear (skipped when ``mu`` is None), reflect through the x axis,
    translate, re-id."""
    if mu is not None:
        tri = shear(tri, mu)
    if reflected:
        tri = reflect_x(tri)
    return polygon((tid.row, tid.col, tid.slot), None, translate(tri, *translation))


def _bits(tri):
    """Label and coordinate bits of a polygon or of a record's tile."""
    label = tri.label if isinstance(tri, geometry.Tile) else tile_label(tri)
    return (label, [(x.hex(), y.hex()) for x, y in vertices_of(tri)])


def test_placement_matches_the_transform_chain():
    base = window_base(3)
    plane = stack_plane(base, select_shears(base, count=3, epsilon=0.01,
                                            rng=random.Random(2)), 3)
    tiles = plane.tiles()
    assert plane.rows == (-1, 0, 1) and tiles.col.min() == -3
    for k in plane.rows:
        tr = plane.transforms[k]
        chained = [_chained(triangle_at(base, tid.col, tid.slot), tid,
                            tr.mu, tr.reflected, tr.translation)
                   for tid in tile_ids(3, row=k)]
        placed = [_bits(tiles[i]) for i in np.flatnonzero(tiles.row == k)]
        assert [_bits(t) for t in chained] == placed
        # the boundary profiles are the x-coordinates of the placed row's
        # vertices on its top and bottom lines
        ys = [v.y for t in chained for v in t.vertices]
        for line, profile in zip((max(ys), min(ys)), assembly._boundary_profiles(plane, k)):
            xs = sorted({v.x for t in chained for v in t.vertices if v.y == line})
            assert [float(x).hex() for x in xs] == [float(x).hex() for x in profile]

    # the periodic reference: the flat strip, reflected on odd rows and
    # lifted by 2*sqrt(3) per row, with no shear step
    i = np.arange(5, dtype=np.float64)
    zeros = np.zeros(5)
    flat = StripTiling(y0=0.0, n_cols=3, xs=2.0 * i[:-1], ys=zeros[:-1], aa=2.0 * i - 1.0,
                       bb=2.0 * i - 1.0, alpha=zeros, beta=zeros, xi=zeros[:-1], y_scale=SQRT3)
    tids = map(TileId, tiles.row.tolist(), tiles.col.tolist(), tiles.slot.tolist())
    chained = [_chained(triangle_at(flat, t.col, t.slot), t, None,
                        t.row % 2 != 0, (0.0, 2.0 * t.row * SQRT3)) for t in tids]
    assert [_bits(t) for t in periodic_triangles(tiles.row, tiles.col, tiles.slot)] == [
        _bits(t) for t in chained]


def test_tiles_are_built_once_per_placement(monkeypatch):
    base = window_base(3)
    plane = stack_plane(base, select_shears(base, count=3, epsilon=0.01,
                                            rng=random.Random(2)), 3)
    built, tile_view = [], geometry.Tile
    monkeypatch.setattr(geometry, "Tile", lambda *view: built.append(tile_view(*view)) or built[-1])
    # the placed rows, their periodic reference and the strip are arrays
    tiles = plane.tiles()
    periodic = periodic_triangles(tiles.row, tiles.col, tiles.slot)
    strip_tiles = window_tiles(base)
    assert len(tiles) == len(periodic) == 3 * 26 and len(strip_tiles) == 26
    assert built == []
    tri = tiles[5]  # one tile view, built on demand
    assert tri.label == "-1/-2/2" and built == [tri]
