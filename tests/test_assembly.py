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
    _within,
    aligned_sweep,
    bad_shear_set,
    halfturn_key,
    halfturn_variants,
    match_roots,
    pair_shear_roots,
    signature_key,
    signature_variants,
)
from fairtile.errors import BoundaryMismatch, DegeneratePair, ExhaustedRetries, InvalidParameter
from fairtile.geometry import Point, TileId, Tiles, Triangle, edge_vectors
from fairtile.pipeline import sample_certified_y0
from fairtile.strip import StripTiling, critical_tiling, strip_tiling, window_tiles
from fairtile.verify import check_closeness, check_vertex_to_vertex
import oracles
from oracles import area, edge_lengths, ids_of, reflect_x, shear, tile_ids, translate, triangle_at


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
        return bool(aligned_sweep(Tiles.of(pair), halfturn_variants, halfturn_key, 1e-9)[1])

    for a, b in [((1, 1), (-1, 1)), ((1, 2), (2, 2)), ((2, 3), (3, 3))]:
        assert collides(unscaled, a, b) == collides(base, a, b)


def test_shear_map():
    def shear_only(t, mu):
        place = StripTransform(mu, False, (0.0, 0.0)).place
        return Triangle(*(Point(*place(v.x, v.y)) for v in t.vertices))

    t = Triangle(Point(0, 0), Point(2, 0), Point(1, SQRT3))
    assert shear_only(t, 0.0).vertices == t.vertices
    sheared = shear_only(t, 0.37)
    assert area(sheared) == pytest.approx(area(t), abs=1e-12)
    assert sheared.vertices[2] == Point(1 + 0.37 * SQRT3, SQRT3)


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


def test_selected_shears_clear_root_sets():
    base = window_base(2)
    mus = select_shears(base, count=3, epsilon=0.01, rng=random.Random(3))
    tiles = list(window_tiles(base))
    for mu in mus:
        for a in range(len(tiles)):
            for b in range(a + 1, len(tiles)):
                gaps = [abs(mu - r) for r in bad_shear_set(tiles[a], tiles[b]).roots]
                assert min(gaps) >= 1e-9
    # each row also clears the match roots against every tile of the earlier
    # rows; shearing the vertices rounds differently from shearing the edge
    # vectors, which moves the roots by far less than the slack
    ev = np.array([edge_vectors(t) for t in tiles])
    for n, mu in enumerate(mus):
        for earlier in mus[:n]:
            fixed = np.array([edge_vectors(shear(u, earlier)) for u in tiles])
            roots = match_roots(ev, fixed.reshape(1, -1, 2), math.inf)
            assert np.min(np.abs(mu - roots[~np.isnan(roots)])) >= 1e-9 - 1e-13


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


def test_filtered_roots_equal_the_unfiltered_on_the_gate_windows():
    # every static and cross-row root within reach, bit for bit and in order
    for epsilon, rows, cols, seed in GATE_SHAPES:
        rng = random.Random(seed)
        _, strip = sample_certified_y0(rng, cols, epsilon)
        base = scale_to_equilateral(strip)
        ev = window_tiles(base).edges()
        reach = 0.5 * epsilon / (2.0 * SQRT3) + 2.0 * assembly._MARGIN_CAP
        a, b = np.triu_indices(len(ev), 1)
        got = pair_shear_roots(ev[a], ev[b], reach)
        full = pair_shear_roots(ev[a], ev[b], math.inf)
        assert got.size and got.tobytes() == _within(full, reach).tobytes()
        for mu in select_shears(base, rows, epsilon, rng)[:-1]:
            sheared = np.stack([ev[:, :, 0] + mu * ev[:, :, 1], ev[:, :, 1]], -1).reshape(1, -1, 2)
            got = match_roots(ev, sheared, reach)
            full = match_roots(ev, sheared, math.inf)
            assert got.size and got.tobytes() == _within(full, reach).tobytes()


def test_select_shears_solves_the_equilateral_roots_once_and_each_level_in_one_pass(monkeypatch):
    equilateral_calls, passes = [], []  # passes: the row of each gap pass
    real_equilateral, real_gaps = assembly.equilateral_shear_set, assembly._gaps

    def equilateral(tiles):
        equilateral_calls.append(len(tiles))
        return real_equilateral(tiles)

    def gaps(roots, values):
        passes.append(len(roots))  # row n draws against n root arrays
        assert len(values) == assembly._DRAWS_PER_MARGIN
        return real_gaps(roots, values)

    def ladder(n, epsilon):
        return len(oracles.margin_ladder((0.5 ** n) * epsilon / (2.0 * SQRT3)))

    monkeypatch.setattr(assembly, "equilateral_shear_set", equilateral)
    monkeypatch.setattr(assembly, "_gaps", gaps)
    for epsilon, rows, cols, seed in GATE_SHAPES:
        rng = random.Random(seed)
        _, strip = sample_certified_y0(rng, cols, epsilon)
        equilateral_calls.clear()
        passes.clear()
        select_shears(scale_to_equilateral(strip), rows, epsilon, rng)
        assert equilateral_calls == [len(window_tiles(strip))]
        for n in range(1, rows + 1):
            assert 1 <= passes.count(n) <= ladder(n, epsilon), (cols, n)
    # a window too dense for its budget tries every level of the failing row once
    equilateral_calls.clear()
    passes.clear()
    with pytest.raises(ExhaustedRetries, match="row parameter 5 "):
        select_shears(scale_to_equilateral(strip_tiling(3.2e-5, 6)), 7, 2.5e-6, random.Random(1))
    assert len(equilateral_calls) == 1 and passes.count(5) == ladder(5, 2.5e-6)


def test_reach_filter_keeps_every_verdict(monkeypatch):
    real_gaps = assembly._gaps
    kept_lists = []  # the root arrays each row draws against, as select_shears passes them

    def recording_gaps(roots, values):
        if not kept_lists or len(kept_lists[-1]) != len(roots):  # a row adds one array
            kept_lists.append(list(roots))
        return real_gaps(roots, values)

    monkeypatch.setattr(assembly, "_gaps", recording_gaps)
    cases = [(scale_to_equilateral(strip_tiling(y0, cols)), rows, epsilon)
             for epsilon, rows, y0, cols in ((0.005, 4, 0.001, 10), (0.0001, 4, 2e-5, 8),
                                             (0.05, 5, 0.004, 6))]
    # the first row's interval ends a quarter margin short of a static root
    # inside the root cluster, so a filter reaching too short shows
    edge_base, static = cases[1][0], []
    oracles.select_shears(edge_base, 1, 1.0, random.Random(0), static)
    r0 = float(static[0][np.searchsorted(static[0], 2e-5)])
    cases.append((edge_base, 4, (r0 - assembly._MARGIN_CAP / 4) * 4.0 * SQRT3))
    rng = random.Random(17)
    for base, rows, epsilon in cases:
        kept_lists.clear()
        select_shears(base, rows, epsilon, random.Random(1))
        full_sets = []
        oracles.select_shears(base, rows, epsilon, random.Random(1), full_sets)
        assert len(kept_lists) == len(full_sets) == rows
        half_1 = 0.5 * epsilon / (2.0 * SQRT3)
        for n, (kept_list, full) in enumerate(zip(kept_lists, full_sets), start=1):
            assert len(kept_list) == n  # the static roots, then one array per fixed row
            assert all(np.array_equal(r, np.sort(r)) for r in kept_list)
            kept = np.sort(np.concatenate(kept_list))
            # the filter only drops roots, and keeps every root a draw can reach
            assert kept.size < full.size and np.isin(kept, full).all()
            near = half_1 + assembly._MARGIN_CAP
            assert np.array_equal(kept[np.abs(kept) <= near], full[np.abs(full) <= near])
            half = (0.5 ** n) * epsilon / (2.0 * SQRT3)
            ladder = oracles.margin_ladder(half)
            cands = [rng.uniform(-half, half) for _ in range(300)] + [-half, half]
            for margin in ladder:  # margin and half a margin from the roots around each end
                for end in (-half, half):
                    i = int(np.searchsorted(full, end))
                    for r in full[max(i - 3, 0):i + 3].tolist():
                        cands += [c for c in (r + k * margin for k in (-1.0, -0.5, 0.5, 1.0))
                                  if -half <= c <= half]
            gaps = real_gaps(kept_list, np.array(cands))
            assert gaps.tobytes() == real_gaps([kept], np.array(cands)).tobytes()
            for margin in ladder:
                for cand, gap in zip(cands, gaps.tolist()):
                    assert ((gap >= margin)
                            == (oracles.gap_to_roots(full, cand) >= margin)), (n, margin, cand)


def test_select_shears_peaks_below_32_mib_at_6x40():
    # solving each fixed row's cross-row roots as one (N, 3N) array peaks
    # at 89 MiB on this window
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
    with pytest.raises(BoundaryMismatch):
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
        assert tri.id == tid
        assert [v.xy for v in tri.vertices] == _periodic_oracle(tid)
    # rows interleaved, so each row comes in several runs
    mixed = tids[::2] + tids[1::2]
    assert [[v.xy for v in tri.vertices] for tri in periodic_triangles(*ids_of(mixed))] == [
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
    assert [v.xy for v in tri.vertices] == _periodic_oracle(tid)


def _chained(tri, tid, mu, reflected, translation):
    """A strip triangle placed the long way round, one validated polygon per
    step: shear (skipped when ``mu`` is None), reflect through the x axis,
    translate, re-id."""
    if mu is not None:
        tri = shear(tri, mu)
    if reflected:
        tri = reflect_x(tri)
    tri = translate(tri, *translation)
    return Triangle(*tri.vertices, id=tid)


def _bits(tri):
    return (tri.id, [(float(v.x).hex(), float(v.y).hex()) for v in tri.vertices])


def test_placement_matches_the_transform_chain():
    base = window_base(3)
    plane = stack_plane(base, select_shears(base, count=3, epsilon=0.01,
                                            rng=random.Random(2)), 3)
    tiles = plane.tiles()
    assert plane.rows == (-1, 0, 1) and min(t.id.col for t in tiles) == -3
    for k in plane.rows:
        tr = plane.transforms[k]
        chained = [_chained(triangle_at(base, tid.col, tid.slot), tid,
                            tr.mu, tr.reflected, tr.translation)
                   for tid in tile_ids(3, row=k)]
        assert [_bits(t) for t in chained] == [_bits(t) for t in tiles if t.id.row == k]
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
    chained = [_chained(triangle_at(flat, t.id.col, t.id.slot), t.id, None,
                        t.id.row % 2 != 0, (0.0, 2.0 * t.id.row * SQRT3)) for t in tiles]
    assert [_bits(t) for t in periodic_triangles(tiles.row, tiles.col, tiles.slot)] == [
        _bits(t) for t in chained]


def test_tiles_are_built_once_per_placement(monkeypatch):
    base = window_base(3)
    plane = stack_plane(base, select_shears(base, count=3, epsilon=0.01,
                                            rng=random.Random(2)), 3)
    built = []
    validate = Triangle.__post_init__

    def counted(tri):
        built.append(tri.id)
        validate(tri)

    monkeypatch.setattr(Triangle, "__post_init__", counted)
    # the placed rows, their periodic reference and the strip are arrays
    tiles = plane.tiles()
    periodic = periodic_triangles(tiles.row, tiles.col, tiles.slot)
    strip_tiles = window_tiles(base)
    assert len(tiles) == len(periodic) == 3 * 26 and len(strip_tiles) == 26
    assert built == []
    tri = tiles[5]  # one object, built on demand
    assert tri.id == TileId(-1, -2, 2) and built == [tri.id]
