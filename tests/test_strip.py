"""Strip recursion, closed forms, deviation series."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fairtile.errors import InvalidParameter
from fairtile.geometry import Tiles
from fairtile.strip import (
    deviations,
    identity_residual,
    strip_tiling,
    unit_area_residual,
    window_tiles,
)
from fairtile.assembly import scale_to_equilateral
import oracles
from oracles import critical_tiling, tile_ids, vertices_of

SQRT3 = math.sqrt(3.0)

# Published vertex data of the half-strip at height 1/5: midline vertices,
# then the top and bottom boundary abscissas.
FIGURE_XY = [
    (1.92307692308, -0.169230769231),
    (3.88360118583, 0.112523014511),
    (5.86782183927, -0.0671455252767),
    (7.86284679278, 0.0385390385326),
    (9.86102836451, -0.021837269111),
    (11.8605645724, 0.0123225275777),
]
FIGURE_A = [1.25, 2.96052631579, 5.21410588202, 7.08826451609, 9.16843217775, 11.1256909903]
FIGURE_B = [0.833333333333, 3.24074074074, 5.03845636003, 7.18241348752, 9.1081956929, 11.1528452556]


def exact_first_column(y0: Fraction):
    """Independent evaluation of the first recursion step in exact arithmetic."""
    a1 = 1 / (1 - y0)
    b1 = 1 / (1 + y0)
    d = -4 + 3 + a1 + b1
    x1 = 0 + 2 - (a1 - b1) * y0 / d
    y1 = y0 - 2 * y0 / d
    return a1, b1, x1, y1


def test_parameter_validation():
    with pytest.raises(InvalidParameter):
        strip_tiling(0.0, 3)
    with pytest.raises(InvalidParameter):
        strip_tiling(1.0, 3)
    with pytest.raises(InvalidParameter):
        strip_tiling(1.5, 3)
    with pytest.raises(InvalidParameter):
        strip_tiling(0.2, 0)
    with pytest.raises(InvalidParameter):
        critical_tiling(0)


def test_first_column_against_exact_arithmetic():
    a1, b1, x1, y1 = exact_first_column(Fraction(1, 5))
    t = strip_tiling(0.2, 1)
    assert t.aa[1] == pytest.approx(float(a1), abs=1e-15)
    assert t.bb[1] == pytest.approx(float(b1), abs=1e-15)
    assert t.xs[1] == pytest.approx(float(x1), abs=1e-14)
    assert t.ys[1] == pytest.approx(float(y1), abs=1e-15)
    assert x1 == Fraction(25, 13)
    assert y1 == Fraction(-11, 65)


def test_published_figure_coordinates():
    t = strip_tiling(0.2, 6)
    for i, (x, y) in enumerate(FIGURE_XY, start=1):
        assert t.xs[i] == pytest.approx(x, abs=1e-9)
        assert t.ys[i] == pytest.approx(y, abs=1e-9)
    for i, (a, b) in enumerate(zip(FIGURE_A, FIGURE_B), start=1):
        assert t.aa[i] == pytest.approx(a, abs=1e-9)
        assert t.bb[i] == pytest.approx(b, abs=1e-9)


def test_flat_limit():
    t = strip_tiling(1e-9, 3)
    for i in range(1, 4):
        assert abs(t.xs[i] - 2 * i) < 1e-7
        assert abs(t.aa[i] - (2 * i - 1)) < 1e-7
        assert abs(t.bb[i] - (2 * i - 1)) < 1e-7


def test_critical_closed_forms():
    t = critical_tiling(2)
    assert t.xs[1] == pytest.approx(1.5, abs=1e-15)
    assert t.aa[1] == pytest.approx((3 + SQRT3) / 2, abs=1e-15)
    assert t.bb[1] == pytest.approx((3 - SQRT3) / 2, abs=1e-15)
    assert t.ys[2] == 0.0


@pytest.mark.parametrize("n", [5, 100])
def test_critical_matches_recursion(n):
    closed = critical_tiling(n)
    rec = strip_tiling(1.0 / SQRT3, n)
    assert np.max(np.abs(closed.xs - rec.xs)) < 1e-12
    assert np.max(np.abs(closed.ys - rec.ys)) < 1e-12
    assert np.max(np.abs(closed.aa[1:] - rec.aa[1:])) < 1e-12
    assert np.max(np.abs(closed.bb[1:] - rec.bb[1:])) < 1e-12


def _recursion_residuals(t):
    """Relative residuals of both recursion forms on the stored sequences."""
    n = t.n_cols
    worst_full = worst_simple = 0.0
    for i in range(1, n + 1):
        xp, yp = t.xs[i - 1], t.ys[i - 1]
        a, b = t.aa[i], t.bb[i]
        den_full = (a - xp) * (1 + yp) + (b - xp) * (1 - yp)
        x_full = xp + 2 - 2 * (a - b) * yp / den_full
        y_full = yp - 4 * yp / den_full
        den_simple = -4 * i + 3 + a + b
        x_simple = xp + 2 - (a - b) * yp / den_simple
        y_simple = yp - 2 * yp / den_simple
        worst_full = max(worst_full,
                         abs(t.xs[i] - x_full) / max(1.0, abs(t.xs[i])),
                         abs(t.ys[i] - y_full) / max(1.0, abs(t.ys[i])))
        worst_simple = max(worst_simple,
                           abs(t.xs[i] - x_simple) / max(1.0, abs(t.xs[i])),
                           abs(t.ys[i] - y_simple) / max(1.0, abs(t.ys[i])))
        a_next = a + 2 / (1 - t.ys[i])
        b_next = b + 2 / (1 + t.ys[i])
        worst_full = max(worst_full,
                         abs(t.aa[i + 1] - a_next) / max(1.0, abs(t.aa[i + 1])),
                         abs(t.bb[i + 1] - b_next) / max(1.0, abs(t.bb[i + 1])))
    return worst_full, worst_simple


@pytest.mark.parametrize("y0,n", [(0.2, 500), (0.01, 2000), (0.004, 2000)])
def test_recursion_forms_agree(y0, n):
    t = strip_tiling(y0, n)
    worst_full, worst_simple = _recursion_residuals(t)
    assert worst_full <= 1e-12
    assert worst_simple <= 1e-12


@pytest.mark.parametrize("y0", [0.2, 0.01, 0.003])
def test_unit_areas_and_identity(y0):
    t = strip_tiling(y0, 2000)
    assert unit_area_residual(t) <= 1e-10
    assert identity_residual(t) <= 1e-10


def test_deviation_series_start_values():
    assert strip_tiling(1.0 / SQRT3, 3).alpha[1] == pytest.approx((SQRT3 + 1) / 2, abs=1e-12)

    t = strip_tiling(0.2, 3)
    assert deviations(t)[0] == pytest.approx(float(Fraction(13, 12)), abs=1e-14)
    assert t.ys[1] == pytest.approx(float(Fraction(-11, 65)), abs=1e-14)


def test_deviation_recursions_hold():
    t = strip_tiling(0.2, 1000)
    for i in range(1, t.n_cols + 1):
        den = 1.0 + t.alpha[i] + t.beta[i]
        assert abs(t.xi[i] - (t.xi[i - 1] - (t.alpha[i] - t.beta[i]) * t.ys[i - 1] / den)) <= 1e-12
        assert abs(t.ys[i] - (t.ys[i - 1] - 2 * t.ys[i - 1] / den)) <= 1e-12
        assert abs(t.alpha[i + 1] - (t.alpha[i] + 2 * t.ys[i] / (1 - t.ys[i]))) <= 1e-12
        assert abs(t.beta[i + 1] - (t.beta[i] - 2 * t.ys[i] / (1 + t.ys[i]))) <= 1e-12


def test_deviation_series_matches_raw_sequences():
    t = strip_tiling(0.0071, 1000)
    i = np.arange(1, t.n_cols + 2, dtype=float)
    # a_i is the rounded sum (2i-1) + alpha_i, so allow one rounding of that scale
    tol = np.maximum(1e-12, 4e-16 * i)
    assert np.all(np.abs(t.aa[1:] - (2 * i - 1) - t.alpha[1:]) <= tol)
    assert np.all(np.abs(t.bb[1:] - (2 * i - 1) - t.beta[1:]) <= tol)
    j = np.arange(0, t.n_cols + 1, dtype=float)
    assert np.all(np.abs(t.xs - 2 * j - t.xi) <= np.maximum(1e-12, 4e-16 * (j + 1)))


def test_h_recursion_and_trapezoid_form():
    t = strip_tiling(0.0051, 2000)
    y, h = t.ys, deviations(t)
    assert h[0] == pytest.approx(1 + 2 * y[0] ** 2 / (1 - y[0] ** 2), abs=1e-14)
    inc = 4.0 * y[1:] ** 2 / (1.0 - y[1:] ** 2)
    assert np.max(np.abs(h[1:] - (h[:-1] + inc))) <= 1e-12
    # derived pentagon-area form of the midline deviation
    al, be = t.alpha[1:-1], t.beta[1:-1]
    xi_closed = 0.5 * ((al - be) * y[1:] - (al + be))
    assert np.max(np.abs(t.xi[1:] - xi_closed)) <= 1e-10


def _tile(t, i, j):
    (tri,) = [tri for tri in window_tiles(t) if tri.label == f"0/{i}/{j}"]
    return tri


def test_triangle_at_critical_column_one():
    t = critical_tiling(3)
    tri = _tile(t, 1, 2)
    got = sorted(tri.vertices)
    want = sorted([(0.0, 1.0 / SQRT3), (1.5, 0.0), ((3 + SQRT3) / 2, 1.0)])
    for (gx, gy), (wx, wy) in zip(got, want):
        assert gx == pytest.approx(wx, abs=1e-12)
        assert gy == pytest.approx(wy, abs=1e-12)


def test_triangle_at_center_column():
    t = critical_tiling(3)
    tri = _tile(t, 0, 1)
    xs = sorted(x for x, _ in tri.vertices)
    assert xs[0] == pytest.approx(-(3 + SQRT3) / 2, abs=1e-12)
    assert xs[2] == pytest.approx((3 + SQRT3) / 2, abs=1e-12)
    assert (0.0, t.y0) in tri.vertices


def test_triangle_at_rejects_missing_slots():
    # the center column has no slots 2 and 3, and no column has a slot 5
    xy = window_tiles(strip_tiling(0.2, 1)).xy[:1]
    for col, slot in ((0, 2), (0, 3), (1, 5)):
        with pytest.raises(InvalidParameter):
            Tiles(xy, *(np.array([v]) for v in (0, col, slot)))
    window = window_tiles(strip_tiling(0.2, 3))
    assert set(zip(window.col[window.col == 0].tolist(),
                   window.slot[window.col == 0].tolist())) == {(0, 1), (0, 4)}


def test_mirror_columns_are_exact_reflections():
    t = strip_tiling(0.2, 4)
    for i in (1, 2, 3):
        for j in (1, 2, 3, 4):
            plus = _tile(t, i, j)
            minus = _tile(t, -i, j)
            mirrored = sorted((-x, y) for x, y in plus.vertices)
            got = sorted(minus.vertices)
            assert got == mirrored  # exact coordinate negation


def _bits(tris):
    return np.array([vertices_of(tri) for tri in tris]).view(np.uint64)


@pytest.mark.parametrize("tiling", [
    lambda: strip_tiling(0.004, 20), lambda: scale_to_equilateral(strip_tiling(0.004, 20)),
    lambda: strip_tiling(0.2, 6), lambda: scale_to_equilateral(strip_tiling(0.2, 6)),
    lambda: strip_tiling(0.005, 5000), lambda: scale_to_equilateral(strip_tiling(0.005, 5000)),
    lambda: critical_tiling(7)])
def test_window_matches_the_slot_chain_oracle(tiling):
    # bit for bit, zero signs included: -0.0 and 0.0 differ as uint64
    t = tiling()
    ids = list(tile_ids(t.n_cols))
    want = _bits(oracles.triangle_at(t, tid.col, tid.slot) for tid in ids)
    tiles = window_tiles(t)
    assert tiles.xy.shape == (8 * t.n_cols + 2, 3, 2) == want.shape
    assert list(zip(tiles.row.tolist(), tiles.col.tolist(), tiles.slot.tolist())) == [
        (tid.row, tid.col, tid.slot) for tid in ids]
    assert np.array_equal(tiles.xy.view(np.uint64), want)
    ends = [tiles[0], tiles[len(tiles) // 2], tiles[-1]]  # tiles built on demand
    assert [tri.label for tri in ends] == [oracles.tile_label(oracles.triangle_at(
        t, tid.col, tid.slot)) for tid in (ids[0], ids[len(ids) // 2], ids[-1])]
    assert np.array_equal(_bits(ends), want[[0, len(ids) // 2, -1]])
    assert {type(c) for tri in ends for p in tri.vertices for c in p} == {float}
    assert (want == np.float64(-0.0).view(np.uint64)).any()


def test_window_tile_count():
    ids = list(tile_ids(2))
    assert len(ids) == 18
    assert all(tid.slot in (1, 4) for tid in ids if tid.col == 0)
