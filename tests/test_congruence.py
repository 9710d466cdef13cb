"""Congruence through the incongruence sweep, vertical widths, the pruned
sweep against its unpruned oracle, the refusal of degenerate pairs and the
equilateral shear roots."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtile.congruence import (
    _roots,
    aligned_sweep,
    bad_shear_set,
    equilateral_shear_set,
    halfturn_key,
    halfturn_variants,
    signature_key,
    signature_variants,
    window_pairs,
)
from fairtile.errors import DegeneratePair, DegeneratePolygon, NoUnequalHeights
from fairtile.geometry import Tiles
from fairtile.quadsplit import fair_split
from fairtile.strip import strip_tiling
import oracles
from oracles import (area, critical_tiling, edge_lengths, edge_vectors, halfturn_rows, perimeter,
                     record, shear, signature_distance, signature_rows, simeq_distance,
                     translate, triangle_at, vertices_of)

SQRT3 = math.sqrt(3.0)


def tri(*pts):
    """The (x, y) vertex pairs, validated as one tile of a record."""
    return list(map(tuple, Tiles(np.array([pts], dtype=float)).xy[0].tolist()))


quad = tri


UNIT_SQUARE = quad((0, 0), (1, 0), (1, 1), (0, 1))


def signature_margin(p, q):
    """Full-congruence distance of one pair, as the sweep measures it."""
    return aligned_sweep(record([p, q]), signature_variants, signature_key, 1e-9)[0]


def halfturn_margin(p, q):
    """Translation-or-half-turn distance of one pair, as the sweep measures it."""
    return aligned_sweep(record([p, q]), halfturn_variants, halfturn_key, 1e-9)[0]


def mixed_sweep(polys, rows_of, key_of, quantum):
    """:func:`aligned_sweep` over each vertex count of a list of triangles
    and quadrangles, with pairs in list indices."""
    margin, collisions = math.inf, []
    for n in (3, 4):
        idx = [i for i, p in enumerate(polys) if len(p) == n]
        m, pairs = aligned_sweep(record(polys[i] for i in idx), rows_of, key_of, quantum)
        margin = min(margin, m)
        collisions += [(idx[a], idx[b]) for a, b in pairs]
    return margin, sorted(collisions)


# --- area / perimeter / edge vectors ---------------------------------------

def test_basic_measures():
    assert area(UNIT_SQUARE) == pytest.approx(1.0, abs=1e-15)
    assert perimeter(UNIT_SQUARE) == pytest.approx(4.0, abs=1e-15)
    assert area(tri((0, 0), (2, 0), (0, 1))) == pytest.approx(1.0, abs=1e-15)
    cell = tri((0, 0), (2, 0), (1, 1))
    assert area(cell) == pytest.approx(1.0, abs=1e-15)
    assert perimeter(cell) == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-14)


def test_edge_vectors_sum_to_zero():
    for p in (UNIT_SQUARE, tri((0.3, -1), (2.7, 0.4), (1, 2))):
        sx = sum(v[0] for v in edge_vectors(p))
        sy = sum(v[1] for v in edge_vectors(p))
        assert abs(sx) < 1e-15 and abs(sy) < 1e-15


coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@given(st.tuples(coord, coord), st.floats(min_value=0, max_value=2 * math.pi),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_measures_invariant_under_isometry(shift, angle, mirror):
    t = tri((0, 0), (2, 0), (0.7, 1.3))
    c, s = math.cos(angle), math.sin(angle)

    def iso(v):
        x, y = (v[0], -v[1]) if mirror else v
        return (c * x - s * y + shift[0], s * x + c * y + shift[1])

    pts = [iso(v) for v in t]
    if mirror:
        pts.reverse()
    u = tri(*pts)
    assert area(u) == pytest.approx(area(t), rel=1e-12)
    assert perimeter(u) == pytest.approx(perimeter(t), rel=1e-12)


# --- vertical width ----------------------------------------------------------

def vertical_width(t):
    """Largest difference between second coordinates of the vertices."""
    ys = [y for _, y in vertices_of(t)]
    return max(ys) - min(ys)


def test_vertical_width_basics():
    t = critical_tiling(2)
    assert vertical_width(triangle_at(t, 1, 1)) == pytest.approx(1.0, abs=1e-15)
    assert vertical_width(tri((0, 0), (1, 0), (2, 1e-6))) == pytest.approx(1e-6, abs=1e-18)


def test_vertical_width_classification_table():
    t = strip_tiling(0.01, 1000)
    y = t.ys
    for i in list(range(1, 1000)) + [-3, -998]:
        k = abs(i)
        expect = {
            1: 1 - y[k],
            2: 1 - y[k - 1] if k % 2 == 0 else 1 - y[k],
            3: 1 + y[k] if k % 2 == 0 else 1 + y[k - 1],
            4: 1 + y[k],
        }
        for j in (1, 2, 3, 4):
            got = vertical_width(triangle_at(t, i, j))
            assert abs(got - expect[j]) <= 1e-12, (i, j)


# --- congruence --------------------------------------------------------------

def test_congruent_translate_and_reflection():
    assert signature_margin(tri((0, 0), (1, 0), (0, 1)), tri((5, 5), (6, 5), (5, 6))) <= 1e-9
    assert signature_margin(tri((0, 0), (2, 0), (0, 1)), tri((0, 0), (2, 0), (2, 1))) <= 1e-9
    assert signature_margin(tri((0, 0), (2, 0), (0, 1)), tri((0, 0), (2, 0), (0, 1.01))) > 1e-9


def test_critical_tiling_congruence_classes():
    t = critical_tiling(4)
    t11 = triangle_at(t, 1, 1)
    t22 = triangle_at(t, 2, 2)
    assert signature_margin(t11, t22) <= 1e-9
    t14 = triangle_at(t, 1, 4)
    t23 = triangle_at(t, 2, 3)
    assert signature_margin(t14, t23) <= 1e-9

    tiles = [triangle_at(t, 0, j) for j in (1, 4)]
    for i in range(-4, 5):
        if i == 0:
            continue
        tiles += [triangle_at(t, i, j) for j in (1, 2, 3, 4)]
    # one class per tile congruent to no earlier tile
    _, collisions = aligned_sweep(record(tiles), signature_variants, signature_key, 1e-9)
    assert len(tiles) - len({b for _, b in collisions}) == 6


def test_halfturn_relation():
    t = tri((0.2, 0.1), (1.7, 0.3), (0.9, 1.2))
    assert halfturn_margin(t, translate(t, 7.0, -3.0)) <= 1e-9
    neg = [(1.0 - x, 1.0 - y) for x, y in t]
    assert halfturn_margin(t, neg) <= 1e-9
    # a reflected copy is congruent but not a translated half-turn
    refl = [(-x, y) for x, y in reversed(t)]
    assert signature_margin(t, refl) <= 1e-9
    assert halfturn_margin(t, refl) > 1e-9


def test_halfturn_mirror_columns_of_critical_tiling():
    t = critical_tiling(3)
    for i in (1, 2, 3):
        for j in (1, 2, 3, 4):
            plus = triangle_at(t, i, j)
            minus = triangle_at(t, -i, j)
            assert halfturn_margin(plus, minus) > 1e-9


def test_halfturn_symmetric_and_reflexive():
    rng = random.Random(5)
    for _ in range(40):
        pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        try:
            t = tri(*pts)
        except Exception:
            continue
        u = translate(t, rng.uniform(-9, 9), rng.uniform(-9, 9))
        assert halfturn_margin(t, t) == 0.0
        assert halfturn_margin(t, u) == halfturn_margin(u, t) <= 1e-9


# --- signatures --------------------------------------------------------------

def test_signature_ignores_vertex_rotation_and_reflection():
    rotated = UNIT_SQUARE[2:] + UNIT_SQUARE[:2]
    assert signature_margin(UNIT_SQUARE, rotated) <= 1e-9
    q = quad((0, 0), (1.4, 0.1), (1.5, 1.2), (0.2, 0.9))
    mirrored = [(-x, y) for x, y in reversed(q)]
    assert signature_margin(q, mirrored) <= 1e-12


def test_signature_invariance_under_random_isometries():
    rng = random.Random(20)
    tiles = []
    while len(tiles) < 20_000:
        n = 3 if rng.random() < 0.5 else 4
        if n == 3:
            pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
            try:
                p = tri(*pts)
            except Exception:
                continue
        else:
            # star-shaped order around the centroid keeps the quad simple
            raw = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
            cx = sum(x for x, _ in raw) / 4
            cy = sum(y for _, y in raw) / 4
            raw.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
            try:
                p = quad(*raw)
            except Exception:
                continue
        angle = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        dx, dy = rng.uniform(-30, 30), rng.uniform(-30, 30)
        mirror = rng.random() < 0.5
        mapped = []
        for x, y in p:
            y = -y if mirror else y
            mapped.append((c * x - s * y + dx, s * x + c * y + dy))
        if mirror:
            mapped.reverse()
        tiles += [p, tri(*mapped)]
    # every tile collides with its image, whatever else collides in the set
    _, collisions = mixed_sweep(tiles, signature_variants, signature_key, 1e-9)
    assert set(zip(range(0, len(tiles), 2), range(1, len(tiles), 2))) <= set(collisions)


def test_fair_split_of_scalene_gives_three_distinct_signatures():
    from fairtile.quadsplit import apex

    quads = fair_split(Tiles(np.array([[(0.0, 0.0), (1.01, 0.0), apex(1.01, 1.00, 0.99)]])))
    margin, _ = aligned_sweep(quads, signature_variants, signature_key, 1e-9)
    assert margin > 1e-9


def test_congruence_soundness_on_congruent_samples():
    rng = random.Random(11)
    for _ in range(60):
        pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        try:
            t = tri(*pts)
        except Exception:
            continue
        angle = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        u = [(c * x - s * y + 3, s * x + c * y - 2) for x, y in t]
        tol = 1e-9
        assert signature_margin(t, u) <= tol
        assert abs(perimeter(t) - perimeter(u)) <= 4 * tol * 3 + 1e-12
        assert abs(area(t) - area(u)) <= perimeter(t) * tol + 1e-12


# --- the pruned incongruence sweep -------------------------------------------

def _unpruned_sweep(polys, rows_of, quantum):
    """The sweep over every pair that the sorted-key sweep replaced, kept
    as its oracle: every row of each tile against the reference row of
    each later tile of the same vertex count, with the rows built one
    polygon at a time by ``rows_of``."""
    groups = {}
    for idx, p in enumerate(polys):
        groups.setdefault(len(p), []).append(idx)
    margin = math.inf
    collisions = []
    for idxs in groups.values():
        variants = np.stack([rows_of(polys[i]) for i in idxs])
        reference = variants[:, 0, :]
        for a in range(len(idxs) - 1):
            diffs = np.abs(variants[a][None, :, :] - reference[a + 1:, None, :])
            d = np.min(np.max(diffs, axis=2), axis=1)
            margin = min(margin, float(np.min(d)))
            collisions.extend((idxs[a], idxs[a + 1 + int(k)]) for k in np.nonzero(d <= quantum)[0])
    return margin, sorted(collisions)


_BASES = (tri((0, 0), (2.1, 0.05), (0.8, 1.7)), quad((0, 0), (1.4, 0.1), (1.5, 1.2), (0.2, 0.9)))


def _near_copies(rng, base, count, jitter):
    """Copies of base: exact duplicates, translates, half-turns and mirror
    images, each with one vertex moved by up to ``jitter``."""
    out = []
    for _ in range(count):
        kind = rng.choice(("duplicate", "translate", "halfturn", "mirror"))
        if kind == "duplicate":
            out.append(base)
            continue
        pts = list(base)
        if kind == "halfturn":
            pts = [(-x, -y) for x, y in pts]
        elif kind == "mirror":
            pts = [(-x, y) for x, y in reversed(pts)]
        dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
        pts = [(x + dx, y + dy) for x, y in pts]
        k = rng.randrange(len(pts))
        pts[k] = (pts[k][0] + rng.uniform(-jitter, jitter), pts[k][1] + rng.uniform(-jitter, jitter))
        out.append(tri(*pts) if len(pts) == 3 else quad(*pts))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_pruned_sweep_matches_the_unpruned_oracle(seed):
    rng = random.Random(seed)
    jitter = rng.choice((0.0, 1e-12, 1e-9, 1e-7, 1e-3))
    # seed 0 has a one-tile triangle group, seed 1 a one-tile quadrangle group
    counts = [1 if seed == k else rng.randint(2, 30) for k in range(2)]
    tiles = [t for base, n in zip(_BASES, counts) for t in _near_copies(rng, base, n, jitter)]
    rng.shuffle(tiles)
    for rows_of, key_of, one_rows, distance in (
            (signature_variants, signature_key, signature_rows, signature_distance),
            (halfturn_variants, halfturn_key, halfturn_rows, simeq_distance)):
        dists = sorted(distance(p, q) for p, q in itertools.combinations(tiles, 2)
                       if len(p) == len(q))
        # the largest distance makes every pair of equal vertex count collide
        for quantum in (1e-9, dists[len(dists) // 3], dists[-1]):
            margin, collisions = mixed_sweep(tiles, rows_of, key_of, quantum)
            want_margin, want = _unpruned_sweep(tiles, one_rows, quantum)
            assert margin.hex() == want_margin.hex()
            assert collisions == want


@pytest.mark.parametrize("seed", range(12))
def test_window_pairs_are_every_pair_within_the_bound(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 90))
    keys = np.sort(rng.integers(0, 12, n) / 4.0)  # ties, and bounds that equal a key
    upper = keys + rng.choice([0.0, 0.25, 0.5, 1.0, 3.0], n)
    blocks = list(window_pairs(keys, upper))
    got = [(s, t) for ss, tt in blocks for s, t in zip(ss.tolist(), tt.tolist())]
    assert got == [(s, t) for s in range(n) for t in range(s + 1, n) if keys[t] <= upper[s]]
    assert all(len(ss) == 1024 for ss, _ in blocks[:-1])
    assert not list(window_pairs(np.empty(0), np.empty(0)))


def _random_convex(rng, n):
    """A convex n-gon on a jittered circle, and its mirror image."""
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    r, cx, cy = rng.uniform(0.5, 2.0), rng.uniform(-9, 9), rng.uniform(-9, 9)
    pts = [(cx + r * math.cos(t), cy + r * math.sin(t)) for t in angles]
    mirror = [(-x, y) for x, y in reversed(pts)]
    return [tri(*pts), tri(*mirror)]


@pytest.mark.parametrize("seed", range(10))
def test_batched_rows_equal_the_per_polygon_rows(seed):
    rng = random.Random(seed)
    tiles = [t for base in _BASES
             for t in _near_copies(rng, base, 20, rng.choice((0.0, 1e-9, 1e-3)))]
    for _ in range(40):
        try:
            tiles += _random_convex(rng, rng.choice((3, 4)))
        except DegeneratePolygon:
            pass
    rng.shuffle(tiles)
    for n in (3, 4):
        group = [t for t in tiles if len(t) == n]
        for rows_of, one_rows in ((signature_variants, signature_rows),
                                  (halfturn_variants, halfturn_rows)):
            want = np.stack([one_rows(p) for p in group])
            assert rows_of(record(group)).tobytes() == want.tobytes()


# --- degenerate pairs and equilateral shear roots -------------------------

def _found(roots):
    return [float(r) for r in roots if not math.isnan(r)]


def test_quadratic_edge_pair_examples():
    # vectors (1,1) against (1,-1): degenerate leading coefficient, root 0
    assert _found(_roots(1 - 1, 2 * (1 * 1 - 1 * -1), (1 + 1) - (1 + 1))) == [0.0]
    # both heights zero with distinct |x|: contradiction, empty set
    assert _found(_roots(0.0, 0.0, 9.0 - 4.0)) == []


def _scalar_real_roots(a, b, c):
    """The scalar solver the array solver replaced, kept as its oracle."""
    if abs(a) > 1e-14:
        p, q = b / a, c / a
        disc = 0.25 * p * p - q
        if abs(disc) < 1e-12:
            disc = 0.0
        if disc < 0.0:
            return []
        r = math.sqrt(disc)
        if r == 0.0:
            return [-0.5 * p, -0.5 * p]
        far = -0.5 * p - r if p >= 0.0 else -0.5 * p + r
        return sorted((far, q / far))
    if abs(b) > 1e-14:
        return [-c / b]
    return []


def test_array_solver_matches_the_scalar_oracle_bit_for_bit():
    rng = random.Random(17)
    triples = [
        (0.0, 2.5, -1.0), (1e-15, -3.0, 0.5),  # a = 0: linear fallback
        (0.0, 0.0, 1.0), (0.0, 1e-15, 1.0),  # a = b = 0: no root
        (1.0, 2.0, 1.0 + 4e-13), (1.0, 2.0, 1.0 - 4e-13),  # |disc| < 1e-12: double root
        (1.0, -2.0, 1.0), (2.0, 0.0, 0.0), (1.0, -0.0, 0.0),  # exact double roots
        (1.0, 0.0, 1.0), (3.0, 1.0, 5.0),  # disc < 0
        (1.0, 5.0, 2.0), (1.0, 0.0, -4.0), (1.0, -5.0, 2.0), (-2.0, -5.0, 2.0),  # p >= 0, p < 0
        (1.0, 1e8, 1.0), (1.0, -1e8, 1.0),  # the Vieta partner avoids cancellation
    ]
    for _ in range(2000):
        scale = [10.0 ** rng.randint(-16, 3) for _ in range(3)]
        triples.append(tuple(rng.choice((-1, 1)) * rng.random() * s for s in scale))
    for _ in range(500):  # shear-root shaped: a = y0^2 - fy^2, b = 2(x0 y0 - fx fy), ...
        x0, y0, fx, fy = (rng.uniform(-2.0, 2.0) for _ in range(4))
        triples.append((y0 * y0 - fy * fy, 2.0 * (x0 * y0 - fx * fy),
                        x0 * x0 + y0 * y0 - fx * fx - fy * fy))
    a, b, c = (np.array(col) for col in zip(*triples))
    got = _roots(a, b, c)
    assert got.shape == (len(triples), 2)
    for (ta, tb, tc), row in zip(triples, got):
        want = _scalar_real_roots(ta, tb, tc)
        assert [r.hex() for r in _found(row)] == [r.hex() for r in want], (ta, tb, tc)
        assert math.isnan(row[1]) or not math.isnan(row[0])  # present roots come first


def test_bad_shear_set_degenerate_pair():
    t = tri((0, 0), (2.1, 0), (0.8, 1.7))
    with pytest.raises(DegeneratePair):
        bad_shear_set(record([t, translate(t, 4.0, 1.0)]).xy)
    neg = [(3.0 - x, 2.0 - y) for x, y in t]
    with pytest.raises(DegeneratePair):
        bad_shear_set(record([t, neg]).xy)


def test_bad_shear_set_mirror_pair_contains_zero():
    # a mirror image is congruent at shear zero only: the pair is not refused,
    # its half-turn distance comes back, and a nonzero shear separates it
    t = tri((0, 0), (2.1, 0), (0.8, 1.7))
    mirror = [(-x, y) for x, y in reversed(t)]
    assert bad_shear_set(record([t, mirror]).xy) == halfturn_margin(t, mirror) > 1e-9

    def margin(r):
        pair = record([shear(t, r), shear(mirror, r)])
        return aligned_sweep(pair, signature_variants, signature_key, 1e-9)[0]

    assert margin(0.0) < 1e-12
    assert margin(0.3) > 1e-3


def test_equilateral_shear_set():
    t = tri((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))
    roots = equilateral_shear_set(record([t]))
    assert roots.shape == (1, 2)
    assert roots[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert roots[0, 1] == pytest.approx(2 * math.sqrt(3) / 3, abs=1e-12)

    scalene = tri((0, 0), (3, 0), (0, 1))
    for r in _found(equilateral_shear_set(record([scalene]))[0]):
        lengths = edge_lengths(shear(scalene, r))
        assert max(lengths) - min(lengths) > 1e-6  # superset filter, not equilateral


def test_equilateral_record_matches_the_per_tile_roots_bit_for_bit():
    rng = random.Random(23)
    tris = [tri((0, 0), (1, 0), (0.5, math.sqrt(3) / 2)),  # two roots, one of them 0
            tri((0, 0), (2, 0), (1, 1)),  # equal |y| on two edges: the first pair on ties
            tri((0, 0), (1, 1), (-1, 1))]
    while len(tris) < 300:
        pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        try:
            tris.append(tri(*pts))
        except DegeneratePolygon:
            continue
    window = oracles.window_triangles(strip_tiling(0.004, 6))
    tris += [vertices_of(t) for t in window]  # id-less, as the record
    got = equilateral_shear_set(record(tris))
    assert got.shape == (len(tris), 2)
    for t, row in zip(tris, got):
        want = oracles.equilateral_shear_set(t)
        assert [r.hex() for r in _found(row)] == [r.hex() for r in want]
        assert math.isnan(row[1]) or not math.isnan(row[0])
    # a record refuses when one of its tiles has no two edges of unequal |y|
    flat = tri((0, 0), (1000, 0), (500, 2e-15))
    with pytest.raises(NoUnequalHeights):
        oracles.equilateral_shear_set(flat)
    with pytest.raises(NoUnequalHeights):
        equilateral_shear_set(record(tris[:5] + [flat] + tris[5:]))
