"""The alignment rows and keys of the pairwise incongruence sweep, the
refusal of tile pairs that no shear separates, and the shear parameters at
which given triangles could turn equilateral.

Two congruence relations appear side by side:

* full congruence under all Euclidean isometries, reflections included
  (``signature_variants`` and ``signature_key``);
* the restricted relation "translate of T or of -T", i.e. translations
  composed with half-turns (``halfturn_variants`` and ``halfturn_key``),
  which is the relation that matters inside a single strip before shearing.

Both are decided by one function, :func:`aligned_sweep`.  Equality of ideal
reals is not decidable in binary64, so the sweep takes an explicit quantum
and reports the smallest distance as a separation margin rather than a bare
boolean.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneratePair, NoUnequalHeights
from .geometry import Tiles

__all__ = [
    "signature_variants",
    "halfturn_variants",
    "signature_key",
    "halfturn_key",
    "window_pairs",
    "aligned_sweep",
    "bad_shear_set",
    "equilateral_shear_set",
]

DEFAULT_QUANTUM = 1e-9

# coefficient / discriminant thresholds for stable quadratic root extraction
_LEADING_EPS = 1e-14
_DISC_CLAMP = 1e-12
_ROOT_DEDUP = 1e-9
_BLOCK = 1024  # tile pairs per array pass of the incongruence sweep


def _rotations(n: int) -> np.ndarray:
    """Row ``r`` holds the indices 0..n-1 read cyclically from ``r``."""
    k = np.arange(n)
    return (k[:, None] + k) % n


def signature_variants(tiles: Tiles) -> np.ndarray:
    """All 2n alignment rows of the (edge length, interior angle) signature
    of each of m tiles with n vertices, shape (m, 2n, 2n).

    Comparing every row of one polygon against a fixed row of another
    covers every relative alignment, which is what the vectorized pairwise
    sweeps rely on.  Row ``r < n`` starts at vertex ``r`` and runs forward;
    in reversed rotation ``r`` position ``k`` is vertex ``(-1 - r - k) % n``,
    whose edge in that direction is the one entering it.  Lengths and
    angles are :meth:`~fairtile.geometry.Tiles.lengths` and
    :meth:`~fairtile.geometry.Tiles.angles`.
    """
    m, n, _ = tiles.xy.shape
    lengths, angles = tiles.lengths(), tiles.angles()
    fwd = _rotations(n)
    rev = (-1 - fwd) % n
    rows = np.empty((m, 2 * n, 2 * n))
    rows[..., 0::2] = lengths[:, np.concatenate([fwd, (rev - 1) % n])]
    rows[..., 1::2] = angles[:, np.concatenate([fwd, rev])]
    return rows


def halfturn_variants(tiles: Tiles) -> np.ndarray:
    """All 2n alignment rows of the edge-vector cycle of each of m tiles
    with n vertices, shape (m, 2n, 2n).

    Rows are the n cyclic rotations of the cycle, then the same rotations
    negated, each flattened to (x0, y0, x1, y1, ...).  Translations and
    half-turns keep the counterclockwise edge cycle, so the smallest
    max-component difference of every row of one polygon against the first
    row of another is the distance from the set {T + v, -T + v}.
    """
    m, n, _ = tiles.xy.shape
    rotations = tiles.edges()[:, _rotations(n)]
    return np.concatenate([rotations, -rotations], axis=1).reshape(m, 2 * n, 2 * n)


def signature_key(rows: np.ndarray) -> np.ndarray:
    """Sorted edge lengths, from row 0 of (stacked) signature rows."""
    return np.sort(rows[..., 0, 0::2], axis=-1)


def halfturn_key(rows: np.ndarray) -> np.ndarray:
    """Sorted |x|, then sorted |y|, from row 0 of (stacked) half-turn rows."""
    return np.concatenate([np.sort(np.abs(rows[..., 0, 0::2]), axis=-1),
                           np.sort(np.abs(rows[..., 0, 1::2]), axis=-1)], axis=-1)


def _distances(variants, order, s, t):
    """Original (lower, higher) indices of the pairs at sorted positions (s, t)
    and, in blocks, every row of the lower against the first row of the higher."""
    a, b = np.minimum(order[s], order[t]), np.maximum(order[s], order[t])
    return a, b, np.concatenate([np.empty(0)] + [
        np.min(np.max(np.abs(variants[a[k:k + _BLOCK]] - variants[b[k:k + _BLOCK], :1]), axis=2),
               axis=1) for k in range(0, len(a), _BLOCK)])


def window_pairs(keys: np.ndarray, upper: np.ndarray):
    """The positions s < t of ascending ``keys`` with ``keys[t] <= upper[s]``
    (``upper >= keys``), as index arrays, ``_BLOCK`` pairs at a time in (s, t) order."""
    counts = np.searchsorted(keys, upper, side="right") - np.arange(1, len(keys) + 1)
    ends, total = np.cumsum(counts), int(np.sum(counts))
    for start in range(0, total, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, total))
        s = np.searchsorted(ends, flat, side="right")
        yield s, s + 1 + flat - (ends[s] - counts[s])


def aligned_sweep(tiles: Tiles, rows_of, key_of, quantum: float, fixed=None):
    """Smallest aligned distance over all tile pairs, and every pair within
    ``quantum``.

    ``rows_of(tiles)`` stacks one row per alignment of each tile; every row
    of one tile against the first row of another covers every relative
    alignment.  The distance of ``key_of(rows)`` never exceeds the aligned
    distance, so with tiles sorted on the first key component and ``best``
    seeded from neighbours in that order, only pairs within
    ``w = max(best, quantum)`` in key distance are compared: they hold the
    closest pair and every collision.

    ``fixed`` holds the rows of tiles already swept among themselves.  Only
    the pairs with a tile of ``tiles`` then count, against each other and
    against ``fixed``; pairs are indexed with the ``fixed`` tiles first.
    """
    variants = rows_of(tiles)
    k = 0 if fixed is None else len(fixed)
    if k:
        variants = np.concatenate([fixed, variants])
    margin, collisions = math.inf, []
    keys = key_of(variants)
    order = np.argsort(keys[:, 0], kind="stable")
    keys, first = keys[order], keys[order, 0]
    s = np.flatnonzero(np.maximum(order[:-1], order[1:]) >= k)  # neighbours that count
    *_, d = _distances(variants, order, s, s + 1)
    w = max(float(np.min(d, initial=math.inf)), quantum)
    # pairs s < t within the window, widened against rounding
    for s, t in window_pairs(first, first + 2.0 * w):
        near = ((np.max(np.abs(keys[s] - keys[t]), axis=1) <= w)
                & (np.maximum(order[s], order[t]) >= k))
        a, b, d = _distances(variants, order, s[near], t[near])
        margin = min(margin, float(np.min(d, initial=math.inf)))
        collisions.extend(zip(a[d <= quantum].tolist(), b[d <= quantum].tolist()))
    return margin, sorted(collisions)


def _roots(a, b, c) -> np.ndarray:
    """Real roots of a*mu^2 + b*mu + c elementwise over broadcast arrays:
    shape (..., 2), ascending, NaN where absent.

    Monic normalisation when |a| is meaningful, else a linear fallback;
    near-zero discriminants clamp to a double root; the cancellation-free
    root comes first and its partner from Vieta's formula.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, q = b / a, c / a
        disc = 0.25 * p * p - q
        disc = np.where(np.abs(disc) < _DISC_CLAMP, 0.0, disc)
        r = np.sqrt(disc)  # NaN where disc < 0
        mid = -0.5 * p
        far = np.where(p >= 0.0, mid - r, mid + r)
        partner = q / far
        swap = partner < far
        lo = np.where(r == 0.0, mid, np.where(swap, partner, far))
        hi = np.where(r == 0.0, mid, np.where(swap, far, partner))
        linear = np.where(np.abs(b) > _LEADING_EPS, -c / b, np.nan)
    quadratic = np.abs(a) > _LEADING_EPS
    return np.stack([np.where(quadratic, lo, linear), np.where(quadratic, hi, np.nan)], axis=-1)


def _dedup(roots: np.ndarray) -> np.ndarray:
    """Each row of roots ascending, with NaN for absent roots and for roots
    within 1e-9 of the last root kept."""
    s = np.sort(roots, axis=-1, kind="stable")
    last = s[..., 0]
    for k in range(1, s.shape[-1]):
        near = s[..., k] - last <= _ROOT_DEDUP
        s[..., k] = np.where(near, np.nan, s[..., k])
        last = np.where(near, last, s[..., k])
    return s


def bad_shear_set(xy) -> float:
    """Refuse a pair of triangles, their (2, 3, 2) vertices, that no shear
    separates.

    If the two agree up to translation/half-turn (within
    :data:`DEFAULT_QUANTUM`), every shear keeps them congruent and
    :class:`DegeneratePair` is raised; otherwise their half-turn distance
    is returned.
    """
    pair = Tiles(np.asarray(xy, dtype=float))
    margin, _ = aligned_sweep(pair, halfturn_variants, halfturn_key, DEFAULT_QUANTUM)
    if margin <= DEFAULT_QUANTUM:
        raise DegeneratePair("triangles agree up to translation/half-turn")
    return margin


def equilateral_shear_set(tiles: Tiles) -> np.ndarray:
    """Shear parameters at which each sheared triangle could be equilateral:
    shape (N, 2), ascending, NaN for absent or repeated roots.

    Each uses its edge-vector pair with the largest height difference, the
    first on ties; outside its (at most two) roots those sheared edges differ
    in length.  A superset filter: a root need not make an equilateral image.
    """
    ev = tiles.edges()
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    diff = np.abs(np.abs(ev[:, i, 1]) - np.abs(ev[:, j, 1]))
    k = np.argmax(diff, axis=1)
    if np.any(diff[np.arange(len(ev)), k] <= _LEADING_EPS):
        raise NoUnequalHeights("every edge-vector pair has equal |y| components")
    (x1, y1), (x2, y2) = ev[np.arange(len(ev)), i[k]].T, ev[np.arange(len(ev)), j[k]].T
    return _dedup(_roots(y1 * y1 - y2 * y2, 2.0 * (x1 * y1 - x2 * y2),
                         x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2))
