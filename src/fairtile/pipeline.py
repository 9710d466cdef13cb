"""End-to-end construction pipelines shared by the library and the CLI.

Building a plane tiling composes the individual stages: sample a strip
height, gate it through the contraction suite and the strip-level
incongruence check, stretch to the equilateral regime, certify shears,
stack, and verify the finished window.  Everything is driven by one seeded
generator, so a fixed seed reproduces the construction byte for byte.

:data:`CHECKS` says which checks verify each document kind, with which
targets and tolerances; the builders here and ``fairtile verify`` all run
their checks through it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from . import assembly, document, quadsplit, verify
from .errors import ExhaustedRetries, InvalidParameter
from .geometry import Tiles
from .strip import StripTiling, deviations, strip_tiling, window_tiles

__all__ = [
    "Y0_RANGE",
    "CHECKS",
    "CHECK_NAMES",
    "run_checks",
    "Build",
    "sample_certified_y0",
    "build_plane",
    "quadify_checked",
    "strip_document",
    "plane_document",
    "quad_document",
]

# default sampling window for the strip height; with a closeness budget the
# upper end shrinks so the strip-level deviations (about sqrt(3)*y0 in the
# second coordinate after scaling) stay under epsilon
Y0_RANGE = (0.001, 0.01)

_SAMPLE_TRIES = 50


def _quad_area(doc: document.TilingDocument, strip) -> verify.VerificationReport:
    s = doc.float_param("scale")
    return verify.check_equal_area(doc.tiles, assembly.SQRT3 * s * s / 3.0, 1e-9)


# The checks of each document kind, in report order; each kind's own are its
# defaults, and any named check may be run on any kind.  A check is called as
# ``check(doc, strip)``, where ``strip()`` builds the strip tiling that the
# document's ``y0`` and ``cols`` describe.  The ``verify`` functions are looked
# up when a check runs, so a tracer that rebinds them sees every call.
CHECKS: dict[str, dict[str, Callable[..., verify.VerificationReport]]] = {
    "strip": {
        "area": lambda doc, strip: verify.check_equal_area(doc.tiles, 1.0, 1e-10),
        "v2v": lambda doc, strip: verify.check_vertex_to_vertex(doc.tiles, 1e-9),
        "halfturn": lambda doc, strip: verify.check_halfturn_incongruent(doc.tiles, 1e-9),
        "identity": lambda doc, strip: verify.check_identity(strip(), doc.tiles, 1e-10),
        "contraction": lambda doc, strip: verify.check_contraction(deviations(strip())),
    },
    "plane": {
        "area": lambda doc, strip: verify.check_equal_area(doc.tiles, assembly.SQRT3, 1e-10),
        "v2v": lambda doc, strip: verify.check_vertex_to_vertex(doc.tiles, 1e-9),
        "incongruent": lambda doc, strip: verify.check_pairwise_incongruent(doc.tiles, 1e-9),
        "closeness": lambda doc, strip: verify.check_closeness(
            doc.tiles, doc.float_param("epsilon")),
    },
    "quad": {
        "area": _quad_area,
        "perimeter": lambda doc, strip: verify.check_equal_perimeter(
            doc.tiles, doc.float_param("p0"), 1e-9),
        "convex": lambda doc, strip: verify.check_convex(doc.tiles, 1e-12),
        "incongruent": lambda doc, strip: verify.check_pairwise_incongruent(doc.tiles, 1e-9),
    },
}

_BY_NAME = {name: check for table in CHECKS.values() for name, check in table.items()}
CHECK_NAMES = tuple(_BY_NAME)


def run_checks(doc: document.TilingDocument,
               names: Sequence[str] | None = None) -> tuple[verify.VerificationReport, ...]:
    """Run the named checks on a document, by default its kind's own.

    A check of the document's kind uses that kind's target and tolerance.
    The contraction suite runs by default only for strip heights inside the
    sampling window ``Y0_RANGE``.  The strip tiling is built at most once,
    and only when a check needs it.
    """
    if names is None:
        names = [name for name in CHECKS[doc.kind]
                 if name != "contraction" or doc.float_param("y0") <= Y0_RANGE[1]]
    for name in names:
        if name not in _BY_NAME:
            raise InvalidParameter(
                f"unknown check {name!r} (choose from {', '.join(CHECK_NAMES)})")
    strip = functools.cache(lambda: strip_tiling(doc.float_param("y0"), doc.int_param("cols")))
    return tuple(CHECKS[doc.kind].get(name, _BY_NAME[name])(doc, strip) for name in names)


def _y0_window(epsilon: float | None) -> tuple[float, float]:
    hi = Y0_RANGE[1]
    if epsilon is not None:
        hi = min(hi, epsilon / (2.0 * assembly.SQRT3))
    return (hi / 10.0, hi)


def sample_certified_y0(rng: random.Random, cols: int,
                        epsilon: float | None = None) -> tuple[float, StripTiling]:
    """Draw strip heights until one passes the gates on the window.

    A candidate is accepted when the contraction suite holds for its
    deviation series and no two window tiles agree up to translation or
    half-turn.  Resampling is deterministic for a fixed generator state.
    """
    lo, hi = _y0_window(epsilon)
    last = None
    for _ in range(_SAMPLE_TRIES):
        y0 = rng.uniform(lo, hi)
        tiling = strip_tiling(y0, cols)
        gate = verify.check_contraction(deviations(tiling))
        if not gate.passed:
            last = f"contraction gate failed for y0={y0!r}"
            continue
        sep = verify.check_halfturn_incongruent(window_tiles(tiling))
        if not sep.passed:
            last = f"strip-level congruence for y0={y0!r} (margin {sep.margin:.3e})"
            continue
        return y0, tiling
    raise ExhaustedRetries(f"no certified strip height in {_SAMPLE_TRIES} draws: {last}")


@dataclass(frozen=True)
class Build:
    """A built document (``None`` when the input was refused) and the
    reports of the checks run on it."""

    doc: document.TilingDocument | None
    reports: tuple[verify.VerificationReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def build_plane(epsilon: float, seed: int, rows: int, cols: int) -> Build:
    """Full pipeline from a closeness budget to a verified plane window."""
    if not 0.0 < epsilon:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    if rows < 1 or cols < 1:
        raise InvalidParameter("rows and cols must be >= 1")
    rng = random.Random(seed)
    _, base = sample_certified_y0(rng, cols, epsilon)
    scaled = assembly.scale_to_equilateral(base)
    accepted: list[tuple[int, float]] = []
    shears = assembly.select_shears(scaled, rows, epsilon, rng, accepted)
    doc = plane_document(assembly.stack_plane(scaled, shears, rows), epsilon, seed)

    # one subreport per row: the margin its shear was accepted with, and the
    # draws it took; the smallest of these margins is the plane's own
    swept = len(window_tiles(scaled))
    row_reports = tuple(verify.VerificationReport(
        check_name=f"shear-row-{n}", passed=margin > assembly.MARGIN_FLOOR,
        worst_residual=None, margin=margin, offenders=(), tiles_checked=n * swept,
        tolerance_used=assembly.MARGIN_FLOOR, note=f"accepted at draw {draws}")
        for n, (draws, margin) in enumerate(accepted, start=1))
    budget = sum(2.0 * assembly.SQRT3 * abs(m) for m in shears)
    budget_report = verify.VerificationReport(
        check_name="shear-budget", passed=budget < epsilon, worst_residual=None,
        margin=epsilon - budget, offenders=(), tiles_checked=len(shears),
        tolerance_used=epsilon, subchecks=row_reports)
    return Build(doc=doc, reports=run_checks(doc) + (budget_report,))


def quadify_checked(doc: document.TilingDocument) -> Build:
    """Subdivide a plane document and verify the result.

    Refuses inputs containing congruent or equilateral tiles (the fair
    split of an equilateral triangle yields congruent pieces), then checks
    equal areas, equal perimeters, convexity and pairwise incongruence of
    the output.  The built document is ``None`` when the input fails its
    check.
    """
    if doc.kind != "plane":
        raise InvalidParameter(f"quadify needs a plane document, got kind {doc.kind!r}")
    pre = run_checks(doc, ("incongruent",))
    if not pre[0].passed:
        return Build(doc=None, reports=pre)
    quad_doc = quad_document(quadsplit.quadify_plane(doc.tiles), doc)
    return Build(doc=quad_doc, reports=pre + run_checks(quad_doc))


# ---------------------------------------------------------------------------
# document builders


def strip_document(tiling: StripTiling, *,
                   seed: int | None = None, mode: str = "fixed") -> document.TilingDocument:
    params = document.make_parameters(y0=tiling.y0, cols=tiling.n_cols, seed=seed, mode=mode)
    return document.TilingDocument(kind="strip", parameters=params,
                                   tiles=window_tiles(tiling))


def plane_document(plane: assembly.PlaneTiling, epsilon: float,
                   seed: int) -> document.TilingDocument:
    # the shears in draw order: row_order(rows)[n - 1] takes parameter n
    shears = [plane.transforms[k].mu for k in assembly.row_order(len(plane.rows))]
    params = document.make_parameters(
        epsilon=epsilon, seed=seed, rows=len(plane.rows), cols=plane.base.n_cols,
        y0=plane.base.y0, shears=shears)
    return document.TilingDocument(kind="plane", parameters=params, tiles=plane.tiles())


def quad_document(quads: Tiles,
                  source: document.TilingDocument) -> document.TilingDocument:
    params = dict(source.parameters)
    params.update(document.make_parameters(
        scale=quadsplit.QUADIFY_SCALE, p0=quadsplit.P0))
    return document.TilingDocument(kind="quad", parameters=params, tiles=quads)
