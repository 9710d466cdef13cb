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

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from . import assembly, document, quadsplit, verify
from .errors import ExhaustedRetries, InvalidParameter
from .geometry import Quadrangle
from .strip import StripTiling, deviations, strip_tiling, window_triangles

__all__ = [
    "Y0_RANGE",
    "Check",
    "CHECKS",
    "CHECK_NAMES",
    "run_checks",
    "PlaneBuild",
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


@dataclass(frozen=True)
class Check:
    """How one named check runs: ``verify.<function>(subject, target, tol)``.

    The function is looked up in :mod:`verify` when the check runs.  The
    subject is the document's tiles, or for ``"strip"`` and
    ``"deviations"`` the ``tiling`` that :func:`run_checks` rebuilt from the
    document's ``y0`` and ``cols`` or that tiling's deviation series.
    Target and tolerance are passed only when set.  With ``param`` the
    target is that document parameter, mapped through ``target`` when that
    is a function.
    """

    function: str
    target: float | Callable[[float], float] | None = None
    tol: float | None = None
    param: str | None = None
    subject: str = "tiles"

    def run(self, doc: document.TilingDocument,
            tiling: StripTiling | None) -> verify.VerificationReport:
        if self.subject == "tiles":
            args = [doc.tiles]
        else:
            args = [deviations(tiling) if self.subject == "deviations" else tiling]
        if self.param is not None:
            value = doc.float_param(self.param)
            args.append(self.target(value) if callable(self.target) else value)
        elif self.target is not None:
            args.append(self.target)
        if self.tol is not None:
            args.append(self.tol)
        return getattr(verify, self.function)(*args)


_V2V = Check("check_vertex_to_vertex", tol=1e-9)
_INCONGRUENT = Check("check_pairwise_incongruent", tol=1e-9)

# The checks of each document kind, in report order; each kind's own are its
# defaults, and any named check may be run on any kind.
CHECKS: dict[str, dict[str, Check]] = {
    "strip": {
        "area": Check("check_equal_area", target=1.0, tol=1e-10),
        "v2v": _V2V,
        "halfturn": Check("check_halfturn_incongruent", tol=1e-9),
        "identity": Check("check_identity", tol=1e-10, subject="strip"),
        "contraction": Check("check_contraction", subject="deviations"),
    },
    "plane": {
        "area": Check("check_equal_area", target=assembly.SQRT3, tol=1e-10),
        "v2v": _V2V,
        "incongruent": _INCONGRUENT,
        "closeness": Check("check_closeness", param="epsilon"),
    },
    "quad": {
        "area": Check("check_equal_area", target=lambda s: assembly.SQRT3 * s * s / 3.0,
                      tol=1e-9, param="scale"),
        "perimeter": Check("check_equal_perimeter", tol=1e-9, param="p0"),
        "convex": Check("check_convex", tol=1e-12),
        "incongruent": _INCONGRUENT,
    },
}

_BY_NAME = {name: check for table in CHECKS.values() for name, check in table.items()}
CHECK_NAMES = tuple(_BY_NAME)


def run_checks(doc: document.TilingDocument,
               names: Sequence[str] | None = None) -> tuple[verify.VerificationReport, ...]:
    """Run the named checks on a document, by default its kind's own.

    A check of the document's kind uses that kind's target and tolerance.
    The contraction suite runs by default only for strip heights inside the
    sampling window ``Y0_RANGE``.
    """
    if names is None:
        names = [name for name in CHECKS[doc.kind]
                 if name != "contraction" or doc.float_param("y0") <= Y0_RANGE[1]]
    for name in names:
        if name not in _BY_NAME:
            raise InvalidParameter(
                f"unknown check {name!r} (choose from {', '.join(CHECK_NAMES)})")
    checks = [CHECKS[doc.kind].get(name, _BY_NAME[name]) for name in names]
    tiling = None
    if any(check.subject != "tiles" for check in checks):
        tiling = strip_tiling(doc.float_param("y0"), doc.int_param("cols"))
    return tuple(check.run(doc, tiling) for check in checks)


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
        sep = verify.check_halfturn_incongruent(window_triangles(tiling))
        if not sep.passed:
            last = f"strip-level congruence for y0={y0!r} (margin {sep.margin:.3e})"
            continue
        return y0, tiling
    raise ExhaustedRetries(f"no certified strip height in {_SAMPLE_TRIES} draws: {last}")


@dataclass(frozen=True)
class PlaneBuild:
    """A plane document and the reports of the checks run on it."""

    doc: document.TilingDocument
    reports: tuple[verify.VerificationReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def build_plane(epsilon: float, seed: int, rows: int, cols: int) -> PlaneBuild:
    """Full pipeline from a closeness budget to a verified plane window."""
    if not 0.0 < epsilon:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    if rows < 1 or cols < 1:
        raise InvalidParameter("rows and cols must be >= 1")
    rng = random.Random(seed)
    _, base = sample_certified_y0(rng, cols, epsilon)
    scaled = assembly.scale_to_equilateral(base)
    shears = assembly.select_shears(scaled, rows, epsilon, rng)
    doc = plane_document(assembly.stack_plane(scaled, shears, rows), epsilon, seed)

    budget = sum(2.0 * assembly.SQRT3 * abs(m) for m in shears)
    budget_report = verify.VerificationReport(
        check_name="shear-budget", passed=budget < epsilon, worst_residual=None,
        margin=epsilon - budget, offenders=(), tiles_checked=len(shears),
        tolerance_used=epsilon)
    return PlaneBuild(doc=doc, reports=run_checks(doc) + (budget_report,))


def quadify_checked(doc: document.TilingDocument):
    """Subdivide a plane document and verify the result.

    Refuses inputs containing congruent or equilateral tiles (the fair
    split of an equilateral triangle yields congruent pieces), then checks
    equal areas, equal perimeters, convexity and pairwise incongruence of
    the output.  Returns (quads, reports, passed).
    """
    if doc.kind != "plane":
        raise InvalidParameter(f"quadify needs a plane document, got kind {doc.kind!r}")
    pre = run_checks(doc, ("incongruent",))
    if not pre[0].passed:
        return [], pre, False

    quads = quadsplit.quadify_plane(doc.tiles)
    reports = pre + run_checks(quad_document(quads, doc))
    return quads, reports, all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# document builders


def strip_document(tiling: StripTiling, *,
                   seed: int | None = None, mode: str = "fixed") -> document.TilingDocument:
    params = document.make_parameters(y0=tiling.y0, cols=tiling.n_cols, seed=seed, mode=mode)
    return document.TilingDocument(kind="strip", parameters=params,
                                   tiles=window_triangles(tiling))


def plane_document(plane: assembly.PlaneTiling, epsilon: float,
                   seed: int) -> document.TilingDocument:
    # the shears in draw order: row_order(rows)[n - 1] takes parameter n
    shears = [plane.transforms[k].mu for k in assembly.row_order(len(plane.rows))]
    params = document.make_parameters(
        epsilon=epsilon, seed=seed, rows=len(plane.rows), cols=plane.base.n_cols,
        y0=plane.base.y0, shears=shears)
    return document.TilingDocument(kind="plane", parameters=params, tiles=plane.tiles())


def quad_document(quads: list[Quadrangle],
                  source: document.TilingDocument) -> document.TilingDocument:
    params = dict(source.parameters)
    params.update(document.make_parameters(
        scale=quadsplit.QUADIFY_SCALE, p0=quadsplit.P0))
    return document.TilingDocument(kind="quad", parameters=params, tiles=list(quads))
