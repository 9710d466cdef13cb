"""Spans and counts around the public functions of each fairtile layer.

The tracer wraps functions from outside: it replaces every module-level
binding of a wrapped function (``from .x import f`` copies included) by a
recording wrapper, and puts the originals back on ``uninstall``.  Nothing
under ``src/`` knows it is being traced.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and the operation it
  belongs to, and is kept in memory until the trace is written;
* a *leaf* is for functions called thousands of times per operation (one
  shear-root set per tile pair, one convexity test per quadrangle).  It
  adds its call count and time to the enclosing span instead of storing one
  record per call, so the trace stays small and the overhead low.

A span's self time is its duration minus the time its child spans and
leaves cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _pairs(tiles) -> int:
    n = len(tiles)
    return n * (n - 1) // 2


def _vertex_count(tiles) -> int:
    first = tiles[0]
    tile = first[1] if isinstance(first, tuple) else first
    return len(tile.vertices)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "leaves")

    def __init__(self, name: str, op: int, parent: "Span | None", start: float):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans, leaf aggregates and counters for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaf_totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fairtile" or name.startswith("fairtile.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def span(self, owner, attr: str, name, count=None) -> None:
        """Record a span around ``owner.attr``.

        ``name`` is a string or a function of the call arguments;
        ``count(args, result)`` returns counter increments.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            label = name if isinstance(name, str) else name(args)
            sp = Span(label, tracer.op, parent, time.perf_counter())
            tracer._stack.append(sp)
            try:
                result = original(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(sp)
                if parent is not None:
                    parent.child_s += sp.duration
            if count is not None:
                for key, inc in count(args, result).items():
                    tracer.counters[key] += inc
            return result

        self._install(owner, attr, original, wrapper)

    def leaf(self, owner, attr: str, name: str, count=None) -> None:
        """Aggregate calls of ``owner.attr`` into the enclosing span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                total = tracer.leaf_totals[name]
                total[0] += 1
                total[1] += dt
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent.child_s += dt
                    agg = parent.leaves.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
            if count is not None:
                for key, inc in count(args, result).items():
                    tracer.counters[key] += inc
            return result

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
        else:
            self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading ---------------------------------------------------------

    def reset(self) -> None:
        """Forget what was recorded; wrappers stay installed."""
        self.spans = []
        self.leaf_totals = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(int)

    def to_json(self) -> dict:
        index = {id(sp): k for k, sp in enumerate(self.spans)}
        return {
            "spans": [
                {"id": k, "name": sp.name, "op": sp.op,
                 "parent": index.get(id(sp.parent)) if sp.parent else None,
                 "start": sp.start, "end": sp.end, "self_s": sp.self_s,
                 "leaves": {n: {"calls": c, "s": s} for n, (c, s) in sp.leaves.items()}}
                for k, sp in enumerate(self.spans)
            ],
            "leaf_totals": {n: {"calls": c, "s": s} for n, (c, s) in self.leaf_totals.items()},
            "counters": dict(self.counters),
        }


def install() -> Tracer:
    """A tracer wrapping the public functions of every measured layer.

    ``geometry`` is measured through its callers and ``render`` is not on
    any benchmarked path, so neither is wrapped.
    """
    from fairtile import assembly, cli, congruence, document, pipeline, quadsplit, strip, verify

    t = Tracer()
    t.span(cli, "main", "cli.main")

    t.span(pipeline, "build_plane", "pipeline.build_plane")
    t.span(pipeline, "sample_certified_y0", "pipeline.sample_certified_y0")
    t.span(pipeline, "quadify_checked", "pipeline.quadify_checked")
    t.span(pipeline, "strip_document", "pipeline.strip_document",
           count=lambda a, r: {"strip.tiles": len(r.tiles)})
    t.span(pipeline, "plane_document", "pipeline.plane_document")
    t.span(pipeline, "quad_document", "pipeline.quad_document")

    t.span(strip, "strip_tiling", "strip.strip_tiling")
    t.span(strip, "deviations", "strip.deviations")

    t.span(assembly, "select_shears", "assembly.select_shears")
    t.span(assembly, "stack_plane", "assembly.stack_plane")
    t.span(assembly.PlaneTiling, "tiles", "assembly.tiles")

    t.leaf(congruence, "bad_shear_set", "congruence.bad_shear_set")
    t.leaf(congruence, "equilateral_shear_set", "congruence.equilateral_shear_set")

    t.span(quadsplit, "quadify_plane", "quadsplit.quadify_plane")
    t.leaf(quadsplit, "solve_fair_split", "quadsplit.solve_fair_split",
           count=lambda a, r: {"quadsplit.newton_iters": r.iterations})

    t.span(verify, "check_equal_area", "verify.check_equal_area")
    t.span(verify, "check_equal_perimeter", "verify.check_equal_perimeter")
    t.span(verify, "check_vertex_to_vertex", "verify.check_vertex_to_vertex")
    t.span(verify, "check_pairwise_incongruent",
           lambda a: ("verify.incongruent_quad" if _vertex_count(a[0]) == 4
                      else "verify.incongruent_tri"),
           count=lambda a, r: {"verify.incongruent_pairs": _pairs(a[0])})
    t.span(verify, "check_halfturn_incongruent", "verify.check_halfturn_incongruent",
           count=lambda a, r: {"verify.halfturn_pairs": _pairs(a[0])})
    t.span(verify, "check_contraction", "verify.check_contraction")
    t.span(verify, "check_closeness", "verify.check_closeness")
    t.span(verify, "check_identity", "verify.check_identity")
    t.leaf(verify, "check_convex", "verify.check_convex")

    t.span(document, "read_document", "document.read_document")
    t.span(document, "write_document", "document.write_document")
    t.span(document, "serialize", "document.serialize",
           count=lambda a, r: {"document.bytes": len(r)})
    t.span(document, "parse", "document.parse",
           count=lambda a, r: {"document.bytes": len(a[0])})
    return t


# Per-layer metrics, each derived from one pass of spans, leaves and counters.
# The comment names the end-to-end metric and workload each should move.
PER_LAYER = (
    # plane wall_s
    ("pipeline.y0_gate_s", "s"),
    ("pipeline.y0_draws", "count"),
    ("verify.halfturn_s", "s"),
    ("verify.halfturn_pairs", "count"),
    ("assembly.select_shears_s", "s"),
    ("congruence.root_calls", "count"),
    ("congruence.root_s", "s"),
    ("verify.v2v_s", "s"),
    ("verify.incongruent_tri_s", "s"),
    ("verify.closeness_s", "s"),
    ("assembly.stack_s", "s"),
    ("assembly.tiles_s", "s"),
    # quadify wall_s and tiles_per_s
    ("verify.incongruent_quad_s", "s"),
    ("verify.incongruent_pairs", "count"),
    ("quadsplit.quadify_s", "s"),
    ("quadsplit.fair_splits", "count"),
    ("quadsplit.newton_iters", "count"),
    ("verify.area_s", "s"),
    ("verify.perimeter_s", "s"),
    ("verify.convex_s", "s"),
    # strip wall_s and peak_rss_mb
    ("strip.recursion_s", "s"),
    ("strip.materialize_s", "s"),
    ("strip.tiles", "count"),
    ("document.serialize_s", "s"),
    ("document.parse_s", "s"),
    ("document.io_s", "s"),
    ("document.bytes", "bytes"),
    ("verify.contraction_s", "s"),
    ("verify.identity_s", "s"),
    # every workload
    ("cli.self_s", "s"),
    ("cli.main_s", "s"),
)

_SPAN_TIMES = {
    "pipeline.y0_gate_s": ("pipeline.sample_certified_y0",),
    "verify.halfturn_s": ("verify.check_halfturn_incongruent",),
    "assembly.select_shears_s": ("assembly.select_shears",),
    "verify.v2v_s": ("verify.check_vertex_to_vertex",),
    "verify.incongruent_tri_s": ("verify.incongruent_tri",),
    "verify.closeness_s": ("verify.check_closeness",),
    "assembly.stack_s": ("assembly.stack_plane",),
    "assembly.tiles_s": ("assembly.tiles",),
    "verify.incongruent_quad_s": ("verify.incongruent_quad",),
    "quadsplit.quadify_s": ("quadsplit.quadify_plane",),
    "verify.area_s": ("verify.check_equal_area",),
    "verify.perimeter_s": ("verify.check_equal_perimeter",),
    "strip.recursion_s": ("strip.strip_tiling",),
    "strip.materialize_s": ("pipeline.strip_document",),
    "document.serialize_s": ("document.serialize",),
    "document.parse_s": ("document.parse",),
    "verify.contraction_s": ("verify.check_contraction",),
    "verify.identity_s": ("verify.check_identity",),
    "cli.main_s": ("cli.main",),
}

_SELF_TIMES = {
    "document.io_s": ("document.read_document", "document.write_document"),
    "cli.self_s": ("cli.main",),
}

_LEAF_TIMES = {
    "congruence.root_s": ("congruence.bad_shear_set", "congruence.equilateral_shear_set"),
    "verify.convex_s": ("verify.check_convex",),
}

_LEAF_CALLS = {
    "congruence.root_calls": ("congruence.bad_shear_set", "congruence.equilateral_shear_set"),
    "quadsplit.fair_splits": ("quadsplit.solve_fair_split",),
}

_COUNTERS = ("verify.halfturn_pairs", "verify.incongruent_pairs", "quadsplit.newton_iters",
             "strip.tiles", "document.bytes")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything recorded since the last reset.

    Times are summed over spans by name, which counts no time twice as long
    as no wrapped function calls itself through its wrapper.
    """
    out: dict[str, float] = {}
    for metric, names in _SPAN_TIMES.items():
        out[metric] = float(sum(sp.duration for sp in t.spans if sp.name in names))
    for metric, names in _SELF_TIMES.items():
        out[metric] = float(sum(sp.self_s for sp in t.spans if sp.name in names))
    for metric, names in _LEAF_TIMES.items():
        out[metric] = float(sum(t.leaf_totals[n][1] for n in names if n in t.leaf_totals))
    for metric, names in _LEAF_CALLS.items():
        out[metric] = sum(t.leaf_totals[n][0] for n in names if n in t.leaf_totals)
    for metric in _COUNTERS:
        out[metric] = t.counters.get(metric, 0)
    out["pipeline.y0_draws"] = sum(
        1 for sp in t.spans
        if sp.name == "strip.strip_tiling" and sp.parent is not None
        and sp.parent.name == "pipeline.sample_certified_y0")
    return out
