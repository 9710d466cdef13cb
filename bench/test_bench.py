"""Tests of the benchmark itself: each workload at a tiny size, the tracer,
and the output checks against corrupted documents."""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

TINY = {
    "PLANE_SHAPES": ((0.05, 2, 3), (0.05, 1, 4)),
    "QUADIFY_SHAPE": (0.05, 2, 3),
    "STRIP_COLS": 20,
}


@pytest.fixture()
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    return workloads.import_cli()


def _quiet(main, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_at_tiny_size(tiny, tmp_path, workload):
    plan = workloads.set_up(workload, 3, tmp_path, lambda argv: _quiet(tiny.main, argv))
    r = run.run_passes(tiny, plan, 0.0, None)
    assert r.failed == 0 and r.problems == []
    assert r.attempted == len(plan["ops"]) and r.tiles > 0


def _traced_pass(cli, workload, tmp_path):
    plan = workloads.set_up(workload, 3, tmp_path, lambda argv: _quiet(cli.main, argv))
    bindings = [(cli, "main"), (cli.verify, "check_convex"), (cli.pipeline, "strip_tiling"),
                (cli.assembly, "bad_shear_set"), (cli.assembly.PlaneTiling, "tiles")]
    before = [getattr(owner, name) for owner, name in bindings]
    tracer = tracing.install()
    try:
        r = run.run_passes(cli, plan, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in bindings] == before
    assert r.failed == 0 and r.problems == []
    (layers,) = r.layers
    assert set(layers) == {name for name, _ in tracing.PER_LAYER}
    return layers


def test_traced_plane_counts(tiny, tmp_path):
    m = _traced_pass(tiny, "plane", tmp_path)
    assert m["pipeline.y0_draws"] >= 2  # one draw per gen-plane at least
    assert m["congruence.root_calls"] > 0 and m["assembly.select_shears_s"] > 0
    assert m["quadsplit.fair_splits"] == 0 and m["strip.materialize_s"] == 0
    n = 8 * 4 + 2  # the half-turn gate sweeps the widest window once per draw
    assert m["verify.halfturn_pairs"] >= n * (n - 1) // 2
    assert 0 < m["cli.self_s"] < m["cli.main_s"]


def test_traced_quadify_counts(tiny, tmp_path):
    m = _traced_pass(tiny, "quadify", tmp_path)
    triangles = 2 * (8 * 3 + 2)
    assert m["quadsplit.fair_splits"] == triangles
    assert m["quadsplit.newton_iters"] >= triangles
    tri_pairs = triangles * (triangles - 1) // 2
    quad_pairs = 3 * triangles * (3 * triangles - 1) // 2
    assert m["verify.incongruent_pairs"] == tri_pairs + quad_pairs
    assert m["verify.incongruent_quad_s"] > 0 and m["assembly.select_shears_s"] == 0


def test_traced_strip_counts(tiny, tmp_path):
    m = _traced_pass(tiny, "strip", tmp_path)
    assert m["strip.tiles"] == 8 * 20 + 2
    assert m["document.bytes"] > 0 and m["document.parse_s"] > 0
    assert m["verify.halfturn_pairs"] == 0 and m["congruence.root_calls"] == 0


# ---------------------------------------------------------------------------
# output checks against corrupted documents


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    cli = workloads.import_cli()
    d = tmp_path_factory.mktemp("docs")
    for argv in (
        ["gen-plane", "--epsilon", "0.05", "--seed", "4", "--rows", "2", "--cols", "3",
         "--out", str(d / "plane.tiles")],
        ["quadify", "--in", str(d / "plane.tiles"), "--out", str(d / "quad.tiles")],
        ["gen-strip", "--y0", "0.004", "--cols", "20", "--out", str(d / "strip.tiles")],
    ):
        assert _quiet(cli.main, argv) == 0
    return {kind: checks.load(d / f"{kind}.tiles") for kind in ("plane", "quad", "strip")}


def _check(docs, kind, doc=None):
    doc = doc if doc is not None else docs[kind]
    if kind == "plane":
        return checks.check_plane(doc, 2, 3, 0.05)
    if kind == "quad":
        return checks.check_quad(doc, docs["plane"])
    return checks.check_strip(doc, 20)


def _copy(doc):
    return checks.Doc(doc.kind, dict(doc.params), list(doc.ids), doc.verts.copy())


@pytest.mark.parametrize("kind", ["plane", "quad", "strip"])
def test_clean_documents_pass(docs, kind):
    assert _check(docs, kind) == []


@pytest.mark.parametrize("kind", ["plane", "quad", "strip"])
def test_moved_vertex_fails(docs, kind):
    bad = _copy(docs[kind])
    bad.verts[5, 1] += (1e-7, 0.0)
    assert _check(docs, kind, bad)


@pytest.mark.parametrize("kind", ["plane", "quad"])
def test_congruent_pair_fails(docs, kind):
    bad = _copy(docs[kind])
    # a lattice translate keeps area, perimeter, convexity and lattice closeness
    bad.verts[7] = bad.verts[2] + np.array([2.0, 0.0])
    fails = _check(docs, kind, bad)
    assert len(fails) == 1 and "incongruence" in fails[0]


def test_reflected_quadrangle_is_congruent(docs):
    bad = _copy(docs["quad"])
    mirror = bad.verts[2][::-1] * np.array([-1.0, 1.0])  # reversed to stay counterclockwise
    bad.verts[8] = mirror
    fails = _check(docs, "quad", bad)
    assert len(fails) == 1 and "incongruence" in fails[0]


def test_strip_congruent_pair_fails(docs):
    bad = _copy(docs["strip"])
    bad.verts[7] = bad.verts[2] + np.array([0.5, 0.0])
    assert _check(docs, "strip", bad)
