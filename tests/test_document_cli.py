"""Document round-trips, CLI exit codes, rendering, determinism."""

import builtins
import contextlib
import dataclasses
import errno
import functools
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtile import cli, document, pipeline
from fairtile.document import fmt17, parse, read_document, serialize
from fairtile.errors import DegeneratePolygon, DocumentError, InvalidParameter
from fairtile.geometry import Tiles
from fairtile.strip import strip_tiling
import oracles


def test_fmt17_round_trips_binary64():
    for x in (0.1, 1 / 3, math.sqrt(3), -0.0069876687186852, 1e-300, 12345.6789e10):
        assert float(fmt17(x)) == x
        assert fmt17(float(fmt17(x))) == fmt17(x)


def test_document_round_trip_is_byte_identical(tmp_path):
    doc = pipeline.strip_document(strip_tiling(0.2, 4))
    text = serialize(doc)
    assert serialize(parse(text)) == text
    path = tmp_path / "strip.tiles"
    document.write_document(doc, path)
    again = read_document(path)
    assert serialize(again) == text
    assert again.float_param("y0") == 0.2
    assert again.int_param("cols") == 4


def test_document_rejects_malformed_input():
    with pytest.raises(DocumentError):
        parse("")
    with pytest.raises(DocumentError):
        parse('{"format_version":"9","kind":"strip","parameters":{}}\n')
    with pytest.raises(DocumentError):
        parse('{"format_version":"1","kind":"blob","parameters":{}}\n')
    good = serialize(pipeline.strip_document(strip_tiling(0.2, 1)))
    with pytest.raises(DocumentError):
        parse(good + "not json\n")


def run_cli(*argv):
    return cli.main(list(argv))


@functools.cache
def _strip_text(cols):
    return serialize(pipeline.strip_document(strip_tiling(0.005, cols)))


def test_gen_strip_reproduces_published_coordinates(tmp_path):
    out = tmp_path / "fig.tiles"
    assert run_cli("gen-strip", "--y0", "0.2", "--cols", "6", "--out", str(out)) == 0
    doc = read_document(out)
    xs = {v for t in doc.tiles for v in t.vertices}
    for want in [(1.92307692308, -0.169230769231), (3.88360118583, 0.112523014511),
                 (5.86782183927, -0.0671455252767)]:
        assert any(abs(x - want[0]) < 1e-9 and abs(y - want[1]) < 1e-9 for x, y in xs)


def test_gen_strip_critical_height(tmp_path):
    out = tmp_path / "crit.tiles"
    y0 = 1 / math.sqrt(3)
    assert run_cli("gen-strip", "--y0", fmt17(y0), "--cols", "5", "--out", str(out)) == 0
    doc = read_document(out)
    xs = {v for t in doc.tiles for v in t.vertices}
    assert any(abs(x - 1.5) < 1e-12 and abs(y) < 1e-12 for x, y in xs)


def test_gen_strip_usage_errors(tmp_path):
    out = tmp_path / "x.tiles"
    for y0, cols in (("1.5", "3"), ("nope", "3"), ("0.2", "0"), ("nan", "3"), ("auto", "0")):
        assert run_cli("gen-strip", "--y0", y0, "--cols", cols, "--out", str(out)) == 2
        assert not out.exists()


@pytest.mark.parametrize("cols", [2.9, True])
def test_strip_header_cols_must_be_an_integer(tmp_path, cols):
    path = tmp_path / "s.tiles"
    assert run_cli("gen-strip", "--y0", "0.004", "--cols", "3", "--out", str(path)) == 0
    header, *rest = path.read_text().splitlines()
    head = json.loads(header)
    head["parameters"]["cols"] = cols
    path.write_text("\n".join([json.dumps(head), *rest]) + "\n")
    assert run_cli("verify", "--in", str(path), "--check", "identity", "--check", "area") == 2


def test_verify_compares_strip_tiles_with_the_header(tmp_path):
    low, high = tmp_path / "low.tiles", tmp_path / "high.tiles"
    assert run_cli("gen-strip", "--y0", "0.004", "--cols", "3", "--out", str(low)) == 0
    assert run_cli("gen-strip", "--y0", "0.009", "--cols", "3", "--out", str(high)) == 0
    header = low.read_text().splitlines()[0]
    mixed = tmp_path / "mixed.tiles"
    mixed.write_text("\n".join([header, *high.read_text().splitlines()[1:]]) + "\n")
    assert run_cli("verify", "--in", str(low)) == 0
    assert run_cli("verify", "--in", str(mixed)) == 1
    report = tmp_path / "report.json"
    assert run_cli("verify", "--in", str(mixed), "--check", "identity", "--json", str(report)) == 1
    (entry,) = json.loads(report.read_text())
    assert not entry["passed"] and len(entry["offenders"]) == 10
    assert entry["note"] == "26 of 26 tiles differ from the 26 of the header's strip"


def test_gen_strip_auto_is_seeded(tmp_path):
    a, b = tmp_path / "a.tiles", tmp_path / "b.tiles"
    assert run_cli("gen-strip", "--y0", "auto", "--seed", "5", "--cols", "3", "--out", str(a)) == 0
    assert run_cli("gen-strip", "--y0", "auto", "--seed", "5", "--cols", "3", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = read_document(a)
    assert 0.0 < doc.float_param("y0") <= 0.01
    assert doc.parameters["mode"] == "auto"


@pytest.fixture(scope="module")
def plane_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("plane") / "plane.tiles"
    code = run_cli("gen-plane", "--epsilon", "0.01", "--seed", "3",
                   "--rows", "2", "--cols", "4", "--out", str(out))
    assert code == 0
    return out


def test_gen_plane_usage_errors(tmp_path):
    out = str(tmp_path / "p.tiles")
    args = ["gen-plane", "--seed", "1", "--rows", "2", "--cols", "3", "--out", out]
    assert run_cli(*args, "--epsilon", "0") == 2
    assert run_cli(*args, "--epsilon", "0.2") == 2
    assert run_cli("gen-plane", "--epsilon", "0.01", "--seed", "1",
                   "--rows", "0", "--cols", "3", "--out", out) == 2


def test_gen_plane_json_names_each_rows_draws_and_margin(tmp_path):
    out, report = tmp_path / "p.tiles", tmp_path / "p.json"
    assert run_cli("gen-plane", "--epsilon", "0.005", "--seed", "42", "--rows", "6",
                   "--cols", "80", "--out", str(out), "--json", str(report)) == 0
    reports = {r["check_name"]: r for r in json.loads(report.read_text())}
    rows = reports["shear-budget"]["subchecks"]
    assert [r["check_name"] for r in rows] == [f"shear-row-{n}" for n in range(1, 7)]
    draws = [int(re.fullmatch(r"accepted at draw (\d+)", r["note"]).group(1)) for r in rows]
    margins = [r["margin"] for r in rows]
    assert all(1 <= d <= 64 for d in draws) and all(m > 4e-9 for m in margins)
    assert all(r["passed"] and r["tolerance_used"] == 4e-9 for r in rows)
    # row n's sweep covered the n rows placed so far, each a whole 8 * 80 + 2 tile window
    assert [r["tiles_checked"] for r in rows] == [n * 642 for n in range(1, 7)]
    # placing the rows rounds coordinates below 2e-14 here
    assert min(margins) == pytest.approx(reports["pairwise-incongruent"]["margin"], abs=1e-13)


def _gen_plane(tmp_path, capsys, epsilon, cols):
    """Exit code, seconds in process, output path and stderr of a 6-row plane."""
    out = tmp_path / f"p{epsilon}x{cols}.tiles"
    t0 = time.perf_counter()
    code = run_cli("gen-plane", "--epsilon", epsilon, "--seed", "42", "--rows", "6",
                   "--cols", str(cols), "--out", str(out))
    return code, time.perf_counter() - t0, out, capsys.readouterr().err


def test_gen_plane_refuses_a_dense_window_naming_the_row(tmp_path, capsys):
    # no shear lifts the 6x20 window above the floor at eps 1e-4: its row margins
    # stay below 1e-9, so the refusal comes before stacking
    code, elapsed, out, err = _gen_plane(tmp_path, capsys, "0.0001", 20)
    assert code == 3 and not out.exists() and elapsed < 1.0
    assert re.search(r"row parameter 1 \(strip row 0\) .*best margin \d", err)


def test_gen_plane_wide_windows_finish_or_refuse_in_bounded_time(tmp_path, capsys):
    code, _, out, _ = _gen_plane(tmp_path, capsys, "0.005", 160)
    assert code == 0 and out.exists()
    code, elapsed, out, err = _gen_plane(tmp_path, capsys, "0.005", 320)
    assert elapsed < 2.0
    assert (code == 0 and out.exists()) or (
        code == 3 and not out.exists()
        and re.search(r"row parameter \d+ \(strip row -?\d+\) .*best margin \d", err))


@given(epsilon=st.sampled_from([0.0, -0.0, -1e-3, 5e-324, 1e-300, 1e-8, 1e-6, 1e-4, 0.05,
                                0.0500001, math.nan, math.inf]) | st.floats(-0.01, 0.06),
       rows=st.integers(-1, 17), cols=st.integers(-1, 10), seed=st.integers(0, 2 ** 31),
       joined=st.booleans(), existing=st.sampled_from([None, 1, 300]))
@settings(max_examples=40, deadline=None)
def test_gen_plane_exit_code_contract(tmp_path_factory, epsilon, rows, cols, seed, joined,
                                      existing):
    out, fresh = (tmp_path_factory.mktemp("contract") / name for name in ("p.tiles", "f.tiles"))
    old = existing and _strip_text(existing)  # shorter, or longer, than any plane output
    if old:
        out.write_text(old)
    option = [f"--epsilon={epsilon!r}"] if joined else ["--epsilon", repr(epsilon)]
    argv = ["gen-plane", *option, "--seed", str(seed), "--rows", str(rows),
            "--cols", str(cols), "--out"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, str(out)])  # a traceback fails the test
        if existing and code == 0:
            assert cli.main([*argv, str(fresh)]) == 0
    assert code in (0, 2, 3)
    if not existing:
        assert out.exists() == (code == 0)
    elif code == 0:  # rewritten to exactly the bytes of a fresh file
        assert out.read_bytes() == fresh.read_bytes()
    else:  # a refusal leaves the old document as it was
        assert out.read_text() == old


@pytest.mark.parametrize("argv, message", [
    (["gen-plane", "--epsilon", "-1e-05", "--seed", "1", "--rows", "2", "--cols", "4"],
     "--epsilon must lie in (0, 0.05]"),
    (["gen-strip", "--y0", "-1e-3", "--cols", "4"], "y0 must lie in (0, 1)"),
    (["render", "--in", "PLANE", "--stroke-width", "-1e-3"], "stroke width must be"),
    (["render", "--in", "PLANE", "--scale", "-4e1"], "scale must be"),
], ids=["gen-plane", "gen-strip", "render-stroke-width", "render-scale"])
def test_negative_values_in_exponent_form_reach_the_range_checks(plane_doc, tmp_path, capsys,
                                                                 argv, message):
    out = tmp_path / "out"
    argv = [str(plane_doc) if a == "PLANE" else a for a in argv] + ["--out", str(out)]
    assert run_cli(*argv) == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_quadify_names_a_tile_stretched_past_the_edge_window(plane_doc, tmp_path, capsys):
    plane = read_document(plane_doc)
    xy = plane.tiles.xy.copy()
    xy[5] = xy[5].mean(axis=0) + 1.03 * (xy[5] - xy[5].mean(axis=0))  # edges ~2.06, past 2 * 1.012
    path = tmp_path / "stretched.tiles"
    stretched = dataclasses.replace(plane.tiles, xy=xy)
    document.write_document(dataclasses.replace(plane, tiles=stretched), path)
    capsys.readouterr()
    assert run_cli("quadify", "--in", str(path), "--out", str(tmp_path / "q.tiles")) == 3
    assert not (tmp_path / "q.tiles").exists()
    err = capsys.readouterr().err
    assert f"TileFailed: tile {plane.tiles.label(5)}: EdgeOutOfRange: " in err
    assert re.fullmatch(r"-?\d+/-?\d+/[1-4]", plane.tiles.label(5))


def test_verify_plane_document(plane_doc, tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli("verify", "--in", str(plane_doc), "--json", str(report_path)) == 0
    payload = json.loads(report_path.read_text())
    names = {entry["check_name"] for entry in payload}
    assert names == {"equal-area", "vertex-to-vertex", "pairwise-incongruent", "closeness"}
    assert all(entry["passed"] for entry in payload)
    # closeness uses the common report fields
    assert len({tuple(sorted(entry)) for entry in payload}) == 1


def test_verify_detects_tampering(plane_doc, tmp_path):
    lines = plane_doc.read_text().splitlines()
    record = json.loads(lines[5])
    x = float(record["vertices"][0][0])
    record["vertices"][0][0] = fmt17(x + 1e-3)
    lines[5] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "tampered.tiles"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", "--in", str(bad)) == 1


def test_verify_missing_file_and_unknown_check(plane_doc, tmp_path, capsys):
    assert run_cli("verify", "--in", str(tmp_path / "nope.tiles")) == 2
    assert run_cli("verify", "--in", str(plane_doc), "--check", "bogus") == 2
    # a path under a regular file, and a document that is not UTF-8, are
    # usage errors: one "error: " line and exit 2, never a traceback
    under = str(tmp_path / "file" / "x")
    (tmp_path / "file").write_text("")
    binary = tmp_path / "binary.tiles"
    binary.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    for argv in (("gen-strip", "--y0", "0.005", "--cols", "3", "--out", under),
                 ("gen-plane", "--epsilon", "0.01", "--seed", "3", "--rows", "1",
                  "--cols", "2", "--out", under),
                 ("quadify", "--in", str(plane_doc), "--out", under),
                 ("render", "--in", str(plane_doc), "--out", under),
                 ("verify", "--in", str(plane_doc), "--json", under),
                 ("verify", "--in", str(binary)),
                 ("quadify", "--in", str(binary), "--out", str(tmp_path / "q.tiles")),
                 ("render", "--in", str(binary), "--out", str(tmp_path / "r.svg"))):
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err
    assert not (tmp_path / "q.tiles").exists() and not (tmp_path / "r.svg").exists()


@pytest.mark.parametrize("target", ["file", "missing", "empty", "directory", "directory/"])
def test_output_paths_are_refused_before_any_work(plane_doc, tmp_path, capsys, monkeypatch,
                                                  target):
    def never(*args, **kwargs):
        raise AssertionError("work began before the output path was checked")

    for owner, name in ((pipeline, "quadify_checked"), (pipeline, "build_plane"),
                        (pipeline, "sample_certified_y0"), (document, "read_document"),
                        (cli, "strip_tiling")):
        monkeypatch.setattr(owner, name, never)
    (tmp_path / "file").write_text("")
    (tmp_path / "directory").mkdir()
    ok = str(tmp_path / "ok")
    if target in ("file", "missing"):  # a parent that is not a directory
        bad = str(tmp_path / target / "x")
        want = f"cannot write {bad}: {tmp_path / target} is missing or not a directory"
    elif target == "empty":
        bad, want = "", "cannot write an empty path"
    else:  # an existing directory, with and without the trailing separator
        bad = str(tmp_path) + os.sep + target
        want = f"cannot write {bad}: it is a directory"
    plane = ("gen-plane", "--epsilon", "0.01", "--seed", "3", "--rows", "1", "--cols", "2")
    capsys.readouterr()
    for argv in (("gen-strip", "--y0", "0.005", "--cols", "3", "--out", bad),
                 ("gen-strip", "--y0", "auto", "--cols", "3", "--out", bad),
                 (*plane, "--out", bad), (*plane, "--out", ok, "--json", bad),
                 (*plane, "--out", bad, "--json", ok),
                 ("quadify", "--in", str(plane_doc), "--out", bad),
                 ("quadify", "--in", str(plane_doc), "--out", ok, "--json", bad),
                 ("quadify", "--in", str(plane_doc), "--out", bad, "--json", ok),
                 ("render", "--in", str(plane_doc), "--out", bad),
                 ("verify", "--in", str(plane_doc), "--json", bad)):
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {want}\n"), argv
    # nothing opened or created
    assert sorted(p.name for p in tmp_path.iterdir()) == ["directory", "file"]
    assert not any((tmp_path / "directory").iterdir())


@pytest.mark.parametrize("old_cols, new_cols", [(20, 3), (3, 20)], ids=["shorter", "longer"])
def test_write_text_rewrites_a_document_in_place(tmp_path, old_cols, new_cols):
    path, link, fresh = (tmp_path / name for name in ("s.tiles", "hard.tiles", "fresh.tiles"))
    document.write_text(fresh, _strip_text(new_cols))
    assert fresh.read_bytes() == _strip_text(new_cols).encode()
    document.write_text(path, _strip_text(old_cols))
    os.link(path, link)
    inode = path.stat().st_ino
    document.write_text(path, _strip_text(new_cols))
    assert path.read_bytes() == link.read_bytes() == fresh.read_bytes()
    assert path.stat().st_ino == inode


def test_write_text_follows_a_symlink(tmp_path):
    target, link = tmp_path / "target.tiles", tmp_path / "link.tiles"
    document.write_text(target, _strip_text(20))
    link.symlink_to(target)
    document.write_text(link, _strip_text(3))
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == _strip_text(3).encode()


def test_write_text_keeps_the_mode(tmp_path):
    path, fresh, opened = (tmp_path / name for name in ("s.tiles", "fresh.tiles", "opened"))
    document.write_text(fresh, "x\n")
    with open(opened, "w"):  # a fresh path gets the mode a plain open gives it
        pass
    assert fresh.stat().st_mode == opened.stat().st_mode
    document.write_text(path, _strip_text(20))
    path.chmod(0o600)
    document.write_text(path, _strip_text(3))
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_bytes() == _strip_text(3).encode()


def test_gen_strip_writes_to_the_null_device():
    assert run_cli("gen-strip", "--y0", "0.005", "--cols", "3", "--out", os.devnull) == 0


@pytest.mark.parametrize("cut_fails", [False, True], ids=["cut", "cut-fails"])
def test_a_failed_write_leaves_an_empty_file(tmp_path, monkeypatch, capsys, cut_fails):
    path = tmp_path / "s.tiles"
    argv = ("gen-strip", "--y0", "0.005", "--cols", "3", "--out", str(path))
    document.write_text(path, _strip_text(20))
    write = os.write

    def write_half(fd, data):
        write(fd, data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def cut_fails_too(fd, length):
        raise OSError(errno.EIO, "the cut failed")

    monkeypatch.setattr(os, "write", write_half)
    if cut_fails:
        monkeypatch.setattr(os, "ftruncate", cut_fails_too)
    with pytest.raises(OSError) as info:
        document.write_text(path, _strip_text(3))
    assert info.value.errno == errno.ENOSPC  # never the cut's own error
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.ENOSPC}] No space left on device\n"
    if not cut_fails:
        assert path.read_bytes() == b""
        with pytest.raises(DocumentError, match="empty document"):
            read_document(path)


def test_no_output_is_opened_with_truncation(plane_doc, tmp_path, monkeypatch):
    """Every open, through ``os.open`` or ``open``, is recorded with its flags
    while each command writes its outputs twice (fresh, then over the first)."""
    opened, os_open, builtin_open = [], os.open, builtins.open

    def record(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    def open_through_record(file, *args, **kwargs):
        if not isinstance(file, int) and kwargs.get("opener") is None:
            kwargs["opener"] = lambda path, flags: record(path, flags, 0o666)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", record)
    monkeypatch.setattr(builtins, "open", open_through_record)
    out = {name: str(tmp_path / name) for name in
           ("s.tiles", "p.tiles", "p.json", "q.tiles", "q.json", "v.json", "r.svg")}
    for _ in range(2):
        assert run_cli("gen-strip", "--y0", "0.005", "--cols", "3", "--out", out["s.tiles"]) == 0
        assert run_cli("gen-plane", "--epsilon", "0.01", "--seed", "3", "--rows", "2",
                       "--cols", "4", "--out", out["p.tiles"], "--json", out["p.json"]) == 0
        assert run_cli("quadify", "--in", str(plane_doc), "--out", out["q.tiles"],
                       "--json", out["q.json"]) == 0
        assert run_cli("verify", "--in", out["q.tiles"], "--json", out["v.json"]) == 0
        assert run_cli("render", "--in", out["q.tiles"], "--out", out["r.svg"]) == 0
    writes = [(path, flags) for path, flags in opened if flags & (os.O_WRONLY | os.O_RDWR)]
    assert sorted({path for path, _ in writes}) == sorted(out.values())
    assert len(writes) == 2 * len(out)
    assert not [path for path, flags in opened if flags & os.O_TRUNC]


def test_verify_strip_contraction_report(tmp_path, capsys):
    out = tmp_path / "s.tiles"
    assert run_cli("gen-strip", "--y0", "0.005", "--cols", "10", "--out", str(out)) == 0
    assert run_cli("verify", "--in", str(out), "--check", "contraction") == 0
    text = capsys.readouterr().out
    for part in ("h-bound", "h-monotone", "y-alternating", "y-abs-sum"):
        assert part in text
    # by default the contraction suite runs only for heights in the sampling window
    report = tmp_path / "report.json"
    high = tmp_path / "high.tiles"
    assert run_cli("gen-strip", "--y0", "0.2", "--cols", "3", "--out", str(high)) == 0
    for path, contraction in ((out, True), (high, False)):
        assert run_cli("verify", "--in", str(path), "--json", str(report)) == 0
        names = [entry["check_name"] for entry in json.loads(report.read_text())]
        assert names == ["equal-area", "vertex-to-vertex", "halfturn-incongruent",
                         "strip-identities"] + ["contraction"] * contraction


def test_strip_checks_rebuild_the_tiling_once(monkeypatch):
    doc = pipeline.strip_document(strip_tiling(0.005, 10))
    calls = []

    def counted(y0, cols):
        calls.append((y0, cols))
        return strip_tiling(y0, cols)

    monkeypatch.setattr(pipeline, "strip_tiling", counted)
    reports = pipeline.run_checks(doc, ["identity", "contraction"])
    assert calls == [(0.005, 10)]
    assert [r.check_name for r in reports] == ["strip-identities", "contraction"]
    assert all(r.passed for r in reports)
    pipeline.run_checks(doc, ["area"])
    assert len(calls) == 1  # tile checks need no tiling


def test_quadify_and_determinism(plane_doc, tmp_path):
    q1, q2 = tmp_path / "q1.tiles", tmp_path / "q2.tiles"
    assert run_cli("quadify", "--in", str(plane_doc), "--out", str(q1)) == 0
    assert run_cli("quadify", "--in", str(plane_doc), "--out", str(q2)) == 0
    assert q1.read_bytes() == q2.read_bytes()
    doc = read_document(q1)
    src = read_document(plane_doc)
    assert doc.kind == "quad"
    assert len(doc.tiles) == 3 * len(src.tiles)
    assert run_cli("verify", "--in", str(q1)) == 0
    build = pipeline.quadify_checked(src)
    assert build.passed and serialize(build.doc) == q1.read_text()
    assert [r.check_name for r in build.reports] == [
        "pairwise-incongruent", "equal-area", "equal-perimeter", "convex", "pairwise-incongruent"]


def test_quadify_json_holds_the_reports_it_prints(plane_doc, tmp_path, monkeypatch, capsys):
    builds, quadify_checked = [], pipeline.quadify_checked
    monkeypatch.setattr(pipeline, "quadify_checked",
                        lambda doc: builds.append(quadify_checked(doc)) or builds[-1])
    out, report, verified = (tmp_path / name for name in ("q.tiles", "q.json", "v.json"))
    capsys.readouterr()
    assert run_cli("quadify", "--in", str(plane_doc), "--out", str(out),
                   "--json", str(report)) == 0
    printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:-1]]
    (build,) = builds
    payload = json.loads(report.read_text())
    assert payload == json.loads(json.dumps([dataclasses.asdict(r) for r in build.reports]))
    assert printed == [f"[PASS] {r['check_name']}" for r in payload]
    # the schema of verify --json (and gen-plane --json)
    assert run_cli("verify", "--in", str(out), "--json", str(verified)) == 0
    assert {frozenset(r) for r in payload} == {frozenset(r) for r in
                                               json.loads(verified.read_text())}


def test_verify_refuses_closeness_on_quad_documents(tmp_path):
    plane, quads = tmp_path / "p.tiles", tmp_path / "q.tiles"
    assert run_cli("gen-plane", "--epsilon", "0.05", "--seed", "4",
                   "--rows", "2", "--cols", "3", "--out", str(plane)) == 0
    assert run_cli("quadify", "--in", str(plane), "--out", str(quads)) == 0
    assert run_cli("verify", "--in", str(quads), "--check", "closeness") == 2


@pytest.fixture(scope="module")
def small_docs():
    from fairtile.quadsplit import quadify_plane

    plane = pipeline.build_plane(0.05, 4, 2, 3).doc
    return {"strip": pipeline.strip_document(strip_tiling(0.005, 3)), "plane": plane,
            "quad": pipeline.quad_document(quadify_plane(plane.tiles), plane)}


def test_reports_of_in_memory_documents_are_json(small_docs):
    for doc in small_docs.values():
        for r in pipeline.run_checks(doc, list(pipeline.CHECKS[doc.kind])):
            json.dumps(dataclasses.asdict(r))


def test_tile_lines_are_the_json_dumps_bytes(small_docs):
    strip = small_docs["strip"]
    assert any(str(c) == "-0.0" for t in strip.tiles for v in t.vertices for c in v)
    assert set(small_docs["quad"].tiles.corner.tolist()) == {0, 1, 2}
    # one more tile, with a negative zero and a subnormal among its coordinates
    more = [np.concatenate([a, extra]) for a, extra in zip(
        (strip.tiles.xy, strip.tiles.row, strip.tiles.col, strip.tiles.slot),
        ([((-0.0, 0.1), (2.5, -1e-300), (1 / 3, 7.0))], [2], [-5], [3]))]
    docs = list(small_docs.values())
    docs.append(document.TilingDocument("strip", strip.parameters, Tiles(*more)))
    for doc in docs:  # as built in memory, then plain floats after a parse
        assert serialize(doc) == oracles.serialize(doc)
        assert serialize(parse(serialize(doc))) == oracles.serialize(doc)


# Every named check on one small document of each kind: (check_name, passed,
# tolerance_used), or the error a refused pair raises.  A name that is not a
# kind's own runs with the settings of the last kind that defines it.
# ``identity`` compares the tiles with the header's strip, which plane and
# quad tiles are not.
CHECK_TABLE = {
    "strip": {
        "area": ("equal-area", True, 1e-10),
        "v2v": ("vertex-to-vertex", True, 1e-09),
        "halfturn": ("halfturn-incongruent", True, 1e-09),
        "identity": ("strip-identities", True, 1e-10),
        "contraction": ("contraction", True, 0.0),
        "incongruent": ("pairwise-incongruent", False, 1e-09),
        "closeness": DocumentError,
        "perimeter": DocumentError,
        "convex": ("convex", True, 1e-12),
    },
    "plane": {
        "area": ("equal-area", True, 1e-10),
        "v2v": ("vertex-to-vertex", True, 1e-09),
        "halfturn": ("halfturn-incongruent", True, 1e-09),
        "identity": ("strip-identities", False, 1e-10),
        "contraction": ("contraction", True, 0.0),
        "incongruent": ("pairwise-incongruent", True, 1e-09),
        "closeness": ("closeness", True, 0.1),
        "perimeter": DocumentError,
        "convex": ("convex", True, 1e-12),
    },
    "quad": {
        "area": ("equal-area", True, 1e-09),
        "v2v": ("vertex-to-vertex", False, 1e-09),
        "halfturn": ("halfturn-incongruent", True, 1e-09),
        "identity": ("strip-identities", False, 1e-10),
        "contraction": ("contraction", True, 0.0),
        "incongruent": ("pairwise-incongruent", True, 1e-09),
        "closeness": InvalidParameter,
        "perimeter": ("equal-perimeter", True, 1e-09),
        "convex": ("convex", True, 1e-12),
    },
}


def test_every_check_on_every_kind_matches_the_table(small_docs):
    got = {}
    for kind, doc in small_docs.items():
        got[kind] = {}
        for name in pipeline.CHECK_NAMES:
            try:
                (r,) = pipeline.run_checks(doc, [name])
                got[kind][name] = (r.check_name, r.passed, r.tolerance_used)
            except (DocumentError, InvalidParameter) as e:
                got[kind][name] = type(e)
    assert got == CHECK_TABLE


def test_quadify_usage_errors(plane_doc, tmp_path):
    assert run_cli("quadify", "--in", str(tmp_path / "missing.tiles"),
                   "--out", str(tmp_path / "q.tiles")) == 2
    strip_path = tmp_path / "s.tiles"
    assert run_cli("gen-strip", "--y0", "0.2", "--cols", "2", "--out", str(strip_path)) == 0
    assert run_cli("quadify", "--in", str(strip_path), "--out", str(tmp_path / "q.tiles")) == 2


def test_quadify_refuses_equilateral_tiles(tmp_path):
    from fairtile.assembly import periodic_triangles
    from oracles import ids_of, tile_ids

    tiles = periodic_triangles(*ids_of(tile_ids(2)))
    doc = document.TilingDocument(
        kind="plane",
        parameters=document.make_parameters(epsilon=0.01, seed=0, rows=1, cols=2, y0=0.0),
        tiles=tiles)
    path = tmp_path / "periodic.tiles"
    document.write_document(doc, path)
    assert run_cli("quadify", "--in", str(path), "--out", str(tmp_path / "q.tiles")) == 3
    assert not (tmp_path / "q.tiles").exists()
    build = pipeline.quadify_checked(doc)
    assert build.doc is None and not build.passed
    assert [r.check_name for r in build.reports] == ["pairwise-incongruent"]


def test_documents_refuse_tiles_of_another_kind(plane_doc, tmp_path):
    from fairtile.quadsplit import quadify_plane

    plane = read_document(plane_doc)
    quad = pipeline.quad_document(quadify_plane(oracles.take(plane.tiles, [0])), plane)
    plane_lines, quad_lines = (serialize(d).splitlines() for d in (plane, quad))
    # a plane document with one quadrangle, a quad document with one triangle
    odd = {"plane": plane_lines[:1] + plane_lines[2:] + quad_lines[1:2],
           "quad": quad_lines + plane_lines[2:3]}
    for kind, lines in odd.items():
        path = tmp_path / f"{kind}.tiles"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DocumentError):
            read_document(path)
        assert run_cli("verify", "--in", str(path), "--check", "incongruent") == 2
    assert run_cli("quadify", "--in", str(tmp_path / "plane.tiles"),
                   "--out", str(tmp_path / "q.tiles")) == 2


def test_documents_refuse_a_quadrangle_with_a_repeated_vertex(plane_doc, tmp_path):
    from fairtile.quadsplit import quadify_plane

    with pytest.raises(DegeneratePolygon, match="zero-length edge"):
        Tiles(np.array([[(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]]))
    plane = read_document(plane_doc)
    header, first, *rest = serialize(pipeline.quad_document(
        quadify_plane(oracles.take(plane.tiles, slice(2))), plane)).splitlines()
    tile = json.loads(first)
    tile["vertices"][2] = tile["vertices"][1]
    path = tmp_path / "repeated.tiles"
    path.write_text("\n".join([header, json.dumps(tile), *rest]) + "\n")
    with pytest.raises(DocumentError):
        read_document(path)
    assert run_cli("verify", "--in", str(path)) == 2
    assert run_cli("quadify", "--in", str(path), "--out", str(tmp_path / "q.tiles")) == 2


def test_documents_refuse_tile_ids_that_are_not_integers(tmp_path):
    header, first, *rest = serialize(pipeline.strip_document(strip_tiling(0.2, 1))).splitlines()
    bad_ids = [{"col": -1.7, "row": True}, {"col": 1.0}, {"slot": "1"}, {"row": False},
               {"row": None}]
    for k, fields in enumerate(bad_ids):
        tile = json.loads(first)
        tile["id"].update(fields)
        path = tmp_path / f"id{k}.tiles"
        path.write_text("\n".join([header, json.dumps(tile), *rest]) + "\n")
        with pytest.raises(DocumentError):
            read_document(path)
        assert run_cli("verify", "--in", str(path)) == 2


def test_verify_refuses_a_repeated_tile_id(tmp_path, capsys):
    path = tmp_path / "strip.tiles"
    assert run_cli("gen-strip", "--y0", "0.004", "--cols", "3", "--out", str(path)) == 0
    lines = path.read_text().split("\n")
    lines[2] = lines[1]
    path.write_text("\n".join(lines))
    capsys.readouterr()
    assert run_cli("verify", "--in", str(path), "--check", "area") == 2
    assert "duplicate tile id 0/-3/1 on lines 2 and 3" in capsys.readouterr().err


def test_importing_the_cli_leaves_the_network_stack_out():
    code = ("import sys, fairtile.cli; "
            "print(sorted({'urllib.request', 'http.client', 'email'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_render(plane_doc, tmp_path):
    svg = tmp_path / "plane.svg"
    assert run_cli("render", "--in", str(plane_doc), "--out", str(svg), "--labels") == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == len(read_document(plane_doc).tiles)


def test_render_viewbox(plane_doc, tmp_path):
    svg = tmp_path / "box.svg"
    assert run_cli("render", "--in", str(plane_doc), "--out", str(svg),
                   "--viewbox", "-1.5", "-2", "3", "4.25") == 0
    assert ET.fromstring(svg.read_text()).get("viewBox") == "-1.5 -2 3 4.25"


@pytest.mark.parametrize("argv", [("--viewbox", "-1e3", "-2", "3", "4"),
                                  ("--viewbox=-1e3", "-2", "3", "4"),
                                  ("--viewbox", "-1E+3", "-.2e1", "3e0", "4")])
def test_render_viewbox_with_exponents(plane_doc, tmp_path, argv):
    svg = tmp_path / "box.svg"
    assert run_cli("render", "--in", str(plane_doc), "--out", str(svg), *argv) == 0
    assert ET.fromstring(svg.read_text()).get("viewBox") == "-1000 -2 3 4"


@pytest.mark.parametrize("argv", [("--viewbox", "-1e3", "-2", "3", "x"),
                                  ("--viewbox=-1e3", "-2", "x", "4"),
                                  ("--viewbox=-1ex", "-2", "3", "4")])
def test_render_refuses_a_viewbox_part_that_is_no_number(plane_doc, tmp_path, argv):
    svg = tmp_path / "bad.svg"
    with pytest.raises(SystemExit) as info:
        run_cli("render", "--in", str(plane_doc), "--out", str(svg), *argv)
    assert info.value.code == 2
    assert not svg.exists()


@pytest.mark.parametrize("box", ["0,0,1", "a,b,c,d", "0,0,nan,1", "0,0,-1,1", "0,0,0,1"])
def test_render_refuses_a_bad_viewbox(plane_doc, tmp_path, box):
    svg = tmp_path / "bad.svg"
    argv = ("render", "--in", str(plane_doc), "--out", str(svg), "--viewbox", *box.split(","))
    if box in ("0,0,1", "a,b,c,d"):  # not four numbers: argparse refuses
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        assert info.value.code == 2
    else:  # four numbers, but not finite and nonempty
        assert run_cli(*argv) == 2
    assert not svg.exists()


@pytest.mark.parametrize("option", [("--scale", "nan"), ("--scale", "inf"), ("--scale", "0"),
                                    ("--scale", "-2"), ("--stroke-width", "-1"),
                                    ("--stroke-width", "nan"), ("--stroke-width", "inf")])
def test_render_refuses_a_bad_scale_or_stroke_width(plane_doc, tmp_path, option):
    svg = tmp_path / "bad.svg"
    assert run_cli("render", "--in", str(plane_doc), "--out", str(svg), *option) == 2
    assert not svg.exists()
    assert run_cli("render", "--in", str(plane_doc), "--out", str(svg),
                   "--stroke-width", "0") == 0  # an unstroked drawing is still valid


def test_render_empty_document(tmp_path):
    empty = Tiles(np.empty((0, 3, 2)), *np.empty((3, 0), dtype=np.int64))
    doc = document.TilingDocument(kind="strip", parameters={}, tiles=empty)
    path = tmp_path / "empty.tiles"
    document.write_document(doc, path)
    svg = tmp_path / "empty.svg"
    assert run_cli("render", "--in", str(path), "--out", str(svg)) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
