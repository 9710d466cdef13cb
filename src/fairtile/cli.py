"""Command-line interface.

Subcommands generate strip and plane documents, subdivide plane documents
into quadrangle documents, verify documents against the invariant checks,
and render documents to SVG.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error,
3 generation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import re
import sys

# assembly is not called here; it stays bound as ``cli.assembly`` because
# bench/test_bench.py reaches the layers it traces through this module
from . import assembly, document, pipeline, render, verify  # noqa: F401
from .errors import DocumentError, FairtileError, InvalidParameter
from .strip import strip_tiling

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GENERATION = 3


def _print_report(r: verify.VerificationReport) -> None:
    status = "PASS" if r.passed else "FAIL"
    detail = []
    if r.worst_residual is not None:
        detail.append(f"worst residual {r.worst_residual:.3e} (tol {r.tolerance_used:.0e})")
    if r.margin is not None:
        detail.append(f"margin {r.margin:.3e}")
    if r.offenders:
        detail.append("offenders " + ", ".join(f"{a}|{b}" for a, b in r.offenders))
    if r.note:
        detail.append(r.note)
    print(f"[{status}] {r.check_name}: " + ("; ".join(detail) if detail else "ok"))
    for s in r.subchecks:
        _print_report(s)


def _cmd_gen_strip(args) -> int:
    if args.y0 == "auto":
        rng = random.Random(args.seed)
        y0, tiling = pipeline.sample_certified_y0(rng, args.cols)
        mode, seed = "auto", args.seed
    else:
        try:
            y0 = float(args.y0)
        except ValueError:
            raise InvalidParameter(f"--y0 must be a number or 'auto', got {args.y0!r}")
        tiling = strip_tiling(y0, args.cols)
        mode, seed = "fixed", None
    doc = pipeline.strip_document(tiling, seed=seed, mode=mode)
    document.write_document(doc, args.out)
    print(f"strip document: y0={document.fmt17(y0)}, cols={args.cols}, "
          f"{len(doc.tiles)} tiles -> {args.out}")
    return EXIT_OK


def _write_reports(reports, path: str | None) -> None:
    """Write the reports as JSON to ``path``, when one is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(r) for r in reports], fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_build(build: pipeline.Build, out: str, refusal: str, label: str,
                 json_path: str | None = None) -> int:
    """Print the build's reports (and write them to ``json_path``), then write
    its document if every check passed."""
    for r in build.reports:
        _print_report(r)
    _write_reports(build.reports, json_path)
    if not build.passed:
        print(refusal, file=sys.stderr)
        return EXIT_GENERATION
    document.write_document(build.doc, out)
    print(f"{label}{len(build.doc.tiles)} tiles -> {out}")
    return EXIT_OK


def _cmd_gen_plane(args) -> int:
    if not 0.0 < args.epsilon <= 0.05:
        raise InvalidParameter(f"--epsilon must lie in (0, 0.05], got {args.epsilon}")
    # beyond ~16 rows the nested shear intervals drop below the congruence
    # quantum and the finite-precision incongruence certificate saturates
    if not 1 <= args.rows <= 16:
        raise InvalidParameter(f"--rows must lie in [1, 16], got {args.rows}")
    if not 1 <= args.cols <= 2000:
        raise InvalidParameter(f"--cols must lie in [1, 2000], got {args.cols}")
    build = pipeline.build_plane(args.epsilon, args.seed, args.rows, args.cols)
    return _write_build(build, args.out, "generation failed verification; no document written",
                        f"plane document: epsilon={document.fmt17(args.epsilon)}, "
                        f"seed={args.seed}, ", args.json)


def _cmd_quadify(args) -> int:
    build = pipeline.quadify_checked(document.read_document(args.infile))
    return _write_build(build, args.out, "quadify refused: input or output failed verification",
                        "quad document: ", args.json)


def _cmd_verify(args) -> int:
    doc = document.read_document(args.infile)
    reports = pipeline.run_checks(doc, args.check)
    for r in reports:
        _print_report(r)
    _write_reports(reports, args.json)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _cmd_render(args) -> int:
    doc = document.read_document(args.infile)
    viewbox = tuple(args.viewbox) if args.viewbox else None
    options = render.RenderOptions(stroke_width=args.stroke_width, viewbox=viewbox,
                                   label_tiles=args.labels, scale=args.scale)
    svg = render.render_svg(doc.tiles, options)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(f"rendered {len(doc.tiles)} tiles -> {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairtile",
        description="Construct, verify and render distorted strip tilings, "
                    "incongruent plane tilings and their fair quadrangle subdivisions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-strip", help="generate a distorted strip tiling document")
    p.add_argument("--y0", required=True, help="strip height in (0,1), or 'auto'")
    p.add_argument("--seed", type=int, default=0, help="sampling seed for --y0 auto")
    p.add_argument("--cols", type=int, required=True, help="columns on each side of the axis")
    p.add_argument("--out", required=True, help="output document path")
    p.set_defaults(func=_cmd_gen_strip)

    p = sub.add_parser("gen-plane", help="generate a verified plane tiling document")
    p.add_argument("--epsilon", type=float, required=True, help="closeness budget in (0, 0.05]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rows", type=int, required=True, help="number of strip rows")
    p.add_argument("--cols", type=int, required=True, help="columns on each side of the axis")
    p.add_argument("--out", required=True)
    p.add_argument("--json", help="also write the reports, shear rows included, to this path")
    p.set_defaults(func=_cmd_gen_plane)

    p = sub.add_parser("quadify", help="subdivide a plane document into fair quadrangles")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", help="also write the reports to this path")
    p.set_defaults(func=_cmd_quadify)

    p = sub.add_parser("verify", help="run invariant checks on a document")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--check", action="append", metavar="NAME",
                   help=f"check to run (repeatable); default depends on kind; "
                        f"one of: {', '.join(pipeline.CHECK_NAMES)}")
    p.add_argument("--json", help="also write a machine-readable report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render a document to SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stroke-width", type=float, default=0.02)
    p.add_argument("--scale", type=float, default=40.0)
    p.add_argument("--labels", action="store_true", help="draw tile id labels")
    p.add_argument("--viewbox", nargs=4, type=float, metavar=("X", "Y", "W", "H"),
                   help="explicit viewBox (render coordinates)")
    p.set_defaults(func=_cmd_render)
    # argparse reads "-1e3" as an unknown option; every subcommand takes each
    # string that starts with "-<digit>" or "-.<digit>" as a value instead
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _split_viewbox(argv: list[str]) -> list[str]:
    """``--viewbox=X Y W H`` as ``--viewbox X Y W H``; argparse refuses a
    value after ``=`` for an option that takes four."""
    out = []
    for arg in argv:
        head, eq, value = arg.partition("=")
        out.extend([head, value] if eq and head == "--viewbox" else [arg])
    return out


def _check_output_dirs(args) -> None:
    """Refuse, before any work, an output path whose directory is missing or
    is not a directory; the file itself is opened only when it is written."""
    import os.path  # loaded with the interpreter; kept off the module-level imports
    for path in (getattr(args, "out", None), getattr(args, "json", None)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise InvalidParameter(f"cannot write {path}: {os.path.dirname(path)} "
                                   f"is missing or not a directory")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_split_viewbox(sys.argv[1:] if argv is None else list(argv)))
    try:
        _check_output_dirs(args)
        return args.func(args)
    except (InvalidParameter, DocumentError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FairtileError as e:
        print(f"generation failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_GENERATION


if __name__ == "__main__":
    sys.exit(main())
