"""Workload inputs, generated from the benchmark seed.

Every workload is a list of operations, each one argument vector for
``fairtile.cli.main``, the entry point behind the ``fairtile`` command.
The seed fixes every generated value; the program receives only these
arguments and the documents set-up writes.

* ``plane``: ``gen-plane`` over three desk shapes.  6x20 at epsilon 0.005
  is the acceptance window; 3x30 is wide, so the O(cols^2) shear roots and
  half-turn sweep dominate; 10x10 at epsilon 0.05 is tall, so the
  cross-row roots grow.  ``quadsplit`` does no work here.
* ``quadify``: ``quadify`` of a 6x20 plane document written at set-up
  (972 triangles, 2,916 quadrangles).  The quadrangle incongruence sweep
  and the fair-split Newton solves dominate; strip, shear and stacking
  code is not run.
* ``strip``: ``gen-strip`` at a fixed ``y0`` and 5,000 columns (40,002
  tiles, about 6.6 MB), then ``verify`` of the area, contraction and
  identity checks on that document.  Tile materialisation and the
  document layer dominate; no quadratic sweep runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PLANE_SHAPES = (  # (epsilon, rows, cols)
    (0.005, 6, 20),
    (0.005, 3, 30),
    (0.05, 10, 10),
)
QUADIFY_SHAPE = (0.005, 6, 20)
STRIP_COLS = 5000
STRIP_Y0 = (0.001, 0.01)  # the program's default sampling window for y0
STRIP_CHECKS = ("area", "contraction", "identity")


class SourceMissing(RuntimeError):
    pass


def import_cli():
    """``fairtile.cli`` from this checkout's ``src/``, and from nowhere else."""
    if not (SRC / "fairtile" / "__init__.py").is_file():
        raise SourceMissing(f"no fairtile sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from fairtile import cli

    if Path(cli.__file__).resolve().parent != SRC / "fairtile":
        raise SourceMissing(f"fairtile imported from {cli.__file__}, not {SRC}")
    return cli


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def _gen_plane(epsilon, seed, rows, cols, out: Path) -> dict:
    return {
        "argv": ["gen-plane", "--epsilon", repr(epsilon), "--seed", str(seed),
                 "--rows", str(rows), "--cols", str(cols), "--out", str(out)],
        "out": str(out),
        "check": {"kind": "plane", "epsilon": epsilon, "rows": rows, "cols": cols},
    }


def plan(workload: str, seed: int, workdir: Path) -> dict:
    """The operations of one pass, and the set-up commands they need."""
    rng = random.Random(f"{workload}/{seed}")
    ops_dir = workdir / "ops"
    if workload == "plane":
        ops = [_gen_plane(eps, _program_seed(rng), rows, cols, ops_dir / f"plane-{k}.tiles")
               for k, (eps, rows, cols) in enumerate(PLANE_SHAPES)]
        return {"setup": [], "ops": ops}
    if workload == "quadify":
        eps, rows, cols = QUADIFY_SHAPE
        source = workdir / "input" / "plane.tiles"
        out = ops_dir / "quad.tiles"
        return {
            "setup": [_gen_plane(eps, _program_seed(rng), rows, cols, source)],
            "ops": [{"argv": ["quadify", "--in", str(source), "--out", str(out)],
                     "out": str(out),
                     "check": {"kind": "quad", "source": str(source)}}],
        }
    if workload == "strip":
        y0 = rng.uniform(*STRIP_Y0)
        doc = ops_dir / "strip.tiles"
        verify = ["verify", "--in", str(doc)]
        for name in STRIP_CHECKS:
            verify += ["--check", name]
        return {
            "setup": [],
            "ops": [
                {"argv": ["gen-strip", "--y0", repr(y0), "--cols", str(STRIP_COLS),
                          "--out", str(doc)],
                 "out": str(doc),
                 "check": {"kind": "strip", "cols": STRIP_COLS}},
                {"argv": verify, "out": None, "check": None},
            ],
        }
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("plane", "quadify", "strip")


def set_up(workload: str, seed: int, workdir: Path, main) -> dict:
    """Write the plan's input documents with ``main`` and return the plan."""
    p = plan(workload, seed, workdir)
    for step in p["setup"]:
        Path(step["out"]).parent.mkdir(parents=True, exist_ok=True)
        rc = main(step["argv"])
        if rc != 0:
            raise RuntimeError(f"set-up command {step['argv'][0]} exited with {rc}")
    (workdir / "ops").mkdir(parents=True, exist_ok=True)
    return p


if __name__ == "__main__":
    # One set-up, timed from before the import: ``workloads.py WORKLOAD SEED DIR``.
    # Prints the elapsed seconds as a JSON object on its last line.
    t0 = time.perf_counter()
    name, seed_arg, dir_arg = sys.argv[1:4]
    cli = import_cli()
    with contextlib.redirect_stdout(io.StringIO()):
        plan_ = set_up(name, int(seed_arg), Path(dir_arg), cli.main)
    elapsed = time.perf_counter() - t0
    (Path(dir_arg) / "plan.json").write_text(json.dumps(plan_, sort_keys=True))
    print(json.dumps({"setup_s": elapsed}))
