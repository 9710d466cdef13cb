"""How gen-plane cost grows with ``cols``: one traced run per window.

    python3 bench/cols_growth.py

Runs ``gen-plane --epsilon 0.005 --seed 42 --rows 6 --cols C`` once for
each C in 20, 40 and 80 under the tracer and prints a Markdown table of
the per-layer times and counts.  The figures are for reference only; the
benchmark does not gate on them.
"""

from __future__ import annotations

import contextlib
import io
import sys

import tracing
import workloads
from run import OUT

COLUMNS = (
    "cli.main_s", "pipeline.y0_gate_s", "verify.halfturn_s", "verify.halfturn_pairs",
    "assembly.select_shears_s", "congruence.root_s", "congruence.root_calls",
    "verify.v2v_s", "verify.incongruent_tri_s", "verify.incongruent_pairs",
    "verify.closeness_s", "assembly.tiles_s", "document.serialize_s", "cli.self_s",
)


COLS = (20, 40, 80)


def main() -> int:
    cli = workloads.import_cli()
    out = OUT / "growth"
    out.mkdir(parents=True, exist_ok=True)
    tracer = tracing.install()
    rows = []
    try:
        for cols in COLS:
            argv_ = ["gen-plane", "--epsilon", "0.005", "--seed", "42", "--rows", "6",
                     "--cols", str(cols), "--out", str(out / f"plane-6x{cols}.tiles")]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv_)
            if rc != 0:
                print(f"gen-plane 6x{cols} exited with {rc}", file=sys.stderr)
                return 1
            rows.append((cols, tracing.layer_metrics(tracer)))
            tracer.reset()
    finally:
        tracer.uninstall()

    print("| metric | " + " | ".join(f"6x{c}" for c, _ in rows) + " |")
    print("|---|" + "---:|" * len(rows))
    for name in COLUMNS:
        cells = [f"{m[name]:.3f}" if name.endswith("_s") else f"{m[name]:,}" for _, m in rows]
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
