"""Benchmark of the three user-facing fairtile runs.

    python3 bench/run.py --workload plane|quadify|strip --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up runs three times, each in a
fresh process that imports ``fairtile`` and writes the workload's inputs
(``setup_s`` is the median).  The measured process then runs whole passes
over the workload's operations through ``fairtile.cli.main`` until
``--seconds`` have gone by, checks every output document with the
benchmark's own checks, and requires every repetition of an operation to
write the same bytes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from wrapped layer functions with
``--trace 1``.  Result and trace files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_setups(workload: str, seed: int, work: Path) -> tuple[list[float], dict]:
    """Run set-up in fresh processes; return their times and the first plan.

    Every set-up must write byte-identical input documents.
    """
    times, digests, first = [], [], None
    for k in range(SETUP_REPEATS):
        d = work / f"setup-{k}"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), str(d)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {k} failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        plan = json.loads((d / "plan.json").read_text())
        digests.append([_sha256(Path(step["out"]).read_bytes()) for step in plan["setup"]])
        first = first or plan
    if any(dg != digests[0] for dg in digests):
        raise RuntimeError("set-up wrote different input documents on repetition")
    return times, first


@dataclass
class Passes:
    wall_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # per-layer metrics of each traced pass
    trace: list = field(default_factory=list)  # spans of each traced pass
    tiles: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_passes(cli, plan: dict, seconds: float, tracer) -> Passes:
    """Whole passes over the plan's operations until ``seconds`` have gone by."""
    r = Passes()
    digests: dict[int, str] = {}
    started = time.perf_counter()
    while not r.wall_s or time.perf_counter() - started < seconds:
        wall = 0.0
        r.tiles = 0
        for k, op in enumerate(plan["ops"]):
            if tracer is not None:
                tracer.op += 1
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                rc = cli.main(op["argv"])
                wall += time.perf_counter() - t0
            r.attempted += 1
            if rc != 0:
                r.failed += 1
                continue
            if op["out"] is None:
                continue
            data = Path(op["out"]).read_bytes()
            digest = _sha256(data)
            if k not in digests:
                digests[k] = digest
                try:
                    r.problems += checks.check_output(op["check"], op["out"])
                except (ValueError, KeyError, IndexError, TypeError) as e:
                    r.problems.append(f"{op['argv'][0]} wrote an unreadable document: {e!r}")
            elif digests[k] != digest:
                r.problems.append(f"{op['argv'][0]} wrote different bytes on repetition")
            r.tiles += data.count(b"\n") - 1
        r.wall_s.append(wall)
        if tracer is not None:
            r.layers.append(tracing.layer_metrics(tracer))
            r.trace.append(tracer.to_json())
            tracer.reset()
    return r


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        cli = workloads.import_cli()
    except (workloads.SourceMissing, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, plan = run_setups(args.workload, args.seed, work)
        tracer = tracing.install() if args.trace else None
        r = run_passes(cli, plan, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(r.wall_s)
    if tracer is not None:
        tracer.uninstall()
        # counts repeat from pass to pass; times are medians over the passes
        metrics = {name: _metric((statistics.median if unit == "s" else statistics.median_low)(
                                     [p[name] for p in r.layers]), unit)
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "tiles_per_s": _metric(r.tiles / wall, "1/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
        }
    result = {"correct": not r.problems, "attempted": r.attempted, "failed": r.failed,
              "metrics": metrics}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  pass_wall_s=r.wall_s, setup_s=setup_times, problems=r.problems)
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({"passes": r.trace}))
    for p in r.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
