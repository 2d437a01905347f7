"""Benchmark worker: sets up one workload in a fresh process, then runs it.

Started by ``run.py``.  Protocol on stdout: the line ``READY`` once
``plstab.cli`` is imported and the seeded inputs are written, then (unless
``--mode setup``) one JSON line with the results.  Every CLI call runs
in-process through ``plstab.cli.main`` with its stdout and stderr captured.

Modes:
- ``setup``: stop after ``READY`` (extra set-up samples);
- ``timed``: repeat the workload's calls for ``--seconds`` (three rounds at
  least), untraced; report each round's time inside the CLI calls;
- ``traced``: untraced, traced, untraced, traced rounds; report the per-layer
  metrics, the tracing overhead, and the n-ladder.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time

import layers
import workloads
from check import Rounds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 3


def run_timed(rounds: Rounds, seconds: float) -> dict:
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        walls.append(rounds.run())
    return {"wall_s": walls, **rounds.tally(), "errors": []}


def run_traced(rounds: Rounds) -> dict:
    untraced, traced, stats = [], [], []
    for _ in range(2):
        untraced.append(rounds.run())
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced.append(rounds.run())
        finally:
            tracer.uninstall()
        stats.append(layers.layer_stats(tracer.spans))
    errors = []
    mismatched = layers.count_mismatches(*stats)
    if mismatched:
        errors.append(f"counts differ between the two traced rounds: {mismatched}")
    counts = set(layers.COUNT_STATS)
    metrics = {
        k: v if k.rsplit(".", 1)[-1] in counts else (v + stats[1][k]) / 2.0
        for k, v in stats[0].items()
    }
    metrics["trace_overhead_frac"] = min(traced) / min(untraced) - 1.0
    metrics.update(layers.ladder())
    return {"layers": metrics, **rounds.tally(), "errors": errors}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    p.add_argument("--work", required=True)
    args = p.parse_args()

    import plstab.cli as cli

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(cli.__file__).startswith(src):
        print(f"plstab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    # a fresh directory per child: rewriting another child's files would make
    # ext4 flush them on truncation and charge that disk wait to set-up
    work = tempfile.mkdtemp(prefix=f"{args.mode}-", dir=args.work)
    calls = workloads.plan(args.workload, args.seed, work)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    rounds = Rounds(cli, calls)
    result = run_timed(rounds, args.seconds) if args.mode == "timed" else run_traced(rounds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = {"python": platform.python_version(), "numpy": sys.modules["numpy"].__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
