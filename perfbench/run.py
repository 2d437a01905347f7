"""plstab benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_1d --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``): ``sweep_1d``, ``sweep_radial``, ``invariants``,
``pairs_csv``.  Every run happens in fresh child processes (``child.py``)
that import ``plstab`` from ``src/`` with one thread each.

``--trace 0`` spawns set-up-only children plus one timed child, and reports
the end-to-end metrics declared in ``BENCHMARK.json``:

- ``wall_s``: median time of one round of the workload's CLI calls, inside
  the child after import (quartiles and round count go on the summary line);
- ``setup_s``: median time from spawning a child until it is ready for its
  first CLI call (interpreter start, ``import plstab.cli``, seeded inputs);
- ``peak_rss_mb``: ``ru_maxrss`` of the timed child;
- ``ok_frac``: operations that passed the correctness gate (``check.py``) over
  operations attempted.

``--trace 1`` runs one traced child and reports the per-layer metrics
(``layers.py``), the tracing overhead and the n-ladder.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the plstab sources the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import selftest
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 10  # set-up-only children; the timed child adds one more sample
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ChildError(RuntimeError):
    """A child process failed, timed out or broke the protocol."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PLSTAB_SEED", None)  # the CLI lets it override --seed
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def spawn(args, mode: str, work: str, deadline: float):
    """Run one child; returns (set-up seconds, result dict or None, stderr text)."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--work", work,
    ]
    err_path = os.path.join(work, "child.err")
    with open(err_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, bufsize=0, stdout=subprocess.PIPE, stderr=err, env=_child_env(), cwd=ROOT
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
            line = proc.stdout.readline() if ready else b""
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildError(f"{mode} child exceeded the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    if line != b"READY\n" or proc.returncode != 0:
        raise ChildError(f"{mode} child failed (exit {proc.returncode}): {stderr.strip()[-2000:]}")
    lines = rest.decode().strip().splitlines()
    result = json.loads(lines[-1]) if mode != "setup" else None
    return setup, result, stderr


def _declared(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def _select(declared: list, measured: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise ChildError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def measure(args, work: str, deadline: float):
    """Runs the children of one benchmark run; returns (result, metrics, stderr, summary)."""
    if args.trace:
        _, result, stderr = spawn(args, "traced", work, deadline)
        layers = result["layers"]
        summary = f"trace_overhead_frac {layers['trace_overhead_frac']:.4f}"
        return result, _select(_declared("per_layer"), layers), stderr, summary
    setups, stderr = [], ""
    for _ in range(SETUP_SAMPLES):
        setup, _, err = spawn(args, "setup", work, deadline)
        setups.append(setup)
        stderr += err
    setup, result, err = spawn(args, "timed", work, deadline)
    setups.append(setup)
    stderr += err
    walls = result["wall_s"]
    q1, _, q3 = statistics.quantiles(walls, n=4)
    measured = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (result["attempted"] - result["failed"]) / result["attempted"],
    }
    summary = (
        f"wall_s median {measured['wall_s']:.4f} (p25 {q1:.4f}, p75 {q3:.4f}, {len(walls)} rounds: "
        f"{' '.join(f'{w:.4f}' for w in walls)}); "
        f"setup_s median {measured['setup_s']:.4f} over {len(setups)} spawns"
    )
    return result, _select(_declared("end_to_end"), measured), stderr, summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind so the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "plstab", "cli.py")):
        print(f"plstab sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    gate = selftest.run()
    if gate:
        print("\n".join(gate), file=sys.stderr)
        return 1

    base = os.path.join(HERE, "_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        result, metrics, stderr, summary = measure(args, work, deadline)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it

    errors = list(result["errors"])
    if stderr:
        errors.append(f"child stderr: {stderr.strip()[:2000]}")
    for line in errors + result["problems"]:
        print(line, file=sys.stderr)
    machine = result["machine"]
    print(
        f"{args.workload} seed={args.seed}: {summary}; {result['attempted']} ops, {result['failed']} failed; "
        f"nproc={os.cpu_count()} python={machine['python']} numpy={machine['numpy']}"
    )
    print(json.dumps({
        "correct": result["failed"] == 0 and not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
