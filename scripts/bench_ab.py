#!/usr/bin/env python3
"""Interleaved A/B benchmark of a parent revision against the working tree.

Exports PARENT_REV (``git archive``) and the working tree (tracked and
untracked files that git does not ignore) to two sibling directories whose
paths have the same length, because the checkout path alone has moved
timings by 25-40%.  For each workload it then runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

(N is BENCHMARK.json's run_seconds) on both sides for ``--pairs`` pairs,
alternating which side goes first, and ``--trace 1`` once per side.
perfbench is only ever run as a subprocess, from each side's own checkout.

The JSON written to ``--out`` holds the machine facts, both revisions, and
per workload and end-to-end metric: each side's runs, median and quartiles,
the ratio of the medians (change / parent), and the pairs each side won
(ties count for neither), plus each side's traced per-layer metrics.  Per
``--trace 0`` run it also records the minor page faults and the user and
system CPU seconds of the whole perfbench process tree
(``getrusage(RUSAGE_CHILDREN)`` deltas around the subprocess), the host's
steal time over the run (the delta of the ``steal`` column of the ``cpu``
line of /proc/stat, in clock ticks; null where it cannot be read) and the
operations it attempted, under ``rusage`` with per-side medians of the
totals, and of user CPU per operation (a run lasts a fixed time, so a
faster side runs more rounds).  Faults, system CPU and steal get no
per-operation median: most of a run's faults and system time are the
start-up of its dozen processes, not the timed rounds, so dividing them by
the timed child's operations tracks the operation count, not the code.
User CPU per operation that stays flat while wall_s jumps points at time
lost to other tenants (with steal to match); one that jumps with wall_s
means each operation did more work, from inside the process or from
contention for shared caches.

  python3 scripts/bench_ab.py PARENT_REV --out BENCH.json [--pairs 10]
      [--workloads sweep_1d,pairs_csv] [--seed 1]

Exits 1 if a benchmark run fails; its stderr is printed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")  # equal length, so both checkouts sit at paths of equal length


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export(rev, dest: str) -> None:
    """``rev``'s tree into ``dest``, or the working tree when ``rev`` is None."""
    os.makedirs(dest)
    if rev is not None:
        archive = os.path.join(os.path.dirname(dest), f"{os.path.basename(dest)}.tar")
        with open(archive, "wb") as handle:
            subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=handle)
        with tarfile.open(archive) as tar:
            tar.extractall(dest, filter="data")
        os.remove(archive)
        return
    for rel in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = os.path.join(ROOT, rel)
        if rel and os.path.isfile(src):  # a tracked file deleted in the working tree is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def tree_digest(path: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def steal_ticks():
    """The host's cumulative steal time in clock ticks (/proc/stat, read
    only), or None where it cannot be read."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def bench(tree: str, workload: str, seed: int, seconds: int, trace: int, usage=None) -> dict:
    """The metrics of one perfbench run: {name: value}.

    When ``usage`` is a list, the run's minor page faults and user and
    system CPU seconds (its whole process tree, which perfbench waits for),
    the host's steal ticks over the run and the operations it attempted are
    appended.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before, steal_before = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after, steal_after = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed its correctness gate:\n{proc.stderr}")
    if usage is not None:
        # a run repeats rounds for a fixed time, so the faster side attempts
        # more operations and its totals grow with them
        usage.append({"minflt": after.ru_minflt - before.ru_minflt,
                      "user_s": after.ru_utime - before.ru_utime,
                      "sys_s": after.ru_stime - before.ru_stime,
                      "steal": None if None in (steal_before, steal_after) else steal_after - steal_before,
                      "ops": result["attempted"]})
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(runs: dict, better: str) -> dict:
    """Medians, quartiles, the ratio and the pairs won, from {side: [value per pair]}."""
    out = {}
    for side, values in runs.items():
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[side] = {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}
    p, c = out["parent"]["median"], out["change"]["median"]
    out["ratio"] = c / p if p else None
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(runs["parent"], runs["change"]))
    out["pairs_won"] = {
        "change": sum(sign * (b - a) < 0 for a, b in pairs),
        "parent": sum(sign * (b - a) > 0 for a, b in pairs),
    }
    return out


def usage_summary(runs: list) -> dict:
    """Each run's minor faults, user and system CPU seconds, steal ticks and
    operations, with the medians of the first four and of user CPU per
    operation.  The totals cover the whole process tree, whose start-up
    carries most of its faults and system CPU, and steal is the host's: only
    user CPU is spent mostly in the timed rounds, so only it is divided by
    their operations.  Runs whose steal could not be read are left out of
    its median, which is null when no run has it."""
    out = {"runs": runs}
    for key in ("minflt", "user_s", "sys_s", "steal"):
        known = [r[key] for r in runs if r[key] is not None]
        out[f"{key}_median"] = statistics.median(known) if known else None
    out["user_s_per_op_median"] = statistics.median(r["user_s"] / r["ops"] for r in runs)
    return out


def machine() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_rev")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    head = git("rev-parse", "HEAD").strip()
    revisions = {
        "parent": git("rev-parse", args.parent_rev).strip(),
        "change": head + ("+working-tree" if git("status", "--porcelain").strip() else ""),
    }

    base = tempfile.mkdtemp(prefix="bench-ab-")
    trees = {side: os.path.join(base, side) for side in SIDES}
    try:
        export(revisions["parent"], trees["parent"])
        export(None, trees["change"])
        same_bench = len({tree_digest(os.path.join(t, "perfbench")) for t in trees.values()}) == 1
        report = {"machine": machine(), "revisions": revisions, "seed": args.seed, "seconds": seconds,
                  "pairs": args.pairs, "perfbench_identical": same_bench, "workloads": {}}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            usage = {side: [] for side in SIDES}
            for i in range(args.pairs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[side].append(bench(trees[side], workload, args.seed, seconds, 0, usage[side]))
                    print(f"{workload} pair {i} {side}: {runs[side][-1]} {usage[side][-1]}",
                          file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "end_to_end": {name: summarize({s: [r[name] for r in runs[s]] for s in SIDES}, better[name])
                               for name in better},
                "rusage": {side: usage_summary(usage[side]) for side in SIDES},
                "traced": {side: bench(trees[side], workload, args.seed, seconds, 1) for side in SIDES},
            }
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
