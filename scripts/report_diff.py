#!/usr/bin/env python3
"""Compare the reports of two source trees field by field.

Runs every config of ``report_hashes.RUNS`` once under each tree, as
``python -m plstab`` in a subprocess with ``PYTHONPATH=<tree>/src``, from two
temporary directories that hold the same ``write_inputs`` files.  Per config it
prints ``identical`` when the report and the printed stdout match byte for
byte, and otherwise one line per numeric field that moved, with the largest
absolute and relative difference over the field's occurrences (list indices
are folded, so ``rows[].epsilon`` covers every row; a CSV report is compared
by its ``# key=value`` lines and its row cells).  This is the gate for a
change that moves reported numbers on purpose; ``report_hashes.py`` is the
gate for one that must not move any.

  PYTHONPATH=src python3 scripts/report_diff.py OLD_TREE NEW_TREE

Exits 1 if a config fails on either side, or if a non-numeric field, the
stdout or the structure of a report differs.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from numbers import Real

from report_hashes import RUNS, write_inputs


def run_tree(tree: str, work: str) -> dict:
    """name -> (exit code, stdout, stderr, report text) for every config."""
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        write_inputs()
    finally:
        os.chdir(cwd)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    results = {}
    for name, argv in RUNS:
        out = f"{name}.out"
        proc = subprocess.run([sys.executable, "-m", "plstab", *argv, "--out", out],
                              cwd=work, env=env, capture_output=True, text=True)
        report = None
        if proc.returncode == 0:
            with open(os.path.join(work, out)) as handle:
                report = handle.read()
        results[name] = (proc.returncode, proc.stdout, proc.stderr, report)
    return results


def parse_report(text: str):
    """A JSON report as parsed; a CSV report as its ``# key=value`` lines plus
    ``rows``, a list of {column: cell}, with numeric cells as floats."""
    try:
        return json.loads(text)
    except ValueError:
        pass

    def cell(value: str):
        try:
            return float(value)
        except ValueError:
            return value

    out, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            out[key] = cell(value)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, map(cell, line.split(",")))))
    out["rows"] = rows
    return out


def is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def compare(old, new, path: str, moved: dict, mismatches: list) -> None:
    """Record numeric differences in ``moved`` and anything else in ``mismatches``."""
    if is_number(old) and is_number(new):
        if old == new or (math.isnan(old) and math.isnan(new)):
            diff = rel = 0.0
        else:
            diff = abs(new - old)
            rel = diff / max(abs(old), abs(new))
        worst = moved.get(path, (0.0, 0.0))
        moved[path] = (max(worst[0], diff), max(worst[1], rel))
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            mismatches.append(f"{path or '.'}: keys {sorted(old)} != {sorted(new)}")
            return
        for key in old:
            compare(old[key], new[key], f"{path}.{key}" if path else key, moved, mismatches)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            mismatches.append(f"{path}: length {len(old)} != {len(new)}")
            return
        for a, b in zip(old, new):
            compare(a, b, f"{path}[]", moved, mismatches)
    elif type(old) is not type(new) or old != new:
        mismatches.append(f"{path}: {old!r} != {new!r}")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: report_diff.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        old_runs = run_tree(sys.argv[1], os.path.join(work, "old"))
        new_runs = run_tree(sys.argv[2], os.path.join(work, "new"))
    failed = False
    for name, _ in RUNS:
        old, new = old_runs[name], new_runs[name]
        if old[0] != 0 or new[0] != 0 or old[2] or new[2]:
            print(f"FAILED     {name}: exit {old[0]} -> {new[0]}, "
                  f"stderr {old[2].strip()!r} -> {new[2].strip()!r}")
            failed = True
            continue
        if old[1:] == new[1:]:
            print(f"identical  {name}")
            continue
        moved, mismatches = {}, []
        compare(parse_report(old[3]), parse_report(new[3]), "", moved, mismatches)
        if old[1] != new[1]:
            mismatches.append("stdout differs")
        print(f"differs    {name}")
        for path, (diff, rel) in moved.items():
            if diff > 0.0:
                print(f"    {path}: max abs {diff:.3g}, max rel {rel:.3g}")
        for line in mismatches:
            print(f"    NON-NUMERIC {line}")
        failed = failed or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
