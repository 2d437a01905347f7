#!/usr/bin/env python3
"""Print one sha256 per report for a fixed list of small CLI configs.

Each config runs in-process through ``plstab.cli.main`` inside a temporary
directory and writes its report there; the script prints
``<sha256>  <name>`` per report.  The hash covers the report followed by
the text the call printed to stdout (the ``invariants`` suite prints its PASS
lines there; the other configs print nothing).  Two source trees that print
the same lines write byte-identical reports for these configs, which is the
gate for a change that must not move any reported number; for a change
that moves numbers on purpose, ``scripts/report_diff.py`` runs the same
configs under two source trees and prints how far each field moved.  The CSV
densities are referenced by relative path, so the config hash inside each
report does not depend on where the temporary directory lands.

  PYTHONPATH=src python3 scripts/report_hashes.py

Exits 1 if any config exits non-zero or writes to stderr.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from plstab.cli import main as plstab_main
from plstab.grids import GridFunction, to_csv

CSV_LO, CSV_HI, CSV_N = -10.0, 10.0, 1024

# (name, argv); the four configs are written next to the CSVs by write_inputs
RUNS = [
    ("counterexample_sweep_n1024",
     ["counterexample", "--sweep", "delta=0.002:0.1:6", "--t", "0.5", "--n", "1024"]),
    ("radial_sweep_d3",
     ["radial", "--sweep", "delta=0.011:0.11:4", "--n", "4096", "--dimension", "3"]),
    ("deficit_bimodal_csv", ["deficit", "--config", "deficit.json"]),
    ("stability_bimodal_csv", ["stability", "--config", "stability.json"]),
    ("hypograph_bimodal_csv", ["hypograph", "--config", "hypograph.json"]),
    ("invariants_seed7", ["invariants", "--seed", "7"]),
    # n = 16384 puts the sup-convolution at its 8192-cell cap
    ("radial_sweep_capped_d2",
     ["radial", "--sweep", "delta=0.011:0.11:3", "--n", "16384", "--dimension", "2"]),
    # flags over a config file: the flag's grid n enters the config hash
    ("deficit_flags_over_config",
     ["deficit", "--config", "deficit.json", "--lambda", "0.6", "--n", "2048"]),
    ("counterexample_point_csv",
     ["counterexample", "--delta", "0.03", "--t", "0.3", "--n", "512", "--format", "csv"]),
    ("stability_bimodal_csv_format", ["stability", "--config", "stability.json", "--format", "csv"]),
    # t = 0.05 puts stage 2 of the sup-convolution on its ternary search
    ("counterexample_sweep_t005",
     ["counterexample", "--sweep", "delta=0.002:0.1:4", "--t", "0.05", "--n", "1024"]),
    # seeded noise and interior zero cells: the hull certificate of the grid
    # scan is loose here, so many cells take its wide path
    ("deficit_noisy_csv", ["deficit", "--config", "deficit_noisy.json"]),
]


def bimodal(center: float, sep: float, s1: float, s2: float, w: float) -> GridFunction:
    dx = (CSV_HI - CSV_LO) / (CSV_N - 1)
    xs = CSV_LO + dx * np.arange(CSV_N)
    vals = np.zeros(CSV_N)
    for weight, mu, sigma in ((w, center - sep / 2, s1), (1.0 - w, center + sep / 2, s2)):
        vals += weight * np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return GridFunction(CSV_LO, dx, vals)


def noisy(f: GridFunction, seed: int) -> GridFunction:
    """f times seeded U(0.5, 1.5) noise, with one cell in ten set to zero."""
    rng = np.random.default_rng(seed)
    vals = f.values * rng.uniform(0.5, 1.5, f.n)
    vals[rng.random(f.n) < 0.1] = 0.0
    return f.with_values(vals)


def write_config(name: str, command: str, f_path: str, g_path: str) -> None:
    config = {
        "command": command,
        "densities": [{"kind": "csv", "path": f_path}, {"kind": "csv", "path": g_path}],
        "lambda": 0.35,
        "grid": {"min": CSV_LO, "max": CSV_HI, "n": CSV_N},
    }
    with open(f"{name}.json", "w") as handle:
        json.dump(config, handle)


def write_inputs() -> None:
    f, g = bimodal(-0.3, 3.4, 0.6, 0.8, 0.45), bimodal(0.4, 3.8, 0.7, 0.55, 0.6)
    to_csv(f, "f.csv")
    to_csv(g, "g.csv")
    to_csv(noisy(f, 1), "f_noisy.csv")
    to_csv(noisy(g, 2), "g_noisy.csv")
    for command in ("deficit", "stability", "hypograph"):
        write_config(command, command, "f.csv", "g.csv")
    write_config("deficit_noisy", "deficit", "f_noisy.csv", "g_noisy.csv")


def main() -> int:
    cwd = os.getcwd()
    failed = False
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs()
            for name, argv in RUNS:
                out = f"{name}.out"
                err, stdout = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
                    code = plstab_main(argv + ["--out", out])
                if code != 0 or err.getvalue():
                    print(f"FAILED  {name}: exit {code}, stderr {err.getvalue().strip()!r}")
                    failed = True
                    continue
                with open(out, "rb") as handle:
                    digest = hashlib.sha256(handle.read())
                digest.update(stdout.getvalue().encode())
                print(f"{digest.hexdigest()}  {name}")
        finally:
            os.chdir(cwd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
