"""Seeded workload plans: the CLI calls each workload makes, and their inputs.

One ``--seed`` drives every input of a workload: the sweep jitter, the
``invariants`` seed, the mixture parameters and the lambda of each pair.  The
plstab CLI receives only the generated arguments and files.  Every call runs
with ``--jobs 1`` so a workload measures one closed-loop client making one
CLI call at a time.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

from check import Call

WORKLOADS = ("sweep_1d", "sweep_radial", "invariants", "pairs_csv")

# pairs_csv grid: wide enough that the boundary cells carry no mass the CLI
# would warn about (a warning on stderr counts as a failed call)
PAIR_LO, PAIR_HI, PAIR_N = -10.0, 10.0, 4096
PAIRS = 3


def _jitter(rng: random.Random, value: float) -> float:
    """``value`` moved by up to 10% either way."""
    return value * rng.uniform(0.9, 1.1)


def _sweep_arg(rng: random.Random, lo: float, hi: float, count: int) -> str:
    return f"delta={_jitter(rng, lo):.6g}:{_jitter(rng, hi):.6g}:{count}"


def bimodal_mixture(rng: random.Random, xs: np.ndarray) -> np.ndarray:
    """Two-Gaussian mixture whose modes sit at least 3.3 sigmas apart.

    The separation makes every draw bimodal, so no pair is log-concave and
    the CLI always takes the grid-scan sup-convolution and the hull of
    non-log-concave data.  Random mixtures without this floor were
    log-concave for some seeds, which cut the ``deficit`` time sevenfold.
    """
    center = rng.uniform(-1.0, 1.0)
    sep = rng.uniform(3.0, 4.0)
    s1, s2 = rng.uniform(0.5, 0.9), rng.uniform(0.5, 0.9)
    w = rng.uniform(0.35, 0.65)
    vals = np.zeros_like(xs)
    for weight, mu, sigma in ((w, center - sep / 2, s1), (1.0 - w, center + sep / 2, s2)):
        vals += weight * np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    inner = vals[1:-1]
    modes = int(np.count_nonzero((inner > vals[:-2]) & (inner > vals[2:])))
    if modes != 2:
        raise RuntimeError(f"mixture has {modes} modes, expected 2")
    return vals


def _write_csv(path: str, xs: np.ndarray, vals: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write("x,value\n")
        for x, v in zip(xs, vals):
            handle.write(f"{float(x)!r},{float(v)!r}\n")


def _pairs_csv(rng: random.Random, work: str) -> list:
    dx = (PAIR_HI - PAIR_LO) / (PAIR_N - 1)
    xs = PAIR_LO + dx * np.arange(PAIR_N)
    calls = []
    for i in range(PAIRS):
        paths = []
        for name in ("f", "g"):
            path = os.path.join(work, f"pair{i}_{name}.csv")
            _write_csv(path, xs, bimodal_mixture(rng, xs))
            paths.append(path)
        lam = rng.uniform(0.2, 0.8)
        for command in ("deficit", "stability"):
            config = {
                "command": command,
                "densities": [{"kind": "csv", "path": p} for p in paths],
                "lambda": lam,
                "grid": {"min": PAIR_LO, "max": PAIR_HI, "n": PAIR_N},
                "output": {"format": "json"},
            }
            path = os.path.join(work, f"pair{i}_{command}.json")
            with open(path, "w") as handle:
                json.dump(config, handle)
            calls.append(Call(command, (command, "--config", path, "--jobs", "1")))
    return calls


def plan(workload: str, seed: int, work: str) -> list:
    """The CLI calls of one round of ``workload``; writes its input files to ``work``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_1d":
        argv = ("counterexample", "--sweep", _sweep_arg(rng, 0.002, 0.1, 12),
                "--t", "0.5", "--n", "4096", "--jobs", "1")
        return [Call("counterexample", argv, points=12)]
    if workload == "sweep_radial":
        return [
            Call("radial", ("radial", "--sweep", _sweep_arg(rng, 0.011, 0.11, 8), "--n", "16384",
                            "--dimension", str(d), "--jobs", "1"), points=8)
            for d in (2, 3, 5)
        ]
    if workload == "invariants":
        out = os.path.join(work, "invariants.json")
        argv = ("invariants", "--seed", str(rng.randrange(100_000)), "--out", out, "--jobs", "1")
        return [Call("invariants", argv, out=out)]
    if workload == "pairs_csv":
        return _pairs_csv(rng, work)
    raise ValueError(f"unknown workload {workload!r}")
