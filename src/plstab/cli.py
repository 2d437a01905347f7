"""Command-line front end: declarative configs, sweeps, and reports.

Commands: deficit, stability, counterexample, radial, invariants, hypograph.
Configs are JSON (densities are nested specs, so flags alone do not suffice);
the flags --lambda, --n, --seed, --out, --format, --t, --delta, --dimension,
--sweep, --jobs override config fields.  PLSTAB_SEED overrides the seed.
Outputs are byte-identical for identical (config, seed) pairs: reports carry
no timestamps and floats are serialized with repr.

Exit codes: 0 success, 2 config/validation error, 3 numerical precondition
failure (the failing check is named on stderr).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .densities import BUILDERS, make_grid
from .grids import DomainError, GridFunction, PreconditionError, boundary_mass, mass
from .levelsets import bm_two_term_gap, distribution_function, hypograph_area
from .logconcave import level_cut, log_concave_hull
from .stability import (
    CounterexampleConfig,
    counterexample_family,
    exponent_fit,
    full_deficit_report,
    radial_counterexample_family,
    stability_distance,
)
from .supconv import pl_deficit, sup_convolution
from . import invariants as _inv


class ConfigError(ValueError):
    """Configuration text failed validation; message names the field."""


VALID_COMMANDS = ("deficit", "stability", "counterexample", "radial", "invariants", "hypograph")
DENSITY_PARAMS = {
    "gaussian": {"mu", "sigma"},
    "exponential": {"rate"},
    "uniform": {"a", "b"},
    "bump": {"center", "width"},
    "csv": {"path"},
}


@dataclass
class ExperimentConfig:
    command: str
    densities: list = field(default_factory=list)
    lambda_: float = 0.5
    t: float = 0.5
    delta: float = 0.05
    dimension: int = 2
    grid: dict = field(default_factory=lambda: {"min": -8.0, "max": 8.0, "n": 4096})
    sweep: dict | None = None
    seed: int = 0
    jobs: int = 1
    output: dict = field(default_factory=lambda: {"path": None, "format": "json"})

    def canonical_dict(self) -> dict:
        return {
            "command": self.command,
            "densities": self.densities,
            "lambda": self.lambda_,
            "t": self.t,
            "delta": self.delta,
            "dimension": self.dimension,
            "grid": self.grid,
            "sweep": self.sweep,
            "seed": self.seed,
            "output": {"format": self.output.get("format", "json")},
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _expect_keys(obj: dict, allowed: set, required: set, where: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key}: missing")


def _check_density(spec: dict, i: int):
    where = f"densities[{i}]"
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: must be an object")
    kind = spec.get("kind")
    if kind not in DENSITY_PARAMS:
        raise ConfigError(f"{where}.kind: unknown density kind {kind!r}")
    params = DENSITY_PARAMS[kind]
    _expect_keys(spec, params | {"kind"}, params, where)
    if kind == "gaussian" and not spec["sigma"] > 0:
        raise ConfigError(f"{where}.sigma: must be positive")
    if kind == "exponential" and not spec["rate"] > 0:
        raise ConfigError(f"{where}.rate: must be positive")
    if kind == "uniform" and not spec["a"] < spec["b"]:
        raise ConfigError(f"{where}.a: need a < b")
    if kind == "bump" and not spec["width"] > 0:
        raise ConfigError(f"{where}.width: must be positive")
    if kind == "csv" and not isinstance(spec["path"], str):
        raise ConfigError(f"{where}.path: must be a string")


# the parameters each command can sweep; other commands take no sweep
SWEEPABLE = {"counterexample": ("delta", "t"), "radial": ("delta", "t")}


def _check_sweep(command: str, param: str, where: str) -> None:
    allowed = SWEEPABLE.get(command, ())
    if not allowed:
        raise ConfigError(f"{where}: command {command!r} takes no sweep")
    if param not in allowed:
        raise ConfigError(
            f"{where}: command {command!r} cannot sweep {param!r} (sweepable: {', '.join(allowed)})"
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: must be an object")
    allowed = {
        "command", "densities", "lambda", "t", "delta", "dimension",
        "grid", "sweep", "seed", "jobs", "output",
    }
    _expect_keys(raw, allowed, {"command"}, "config")
    cfg = ExperimentConfig(command=raw["command"])
    if cfg.command not in VALID_COMMANDS:
        raise ConfigError(f"config.command: unknown command {cfg.command!r}")
    densities = raw.get("densities", [])
    if not isinstance(densities, list):
        raise ConfigError("config.densities: must be a list")
    for i, spec in enumerate(densities):
        _check_density(spec, i)
    cfg.densities = densities
    for key, attr, check in (
        ("lambda", "lambda_", lambda v: 0.0 < v < 1.0),
        ("t", "t", lambda v: 0.0 < v < 1.0),
        ("delta", "delta", lambda v: 0.0 < v < 0.5),
    ):
        if key in raw:
            v = raw[key]
            if not isinstance(v, (int, float)) or not check(float(v)):
                raise ConfigError(f"config.{key}: out of range")
            setattr(cfg, attr, float(v))
    if "dimension" in raw:
        if not isinstance(raw["dimension"], int) or raw["dimension"] < 1:
            raise ConfigError("config.dimension: must be a positive integer")
        cfg.dimension = raw["dimension"]
    if "grid" in raw:
        g = raw["grid"]
        _expect_keys(g, {"min", "max", "n"}, {"min", "max", "n"}, "config.grid")
        if not g["min"] < g["max"]:
            raise ConfigError("config.grid.min: need min < max")
        if not (isinstance(g["n"], int) and 64 <= g["n"] <= 2 ** 20):
            raise ConfigError("config.grid.n: must be an integer in [64, 2^20]")
        cfg.grid = {"min": float(g["min"]), "max": float(g["max"]), "n": g["n"]}
    if "sweep" in raw and raw["sweep"] is not None:
        s = raw["sweep"]
        _expect_keys(s, {"param", "values"}, {"param", "values"}, "config.sweep")
        _check_sweep(cfg.command, s["param"], "config.sweep.param")
        vals = s["values"]
        if not isinstance(vals, list) or len(vals) == 0:
            raise ConfigError("config.sweep.values: must be a nonempty list")
        for j, v in enumerate(vals):
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ConfigError(f"config.sweep.values[{j}]: must be finite")
        cfg.sweep = {"param": s["param"], "values": [float(v) for v in vals]}
    if "seed" in raw:
        if not isinstance(raw["seed"], int):
            raise ConfigError("config.seed: must be an integer")
        cfg.seed = raw["seed"]
    if "jobs" in raw:
        if not isinstance(raw["jobs"], int) or raw["jobs"] < 1:
            raise ConfigError("config.jobs: must be a positive integer")
        cfg.jobs = raw["jobs"]
    if "output" in raw:
        o = raw["output"]
        _expect_keys(o, {"path", "format"}, set(), "config.output")
        fmt = o.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError("config.output.format: must be json or csv")
        cfg.output = {"path": o.get("path"), "format": fmt}
    return cfg


def parse_sweep_flag(text: str) -> dict:
    """--sweep param=start:stop:count with geometrically spaced values.

    Which parameters a command may sweep is checked by ``_check_sweep``."""
    try:
        param, rng = text.split("=", 1)
        start, stop, count = rng.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"--sweep: expected param=start:stop:count, got {text!r}") from exc
    if count < 2 or start <= 0 or stop <= start:
        raise ConfigError("--sweep: need 0 < start < stop and count >= 2")
    values = np.exp(np.linspace(math.log(start), math.log(stop), count))
    return {"param": param, "values": [float(v) for v in values]}


def _build_densities(cfg: ExperimentConfig, count: int) -> list:
    if len(cfg.densities) != count:
        raise ConfigError(f"config.densities: command {cfg.command!r} needs exactly {count}")
    make_grid(cfg.grid["min"], cfg.grid["max"], cfg.grid["n"])  # validates
    grid = (cfg.grid["min"], cfg.grid["max"], cfg.grid["n"])
    out = []
    for i, spec in enumerate(cfg.densities):
        d = BUILDERS[spec["kind"]]({k: v for k, v in spec.items() if k != "kind"}, grid)
        m = mass(d)
        if m <= 0:
            raise PreconditionError(f"densities[{i}] has zero mass on the grid")
        if boundary_mass(d) > 1e-8 * m:
            print(
                f"warning: densities[{i}] carries boundary mass above 1e-8 of total; "
                "widen the grid window",
                file=sys.stderr,
            )
        out.append(d)
    return out


def _meta(cfg: ExperimentConfig) -> dict:
    return {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "grid_n": cfg.grid["n"],
        "version": __version__,
    }


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_report(cfg: ExperimentConfig, payload: dict, csv_rows=None, csv_summary=None) -> None:
    """Serialize a report deterministically as JSON or CSV."""
    fmt = cfg.output.get("format", "json")
    path = cfg.output.get("path")
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in sorted(payload["meta"].items())]
        if csv_rows:
            header = list(csv_rows[0].keys())
            lines.append(",".join(header))
            for row in csv_rows:
                lines.append(",".join(_fmt(row[k]) for k in header))
        for k, v in (csv_summary or {}).items():
            lines.append(f"# {k}={_fmt(v)}")
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command implementations


def _run_deficit(cfg: ExperimentConfig) -> int:
    f, g = _build_densities(cfg, 2)
    rep = full_deficit_report(f, g, cfg.lambda_)
    payload = {"meta": _meta(cfg), "report": rep.to_json_dict()}
    row = dict(rep.to_json_dict())
    row["tail_cut_lo"], row["tail_cut_hi"] = row.pop("tail_cut")
    _write_report(cfg, payload, csv_rows=[row])
    return 0


def _run_stability(cfg: ExperimentConfig) -> int:
    f, g = _build_densities(cfg, 2)
    h = sup_convolution(f, g, cfg.lambda_).h
    rep = stability_distance(f, g, h, cfg.lambda_)
    payload = {"meta": _meta(cfg), "report": rep.to_json_dict(include_witness=True)}
    row = rep.to_json_dict(include_witness=False)
    order = ["lambda", "tau", "epsilon", "distance_f", "distance_g", "distance_h", "shift", "scale"]
    _write_report(cfg, payload, csv_rows=[{k: row[k] for k in order}])
    return 0


def _counterexample_point(args):
    delta, t, n, radial, dim = args
    cfg = CounterexampleConfig(
        delta=delta, t=t, grid_n=n, phi_id="even_radial" if radial else "odd_poly"
    )
    if radial:
        res = radial_counterexample_family(cfg, dim)
    else:
        res = counterexample_family(cfg)
    tau = min(t, 1.0 - t)
    ratio = res.distance / math.sqrt(res.epsilon / tau) if res.epsilon > 0 else float("nan")
    return {
        "delta": delta,
        "t": t,
        "tau": tau,
        "epsilon": res.epsilon,
        "distance": res.distance,
        "ratio": ratio,
    }


def _run_counterexample(cfg: ExperimentConfig, radial: bool) -> int:
    sweep = cfg.sweep or {"param": "delta", "values": [cfg.delta]}
    points = []
    for v in sweep["values"]:
        delta = v if sweep["param"] == "delta" else cfg.delta
        t = v if sweep["param"] == "t" else cfg.t
        points.append((delta, t, cfg.grid["n"], radial, cfg.dimension))
    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_counterexample_point, points))
    else:
        rows = [_counterexample_point(p) for p in points]
    summary = {}
    fit_pts = [(r["epsilon"], r["distance"]) for r in rows if r["epsilon"] > 0 and r["distance"] > 0]
    if len(fit_pts) >= 3:
        slope, intercept, r2 = exponent_fit(fit_pts)
        summary = {"slope": slope, "intercept": intercept, "r2": r2}
    payload = {"meta": _meta(cfg), "rows": rows, "summary": summary}
    _write_report(cfg, payload, csv_rows=rows, csv_summary=summary)
    return 0


def _run_hypograph(cfg: ExperimentConfig) -> int:
    """Truncated log-hypograph areas of (f, g, h) plus the hull-reconstruction
    distance at the default level cut 2 * eps^theta.

    The triple is brought to the sup-norm-one normalization (amplitude and
    variable rescaled together, which preserves the defining inequality and
    the deficit) so that the lower area bound 1/2 applies to f.
    """
    f, g = _build_densities(cfg, 2)
    lam = cfg.lambda_
    from .grids import normalize
    from .grids import sup_norm as _sup

    fn, gn = normalize(f), normalize(g)
    scale = _sup(fn)
    fn = GridFunction(fn.x0 * scale, fn.dx * scale, fn.values / scale)
    gn = GridFunction(gn.x0 * scale, gn.dx * scale, gn.values / scale)
    h = sup_convolution(fn, gn, lam).h
    eps = min(max(pl_deficit(h, fn, gn, lam), 1e-8), 0.9)
    theta = 0.25
    areas = {}
    for name, d in (("f", fn), ("g", gn), ("h", h)):
        areas[name] = hypograph_area(d, theta, eps).area
    gap = bm_two_term_gap(fn, gn, h, lam, theta, eps)
    tau = min(lam, 1.0 - lam)
    eta = math.sqrt(eps)
    level = distribution_function(fn, [eta]).measures[0]
    cutting_ratio = level / (tau ** -2.5 * abs(math.log(eps)) ** (4.0 / tau))
    env = log_concave_hull(fn)
    s0 = 2.0 * eps ** theta
    recon = level_cut(env, s0)
    from .grids import l1_distance

    payload = {
        "meta": _meta(cfg),
        "report": {
            "lambda": lam,
            "epsilon": eps,
            "theta": theta,
            "area_f": areas["f"],
            "area_g": areas["g"],
            "area_h": areas["h"],
            "bm_gap": gap,
            "cutting_support_ratio": cutting_ratio,
            "level_cut_s0": s0,
            "hull_reconstruction_l1": l1_distance(recon, fn),
        },
    }
    row = dict(payload["report"])
    _write_report(cfg, payload, csv_rows=[row])
    return 0


def _run_invariants(cfg: ExperimentConfig) -> int:
    results = _inv.run_all(seed=cfg.seed)
    rows = []
    failed = []
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name} ({res.detail})")
        rows.append({"name": res.name, "ok": res.ok, "detail": res.detail})
        if not res.ok:
            failed.append(res.name)
    payload = {"meta": _meta(cfg), "rows": rows}
    if cfg.output.get("path"):
        _write_report(cfg, payload, csv_rows=rows)
    if failed:
        print(f"numerical check failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# entry point


def run(cfg: ExperimentConfig) -> int:
    if cfg.command == "deficit":
        return _run_deficit(cfg)
    if cfg.command == "stability":
        return _run_stability(cfg)
    if cfg.command == "counterexample":
        return _run_counterexample(cfg, radial=False)
    if cfg.command == "radial":
        return _run_counterexample(cfg, radial=True)
    if cfg.command == "hypograph":
        return _run_hypograph(cfg)
    if cfg.command == "invariants":
        return _run_invariants(cfg)
    raise ConfigError(f"config.command: unknown command {cfg.command!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="plstab", description=__doc__.splitlines()[0])
    p.add_argument("command", choices=VALID_COMMANDS)
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--lambda", dest="lambda_", type=float, help="interpolation weight in (0,1)")
    p.add_argument("--t", type=float, help="sup-convolution parameter in (0,1)")
    p.add_argument("--delta", type=float, help="counterexample perturbation size")
    p.add_argument("--dimension", type=int, help="ambient dimension for radial runs")
    p.add_argument("--n", type=int, help="grid resolution")
    p.add_argument("--seed", type=int, help="RNG seed (PLSTAB_SEED overrides)")
    p.add_argument("--sweep", help="param=start:stop:count, geometric spacing")
    p.add_argument("--jobs", type=int, help="worker processes for sweeps")
    p.add_argument("--out", help="output file path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), help="output format")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            try:
                with open(args.config) as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"--config: cannot read {args.config!r} ({exc.strerror})") from exc
            cfg = parse_config(text)
            if cfg.command != args.command:
                raise ConfigError(
                    f"config.command: {cfg.command!r} does not match CLI command {args.command!r}"
                )
        else:
            cfg = ExperimentConfig(command=args.command)
        if args.lambda_ is not None:
            if not 0.0 < args.lambda_ < 1.0:
                raise ConfigError("--lambda: out of range")
            cfg.lambda_ = args.lambda_
        if args.t is not None:
            if not 0.0 < args.t < 1.0:
                raise ConfigError("--t: out of range")
            cfg.t = args.t
        if args.delta is not None:
            if not 0.0 < args.delta < 0.5:
                raise ConfigError("--delta: out of range")
            cfg.delta = args.delta
        if args.dimension is not None:
            if args.dimension < 1:
                raise ConfigError("--dimension: must be >= 1")
            cfg.dimension = args.dimension
        if args.n is not None:
            if not 64 <= args.n <= 2 ** 20:
                raise ConfigError("--n: must lie in [64, 2^20]")
            cfg.grid["n"] = args.n
        if args.seed is not None:
            cfg.seed = args.seed
        if "PLSTAB_SEED" in os.environ:
            try:
                cfg.seed = int(os.environ["PLSTAB_SEED"])
            except ValueError as exc:
                raise ConfigError("PLSTAB_SEED: must be an integer") from exc
        if args.sweep is not None:
            cfg.sweep = parse_sweep_flag(args.sweep)
            _check_sweep(cfg.command, cfg.sweep["param"], "--sweep")
        if args.jobs is not None:
            if args.jobs < 1:
                raise ConfigError("--jobs: must be >= 1")
            cfg.jobs = args.jobs
        if args.out is not None:
            cfg.output["path"] = args.out
        if args.format is not None:
            cfg.output["format"] = args.format
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
