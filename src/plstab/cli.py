"""Command-line front end: declarative configs, sweeps, and reports.

Commands: deficit, stability, counterexample, radial, invariants, hypograph.
Configs are JSON (densities are nested specs, so flags alone do not suffice);
the flags --lambda, --n, --seed, --out, --format, --t, --delta, --dimension,
--sweep, --jobs override config fields.  PLSTAB_SEED overrides the seed.

Validation has one path: ``_validate`` applies one table of field checks
(types, finiteness, ranges) to a dict of the config file's shape.
``parse_config`` applies it to the file as written; ``main`` then folds the
flags and PLSTAB_SEED into that dict and applies it again, so a flag is
checked exactly like the field it overrides, and a bad file field is an
error even when a flag overrides it.  Errors name where the bad value came
from: ``config.grid.min``, ``densities[0].mu``, ``--lambda``, ``--sweep``.

Outputs are byte-identical for identical (config, seed) pairs: reports carry
no timestamps and floats are serialized with repr.

Exit codes: 0 success; 2 config, validation or i/o error; 3 numerical
precondition failure.  The message on stderr names the failing field or check.
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
from .densities import BUILDERS
from .grids import DomainError, GridFunction, PreconditionError, boundary_mass, l1_distance
from .grids import mass, normalize, sup_norm
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
            "command": self.command, "densities": self.densities, "lambda": self.lambda_,
            "t": self.t, "delta": self.delta, "dimension": self.dimension, "grid": self.grid,
            "sweep": self.sweep, "seed": self.seed,
            "output": {"format": self.output.get("format", "json")},
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# field checks: each takes (value, where) and returns the value to store or
# raises ConfigError naming ``where``; JSON true/false is never a number


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        got = v if isinstance(v, float) else type(v).__name__
        raise ConfigError(f"{where}: must be a finite number, not {got}")
    return float(v)


def _between(lo: float, hi: float):
    def check(v, where: str) -> float:
        x = _number(v, where)
        if not lo < x < hi:
            raise ConfigError(f"{where}: {x!r} is outside ({lo}, {hi})")
        return x

    return check


def _integer(lo: float = -math.inf, hi: float = math.inf):
    bounds = "" if lo == -math.inf else f" >= {lo}" if hi == math.inf else f" in [{lo}, {hi}]"

    def check(v, where: str) -> int:
        if isinstance(v, bool) or not isinstance(v, int) or not lo <= v <= hi:
            raise ConfigError(f"{where}: must be an integer{bounds}")
        return v

    return check


def _path(v, where: str) -> str:
    if not isinstance(v, str) or "\0" in v:
        raise ConfigError(f"{where}: must be a file path string")
    return v


FIELDS = {
    "lambda": _between(0.0, 1.0),
    "t": _between(0.0, 1.0),
    "delta": _between(0.0, 0.5),
    "dimension": _integer(1),
    "seed": _integer(),
    "jobs": _integer(1),
}
GRID_N = _integer(64, 2 ** 20)
DENSITY_PARAMS = {
    "gaussian": {"mu": _number, "sigma": _between(0.0, math.inf)},
    "exponential": {"rate": _between(0.0, math.inf)},
    "uniform": {"a": _number, "b": _number},
    "bump": {"center": _number, "width": _between(0.0, math.inf)},
    "csv": {"path": _path},
}
# the parameters each command can sweep; other commands take no sweep
SWEEPABLE = {"counterexample": ("delta", "t"), "radial": ("delta", "t")}
# each sweep point is a full run (~0.05 s at n = 4096), so this bounds a sweep's time
MAX_SWEEP_POINTS = 1000
# the length scale of each density kind, which must not fall below the grid spacing
WIDTHS = {
    "gaussian": ("sigma", lambda p: p["sigma"]),
    "exponential": ("1/rate", lambda p: 1.0 / p["rate"]),
    "uniform": ("b - a", lambda p: p["b"] - p["a"]),
    "bump": ("width", lambda p: p["width"]),
}


def _object(obj, allowed: set, required: set, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key}: missing")
    return obj


def _check_density(spec, i: int) -> None:
    where = f"densities[{i}]"
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: must be an object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in DENSITY_PARAMS:
        raise ConfigError(f"{where}.kind: must be one of {', '.join(DENSITY_PARAMS)}")
    params = DENSITY_PARAMS[kind]
    _object(spec, {"kind", *params}, set(params), where)
    for key, check in params.items():
        check(spec[key], f"{where}.{key}")
    if kind == "uniform" and not spec["a"] < spec["b"]:
        raise ConfigError(f"{where}.a: need a < b")


def _validate(raw, origin: dict) -> ExperimentConfig:
    """Apply the field table to a dict of the config file's shape.  ``origin``
    maps a field path ("lambda", "grid.n", "sweep") to the flag or variable
    that set it; other fields are named ``config.<path>``.  Density specs are
    kept as written, since they enter the config hash."""

    def name(path: str) -> str:
        return origin.get(path) or origin.get(path.partition(".")[0], f"config.{path}")

    _object(raw, {"command", "densities", *FIELDS, "grid", "sweep", "output"}, {"command"}, "config")
    cfg = ExperimentConfig(command=raw["command"])
    if cfg.command not in VALID_COMMANDS:
        raise ConfigError(f"config.command: unknown command {cfg.command!r}")
    cfg.densities = raw.get("densities", [])
    if not isinstance(cfg.densities, list):
        raise ConfigError("config.densities: must be a list")
    for i, spec in enumerate(cfg.densities):
        _check_density(spec, i)
    for key, check in FIELDS.items():
        if key in raw:
            setattr(cfg, "lambda_" if key == "lambda" else key, check(raw[key], name(key)))
    if "grid" in raw:
        grid = _object(raw["grid"], {"min", "max", "n"}, {"min", "max", "n"}, name("grid"))
        lo = _number(grid["min"], name("grid.min"))
        hi = _number(grid["max"], name("grid.max"))
        if not lo < hi:
            raise ConfigError(f"{name('grid.min')}: need min < max")
        cfg.grid = {"min": lo, "max": hi, "n": GRID_N(grid["n"], name("grid.n"))}
    if raw.get("sweep") is not None:
        sweep = _object(raw["sweep"], {"param", "values"}, {"param", "values"}, name("sweep"))
        param, values = sweep["param"], sweep["values"]
        allowed = SWEEPABLE.get(cfg.command, ())
        if not allowed:
            raise ConfigError(f"{name('sweep.param')}: command {cfg.command!r} takes no sweep")
        if param not in allowed:
            raise ConfigError(
                f"{name('sweep.param')}: command {cfg.command!r} cannot sweep {param!r} "
                f"(sweepable: {', '.join(allowed)})"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{name('sweep.values')}: must be a nonempty list")
        if len(values) > MAX_SWEEP_POINTS:
            raise ConfigError(f"{name('sweep.values')}: {len(values)} points, at most {MAX_SWEEP_POINTS}")
        values = [FIELDS[param](v, name(f"sweep.values[{j}]")) for j, v in enumerate(values)]
        cfg.sweep = {"param": param, "values": values}
    if "output" in raw:
        out = _object(raw["output"], {"path", "format"}, set(), name("output"))
        fmt = out.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"{name('output.format')}: must be json or csv")
        path = out.get("path")
        if path is not None:
            _path(path, name("output.path"))
        cfg.output = {"path": path, "format": fmt}
    return cfg


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too-long integer or too-deep nesting
        raise ConfigError(f"invalid JSON ({exc})") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment config."""
    return _validate(_load_json(text), {})


def parse_sweep_flag(text: str) -> dict:
    """--sweep param=start:stop:count, geometrically spaced; ``_validate`` checks them."""
    try:
        param, rng = text.split("=", 1)
        start, stop, count = rng.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"--sweep: expected param=start:stop:count, got {text!r}") from exc
    if count < 2 or start <= 0 or stop <= start:
        raise ConfigError("--sweep: need 0 < start < stop and count >= 2")
    if count > MAX_SWEEP_POINTS:  # checked before the list is built
        raise ConfigError(f"--sweep: {count} points, at most {MAX_SWEEP_POINTS}")
    values = np.exp(np.linspace(math.log(start), math.log(stop), count))
    return {"param": param, "values": [float(v) for v in values]}


def _build_densities(cfg: ExperimentConfig, count: int) -> list:
    if len(cfg.densities) != count:
        raise ConfigError(f"config.densities: command {cfg.command!r} needs exactly {count}")
    grid = (cfg.grid["min"], cfg.grid["max"], cfg.grid["n"])
    dx = (grid[1] - grid[0]) / (grid[2] - 1)
    out = []
    for i, spec in enumerate(cfg.densities):
        if spec["kind"] in WIDTHS:
            label, width = WIDTHS[spec["kind"]]
            w = width(spec)
            if not w >= dx:
                raise PreconditionError(
                    f"densities[{i}].{label}: {w!r} is below the grid spacing {dx!r}; "
                    "widen the density or refine the grid")
        d = BUILDERS[spec["kind"]]({k: v for k, v in spec.items() if k != "kind"}, grid)
        m = mass(d)
        if m <= 0:
            raise PreconditionError(f"densities[{i}] has zero mass on the grid")
        if boundary_mass(d) > 1e-8 * m:
            print(f"warning: densities[{i}] carries boundary mass above 1e-8 of total; "
                  "widen the grid window", file=sys.stderr)
        out.append(d)
    return out


def _meta(cfg: ExperimentConfig) -> dict:
    return {"config_hash": cfg.config_hash(), "seed": cfg.seed, "grid_n": cfg.grid["n"],
            "version": __version__}


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


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
            lines.extend(",".join(_fmt(row[k]) for k in header) for row in csv_rows)
        lines.extend(f"# {k}={_fmt(v)}" for k, v in (csv_summary or {}).items())
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
    # undefined where the deficit is not positive: null in JSON, empty in CSV
    ratio = res.distance / math.sqrt(res.epsilon / tau) if res.epsilon > 0 else None
    return {"delta": delta, "t": t, "tau": tau, "epsilon": res.epsilon,
            "distance": res.distance, "ratio": ratio}


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
    if cfg.sweep is None and rows[0]["epsilon"] <= 0:
        dim = cfg.dimension if radial else 1
        raise PreconditionError(
            f"deficit epsilon = {rows[0]['epsilon']!r} is not positive at dimension {dim}: "
            "it is round-off, and distance/sqrt(epsilon/tau) is undefined"
        )
    summary = {}
    if cfg.sweep is not None:
        fit_pts = [(r["epsilon"], r["distance"]) for r in rows
                   if r["epsilon"] > 0 and r["distance"] > 0]
        if len(fit_pts) < 3:
            raise PreconditionError(
                f"{len(fit_pts)} of {len(rows)} sweep rows have epsilon > 0 and distance > 0: "
                "the exponent fit needs at least 3"
            )
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
    fn, gn = normalize(f), normalize(g)
    scale = sup_norm(fn)
    fn = GridFunction(fn.x0 * scale, fn.dx * scale, fn.values / scale)
    gn = GridFunction(gn.x0 * scale, gn.dx * scale, gn.values / scale)
    h = sup_convolution(fn, gn, lam).h
    eps = min(max(pl_deficit(h, fn, gn, lam), 1e-8), 0.9)
    theta = 0.25
    areas = {k: hypograph_area(d, theta, eps).area for k, d in (("f", fn), ("g", gn), ("h", h))}
    gap = bm_two_term_gap(fn, gn, h, lam, theta, eps)
    tau = min(lam, 1.0 - lam)
    eta = math.sqrt(eps)
    level = distribution_function(fn, [eta]).measures[0]
    cutting_ratio = level / (tau ** -2.5 * abs(math.log(eps)) ** (4.0 / tau))
    env = log_concave_hull(fn)
    s0 = 2.0 * eps ** theta
    recon = level_cut(env, s0)
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
    _write_report(cfg, payload, csv_rows=[dict(payload["report"])])
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


RUNNERS = {
    "deficit": _run_deficit,
    "stability": _run_stability,
    "counterexample": lambda cfg: _run_counterexample(cfg, radial=False),
    "radial": lambda cfg: _run_counterexample(cfg, radial=True),
    "hypograph": _run_hypograph,
    "invariants": _run_invariants,
}


def run(cfg: ExperimentConfig) -> int:
    if cfg.command not in RUNNERS:
        raise ConfigError(f"config.command: unknown command {cfg.command!r}")
    return RUNNERS[cfg.command](cfg)


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


# argparse dest of each flag --<dest> -> the config field it overrides
FLAG_FIELDS = {
    "lambda_": "lambda", "t": "t", "delta": "delta", "dimension": "dimension", "n": "grid.n",
    "seed": "seed", "sweep": "sweep", "jobs": "jobs", "out": "output.path",
    "format": "output.format",
}


def _merge_flags(raw: dict, args) -> tuple:
    """``raw`` with the flags and PLSTAB_SEED folded in, and the origin of each."""
    overrides = [
        (f"--{dest.rstrip('_')}", path, getattr(args, dest)) for dest, path in FLAG_FIELDS.items()
    ]
    if "PLSTAB_SEED" in os.environ:
        try:
            overrides.append(("PLSTAB_SEED", "seed", int(os.environ["PLSTAB_SEED"])))
        except ValueError as exc:
            raise ConfigError("PLSTAB_SEED: must be an integer") from exc
    merged, origin = dict(raw), {}
    for flag, path, value in overrides:
        if value is None:
            continue
        if flag == "--sweep":
            value = parse_sweep_flag(value)
        key, _, sub = path.partition(".")
        if sub:  # a grid or output field: fill the rest from the file or the defaults
            default = getattr(ExperimentConfig(args.command), key)
            value = {**default, **merged.get(key, {}), sub: value}
        merged[key] = value
        origin[path] = flag
    return merged, origin


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = {"command": args.command}
        if args.config:
            try:
                with open(args.config) as handle:
                    raw = _load_json(handle.read())
            except OSError as exc:
                raise ConfigError(f"--config: cannot read {args.config!r} ({exc.strerror})") from exc
            command = _validate(raw, {}).command
            if command != args.command:
                raise ConfigError(
                    f"config.command: {command!r} does not match CLI command {args.command!r}"
                )
        return run(_validate(*_merge_flags(raw, args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
