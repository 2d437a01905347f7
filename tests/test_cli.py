import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plstab.cli import (
    MAX_SWEEP_POINTS,
    VALID_COMMANDS,
    ConfigError,
    _build_densities,
    main,
    parse_config,
    parse_sweep_flag,
)
from plstab.grids import DomainError, PreconditionError


GOOD_CONFIG = """
{
  "command": "deficit",
  "densities": [
    {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
    {"kind": "gaussian", "mu": 0.5, "sigma": 1.2}
  ],
  "lambda": 0.25,
  "grid": {"min": -10.0, "max": 10.0, "n": 2048},
  "seed": 7,
  "output": {"path": null, "format": "json"}
}
"""


def test_parse_config_minimal():
    cfg = parse_config('{"command": "invariants"}')
    assert cfg.command == "invariants"
    assert cfg.grid["n"] == 4096


def test_parse_config_full():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.lambda_ == 0.25
    assert cfg.seed == 7
    assert len(cfg.densities) == 2


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="config.extra"):
        parse_config('{"command": "deficit", "extra": 1}')


def test_parse_config_names_bad_sigma():
    bad = '{"command": "deficit", "densities": [{"kind": "gaussian", "mu": 0, "sigma": -1}]}'
    with pytest.raises(ConfigError, match=r"densities\[0\].sigma"):
        parse_config(bad)


def test_parse_config_rejects_unknown_sweep_param():
    bad = '{"command": "counterexample", "sweep": {"param": "mystery", "values": [1.0]}}'
    with pytest.raises(ConfigError, match="sweep.param"):
        parse_config(bad)


def test_parse_config_rejects_unknown_kind():
    bad = '{"command": "deficit", "densities": [{"kind": "cauchy", "mu": 0}]}'
    with pytest.raises(ConfigError, match="kind"):
        parse_config(bad)


def test_parse_config_grid_bounds():
    bad = '{"command": "deficit", "grid": {"min": -1, "max": 1, "n": 10}}'
    with pytest.raises(ConfigError, match="grid.n"):
        parse_config(bad)


def test_parse_sweep_flag():
    sweep = parse_sweep_flag("delta=0.002:0.1:12")
    assert sweep["param"] == "delta"
    assert len(sweep["values"]) == 12
    vals = np.asarray(sweep["values"])
    ratios = vals[1:] / vals[:-1]
    assert np.allclose(ratios, ratios[0])  # geometric spacing
    with pytest.raises(ConfigError):
        parse_sweep_flag("delta=1:2")


def test_deficit_command_json(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(GOOD_CONFIG)
    out = tmp_path / "report.json"
    rc = main(["deficit", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["meta"]["seed"] == 7
    assert data["meta"]["version"]
    assert data["meta"]["grid_n"] == 2048
    rep = data["report"]
    assert set(rep) == {
        "lambda", "tau", "epsilon", "transport_deficit",
        "midpoint_deficit", "bad_set_measure", "tail_cut",
    }
    assert rep["epsilon"] >= -1e-6


def test_equal_gaussians_near_zero_deficit(tmp_path):
    cfg = {
        "command": "deficit",
        "densities": [
            {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
            {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
        ],
        "lambda": 0.5,
        "grid": {"min": -9.0, "max": 9.0, "n": 2048},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["deficit", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert abs(rep["epsilon"]) <= 1e-6


def test_counterexample_csv_with_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "counterexample", "--sweep", "delta=0.02:0.1:4", "--t", "0.5",
        "--n", "1024", "--seed", "7", "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    data_rows = [l for l in lines if not l.startswith("#")]
    assert data_rows[0].split(",") == ["delta", "t", "tau", "epsilon", "distance", "ratio"]
    assert len(data_rows) == 5  # header + 4 rows
    summary = [l for l in lines if l.startswith("# slope=")]
    assert len(summary) == 1
    slope = float(summary[0].split("=")[1])
    assert abs(slope - 0.5) <= 0.1


def test_command_mismatch_is_config_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(GOOD_CONFIG)
    assert main(["stability", "--config", str(cfg_path)]) == 2


def test_missing_config_is_config_error():
    assert main(["deficit", "--config", "/nonexistent/cfg.json"]) == 2


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "deficit", "densities": [{"kind": "gaussian", "mu": 0, "sigma": -1}]}')
    assert main(["deficit", "--config", str(bad)]) == 2


def test_flag_validation_exit_code():
    assert main(["counterexample", "--delta", "0.9"]) == 2
    assert main(["deficit", "--lambda", "1.5"]) == 2


def test_env_seed_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(GOOD_CONFIG)
    out = tmp_path / "r.json"
    monkeypatch.setenv("PLSTAB_SEED", "99")
    assert main(["deficit", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["seed"] == 99


def test_byte_identical_reruns(tmp_path):
    args = ["counterexample", "--sweep", "delta=0.02:0.08:3", "--n", "512", "--seed", "7"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_jobs_parallel_matches_serial(tmp_path):
    args = ["counterexample", "--sweep", "delta=0.02:0.08:3", "--n", "512", "--seed", "7"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_stability_command(tmp_path):
    cfg = {
        "command": "stability",
        "densities": [
            {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
            {"kind": "gaussian", "mu": 0.3, "sigma": 1.0},
        ],
        "lambda": 0.5,
        "grid": {"min": -9.0, "max": 9.0, "n": 1024},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["stability", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["distance_f"] <= 0.05
    assert "witness" in rep and len(rep["witness"]["values"]) >= 2


def test_hypograph_command(tmp_path):
    cfg = {
        "command": "hypograph",
        "densities": [
            {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
            {"kind": "gaussian", "mu": 0.0, "sigma": 1.2},
        ],
        "lambda": 0.5,
        "grid": {"min": -9.0, "max": 9.0, "n": 1024},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["hypograph", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["area_f"] >= 0.5  # normalized densities carry at least area 1/2
    assert rep["bm_gap"] >= -1e-6
    assert rep["cutting_support_ratio"] > 0


def test_invariants_command(tmp_path, capsys):
    rc = main(["invariants", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS pl_inequality" in out
    assert "FAIL" not in out


def test_csv_density_ingestion(tmp_path):
    from plstab.densities import gaussian
    from plstab.grids import to_csv

    d = gaussian(0.0, 1.0, -9.0, 9.0, 1024)
    csv_path = tmp_path / "density.csv"
    to_csv(d, csv_path)
    cfg = {
        "command": "deficit",
        "densities": [
            {"kind": "csv", "path": str(csv_path)},
            {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
        ],
        "grid": {"min": -9.0, "max": 9.0, "n": 1024},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["deficit", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert abs(rep["epsilon"]) <= 1e-6


@pytest.mark.parametrize(
    "command, sweep, message",
    [
        ("counterexample", "lambda=0.2:0.8:3", "cannot sweep 'lambda'"),
        ("radial", "lambda=0.2:0.8:3", "cannot sweep 'lambda'"),
        ("counterexample", "mystery=0.2:0.8:3", "cannot sweep 'mystery'"),
        ("deficit", "delta=0.01:0.1:3", "takes no sweep"),
        ("stability", "t=0.2:0.8:3", "takes no sweep"),
        ("hypograph", "delta=0.01:0.1:3", "takes no sweep"),
        ("invariants", "delta=0.01:0.1:3", "takes no sweep"),
    ],
)
def test_sweep_flag_rejected_where_ignored(capsys, command, sweep, message):
    assert main([command, "--sweep", sweep, "--n", "512"]) == 2
    err = capsys.readouterr().err
    assert "--sweep" in err and message in err


@pytest.mark.parametrize(
    "command, param",
    [("counterexample", "lambda"), ("radial", "lambda"), ("deficit", "delta"),
     ("stability", "delta"), ("hypograph", "t"), ("invariants", "delta")],
)
def test_config_sweep_rejected_where_ignored(command, param):
    text = json.dumps({"command": command, "sweep": {"param": param, "values": [0.1, 0.2, 0.3]}})
    with pytest.raises(ConfigError, match="config.sweep.param"):
        parse_config(text)


@pytest.mark.parametrize("command", ["deficit", "stability"])
def test_jobs_flag_accepted_without_sweep(tmp_path, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(json.loads(GOOD_CONFIG), command=command)))
    out = tmp_path / "r.json"
    assert main([command, "--config", str(cfg_path), "--jobs", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("dimension", [344, 1000])
def test_unsupported_dimension_is_precondition_error(capsys, dimension):
    # Gamma(d/2) overflows a double from d = 344 on
    args = ["radial", "--delta", "0.05", "--n", "1024", "--dimension", str(dimension)]
    assert main(args) == 3
    assert "dimension must be <= 343" in capsys.readouterr().err


def test_degenerate_fit_is_precondition_error(capsys):
    # at d = 70 the grid still holds f's mass, but the radial family carries no
    # signal: every epsilon is the same round-off
    args = ["radial", "--sweep", "delta=0.01:0.1:4", "--dimension", "70", "--n", "2048"]
    assert main(args) == 3
    assert "no spread" in capsys.readouterr().err


def test_radial_point_without_deficit_is_precondition_error(capsys):
    # at d = 60 and delta = 0.05 epsilon is -1.1e-16, round-off: a single
    # point has no ratio to report
    assert main(["radial", "--delta", "0.05", "--n", "1024", "--dimension", "60"]) == 3
    err = capsys.readouterr().err
    assert "epsilon" in err and "dimension 60" in err


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_sweep_too_few_rows_to_fit_is_precondition_error(capsys):
    # delta = 0.01, 0.08, 0.15 at d = 60: epsilon -1.1e-16, 0 and 6.7e-16;
    # one row is left for a fit that needs three
    args = ["radial", "--sweep", "delta=0.01:0.15:3", "--n", "1024", "--dimension", "60"]
    assert main(args) == 3
    assert "1 of 3 sweep rows have epsilon > 0" in capsys.readouterr().err


def test_sweep_row_without_deficit_has_null_ratio(tmp_path, capsys):
    # at d = 58 the two smallest deltas give epsilon 0 (round-off): those rows
    # have no ratio, and the six rows with epsilon > 0 still make a fit
    args = ["radial", "--sweep", "delta=0.01:0.15:8", "--n", "1024", "--dimension", "58"]
    assert main(args) == 0
    report = strict_json(capsys.readouterr().out)
    undefined = [row for row in report["rows"] if row["epsilon"] <= 0]
    assert len(undefined) == 2 and all(row["ratio"] is None for row in undefined)
    assert set(report["summary"]) == {"slope", "intercept", "r2"}
    out = tmp_path / "sweep.csv"
    assert main(args + ["--format", "csv", "--out", str(out)]) == 0
    header, *body = (line.split(",") for line in out.read_text().splitlines()
                     if not line.startswith("#"))
    eps, ratio = header.index("epsilon"), header.index("ratio")
    assert [row[ratio] for row in body if float(row[eps]) <= 0] == [""] * len(undefined)


@pytest.mark.parametrize("dim", ["200", "343"])
def test_radial_grid_truncating_mass_is_precondition_error(capsys, dim):
    # the weighted mass of exp(-pi r^2) peaks at sqrt((d-1)/(2 pi)), near the grid's r = 5
    assert main(["radial", "--delta", "0.05", "--n", "1024", "--dimension", dim]) == 3
    err = capsys.readouterr().err
    assert "outer two cells" in err and f"dimension {dim}" in err


GAUSS = {"kind": "gaussian", "mu": 0.0, "sigma": 1.0}


def deficit_config(**fields):
    cfg = {"command": "deficit", "densities": [GAUSS, GAUSS],
           "grid": {"min": -8.0, "max": 8.0, "n": 128}}
    cfg.update(fields)
    return cfg


def run_config(tmp_path, capsys, cfg, *flags):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code = main([cfg["command"], "--config", str(path), *flags])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, field",
    [
        (deficit_config(grid=5), "config.grid"),
        ({"command": "counterexample", "sweep": 5}, "config.sweep"),
        (deficit_config(grid={"min": "a", "max": "b", "n": 128}), "config.grid.min"),
        (deficit_config(grid={"min": -float("inf"), "max": 8.0, "n": 128}), "config.grid.min"),
        (deficit_config(densities=[{"kind": "gaussian", "mu": "0", "sigma": 1}, GAUSS]),
         "densities[0].mu"),
        (deficit_config(densities=[GAUSS, {"kind": "gaussian", "mu": 0, "sigma": "1"}]),
         "densities[1].sigma"),
        (deficit_config(densities=[{"kind": "uniform", "a": 0, "b": None}, GAUSS]), "densities[0].b"),
        (deficit_config(densities=[{"kind": "bump", "center": [1], "width": 1}, GAUSS]),
         "densities[0].center"),
        (deficit_config(densities=[{"kind": ["gaussian"]}, GAUSS]), "densities[0].kind"),
        (deficit_config(seed=True), "config.seed"),
        (deficit_config(**{"lambda": False}), "config.lambda"),
        (deficit_config(output={"path": 5}), "config.output.path"),
    ],
)
def test_malformed_config_is_named_config_error(tmp_path, capsys, cfg, field):
    code, err = run_config(tmp_path, capsys, cfg)
    assert code == 2
    assert f"config error: {field}:" in err


@pytest.mark.parametrize("param, values, bad", [("delta", [0.01, 0.6], 1), ("t", [1.5, 0.5], 0)])
def test_out_of_range_sweep_value_from_file(tmp_path, capsys, param, values, bad):
    cfg = {"command": "counterexample", "sweep": {"param": param, "values": values}}
    code, err = run_config(tmp_path, capsys, cfg)
    assert code == 2
    assert f"config.sweep.values[{bad}]: {values[bad]!r} is outside" in err


@pytest.mark.parametrize("sweep", ["t=0.2:1.5:3", "delta=0.01:0.6:3", "delta=nan:1:3"])
def test_out_of_range_sweep_value_from_flag(capsys, sweep):
    assert main(["counterexample", "--sweep", sweep, "--n", "512"]) == 2
    assert "config error: --sweep:" in capsys.readouterr().err


def test_sweep_point_count_is_capped(tmp_path, capsys):
    # every point is a full run, so the cap bounds the time a sweep can take
    assert main(["counterexample", "--sweep", "delta=0.01:0.1:200000"]) == 2
    assert f"config error: --sweep: 200000 points, at most {MAX_SWEEP_POINTS}" in capsys.readouterr().err
    values = [0.01] * (MAX_SWEEP_POINTS + 1)
    code, err = run_config(tmp_path, capsys, {"command": "counterexample",
                                              "sweep": {"param": "delta", "values": values}})
    assert code == 2
    assert f"config error: config.sweep.values: {len(values)} points, at most" in err
    parse_config(json.dumps({"command": "radial", "sweep": {"param": "t", "values": values[1:]}}))


@pytest.mark.parametrize("spec, label", [
    ({"kind": "gaussian", "mu": 0.0, "sigma": 1e-300}, "sigma"),
    ({"kind": "exponential", "rate": 1e3}, "1/rate"),
    ({"kind": "uniform", "a": 0.0, "b": 0.1}, "b - a"),
    ({"kind": "bump", "center": 0.0, "width": 0.1}, "width"),
])
def test_density_narrower_than_a_cell_is_precondition_error(tmp_path, capsys, spec, label):
    cfg = deficit_config(densities=[GAUSS, spec], grid={"min": -8.0, "max": 8.0, "n": 129})
    code, err = run_config(tmp_path, capsys, cfg)
    assert code == 3
    assert f"densities[1].{label}:" in err and "below the grid spacing 0.125" in err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "field, flags, named",
    [
        ({"lambda": 1.5}, ["--lambda", "0.3"], "config.lambda"),
        ({"grid": {"min": -8.0, "max": 8.0, "n": 10}}, ["--n", "1024"], "config.grid.n"),
        ({"seed": "7"}, ["--seed", "7"], "config.seed"),
    ],
)
def test_bad_file_field_rejected_under_flag(tmp_path, capsys, field, flags, named):
    code, err = run_config(tmp_path, capsys, deficit_config(**field), *flags)
    assert code == 2
    assert f"config error: {named}:" in err


@pytest.mark.parametrize(
    "flags, named", [(["--lambda", "1.5"], "--lambda"), (["--n", "32"], "--n"),
                     (["--jobs", "0"], "--jobs"), (["--dimension", "0"], "--dimension")],
)
def test_flag_error_names_flag(tmp_path, capsys, flags, named):
    code, err = run_config(tmp_path, capsys, deficit_config(), *flags)
    assert code == 2
    assert f"config error: {named}:" in err


def test_bad_env_seed_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PLSTAB_SEED", "seven")
    code, err = run_config(tmp_path, capsys, deficit_config())
    assert (code, err) == (2, "config error: PLSTAB_SEED: must be an integer\n")


@pytest.mark.parametrize("text", ['{"command": "deficit", "seed": ' + "1" * 5000 + "}", "[" * 100000])
def test_unreadable_json_is_config_error(text):
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(text)


def test_non_numeric_csv_cell_is_precondition_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n0.0,1.0\n1.0,abc\n2.0,1.0\n")
    cfg = deficit_config(densities=[{"kind": "csv", "path": str(bad)}, GAUSS])
    code, err = run_config(tmp_path, capsys, cfg)
    assert code == 3
    assert "row 3: could not convert string to float: 'abc'" in err


def test_undecodable_csv_and_config_are_io_errors(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"x,value\n0.0,\xff\n")
    cfg = deficit_config(densities=[{"kind": "csv", "path": str(binary)}, GAUSS])
    code, err = run_config(tmp_path, capsys, cfg)
    assert code == 2 and err.startswith("i/o error:")
    assert main(["deficit", "--config", str(binary)]) == 2
    assert capsys.readouterr().err.startswith("i/o error:")


# every JSON value kind, including NaN and +-Infinity, which json.loads accepts; the
# small numbers make some mutated configs valid, so the density builders see them too
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-3, 300) | st.floats()
    | st.floats(-10.0, 10.0) | st.text("ab01.-en", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def densities_of(csv_path):
    # positions on the grid and far off it, up to the largest floats
    small = st.floats(-3.0, 3.0) | st.sampled_from([-1e300, 1.7e308]) | st.floats(allow_nan=False, allow_infinity=False)
    # widths down to far below a grid cell, which the CLI rejects by name
    width = st.floats(0.1, 3.0) | st.floats(1e-300, 0.1)
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("gaussian"), "mu": small, "sigma": width}),
        st.fixed_dictionaries({"kind": st.just("exponential"), "rate": st.floats(0.1, 3.0) | st.floats(3.0, 1e300)}),
        st.fixed_dictionaries({"kind": st.just("uniform"), "a": st.floats(-3.0, 0.0) | small, "b": width | small}),
        st.fixed_dictionaries({"kind": st.just("bump"), "center": small, "width": width}),
        st.just({"kind": "csv", "path": csv_path}),
    )


def valid_configs(csv_path):
    """Configs that name every field, with values inside their ranges."""
    sweeps = st.fixed_dictionaries({
        "param": st.sampled_from(["delta", "t"]),
        "values": st.lists(st.floats(0.01, 0.4), min_size=1, max_size=3)
        | st.integers(MAX_SWEEP_POINTS - 1, MAX_SWEEP_POINTS + 1).map(lambda n: [0.05] * n),
    })
    return st.sampled_from(VALID_COMMANDS).flatmap(lambda command: st.fixed_dictionaries({
        "command": st.just(command),
        "densities": st.lists(densities_of(csv_path), min_size=2, max_size=2),
        "lambda": st.floats(0.05, 0.95),
        "t": st.floats(0.05, 0.95),
        "delta": st.floats(0.01, 0.4),
        "dimension": st.integers(1, 5),
        "grid": st.fixed_dictionaries({
            "min": st.floats(-10.0, -1.0), "max": st.floats(1.0, 10.0), "n": st.integers(64, 256),
        }),
        "sweep": sweeps if command in ("counterexample", "radial") else st.none(),
        "seed": st.integers(),
        "jobs": st.integers(1, 4),
        "output": st.fixed_dictionaries({"path": st.none(), "format": st.sampled_from(["json", "csv"])}),
    }))


def field_paths(obj, prefix=()):
    """Every position in a JSON document, the document itself included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from field_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def csv_density(tmp_path_factory):
    from plstab.densities import gaussian
    from plstab.grids import to_csv

    path = tmp_path_factory.mktemp("csv") / "density.csv"
    to_csv(gaussian(0.0, 1.0, -6.0, 6.0, 128), path)
    return str(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_json_in_any_field_is_accepted_or_named(csv_density, data):
    cfg = data.draw(valid_configs(csv_density))
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(field_paths(cfg))))
        value = data.draw(json_values)
        if not path:
            cfg = value
            continue
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        parsed = parse_config(json.dumps(cfg))
    except ConfigError:
        return
    assert parsed.sweep is None or len(parsed.sweep["values"]) <= MAX_SWEEP_POINTS
    if parsed.grid["n"] <= 256:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an accepted density builds without overflow
            try:
                _build_densities(parsed, len(parsed.densities))
            except (ConfigError, DomainError, PreconditionError, OSError):
                pass
