import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import plstab.grids
from plstab import (
    DomainError,
    GridFunction,
    l1_distance,
    mass,
    normalize,
    scale_amplitude,
    sup_norm,
    translate,
)
from plstab.densities import gaussian, uniform
from plstab.grids import _l1_merged, from_csv, to_csv

from conftest import normal_cdf


def test_mass_zero_function():
    f = GridFunction(0.0, 0.1, np.zeros(16))
    assert mass(f) == 0.0


def test_mass_indicator():
    # indicator of [0,1] at dx = 1/1000, edges aligned
    dx = 1e-3
    xs = dx / 2 + dx * np.arange(1000)
    f = GridFunction(dx / 2, dx, np.ones_like(xs))
    assert mass(f) == pytest.approx(1.0, abs=dx)


@st.composite
def mass_values(draw):
    """2 to 2**14 cell values for the exact sum: zeros, subnormals, and one
    band of magnitudes (the smallest normal binade, 1e-320 to 1e300, or one
    binade whose cells share an exponent), so that small cells are not all
    lost in the rounding of large ones."""
    lo, hi = draw(st.sampled_from([(2.2250738585072014e-308, 4.450147717014403e-308),
                                   (1e-320, 1e300), (0.5, 1.0)]))
    elements = st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308), st.floats(lo, hi))
    return draw(hnp.arrays(np.float64, st.integers(2, 2 ** 14), elements=elements))


@given(mass_values(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_mass_is_correctly_rounded_sum(values, rng):
    f = GridFunction(0.0, 0.3, values)
    assert mass(f).hex() == (0.3 * math.fsum(values.tolist())).hex()
    shuffled = values.tolist()
    rng.shuffle(shuffled)
    assert mass(GridFunction(0.0, 0.3, shuffled)).hex() == mass(f).hex()


def test_mass_overflow_raises_as_fsum_does():
    with pytest.raises(OverflowError) as expected:
        math.fsum([1e308, 1e308])
    with pytest.raises(OverflowError) as got:
        mass(GridFunction(0.0, 1.0, [1e308, 1e308]))
    assert str(got.value) == str(expected.value)


def test_mass_is_computed_once(monkeypatch):
    f = GridFunction(0.0, 0.5, np.arange(5.0))
    assert mass(f) == 5.0
    monkeypatch.setattr(np, "bincount", None)  # a second sum would fail
    assert mass(f) == 5.0


def test_mass_gaussian(gauss_pi):
    # oracle: analytic integral of exp(-pi x^2) over R equals 1
    assert mass(gauss_pi) == pytest.approx(1.0, abs=1e-6)


def test_validation_errors():
    with pytest.raises(DomainError):
        GridFunction(0.0, -0.1, np.ones(4))
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.1, np.array([1.0]))
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.1, np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.1, np.array([1.0, np.inf]))


def test_normalize_and_scale():
    f = GridFunction(0.0, 0.5, np.array([2.0, 2.0]))  # mass 2
    n = normalize(f)
    assert mass(n) == pytest.approx(1.0, abs=1e-12)
    assert mass(scale_amplitude(f, 3.0)) == pytest.approx(3.0 * mass(f), rel=1e-12)
    with pytest.raises(DomainError, match="zero mass"):
        normalize(GridFunction(0.0, 0.5, np.zeros(4)))


def test_translate_exact():
    f = gaussian(0.0, 1.0, -5, 5, 256)
    g = translate(f, 0.0)
    assert g.x0 == f.x0 and np.array_equal(g.values, f.values)
    s = 0.37
    h = translate(f, s)
    assert h.x0 == f.x0 + s
    assert mass(h) == mass(f)


def test_translate_shares_values_and_checks_the_origin():
    f = GridFunction(1e308, 0.5, np.array([1.0, 2.0, 0.0]))
    g = translate(f, -1e308)
    assert g.values is f.values and not g.values.flags.writeable
    assert (g.x0, g.dx) == (0.0, 0.5)
    for s in (np.inf, -np.inf, np.nan, 1e308):  # the last makes x0 overflow
        with pytest.raises(DomainError):
            translate(f, s)


def test_scale_amplitude_checks_overflow_once():
    f = GridFunction(0.0, 1.0, [1e200, 1.0])
    with pytest.raises(DomainError, match="values must be finite"):
        scale_amplitude(f, 1e200)
    for a in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="amplitude factor"):
            scale_amplitude(f, a)
    g = scale_amplitude(f, 1e100)
    assert np.array_equal(g.values, [1e300, 1e100]) and not g.values.flags.writeable
    assert g.values is not f.values and (g.x0, g.dx) == (f.x0, f.dx)
    with pytest.raises(ValueError):
        g.values[0] = 0.0


def test_normalize_checks_overflow_once():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is rejected before any division
        with pytest.raises(DomainError, match="values must be finite"):
            normalize(GridFunction(0.0, 5e-324, [1.0, 1.0]))
        f = GridFunction(0.5, 0.25, [3.0, -0.0, 1e-310, 7.5])
        g = normalize(f)
    assert [v.hex() for v in g.values] == [v.hex() for v in f.values / mass(f)]
    assert g.values is not f.values and not g.values.flags.writeable
    assert (g.x0, g.dx) == (f.x0, f.dx)


def test_sup_norm_gaussian(gauss_pi):
    # 0 is a grid point, so the max value is exactly exp(0)
    assert sup_norm(gauss_pi) == pytest.approx(1.0, abs=1e-9)


def test_l1_identity(gauss_pi):
    assert l1_distance(gauss_pi, gauss_pi) == 0.0


def test_l1_normalized_indicators(uniform_pair):
    # oracle: int |1_(0,1) - 0.5 * 1_(0,2)| = 0.5 + 0.5 = 1
    f, g = uniform_pair
    assert l1_distance(f, g) == pytest.approx(1.0, abs=2 * f.dx)


def test_l1_shifted_normals():
    # oracle: densities cross at 0.05, distance = 4*Phi(0.05) - 2
    f = gaussian(0.0, 1.0, -8, 8, 8192)
    g = gaussian(0.1, 1.0, -8, 8, 8192)
    expected = 4.0 * normal_cdf(0.05) - 2.0
    assert l1_distance(f, g) == pytest.approx(expected, abs=1e-3)


def test_l1_mixed_grids():
    f = gaussian(0.0, 1.0, -8, 8, 4096)
    g = gaussian(0.0, 1.0, -7.5, 8.5, 3000)
    assert l1_distance(f, g) == pytest.approx(0.0, abs=2e-3)


grid_values = st.lists(st.floats(0.0, 10.0), min_size=4, max_size=48)


@given(grid_values, grid_values, grid_values)
@settings(max_examples=60, deadline=None)
def test_l1_triangle_inequality(a, b, c):
    n = min(len(a), len(b), len(c))
    fa = GridFunction(-1.0, 0.1, np.asarray(a[:n]))
    fb = GridFunction(-1.3, 0.17, np.asarray(b[:n]))
    fc = GridFunction(-0.7, 0.23, np.asarray(c[:n]))
    dab = l1_distance(fa, fb)
    dbc = l1_distance(fb, fc)
    dac = l1_distance(fa, fc)
    assert dac <= dab + dbc + 1e-9


@st.composite
def padded_values(draw):
    """Cell values with runs of zeros at either edge; 2 cells at the least."""
    core = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40))
    lead, trail = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    vals = [0.0] * lead + core + [0.0] * trail
    return np.asarray(vals if len(vals) >= 2 else vals + [draw(st.floats(0.0, 10.0))])


# fractional cell offsets, with the ends of [0, 1) where the split pieces vanish
thetas = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, 1e-15, 1e-9, 1.0 - 1e-9, 1.0 - 1e-15])


@given(padded_values(), padded_values(), padded_values(), st.integers(-50, 50), thetas,
       st.integers(-50, 50), thetas, st.floats(0.01, 2.0), st.floats(-5.0, 5.0))
@settings(max_examples=300, deadline=None)
def test_l1_equal_spacing_matches_merged_breakpoints(a, b, c, kb, tb, kc, tc, dx, x0):
    # overlapping, touching and disjoint supports: offsets reach past both grids
    fa = GridFunction(x0, dx, a)
    fb = GridFunction(x0 + (kb + tb) * dx, dx, b)
    fc = GridFunction(x0 + (kc + tc) * dx, dx, c)
    for p, q in ((fa, fb), (fb, fc), (fa, fc)):
        d = l1_distance(p, q)
        assert l1_distance(q, p) == d  # bitwise, identical grids included
        merged = _l1_merged(p, q)
        # 1e-300: subnormal values carry absolute, not relative, precision
        assert abs(d - merged) <= 1e-12 * merged + 1e-15 * (mass(p) + mass(q)) + 1e-300
    # translates of one grid, shared frames included
    ta, tb_, tc_ = fa, translate(fa, (kb + tb) * dx), translate(fa, (kc + tc) * dx)
    scale = mass(fa)
    assert l1_distance(ta, tc_) <= l1_distance(ta, tb_) + l1_distance(tb_, tc_) + 1e-12 * scale + 1e-300


def test_l1_is_continuous_in_the_shift():
    # h is f moved by 1e-9: a metric that jumps on shared grids breaks the triangle inequality here
    f = GridFunction(0.0, 0.5, [1.0, 0.0, 1.0, 0.0])
    g = GridFunction(0.0, 0.5, [0.0, 1.0, 0.0, 1.0])
    h = translate(f, 1e-9)
    assert l1_distance(f, g) <= l1_distance(f, h) + l1_distance(h, g) + 1e-15
    assert l1_distance(f, g) == pytest.approx(l1_distance(h, g), abs=1e-8)


@given(grid_values, st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_scale_translate_mass(vals, a, s):
    f = GridFunction(0.0, 0.25, np.asarray(vals))
    assert mass(scale_amplitude(f, a)) == pytest.approx(a * mass(f), rel=1e-12, abs=1e-300)
    assert mass(translate(f, s)) == mass(f)


def test_csv_roundtrip(tmp_path):
    f = uniform(0.0, 1.0, -2.0, 2.0, 128)
    path = tmp_path / "density.csv"
    to_csv(f, path)
    g = from_csv(path)
    assert g.x0 == f.x0
    assert g.dx == pytest.approx(f.dx, rel=1e-12)
    assert np.array_equal(g.values, f.values)


def test_csv_rejects_uneven_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,1.0\n0.1,1.0\n0.25,1.0\n")
    with pytest.raises(DomainError, match="equally spaced"):
        from_csv(path)


@pytest.mark.parametrize(
    "row, problem",
    [("1.0,abc", "could not convert"), ("1.0," + "1" * 200_000, "field limit")],
)
def test_csv_names_row_it_cannot_read(tmp_path, row, problem):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,value\n0.0,1.0\n{row}\n2.0,1.0\n")
    with pytest.raises(DomainError, match=f"row 3: .*{problem}"):
        from_csv(path)


def read_rows_reference(path):
    """The csv-module reader that ``from_csv`` must agree with: one row at a
    time, every field through ``float``."""
    xs, vs = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if not row or row[0].strip().startswith("#") or row[0].strip().lower() == "x":
                    continue
                if len(row) != 2:
                    raise DomainError(f"expected two columns, got {len(row)}: {row!r}")
                xs.append(float(row[0]))
                vs.append(float(row[1]))
        except DomainError:
            raise
        except (csv.Error, ValueError) as exc:
            raise DomainError(f"row {reader.line_num}: {exc}") from None
    if len(xs) < 2:
        raise DomainError("need at least two samples")
    x = np.asarray(xs)
    steps = np.diff(x)
    if np.any(steps <= 0):
        raise DomainError("x must be strictly increasing")
    dx = float(np.mean(steps))
    if np.max(np.abs(steps - dx)) > 1e-9 * max(abs(dx), 1e-30):
        raise DomainError("x must be equally spaced (1e-9 relative tolerance)")
    return GridFunction(float(x[0]), dx, np.asarray(vs))


def outcome(read, path):
    try:
        f = read(path)
    except DomainError as exc:
        return str(exc)
    return f.x0, f.dx, f.values.tobytes()


# pieces of fields, separators and rows on which csv.reader + float and a
# whole-file parse could part ways
csv_tokens = st.sampled_from(
    ["0", "1", "2.5", "-0.25", "1e-310", "7", "1_0", "1__0", "_1", "١", "٣.٥",
     "nan", "inf", "abc", "x", "X", "#", " ", "\t", "\x0c", "\x1c", "\x1f", " ", "\xa0",
     '"', ",", "\n", "\r", "\r\n", "e5", "+", "."])


@st.composite
def csv_texts(draw):
    """Mostly well-formed x,value files, each row possibly perturbed."""
    n = draw(st.integers(0, 6))
    dx = draw(st.sampled_from([0.5, 0.25, 1.0]))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["x,value", " X ,v", "# comment, with \"quotes", "  #", "x"])))
    for i in range(n):
        fields = [repr(i * dx), draw(st.sampled_from(["1.0", "0.5", "2e-3", "3_0", "٢", " 1 "]))]
        if draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, 1))
            fields[k] = draw(st.lists(csv_tokens, max_size=3).map("".join)) + fields[k]
        lines.append(",".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# note", "x,value", ",", "\x1c#"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@given(csv_texts())
@settings(max_examples=400, deadline=None)
def test_from_csv_agrees_with_the_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(from_csv, path) == outcome(read_rows_reference, path)


def test_csv_valid_files_take_one_pass(tmp_path, monkeypatch):
    # comments, headers and blank rows anywhere, CRLF line ends, underscores
    # and non-ASCII digits: the whole-file parse reads them all
    path = tmp_path / "d.csv"
    rows = ["# made by hand", "x,value", "0.0,1_0", "", "  # mid", "0.5,٣", "X,again", " x ", "1.0,2.5", ""]
    path.write_text("\r\n".join(rows), encoding="utf-8", newline="")

    def refuse(text):
        raise AssertionError("read row by row")

    monkeypatch.setattr(plstab.grids, "_parse_rows", refuse)
    f = from_csv(path)
    assert (f.x0, f.dx, f.values.tolist()) == (0.0, 0.5, [10.0, 3.0, 2.5])
    g = uniform(0.0, 1.0, -2.0, 2.0, 64)
    to_csv(g, path)
    assert np.array_equal(from_csv(path).values, g.values)


@pytest.mark.parametrize(
    "body, problem",
    [("0.0,1.0\n1.0,2.0,3.0\n", "expected two columns, got 3"),
     ("0.0,1.0\n   \n1.0,2.0\n", "expected two columns, got 1"),
     ("0.0,1.0\n1.0,2.0\x1c\n", "row 2: could not convert"),
     ("0.0,1.0\n1.0,1__0\n", "row 2: could not convert"),
     ("# only a comment\n\n", "need at least two samples")],
)
def test_csv_rejects_what_the_row_reader_rejects(tmp_path, body, problem):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DomainError, match=problem):
        from_csv(path)
    with pytest.raises(DomainError, match=problem):
        read_rows_reference(path)
