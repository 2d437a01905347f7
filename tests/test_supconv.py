import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plstab.supconv
from plstab import (
    DomainError,
    GridFunction,
    integral_curve,
    l1_distance,
    mass,
    midpoint_deficit,
    midpoint_interpolant,
    pl_deficit,
    scale_amplitude,
    sup_convolution,
    translate,
)
from plstab.densities import exponential, gaussian
from plstab.stability import (
    _ODD_BUMP_PEAK,
    CounterexampleConfig,
    counterexample_family,
    random_log_concave,
    random_log_concave_pair,
)
from plstab.supconv import (
    _LogInterp,
    _block_scan_max,
    _log_hull,
    _log_interp,
    _log_values,
    _merge_max,
    _support_nodes,
    _ternary_max,
)

UNIFORM_DEFICIT = (3.0 - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))


def test_t_domain_error(gauss_pi):
    with pytest.raises(DomainError):
        sup_convolution(gauss_pi, gauss_pi, 0.0)
    with pytest.raises(DomainError):
        sup_convolution(gauss_pi, gauss_pi, 1.0)


def test_equality_case(gauss_pi):
    res = sup_convolution(gauss_pi, gauss_pi, 0.3)
    err = np.max(np.abs(res.h.evaluate(gauss_pi.centers) - gauss_pi.values))
    assert err <= 1e-4
    assert pl_deficit(res.h, gauss_pi, gauss_pi, 0.3) == pytest.approx(0.0, abs=1e-4)


def test_translated_equality_case(gauss_pi):
    lam = 0.4
    g = translate(gauss_pi, 1.0)
    res = sup_convolution(gauss_pi, g, lam)
    target = translate(gauss_pi, 1.0 - lam)
    err = np.max(np.abs(res.h.evaluate(target.centers) - target.values))
    assert err <= 1e-4


def test_uniform_closed_form(uniform_pair):
    f, g = uniform_pair
    res = sup_convolution(f, g, 0.5)
    assert mass(res.h) == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), abs=1e-3)
    target = GridFunction(
        f.x0, f.dx, np.where((f.centers > 0) & (f.centers < 1.5), 1.0 / math.sqrt(2.0), 0.0)
    )
    assert l1_distance(res.h, target) <= 1e-3
    assert pl_deficit(res.h, f, g, 0.5) == pytest.approx(UNIFORM_DEFICIT, abs=1e-3)


def test_supconv_condition_sampled():
    # the defining inequality holds at sampled decompositions up to the
    # piecewise-linear interpolation guard
    f, g = random_log_concave_pair(5, n=1024)
    lam = 0.35
    res = sup_convolution(f, g, lam)
    rng = np.random.default_rng(0)
    xs = rng.choice(f.centers, 400, p=f.values / f.values.sum())
    ys = rng.choice(g.centers, 400, p=g.values / g.values.sum())
    rhs = f.evaluate(xs) ** lam * g.evaluate(ys) ** (1.0 - lam)
    lhs = res.h.evaluate(lam * xs + (1.0 - lam) * ys)
    guard = float(np.percentile(np.abs(np.diff(res.h.values, 2)), 99)) / 8.0
    assert np.all(lhs >= rhs - 1e-6 * np.max(rhs) - guard)


def test_pl_inequality_random_pairs():
    for seed in range(10):
        f, g = random_log_concave_pair(seed, n=1024)
        for lam in (0.2, 0.5, 0.8):
            eps = pl_deficit(sup_convolution(f, g, lam).h, f, g, lam)
            assert eps >= -1e-6


def test_scaling_covariance():
    # the amplitude pair (a^-(1-lam), a^lam) is the one whose exponents cancel
    # in f^lam g^(1-lam) for every lam
    f, g = random_log_concave_pair(2, n=1024)
    for lam in (0.3, 0.5, 0.7):
        h1 = sup_convolution(f, g, lam).h
        a = 1.7
        h2 = sup_convolution(
            scale_amplitude(f, a ** -(1.0 - lam)), scale_amplitude(g, a ** lam), lam
        ).h
        assert np.max(np.abs(h1.values - h2.values)) <= 1e-10 * np.max(h1.values)


def test_translation_covariance():
    f, g = random_log_concave_pair(4, n=1024)
    t = 0.25
    h1 = sup_convolution(f, g, t).h
    h2 = sup_convolution(translate(f, 0.8), g, t).h
    assert h2.x0 == pytest.approx(h1.x0 + t * 0.8, abs=1e-12)
    assert np.max(np.abs(h1.values - h2.values)) <= 1e-9 * max(1.0, np.max(h1.values))


def test_non_log_concave_fallback():
    xs = np.linspace(-6, 6, 801)
    dx = 12 / 800
    bimodal = GridFunction(-6, dx, np.exp(-0.5 * (np.abs(xs) - 2.5) ** 2))
    res = sup_convolution(bimodal, bimodal, 0.5)
    # the sup-convolution fills the concave gap: deficit strictly positive
    eps = pl_deficit(res.h, bimodal, bimodal, 0.5)
    assert eps > 0.01
    rng = np.random.default_rng(1)
    xsmp = rng.uniform(-4, 4, 300)
    ysmp = rng.uniform(-4, 4, 300)
    rhs = np.sqrt(bimodal.evaluate(xsmp) * bimodal.evaluate(ysmp))
    lhs = res.h.evaluate(0.5 * (xsmp + ysmp))
    assert np.all(lhs >= rhs - 2e-2 * np.max(rhs))


# ---------------------------------------------------------------------------
# table-driven log interpolation


class ReferenceLogInterp:
    """Reference for _LogInterp: masks and selections rebuilt on every call.
    For n = 2 its quadratic reads logv[-1] (index k - 1 with k = 0)."""

    def __init__(self, x0, dx, logv):
        self.x0 = x0
        self.dx = dx
        self.logv = logv
        self.n = logv.size

    def linear(self, q):
        u = (q - self.x0) / self.dx
        inside = (u >= 0.0) & (u <= self.n - 1)
        k = np.clip(np.floor(u).astype(int), 0, self.n - 2)
        s = u - k
        y0 = self.logv[k]
        y1 = self.logv[k + 1]
        both = np.isfinite(y0) & np.isfinite(y1)
        y0s = np.where(np.isfinite(y0), y0, 0.0)
        y1s = np.where(np.isfinite(y1), y1, 0.0)
        val = np.where(both, y0s + s * (y1s - y0s), -np.inf)
        val = np.where((s == 0.0) & np.isfinite(y0), y0s, val)
        val = np.where((s == 1.0) & np.isfinite(y1), y1s, val)
        return np.where(inside, val, -np.inf)

    def quadratic(self, q):
        u = (q - self.x0) / self.dx
        inside = (u >= 0.0) & (u <= self.n - 1)
        k = np.clip(np.rint(u).astype(int), 1, self.n - 2)
        s = u - k
        ym = self.logv[k - 1]
        y0 = self.logv[k]
        yp = self.logv[k + 1]
        ok = np.isfinite(ym) & np.isfinite(y0) & np.isfinite(yp) & (np.abs(s) <= 1.0)
        yms = np.where(np.isfinite(ym), ym, 0.0)
        y0s = np.where(np.isfinite(y0), y0, 0.0)
        yps = np.where(np.isfinite(yp), yp, 0.0)
        quad = y0s + 0.5 * s * (yps - yms) + 0.5 * s * s * (yps - 2.0 * y0s + yms)
        lin = self.linear(q)
        return np.where(inside & ok, quad, lin)


def reference_interp(f):
    return ReferenceLogInterp(f.x0, f.dx, _log_values(f))


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def interp_cases(draw):
    """(f, q): log-values spread over many decades with zero cells inside the
    support (or a constant density); queries at random points, at every node
    (u = n - 1 included), half-way between nodes, within round-off of both
    ends (below node 0 by less than u - 1 can resolve when x0 = 0) and up to
    three cells outside the grid; a 2-D query half the time."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(3, 80))
    vals = np.exp(rng.normal(0.0, 3.0, n))
    vals[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = 0.0
    if draw(st.booleans()) and n > 4:
        vals[: int(rng.integers(1, n // 2))] = 0.0
    if not np.any(vals > 0) or draw(st.integers(0, 9)) == 0:
        vals = np.ones(n)
    x0 = draw(st.sampled_from([0.0, float(rng.normal(0.0, 5.0))]))
    f = GridFunction(x0, float(rng.uniform(0.01, 2.0)), vals)
    nodes = np.arange(-3, n + 3, dtype=float)
    u = np.concatenate([rng.uniform(-3.0, n + 2.0, 100), nodes, nodes + 0.5,
                        [-1e-17, -1.0, 1e-17, n - 1 - 1e-13, n - 1 + 1e-13]])
    q = np.concatenate([f.x0 + f.dx * u, f.centers])
    if draw(st.booleans()):
        q = q[: q.size // 2 * 2].reshape(-1, 2)
    return f, q


@given(interp_cases())
@settings(max_examples=200, deadline=None)
def test_log_interp_matches_reference(case):
    f, q = case
    interp, ref = _log_interp(f), reference_interp(f)
    assert_bits_equal(interp.linear(q), ref.linear(q))
    assert_bits_equal(interp.quadratic(q), ref.quadratic(q))


def test_log_interp_node_hits_beside_zero_cells():
    # finite nodes next to zero cells keep their value only when hit exactly,
    # including the last node u = n - 1
    f = GridFunction(0.0, 1.0, [0.0, 2.0, 0.0, 3.0, 1.0, 0.0, 5.0])
    interp, ref = _log_interp(f), reference_interp(f)
    q = np.array([[1.0, 3.0, 6.0, 1.5], [-1.0, 7.0, 3.25, 0.0]])
    expected = np.array([[math.log(2.0), math.log(3.0), math.log(5.0), -np.inf],
                         [-np.inf, -np.inf, 0.75 * math.log(3.0), -np.inf]])
    assert_bits_equal(interp.linear(q), expected)
    assert_bits_equal(interp.linear(q), ref.linear(q))
    assert_bits_equal(interp.quadratic(q), ref.quadratic(q))


def test_log_interp_two_cells_quadratic_is_linear():
    # log-linear data on two cells: there is no three-node stencil, so the
    # quadratic must not read past the grid and equals the linear value
    f = GridFunction(0.0, 1.0, [1.0, math.exp(-3.0)])
    interp = _log_interp(f)
    q = np.array([0.0, 0.25, 0.5, 1.0])
    assert interp.quadratic(np.array([0.25]))[0] == pytest.approx(-0.75, abs=1e-15)
    assert_bits_equal(interp.quadratic(q), interp.linear(q))


@given(interp_cases())
@settings(max_examples=300, deadline=None)
def test_log_interp_slopes_are_the_model_derivatives(case):
    # on the piece that holds each query the model is a quadratic in u (a
    # line on linear cells), so central differences of value at u +- 1/8 on
    # that piece give its slopes up to round-off
    f, q = case
    interp = _log_interp(f)
    u = interp.index(q)
    k, lin = interp.piece(u)
    d1, d2 = interp.slopes(u, k, lin)
    below, at, above = (interp.value(u + e, k, lin) for e in (-0.125, 0.0, 0.125))
    assert_bits_equal(at, interp.quadratic(q))
    with np.errstate(invalid="ignore"):
        first = (above - below) / 0.25
        second = (above - 2.0 * at + below) * 64.0
    ok = np.isfinite(first) & np.isfinite(second)
    logv = interp.logv[np.isfinite(interp.logv)]
    tol = 1e-12 * (1.0 + np.max(np.abs(logv)))
    assert np.all(np.abs(first - d1)[ok] <= tol)
    assert np.all(np.abs(second - d2)[ok] <= tol)


@pytest.mark.parametrize("kind", ["log_concave", "bimodal"])
def test_sup_convolution_matches_reference_interp(monkeypatch, kind):
    if kind == "log_concave":
        f, g = random_log_concave_pair(3, n=1024)
    else:
        xs = np.linspace(-6, 6, 801)
        dx = 12 / 800
        f = GridFunction(-6, dx, np.exp(-0.5 * (np.abs(xs) - 2.5) ** 2))
        g = GridFunction(-6, dx, np.exp(-0.5 * (np.abs(xs - 0.7) - 1.5) ** 2))
    # t = 0.05 keeps the ternary search, whose objective is all the
    # reference implements
    res = sup_convolution(f, g, 0.05)
    monkeypatch.setattr(plstab.supconv, "_LogInterp", ReferenceLogInterp)
    ref = sup_convolution(f, g, 0.05)
    assert_bits_equal(res.h.values, ref.h.values)


# ---------------------------------------------------------------------------
# grid scan of non-log-concave inputs


def flat_grid_scan_max(lf, lg, t, z):
    """Reference for _block_scan_max: every finite f-node against every output
    cell, first maximizer per cell (node 0 where all values are -inf)."""
    xs_all = lf.x0 + lf.dx * np.arange(lf.n)
    finite = np.isfinite(lf.logv)
    xs = xs_all[finite]
    logf = lf.logv[finite]
    best_val = np.full(z.size, -np.inf)
    best_x = np.full(z.size, np.nan)
    for start in range(0, z.size, 256):
        zz = z[start : start + 256, None]
        y = (zz - t * xs[None, :]) / (1.0 - t)
        vals = t * logf[None, :] + (1.0 - t) * lg.linear(y)
        j = np.argmax(vals, axis=1)
        rows = np.arange(zz.size)
        best_val[start : start + 256] = vals[rows, j]
        best_x[start : start + 256] = xs[j]
    return best_x, best_val


def scan_density(rng, kind, x0, dx, n):
    xs = x0 + dx * np.arange(n)
    mid = x0 + 0.5 * dx * (n - 1)
    if kind in ("bimodal", "noisy"):
        sep = rng.uniform(0.2, 0.6) * dx * n
        s1, s2 = rng.uniform(0.03, 0.1, 2) * dx * n
        w = rng.uniform(0.2, 0.8)
        vals = (w * np.exp(-0.5 * ((xs - mid + sep / 2) / s1) ** 2)
                + (1 - w) * np.exp(-0.5 * ((xs - mid - sep / 2) / s2) ** 2))
        if kind == "noisy":
            vals = vals * rng.uniform(0.5, 1.5, n)
            vals[rng.random(n) < 0.15] = 0.0
    else:
        # plateau: a few flat steps; spikes: a few narrow runs far apart
        vals = np.zeros(n)
        width = (n // 4, n // 2) if kind == "plateau" else (1, 4)
        for _ in range(int(rng.integers(1, 4))):
            a = int(rng.integers(0, n - 1))
            vals[a : a + int(rng.integers(*width))] = rng.choice([0.25, 0.5, 1.0])
    if not np.any(vals > 0):
        vals[n // 2] = 1.0
    return GridFunction(x0, dx, vals)


@st.composite
def scan_cases(draw):
    """(lf, lg, t, z) for the grid scan: bimodal, noisy with interior zero
    cells, plateaus (many tied maximizers) and narrow spikes (rows where no
    node is feasible), on grids of equal or different dx; z spans
    t*grid(f) + (1-t)*grid(g) plus a margin of five cells no node reaches."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["bimodal", "noisy", "plateau", "spikes"]
    dx = 0.05
    ratio = draw(st.sampled_from([1.0, 0.5, 1.7, float(rng.uniform(0.3, 3.0))]))
    f = scan_density(rng, draw(st.sampled_from(kinds)), -4.0, dx, draw(st.integers(40, 500)))
    g = scan_density(rng, draw(st.sampled_from(kinds)), float(rng.uniform(-6.0, 2.0)), dx * ratio,
                     draw(st.integers(40, 500)))
    t = draw(st.floats(0.05, 0.95))
    lf, lg = _log_interp(f), _log_interp(g)
    lo = t * f.x0 + (1.0 - t) * g.x0
    hi = t * (f.x0 + (f.n - 1) * f.dx) + (1.0 - t) * (g.x0 + (g.n - 1) * g.dx)
    dz = min(f.dx, g.dx)
    z = lo + dz * np.arange(-5, int((hi - lo) / dz) + 6)
    return lf, lg, t, z


@given(scan_cases())
@settings(max_examples=80, deadline=None)
def test_block_scan_matches_flat_scan(case):
    lf, lg, t, z = case
    x_ref, v_ref = flat_grid_scan_max(lf, lg, t, z)
    x, v = _block_scan_max(lf, lg, t, z)
    assert np.array_equal(x, x_ref, equal_nan=True)
    assert np.array_equal(v, v_ref)


def test_block_scan_ties_and_empty_rows():
    # two plateaus: most cells have many tied maximizers, and the gap between
    # the spikes of g leaves rows where no node is feasible
    dx = 0.05
    xs = dx * np.arange(400)
    f = GridFunction(0.0, dx, np.where((xs > 3.0) & (xs < 15.0), 0.5, 0.0))
    g = GridFunction(0.0, dx, np.where((xs < 0.2) | (xs > 19.7), 1.0, 0.0))
    lf, lg = _log_interp(f), _log_interp(g)
    t = 0.9
    z = dx * np.arange(-5, 405)
    x_ref, v_ref = flat_grid_scan_max(lf, lg, t, z)
    vals = t * lf.logv[None, :] + (1.0 - t) * lg.linear((z[:, None] - t * xs[None, :]) / (1.0 - t))
    ties = np.sum(vals == np.max(vals, axis=1, keepdims=True), axis=1)
    assert np.any(np.isneginf(v_ref)) and np.any(np.isfinite(v_ref) & (ties > 1))
    x, v = _block_scan_max(lf, lg, t, z)
    assert np.array_equal(x, x_ref) and np.array_equal(v, v_ref)


def bimodal_scan_pair(n=4096):
    """Two bimodal Gaussian mixtures on [-10, 10]: the hull intervals are
    mostly a single node."""
    dx = 20.0 / (n - 1)
    xs = -10.0 + dx * np.arange(n)
    f = GridFunction(-10.0, dx, 0.4 * np.exp(-0.5 * ((xs + 1.9) / 0.6) ** 2)
                     + 0.6 * np.exp(-0.5 * ((xs - 1.6) / 0.8) ** 2))
    g = GridFunction(-10.0, dx, 0.55 * np.exp(-0.5 * ((xs + 1.5) / 0.7) ** 2)
                     + 0.45 * np.exp(-0.5 * ((xs - 2.3) / 0.55) ** 2))
    return _log_interp(f), _log_interp(g), xs


def test_block_scan_evaluates_few_pairs(monkeypatch):
    n = 4096
    lf, lg, xs = bimodal_scan_pair(n)
    t = 0.35
    evaluated = []
    linear = _LogInterp.linear

    def counting(self, q):
        evaluated.append(np.size(q))
        return linear(self, q)

    monkeypatch.setattr(_LogInterp, "linear", counting)
    _block_scan_max(lf, lg, t, xs)
    # every element counts, the hull certificate's bisection included
    assert sum(evaluated) < 0.03 * n * n


def recorded_scan(monkeypatch, lf, lg, t, z):
    """_block_scan_max, checked bit for bit against the flat scan, and the
    (lb0, jl, jr) its hull certificate returned."""
    seen = []
    hull_interval = plstab.supconv._hull_interval

    def recording(*args):
        seen.append(hull_interval(*args))
        return seen[-1]

    monkeypatch.setattr(plstab.supconv, "_hull_interval", recording)
    x, v = _block_scan_max(lf, lg, t, z)
    x_ref, v_ref = flat_grid_scan_max(lf, lg, t, z)
    assert_bits_equal(x, x_ref)
    assert_bits_equal(v, v_ref)
    return seen[0]


def test_block_scan_hull_maximizer_on_zero_cells(monkeypatch):
    # f and g are two narrow runs each, far apart: the hulls bridge the zero
    # cells between them, so the hull maximizer of middle cells sits on a
    # zero cell of f, and both finite nodes beside it map into g's gap
    dx = 0.05
    xs = dx * np.arange(200)
    runs = (np.abs(xs - 2.0) < 0.3) | (np.abs(xs - 8.0) < 0.3)
    f = GridFunction(0.0, dx, np.where(runs, np.exp(-np.abs(xs - 5.0)), 0.0))
    g = GridFunction(0.0, dx, np.where(runs, np.exp(-0.3 * np.abs(xs - 4.0)), 0.0))
    lf, lg = _log_interp(f), _log_interp(g)
    t = 0.5
    z = dx * np.arange(-5, 205)
    lb0, jl, jr = recorded_scan(monkeypatch, lf, lg, t, z)
    xstar = _merge_max(_log_hull(lf), _log_hull(lg), t, z)[0]
    on_zero = ~runs[np.clip(np.rint(xstar / dx).astype(int), 0, 199)]
    blind = np.isneginf(lb0)
    assert np.any(blind & on_zero)
    assert np.all(jl[blind] == 0) and np.all(jr[blind] == np.sum(runs) - 1)


def test_block_scan_runs_narrow_and_wide_rows(monkeypatch):
    # seeded noise makes the hull loose: some intervals hold more than one
    # block of nodes and take the block bounds, the rest are scanned directly
    rng = np.random.default_rng(5)
    f = scan_density(rng, "noisy", -4.0, 0.01, 900)
    g = scan_density(rng, "bimodal", -3.0, 0.013, 700)
    lf, lg = _log_interp(f), _log_interp(g)
    t = 0.4
    z = np.linspace(-4.0, 5.0, 1000)
    lb0, jl, jr = recorded_scan(monkeypatch, lf, lg, t, z)
    width = jr - jl + 1
    finite = np.isfinite(lb0)
    assert np.any(finite & (width > plstab.supconv._SCAN_BLOCK))
    assert np.any(finite & (width <= plstab.supconv._SCAN_BLOCK))


@pytest.mark.parametrize("kind", ["bimodal", "noisy"])
def test_hull_interval_holds_every_node_the_hull_bound_admits(monkeypatch, kind):
    # the galloping search may stop at any rejected node, so check its
    # (jl, jr) against the hull bound G at every node of every row
    if kind == "bimodal":
        lf, lg, z = bimodal_scan_pair(1024)
        t = 0.35
    else:
        rng = np.random.default_rng(5)
        lf = _log_interp(scan_density(rng, "noisy", -4.0, 0.01, 900))
        lg = _log_interp(scan_density(rng, "bimodal", -3.0, 0.013, 700))
        t, z = 0.4, np.linspace(-4.0, 5.0, 1000)
    lb0, jl, jr = recorded_scan(monkeypatch, lf, lg, t, z)
    finite = np.isfinite(lf.logv)
    xs = (lf.x0 + lf.dx * np.arange(lf.n))[finite]
    hull_f = _log_hull(lf).logv[finite]
    nodes = np.arange(xs.size)
    rows = np.nonzero(np.isfinite(lb0))[0]
    assert rows.size > 0.5 * z.size
    narrow = 0
    for start in range(0, rows.size, 128):
        r = rows[start : start + 128]
        bound = plstab.supconv._scan_values(t, xs, hull_f, _log_hull(lg), z[r, None], nodes[None, :])
        reach = bound >= lb0[r, None]
        first = np.where(reach.any(axis=1), np.argmax(reach, axis=1), jl[r])
        last = np.where(reach.any(axis=1), xs.size - 1 - np.argmax(reach[:, ::-1], axis=1), jr[r])
        assert np.all(jl[r] <= first) and np.all(last <= jr[r])
        narrow += np.sum(jr[r] - jl[r] <= 2)
    if kind == "bimodal":  # most rows keep the node beside x* and little else
        assert narrow > 0.5 * rows.size


def test_block_scan_mixture_at_small_t(monkeypatch):
    # the Gaussian mixture at +-1.2 (not log-concave) against itself at
    # t = 0.01, below the t of scan_cases
    n = 2048
    xs = np.linspace(-10.0, 10.0, n)
    f = GridFunction(-10.0, 20.0 / (n - 1),
                     0.5 * np.exp(-0.5 * (xs - 1.2) ** 2) + 0.5 * np.exp(-0.5 * (xs + 1.2) ** 2))
    lf = _log_interp(f)
    t = 0.01
    z = -10.0 + f.dx * np.arange(n)
    recorded_scan(monkeypatch, lf, lf, t, z)


def test_sup_convolution_grid_scan_matches_flat_scan(monkeypatch):
    xs = np.linspace(-6, 6, 801)
    dx = 12 / 800
    f = GridFunction(-6, dx, np.exp(-0.5 * (np.abs(xs) - 2.5) ** 2))
    g = GridFunction(-6, dx, np.exp(-0.5 * (np.abs(xs - 0.7) - 1.5) ** 2))
    res = sup_convolution(f, g, 0.3)
    monkeypatch.setattr(plstab.supconv, "_block_scan_max", flat_grid_scan_max)
    ref = sup_convolution(f, g, 0.3)
    assert np.array_equal(res.h.values, ref.h.values)


# ---------------------------------------------------------------------------
# exact slope merge of log-concave inputs


def ternary_stage1(lf, lg, t, z):
    """Reference for _merge_max: the 60-step ternary search of the linear
    objective over each cell's feasible window, as stage 1 ran before."""
    xf, _ = _support_nodes(lf)
    xg, _ = _support_nodes(lg)
    x_lo = np.maximum(xf[0], (z - (1.0 - t) * xg[-1]) / t)
    x_hi = np.minimum(xf[-1], (z - (1.0 - t) * xg[0]) / t)

    def obj(zz, x):
        return t * lf.linear(x) + (1.0 - t) * lg.linear((zz - t * x) / (1.0 - t))

    return _ternary_max(obj, z, x_lo, x_hi, iters=60)


def pl_objective(lf, lg, t, z, x):
    """The piecewise-linear objective with a feasibility tolerance of 1e-7
    cells on both supports (-inf beyond it), so that points the merge puts on
    a support end by rounding still evaluate there."""
    xf, yf = _support_nodes(lf)
    xg, yg = _support_nodes(lg)
    y = (z - t * x) / (1.0 - t)
    ok = ((x >= xf[0] - 1e-7 * lf.dx) & (x <= xf[-1] + 1e-7 * lf.dx)
          & (y >= xg[0] - 1e-7 * lg.dx) & (y <= xg[-1] + 1e-7 * lg.dx))
    val = t * np.interp(x, xf, yf) + (1.0 - t) * np.interp(y, xg, yg)
    return np.where(ok, val, -np.inf)


def vertex_oracle(lf, lg, t, z):
    """Max of the piecewise-linear objective over its breakpoints: every
    f-node x and every x that puts y on a g-node.  For concave log data the
    maximum sits at one of them."""
    xf, _ = _support_nodes(lf)
    xg, _ = _support_nodes(lg)
    zz = z[:, None]
    at_f = pl_objective(lf, lg, t, zz, xf[None, :])
    at_g = pl_objective(lf, lg, t, zz, (zz - (1.0 - t) * xg[None, :]) / t)
    return np.maximum(np.max(at_f, axis=1), np.max(at_g, axis=1))


def concave_density(rng, kind, x0, dx, n):
    """A log-concave density on n nodes whose support starts anywhere."""
    if kind == "kinked":
        return random_log_concave(rng, x0, x0 + dx * (n - 1), n)
    size = {"one_node": 1, "two_node": 2}.get(kind, int(rng.integers(3, n + 1)))
    start = int(rng.integers(0, n - size + 1))
    u = np.linspace(-1.0, 1.0, size) if size > 1 else np.zeros(1)
    if kind == "smooth":
        logv = -rng.uniform(0.5, 20.0) * (u - rng.uniform(-0.5, 0.5)) ** 2
    elif kind == "plateau":
        a, b = np.sort(rng.uniform(-1.0, 1.0, 2))
        logv = np.minimum(0.0, np.minimum(rng.uniform(0.0, 30.0) * (u - a),
                                          rng.uniform(0.0, 30.0) * (b - u)))
    else:  # uniform, one_node, two_node
        logv = np.zeros(size) if kind == "uniform" else rng.uniform(-3.0, 0.0, size)
    vals = np.zeros(n)
    vals[start : start + size] = np.exp(logv)
    return GridFunction(x0, dx, vals)


@st.composite
def merge_cases(draw):
    """(lf, lg, t, z): smooth, kinked, plateau, uniform, one-node and
    two-node supports placed anywhere on grids of equal or different dx,
    t in [0.001, 0.999]; z covers the chain from end to end, both ends
    exactly and one representable step beyond each."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["smooth", "kinked", "plateau", "uniform", "one_node", "two_node"]
    dx = float(rng.uniform(0.01, 0.2))
    ratio = draw(st.sampled_from([1.0, 0.5, 1.7, float(rng.uniform(0.3, 3.0))]))
    f = concave_density(rng, draw(st.sampled_from(kinds)), float(rng.normal(0.0, 3.0)), dx,
                        draw(st.integers(3, 120)))
    g = concave_density(rng, draw(st.sampled_from(kinds)), float(rng.normal(0.0, 3.0)),
                        dx * ratio, draw(st.integers(3, 120)))
    t = draw(st.one_of(st.sampled_from([0.001, 0.5, 0.999]), st.floats(0.001, 0.999)))
    lf, lg = _log_interp(f), _log_interp(g)
    xf, _ = _support_nodes(lf)
    xg, _ = _support_nodes(lg)
    lo = t * xf[0] + (1.0 - t) * xg[0]
    hi = t * xf[-1] + (1.0 - t) * xg[-1]
    z = np.concatenate([[np.nextafter(lo, -np.inf), lo, hi, np.nextafter(hi, np.inf)],
                        np.linspace(lo, hi, 150)])
    return lf, lg, t, z


@given(merge_cases())
@settings(max_examples=300, deadline=None)
def test_merge_matches_reference_and_oracle(case):
    lf, lg, t, z = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, v = _merge_max(lf, lg, t, z)
        _, v_ref = ternary_stage1(lf, lg, t, z)
        oracle = vertex_oracle(lf, lg, t, z)
        at_xs = pl_objective(lf, lg, t, z, xs)
        _, v_swap = _merge_max(lg, lf, 1.0 - t, z)
    # evaluating the objective at all rounds y = (z - t*x)/(1-t) by ~eps*|z|
    # relative to the slopes, whichever way t is extreme
    xf, yf = _support_nodes(lf)
    xg, yg = _support_nodes(lg)
    steepest = max(np.max(np.abs(np.diff(yf)), initial=0.0) / lf.dx,
                   np.max(np.abs(np.diff(yg)), initial=0.0) / lg.dx)
    reach = np.max(np.abs(z)) + np.max(np.abs(xf)) + np.max(np.abs(xg))
    slack = 1e-12 * (1.0 + np.abs(v)) + 4.0 * np.finfo(float).eps * reach * steepest
    assert np.all(np.isfinite(v))
    assert np.all(v >= v_ref - slack)
    assert np.all(np.abs(v - oracle) <= slack)
    assert np.all(np.abs(at_xs - v) <= slack)
    assert np.all(np.abs(v_swap - v) <= slack)


def test_merge_equal_slopes_inverted_by_round_off():
    # two exponentials of one rate: every f-edge ties with every g-edge up
    # to round-off, which also inverts consecutive slopes within each list
    f = exponential(1.5, -1.0, 9.0, 2001)
    g = exponential(1.5, -2.0, 8.0, 1601)
    lf, lg = _log_interp(f), _log_interp(g)
    xf, yf = _support_nodes(lf)
    xg, _ = _support_nodes(lg)
    assert np.any(np.diff(np.diff(yf)) > 0.0)
    t = 0.4
    z = np.linspace(t * xf[0] + (1.0 - t) * xg[0], t * xf[-1] + (1.0 - t) * xg[-1], 150)
    _, v = _merge_max(lf, lg, t, z)
    assert np.max(np.abs(v - vertex_oracle(lf, lg, t, z))) <= 1e-12 * (1.0 + np.max(np.abs(v)))


def test_merge_two_node_support_attains_peak():
    # the peak 1 of both densities sits on a node pair, which the merge
    # attains exactly
    f = GridFunction(0.0, 0.5, [1.0, 0.5])
    g = gaussian(0.0, 1.0, -4.0, 4.0, 801)
    g = g.with_values(g.values / np.max(g.values))
    h = sup_convolution(f, g, 0.3).h
    assert np.max(h.values) == 1.0


@pytest.mark.parametrize("t", [0.001, 0.3, 0.99])
def test_one_node_support_is_a_shifted_power(t):
    # with f a single node at x0, h_t(z) = f(x0)^t * g((z - t*x0)/(1-t))^(1-t)
    # in either argument order (y must then hit the node of the second one),
    # on every cell of h, the end cells included
    vals = np.zeros(40)
    vals[13] = 0.8
    f = GridFunction(-1.0, 0.1, vals)
    g = gaussian(0.5, 1.0, -6.0, 6.0, 1201)
    x0 = -1.0 + 13 * 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = [sup_convolution(f, g, t).h, sup_convolution(g, f, 1.0 - t).h]
    for h in pairs:
        # h spans t*x0 + (1-t)*[-6, 6], so y leaves g's grid by rounding only
        y = (h.centers - t * x0) / (1.0 - t)
        assert np.all(np.abs(np.clip(y, -6.0, 6.0) - y) <= 1e-12)
        expected = 0.8 ** t * g.evaluate(np.clip(y, -6.0, 6.0)) ** (1.0 - t)
        assert np.all(h.values > 0.0)
        # linear interpolation of g against the log-quadratic refinement
        assert np.max(np.abs(h.values - expected)) <= 1e-4 * np.max(expected)
    # a one-node pair a, b: h is f(a)^t * g(b)^(1-t) on the first of the two
    # cells the output grid always has, and 0 on the second
    f = GridFunction(1.0, 1.0, [0.0, 0.6, 0.0])
    g = GridFunction(-2.7, 0.5, [0.9, 0.0, 0.0])
    for h in (sup_convolution(f, g, t).h, sup_convolution(g, f, 1.0 - t).h):
        assert h.n == 2
        assert h.values[0] == pytest.approx(0.6 ** t * 0.9 ** (1.0 - t), rel=1e-14)
        assert h.values[1] == 0.0


# ---------------------------------------------------------------------------
# stage 2: the ternary search's stacked probes


def two_call_ternary_max(obj, z, lo, hi, iters):
    """Reference for _ternary_max: one objective call per probe, every
    intermediate a fresh array, as the search ran before its probes were
    stacked."""
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(iters):
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        v1 = obj(z, m1)
        v2 = obj(z, m2)
        move_lo = v1 < v2
        lo = np.where(move_lo, m1, lo)
        hi = np.where(move_lo, hi, m2)
    xs = 0.5 * (lo + hi)
    return xs, obj(z, xs)


def stage2_density(rng, kind, x0, dx, n):
    xs = x0 + dx * np.arange(n)
    if kind == "kinked" and n >= 3:
        return random_log_concave(rng, x0, xs[-1], n)
    u = np.linspace(-1.0, 1.0, n)
    vals = np.exp(-rng.uniform(0.5, 20.0) * (u - rng.uniform(-0.5, 0.5)) ** 2)
    if kind == "zeros":
        vals[rng.random(n) < 0.2] = 0.0
        if not np.any(vals > 0):
            vals[n // 2] = 1.0
    return GridFunction(x0, dx, vals)


@st.composite
def stage2_cases(draw):
    """(f, g, t, z, lo, hi): smooth, kinked and zero-cell densities (the
    zeros send queries to the linear fallback) on 2 to ~5000 nodes whose
    supports reach both grid ends, dx of f and g equal or not; z spans the
    output range like sup_convolution's grid; the bracket is each cell's
    feasible window, that window cut to a random cell around a random point,
    or the window widened by a cell past both ends of the grids."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["smooth", "kinked", "zeros"]
    sizes = st.one_of(st.integers(2, 8), st.integers(9, 5000))
    dx = float(rng.uniform(0.002, 0.2))
    ratio = draw(st.sampled_from([1.0, 0.5, float(rng.uniform(0.3, 3.0))]))
    f = stage2_density(rng, draw(st.sampled_from(kinds)), float(rng.normal(0.0, 3.0)), dx,
                       draw(sizes))
    g = stage2_density(rng, draw(st.sampled_from(kinds)), draw(st.sampled_from([0.0, 1.5])),
                       dx * ratio, draw(sizes))
    t = draw(st.sampled_from([1e-3, 0.3, 0.5, 0.97]))
    af, bf = f.x0, f.x0 + (f.n - 1) * f.dx
    ag, bg = g.x0, g.x0 + (g.n - 1) * g.dx
    z = np.linspace(t * af + (1.0 - t) * ag, t * bf + (1.0 - t) * bg, draw(st.integers(2, 400)))
    lo = np.maximum(af, (z - (1.0 - t) * bg) / t)
    hi = np.minimum(bf, (z - (1.0 - t) * ag) / t)
    bracket = draw(st.sampled_from(["window", "cell", "widened"]))
    if bracket == "cell":
        w = max(f.dx, g.dx * (1.0 - t) / t)
        mid = lo + rng.random(z.size) * (hi - lo)
        lo, hi = np.maximum(lo, mid - w), np.minimum(hi, mid + w)
    elif bracket == "widened":
        lo, hi = lo - f.dx, hi + f.dx
    return f, g, t, z, lo, hi


@given(stage2_cases())
@settings(max_examples=120, deadline=None)
def test_stage2_stacked_probes_match_two_call_loop(case):
    f, g, t, z, lo, hi = case
    lf, lg = _log_interp(f), _log_interp(g)
    # the reference interpolates with ReferenceLogInterp where it applies (it
    # reads logv[-1] on two nodes, where _LogInterp stands in)
    rf, rg = (reference_interp(d) if d.n >= 3 else _log_interp(d) for d in (f, g))

    def objective(zz, x):
        # the direct objective of sup_convolution's ternary search
        return t * lf.quadratic(x) + (1.0 - t) * lg.quadratic((zz - t * x) / (1.0 - t))

    def two_call_objective(zz, x):
        return t * rf.quadratic(x) + (1.0 - t) * rg.quadratic((zz - t * x) / (1.0 - t))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, v = _ternary_max(objective, z, lo, hi, 45)
        x_ref, v_ref = two_call_ternary_max(two_call_objective, z, lo, hi, 45)
    assert_bits_equal(x, x_ref)
    assert_bits_equal(v, v_ref)


def test_odd_bump_peak_is_the_searched_maximum():
    # the counterexample bump's stored peak is what 200 ternary steps on a
    # one-element bracket give for max x*(1-x^2)^3 on [0, 1]
    _, peak = _ternary_max(lambda z, x: x * (1.0 - x * x) ** 3, None, np.zeros(1), np.ones(1), 200)
    assert peak[0] == _ODD_BUMP_PEAK
    assert _ODD_BUMP_PEAK.hex() == "0x1.e77636ba60638p-3"


# ---------------------------------------------------------------------------
# stage 2: the exact maximum of the piecewise-quadratic model


def ternary_stage2(f, g, t):
    """Stage 2 as it ran before the piecewise enumeration, in place of
    ``_exact_max``: 45 ternary steps over each window, one objective call per
    probe through ReferenceLogInterp (``_LogInterp`` on two nodes)."""
    rf, rg = (reference_interp(d) if d.n >= 3 else _log_interp(d) for d in (f, g))

    def objective(zz, x):
        return t * rf.quadratic(x) + (1.0 - t) * rg.quadratic((zz - t * x) / (1.0 - t))

    def stage2(lf, lg, t_, z, lo, hi):
        return two_call_ternary_max(objective, z, lo, hi, 45)[1]

    return stage2


def ternary_sup_convolution(f, g, t):
    """sup_convolution with every call's stage 2 the ternary search of
    ``ternary_stage2``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plstab.supconv, "_EXACT_MAX_BREAKPOINTS", math.inf)
        patch.setattr(plstab.supconv, "_exact_max", ternary_stage2(f, g, t))
        return sup_convolution(f, g, t)


def recorded_sup_convolution(f, g, t):
    """sup_convolution plus the (z, lo, hi, v) of its piecewise stage 2, or
    None when the call took the ternary search."""
    calls = []
    exact = plstab.supconv._exact_max

    def recording(lf, lg, t_, z, lo, hi):
        v = exact(lf, lg, t_, z, lo, hi)
        calls.append((z, lo, hi, v))
        return v

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plstab.supconv, "_exact_max", recording)
        res = sup_convolution(f, g, t)
    return res, (calls[0] if calls else None)


def scan_stage2_model(f, g, t, z, lo, hi, points=2000):
    """Max of the model over the midpoints of ``points`` equal parts of each
    window [lo, max(lo, hi)].  The model's value on a node beside a zero cell
    is an isolated point (its linear cells are -inf inside), which no piece
    holds; an even count keeps the scan off the window's ends and centre,
    the stage-1 point, which is often such a node."""
    lf, lg = _log_interp(f), _log_interp(g)
    hi = np.maximum(lo, hi)
    frac = (np.arange(points) + 0.5) / points
    best = np.empty(z.size)
    for start in range(0, z.size, 64):
        rows = slice(start, start + 64)
        x = lo[rows, None] + (hi - lo)[rows, None] * frac
        y = (z[rows, None] - t * x) / (1.0 - t)
        best[rows] = np.max(t * lf.quadratic(x) + (1.0 - t) * lg.quadratic(y), axis=1)
    return best


@st.composite
def exact_stage2_cases(draw):
    """(f, g, t): smooth, kinked, bimodal and zero-cell densities on 3 to 300
    nodes, dx of f and g equal or not, t at the ends of the enumerated range,
    beyond it and anywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dx = float(rng.uniform(0.01, 0.2))
    ratio = draw(st.sampled_from([1.0, 0.5, float(rng.uniform(0.3, 3.0))]))
    dens = []
    for x0, step in ((float(rng.normal(0.0, 3.0)), dx), (draw(st.sampled_from([0.0, 1.5])), dx * ratio)):
        kind = draw(st.sampled_from(["smooth", "kinked", "bimodal", "zeros"]))
        n = draw(st.integers(3, 300))
        if kind == "bimodal":
            dens.append(scan_density(rng, "bimodal", x0, step, n))
        else:
            dens.append(stage2_density(rng, kind, x0, step, n))
    t = draw(st.one_of(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.97]), st.floats(0.01, 0.99)))
    return dens[0], dens[1], t


@given(exact_stage2_cases())
@settings(max_examples=60, deadline=None)
def test_exact_stage2_dominates_ternary_and_scan(case):
    f, g, t = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, stage2 = recorded_sup_convolution(f, g, t)
        ref = ternary_sup_convolution(f, g, t)
    if stage2 is None:
        # windows wider than the enumeration's limit keep the ternary search
        assert not plstab.supconv._enumerates(t, f.dx, g.dx)
        assert_bits_equal(res.h.values, ref.h.values)
        return
    with np.errstate(divide="ignore"):
        log_h, log_ref = np.log(res.h.values), np.log(ref.h.values)
    # no cell of h below the ternary's, in log
    hit = ref.h.values > 0.0
    assert np.all(log_h[hit] >= log_ref[hit] - 1e-12)
    # every cell reaches the model's maximum over a dense scan of its window
    z, lo, hi, _ = stage2
    scan = scan_stage2_model(f, g, t, z, lo, hi)
    finite = np.isfinite(scan)
    assert np.all(log_h[finite] >= scan[finite] - 1e-12)


def test_exact_stage2_rule_is_symmetric():
    # on equal grids the window holds 8 + floor(4*rho) breakpoints, rho =
    # max(t, 1-t)/min(t, 1-t): 30 at t = 0.15 (enumerated), 32 at t = 0.14;
    # the rule reads (t, dx_f, dx_g) only and agrees for (g, f, 1 - t)
    rule = plstab.supconv._enumerates
    assert plstab.supconv._EXACT_MAX_BREAKPOINTS == 30
    assert rule(0.5, 0.01, 0.01) and rule(0.15, 0.01, 0.01) and rule(0.85, 0.01, 0.01)
    assert not rule(0.14, 0.01, 0.01) and not rule(0.001, 0.01, 0.01)
    # unequal grids: what counts is t*dx_f against (1-t)*dx_g
    assert rule(0.05, 0.2, 0.01) and not rule(0.05, 0.01, 0.01)
    rng = np.random.default_rng(5)
    for t, dx_f, dx_g in zip(rng.uniform(0.001, 0.999, 500), rng.uniform(0.001, 1.0, 500),
                             rng.uniform(0.001, 1.0, 500)):
        assert rule(t, dx_f, dx_g) == rule(1.0 - t, dx_g, dx_f)


def test_counterexample_at_extreme_t_keeps_the_ternary(monkeypatch, capsys):
    # K ~ 4000 at t = 0.001: enumerating the pieces would cost seconds
    from plstab import cli

    def fail(*args):
        raise AssertionError("piecewise stage 2 at t = 0.001")

    calls = []
    ternary = plstab.supconv._ternary_max

    def counting(*args, **kwargs):
        calls.append(1)
        return ternary(*args, **kwargs)

    monkeypatch.setattr(plstab.supconv, "_exact_max", fail)
    monkeypatch.setattr(plstab.supconv, "_ternary_max", counting)
    assert cli.main(["counterexample", "--t", "0.001", "--n", "4096", "--delta", "0.05"]) == 0
    assert calls


def swap_gap(f, g, t):
    eps = pl_deficit(sup_convolution(f, g, t).h, f, g, t)
    eps_swap = pl_deficit(sup_convolution(g, f, 1.0 - t).h, g, f, 1.0 - t)
    return abs(eps - eps_swap)


@pytest.mark.parametrize("t", [0.3, 0.5])
def test_swap_symmetry_smooth_family(t):
    res = counterexample_family(CounterexampleConfig(delta=0.05, t=t, grid_n=2048))
    assert swap_gap(res.f, res.g, t) <= 1e-12


@pytest.mark.parametrize("n", [1024, 2048, 4096])
def test_swap_symmetry_kinked_first_order(n):
    # the gap was 3.27e-5*dx (5.1e-7, 2.6e-7, 1.3e-7 at these n) while the
    # empty-window test had no rounding slack: the last cell of h_t(f, g),
    # 3.27e-5 high, came out 0 and its swap kept it; the gap is round-off now
    # (test_swap_symmetry_kinked_round_off), this bound is the first-order one
    f, g = random_log_concave_pair(19, n=n)
    assert swap_gap(f, g, 0.3) <= 5e-5 * f.dx


def test_swap_symmetry_kinked_round_off():
    f, g = random_log_concave_pair(19, n=1024)
    assert swap_gap(f, g, 0.3) <= 1e-12


def test_integral_curve_endpoints_and_concavity():
    f, g = random_log_concave_pair(7, n=2048)
    curve = integral_curve(f, g, [0.002, 0.02, 0.25, 0.5, 0.75, 0.98, 0.998])
    masses = [m for _, m in curve]
    # endpoints approach mass(g) as t -> 0 and mass(f) as t -> 1
    assert abs(masses[0] - mass(g)) < abs(masses[1] - mass(g))
    assert masses[0] == pytest.approx(mass(g), abs=0.05)
    assert abs(masses[-1] - mass(f)) < abs(masses[-2] - mass(f))
    assert masses[-1] == pytest.approx(mass(f), abs=0.05)
    lm = np.log(masses[2:-2])
    assert lm[0] - 2 * lm[1] + lm[2] <= 1e-3


def test_integral_curve_equal_inputs(gauss_pi):
    curve = integral_curve(gauss_pi, gauss_pi, [0.25, 0.5, 0.75])
    for _, m in curve:
        assert m == pytest.approx(1.0, abs=1e-4)


def test_integral_curve_validation(gauss_pi):
    with pytest.raises(DomainError):
        integral_curve(gauss_pi, gauss_pi, [0.5, 0.2])
    with pytest.raises(DomainError):
        integral_curve(gauss_pi, gauss_pi, [0.0, 0.5])


def test_midpoint_interpolant_identity(gauss_pi):
    w = midpoint_interpolant(gauss_pi, gauss_pi)
    assert l1_distance(w, gauss_pi) <= 1e-3


def test_midpoint_interpolant_uniform(uniform_pair):
    f, g = uniform_pair
    w = midpoint_interpolant(f, g)
    target = GridFunction(
        f.x0, f.dx, np.where((f.centers > 0) & (f.centers < 1.5), 1.0 / math.sqrt(2.0), 0.0)
    )
    assert l1_distance(w, target) <= 2e-3


def test_midpoint_interpolant_dominated(uniform_pair):
    f, g = uniform_pair
    w = midpoint_interpolant(f, g)
    h = sup_convolution(f, g, 0.5).h
    assert mass(w) <= mass(h) + 1e-6
    # pointwise domination up to one cell of interpolation slack
    zs = w.centers
    assert np.all(w.values <= h.evaluate(zs) + h.evaluate(zs - w.dx) + h.evaluate(zs + w.dx) + 1e-9)


def test_midpoint_chain_inequality():
    for seed in range(6):
        f, g = random_log_concave_pair(seed, n=1024)
        w = midpoint_interpolant(f, g)
        assert mass(w) >= 1.0 - midpoint_deficit(f, g) - 5e-3


def test_gaussian_variance_pair_cross_check():
    f = gaussian(0.0, 1.0, -9.0, 9.0, 8192)
    g = gaussian(0.0, 1.1, -9.0, 9.0, 8192)
    eps = pl_deficit(sup_convolution(f, g, 0.5).h, f, g, 0.5)
    # oracle: Gaussian sup-convolutions interpolate variances linearly,
    # mass(h_t) = sigma_t / (sigma_f^t sigma_g^(1-t)), sigma_t^2 = t sf^2 + (1-t) sg^2
    sigma_t = math.sqrt(0.5 * 1.0 ** 2 + 0.5 * 1.1 ** 2)
    expected = sigma_t / (1.0 ** 0.5 * 1.1 ** 0.5) - 1.0
    assert eps == pytest.approx(expected, abs=1e-5)
