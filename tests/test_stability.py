import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plstab import (
    CounterexampleConfig,
    DomainError,
    GridFunction,
    aligned_l1_distance,
    counterexample_family,
    exponent_fit,
    full_deficit_report,
    general_lambda_reduction,
    l1_distance,
    mass,
    normalize,
    pl_deficit,
    radial_counterexample_family,
    scale_amplitude,
    stability_distance,
    sup_convolution,
    translate,
)
import plstab.grids
import plstab.stability
from plstab.densities import gaussian, standard_gaussian_pi
from plstab.stability import (
    ReductionCheckError,
    _best_amplitude,
    _lipschitz_scan,
    _median_amplitude,
    near_equality_pair,
    random_log_concave,
    random_log_concave_pair,
    tau_scaling_probe,
)

from conftest import normal_cdf


# ---------------------------------------------------------------------------
# aligned distances


def test_aligned_identity(gauss_pi):
    d, s, a = aligned_l1_distance(gauss_pi, gauss_pi)
    assert d <= 1e-9 and abs(s) <= gauss_pi.dx / 4 and a == 1.0


def test_aligned_pure_shift(gauss_pi):
    u = translate(gauss_pi, 3.0)
    d, s, a = aligned_l1_distance(u, gauss_pi)
    assert d <= 1e-6
    assert s == pytest.approx(3.0, abs=gauss_pi.dx)
    assert a == 1.0


def test_aligned_variance_pair_quadrature_oracle():
    # oracle: N(0,1) vs N(0,1.2^2) cross at x* with x*^2 = log(1.44)/(1/2 - 1/2.88),
    # distance = 4*(Phi(x*) - Phi(x*/1.2)), evaluated by the normal CDF
    u = gaussian(0.0, 1.0, -10.0, 10.0, 8192)
    v = gaussian(0.0, 1.2, -10.0, 10.0, 8192)
    xstar = math.sqrt(math.log(1.2) / (0.5 - 1.0 / 2.88))
    expected = 4.0 * (normal_cdf(xstar) - normal_cdf(xstar / 1.2))
    d, s, a = aligned_l1_distance(u, v)
    assert a == 1.0
    assert abs(s) <= 4 * u.dx
    assert d == pytest.approx(expected, abs=2e-3)


def test_aligned_scale_recovers_amplitude(gauss_pi):
    u = scale_amplitude(gauss_pi, 1.4)
    d, s, a = aligned_l1_distance(u, gauss_pi, optimize_scale=True)
    assert d <= 1e-6
    assert a == pytest.approx(1.4, rel=1e-3)


def flat_scan_aligned_l1_distance(u, v, optimize_scale=False):
    """Reference for aligned_l1_distance: the same search with every lattice
    point of the coarse shift scan evaluated."""
    dx = min(u.dx, v.dx)
    ratio = mass(u) / mass(v)

    def dist(s, a):
        w = translate(v, s)
        if a != 1.0:
            w = scale_amplitude(w, a)
        return l1_distance(u, w)

    best = {"d": math.inf, "s": 0.0, "a": 1.0}

    def probe(s, a):
        d = dist(s, a)
        if d < best["d"]:
            best.update(d=d, s=s, a=a)
        return d

    a_cur = ratio if optimize_scale else 1.0
    span = 0.5 * ((u.n - 1) * u.dx + (v.n - 1) * v.dx)
    center = (u.x0 + 0.5 * (u.n - 1) * u.dx) - (v.x0 + 0.5 * (v.n - 1) * v.dx)
    shifts = center + np.arange(-span, span + 2 * dx, 4.0 * dx)
    vals = [probe(float(s), a_cur) for s in shifts]
    s_cur = float(shifts[int(np.argmin(vals))])
    probe(0.0, a_cur)
    probe(center, a_cur)

    def refine_shift(s0, a):
        lo, hi = s0 - 4.0 * dx, s0 + 4.0 * dx
        while hi - lo > dx / 4.0:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if probe(m1, a) < probe(m2, a):
                hi = m2
            else:
                lo = m1
        return 0.5 * (lo + hi)

    def snap(s, a):
        for step in (dx, 0.5 * dx):
            probe(round(s / step) * step, a)

    s_cur = refine_shift(s_cur, a_cur)
    snap(s_cur, a_cur)
    if optimize_scale:
        for _ in range(2):
            a_cur = _best_amplitude(u, translate(v, s_cur), 0.5 * ratio, 2.0 * ratio)
            probe(s_cur, a_cur)
            s_cur = refine_shift(s_cur, a_cur)
        snap(s_cur, a_cur)
    probe(s_cur, a_cur)
    if optimize_scale:
        # the shift has moved since the last amplitude step: make the amplitude exact at the best shift
        s_best = best["s"]
        probe(s_best, _best_amplitude(u, translate(v, s_best), 0.5 * ratio, 2.0 * ratio))
    return best["d"], best["s"], best["a"]


def bimodal(rng, n, lo=-8.0, hi=8.0):
    dx = (hi - lo) / (n - 1)
    xs = lo + dx * np.arange(n)
    sep, s1, s2, w = rng.uniform(2.0, 5.0), rng.uniform(0.4, 1.0), rng.uniform(0.4, 1.0), rng.uniform(0.2, 0.8)
    vals = w * np.exp(-0.5 * ((xs + sep / 2) / s1) ** 2) + (1 - w) * np.exp(-0.5 * ((xs - sep / 2) / s2) ** 2)
    return normalize(GridFunction(lo, dx, vals))


@st.composite
def aligned_pairs(draw):
    """(u, v) pairs: log-concave, bimodal, shifted and rescaled copies (some on
    u's own grid, where l1_distance takes its rectangle-sum branch), pairs
    on grids of different dx, and rough pairs whose values stay far from 0 up
    to the grid ends, where the interpolants jump."""
    kind = draw(st.sampled_from(["log_concave", "bimodal", "copy", "mixed_dx", "rough"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(96, 400))
    if kind == "rough":
        m = draw(st.integers(96, 400))
        dx = 6.0 / (n - 1)
        v_dx = dx if draw(st.booleans()) else 5.0 / (m - 1)
        return GridFunction(-3.0, dx, rng.uniform(0.2, 1.0, n)), GridFunction(-2.5, v_dx, rng.uniform(0.2, 1.0, m))
    if kind == "log_concave":
        return random_log_concave_pair(rng, n=n)
    if kind == "bimodal":
        return bimodal(rng, n), bimodal(rng, n)
    if kind == "copy":
        v = bimodal(rng, n) if rng.random() < 0.5 else random_log_concave(rng, n=n)
        cells = draw(st.sampled_from([0.0, 4.0, 1.5, float(rng.uniform(-40.0, 40.0))]))
        return scale_amplitude(translate(v, cells * v.dx), float(rng.uniform(0.5, 2.0))), v
    m = draw(st.integers(96, 400))
    return random_log_concave(rng, n=n), bimodal(rng, m, lo=-6.0, hi=7.0)


@given(aligned_pairs(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_aligned_pruned_scan_matches_flat_scan(pair, optimize_scale):
    u, v = pair
    d, s, a = aligned_l1_distance(u, v, optimize_scale)
    assert (d, s, a) == flat_scan_aligned_l1_distance(u, v, optimize_scale)
    if optimize_scale:  # the amplitude is the best one at the reported shift
        w = translate(v, s)
        ratio = mass(u) / mass(v)
        grid = min(l1_distance(u, scale_amplitude(w, b)) for b in np.linspace(0.5 * ratio, 2.0 * ratio, 201))
        assert d <= grid + 1e-12 * (mass(u) + a * mass(v))


@given(aligned_pairs(), st.just(0.0) | st.sampled_from([0.5, 1.0]) | st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_best_amplitude_beats_a_dense_grid(pair, cells):
    # shift 0 keeps most pairs on u's grid, where the distance is the rectangle sum
    u, v = pair
    w = translate(v, cells * v.dx)
    ratio = mass(u) / mass(w)
    a = _best_amplitude(u, w, 0.5 * ratio, 2.0 * ratio)
    assert 0.5 * ratio <= a <= 2.0 * ratio
    best = l1_distance(u, scale_amplitude(w, a))
    grid = min(l1_distance(u, scale_amplitude(w, b)) for b in np.linspace(0.5 * ratio, 2.0 * ratio, 401))
    assert best <= grid + 1e-12 * (mass(u) + a * mass(w))


@st.composite
def amplitude_problems(draw):
    """(g, f, c, lo, hi): g >= 0, f >= 0 with zero cells and at least one
    positive one, cell weights c > 0 and a bracket 0 < lo < hi."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = np.where(rng.random(n) < draw(st.floats(0.0, 0.5)), 0.0, rng.uniform(1e-3, 10.0, n))
    f[rng.integers(n)] = rng.uniform(1e-3, 10.0)
    g = rng.uniform(0.0, 10.0, n)
    if draw(st.booleans()):  # g near a multiple of f, so the median falls inside the bracket
        g = np.abs(rng.uniform(0.5, 2.0) * f + rng.normal(0.0, 0.1, n))
    c = rng.uniform(1e-3, 10.0, n)
    lo = draw(st.floats(1e-3, 5.0))
    return g, f, c, lo, lo * (1.0 + draw(st.floats(1e-3, 10.0)))


@given(amplitude_problems())
@settings(max_examples=200, deadline=None)
def test_median_amplitude_is_the_exact_minimiser(problem):
    g, f, c, lo, hi = problem
    a = _median_amplitude(g, f, lo, hi, c)
    assert lo <= a <= hi
    grid = np.linspace(lo, hi, 2001)
    dense = float(np.min(np.sum(c * np.abs(g - grid[:, None] * f), axis=1)))
    assert np.sum(c * np.abs(g - a * f)) <= dense + 1e-12 * (np.sum(c * g) + hi * np.sum(c * f))


def _identical_grid_branch(u: GridFunction, w: GridFunction, lo: float, hi: float) -> float:
    # the identical-grid branch of _best_amplitude as it stood before _median_amplitude
    pos = w.values > 0
    ratios = u.values[pos] / w.values[pos]
    order = np.argsort(ratios, kind="stable")
    weight = np.cumsum(w.values[pos][order])
    median = float(ratios[order][np.searchsorted(weight, 0.5 * weight[-1])])
    return min(max(median, lo), hi)


@given(amplitude_problems(), st.floats(-5.0, 5.0), st.floats(1e-3, 1.0))
@settings(max_examples=200, deadline=None)
def test_best_amplitude_on_identical_grids_keeps_its_bits(problem, x0, dx):
    g, f, _, lo, hi = problem
    u, w = GridFunction(x0, dx, g), GridFunction(x0, dx, f)
    assert _best_amplitude(u, w, lo, hi).hex() == _identical_grid_branch(u, w, lo, hi).hex()


@pytest.mark.parametrize("exact_value, minimiser", [(-5.0, 777), (100.0, 779)])
def test_lipschitz_scan_evaluates_exact_points(exact_value, minimiser):
    # |i - 779| is 1-Lipschitz; index 777 breaks the bound, as a rectangle-sum
    # lattice point may: it must be evaluated, and must not bound its gaps
    xs = np.arange(1000.0)
    exact = xs == 777

    def fn(i):
        return exact_value if exact[i] else abs(i - 779.0)

    vals = _lipschitz_scan(fn, xs, 1.0, 1e-9, exact)
    assert min(vals, key=lambda i: (vals[i], i)) == minimiser
    assert len(vals) < 100


def test_aligned_pruned_scan_on_rectangle_branch_point(gauss_pi):
    # n = 4097 puts shift 0 on the lattice, where u's own grid takes the rectangle sum
    for opt in (False, True):
        expected = flat_scan_aligned_l1_distance(gauss_pi, gauss_pi, opt)
        assert aligned_l1_distance(gauss_pi, gauss_pi, opt) == expected


def test_aligned_probe_count_on_counterexample(monkeypatch):
    res = counterexample_family(CounterexampleConfig(delta=0.01, t=0.5, grid_n=4096))
    calls = []

    def counting(f, g):
        calls.append(1)
        return l1_distance(f, g)

    monkeypatch.setattr(plstab.stability, "l1_distance", counting)
    aligned_l1_distance(res.g, res.f)
    assert len(calls) < 200


# ---------------------------------------------------------------------------
# stability distances


def equality_triple(lam, shift, amp, n=4096):
    h = standard_gaussian_pi(-8.0, 8.0, n)
    u = (1.0 - lam) * shift
    w = -lam * shift
    f = scale_amplitude(translate(h, u), amp ** -(1.0 - lam))
    g = scale_amplitude(translate(h, w), amp ** lam)
    return f, g, h


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
def test_stability_distance_equality_family(lam):
    f, g, h = equality_triple(lam, shift=0.8, amp=1.3)
    rep = stability_distance(f, g, h, lam)
    assert abs(rep.epsilon) <= 1e-6
    assert rep.distance_f <= 1e-3
    assert rep.distance_g <= 1e-3
    assert rep.distance_h <= 1e-3
    assert rep.tau == min(lam, 1.0 - lam)


def test_stability_distance_uniform_pair(uniform_pair):
    f, g = uniform_pair
    h = sup_convolution(f, g, 0.5).h
    rep = stability_distance(f, g, h, 0.5)
    eps = rep.epsilon
    bound = 20.0 * math.sqrt(eps / 0.5)
    assert rep.distance_f + rep.distance_g + rep.distance_h <= bound
    assert rep.distance_f >= 0.2  # the pair is genuinely far from common shape


def test_stability_distance_hulled_inputs():
    # non-log-concave f goes through its hull before the witness is built
    xs = np.linspace(-6, 6, 2049)
    f = GridFunction(-6, 12 / 2048, np.exp(-0.5 * xs ** 2) * (1.0 + 0.3 * (np.abs(xs) > 1)))
    g = gaussian(0.0, 1.0, -6.0, 6.0, 2049)
    h = sup_convolution(f, g, 0.5).h
    rep = stability_distance(f, g, h, 0.5)
    assert np.isfinite(rep.distance_f + rep.distance_g + rep.distance_h)


@pytest.mark.parametrize("seed", [0, 9])
def test_stability_fields_stable_under_kernel_round_off(monkeypatch, seed):
    # the two exact L1 kernels agree to round-off; the reported shift, scale and
    # distances must not amplify that into a visible difference
    rng = np.random.default_rng(seed)
    f, g = bimodal(rng, 512), bimodal(rng, 512)
    h = sup_convolution(f, g, 0.35).h
    equal_spacing = stability_distance(f, g, h, 0.35)
    monkeypatch.setattr(plstab.grids, "_l1_equal_spacing", plstab.grids._l1_merged)
    merged = stability_distance(f, g, h, 0.35)
    for field in ("distance_f", "distance_g", "distance_h", "shift", "scale"):
        assert getattr(merged, field) == pytest.approx(getattr(equal_spacing, field), rel=1e-12, abs=0.0)


def test_stability_report_constant_near_equality():
    worst = 0.0
    for seed, lam in ((1, 0.25), (2, 0.5), (3, 0.1)):
        f, g = near_equality_pair(seed, 0.05)
        h = sup_convolution(f, g, lam).h
        rep = stability_distance(f, g, h, lam)
        eps = max(rep.epsilon, 1e-12)
        worst = max(
            worst,
            (rep.distance_f + rep.distance_g + rep.distance_h)
            / math.sqrt(eps / rep.tau),
        )
    assert worst <= 20.0


# ---------------------------------------------------------------------------
# counterexample family


def test_counterexample_zero_delta_limit():
    res = counterexample_family(CounterexampleConfig(delta=1e-6, t=0.5, grid_n=2048))
    assert res.epsilon == pytest.approx(0.0, abs=1e-6)
    assert res.distance == pytest.approx(0.0, abs=1e-5)


def test_counterexample_quadratic_scaling():
    r1 = counterexample_family(CounterexampleConfig(delta=0.05, t=0.5, grid_n=2048))
    r2 = counterexample_family(CounterexampleConfig(delta=0.1, t=0.5, grid_n=2048))
    assert r2.epsilon / r1.epsilon == pytest.approx(4.0, abs=0.3)
    assert r1.distance / 0.05 == pytest.approx(r2.distance / 0.1, rel=0.05)
    assert 0.01 <= r1.distance / 0.05 <= 1.0


def test_counterexample_perturbation_is_mass_neutral():
    res = counterexample_family(CounterexampleConfig(delta=0.1, t=0.5, grid_n=2048))
    assert mass(res.f) == pytest.approx(1.0, abs=1e-12)
    assert mass(res.g) == pytest.approx(1.0, abs=1e-12)


def test_counterexample_rejects_bad_delta():
    with pytest.raises(DomainError):
        CounterexampleConfig(delta=0.6, t=0.5)
    with pytest.raises(DomainError):
        CounterexampleConfig(delta=0.05, t=1.5)


def test_radial_counterexample_zero_delta():
    cfg = CounterexampleConfig(delta=1e-6, t=0.5, grid_n=2048, phi_id="even_radial")
    res = radial_counterexample_family(cfg, 2)
    assert res.epsilon == pytest.approx(0.0, abs=1e-6)
    assert res.distance == pytest.approx(0.0, abs=1e-5)


def test_radial_counterexample_scaling():
    cfg1 = CounterexampleConfig(delta=0.04, t=0.5, grid_n=2048, phi_id="even_radial")
    cfg2 = CounterexampleConfig(delta=0.08, t=0.5, grid_n=2048, phi_id="even_radial")
    r1 = radial_counterexample_family(cfg1, 2)
    r2 = radial_counterexample_family(cfg2, 2)
    assert r2.epsilon / r1.epsilon == pytest.approx(4.0, abs=0.4)


# ---------------------------------------------------------------------------
# exponent fits


def test_exponent_fit_exact_power_law():
    eps = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    pts = [(e, e ** 0.5) for e in eps]
    slope, intercept, r2 = exponent_fit(pts)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_exponent_fit_constant_distances():
    pts = [(e, 2.0) for e in (1e-3, 1e-2, 1e-1)]
    slope, intercept, r2 = exponent_fit(pts)
    assert slope == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "pts",
    [
        [(2.9e-15, 7.2e-14)] * 4,  # equal epsilons: no slope to fit
        [(e, 1e-300) for e in (1e-3, 1e-2, 1e-1)],  # ss_tot = 0 with round-off residuals
    ],
)
def test_exponent_fit_rejects_degenerate_data(pts):
    with pytest.raises(DomainError, match="no spread"):
        exponent_fit(pts)


def test_exponent_fit_validation():
    with pytest.raises(DomainError):
        exponent_fit([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(DomainError):
        exponent_fit([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


# ---------------------------------------------------------------------------
# tau probe and lambda reduction


def test_tau_probe_symmetry_and_consistency():
    rows = tau_scaling_probe([0.3, 0.5, 0.7], delta=0.05, grid_n=2048)
    by_t = {round(r.t, 3): r for r in rows}
    assert by_t[0.3].tau == pytest.approx(by_t[0.7].tau, abs=1e-12)
    assert abs(by_t[0.3].ratio - by_t[0.7].ratio) <= 0.2 * by_t[0.3].ratio
    direct = counterexample_family(CounterexampleConfig(delta=0.05, t=0.5, grid_n=2048))
    assert by_t[0.5].epsilon == pytest.approx(direct.epsilon, rel=1e-12)
    assert by_t[0.5].distance == pytest.approx(direct.distance, rel=1e-12)


def test_general_lambda_reduction_equal_inputs(gauss_pi):
    bound, direct = general_lambda_reduction(gauss_pi, gauss_pi, 0.25)
    assert bound == pytest.approx(0.0, abs=1e-6)
    assert direct == pytest.approx(0.0, abs=1e-6)


def test_general_lambda_reduction_uniform_pair(uniform_pair):
    f, g = uniform_pair
    bound, direct = general_lambda_reduction(f, g, 0.25)
    expected = (3.0 - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))
    assert direct == pytest.approx(expected, abs=1e-3)
    assert direct <= bound + 1e-6


def test_general_lambda_reduction_gaussian_pair():
    f = gaussian(0.0, 1.0, -9.0, 9.0, 4096)
    g = gaussian(0.0, 1.3, -9.0, 9.0, 4096)
    bound, direct = general_lambda_reduction(f, g, 0.1)
    assert direct <= bound + 1e-6


def test_full_deficit_report_fields():
    f, g = random_log_concave_pair(4, n=1024)
    rep = full_deficit_report(f, g, 0.25)
    assert rep.tau == 0.25
    assert rep.epsilon >= rep.transport_deficit * 0.98 - 1e-8
    assert rep.bad_set_measure >= 0.0
    x1, x2 = rep.tail_cut
    assert x1 < x2


# ---------------------------------------------------------------------------
# generators


def test_random_log_concave_is_log_concave():
    from plstab import is_log_concave

    for seed in range(10):
        f = random_log_concave(seed)
        assert is_log_concave(f)[0]
        assert mass(f) == pytest.approx(1.0, rel=1e-9)


def test_generator_determinism():
    a = random_log_concave(123)
    b = random_log_concave(123)
    assert np.array_equal(a.values, b.values)
