import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plstab import (
    DomainError,
    GridFunction,
    PreconditionError,
    interpolation_check,
    is_log_concave,
    level_cut,
    log_concave_hull,
    mass,
    median,
    median_envelope_check,
    normalize,
    nu_envelope_check,
    sup_convolution,
)
from plstab.densities import exponential, gaussian, uniform
from plstab.logconcave import _upper_concave_majorant
from plstab.stability import random_log_concave, random_log_concave_pair
from plstab.transport import cdf


def exponential_witness(n=2 ** 15):
    """psi(x) = (1/2) e^{-x} on x >= -log 2, sampled with the jump on a cell edge."""
    dx = 20.0 / n
    x0 = -math.log(2.0) + 0.5 * dx
    xs = x0 + dx * np.arange(n)
    vals = 0.5 * np.exp(-xs)
    return GridFunction(x0, dx, vals)


def bimodal():
    xs = np.linspace(-6, 6, 2001)
    vals = 0.5 * np.exp(-0.5 * (xs + 3) ** 2) + 0.5 * np.exp(-0.5 * (xs - 3) ** 2)
    return GridFunction(-6.0, 12 / 2000, vals)


# ---------------------------------------------------------------------------
# log-concavity test


def test_gaussian_is_log_concave(gauss_pi):
    ok, idx = is_log_concave(gauss_pi)
    assert ok and idx is None


def test_bimodal_is_not():
    ok, idx = is_log_concave(bimodal())
    assert not ok and idx is not None


def test_indicator_is_log_concave():
    f = uniform(0.0, 1.0, -1.0, 2.0, 300)
    assert is_log_concave(f)[0]


def test_interior_zero_violates():
    vals = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
    ok, idx = is_log_concave(GridFunction(0.0, 1.0, vals))
    assert not ok and idx == 2


# ---------------------------------------------------------------------------
# hulls


def test_hull_identity_on_log_concave(gauss_pi):
    env = log_concave_hull(gauss_pi)
    assert np.max(np.abs(env.hull.values - gauss_pi.values)) <= 1e-10


def test_hull_bridges_bimodal():
    f = bimodal()
    env = log_concave_hull(f)
    assert np.all(env.hull.values >= f.values - 1e-12)
    assert is_log_concave(env.hull)[0]
    # oracle: direct upper hull of (x, log f): the bridge at 0 is the chord
    # between the two tangency points, here the two peaks at +-3
    peak = f.evaluate(3.0)
    assert env.hull.evaluate(0.0) == pytest.approx(peak, rel=1e-2)
    # strictly above the valley
    assert env.hull.evaluate(0.0) > f.evaluate(0.0) * 10


def test_hull_of_separated_indicators():
    dx = 4.0 / 1024
    x0 = -0.5 + 0.5 * dx
    xs = x0 + dx * np.arange(1024)
    vals = np.where(((xs > 0) & (xs < 1)) | ((xs > 2) & (xs < 3)), 1.0, 0.0)
    f = GridFunction(x0, dx, vals)
    env = log_concave_hull(f)
    inside = (xs > 0.01) & (xs < 2.99)
    assert np.all(env.hull.values[inside] >= 1.0 - 1e-9)
    outside = xs < -0.01
    assert np.all(env.hull.values[outside] == 0.0)


def test_hull_idempotent_and_monotone():
    rng = np.random.default_rng(3)
    f = random_log_concave(1, n=512)
    noisy = f.with_values(f.values * rng.uniform(0.4, 1.0, f.n))
    env = log_concave_hull(noisy)
    again = log_concave_hull(env.hull)
    assert np.max(np.abs(again.hull.values - env.hull.values)) <= 1e-10
    # monotone: hull of a smaller function is smaller
    smaller = noisy.with_values(noisy.values * 0.7)
    env_small = log_concave_hull(smaller)
    assert np.all(env_small.hull.values <= env.hull.values + 1e-10)
    assert mass(env.hull) >= mass(noisy)


def test_hull_knots_touch():
    f = bimodal()
    env = log_concave_hull(f)
    for k in env.knots:
        assert env.hull.values[k] == pytest.approx(f.values[k], rel=1e-12)


# ---------------------------------------------------------------------------
# level cuts


def cross(x, y, a, b, c):
    """(b - a) x (c - a): positive when point b lies below the chord a-c."""
    return (x[b] - x[a]) * (y[c] - y[a]) - (y[b] - y[a]) * (x[c] - x[a])


@given(st.lists(st.tuples(st.integers(1, 5), st.integers(-1000, 1000)), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_upper_concave_majorant_chain(steps):
    # integer coordinates keep every cross product exact: collinear runs and
    # ties are decided without round-off
    x = np.cumsum([dx for dx, _ in steps]).astype(float)
    y = np.array([v for _, v in steps], dtype=float)
    keep = _upper_concave_majorant(x, y).tolist()
    assert keep[0] == 0 and keep[-1] == x.size - 1 and keep == sorted(set(keep))
    for a, b in zip(keep, keep[1:]):
        # every point lies on or below the chain
        assert all(cross(x, y, a, i, b) >= 0 for i in range(a + 1, b))
    for a, b, c in zip(keep, keep[1:], keep[2:]):
        # every interior kept point lies strictly above the chord of its neighbours
        assert cross(x, y, a, b, c) < 0


def test_level_cut_zero_is_identity(gauss_pi):
    env = log_concave_hull(gauss_pi)
    out = level_cut(env, 0.0)
    assert np.array_equal(out.values, env.hull.values)


def test_level_cut_gaussian(gauss_pi):
    env = log_concave_hull(gauss_pi)
    out = level_cut(env, math.exp(-math.pi))
    sel = out.values > 0
    xs = gauss_pi.centers[sel]
    assert abs(np.min(xs) + 1.0) <= 2 * gauss_pi.dx
    assert abs(np.max(xs) - 1.0) <= 2 * gauss_pi.dx
    assert is_log_concave(out)[0]


def test_level_cut_above_sup(gauss_pi):
    env = log_concave_hull(gauss_pi)
    out = level_cut(env, 2.0)
    assert np.all(out.values == 0.0)


# ---------------------------------------------------------------------------
# medians and envelopes


def test_median_examples():
    g = gaussian(0.0, 1.0, -8.0, 8.0, 8192)
    assert median(g) == pytest.approx(0.0, abs=g.dx)
    e = exponential(1.0, -1.0, 30.0, 2 ** 14)
    assert median(e) == pytest.approx(math.log(2.0), abs=e.dx)
    u = uniform(2.0, 4.0, 0.0, 6.0, 1024)
    assert median(u) == pytest.approx(3.0, abs=u.dx)


def test_median_envelope_witness_tight():
    # the exponential witness meets the upper envelope on [-log 2, 0] and the
    # lower envelope on [0, log 2] exactly
    psi = exponential_witness()
    rep = median_envelope_check(psi)
    assert rep.ok
    fn = normalize(psi)
    m = rep.center
    fm = rep.density_at_center
    xs = fn.centers
    left = (xs >= -math.log(2.0) + 2 * fn.dx) & (xs <= -2 * fn.dx)
    right = (xs >= 2 * fn.dx) & (xs <= math.log(2.0) - 2 * fn.dx)
    upper = fm * np.exp(2.0 * fm * np.abs(xs - m))
    lower = fm * np.exp(-2.0 * fm * np.abs(xs - m))
    assert np.max(fn.values[left] / upper[left]) == pytest.approx(1.0, abs=1e-6)
    assert np.max(lower[right] / fn.values[right]) == pytest.approx(1.0, abs=1e-6)


def test_median_envelope_gaussian_strict():
    rep = median_envelope_check(gaussian(0.0, 1.0, -8.0, 8.0, 8192))
    assert rep.ok
    assert rep.max_upper_ratio < 1.0
    assert rep.max_lower_ratio < 1.0


def test_median_envelope_uniform():
    rep = median_envelope_check(uniform(-0.5, 0.5, -2.0, 2.0, 4096))
    assert rep.ok


def test_median_envelope_rejects_non_log_concave():
    with pytest.raises(PreconditionError):
        median_envelope_check(bimodal())


def test_nu_envelope_gaussian_median():
    rep = nu_envelope_check(gaussian(0.0, 1.0, -8.0, 8.0, 8192), 0.0)
    assert rep.nu == pytest.approx(0.5, abs=1e-3)
    assert rep.ok


def test_nu_envelope_exponential():
    # Exp is monotone, so the measured beyond-ratio meets the strong bound
    e = exponential(1.0, -1.0, 30.0, 2 ** 14)
    rep = nu_envelope_check(e, math.log(2.0))
    assert rep.ok
    assert rep.max_beyond_ratio <= 1.0 + 5e-3


def test_nu_envelope_skewed_needs_factor_two():
    # mode to the right of the anchor: phi(w) > phi(x) for some w > x, but the
    # factor-two bound still holds
    n = 2 ** 14
    lo, hi = -16.0, 1.0
    dx = (hi - lo) / (n - 1)
    xs = lo + dx * np.arange(n)
    f = normalize(GridFunction(lo, dx, np.where(xs <= 0, np.exp(xs), 0.0)))
    x = float(cdf(f).quantile(0.7))
    rep = nu_envelope_check(f, x)
    assert rep.max_beyond_ratio > 1.0
    assert rep.beyond_ok and rep.ok


def test_nu_envelope_skewed():
    n = 2 ** 14
    lo, hi = -14.0, 7.0
    dx = (hi - lo) / (n - 1)
    xs = lo + dx * np.arange(n)
    f = normalize(GridFunction(lo, dx, np.where(xs < 0, np.exp(xs), np.exp(-3 * xs))))
    x = float(cdf(f).quantile(0.75))
    rep = nu_envelope_check(f, x)
    assert rep.nu == pytest.approx(0.25, abs=1e-3)
    assert rep.ok


def test_nu_envelope_domain_error():
    g = gaussian(0.0, 1.0, -8.0, 8.0, 2048)
    with pytest.raises(DomainError):
        nu_envelope_check(g, -2.0)  # nu > 1/2


def test_envelopes_on_random_densities():
    for seed in range(50):
        f = random_log_concave(seed)
        assert median_envelope_check(f).ok
        x = float(cdf(f).quantile(0.7))
        assert nu_envelope_check(f, x).ok


# ---------------------------------------------------------------------------
# the interpolation bound


def test_interpolation_constant():
    assert interpolation_check(1.0, 1.0, 1.0, 1.0, 0.3, 0.1)


def test_interpolation_exponential():
    phi = lambda t: math.exp(-t)
    assert interpolation_check(phi(0), phi(0.25), phi(0.5), phi(1), 0.25, 0.1)


def test_interpolation_domain_error():
    with pytest.raises(DomainError, match="hypothesis range"):
        interpolation_check(1.0, 1.0, 1.0, 1.0, 0.25, 0.6)


def test_interpolation_on_integral_curve():
    # masses of h_t at t in {0, lam, 1/2, 1} feed the bound with eta = deficit
    from plstab.supconv import integral_curve, pl_deficit

    f, g = random_log_concave_pair(9, n=1024)
    lam = 0.25
    h_lam = sup_convolution(f, g, lam).h
    eta = pl_deficit(h_lam, f, g, lam)
    if eta < 2 * lam:
        phi0 = mass(g)
        phi1 = mass(f)
        phil = mass(h_lam)
        phih = mass(sup_convolution(f, g, 0.5).h)
        assert interpolation_check(phi0, phil, phih, phi1, lam, eta)
