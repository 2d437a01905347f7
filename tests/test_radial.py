import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plstab import (
    DomainError,
    GridFunction,
    PreconditionError,
    RadialProfile,
    even_extension,
    lemma_square_min_ratio,
    lemma_square_sides,
    midpoint_deficit,
    radial_deficit,
    radial_l1_distance,
    radial_mass,
    radial_pl_deficit,
    radial_sup_convolution,
    radial_transport,
    unit_sphere_area,
)
from plstab.grids import SUPPORT_THRESHOLD
from plstab.transport import Cdf, monotone_transport


def half_grid(n, r_hi):
    dr = r_hi / n
    return dr / 2, dr, dr / 2 + dr * np.arange(n)


def ball_profile(n_dim, radius, cells, r_hi):
    r0, dr, r = half_grid(cells, r_hi)
    volume = unit_sphere_area(n_dim) * radius ** n_dim / n_dim
    vals = np.where(r < radius, 1.0 / volume, 0.0)
    return RadialProfile(n_dim, r0, dr, vals)


def gaussian_profile(n_dim, cells=4096, r_hi=6.0, sigma=1.0):
    r0, dr, r = half_grid(cells, r_hi)
    return RadialProfile(n_dim, r0, dr, np.exp(-math.pi * (r / sigma) ** 2) / sigma ** n_dim)


def test_unit_sphere_area():
    assert unit_sphere_area(1) == pytest.approx(2.0, rel=1e-12)
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_radial_mass_n1_even_indicator():
    # profile 1/2 on r < 1 represents the even density (1/2) 1_(-1,1)
    r0, dr, r = half_grid(2048, 1.5)
    p = RadialProfile(1, r0, dr, np.where(r < 1, 0.5, 0.0))
    assert radial_mass(p) == pytest.approx(1.0, abs=1e-3)


def test_radial_mass_uniform_ball():
    p = ball_profile(3, 1.0, 3000, 1.2)
    assert radial_mass(p) == pytest.approx(1.0, abs=1e-3)


def test_radial_mass_gaussian_n2():
    p = gaussian_profile(2)
    assert radial_mass(p) == pytest.approx(1.0, abs=1e-6)


def test_radial_transport_identity():
    p = gaussian_profile(2)
    m = radial_transport(p, p)
    bulk = p.values > 1e-3
    assert np.max(np.abs(m.T[bulk] - m.x[bulk])) <= 1e-6
    assert np.max(np.abs(m.Tprime[bulk] - 1.0)) <= 1e-3


def test_radial_transport_balls():
    f = ball_profile(3, 1.0, 4096, 2.5)
    g = ball_profile(3, 2.0, 4096, 2.5)
    m = radial_transport(f, g)
    sel = (m.x > 0.05) & (m.x < 0.95)
    assert np.max(np.abs(m.T[sel] - 2.0 * m.x[sel])) <= 2 * f.dr
    assert np.max(np.abs(m.Tprime[sel] - 2.0)) <= 3e-3


def test_radial_transport_gaussian_scaling():
    f = gaussian_profile(2, sigma=1.0)
    g = gaussian_profile(2, sigma=1.5, r_hi=9.0)
    m = radial_transport(f, g)
    sel = (m.x > 0.05) & (m.x < 1.5)
    assert np.max(np.abs(m.T[sel] - 1.5 * m.x[sel])) <= 1e-3


def test_radial_deficit_identity():
    p = gaussian_profile(2)
    assert radial_deficit(p, p) == pytest.approx(0.0, abs=1e-6)


def test_radial_deficit_balls_closed_form():
    # oracle: T = 2r gives a = 2, b = 2, J = 4 for n = 2; the integrand factor
    # is (3/2)(3/2) - 2 = 1/4 with weight f/sqrt(J) = f/2, so the deficit is
    # (1/4) * (1/2) * mass = 1/8
    f = ball_profile(2, 1.0, 4096, 2.5)
    g = ball_profile(2, 2.0, 4096, 2.5)
    assert radial_deficit(f, g) == pytest.approx(0.125, abs=1e-2)


def test_radial_n1_matches_midpoint_deficit():
    r0, dr, r = half_grid(4096, 6.0)
    f = RadialProfile(1, r0, dr, np.exp(-math.pi * r ** 2))
    g = RadialProfile(1, r0, dr, np.exp(-math.pi * (r / 1.2) ** 2) / 1.2)
    fe, ge = even_extension(f), even_extension(g)
    assert radial_deficit(f, g) == pytest.approx(midpoint_deficit(fe, ge), abs=1e-6)


def test_radial_transport_origin_fixed():
    n = 2048
    dr = 4.0 / n
    r = dr * np.arange(n)  # grid containing r = 0
    f = RadialProfile(2, 0.0, dr, np.exp(-math.pi * r ** 2))
    g = RadialProfile(2, 0.0, dr, np.exp(-math.pi * (r / 1.3) ** 2) / 1.3 ** 2)
    m = radial_transport(f, g)
    assert m.T[0] == 0.0


def test_lemma_square_sides():
    lhs, q = lemma_square_sides(1.0, 1.0, 3)
    assert lhs == 0.0 and q == 0.0
    lhs, q = lemma_square_sides(2.0, 2.0, 2)
    assert lhs == pytest.approx(0.25, rel=1e-12)
    assert q == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        lemma_square_sides(20.0, 1.0, 2)


def test_lemma_square_min_ratio_n1_exact():
    # algebraic identity: ((1+b)/2 - sqrt(b)) = (sqrt(b)-1)^2 / 2
    assert lemma_square_min_ratio(1) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lemma_square_min_ratio_positive(n):
    r = lemma_square_min_ratio(n)
    assert r > 0.01
    # near (1,1) the worst direction gives 1/(2n)
    assert r <= 1.0 / (2.0 * n) + 1e-6


def test_lemma_square_ratio_degrades_with_dimension():
    assert lemma_square_min_ratio(5) <= lemma_square_min_ratio(2)


def test_radial_l1_identity():
    p = gaussian_profile(2)
    assert radial_l1_distance(p, p) == 0.0


def test_radial_l1_balls_closed_form():
    # oracle: |1/pi - 1/(4 pi)|*pi + (1/(4 pi))*(4 pi - pi) = 3/4 + 3/4 = 3/2
    f = ball_profile(2, 1.0, 4096, 2.5)
    g = ball_profile(2, 2.0, 4096, 2.5)
    assert radial_l1_distance(f, g) == pytest.approx(1.5, abs=1e-2)


def test_radial_l1_triangle():
    f = gaussian_profile(2, sigma=1.0)
    g = gaussian_profile(2, sigma=1.2)
    h = gaussian_profile(2, sigma=1.5)
    assert radial_l1_distance(f, h) <= radial_l1_distance(f, g) + radial_l1_distance(g, h) + 1e-9


def resampled_radial_l1(f, g):
    """Reference for radial_l1_distance: both profiles resampled on the
    common refinement grid, also when they share a grid."""
    dr = min(f.dr, g.dr)
    lo = min(f.r0, g.r0)
    hi = max(f.radii[-1], g.radii[-1])
    m = int(np.floor((hi - lo) / dr + 0.5)) + 1
    rs = lo + dr * np.arange(max(m, 2))
    diff = np.abs(f.grid.evaluate(rs) - g.grid.evaluate(rs))
    return radial_mass(RadialProfile(f.n, lo, dr, diff))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(2, 3000),
       st.sampled_from(["origin", "half", "random"]))
@settings(max_examples=60, deadline=None)
def test_radial_l1_same_grid_matches_resampling(seed, n_dim, cells, start):
    # the amplitude search compares g with a*f on f's own grid
    rng = np.random.default_rng(seed)
    dr = float(rng.uniform(1e-3, 0.5))
    r0 = {"origin": 0.0, "half": 0.5 * dr, "random": float(rng.uniform(0.0, 3.0))}[start]
    f = RadialProfile(n_dim, r0, dr, rng.exponential(1.0, cells) * (rng.random(cells) < 0.8))
    g = RadialProfile(n_dim, r0, dr, rng.uniform(0.5, 2.0) * f.values + rng.exponential(0.1, cells))
    assert radial_l1_distance(f, g) == resampled_radial_l1(f, g)
    assert radial_l1_distance(g, f) == resampled_radial_l1(g, f)


def test_radial_supconv_equality():
    p = gaussian_profile(2)
    h = radial_sup_convolution(p, p, 0.5)
    assert radial_pl_deficit(h, p, p, 0.5) == pytest.approx(0.0, abs=1e-4)


def test_radial_supconv_rejects_increasing():
    r0, dr, r = half_grid(512, 3.0)
    ring = RadialProfile(2, r0, dr, np.exp(-((r - 1.5) ** 2)))
    p = gaussian_profile(2, cells=512, r_hi=3.0)
    with pytest.raises(PreconditionError, match="rearrange"):
        radial_sup_convolution(ring, p, 0.5)


def test_radial_pl_domination():
    for sigma in (1.1, 1.3):
        f = gaussian_profile(2)
        g = gaussian_profile(2, sigma=sigma, r_hi=6.0)
        fn = RadialProfile(2, f.r0, f.dr, f.values / radial_mass(f))
        gn = RadialProfile(2, g.r0, g.dr, g.values / radial_mass(g))
        h = radial_sup_convolution(fn, gn, 0.5)
        eps = radial_pl_deficit(h, fn, gn, 0.5)
        assert eps >= radial_deficit(fn, gn) * (1 - 0.05) - 1e-6


def test_radial_deficit_lower_bound_via_lemma():
    # deficit >= min_ratio(n) * 4^-n * int f (sqrt(J)-1)^2 weighted, when
    # both transport factors stay in (1/16, 16)
    f = gaussian_profile(2)
    g = gaussian_profile(2, sigma=1.25, r_hi=7.5)
    fn = RadialProfile(2, f.r0, f.dr, f.values / radial_mass(f))
    gn = RadialProfile(2, g.r0, g.dr, g.values / radial_mass(g))
    m = radial_transport(fn, gn)
    r = fn.radii
    a = np.where(r > 0.5 * fn.dr, m.T / r, m.Tprime)
    b = m.Tprime
    ok = np.isfinite(b) & (fn.values > 0) & (a > 1 / 16) & (a < 16) & (b > 1 / 16) & (b < 16)
    J = b[ok] * a[ok] ** (fn.n - 1)
    w = fn.weights[ok]
    quad = float(np.sum(fn.values[ok] * (np.sqrt(J) - 1.0) ** 2 * w))
    c = lemma_square_min_ratio(2) * 4.0 ** -2
    assert radial_deficit(fn, gn) >= c * quad - 1e-8


def test_profile_validation():
    with pytest.raises(DomainError):
        RadialProfile(0, 0.0, 0.1, np.ones(4))
    with pytest.raises(DomainError):
        RadialProfile(2, -0.5, 0.1, np.ones(4))
    with pytest.raises(DomainError):
        radial_l1_distance(gaussian_profile(2), gaussian_profile(3))


# ---------------------------------------------------------------------------
# the radial CDF as transport.cdf of the weighted profile, against the
# weighted CDF built directly from the cell masses


def reference_weights(p):
    omega = unit_sphere_area(p.n)
    w = omega * p.dr * p.radii ** (p.n - 1)
    if abs(p.r0) < 1e-15 * p.dr:
        w[0] = omega * (0.5 * p.dr) ** p.n / p.n
    return w


def reference_cdf(p):
    """Cumulative weighted cell masses over the cell edges, the first edge at
    max(r0 - dr/2, 0)."""
    cell_mass = reference_weights(p) * p.values
    edges = np.empty(p.values.size + 1)
    edges[0] = max(p.r0 - 0.5 * p.dr, 0.0)
    edges[1:] = p.radii + 0.5 * p.dr
    acc = np.concatenate([[0.0], np.cumsum(cell_mass)]) / np.sum(cell_mass)
    acc[-1] = 1.0
    return Cdf(edges, acc)


def reference_transport(f, g):
    """(T, T', f's CDF) of the radial transport on the reference CDFs."""
    Ff = reference_cdf(f)
    r = f.radii
    T = np.maximum(np.asarray(reference_cdf(g).quantile(Ff.value_at(r)), dtype=float), 0.0)
    if abs(f.r0) < 1e-15 * f.dr:
        T[0] = 0.0
    gT = GridFunction(g.r0, g.dr, g.values).evaluate(np.maximum(T, g.r0))
    fv, n = f.values, f.n
    Tp = np.full(r.size, 1.0)
    small = (r < 0.5 * f.dr) | (T < 0.5 * g.dr)
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = ~small & (gT > SUPPORT_THRESHOLD) & (T > 0)
        Tp[regular] = fv[regular] * r[regular] ** (n - 1) / (gT[regular] * T[regular] ** (n - 1))
    origin = small & (gT > SUPPORT_THRESHOLD) & (fv > SUPPORT_THRESHOLD)
    Tp[origin] = (fv[origin] / gT[origin]) ** (1.0 / n)
    Tp[(gT <= SUPPORT_THRESHOLD) & (fv > SUPPORT_THRESHOLD)] = np.inf
    return T, Tp, Ff


def reference_deficit(f, g):
    fn, gn = (RadialProfile(p.n, p.r0, p.dr, p.values / np.sum(reference_weights(p) * p.values))
              for p in (f, g))
    T, b, F = reference_transport(fn, gn)
    r, n = fn.radii, fn.n
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(r > 0.5 * fn.dr, T / np.where(r > 0, r, 1.0), b)
        ok = (F.resolvable(r) & np.isfinite(b) & np.isfinite(a) & (a > 0) & (b > 0)
              & (fn.values > SUPPORT_THRESHOLD))
        J = np.where(ok, b * a ** (n - 1), 1.0)
        factor = ((a + 1.0) / 2.0) ** (n - 1) * (1.0 + b) / 2.0 - np.sqrt(J)
        term = np.where(ok, fn.values / np.sqrt(J) * factor * reference_weights(fn), 0.0)
    return float(np.sum(term))


def random_decreasing_pair(rng, n_dim, start):
    """f and g on one grid, each log-decreasing by random steps that add up to
    about the same 5 ... 40 over it.  (Where g's CDF saturates in double
    precision while f's does not, T is ill-conditioned, dT = dp / (g w)(T),
    and the two CDFs' rounding moves a cell across the +inf sentinel.)"""
    cells = int(rng.integers(64, 2049))
    dr = float(rng.uniform(1e-3, 0.1))
    r0 = 0.0 if start == "origin" else 0.5 * dr
    step = float(rng.uniform(5.0, 40.0)) / cells
    return [RadialProfile(n_dim, r0, dr, float(rng.uniform(0.1, 10.0))
                          * np.exp(-np.cumsum(rng.exponential(step, cells))))
            for _ in range(2)]


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 5]), st.sampled_from(["origin", "half"]))
@settings(max_examples=150, deadline=None)
def test_radial_transport_matches_direct_weighted_cdf(seed, n_dim, start):
    f, g = random_decreasing_pair(np.random.default_rng(seed), n_dim, start)
    assert abs(radial_deficit(f, g) - reference_deficit(f, g)) <= 1e-12
    m = radial_transport(f, g)
    T, Tp, F = reference_transport(f, g)
    p = F.value_at(f.radii)
    inner = (p > 1e-6) & (p < 1.0 - 1e-6)
    assert np.all(np.abs(m.T - T)[inner] <= 1e-9 * T[inner])
    assert np.array_equal(np.isfinite(m.Tprime[inner]), np.isfinite(Tp[inner]))
    inner &= np.isfinite(Tp)
    assert np.all(np.abs(m.Tprime - Tp)[inner] <= 1e-7 * Tp[inner])
