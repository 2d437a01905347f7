import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plstab import (
    DomainError,
    GridFunction,
    PiecewiseLinear,
    PreconditionError,
    bm_two_term_gap,
    check_rearranged_pl,
    distribution_function,
    hypograph_area,
    l1_distance,
    mass,
    numerical_lemma_gap,
    pl_deficit,
    scale_amplitude,
    sup_convolution,
    sup_norm,
    symmetric_rearrangement,
    trace_inequality_check,
)
from plstab.densities import uniform
from plstab.invariants import _lemma_excess, _lemma_samples, _numerical_lemma
from plstab.stability import random_log_concave_pair, random_piecewise_linear, random_unimodal


def aligned_indicator(a, b, height, lo, hi, n):
    dx = (hi - lo) / n
    x0 = lo + 0.5 * dx
    xs = x0 + dx * np.arange(n)
    return GridFunction(x0, dx, np.where((xs > a) & (xs < b), height, 0.0))


# ---------------------------------------------------------------------------
# distribution functions


def test_distribution_function_indicator():
    f = aligned_indicator(0, 1, 1.0, -1, 2, 3072)
    d = distribution_function(f, [0.5])
    assert d.measures[0] == pytest.approx(1.0, abs=f.dx)
    d2 = distribution_function(f, [2.0])
    assert d2.measures[0] == 0.0


def test_distribution_function_gaussian(gauss_pi):
    # oracle: solve exp(-pi x^2) = t for the superlevel width
    for t in (0.2, 0.5, 0.8):
        d = distribution_function(gauss_pi, [t])
        expected = 2.0 * math.sqrt(math.log(1.0 / t) / math.pi)
        assert d.measures[0] == pytest.approx(expected, abs=2 * gauss_pi.dx)


def test_distribution_function_validation(gauss_pi):
    with pytest.raises(DomainError):
        distribution_function(gauss_pi, [0.5, 0.2])
    with pytest.raises(DomainError):
        distribution_function(gauss_pi, [-1.0])


# ---------------------------------------------------------------------------
# rearrangement


def test_rearrangement_idempotent_on_symmetric(gauss_pi):
    r = symmetric_rearrangement(gauss_pi)
    assert l1_distance(r, gauss_pi) <= 1e-9


def test_rearrangement_translates_indicator():
    f = aligned_indicator(3, 4, 1.0, 0, 8, 4096)
    r = symmetric_rearrangement(f)
    target = GridFunction(r.x0, r.dx, np.where(np.abs(r.centers) < 0.5, 1.0, 0.0))
    assert l1_distance(r, target) <= 2 * f.dx


def test_rearrangement_exact_conservation():
    rng = np.random.default_rng(5)
    f = GridFunction(-2.0, 0.01, rng.uniform(0, 3, 500))
    r = symmetric_rearrangement(f)
    assert np.array_equal(np.sort(f.values), np.sort(r.values))
    assert mass(f) == mass(r)
    assert sup_norm(f) == sup_norm(r)
    # values ordered by |center| (ties right before left) are nonincreasing
    c = r.centers
    order = sorted(range(r.n), key=lambda i: (abs(c[i]), -np.sign(c[i])))
    assert np.all(np.diff(r.values[order]) <= 0)


@given(st.lists(st.floats(0.0, 5.0), min_size=4, max_size=64))
@settings(max_examples=80, deadline=None)
def test_rearrangement_equimeasurable(vals):
    f = GridFunction(1.0, 0.125, np.asarray(vals))
    r = symmetric_rearrangement(f)
    assert np.array_equal(np.sort(f.values), np.sort(r.values))
    assert mass(f) == mass(r)


def test_pl_deficit_rearrangement_invariant():
    for seed in range(5):
        f, g = random_log_concave_pair(seed, n=1024)
        h = sup_convolution(f, g, 0.5).h
        e1 = pl_deficit(h, f, g, 0.5)
        e2 = pl_deficit(
            symmetric_rearrangement(h),
            symmetric_rearrangement(f),
            symmetric_rearrangement(g),
            0.5,
        )
        assert abs(e1 - e2) <= 1e-10


# ---------------------------------------------------------------------------
# the rearranged inequality check


def test_check_rearranged_equality_triple(gauss_pi):
    assert check_rearranged_pl(gauss_pi, gauss_pi, gauss_pi, 0.5, 2000, seed=1) == 0


def test_check_rearranged_uniform_triple(uniform_pair):
    f, g = uniform_pair
    h = sup_convolution(f, g, 0.5).h
    assert check_rearranged_pl(h, f, g, 0.5, 2000, seed=2) == 0


def test_check_rearranged_corrupted(gauss_pi):
    vals = gauss_pi.values.copy()
    vals[int(np.argmax(vals))] *= 0.5
    corrupted = GridFunction(gauss_pi.x0, gauss_pi.dx, vals)
    assert check_rearranged_pl(corrupted, gauss_pi, gauss_pi, 0.5, 2000, seed=3) >= 1


def test_check_rearranged_random_triples():
    for seed in range(4):
        f, g = random_log_concave_pair(seed, n=1024)
        h = scale_amplitude(sup_convolution(f, g, 0.4).h, 1.02)
        assert check_rearranged_pl(h, f, g, 0.4, 1500, seed=seed) == 0


# ---------------------------------------------------------------------------
# hypograph areas


def test_hypograph_indicator():
    f = aligned_indicator(0, 1, 1.0, -1, 2, 3072)
    theta, eps = 0.25, 1e-4
    area = hypograph_area(f, theta, eps).area
    assert area == pytest.approx(theta * abs(math.log(eps)), rel=1e-6)


def test_hypograph_gaussian(gauss_pi):
    # oracle: int (c - pi x^2) over |x| <= sqrt(c/pi) equals (4/3) c^(3/2)/sqrt(pi)
    theta, eps = 0.25, 1e-4
    c = theta * abs(math.log(eps))
    expected = (4.0 / 3.0) * c ** 1.5 / math.sqrt(math.pi)
    area = hypograph_area(gauss_pi, theta, eps).area
    assert area == pytest.approx(expected, abs=2e-3)


def test_hypograph_errors(gauss_pi):
    with pytest.raises(DomainError, match="empty hypograph"):
        hypograph_area(scale_amplitude(gauss_pi, 0.01), 0.25, 1e-4)
    with pytest.raises(DomainError):
        hypograph_area(gauss_pi, -1.0, 1e-4)
    with pytest.raises(DomainError):
        hypograph_area(gauss_pi, 0.25, 2.0)


def test_bm_gap_equal_triple(gauss_pi):
    assert bm_two_term_gap(gauss_pi, gauss_pi, gauss_pi, 0.3, 0.25, 1e-4) == pytest.approx(
        0.0, abs=1e-6
    )


def test_bm_gap_uniform_triple(uniform_pair):
    f, g = uniform_pair
    h = sup_convolution(f, g, 0.5).h
    gap = bm_two_term_gap(f, g, h, 0.5, 0.25, 1e-4)
    assert gap >= -1e-6


def test_bm_gap_random_triples():
    for seed in range(8):
        f, g = random_log_concave_pair(seed, n=1024)
        if min(sup_norm(f), sup_norm(g)) < 0.15:
            continue
        h = sup_convolution(f, g, 0.5).h
        assert bm_two_term_gap(f, g, h, 0.5, 0.25, 1e-4) >= -1e-6


# ---------------------------------------------------------------------------
# the scalar gap lemma


def test_numerical_lemma_trivial():
    lhs, rhs = numerical_lemma_gap(1.0, 1.0, 1.0, 0.3)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_numerical_lemma_equal_yz():
    lhs, rhs = numerical_lemma_gap(4.0, 1.0, 1.0, 0.5)
    assert lhs == 3.0 and rhs == 3.0


def test_numerical_lemma_randomized():
    rng = np.random.default_rng(42)
    n = 1_000_000
    y = rng.uniform(0.01, 10.0, n)
    z = rng.uniform(0.01, 10.0, n)
    lam = rng.uniform(0.01, 0.99, n)
    base = (lam * np.sqrt(y) + (1.0 - lam) * np.sqrt(z)) ** 2
    x = base * rng.uniform(1.0, 4.0, n)
    tau = np.minimum(lam, 1.0 - lam)
    lhs = x - base
    rhs = np.abs(x - (lam * y + (1.0 - lam) * z)) + tau * (np.sqrt(y) - np.sqrt(z)) ** 2
    assert np.count_nonzero(lhs > rhs) == 0


def test_invariant_lemma_check_allows_round_off_only():
    # seeds 20 and 50 each draw one sample where the direct formula puts lhs
    # a fraction of an ulp above rhs; exactly, rhs - lhs >= 0 always
    for seed in (20, 50):
        assert _numerical_lemma(seed).ok
        x, y, z, lam = _lemma_samples(seed)
        excess, slack = _lemma_excess(x, y, z, lam)
        above = excess > 0.0
        assert np.any(above)
        # with rhs lowered by 1e-12*x the same samples are violations
        assert np.all(excess[above] + 1e-12 * x[above] > slack[above])


def test_numerical_lemma_validation():
    with pytest.raises(DomainError):
        numerical_lemma_gap(-1.0, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        numerical_lemma_gap(0.1, 4.0, 4.0, 0.5)  # x below the square term


# ---------------------------------------------------------------------------
# trace inequality


def test_trace_phi_zero(gauss_pi):
    phi = PiecewiseLinear(np.array([-8.0, 8.0]), np.array([0.0, 0.0]))
    lhs, rhs = trace_inequality_check(gauss_pi, phi)
    assert lhs == 0.0 and rhs >= 0.0


def test_trace_indicator_equality():
    # oracle by hand: f = 1_(-1,1), phi = x: both sides equal 2
    f = aligned_indicator(-1, 1, 1.0, -3, 3, 3000)
    phi = PiecewiseLinear(np.array([-3.0, 0.0, 3.0]), np.array([-3.0, 0.0, 3.0]))
    lhs, rhs = trace_inequality_check(f, phi)
    assert lhs == pytest.approx(2.0, abs=4 * f.dx)
    assert rhs == pytest.approx(2.0, abs=4 * f.dx)
    assert lhs <= rhs + 1e-9


def test_trace_random_trials():
    for seed in range(100):
        f = random_unimodal(seed)
        phi = random_piecewise_linear(seed + 10_000)
        lhs, rhs = trace_inequality_check(f, phi)
        assert lhs <= rhs + 10.0 * f.dx * phi.lipschitz * sup_norm(f)


def test_trace_preconditions():
    f = aligned_indicator(-1, 1, 1.0, -3, 3, 300)
    bad_phi = PiecewiseLinear(np.array([-3.0, 3.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError, match="phi"):
        trace_inequality_check(f, bad_phi)
    shifted = aligned_indicator(1, 2, 1.0, -3, 3, 300)
    phi = PiecewiseLinear(np.array([-3.0, 0.0, 3.0]), np.array([-3.0, 0.0, 3.0]))
    with pytest.raises(PreconditionError, match="mode"):
        trace_inequality_check(shifted, phi)


def test_piecewise_linear_validation():
    with pytest.raises(DomainError):
        PiecewiseLinear(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    phi = PiecewiseLinear(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 1.0]))
    assert phi.lipschitz == pytest.approx(2.0)
    assert phi.slope_at(0.5) == pytest.approx(2.0)
    assert phi.slope_at(2.0) == pytest.approx(-0.5)
