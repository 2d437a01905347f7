import json
import math

import numpy as np
import pytest

from plstab import (
    DomainError,
    GridFunction,
    PreconditionError,
    bad_set_measure,
    cdf,
    check_bilipschitz,
    midpoint_deficit,
    mirror_deficit,
    monotone_transport,
    normalize,
    tail_cut_points,
    transport_deficit,
)
from plstab.densities import gaussian, uniform
from plstab.stability import random_log_concave_pair
from plstab.supconv import pl_deficit, sup_convolution
from plstab.transport import DeficitReport, excluded_mass

from conftest import normal_quantile

UNIFORM_DEFICIT = (3.0 - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))


def test_cdf_quantile_uniform():
    f = uniform(0.0, 1.0, -1.0, 2.0, 3072)
    F = cdf(f)
    assert F.quantile(0.5) == pytest.approx(0.5, abs=f.dx)
    assert F.values[-1] == 1.0


def test_quantile_normal():
    # oracle: standard normal quantile at Phi(1)
    f = gaussian(0.0, 1.0, -8.0, 8.0, 8192)
    assert cdf(f).quantile(0.8413) == pytest.approx(normal_quantile(0.8413), abs=1e-2)


def test_quantile_zero_is_support_edge():
    f = uniform(2.0, 4.0, -10.0, 10.0, 4000)
    q = cdf(f).quantile(0.0)
    assert q == pytest.approx(2.0, abs=2 * f.dx)


def test_quantile_domain_error():
    f = uniform(0.0, 1.0, -1.0, 2.0, 128)
    with pytest.raises(DomainError):
        cdf(f).quantile(1.5)


def test_cdf_roundtrip():
    f = gaussian(0.3, 0.8, -8.0, 8.0, 4096)
    F = cdf(f)
    ps = np.linspace(0.01, 0.99, 33)
    back = F.value_at(np.asarray(F.quantile(ps)))
    assert np.max(np.abs(back - ps)) <= 1e-6


def test_identity_coupling(gauss_pi):
    m = monotone_transport(gauss_pi, gauss_pi)
    bulk = gauss_pi.values > 1e-3 * np.max(gauss_pi.values)
    assert np.max(np.abs(m.T[bulk] - m.x[bulk])) <= 1e-6
    assert np.max(np.abs(m.Tprime[bulk] - 1.0)) <= 1e-6


def test_uniform_affine_coupling(uniform_pair):
    f, g = uniform_pair
    m = monotone_transport(f, g)
    inside = (m.x > 0.05) & (m.x < 0.95)
    assert np.max(np.abs(m.T[inside] - 2.0 * m.x[inside])) <= 2 * f.dx
    assert np.max(np.abs(m.Tprime[inside] - 2.0)) <= 1e-6


def test_gaussian_affine_coupling():
    f = gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    g = gaussian(3.0, 2.0, -10.0, 12.0, 4096)
    m = monotone_transport(f, g)
    sel = np.abs(m.x) <= 2.0
    assert np.max(np.abs(m.T[sel] - (3.0 + 2.0 * m.x[sel]))) <= 1e-3


def test_inverse_map_roundtrip():
    f = gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    g = gaussian(0.5, 1.3, -8.0, 8.0, 4096)
    m = monotone_transport(f, g)
    s = monotone_transport(g, f)
    bulk = np.abs(m.x) <= 2.0
    s_of_t = np.interp(m.T[bulk], s.x, s.T)
    assert np.max(np.abs(s_of_t - m.x[bulk])) <= 2 * f.dx


def test_inverse_of_identity(gauss_pi):
    s = monotone_transport(gauss_pi, gauss_pi)
    bulk = gauss_pi.values > 1e-3
    assert np.max(np.abs(s.T[bulk] - s.x[bulk])) <= 1e-6


def test_jacobian_identity_fd():
    # finite-difference derivative is only a diagnostic; first-order in dx
    f = gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    g = gaussian(0.4, 1.2, -8.0, 8.0, 4096)
    m = monotone_transport(f, g)
    tp_fd = m.tprime_fd()
    bulk = f.values > 1e-3 * np.max(f.values)
    gn = normalize(g)
    resid = f.dx * np.sum(
        np.abs(normalize(f).values[bulk] - gn.evaluate(m.T[bulk]) * tp_fd[bulk])
    )
    assert resid <= 1e-2


def test_transport_deficit_identity(gauss_pi):
    assert transport_deficit(gauss_pi, gauss_pi, 0.5) == pytest.approx(0.0, abs=1e-8)


def test_transport_deficit_uniform_closed_form(uniform_pair):
    # oracle: T' = 2 on (0,1), integrand tau*(1-sqrt(2))^2/sqrt(2) = closed form
    f, g = uniform_pair
    assert transport_deficit(f, g, 0.5) == pytest.approx(UNIFORM_DEFICIT, abs=1e-3)
    assert midpoint_deficit(f, g) == pytest.approx(UNIFORM_DEFICIT, abs=1e-3)


def test_midpoint_equals_transport_at_half():
    f, g = random_log_concave_pair(3)
    assert midpoint_deficit(f, g) == pytest.approx(transport_deficit(f, g, 0.5), abs=1e-10)


def test_deficit_vs_supconv_gaussians():
    f = gaussian(0.0, 1.0, -9.0, 9.0, 8192)
    g = gaussian(0.0, 1.1, -9.0, 9.0, 8192)
    eps = pl_deficit(sup_convolution(f, g, 0.5).h, f, g, 0.5)
    assert transport_deficit(f, g, 0.5) <= eps + 1e-4


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.75])
def test_deficit_domination_random(lam):
    for seed in range(6):
        f, g = random_log_concave_pair(seed, n=1024)
        eps = pl_deficit(sup_convolution(f, g, lam).h, f, g, lam)
        assert eps >= transport_deficit(f, g, lam) * (1 - 0.02) - 1e-8
        assert eps >= mirror_deficit(f, g, lam) * (1 - 0.02) - 1e-8


def test_affine_equivariance():
    f = gaussian(0.0, 1.0, -8.0, 8.0, 2048)
    g = gaussian(0.2, 1.1, -8.0, 8.0, 2048)
    from plstab import translate

    m0 = monotone_transport(f, g)
    m1 = monotone_transport(translate(f, 0.5), translate(g, -0.3))
    t_shifted = np.interp(m0.x, m1.x - 0.5, m1.T + 0.3)
    bulk = f.values > 1e-3 * np.max(f.values)
    assert np.max(np.abs(t_shifted[bulk] - m0.T[bulk])) <= 2 * f.dx


def test_bad_set_measure(uniform_pair):
    f, g = uniform_pair
    m = monotone_transport(f, g)
    assert bad_set_measure(f, m, eta=0.5) == 0.0
    # with lo = 3 the whole unit support qualifies since T' = 2 < 3
    assert bad_set_measure(f, m, eta=0.5, lo=3.0) == pytest.approx(1.0, abs=2 * f.dx)
    m_id = monotone_transport(f, f)
    assert bad_set_measure(f, m_id, eta=0.5) == 0.0


def test_tail_cut_points():
    f = uniform(0.0, 1.0, -1.0, 2.0, 3072)
    x1, x2 = tail_cut_points(f, 0.1)
    assert x1 == pytest.approx(0.1, abs=f.dx)
    assert x2 == pytest.approx(0.9, abs=f.dx)
    g = gaussian(0.0, 1.0, -8.0, 8.0, 8192)
    y1, y2 = tail_cut_points(g, 0.1587)
    assert y1 == pytest.approx(normal_quantile(0.1587), abs=1e-2)
    assert y2 == pytest.approx(-y1, abs=2 * g.dx)
    with pytest.raises(DomainError):
        tail_cut_points(g, 0.75)


def test_check_bilipschitz_gaussians():
    f = gaussian(0.0, 1.0, -9.0, 9.0, 4096)
    rep = check_bilipschitz(f, f, 0.01)
    assert rep.ok and rep.hypothesis_ok
    g = gaussian(0.0, 1.5, -12.0, 12.0, 4096)
    rep2 = check_bilipschitz(f, g, 0.01)
    assert rep2.ok
    assert rep2.tprime_max == pytest.approx(1.5, abs=1e-2)


def test_check_bilipschitz_wide_pair_fails():
    f = gaussian(0.0, 1.0, -90.0, 90.0, 16384)
    g = gaussian(0.0, 20.0, -90.0, 90.0, 16384)
    rep = check_bilipschitz(f, g, 0.01)
    assert not rep.ok
    assert rep.tprime_max == pytest.approx(20.0, rel=2e-2)


def test_check_bilipschitz_flags_large_level():
    f = gaussian(0.0, 1.0, -9.0, 9.0, 2048)
    rep = check_bilipschitz(f, f, 0.3)
    assert not rep.hypothesis_ok and rep.note


def test_check_bilipschitz_precondition():
    xs = np.linspace(-6, 6, 1001)
    bimodal = GridFunction(-6, 12 / 1000, np.exp(-0.5 * (np.abs(xs) - 3) ** 2))
    f = gaussian(0.0, 1.0, -6.0, 6.0, 1001)
    with pytest.raises(PreconditionError, match="log-concave"):
        check_bilipschitz(bimodal, f, 0.01)


def test_excluded_mass_sentinels():
    # g vanishes on half the line: mass transported there is flagged
    f = uniform(0.0, 2.0, -1.0, 3.0, 1024)
    g = uniform(0.0, 1.0, -1.0, 3.0, 1024)
    m = monotone_transport(f, g)
    assert excluded_mass(f, m) == 0.0  # quantile never leaves supp g
    assert np.all(np.isfinite(m.Tprime[f.values > 0]))


def test_deficit_report_json():
    rep = DeficitReport(
        lambda_=0.25,
        tau=0.25,
        epsilon=0.01,
        transport_deficit=0.005,
        midpoint_deficit=0.004,
        bad_set_measure=0.0,
        tail_cut=(-1.0, 1.0),
    )
    data = json.loads(rep.to_json())
    assert set(data) == {
        "lambda", "tau", "epsilon", "transport_deficit",
        "midpoint_deficit", "bad_set_measure", "tail_cut",
    }
    with pytest.raises(DomainError):
        DeficitReport(0.25, 0.3, 0.0, 0.0, 0.0, 0.0, (0.0, 0.0))
