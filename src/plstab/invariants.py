"""Seeded property suite behind the `plstab invariants` command.

Each check is deterministic given the seed and returns a one-line detail
string with the measured margin, so regressions show up in diffs of the
report files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import mass, scale_amplitude, sup_norm
from .levelsets import (
    check_rearranged_pl,
    numerical_lemma_gap,
    symmetric_rearrangement,
    trace_inequality_check,
)
from .logconcave import is_log_concave, log_concave_hull, median_envelope_check
from .radial import lemma_square_min_ratio
from .stability import (
    random_log_concave_pair,
    random_piecewise_linear,
    random_unimodal,
)
from .supconv import integral_curve, midpoint_interpolant, pl_deficit, sup_convolution
from .transport import midpoint_deficit, mirror_deficit, transport_deficit


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _pl_inequality(seed: int) -> CheckResult:
    worst = math.inf
    for s in range(8):
        f, g = random_log_concave_pair(seed * 1000 + s, n=1024)
        for lam in (0.1, 0.5, 0.75):
            eps = pl_deficit(sup_convolution(f, g, lam).h, f, g, lam)
            worst = min(worst, eps)
    return CheckResult("pl_inequality", worst >= -1e-6, f"min deficit {worst:.3e}")


def _deficit_domination(seed: int) -> CheckResult:
    worst = math.inf
    for s in range(8):
        f, g = random_log_concave_pair(seed * 1000 + s, n=1024)
        for lam in (0.25, 0.5):
            eps = pl_deficit(sup_convolution(f, g, lam).h, f, g, lam)
            margin = min(
                eps - 0.98 * transport_deficit(f, g, lam),
                eps - 0.98 * mirror_deficit(f, g, lam),
            )
            worst = min(worst, margin)
    return CheckResult("deficit_domination", worst >= -1e-8, f"min margin {worst:.3e}")


def _rearrangement_invariance(seed: int) -> CheckResult:
    worst = 0.0
    for s in range(6):
        f, g = random_log_concave_pair(seed * 1000 + s, n=1024)
        lam = 0.5
        h = sup_convolution(f, g, lam).h
        e1 = pl_deficit(h, f, g, lam)
        e2 = pl_deficit(
            symmetric_rearrangement(h),
            symmetric_rearrangement(f),
            symmetric_rearrangement(g),
            lam,
        )
        worst = max(worst, abs(e1 - e2))
    return CheckResult("rearrangement_invariance", worst <= 1e-10, f"max deficit drift {worst:.2e}")


def _rearranged_condition(seed: int) -> CheckResult:
    total = 0
    for s in range(4):
        f, g = random_log_concave_pair(seed * 1000 + s, n=1024)
        h = scale_amplitude(sup_convolution(f, g, 0.5).h, 1.02)
        total += check_rearranged_pl(h, f, g, 0.5, 1000, seed=seed + s)
    return CheckResult("rearranged_condition", total == 0, f"{total} violations")


def _hull_properties(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for s in range(6):
        f, _ = random_log_concave_pair(seed * 500 + s, n=1024)
        noisy = f.with_values(f.values * rng.uniform(0.5, 1.0, f.n))
        env = log_concave_hull(noisy)
        ok &= bool(np.all(env.hull.values >= noisy.values - 1e-12))
        again = log_concave_hull(env.hull)
        worst = max(worst, float(np.max(np.abs(again.hull.values - env.hull.values))))
        ok &= is_log_concave(env.hull)[0]
    return CheckResult("hull_dominates_idempotent", ok and worst <= 1e-10, f"idempotence drift {worst:.2e}")


def _lemma_samples(seed: int, n: int = 100_000):
    """The (x, y, z, lam) samples of the numerical-lemma check."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.01, 10.0, n)
    z = rng.uniform(0.01, 10.0, n)
    lam = rng.uniform(0.01, 0.99, n)
    base = (lam * np.sqrt(y) + (1.0 - lam) * np.sqrt(z)) ** 2
    x = base * rng.uniform(1.0, 3.0, n)
    return x, y, z, lam


def _lemma_excess(x, y, z, lam):
    """lhs - rhs of x - (lam*sqrt(y) + (1-lam)*sqrt(z))^2 <= |x - m| +
    tau*(sqrt(y) - sqrt(z))^2, m = lam*y + (1-lam)*z, by the direct formula,
    and the round-off slack it is compared against.

    Exactly, rhs - lhs = 2*(m - x)_+ + tau^2*(sqrt(y) - sqrt(z))^2 >= 0, so
    only rounding can make lhs exceed rhs.  Each side takes at most 16
    roundings of terms bounded by max(x, m): the square is at most m, and
    tau*(sqrt(y) - sqrt(z))^2 <= tau*max(y, z) <= m.  So 16 ulps of
    max(x, m) bound the error of lhs - rhs.
    """
    m = lam * y + (1.0 - lam) * z
    excess = x - (lam * np.sqrt(y) + (1.0 - lam) * np.sqrt(z)) ** 2
    excess -= np.abs(x - m) + np.minimum(lam, 1.0 - lam) * (np.sqrt(y) - np.sqrt(z)) ** 2
    slack = np.maximum(x, m, out=m)
    slack *= 16.0 * np.finfo(float).eps
    return excess, slack


def _numerical_lemma(seed: int) -> CheckResult:
    x, y, z, lam = _lemma_samples(seed)
    excess, slack = _lemma_excess(x, y, z, lam)
    bad = int(np.count_nonzero(excess > slack))
    return CheckResult("numerical_lemma", bad == 0, f"{bad} violations in {x.size}")


def _lemma_square(seed: int) -> CheckResult:
    r1 = lemma_square_min_ratio(1)
    ok = abs(r1 - 0.5) <= 1e-6
    vals = {1: r1}
    for n in (2, 3, 5):
        vals[n] = lemma_square_min_ratio(n)
        ok &= vals[n] > 0.01
    detail = ", ".join(f"n={n}: {v:.4f}" for n, v in vals.items())
    return CheckResult("lemma_square_ratios", ok, detail)


def _trace_inequality(seed: int) -> CheckResult:
    bad = 0
    for s in range(30):
        f = random_unimodal(seed * 100 + s)
        phi = random_piecewise_linear(seed * 100 + s + 7)
        lhs, rhs = trace_inequality_check(f, phi)
        if lhs > rhs + 10.0 * f.dx * phi.lipschitz * sup_norm(f):
            bad += 1
    return CheckResult("trace_inequality", bad == 0, f"{bad} violations in 30")


def _envelopes(seed: int) -> CheckResult:
    bad = 0
    for s in range(10):
        f, _ = random_log_concave_pair(seed * 100 + s, n=2048)
        if not median_envelope_check(f).ok:
            bad += 1
    return CheckResult("median_envelope", bad == 0, f"{bad} failures in 10")


def _integral_concavity(seed: int) -> CheckResult:
    worst = -math.inf
    ts = np.linspace(0.1, 0.9, 9)
    for s in range(3):
        f, g = random_log_concave_pair(seed * 100 + s, n=4096)
        lm = np.log([m for _, m in integral_curve(f, g, ts)])
        worst = max(worst, float(np.max(lm[2:] - 2 * lm[1:-1] + lm[:-2])))
    return CheckResult("integral_log_concavity", worst <= 1e-3, f"max second diff {worst:.2e}")


def _midpoint_chain(seed: int) -> CheckResult:
    ok = True
    worst = math.inf
    for s in range(5):
        f, g = random_log_concave_pair(seed * 100 + s, n=1024)
        w = midpoint_interpolant(f, g)
        md = midpoint_deficit(f, g)
        h = sup_convolution(f, g, 0.5).h
        worst = min(worst, mass(w) - (1.0 - md - 5e-3))
        ok &= mass(w) <= mass(h) + 1e-6
    return CheckResult("midpoint_chain", ok and worst >= 0.0, f"min chain margin {worst:.3e}")


def run_all(seed: int = 0) -> list:
    checks = (
        _pl_inequality,
        _deficit_domination,
        _rearrangement_invariance,
        _rearranged_condition,
        _hull_properties,
        _numerical_lemma,
        _lemma_square,
        _trace_inequality,
        _envelopes,
        _integral_concavity,
        _midpoint_chain,
    )
    return [chk(seed) for chk in checks]
