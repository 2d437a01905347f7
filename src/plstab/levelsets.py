"""Level sets, rearrangements, truncated log-hypographs, and scalar lemmas."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    DomainError,
    GridFunction,
    PreconditionError,
    SUPPORT_THRESHOLD,
    sup_norm,
)


@dataclass(frozen=True)
class DistributionFunction:
    """Superlevel-set measures dx * #{cells with value >= threshold}."""

    thresholds: np.ndarray
    measures: np.ndarray


def distribution_function(f: GridFunction, thresholds) -> DistributionFunction:
    th = np.asarray(thresholds, dtype=float)
    if th.ndim != 1 or th.size == 0 or np.any(th <= 0) or np.any(np.diff(th) <= 0):
        raise DomainError("thresholds must be positive and increasing")
    counts = np.array([np.count_nonzero(f.values >= t) for t in th], dtype=float)
    return DistributionFunction(thresholds=th, measures=f.dx * counts)


def symmetric_rearrangement(f: GridFunction) -> GridFunction:
    """Symmetric decreasing rearrangement on a grid centered at zero.

    Values are sorted descending and assigned to cells ordered by |center|
    ascending, ties broken right before left.  The value multiset (hence the
    mass and sup norm) is preserved exactly.
    """
    n = f.n
    x0 = -0.5 * f.dx * (n - 1)
    centers = x0 + f.dx * np.arange(n)
    # sort cells by (|center|, right-before-left); lexsort keys run last-first
    order = np.lexsort((-np.sign(centers), np.abs(centers)))
    ranked = np.sort(f.values)[::-1]
    out = np.empty(n)
    out[order] = ranked
    return GridFunction(x0, f.dx, out)


def check_rearranged_pl(
    h: GridFunction,
    f: GridFunction,
    g: GridFunction,
    lam: float,
    sample: int,
    seed: int = 0,
) -> int:
    """Count sampled violations of h*(lam x + (1-lam) y) >= f*(x)^lam g*(y)^(1-lam).

    x and y are drawn at mass-weighted cell centers of the rearranged inputs
    so the right-hand side is exact; h* is evaluated by linear interpolation.
    The tolerance is 1e-6 * scale plus a computable piecewise-linear
    interpolation-error guard (99th percentile of second differences / 8),
    which absorbs curvature-induced interpolation error without masking
    genuine corruption.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    if sample < 1:
        raise DomainError("sample must be >= 1")
    fs = symmetric_rearrangement(f)
    gs = symmetric_rearrangement(g)
    hs = symmetric_rearrangement(h)
    rng = np.random.default_rng(seed)

    def draw(d: GridFunction, k: int) -> np.ndarray:
        w = d.values / np.sum(d.values)
        idx = rng.choice(d.n, size=k, p=w)
        return d.centers[idx]

    xs = draw(fs, sample)
    ys = draw(gs, sample)
    rhs = fs.evaluate(xs) ** lam * gs.evaluate(ys) ** (1.0 - lam)
    lhs = hs.evaluate(lam * xs + (1.0 - lam) * ys)

    def interp_guard(d: GridFunction) -> float:
        second = np.abs(np.diff(d.values, 2))
        return float(np.percentile(second, 99)) / 8.0 if second.size else 0.0

    scale = sup_norm(fs) ** lam * sup_norm(gs) ** (1.0 - lam)
    tol = 1e-6 * scale + lam * interp_guard(fs) + (1.0 - lam) * interp_guard(gs) + interp_guard(hs)
    return int(np.count_nonzero(lhs < rhs - tol))


@dataclass(frozen=True)
class HypographArea:
    theta: float
    epsilon: float
    area: float


def hypograph_area(f: GridFunction, theta: float, epsilon: float) -> HypographArea:
    """Area of the truncated log-hypograph: integral of log f - theta*log(eps)
    over the cells with f > eps^theta."""
    if theta <= 0:
        raise DomainError("theta must be positive")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    cut = epsilon ** theta
    if cut >= sup_norm(f):
        raise DomainError("empty hypograph: eps^theta >= sup f")
    sel = f.values > cut
    area = f.dx * float(np.sum(np.log(f.values[sel]) - theta * math.log(epsilon)))
    return HypographArea(theta=theta, epsilon=epsilon, area=area)


def bm_two_term_gap(
    f: GridFunction,
    g: GridFunction,
    h: GridFunction,
    lam: float,
    theta: float,
    epsilon: float,
) -> float:
    """Area(S_h) - (lam*sqrt(Area(S_f)) + (1-lam)*sqrt(Area(S_g)))^2."""
    af = hypograph_area(f, theta, epsilon).area
    ag = hypograph_area(g, theta, epsilon).area
    ah = hypograph_area(h, theta, epsilon).area
    return float(ah - (lam * math.sqrt(af) + (1.0 - lam) * math.sqrt(ag)) ** 2)


def numerical_lemma_gap(x: float, y: float, z: float, lam: float):
    """Both sides of the scalar gap bound.

    lhs = x - (lam*sqrt(y) + (1-lam)*sqrt(z))^2,
    rhs = |x - (lam*y + (1-lam)*z)| + tau*(sqrt(y) - sqrt(z))^2,
    valid for x, y, z > 0 with lhs >= 0; the claim is 0 <= lhs <= rhs.
    """
    if min(x, y, z) <= 0:
        raise DomainError("x, y, z must be positive")
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    tau = min(lam, 1.0 - lam)
    sq = (lam * math.sqrt(y) + (1.0 - lam) * math.sqrt(z)) ** 2
    lhs = x - sq
    if lhs < -1e-12 * max(1.0, abs(x)):
        raise DomainError("need x >= (lam*sqrt(y) + (1-lam)*sqrt(z))^2")
    rhs = abs(x - (lam * y + (1.0 - lam) * z)) + tau * (math.sqrt(y) - math.sqrt(z)) ** 2
    return lhs, rhs


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function given by increasing knots and values."""

    knots: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.vals, dtype=float)
        if k.ndim != 1 or k.size < 2 or k.shape != v.shape:
            raise DomainError("need matching 1-D knots/vals with >= 2 points")
        if np.any(np.diff(k) <= 0):
            raise DomainError("knots must be strictly increasing")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "vals", v)

    def __call__(self, x):
        # constant extension outside the knot range keeps |phi'| = 0 there
        return np.interp(x, self.knots, self.vals)

    def slope_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        slopes = np.diff(self.vals) / np.diff(self.knots)
        idx = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, slopes.size - 1)
        out = slopes[idx]
        out = np.where((x < self.knots[0]) | (x >= self.knots[-1]), 0.0, out)
        return out

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.abs(np.diff(self.vals) / np.diff(self.knots))))


def trace_inequality_check(f: GridFunction, phi: PiecewiseLinear):
    """Both sides of the trace bound for a unimodal f with mode at zero.

    lhs sums |phi| at cell boundaries against the absolute jumps of f (the
    discrete total-variation measure, including the end jumps from zero);
    rhs is the rectangle-rule integral of f * |phi'|.  Requires phi(0) = 0 and
    f nondecreasing on centers <= 0, nonincreasing on centers >= 0.
    """
    if abs(float(phi(0.0))) > 1e-12 * max(1.0, float(np.max(np.abs(phi.vals)))):
        raise DomainError("phi(0) must be 0")
    c = f.centers
    v = f.values
    left = v[c <= 0]
    right = v[c >= 0]
    if np.any(np.diff(left) < 0) or np.any(np.diff(right) > 0):
        raise PreconditionError("f must be nondecreasing then nonincreasing with mode at 0")
    edges_inner = c[:-1] + 0.5 * f.dx
    jumps = np.abs(np.diff(v))
    lhs = float(np.sum(np.abs(phi(edges_inner)) * jumps))
    lhs += abs(float(phi(c[0] - 0.5 * f.dx))) * v[0]
    lhs += abs(float(phi(c[-1] + 0.5 * f.dx))) * v[-1]
    rhs = float(f.dx * np.sum(v * np.abs(phi.slope_at(c))))
    return lhs, rhs
