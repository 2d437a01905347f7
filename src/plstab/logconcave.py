"""Log-concavity tests, hulls, medians, and pointwise envelope checks.

The log-concave hull is the exponential of the least concave majorant of the
log values, built with a monotone-chain upper hull over the points
(x_i, log f_i) restricted to the support.  Cells below the support threshold
inside the convex hull of the support are bridged by the hull (matching the
convention that the hull lives on the convex hull of the support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    DomainError,
    GridFunction,
    PreconditionError,
    SUPPORT_THRESHOLD,
    mass,
    normalize,
    support_indices,
)
from .transport import cdf


def is_log_concave(f: GridFunction):
    """Discrete midpoint concavity of log f on the support window: a second
    difference of log f above 1e-8 is a violation.

    Returns ``(ok, first_violating_index)``.  A zero cell strictly inside the
    support window is itself a violation.
    """
    idx = support_indices(f)
    if idx is None:
        return True, None
    lo, hi = idx
    vals = f.values[lo : hi + 1]
    zero_inside = np.nonzero(vals <= SUPPORT_THRESHOLD)[0]
    if zero_inside.size:
        return False, int(lo + zero_inside[0])
    logv = np.log(vals)
    if logv.size < 3:
        return True, None
    second = logv[2:] - 2.0 * logv[1:-1] + logv[:-2]
    bad = np.nonzero(second > 1e-8)[0]
    if bad.size:
        return False, int(lo + bad[0] + 1)
    return True, None


@dataclass(frozen=True)
class LogConcaveEnvelope:
    """Input function, its log-concave hull, and the touching-cell indices."""

    base: GridFunction
    hull: GridFunction
    knots: np.ndarray


def _upper_concave_majorant(x: np.ndarray, y: np.ndarray):
    """Indices of the upper hull (monotone chain) of points sorted by x.

    The chain runs on Python floats, which take the IEEE double operations
    numpy scalars would, at a fraction of the cost per step."""
    x = x.tolist()
    y = y.tolist()
    keep = []
    for i in range(len(x)):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            # drop b if it lies below segment a-i
            cross = (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a])
            if cross >= 0:
                keep.pop()
            else:
                break
        keep.append(i)
    return np.asarray(keep, dtype=int)


def concave_majorant(x: np.ndarray, y: np.ndarray):
    """The least concave majorant of the points (x_i, y_i), x increasing, at
    every x_i, and the indices of the points it passes through.  Points with
    y_i = -inf (zero cells in the log domain) are bridged; at least one y_i
    must be finite."""
    finite = np.nonzero(np.isfinite(y))[0]
    knots = finite[_upper_concave_majorant(x[finite], y[finite])]
    return np.interp(x, x[knots], y[knots]), knots


def log_concave_hull(f: GridFunction) -> LogConcaveEnvelope:
    """Exponential of the least concave majorant of log f over co(supp f)."""
    if mass(f) <= 0:
        raise DomainError("zero mass")
    lo, hi = support_indices(f)
    xs = f.centers[lo : hi + 1]
    vals = f.values[lo : hi + 1]
    pos = vals > SUPPORT_THRESHOLD
    logv = np.where(pos, np.log(np.where(pos, vals, 1.0)), -np.inf)
    hull_log, anchors = concave_majorant(xs, logv)
    hull_vals = np.zeros(f.n)
    hull_vals[lo : hi + 1] = np.exp(hull_log)
    # hull touches base at the anchor cells by construction
    knots = anchors + lo
    hull_vals = np.maximum(hull_vals, f.values)
    return LogConcaveEnvelope(base=f, hull=GridFunction(f.x0, f.dx, hull_vals), knots=knots)


def level_cut(env: LogConcaveEnvelope, s0: float) -> GridFunction:
    """Zero the hull below the level s0, keep it unchanged above."""
    if s0 < 0:
        raise DomainError("s0 must be >= 0")
    vals = np.where(env.hull.values > s0, env.hull.values, 0.0)
    return GridFunction(env.hull.x0, env.hull.dx, vals)


def median(f: GridFunction) -> float:
    if mass(f) <= 0:
        raise DomainError("zero mass")
    return float(cdf(f).quantile(0.5))


# relative slack of the envelope checks: a ratio up to 1 + ENVELOPE_TOL passes
ENVELOPE_TOL = 5e-3


@dataclass(frozen=True)
class EnvelopeReport:
    center: float
    density_at_center: float
    window: tuple
    max_upper_ratio: float
    max_lower_ratio: float
    ok: bool


def _envelope_ratios(fn: GridFunction, x: float, fx: float, rate: float):
    """The window |w - x| <= log(2)/rate and the largest ratios over its cells
    of fn(w) / (fx e^(rate |w-x|)) (upper) and fx e^(-rate |w-x|) / fn(w)
    (lower), with whether both stay within 1 + ``ENVELOPE_TOL``."""
    halfwidth = math.log(2.0) / rate
    xs = fn.centers
    inside = np.abs(xs - x) <= halfwidth
    v = fn.values[inside]
    d = np.abs(xs[inside] - x)
    upper = fx * np.exp(rate * d)
    lower = fx * np.exp(-rate * d)
    pos = v > SUPPORT_THRESHOLD
    max_upper = float(np.max(v / upper)) if np.any(pos) else 0.0
    max_lower = float(np.max(lower[pos] / v[pos])) if np.any(pos) else 0.0
    # zero cells inside the window violate the lower envelope outright
    if np.any(~pos & (lower > 0)):
        max_lower = np.inf
    ok = max_upper <= 1.0 + ENVELOPE_TOL and max_lower <= 1.0 + ENVELOPE_TOL
    return (x - halfwidth, x + halfwidth), max_upper, max_lower, ok


def median_envelope_check(f: GridFunction) -> EnvelopeReport:
    """Check phi(m) e^(-2 phi(m)|x-m|) <= phi <= phi(m) e^(2 phi(m)|x-m|)
    on |x-m| <= log(2) / (2 phi(m)) for a log-concave probability density.

    Ratios above one (beyond ``ENVELOPE_TOL``) flag a violation.  The input is
    normalized internally.
    """
    ok, idx = is_log_concave(f)
    if not ok:
        raise PreconditionError(f"input is not log-concave (first violation at cell {idx})")
    fn = normalize(f)
    m = median(fn)
    fm = float(fn.evaluate(m))
    if fm <= 0:
        raise PreconditionError("density vanishes at its median")
    window, max_upper, max_lower, ok = _envelope_ratios(fn, m, fm, 2.0 * fm)
    return EnvelopeReport(
        center=m,
        density_at_center=fm,
        window=window,
        max_upper_ratio=max_upper,
        max_lower_ratio=max_lower,
        ok=ok,
    )


@dataclass(frozen=True)
class NuEnvelopeReport:
    nu: float
    x: float
    density_at_x: float
    window: tuple
    max_upper_ratio: float
    max_lower_ratio: float
    max_beyond_ratio: float
    beyond_ok: bool
    ok: bool


def nu_envelope_check(f: GridFunction, x: float) -> NuEnvelopeReport:
    """Envelope bounds anchored at x with nu = mass beyond x, each with the
    slack ``ENVELOPE_TOL``.

    Also bounds the density to the right of x: phi(w) <= 2*phi(x) for every
    w > x when nu <= 1/2 (the factor 2 is what the normalization
    phi(x) = 1/2, phi(w) <= 1 in the contradiction argument delivers; skewed
    densities with their mode right of x show the factor cannot be dropped).
    The measured ratio max phi(w)/phi(x) is reported so monotone examples can
    assert the stronger property.
    """
    ok, idx = is_log_concave(f)
    if not ok:
        raise PreconditionError(f"input is not log-concave (first violation at cell {idx})")
    fn = normalize(f)
    xs = fn.centers
    nu = 1.0 - float(cdf(fn).value_at(x))
    # one cell of quadrature slack at the nu = 1/2 boundary
    if not 0.0 < nu <= 0.5 + 2.0 * fn.dx * float(np.max(fn.values)):
        raise DomainError(f"nu = {nu:.6g} must lie in (0, 1/2]")
    nu = min(nu, 0.5)
    fx = float(fn.evaluate(x))
    if fx <= 0:
        raise PreconditionError("density vanishes at the anchor point")
    window, max_upper, max_lower, ok = _envelope_ratios(fn, x, fx, fx / nu)
    beyond = xs > x + fn.dx
    beyond_ratio = float(np.max(fn.values[beyond]) / fx) if np.any(beyond) else 0.0
    beyond_ok = beyond_ratio <= 2.0 * (1.0 + ENVELOPE_TOL)
    return NuEnvelopeReport(
        nu=nu,
        x=x,
        density_at_x=fx,
        window=window,
        max_upper_ratio=max_upper,
        max_lower_ratio=max_lower,
        max_beyond_ratio=beyond_ratio,
        beyond_ok=beyond_ok,
        ok=ok and beyond_ok,
    )


def interpolation_check(
    phi0: float, phi_lambda: float, phi_half: float, phi1: float, lam: float, eta: float
) -> bool:
    """Midpoint bound for a log-concave function on [0, 1].

    Given phi(lambda) <= (1+eta) phi(0)^(1-lambda) phi(1)^lambda with
    eta < 2*min(lambda, 1-lambda), the conclusion tested here is
    phi(1/2) <= (1 + eta/min(lambda, 1-lambda)) sqrt(phi(0) phi(1)).
    """
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    tau = min(lam, 1.0 - lam)
    if not 0.0 <= eta < 2.0 * tau:
        raise DomainError("hypothesis range: need 0 <= eta < 2*min(lambda, 1-lambda)")
    if min(phi0, phi_lambda, phi_half, phi1) < 0:
        raise DomainError("phi values must be nonnegative")
    bound = (1.0 + eta / tau) * math.sqrt(phi0 * phi1)
    return bool(phi_half <= bound + 1e-12 * max(1.0, bound))
