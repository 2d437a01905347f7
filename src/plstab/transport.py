"""Monotone (quantile) transport between 1-D densities and deficit functionals.

The transport map T between probability densities f and g matches cumulative
masses: integral of f up to x equals integral of g up to T(x).  Its derivative
is recovered from the Jacobian identity f(x) = g(T(x)) * T'(x) rather than by
finite differences, which is exact wherever the identity holds and avoids
amplifying quantile interpolation noise.  A finite-difference derivative is
kept available as a diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grids import (
    DomainError,
    GridFunction,
    PreconditionError,
    SUPPORT_THRESHOLD,
    mass,
    normalize,
)

TOL_CDF = 1e-8  # cdf endpoint tolerance after normalization
# cells whose cumulative mass sits closer to 0 or 1 than this are dropped
# from deficit integrals: beyond it the double-precision CDF saturates and
# the Jacobian ratio turns into rounding noise amplified by huge weights
CDF_RESOLUTION = 1e-12


@dataclass(frozen=True)
class Cdf:
    """Piecewise-linear CDF given by values at cell edges (normalized to 1)."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.shape != v.shape or e.ndim != 1 or e.size < 2:
            raise DomainError("edges/values must be matching 1-D arrays")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)

    def value_at(self, x) -> np.ndarray:
        return np.interp(x, self.edges, self.values, left=0.0, right=1.0)

    def resolvable(self, x) -> np.ndarray:
        """Where the cumulative mass at x lies farther than CDF_RESOLUTION from 0 and 1."""
        p = self.value_at(x)
        return (p > CDF_RESOLUTION) & (p < 1.0 - CDF_RESOLUTION)

    def quantile(self, p):
        """Generalized inverse with linear interpolation inside cells."""
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr < -1e-12) or np.any(p_arr > 1.0 + 1e-12):
            raise DomainError("quantile probability must lie in [0, 1]")
        p_arr = np.clip(p_arr, 0.0, 1.0)
        # searchsorted('left') picks the first edge with value >= p, which is
        # the generalized inverse on flat stretches of the CDF.  p = 0 maps to
        # the left edge of the support rather than the grid edge.
        idx = np.searchsorted(self.values, p_arr, side="left")
        if np.any(p_arr == 0.0):
            first_pos = np.searchsorted(self.values, 0.0, side="right")
            idx = np.where(p_arr == 0.0, first_pos, idx)
        idx = np.clip(idx, 1, self.values.size - 1)
        v0 = self.values[idx - 1]
        v1 = self.values[idx]
        e0 = self.edges[idx - 1]
        e1 = self.edges[idx]
        dv = v1 - v0
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(dv > 0, (p_arr - v0) / np.where(dv > 0, dv, 1.0), 0.0)
        w = np.clip(w, 0.0, 1.0)
        out = e0 + w * (e1 - e0)
        return out if out.ndim else float(out)


def cdf(f: GridFunction) -> Cdf:
    """CDF of the internally normalized density, sampled at cell edges."""
    m = mass(f)
    if m <= 0:
        raise DomainError("zero mass")
    edges = f.x0 - 0.5 * f.dx + f.dx * np.arange(f.n + 1)
    acc = np.concatenate([[0.0], np.cumsum(f.values)]) * f.dx / m
    acc = np.minimum(acc, 1.0)
    acc[-1] = 1.0
    return Cdf(edges, acc)


@dataclass(frozen=True)
class MonotoneMap:
    """Sampled nondecreasing map with derivative values.

    ``Tprime`` holds +inf sentinels on cells where the target density vanishes
    while the source does not; such cells are excluded from deficit integrals
    and their mass is surfaced through :func:`excluded_mass`.
    """

    x: np.ndarray
    T: np.ndarray
    Tprime: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        T = np.asarray(self.T, dtype=float)
        Tp = np.asarray(self.Tprime, dtype=float)
        if not (x.shape == T.shape == Tp.shape):
            raise DomainError("x, T, Tprime must share a shape")
        if np.any(np.diff(T) < -1e-9 * (np.max(np.abs(T)) + 1.0)):
            raise DomainError("T must be nondecreasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "Tprime", Tp)

    def tprime_fd(self) -> np.ndarray:
        """Finite-difference derivative of T (diagnostic cross-check only)."""
        return np.gradient(self.T, self.x)

    def sentinel_mask(self) -> np.ndarray:
        return ~np.isfinite(self.Tprime)


def monotone_transport(f: GridFunction, g: GridFunction) -> MonotoneMap:
    """Quantile coupling T with T(x) = quantile_g(cdf_f(x)) on f's grid."""
    if mass(f) <= 0 or mass(g) <= 0:
        raise DomainError("zero mass")
    Ff = cdf(f)
    Fg = cdf(g)
    xs = f.centers
    T = np.asarray(Fg.quantile(Ff.value_at(xs)), dtype=float)
    gT = g.evaluate(T)
    fv = f.values
    Tp = np.empty_like(fv)
    pos = gT > SUPPORT_THRESHOLD
    Tp[pos] = fv[pos] / gT[pos]
    # f > 0 pushed onto vanishing g: flag with +inf; f = 0 cells are inert.
    zero_target = ~pos
    Tp[zero_target & (fv > SUPPORT_THRESHOLD)] = np.inf
    Tp[zero_target & (fv <= SUPPORT_THRESHOLD)] = 1.0
    return MonotoneMap(xs, T, Tp)


def excluded_mass(f: GridFunction, m: MonotoneMap) -> float:
    """f-mass on cells where T' carries the +inf sentinel."""
    bad = m.sentinel_mask()
    return float(f.dx * np.sum(f.values[bad]))


def _deficit_integrand(tprime: np.ndarray, lam: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1.0 - np.sqrt(tprime)) ** 2 / tprime ** (1.0 - lam)


def transport_deficit(f: GridFunction, g: GridFunction, lam: float) -> float:
    """tau * integral of f * (1 - sqrt(T'))^2 / (T')^(1-lambda).

    Cells with the +inf derivative sentinel are excluded (their mass is
    available via :func:`excluded_mass`).
    """
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    fn = normalize(f)
    return _map_deficit(fn, monotone_transport(fn, normalize(g)), lam)


def _map_deficit(fn: GridFunction, m: MonotoneMap, lam: float) -> float:
    """The transport deficit of a normalized density fn under its map m,
    so one map can serve several lambdas."""
    tau = min(lam, 1.0 - lam)
    fv = fn.values
    term = np.zeros_like(fv)
    resolvable = cdf(fn).resolvable(fn.centers)
    ok = resolvable & np.isfinite(m.Tprime) & (m.Tprime > 0) & (fv > SUPPORT_THRESHOLD)
    term[ok] = fv[ok] * _deficit_integrand(m.Tprime[ok], lam)
    return float(tau * fn.dx * np.sum(term))


def midpoint_deficit(f: GridFunction, g: GridFunction) -> float:
    """integral of f * (1 - sqrt(T'))^2 / (2 sqrt(T')); equals the lambda=1/2
    transport deficit."""
    return transport_deficit(f, g, 0.5)


def mirror_deficit(f: GridFunction, g: GridFunction, lam: float) -> float:
    """Same deficit with roles swapped: tau * int g (1-sqrt(S'))^2 / (S')^lambda."""
    return transport_deficit(g, f, 1.0 - lam)


def bad_set_measure(
    f: GridFunction, m: MonotoneMap, eta: float, lo: float = 0.1, hi: float = 10.0
) -> float:
    """Measure of {f > eta} where T' leaves (lo, hi); +inf sentinels count."""
    if eta <= 0:
        raise DomainError("eta must be positive")
    with np.errstate(invalid="ignore"):
        bad = (m.Tprime > hi) | (m.Tprime < lo)
    bad |= m.sentinel_mask()
    return float(f.dx * np.count_nonzero(bad & (f.values > eta)))


def tail_cut_points(f: GridFunction, mass_level: float):
    """Quantiles (x1, x2) cutting mass_level from each tail of normalized f."""
    if mass(f) <= 0:
        raise DomainError("zero mass")
    if not 0.0 < mass_level < 0.5:
        raise DomainError("mass_level must lie in (0, mass/2)")
    F = cdf(f)
    return float(F.quantile(mass_level)), float(F.quantile(1.0 - mass_level))


@dataclass(frozen=True)
class BiLipschitzReport:
    ok: bool
    tprime_max: float
    sprime_max: float
    x_cut: tuple
    y_cut: tuple
    hypothesis_ok: bool
    note: str = ""


def check_bilipschitz(
    f: GridFunction, g: GridFunction, mass_level: float, bound: float = 16.0
) -> BiLipschitzReport:
    """Verify T' < bound on (x1, x2) and S' < bound on (y1, y2).

    The cut points remove ``mass_level`` from each tail.  Log-concavity of both
    inputs is a precondition; two boundary cells on each side of the cut are
    excluded from the derivative scan.  When ``mass_level >= 1/6`` the usual
    hypothesis fails and the report flags it instead of erroring.
    """
    from .logconcave import is_log_concave

    for name, fn in (("f", f), ("g", g)):
        ok, idx = is_log_concave(fn)
        if not ok:
            raise PreconditionError(f"{name} is not log-concave (first violation at cell {idx})")
    fn = normalize(f)
    gn = normalize(g)
    x1, x2 = tail_cut_points(fn, mass_level)
    y1, y2 = tail_cut_points(gn, mass_level)
    Tmap = monotone_transport(fn, gn)
    Smap = monotone_transport(gn, fn)

    def interior_max(m, xs, lo, hi):
        inside = (xs > lo) & (xs < hi)
        idx = np.nonzero(inside)[0]
        if idx.size <= 4:
            return 0.0
        idx = idx[2:-2]
        vals = m.Tprime[idx]
        vals = vals[np.isfinite(vals)]
        return float(np.max(vals)) if vals.size else 0.0

    tmax = interior_max(Tmap, fn.centers, x1, x2)
    smax = interior_max(Smap, gn.centers, y1, y2)
    hyp = mass_level < 1.0 / 6.0
    note = "" if hyp else "tail mass level >= 1/6: hypothesis of the derivative bound fails"
    return BiLipschitzReport(
        ok=bool(tmax < bound and smax < bound),
        tprime_max=tmax,
        sprime_max=smax,
        x_cut=(x1, x2),
        y_cut=(y1, y2),
        hypothesis_ok=hyp,
        note=note,
    )


@dataclass(frozen=True)
class DeficitReport:
    """Scalar summary of one (f, g, h) triple at a given lambda."""

    lambda_: float
    tau: float
    epsilon: float
    transport_deficit: float
    midpoint_deficit: float
    bad_set_measure: float
    tail_cut: tuple

    def __post_init__(self):
        if abs(self.tau - min(self.lambda_, 1.0 - self.lambda_)) > 1e-12:
            raise DomainError("tau must equal min(lambda, 1 - lambda)")
        for name in ("transport_deficit", "midpoint_deficit", "bad_set_measure"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise DomainError(f"{name} must be finite and >= 0")
        if not np.isfinite(self.epsilon):
            raise DomainError("epsilon must be finite")

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lambda_,
            "tau": self.tau,
            "epsilon": self.epsilon,
            "transport_deficit": self.transport_deficit,
            "midpoint_deficit": self.midpoint_deficit,
            "bad_set_measure": self.bad_set_measure,
            "tail_cut": list(self.tail_cut),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)
