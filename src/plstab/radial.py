"""Radial densities in n dimensions represented as weighted 1-D profiles.

A profile f(r) on r >= 0 stands for the radial function x -> f(|x|) on R^n;
integrals carry the surface-measure weight omega_n * r^(n-1).  The cell at
r = 0 (when present) uses the exact half-cell weight omega_n * (dr/2)^n / n,
which is exact for constant profiles and avoids the r^(n-1) degeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import DomainError, GridFunction, PreconditionError, SUPPORT_THRESHOLD
from .transport import Cdf, MonotoneMap, cdf
from . import supconv as _sc


# Gamma(n/2) overflows a double beyond n = 343
MAX_DIMENSION = 343


def _check_dimension(n: int) -> None:
    if n < 1:
        raise DomainError("dimension must be >= 1")
    if n > MAX_DIMENSION:
        raise DomainError(f"dimension must be <= {MAX_DIMENSION}: Gamma(n/2) overflows beyond it")


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    _check_dimension(n)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialProfile:
    """A radial profile f(r) sampled at r = r0 + i*dr.  ``grid`` is the
    profile as a plain 1-D function of r (no weight), validated once;
    ``values``, ``r0`` and ``dr`` are its fields."""

    n: int
    r0: float
    dr: float
    values: np.ndarray
    grid: GridFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dimension(self.n)
        if self.r0 < 0:
            raise DomainError("r0 must be >= 0")
        grid = GridFunction(self.r0, self.dr, self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", grid.values)
        object.__setattr__(self, "r0", grid.x0)
        object.__setattr__(self, "dr", grid.dx)

    @property
    def radii(self) -> np.ndarray:
        return self.grid.centers

    @property
    def at_origin(self) -> bool:
        """Whether the first cell sits at r = 0."""
        return abs(self.r0) < 1e-15 * self.dr

    @cached_property
    def weights(self) -> np.ndarray:
        """omega_n * dr * r^(n-1) per cell, with the exact half cell at r = 0
        (read-only)."""
        omega = unit_sphere_area(self.n)
        w = omega * self.dr * self.radii ** (self.n - 1)
        if self.at_origin:
            w[0] = omega * (0.5 * self.dr) ** self.n / self.n
        w.flags.writeable = False
        return w

    @cached_property
    def cdf(self) -> Cdf:
        """CDF of the measure f(r) r^(n-1) dr: ``transport.cdf`` of the
        weighted profile f*w/dr, whose first edge r0 - dr/2 is clipped at the
        origin."""
        F = cdf(GridFunction(self.r0, self.dr, self.values * self.weights / self.dr))
        return Cdf(np.maximum(F.edges, 0.0), F.values)

    def is_nonincreasing(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.diff(self.values) <= tol * max(1.0, float(np.max(self.values)))))


def radial_mass(p: RadialProfile) -> float:
    return float(np.sum(p.weights * p.values))


def radial_transport(f: RadialProfile, g: RadialProfile) -> MonotoneMap:
    """Monotone map between the measures f(r) r^(n-1) dr and g(r) r^(n-1) dr.

    The derivative comes from the radial Jacobian identity
    f(r) r^(n-1) = g(T(r)) T(r)^(n-1) T'(r); at r = 0 the limit
    (f(0)/g(0))^(1/n) is used and T(0) = 0 by construction.
    """
    if f.n != g.n:
        raise DomainError("profiles must share the ambient dimension")
    r = f.radii
    T = np.asarray(g.cdf.quantile(f.cdf.value_at(r)), dtype=float)
    if f.at_origin:
        T[0] = 0.0
    # the quantile can land a rounding hair below g's first center, where the
    # interpolant would report zero; evaluate at the clamped radius instead
    gT = g.grid.evaluate(np.maximum(T, g.r0))
    fv = f.values
    n = f.n
    Tp = np.full(r.size, 1.0)
    small = (r < 0.5 * f.dr) | (T < 0.5 * g.dr)
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = ~small & (gT > SUPPORT_THRESHOLD) & (T > 0)
        Tp[regular] = fv[regular] * r[regular] ** (n - 1) / (gT[regular] * T[regular] ** (n - 1))
    # near the origin fall back to the n-th-root limit of the Jacobian identity
    origin = small & (gT > SUPPORT_THRESHOLD) & (fv > SUPPORT_THRESHOLD)
    Tp[origin] = (fv[origin] / gT[origin]) ** (1.0 / n)
    sentinel = (gT <= SUPPORT_THRESHOLD) & (fv > SUPPORT_THRESHOLD)
    Tp[sentinel] = np.inf
    return MonotoneMap(r, T, Tp)


def _square_lhs(a, b, n: int):
    """The square lemma's left side ((a+1)/2)^(n-1) (1+b)/2 - sqrt(b a^(n-1)),
    and the root sqrt(b a^(n-1)); elementwise on arrays."""
    root = np.sqrt(b * a ** (n - 1))
    return ((a + 1.0) / 2.0) ** (n - 1) * (1.0 + b) / 2.0 - root, root


def radial_deficit(f: RadialProfile, g: RadialProfile) -> float:
    """Transport-based deficit of the radial midpoint inequality.

    omega_n * int (f/sqrt(J)) * [((a+1)/2)^(n-1) (1+b)/2 - sqrt(J)] r^(n-1) dr
    with a = T(r)/r, b = T'(r), J = b * a^(n-1); nonnegative term by term.
    """
    if f.n != g.n:
        raise DomainError("profiles must share the ambient dimension")
    mf, mg = radial_mass(f), radial_mass(g)
    if mf <= 0 or mg <= 0:
        raise DomainError("zero mass")
    fn = RadialProfile(f.n, f.r0, f.dr, f.values / mf)
    gn = RadialProfile(g.n, g.r0, g.dr, g.values / mg)
    m = radial_transport(fn, gn)
    r = fn.radii
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(r > 0.5 * fn.dr, m.T / np.where(r > 0, r, 1.0), m.Tprime)
    b = m.Tprime
    # drop cells where the weighted CDF has saturated in double precision:
    # there the Jacobian ratio is rounding noise under an exploding weight
    ok = (
        fn.cdf.resolvable(r)
        & np.isfinite(b)
        & np.isfinite(a)
        & (a > 0)
        & (b > 0)
        & (fn.values > SUPPORT_THRESHOLD)
    )
    lhs, root = _square_lhs(np.where(ok, a, 1.0), np.where(ok, b, 1.0), fn.n)
    return float(np.sum(np.where(ok, fn.values / root * lhs * fn.weights, 0.0)))


def lemma_square_sides(a: float, b: float, n: int):
    """((a+1)/2)^(n-1) (1+b)/2 - sqrt(b a^(n-1)) and (sqrt(b a^(n-1)) - 1)^2."""
    if not (1.0 / 16.0 < a < 16.0 and 1.0 / 16.0 < b < 16.0):
        raise DomainError("a and b must lie in (1/16, 16)")
    if n < 1:
        raise DomainError("dimension must be >= 1")
    lhs, root = _square_lhs(a, b, n)
    return float(lhs), (float(root) - 1.0) ** 2


def lemma_square_min_ratio(n: int) -> float:
    """Minimum of lhs/q over a geometric 200 x 200 (a, b) grid in (1/16, 16)^2.

    Points with q below 1e-12 (the neighborhood of sqrt(b a^(n-1)) = 1) are
    excluded; the degenerate point (1, 1) is covered by diagonal Taylor probes
    at radius 1e-4, which realize the worst direction there.
    """
    gpts = np.exp(np.linspace(math.log(1.0 / 16.0), math.log(16.0), 202)[1:-1])
    A, B = np.meshgrid(gpts, gpts, indexing="ij")
    lhs, root = _square_lhs(A, B, n)
    q = (root - 1.0) ** 2
    sel = q >= 1e-12
    best = float(np.min(lhs[sel] / q[sel]))
    h = 1e-4
    for sa, sb in ((1, 1), (-1, -1)):
        l, qq = lemma_square_sides(1.0 + sa * h, 1.0 + sb * h, n)
        if qq >= 1e-30:
            best = min(best, l / qq)
    return best


def radial_l1_distance(f: RadialProfile, g: RadialProfile) -> float:
    """omega_n * int |f - g| r^(n-1) dr on the common refinement grid.

    On a shared grid the refinement grid is the profiles' own radii, where
    the resampling returns the node values exactly, so the difference is
    taken directly.
    """
    if f.n != g.n:
        raise DomainError("profiles must share the ambient dimension")
    if f.r0 == g.r0 and f.dr == g.dr and f.values.size == g.values.size:
        return float(np.sum(f.weights * np.abs(f.values - g.values)))
    dr = min(f.dr, g.dr)
    lo = min(f.r0, g.r0)
    hi = max(f.radii[-1], g.radii[-1])
    m = int(np.floor((hi - lo) / dr + 0.5)) + 1
    rs = lo + dr * np.arange(max(m, 2))
    diff = np.abs(f.grid.evaluate(rs) - g.grid.evaluate(rs))
    return radial_mass(RadialProfile(f.n, lo, dr, diff))


def radial_sup_convolution(f: RadialProfile, g: RadialProfile, t: float) -> RadialProfile:
    """Profile sup-convolution h(rho) = sup_r f(r)^t g((rho - t r)/(1-t))^(1-t).

    Valid for radially nonincreasing profiles (for those the 1-D split along
    a common ray is optimal); other inputs are rejected, rearrange first.
    """
    if f.n != g.n:
        raise DomainError("profiles must share the ambient dimension")
    for name, p in (("f", f), ("g", g)):
        if not p.is_nonincreasing():
            raise PreconditionError(
                f"{name} is not radially nonincreasing; apply a decreasing rearrangement first"
            )
    res = _sc.sup_convolution(f.grid, g.grid, t)
    return RadialProfile(f.n, max(res.h.x0, 0.0), res.h.dx, res.h.values)


def radial_pl_deficit(h: RadialProfile, f: RadialProfile, g: RadialProfile, lam: float) -> float:
    return _sc.mass_ratio_deficit(radial_mass(h), radial_mass(f), radial_mass(g), lam)


def even_extension(p: RadialProfile) -> GridFunction:
    """The even 1-D function represented by an n = 1 profile."""
    if p.n != 1:
        raise DomainError("even extension is the n = 1 reduction")
    r = p.radii
    if p.at_origin:
        xs = np.concatenate([-r[:0:-1], r])
        vs = np.concatenate([p.values[:0:-1], p.values])
    else:
        xs = np.concatenate([-r[::-1], r])
        vs = np.concatenate([p.values[::-1], p.values])
    return GridFunction(float(xs[0]), p.dr, vs)
