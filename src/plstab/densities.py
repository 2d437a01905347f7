"""Sampled reference densities used by the CLI and the test suites."""

from __future__ import annotations

import math

import numpy as np

from .grids import DomainError, GridFunction, from_csv


def make_grid(lo: float, hi: float, n: int):
    """Uniform grid with centers from lo to hi inclusive."""
    if not (hi > lo) or n < 2:
        raise DomainError("need hi > lo and n >= 2")
    dx = (hi - lo) / (n - 1)
    return lo, dx, n


def _centers(lo: float, hi: float, n: int) -> np.ndarray:
    lo, dx, n = make_grid(lo, hi, n)
    return lo + dx * np.arange(n)


def gaussian(mu: float, sigma: float, lo: float, hi: float, n: int) -> GridFunction:
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    xs = _centers(lo, hi, n)
    # a point whose square overflows lies so far from mu that its density is exactly 0
    with np.errstate(over="ignore"):
        vals = np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return GridFunction(lo, (hi - lo) / (n - 1), vals)


def standard_gaussian_pi(lo: float, hi: float, n: int) -> GridFunction:
    """exp(-pi x^2), the unit-mass Gaussian with sup-norm one."""
    xs = _centers(lo, hi, n)
    return GridFunction(lo, (hi - lo) / (n - 1), np.exp(-math.pi * xs ** 2))


def exponential(rate: float, lo: float, hi: float, n: int) -> GridFunction:
    if rate <= 0:
        raise DomainError("rate must be positive")
    xs = _centers(lo, hi, n)
    vals = np.where(xs >= 0.0, rate * np.exp(-rate * np.clip(xs, 0.0, None)), 0.0)
    return GridFunction(lo, (hi - lo) / (n - 1), vals)


def uniform(a: float, b: float, lo: float, hi: float, n: int) -> GridFunction:
    if not b > a:
        raise DomainError("need b > a")
    xs = _centers(lo, hi, n)
    vals = np.where((xs > a) & (xs < b), 1.0 / (b - a), 0.0)
    return GridFunction(lo, (hi - lo) / (n - 1), vals)


def bump(center: float, width: float, lo: float, hi: float, n: int) -> GridFunction:
    """C^2 compactly supported bump (1 - u^2)^3 on |u| < 1, u = 2(x-c)/w."""
    if width <= 0:
        raise DomainError("width must be positive")
    xs = _centers(lo, hi, n)
    with np.errstate(over="ignore"):  # an overflowing u is far outside |u| < 1
        u = 2.0 * (xs - center) / width
        vals = np.where(np.abs(u) < 1.0, (1.0 - u ** 2) ** 3, 0.0)
    return GridFunction(lo, (hi - lo) / (n - 1), vals)


BUILDERS = {
    "gaussian": lambda p, grid: gaussian(p["mu"], p["sigma"], *grid),
    "exponential": lambda p, grid: exponential(p["rate"], *grid),
    "uniform": lambda p, grid: uniform(p["a"], p["b"], *grid),
    "bump": lambda p, grid: bump(p["center"], p["width"], *grid),
    "csv": lambda p, grid: from_csv(p["path"]),
}
