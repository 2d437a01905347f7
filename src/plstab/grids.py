"""Uniform-grid densities on the real line.

A ``GridFunction`` stores nonnegative cell values sampled at equally spaced
cell centers ``x0 + i*dx``.  Quadrature is the midpoint-cell rectangle rule
``dx * sum(values)``, which is exactly invariant under permutation of the
values; the rearrangement code relies on that exactness.  Values outside the
declared grid range are defined to be zero, so callers should pick windows
wide enough that the boundary cells carry negligible mass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# A cell counts as "in the support" iff its value exceeds this.
SUPPORT_THRESHOLD = 1e-300


class DomainError(ValueError):
    """An argument is outside the operation's domain."""


class PreconditionError(ValueError):
    """A structural precondition on the input data does not hold."""


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative function sampled on a uniform grid.

    ``x0`` is the coordinate of the first cell center, ``dx`` the spacing,
    ``values`` the cell values (length >= 2, all finite and >= 0).
    Instances are immutable; the value array is marked read-only.
    """

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("values must be a 1-D sequence with at least 2 cells")
        if not np.isfinite(self.x0) or not np.isfinite(self.dx) or self.dx <= 0:
            raise DomainError("need finite x0 and dx > 0")
        if not np.all(np.isfinite(vals)):
            raise DomainError("values must be finite")
        if np.any(vals < 0):
            raise DomainError("values must be nonnegative")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "dx", float(self.dx))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def centers(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    @property
    def x_last(self) -> float:
        return self.x0 + self.dx * (self.values.size - 1)

    def evaluate(self, x) -> np.ndarray:
        """Linear interpolation of cell values at cell centers, zero outside."""
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.centers, self.values, left=0.0, right=0.0)
        return out

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.x0, self.dx, values)


def mass(f: GridFunction) -> float:
    """Rectangle-rule integral dx * sum(values).

    Uses exact (correctly rounded) summation so the result is invariant under
    any permutation of the values, which the rearrangement code relies on.
    ``fsum`` reads the same doubles faster through a memoryview than through
    the array's numpy scalars, and, unlike ``tolist()``, without holding a
    Python float per cell at once.
    """
    return f.dx * math.fsum(memoryview(f.values))


def sup_norm(f: GridFunction) -> float:
    return float(np.max(f.values))


def normalize(f: GridFunction) -> GridFunction:
    m = mass(f)
    if m <= 0:
        raise DomainError("zero mass")
    return GridFunction(f.x0, f.dx, f.values / m)


def scale_amplitude(f: GridFunction, a: float) -> GridFunction:
    if not (a > 0) or not np.isfinite(a):
        raise DomainError("amplitude factor must be positive and finite")
    return GridFunction(f.x0, f.dx, f.values * a)


def translate(f: GridFunction, s: float) -> GridFunction:
    """Shift the grid origin by s.  Coordinates are real-valued; no snapping."""
    if not np.isfinite(s):
        raise DomainError("shift must be finite")
    return GridFunction(f.x0 + s, f.dx, f.values)


def support_indices(f: GridFunction):
    """(first, last) indices of cells above the support threshold, or None."""
    idx = np.nonzero(f.values > SUPPORT_THRESHOLD)[0]
    if idx.size == 0:
        return None
    return int(idx[0]), int(idx[-1])


def l1_distance(f: GridFunction, g: GridFunction) -> float:
    """L1 distance between f and g, by one of three paths.

    - Identical grids (same x0, dx and n): the plain rectangle sum
      dx * sum|f - g|.
    - Equal dx, different x0 or n: the exact integral of |f - g| between the
      piecewise-linear interpolants, with the grids' interleaving in closed
      form (``_l1_equal_spacing``).
    - Unequal dx: the same exact integral, segment by segment over the merged
      breakpoint set (``_l1_merged``).

    The interpolants are zero outside their declared ranges.  Exactness makes
    the distance a true metric, so the triangle inequality holds regardless of
    how the two grids interleave; per-pair resampling would break it at
    quadrature order.
    """
    if f.dx == g.dx:
        if f.x0 == g.x0 and f.n == g.n:
            return float(f.dx * np.sum(np.abs(f.values - g.values)))
        return _l1_equal_spacing(f, g)
    return _l1_merged(f, g)


def _l1_merged(f: GridFunction, g: GridFunction) -> float:
    """Exact L1 distance of the interpolants over the merged breakpoints."""
    xs = np.unique(np.concatenate([f.centers, g.centers]))
    h = np.diff(xs)
    t1 = xs[:-1] + h / 3.0
    t2 = xs[:-1] + 2.0 * h / 3.0
    d1 = f.evaluate(t1) - g.evaluate(t1)
    d2 = f.evaluate(t2) - g.evaluate(t2)
    # reconstruct the segment-endpoint values of the linear difference
    e0 = 2.0 * d1 - d2
    e1 = 2.0 * d2 - d1
    tot = np.abs(e0) + np.abs(e1)
    crossing = (e0 * e1 < 0) & (tot > 0)
    seg = np.where(
        crossing,
        (e0 ** 2 + e1 ** 2) / np.where(tot > 0, 2.0 * tot, 1.0),
        0.5 * tot,
    )
    return float(np.sum(h * seg))


def _trapezoid(v: np.ndarray) -> float:
    """Integral of the interpolant of the nodes v, in units of the spacing."""
    return v.sum() - 0.5 * (v[0] + v[-1]) if v.size > 1 else 0.0


def _l1_equal_spacing(f: GridFunction, g: GridFunction) -> float:
    """Exact L1 distance of the interpolants of two grids with equal dx.

    u is the grid with the smaller (x0, n), so the result does not depend on
    the argument order.  In units of dx from u's first node, w's nodes sit at
    j + k + theta, with k = floor(off) >= 0 and 0 <= theta < 1.  So cell
    [i, i+1] of u's frame splits once, at i + theta: its left piece lies in
    w-cell i-k-1 and its right piece in w-cell i-k.  Both grids reach only
    cells k .. c; outside them one interpolant is zero and the distance is the
    other one's trapezoid mass.  On cells k .. c, w's cell ends are
    zero-padded, so a piece outside w's node range counts as 0 (the
    interpolant jumps to zero at the grid's ends, it does not ramp).  Each
    piece is then one exact integral of |linear|.  No sort, no search.
    """
    u, w = (f, g) if (f.x0, f.n) <= (g.x0, g.n) else (g, f)
    uv, wv = u.values, w.values
    off = (w.x0 - u.x0) / u.dx
    if off >= u.n - 1:  # the node ranges meet at most at a point
        return float(u.dx * (_trapezoid(uv) + _trapezoid(wv)))
    k = math.floor(off)
    theta = off - k
    c = min(u.n - 2, k + w.n - 1)
    cells = c - k + 1
    ua, ub = uv[k : c + 1], uv[k + 1 : c + 2]
    # w-cell j sits in slot j+1: the left piece of cell k+q reads slot q, the right piece slot q+1
    wa, wb = np.zeros(cells + 1), np.zeros(cells + 1)
    top = min(cells, w.n - 1)
    wa[1 : top + 1] = wv[:top]
    wb[1 : top + 1] = wv[1 : top + 1]
    u_split = ub - ua  # u at the split point i + theta
    u_split *= theta
    u_split += ua
    w_node = wb - wa  # slot q's w-cell at u's node k+q
    w_node *= 1.0 - theta
    w_node += wa
    # row 0 the left pieces, row 1 the right pieces: |e| runs linearly from |e0| to |e1|
    e0, e1 = np.empty((2, cells)), np.empty((2, cells))
    np.subtract(ua, w_node[:-1], out=e0[0])
    np.subtract(u_split, wa[1:], out=e0[1])
    np.subtract(u_split, wb[:-1], out=e1[0])
    np.subtract(ub, w_node[1:], out=e1[1])
    # mean |e| = (|e0| + |e1|)/2, less |e0*e1|/(|e0| + |e1|) where the sign changes
    cut = e0 * e1
    np.minimum(cut, 0.0, out=cut)
    np.abs(e0, out=e0)
    np.abs(e1, out=e1)
    e0 += e1
    np.maximum(e0, 5e-324, out=e1)  # 0/0 only where e0 = e1 = 0, and cut is 0 there
    cut /= e1
    left, right = 0.5 * e0.sum(axis=1) + cut.sum(axis=1)
    outside = _trapezoid(uv[: k + 1]) + _trapezoid(uv[c + 1 :])
    if c - k < w.n - 1:  # w runs past u's last node: the rest of w-cell c-k, then whole cells
        outside += 0.5 * theta * (w_node[-1] + wv[c - k + 1]) + _trapezoid(wv[c - k + 1 :])
    return float(u.dx * (theta * left + (1.0 - theta) * right + outside))


def boundary_mass(f: GridFunction) -> float:
    """Mass carried by the outermost two cells; should be tiny for a good window."""
    k = min(2, f.n)
    return float(f.dx * (np.sum(f.values[:k]) + np.sum(f.values[-k:])))


def from_csv(path) -> GridFunction:
    """Read a two-column ``x,value`` file with equally spaced increasing x."""
    xs, vs = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if not row or row[0].strip().startswith("#"):
                    continue
                if row[0].strip().lower() == "x":
                    continue
                if len(row) != 2:
                    raise DomainError(f"expected two columns, got {len(row)}: {row!r}")
                xs.append(float(row[0]))
                vs.append(float(row[1]))
        except (DomainError, UnicodeDecodeError):  # the latter is an i/o error, not a row's
            raise
        except (csv.Error, ValueError) as exc:  # a non-numeric cell or an oversized field
            raise DomainError(f"row {reader.line_num}: {exc}") from None
    if len(xs) < 2:
        raise DomainError("need at least two samples")
    x = np.asarray(xs)
    steps = np.diff(x)
    if np.any(steps <= 0):
        raise DomainError("x must be strictly increasing")
    dx = float(np.mean(steps))
    if np.max(np.abs(steps - dx)) > 1e-9 * max(abs(dx), 1e-30):
        raise DomainError("x must be equally spaced (1e-9 relative tolerance)")
    return GridFunction(float(x[0]), dx, np.asarray(vs))


def to_csv(f: GridFunction, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "value"])
        for x, v in zip(f.centers, f.values):
            writer.writerow([repr(float(x)), repr(float(v))])
