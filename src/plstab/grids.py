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
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property

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

    @classmethod
    def _validated(cls, x0: float, dx: float, values: np.ndarray) -> "GridFunction":
        """A grid on values that already meet every check of ``__post_init__``
        and are read-only, and a finite x0 and dx > 0: no scan, no copy."""
        self = object.__new__(cls)
        object.__setattr__(self, "x0", float(x0))
        object.__setattr__(self, "dx", float(dx))
        object.__setattr__(self, "values", values)
        return self

    @cached_property
    def _sum(self) -> float:
        """The correctly rounded sum of the values (see ``mass``)."""
        parts = []
        for start in range(0, self.values.size, 1 << 25):  # keeps each bin's sum below 2**53
            bits = self.values[start : start + (1 << 25)].view(np.int64)
            expo = (bits >> 52) & 0x7FF  # the mask drops -0.0's sign bit
            counts = np.bincount(expo)
            hi = np.bincount(expo, weights=(bits >> 26) & 0x3FFFFFF)
            hi[1:] += counts[1:] * float(1 << 26)  # the implicit bit of normal values
            lo = np.bincount(expo, weights=bits & 0x3FFFFFF)
            e = np.flatnonzero(counts)
            scale = np.maximum(e, 1) - 1075  # subnormals (e = 0) scale like the smallest normals
            with np.errstate(over="ignore"):  # an infinite part is caught below
                parts += np.ldexp(hi[e], scale + 26).tolist() + np.ldexp(lo[e], scale).tolist()
        total = math.fsum(parts)
        if math.isinf(total):  # a part overflowed, so the sum does
            raise OverflowError("intermediate overflow in fsum")
        return total


def mass(f: GridFunction) -> float:
    """Rectangle-rule integral dx * sum(values), the sum correctly rounded.

    Exact summation makes the result invariant under any permutation of the
    values, which the rearrangement code relies on; it is the double that
    ``math.fsum`` returns.  Each value is sig * 2**(e - 1075), read from its
    bits (subnormals with e = 1), and sig < 2**53 splits into 27 high and 26
    low bits.  ``np.bincount`` sums each half per exponent in doubles, and
    every such sum over at most 2**25 values is an integer below 2**53, so it
    is exact.  Each sum scaled by its power of two is one exact double, and
    ``fsum`` rounds the at most 2 * 2047 of them per 2**25 values once.  The
    sum is computed once per grid; a total that overflows raises
    ``OverflowError`` as ``fsum`` does.
    """
    return f.dx * f._sum


def sup_norm(f: GridFunction) -> float:
    return float(np.max(f.values))


def normalize(f: GridFunction) -> GridFunction:
    m = mass(f)
    if m <= 0:
        raise DomainError("zero mass")
    # rounding is monotone, so every value / m is finite iff the largest is
    if not math.isfinite(sup_norm(f) / m):
        raise DomainError("values must be finite")
    values = f.values / m
    values.flags.writeable = False
    return GridFunction._validated(f.x0, f.dx, values)


def scale_amplitude(f: GridFunction, a: float) -> GridFunction:
    if not (a > 0) or not np.isfinite(a):
        raise DomainError("amplitude factor must be positive and finite")
    # rounding is monotone, so every value * a is finite iff the largest is
    if not math.isfinite(sup_norm(f) * a):
        raise DomainError("values must be finite")
    values = f.values * a
    values.flags.writeable = False
    return GridFunction._validated(f.x0, f.dx, values)


def translate(f: GridFunction, s: float) -> GridFunction:
    """Shift the grid origin by s.  Coordinates are real-valued; no snapping.
    The result shares f's read-only values."""
    x0 = f.x0 + s
    if not math.isfinite(x0):
        raise DomainError("shift must be finite and keep x0 finite")
    return GridFunction._validated(x0, f.dx, f.values)


def support_indices(f: GridFunction):
    """(first, last) indices of cells above the support threshold, or None."""
    idx = np.nonzero(f.values > SUPPORT_THRESHOLD)[0]
    if idx.size == 0:
        return None
    return int(idx[0]), int(idx[-1])


def l1_distance(f: GridFunction, g: GridFunction) -> float:
    """L1 distance between the piecewise-linear interpolants of f and g.

    One metric, computed exactly by one of two paths:

    - equal dx (identical grids included, at offset 0): the grids'
      interleaving in closed form (``_l1_equal_spacing``);
    - unequal dx: segment by segment over the merged breakpoint set
      (``_l1_merged``).

    The interpolants are zero outside their declared ranges.  Exactness makes
    the distance a true metric, continuous under a shift of either grid, so
    the triangle inequality holds however the grids interleave; per-pair
    resampling would break it at quadrature order.  The result does not
    depend on the argument order.
    """
    if f.dx == g.dx:
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
    the argument order; identical grids tie, so where the nodes coincide
    (theta = 0) w is read at u's nodes as its node values themselves, and the
    result stays bit for bit order-free.  In units of dx from u's first node,
    w's nodes sit at j + k + theta, with k = floor(off) >= 0 and
    0 <= theta < 1.  So cell [i, i+1] of u's frame splits once, at
    i + theta: its left piece lies in w-cell i-k-1 and its right piece in
    w-cell i-k.  Both grids reach only cells k .. c; outside them one
    interpolant is zero and the distance is the other one's trapezoid mass.
    On cells k .. c, w's cell ends are zero-padded, so a piece outside w's
    node range counts as 0 (the interpolant jumps to zero at the grid's ends,
    it does not ramp).  Each piece is then one exact integral of |linear|.
    No sort, no search.
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
    if theta == 0.0:  # the nodes coincide
        w_node = wb
    else:
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
    """Read a two-column ``x,value`` file with equally spaced increasing x.

    Empty lines and rows whose first field, stripped, starts with ``#`` or is
    ``x`` in either case are skipped; every other row holds two fields that
    ``float`` reads.  ``_parse_whole`` reads the file in one pass; where it
    declines, ``_parse_rows`` reads it row by row and names the first row it
    cannot read.
    """
    with open(path, newline="") as handle:
        text = handle.read()  # undecodable bytes raise here: an i/o error, not a row's
    try:
        table = _parse_whole(text)
    except ValueError:
        table = _parse_rows(text)
    if len(table) < 2:
        raise DomainError("need at least two samples")
    x = table[:, 0]
    steps = np.diff(x)
    if np.any(steps <= 0):
        raise DomainError("x must be strictly increasing")
    dx = float(np.mean(steps))
    if np.max(np.abs(steps - dx)) > 1e-9 * max(abs(dx), 1e-30):
        raise DomainError("x must be equally spaced (1e-9 relative tolerance)")
    return GridFunction(float(x[0]), dx, table[:, 1])


def _parse_whole(text: str) -> np.ndarray:
    """The (x, value) rows of a csv text as an (n, 2) array, by one
    ``np.loadtxt`` call on the text less its comment and header rows.

    Without quote characters a ``csv`` row is a line split at commas, so the
    two readers see the same fields.  np.loadtxt reads a field as ``float``
    does, through the same string-to-double routine, except for what the
    text is rewritten for first: ``float`` also reads non-ASCII decimal
    digits and underscores between digits, and does not strip the ASCII
    separators 0x1c to 0x1f.  Raises ValueError on a row either reader
    rejects, and on quote characters and fields longer than ``csv``'s field
    limit, which it leaves to ``_parse_rows``.
    """
    # a field longer than csv's limit covers a whole block of half that length
    half = (csv.field_size_limit() + 1) // 2
    blocks = (text[i : i + half] for i in range(0, len(text) - half + 1, half))
    if '"' in text or any(not any(c in b for c in ",\r\n") for b in blocks):
        raise ValueError("quoted or oversized fields")
    if text.count("\r") != text.count("\r\n"):  # np.loadtxt reads CRLF, not a lone CR
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    data = "\n" + text + "\n"
    # each comment or header row, with the line break before it
    data = re.sub(r"\n[^\S\n]*(?:#|[xX][^\S\n]*(?=[,\n]))[^\n]*", "\n", data)
    if any(c in data for c in "\x1c\x1d\x1e\x1f"):
        raise ValueError("a field holds a separator character")
    if not data.isascii():
        data = data.translate({ord(c): str(int(c)) for c in set(data) if c.isdecimal()})
    if "_" in data:
        data = re.sub(r"(?<=\d)_(?=\d)", "", data)
    if not data.strip("\r\n"):
        return np.empty((0, 2))
    table = np.loadtxt(io.StringIO(data), delimiter=",", comments=None, ndmin=2)
    if table.shape[1] != 2:
        raise ValueError("expected two columns")
    return table


def _parse_rows(text: str) -> np.ndarray:
    """``_parse_whole``'s table, read row by row with ``csv.reader`` and
    ``float``; raises DomainError naming the first row it cannot read."""
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            if row[0].strip().lower() == "x":
                continue
            if len(row) != 2:
                raise DomainError(f"expected two columns, got {len(row)}: {row!r}")
            rows.append((float(row[0]), float(row[1])))
    except DomainError:
        raise
    except (csv.Error, ValueError) as exc:  # a non-numeric cell or an oversized field
        raise DomainError(f"row {reader.line_num}: {exc}") from None
    return np.array(rows).reshape(-1, 2)


def to_csv(f: GridFunction, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "value"])
        for x, v in zip(f.centers, f.values):
            writer.writerow([repr(float(x)), repr(float(v))])
