"""Sup-convolutions h_t(z) = sup over z = t*x + (1-t)*y of f(x)^t g(y)^(1-t).

Everything runs in the log domain with -inf sentinels for zero cells, so
0^t * anything = 0 by convention.  Each output cell is found in two stages.
Stage 1 maximizes the objective x -> t*log f(x) + (1-t)*log g((z - t*x)/(1-t))
with log f and log g interpolated linearly between grid nodes.  For
log-concave inputs its maximum is the upper boundary of the Minkowski sum
t*hypo(log f) + (1-t)*hypo(log g), which is exact in O(n_f + n_g) by merging
the two edge lists by slope (the idea of Lucet's linear-time Legendre
transform); every vertex of the merged chain is a pair of grid nodes, so the
stage-1 value is attained.  Stage 1 on non-log-concave inputs is a scan of
every f-grid node per output cell, pruned by two certificates.  The
log-concave hulls of f and g bound the objective by one concave in x, whose
maximum the same slope merge places; a bisection keeps the interval of nodes
whose bound reaches the value attained beside that maximum.  Cells whose
interval is wider than a block of 32 nodes also bound each block (max log f
plus a range-max of log g over the cells the block can reach) and skip those
below a value already attained.  The pruned scan returns bit for bit what the
full scan returns and evaluates ~1.2% of its node pairs on bimodal inputs,
the certificate's own evaluations included (~7% with block bounds alone).

Stage 2 maximizes the same objective with three-point quadratic
interpolation of the log values over a window of half-width
w = max(dx_f, dx_g*(1-t)/t) around the stage-1 point.  This removes the
O(dx^2) flattening bias of piecewise linear interpolation, which matters when
deficits of order 1e-6 are measured.  The interpolant switches stencil at
every multiple of half a cell (``rint`` picks the three-point centre, the
linear fallback beside zero cells its ``floor`` cell), so between consecutive
switches of f in x and of g in y the model is one quadratic in x, and its
maximum on the window is the best of one candidate per piece: the vertex,
clipped to the piece, where the piece is concave, else the end its slope
rises to.  Each candidate is evaluated with the stencils its piece takes at
its midpoint, that is, as the one-sided limit at a piece end, where the model
jumps by t*D3/8.  With its two ends, a window holds at most 8 + 4*rho such
breakpoints, rho the larger of t*dx_f/((1-t)*dx_g) and its inverse (12 at
t = 1/2 on equal grids); calls with more than ``_EXACT_MAX_BREAKPOINTS``
keep the bracketed ternary search, which is cheaper there (its 45 steps cost
the same at any t, the enumeration grows with rho).  Each step evaluates both
probes in one call of the direct objective.  Both paths evaluate the model
through ``_LogInterp.piece``, ``value`` and ``slopes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DomainError,
    GridFunction,
    SUPPORT_THRESHOLD,
    mass,
    support_indices,
)
from .logconcave import concave_majorant, is_log_concave
from .transport import monotone_transport

DEFAULT_MAX_CELLS = 8192  # fixed; the name stays because perfbench/layers.py reads it
_NEG = -np.inf
_SCAN_BLOCK = 32  # f-nodes per bounded block of the grid scan
_SCAN_ROWS = 256  # output cells per vectorized chunk of the grid scan
# Stage 2 enumerates the pieces of windows of at most this many breakpoints
# (ends included; see _enumerates) and runs the ternary search on wider ones.
# Stage-2 ms per call, ternary -> enumeration, random_log_concave_pair(3) at
# n = 4096 and 16384 (8192 output cells), 2-core Xeon, numpy 2.4: 12
# breakpoints (t = 0.5) 8.2 -> 3.1 and 17.1 -> 6.1; 30 (t = 0.15) 8.8 -> 7.5
# and 17.8 -> 15.3; 34 (t = 0.13) 8.4 -> 8.3 and 17.0 -> 17.6; 37 (t = 0.12)
# 8.4 -> 9.1 and 16.8 -> 18.9.  Break-even is near 33.
_EXACT_MAX_BREAKPOINTS = 30


def _log_values(f: GridFunction) -> np.ndarray:
    out = np.full(f.n, _NEG)
    pos = f.values > SUPPORT_THRESHOLD
    out[pos] = np.log(f.values[pos])
    return out


class _LogInterp:
    """Vectorized interpolation of log values (-inf at zero cells) on the grid
    x0 + dx*k, with -inf outside the support.

    Both interpolants read tables built once per density, so a query is a
    few gathers and fused arithmetic.  Per cell k (u in [k, k+1)) the linear
    tables hold base = y_k and step = y_{k+1} - y_k when both ends are
    finite, and base = -inf, step = 0 otherwise; two extra -inf cells at the
    end catch u in [n-1, n) and, by negative indexing, u in [-1, 0), and a
    query clipped into one of them stays -inf because s*0 is finite.  A
    query exactly on a node (s == 0) takes the node value, even when a
    neighbour is zero.  Per node k the quadratic tables hold
    D1 = y_{k+1} - y_{k-1} and D2 = y_{k+1} - 2*y_k + y_{k-1} and whether
    one of the three values is not finite (always at the end nodes, so grids
    of fewer than three cells always fall back to linear).  Every output
    element goes through the IEEE operations of the direct formulas in the
    same order, with the differences computed once, so the results are bit
    for bit those of evaluating the formulas per query.

    ``piece`` names the piece of the three-point model that holds a
    fractional index; ``value`` and ``slopes`` evaluate a piece and its
    derivatives at any index, and ``quadratic`` each query on its own piece.
    """

    def __init__(self, x0: float, dx: float, logv: np.ndarray):
        self.x0 = x0
        self.dx = dx
        self.n = n = logv.size
        # node values plus one -inf slot that index -1 (u in [-1, 0)) reads
        self._node = np.append(logv, _NEG)
        self.logv = self._node[:n]
        y0, y1 = self.logv[:-1], self.logv[1:]
        both = np.isfinite(y0) & np.isfinite(y1)
        self._base = np.full(n + 1, _NEG)
        self._base[: n - 1][both] = y0[both]
        self._step = np.zeros(n + 1)
        self._step[: n - 1][both] = y1[both] - y0[both]
        ym, yc, yp = self.logv[:-2], self.logv[1:-1], self.logv[2:]
        ok = np.isfinite(ym) & np.isfinite(yc) & np.isfinite(yp)
        self._no_stencil = np.ones(n, dtype=bool)
        self._no_stencil[1:-1] = ~ok
        self._d1 = np.zeros(n)
        self._d1[1:-1][ok] = yp[ok] - ym[ok]
        self._d2 = np.zeros(n)
        self._d2[1:-1][ok] = yp[ok] - 2.0 * yc[ok] + ym[ok]

    def index(self, q: np.ndarray) -> np.ndarray:
        """The fractional index (q - x0)/dx of the points q."""
        u = np.subtract(q, self.x0)
        u /= self.dx
        return u

    def linear(self, q: np.ndarray) -> np.ndarray:
        u = self.index(q)
        kf, k = self.cell(u)
        return self.two_point(np.subtract(u, kf, out=u), k)

    def cell(self, u: np.ndarray):
        """The linear cell floor(u) of fractional indices u, clipped to
        [-1, n-1] (the -inf cells), as a float and as an index."""
        kf = np.floor(u)
        np.maximum(kf, -1.0, out=kf)
        np.minimum(kf, self.n - 1, out=kf)
        return kf, kf.astype(np.intp)

    def two_point(self, s: np.ndarray, k: np.ndarray) -> np.ndarray:
        """base[k] + s*step[k] at offsets s from the nodes k of their cells; an
        offset of exactly 0 takes the node value."""
        val = self._step.take(k, mode="wrap")
        val *= s
        val += self._base.take(k, mode="wrap")
        node = s == 0.0
        if node.any():
            val[node] = self._node[k[node]]
        return val

    def piece(self, u: np.ndarray):
        """The piece of the three-point model that holds the fractional
        indices u: its stencil centre rint(u) clipped to [1, n-2], or, where
        lin is set (u off the grid or a stencil value not finite), the linear
        cell of ``cell``.  Returns (k, lin)."""
        kf = np.rint(u)
        np.maximum(kf, 1.0, out=kf)
        np.minimum(kf, self.n - 2, out=kf)
        k = kf.astype(np.intp)
        lin = self._no_stencil.take(k, mode="wrap")
        lin |= u < 0.0
        lin |= u > self.n - 1
        if lin.any():
            k[lin] = self.cell(u[lin])[1]
        return k, lin

    def value(self, u: np.ndarray, k: np.ndarray, lin: np.ndarray) -> np.ndarray:
        """The model at fractional indices u on the pieces (k, lin) of
        ``piece``: logv[k] + h*D1[k] + h*s*D2[k], h = s/2, at offsets s = u - k
        from the stencil centres, or the linear value on the cells where lin
        is set.  D1 = D2 = 0 where the stencil is not finite: no inf - inf."""
        s = u - k
        h = s * 0.5
        val = self._d1.take(k, mode="wrap")
        val *= h
        val += self.logv.take(k, mode="wrap")
        h *= s
        h *= self._d2.take(k, mode="wrap")
        val += h
        if lin.any():
            val[lin] = self.two_point(s[lin], k[lin])
        return val

    def slopes(self, u: np.ndarray, k: np.ndarray, lin: np.ndarray):
        """The model's first and second derivatives in u on the pieces (k, lin)
        of ``piece``: D1/2 + s*D2 and D2 at offsets s = u - k, or step and 0 on
        the linear cells."""
        d2 = self._d2.take(k, mode="wrap")
        d1 = u - k
        d1 *= d2
        d1 += 0.5 * self._d1.take(k, mode="wrap")
        if lin.any():
            d1[lin] = self._step.take(k[lin], mode="wrap")
            d2[lin] = 0.0
        return d1, d2

    def quadratic(self, q: np.ndarray) -> np.ndarray:
        """Three-point Lagrange interpolation; falls back to linear near zeros."""
        u = self.index(q)
        return self.value(u, *self.piece(u))


def _log_interp(f: GridFunction) -> _LogInterp:
    return _LogInterp(f.x0, f.dx, _log_values(f))


def _log_hull(li: _LogInterp) -> _LogInterp:
    """The least concave majorant of li's log values between its first and
    last finite node (zero cells between them bridged, -inf outside), on li's
    grid and never below a log value: built in the log domain, it takes the
    larger of the interpolated chain and the node's own value."""
    finite = np.nonzero(np.isfinite(li.logv))[0]
    a, b = finite[0], finite[-1] + 1
    logv = li.logv[a:b]
    hull = np.full(li.n, _NEG)
    hull[a:b] = np.maximum(concave_majorant(li.x0 + li.dx * np.arange(a, b), logv)[0], logv)
    return _LogInterp(li.x0, li.dx, hull)


@dataclass(frozen=True)
class SupConvResult:
    """Sup-convolution output plus the maximizing x for each output cell."""

    h: GridFunction
    attained_x: np.ndarray


def _support_range(f: GridFunction):
    idx = support_indices(f)
    if idx is None:
        raise DomainError("zero function has no sup-convolution support")
    lo, hi = idx
    return f.x0 + lo * f.dx, f.x0 + hi * f.dx


def _support_nodes(li: _LogInterp):
    """Positions and log values of the finite nodes, assumed contiguous."""
    finite = np.isfinite(li.logv)
    start = int(np.argmax(finite))
    stop = li.n - int(np.argmax(finite[::-1]))
    return li.x0 + li.dx * np.arange(start, stop), li.logv[start:stop]


def _merge_max(lf: _LogInterp, lg: _LogInterp, t: float, z: np.ndarray):
    """Max over x of t*log f(x) + (1-t)*log g((z - t*x)/(1-t)), log f and log g
    piecewise linear and concave on contiguous supports.

    The hypograph of the maximum is t*hypo(log f) + (1-t)*hypo(log g), whose
    upper boundary is the chain of both edge lists merged by slope, steepest
    first (f first on ties).  One searchsorted places the f-edges among the
    g-edges; the running maximum keeps the interleaving monotone where
    round-off inverts slopes by ~1e-14.  Vertex m is a node pair (i, j) and
    is evaluated from the node values, not by summing edges, so every vertex
    is an attained value.  Returns, per output cell, the f-coordinate and the
    value interpolated along the chain segment that holds z; cells just
    outside the chain take its end vertex, and zero-length segments (t*dx
    below the spacing of representable values near z) take their first.
    """
    xf, yf = _support_nodes(lf)
    xg, yg = _support_nodes(lg)
    nf = yf.size - 1
    edges = nf + yg.size - 1
    # g-edges steeper than each f-edge (f first on ties)
    before = np.searchsorted(-np.diff(yg) / lg.dx, -np.diff(yf) / lf.dx)
    from_f = np.zeros(edges, dtype=bool)
    from_f[np.maximum.accumulate(before) + np.arange(nf)] = True
    # vertex m is the node pair (i[m], m - i[m]); the merge arrays are freed
    # as soon as they are used, since they are as long as both grids together
    del before
    i = np.zeros(edges + 1, dtype=np.int32)
    np.cumsum(from_f, out=i[1:])
    del from_f
    X = t * xf[i]
    X += (1.0 - t) * xg[np.arange(edges + 1, dtype=np.int32) - i]
    m = np.clip(np.searchsorted(X, z, side="right") - 1, 0, max(edges - 1, 0))
    m1 = np.minimum(m + 1, edges)
    dX = X[m1] - X[m]
    w = np.divide(z - X[m], dX, out=np.zeros(z.size), where=dX > 0.0)
    w = np.clip(w, 0.0, 1.0)
    a, b = i[m], i[m1]
    va = t * yf[a] + (1.0 - t) * yg[m - a]
    vb = t * yf[b] + (1.0 - t) * yg[m1 - b]
    return xf[a] + w * (xf[b] - xf[a]), va + w * (vb - va)


def _ternary_max(obj, z, lo, hi, iters):
    """Vectorized ternary search of a concave objective on [lo, hi] per cell.

    Both probes of a step go to one call of the objective, stacked as
    [m1; m2] of shape (2,) + lo.shape with z broadcast against them, so the
    objective must be elementwise; then every value is the one two separate
    calls would give.  The search narrows its own copy of the bracket in
    place.
    """
    lo = lo.copy()
    hi = hi.copy()
    probes = np.empty((2,) + lo.shape)
    m1, m2 = probes
    move = np.empty(lo.shape, dtype=bool)
    for _ in range(iters):
        np.subtract(hi, lo, out=m1)
        m1 /= 3.0
        np.subtract(hi, m1, out=m2)
        m1 += lo
        v1, v2 = obj(z, probes)
        np.less(v1, v2, out=move)
        np.copyto(lo, m1, where=move)
        np.logical_not(move, out=move)
        np.copyto(hi, m2, where=move)
    xs = 0.5 * (lo + hi)
    return xs, obj(z, xs)


def _enumerates(t: float, dx_f: float, dx_g: float) -> bool:
    """Whether stage 2 takes every piece of its windows rather than the
    ternary search: whether a window holds at most _EXACT_MAX_BREAKPOINTS
    breakpoints, its ends included.

    The window is [x1 - w, x1 + w] with w = max(dx_f, dx_g*(1-t)/t).  The
    model switches stencil at every multiple of half a cell of f in x and of
    g in y = (z - t*x)/(1-t), whose range is the window's times t/(1-t); so
    the window holds at most floor(4w/dx_f) + 1 of f's switches and
    floor(4w*t/((1-t)*dx_g)) + 1 of g's.  One of 4w/dx_f and
    4w*t/((1-t)*dx_g) is 4 and the other 4*rho, rho the larger of a/b and
    b/a for a = t*dx_f and b = (1-t)*dx_g, so the count is 8 + floor(4*rho)
    (12 at rho = 1).  Reads only (t, dx_f, dx_g), and is symmetric under
    (f, t) <-> (g, 1-t).
    """
    a, b = t * dx_f, (1.0 - t) * dx_g
    # 8 + floor(4*rho) <= K* without a division
    return 4.0 * max(a, b) < (_EXACT_MAX_BREAKPOINTS - 7) * min(a, b)


def _exact_max(lf: _LogInterp, lg: _LogInterp, t: float, z, lo, hi):
    """Per cell, the maximum over x in [lo, hi] of the stage-2 model
    t*Q_f(x) + (1-t)*Q_g((z - t*x)/(1-t)), Q the three-point interpolant of
    ``_LogInterp.quadratic``, and the first x in order that attains it;
    a window with hi < lo is the point lo.

    Between consecutive breakpoints (multiples of half a cell of f in x and
    of g in y) every stencil is fixed, so the model is one quadratic in x.
    Each piece contributes one candidate: the vertex clipped to the piece
    where it is concave, else the end its midpoint slope points to.  The
    candidate is evaluated on the pieces ``_LogInterp.piece`` gives at the
    midpoint (the one-sided limit at a piece end; the model jumps there by
    t*D3/8), through the ``value`` that ``quadratic`` runs.

    Rows hold each window's breakpoints, padded with its ends and sorted;
    they are processed in chunks of about max(n, 2**13) elements.
    """
    xs = np.empty(z.size)
    vs = np.empty(z.size)
    a = lo
    b = np.maximum(lo, hi)

    def halves(li, x):
        # x in half cells of li's grid
        return 2.0 * (x - li.x0) / li.dx

    def y_of(zz, x):
        return (zz - t * x) / (1.0 - t)

    # the most multiples of half a cell strictly inside one window, of f in
    # x and of g in y (which runs from y(b) up to y(a))
    nf = int(max(np.max(np.ceil(halves(lf, b)) - np.floor(halves(lf, a))) - 1.0, 0.0))
    ng = int(max(np.max(np.ceil(halves(lg, y_of(z, a))) - np.floor(halves(lg, y_of(z, b))))
                 - 1.0, 0.0))
    cols = nf + ng + 2
    rows = max(1, max(z.size, 1 << 13) // cols)
    up_f = np.arange(1.0, nf + 1.0)
    up_g = np.arange(1.0, ng + 1.0)
    c1 = lf.dx / lg.dx
    c2 = t * c1 * c1 / (1.0 - t)
    for start in range(0, z.size, rows):
        stop = min(start + rows, z.size)
        zz = z[start:stop, None]
        aa, bb = a[start:stop, None], b[start:stop, None]
        # breakpoints, clipped into the window and sorted along each row
        bp_f = np.floor(halves(lf, aa)) + up_f
        bp_f *= 0.5 * lf.dx
        bp_f += lf.x0
        bp_g = np.floor(halves(lg, y_of(zz, bb))) + up_g
        bp_g *= 0.5 * lg.dx
        bp_g += lg.x0
        bp_g *= 1.0 - t
        bp = np.concatenate([aa, bp_f, (zz - bp_g) / t, bb], axis=1)
        np.maximum(bp, aa, out=bp)
        np.minimum(bp, bb, out=bp)
        bp.sort(axis=1)
        p_lo, p_hi = bp[:, :-1], bp[:, 1:]
        # each piece's stencils at its midpoint, and the model's slope and
        # curvature there, in units of f's cells
        mid = 0.5 * (p_lo + p_hi)
        u_f = lf.index(mid)
        u_g = lg.index(y_of(zz, mid))
        piece_f = lf.piece(u_f)
        piece_g = lg.piece(u_g)
        d1_f, d2_f = lf.slopes(u_f, *piece_f)
        d1_g, d2_g = lg.slopes(u_g, *piece_g)
        slope = d1_f - c1 * d1_g
        curv = d2_f + c2 * d2_g
        # the candidate: the clipped vertex of a concave piece, else the end
        # the slope rises to (the lower end on a flat slope)
        step = np.where(slope > 0.0, -np.inf, np.inf)
        np.divide(slope, curv, out=step, where=curv < 0.0)
        step *= lf.dx
        x = np.subtract(mid, step, out=mid)
        np.maximum(x, p_lo, out=x)
        np.minimum(x, p_hi, out=x)
        # the candidates' values on their pieces, formed as the stage-2
        # objective forms them
        v = (t * lf.value(lf.index(x), *piece_f)
             + (1.0 - t) * lg.value(lg.index(y_of(zz, x)), *piece_g))
        best = np.argmax(v, axis=1)
        row = np.arange(stop - start)
        vs[start:stop] = v[row, best]
        xs[start:stop] = x[row, best]
    return xs, vs


def _range_max_table(v: np.ndarray) -> np.ndarray:
    """Sparse table: row k holds max(v[i : i + 2**k]) at column i (-inf padded)."""
    levels = [v]
    width = 1
    while 2 * width <= v.size:
        levels.append(np.maximum(levels[-1][:-width], levels[-1][width:]))
        width *= 2
    table = np.full((len(levels), v.size), _NEG)
    for k, row in enumerate(levels):
        table[k, : row.size] = row
    return table


def _scan_values(t, xs, logv, li, zz, j):
    """t*logv[j] + (1-t)*li.linear((zz - t*xs[j])/(1-t)), elementwise."""
    return t * logv[j] + (1.0 - t) * li.linear((zz - t * xs[j]) / (1.0 - t))


def _hull_interval(lf: _LogInterp, lg: _LogInterp, t: float, z: np.ndarray, xs, logf):
    """Per output cell, the attained value lb0 and the first and last of the
    finite f-nodes xs (log values logf) that the hull certificate of
    ``_block_scan_max`` keeps: every node where lb0 = -inf."""
    hf, hg = _log_hull(lf), _log_hull(lg)
    hull_f = hf.logv[np.isfinite(lf.logv)]
    last = xs.size - 1
    # lb0: the better of the two finite nodes beside the hull maximizer
    beside = np.searchsorted(xs, _merge_max(hf, hg, t, z)[0])
    pair = np.stack([np.maximum(beside - 1, 0), np.minimum(beside, last)], axis=1)
    v = _scan_values(t, xs, logf, lg, z[:, None], pair)
    side = np.argmax(v, axis=1)
    j0 = pair[np.arange(z.size), side]
    lb0 = v[np.arange(z.size), side]
    jl = np.zeros(z.size, dtype=np.intp)
    jr = np.full(z.size, last, dtype=np.intp)
    rows = np.nonzero(lb0 > _NEG)[0]
    steepest = np.max(np.abs(np.diff(hg.logv[np.isfinite(hg.logv)])), initial=0.0)
    lip = (steepest * 4.0 * np.finfo(float).eps
           * ((np.abs(z[rows]) + np.max(np.abs(xs))) / lg.dx + 2.0 * lg.n))
    slack = 1e-12 * (1.0 + np.abs(lb0[rows])) + 2.0 * lip

    def kept(act, j):
        g = _scan_values(t, xs, hull_f, hg, z[rows[act]], j)
        return g + slack[act] >= lb0[rows[act]]

    def reach(inner, end):
        # the node next to a rejected node, or to the virtual node `end` (-1
        # or last + 1), that the hull keeps, given that it keeps `inner`:
        # gallop out by 1, 2, 4, ... nodes to the first rejected node, then
        # bisect only that last bracket
        way = 1 if end > 0 else -1
        inner, outer = inner.copy(), np.full(inner.size, end)
        act, step = np.arange(inner.size), 1
        while act.size:
            j = inner[act] + way * step
            inside = way * (end - j) > 0  # a row that gallops past the end brackets it
            act, j = act[inside], j[inside]
            keep = kept(act, j)
            inner[act[keep]] = j[keep]
            outer[act[~keep]] = j[~keep]
            act = act[keep]
            step *= 2
        while True:
            act = np.nonzero(np.abs(outer - inner) > 1)[0]
            if act.size == 0:
                return inner
            mid = (inner[act] + outer[act]) // 2
            keep = kept(act, mid)
            inner[act] = np.where(keep, mid, inner[act])
            outer[act] = np.where(keep, outer[act], mid)

    jl[rows] = reach(j0[rows], -1)
    jr[rows] = reach(j0[rows], last + 1)
    return lb0, jl, jr


def _block_scan_max(lf: _LogInterp, lg: _LogInterp, t: float, z: np.ndarray):
    """Max over the finite f-grid nodes x_j of F(j) = t*log f(x_j) +
    (1-t)*log g(y_j), y_j = (z - t*x_j)/(1-t).

    Returns, per output cell, the first maximizing node and its value (the
    first node and -inf where no node is feasible), bit for bit what a scan
    of every node returns: every node left out lies strictly below a value
    some node attains, so the first maximizer is always evaluated.  Two
    certificates leave nodes out.

    The hull certificate.  With phi and psi the least concave majorants of
    log f and log g (``_log_hull``), G(j) = t*phi(x_j) + (1-t)*psi(y_j), read
    through the operations that read F(j), is at least F(j) up to round-off,
    is -inf only where F(j) is (psi is -inf exactly where the fractional
    g-index u_j lies outside [a, b], g's first and last finite node), and is
    concave in x.  ``_merge_max`` on the two hulls gives each cell's maximizer
    x* of G; F at the finite nodes either side of x* gives an attained value
    lb0 at a node j0.  On each side of j0 a search gallops out by 1, 2, 4,
    ... nodes to the first node with G + slack < lb0, bisects that last
    bracket, and keeps the nodes up to a kept node next to a rejected node m
    (or to the grid's end); every node beyond m lies below lb0, whichever
    rejected node m is.  The computed u_j falls as j rises even in floating
    point, so if G(m) = -inf, u_m lies on the far side of [a, b] from u_{j0}
    (F(j0) = lb0 is finite) and F is -inf at every node beyond m.
    Otherwise extend psi past [a, b] by its end slopes: it stays concave and
    L-Lipschitz in u, L the steepest hull step, so G taken at the
    exact u, affine in x, is concave, and the computed G differs from it by
    the round-off of the interpolation (below 1e-12*(1 + |lb0|), every log
    value lying within 710 of zero; the hull chain is concave to the same
    order) plus (1-t)*L times the error of the computed u, which
    4*eps*((|z| + max|x|)/dx_g + 2*n_g)/(1-t) bounds.  A node j beyond m with
    F(j) >= lb0 would put the exact G within that error of lb0 at j and at
    j0, hence at m between them, and the computed G(m) would pass the test;
    the slack is 1e-12*(1 + |lb0|) plus twice the Lipschitz term.  Rows where
    lb0 = -inf (both nodes beside x* meet zero cells of g, as when x* sits in
    zero cells of f that the hull bridges) keep every node.

    The block certificate.  Cells whose interval of kept nodes fits in
    _SCAN_BLOCK nodes evaluate it; wider ones, _SCAN_ROWS at a time, split
    the nodes into blocks of _SCAN_BLOCK and bound each block that meets the
    interval.  Since y is monotone in x, a block reaches only the g-cells
    between the fractional g-indices of its two end nodes, and
    t*max log f + (1-t)*max log g over those cells bounds it from above (-inf
    when both ends lie on one side of the g-grid).  Each row evaluates the
    block with the highest bound, then every block whose bound reaches the
    larger of that block's maximum and lb0 within 1e-12*(1 + |value|), which
    covers the interpolation round-off as above.
    """
    finite = np.isfinite(lf.logv)
    xs = (lf.x0 + lf.dx * np.arange(lf.n))[finite]
    logf = lf.logv[finite]
    lb0, jl, jr = _hull_interval(lf, lg, t, z, xs, logf)
    wide = jr - jl >= _SCAN_BLOCK

    starts = np.arange(0, xs.size, _SCAN_BLOCK)
    ends = np.minimum(starts + _SCAN_BLOCK, xs.size) - 1
    fmax = np.maximum.reduceat(logf, starts)
    gtable = _range_max_table(lg.logv)
    best_val = np.full(z.size, _NEG)
    best_x = np.full(z.size, xs[0])
    for start in range(0, z.size, _SCAN_ROWS):
        cut = slice(start, start + _SCAN_ROWS)
        zc, lo, hi = z[cut], jl[cut], jr[cut]
        # blocks that meet each row's interval
        keep = (starts <= hi[:, None]) & (ends >= lo[:, None])
        w = np.nonzero(wide[cut])[0]
        if w.size:
            zz = zc[w, None]
            # fractional g-index at each block's ends, as lg.linear computes it
            u_hi = ((zz - t * xs[starts]) / (1.0 - t) - lg.x0) / lg.dx
            u_lo = ((zz - t * xs[ends]) / (1.0 - t) - lg.x0) / lg.dx
            # g-nodes lg.linear reads between those ends, with one spare each side
            a = np.clip(np.floor(u_lo) - 1, 0, lg.n - 1).astype(int)
            b = np.clip(np.floor(u_hi) + 2, 0, lg.n - 1).astype(int)
            k = np.frexp(b - a + 1.0)[1] - 1
            gmax = np.maximum(gtable[k, a], gtable[k, b - (1 << k) + 1])
            gmax[(u_hi < 0.0) | (u_lo > lg.n - 1) | ~keep[w]] = _NEG
            ub = t * fmax + (1.0 - t) * gmax
            top = np.argmax(ub, axis=1)[:, None]
            jj = np.minimum(np.maximum(starts[top] + np.arange(_SCAN_BLOCK), lo[w, None]),
                            np.minimum(ends[top], hi[w, None]))
            lb = np.max(_scan_values(t, xs, logf, lg, zz, jj), axis=1, keepdims=True)
            np.maximum(lb, lb0[cut][w, None], out=lb)
            slack_w = 1e-12 * (1.0 + np.abs(np.where(np.isfinite(lb), lb, 0.0)))
            keep[w] = (ub > _NEG) & (ub + slack_w >= lb)
        rr, bb = np.nonzero(keep)
        if rr.size == 0:
            continue
        first_j = np.maximum(starts[bb], lo[rr])
        lengths = np.minimum(ends[bb], hi[rr]) - first_j + 1
        offsets = np.cumsum(lengths) - lengths
        j = np.repeat(first_j - offsets, lengths) + np.arange(lengths.sum())
        row = np.repeat(rr, lengths)
        vals = _scan_values(t, xs, logf, lg, zc[row], j)
        # segmented argmax over each row's evaluated nodes (rows ascend),
        # first index on ties
        first = np.nonzero(np.diff(row, prepend=-1))[0]
        present = row[first]
        vmax = np.full(zc.size, _NEG)
        vmax[present] = np.maximum.reduceat(vals, first)
        jbest = np.minimum.reduceat(np.where(vals == vmax[row], j, xs.size), first)
        hit = vmax[present] > _NEG
        best_val[cut] = vmax
        best_x[start + present[hit]] = xs[jbest[hit]]
    return best_x, best_val


def sup_convolution(f: GridFunction, g: GridFunction, t: float) -> SupConvResult:
    """Compute h_t on a grid spanning t*range(f) + (1-t)*range(g).

    Per output cell, h is the larger of the stage-1 value (the exact maximum
    under linear interpolation) and the stage-2 value (the maximum of the
    three-point model over a window around the stage-1 point: exact, piece by
    piece, while the window holds at most ``_EXACT_MAX_BREAKPOINTS``
    breakpoints, else a 45-step ternary search); ``attained_x`` is where it is
    attained, the stage-2 point on ties.  At most ``DEFAULT_MAX_CELLS`` output
    cells, spread over the span when it holds more.
    """
    if not 0.0 < t < 1.0:
        raise DomainError("t must lie in (0, 1)")
    af, bf = _support_range(f)
    ag, bg = _support_range(g)
    dxh = min(f.dx, g.dx)
    lo = t * af + (1.0 - t) * ag
    hi = t * bf + (1.0 - t) * bg
    span = hi - lo
    if span <= 0:
        span = dxh
    n = int(np.floor(span / dxh + 1e-9)) + 1
    if n > DEFAULT_MAX_CELLS:
        n = DEFAULT_MAX_CELLS
        dxh = span / (n - 1)
    n = max(n, 2)
    z = lo + dxh * np.arange(n)

    lf = _log_interp(f)
    lg = _log_interp(g)

    # feasible x window per output cell: x in supp f and (z - t x)/(1-t) in supp g;
    # a window is empty only beyond the rounding of its ends (4 ulps), so the
    # cells at the ends of h keep the value a one-node support gives them
    x_lo = np.maximum(af, (z - (1.0 - t) * bg) / t)
    x_hi = np.minimum(bf, (z - (1.0 - t) * ag) / t)
    reach = np.abs(z) + max(abs(af), abs(bf), abs(ag), abs(bg))
    empty = x_lo > x_hi + 4.0 * np.finfo(float).eps * reach / t

    concave = is_log_concave(f)[0] and is_log_concave(g)[0]
    if concave:
        xs1, v1 = _merge_max(lf, lg, t, z)
    else:
        xs1, v1 = _block_scan_max(lf, lg, t, z)
        xs1 = np.where(empty, 0.5 * (x_lo + x_hi), xs1)
        v1 = np.where(empty, _NEG, v1)

    # local quadratic refinement around the stage-1 point
    w = max(f.dx, g.dx * (1.0 - t) / t)
    r_lo = np.maximum(x_lo, xs1 - w)
    r_hi = np.minimum(x_hi, xs1 + w)
    if _enumerates(t, f.dx, g.dx):
        xs2, v2 = _exact_max(lf, lg, t, z, r_lo, r_hi)
    else:
        def objective(zz, x):
            return t * lf.quadratic(x) + (1.0 - t) * lg.quadratic((zz - t * x) / (1.0 - t))

        xs2, v2 = _ternary_max(objective, z, r_lo, r_hi, iters=45)
    best = np.maximum(v1, v2)
    attained = np.where(v2 >= v1, xs2, xs1)

    best = np.where(empty, _NEG, best)
    attained = np.where(empty, np.nan, attained)
    values = np.where(np.isfinite(best), np.exp(best), 0.0)
    return SupConvResult(h=GridFunction(lo, dxh, values), attained_x=attained)


def pl_deficit(h: GridFunction, f: GridFunction, g: GridFunction, lam: float) -> float:
    """Relative excess of mass(h) over mass(f)^lambda * mass(g)^(1-lambda)."""
    mf = mass(f)
    mg = mass(g)
    if mf <= 0 or mg <= 0:
        raise DomainError("zero mass")
    return float(mass(h) / (mf ** lam * mg ** (1.0 - lam)) - 1.0)


def integral_curve(f: GridFunction, g: GridFunction, t_grid) -> list:
    """Masses of h_t along a sorted grid of interpolation parameters."""
    ts = [float(t) for t in t_grid]
    if any(not 0.0 < t < 1.0 for t in ts):
        raise DomainError("t values must lie in (0, 1)")
    if ts != sorted(ts):
        raise DomainError("t values must be sorted")
    return [(t, mass(sup_convolution(f, g, t).h)) for t in ts]


def midpoint_interpolant(f: GridFunction, g: GridFunction) -> GridFunction:
    """Realize w((x + T(x))/2) = sqrt(f(x) * g(T(x))) on an output grid.

    The map x -> (x + T(x))/2 is strictly increasing, so the defining values
    are carried onto the output grid by monotone linear interpolation along
    the mapped points (zero outside their range).  This reproduces the
    pointwise definition without the aliasing that per-cell mass deposits
    suffer when the map stretches the grid, and it preserves the integral of
    sqrt(f * g(T)) * (1 + T')/2 to first order.  Cells whose transport
    derivative carries the +inf sentinel are dropped; their f-mass can be
    audited via transport.excluded_mass.
    """
    if mass(f) <= 0 or mass(g) <= 0:
        raise DomainError("zero mass")
    m = monotone_transport(f, g)
    mid = 0.5 * (m.x + m.T)
    gT = g.evaluate(m.T)
    vals = np.sqrt(f.values * np.maximum(gT, 0.0))
    # only source-support cells define the function; elsewhere T is a flat
    # quantile artifact and would bridge spurious ramps into the output
    keep = np.isfinite(m.Tprime) & (f.values > SUPPORT_THRESHOLD)
    if not np.any(keep):
        raise DomainError("empty support")
    mid = mid[keep]
    vals = vals[keep]
    # strictly increasing node sequence for interpolation
    eps = 1e-12 * (1.0 + np.max(np.abs(mid)))
    mid = np.maximum.accumulate(mid + eps * np.arange(mid.size))

    dxh = min(f.dx, g.dx)
    lo = float(mid[0]) - dxh
    hi = float(mid[-1]) + dxh
    n = max(int(np.floor((hi - lo) / dxh + 0.5)) + 1, 2)
    zs = lo + dxh * np.arange(n)
    values = np.interp(zs, mid, vals, left=0.0, right=0.0)
    return GridFunction(lo, dxh, values)
