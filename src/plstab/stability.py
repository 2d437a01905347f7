"""End-to-end stability experiments.

Builds log-concave witnesses for near-extremal triples, measures aligned L1
distances at the theorem's two-parameter coupling, runs the sharp
counterexample family, and fits stability exponents on log-log sweeps.

The two-parameter family used for the coupled distances is
    f ~ a^-(1-lambda) * w(x - (1-lambda)*x0),
    g ~ a^lambda      * w(x + lambda*x0),
where w is the chosen log-concave witness.  These exponent/shift pairings are
the ones consistent with the equality case for every lambda (amplitudes must
satisfy A^lambda * B^(1-lambda) = 1 and shifts lambda*u + (1-lambda)*v = 0);
the witness itself is the midpoint sup-convolution of the (hulled, normalized)
pair, recentered and rescaled onto h.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from .grids import (
    DomainError,
    GridFunction,
    PreconditionError,
    l1_distance,
    mass,
    normalize,
    scale_amplitude,
    translate,
)
from .levelsets import PiecewiseLinear
from .logconcave import is_log_concave, log_concave_hull
from .radial import (
    RadialProfile,
    cell_weights,
    radial_l1_distance,
    radial_mass,
    radial_pl_deficit,
    radial_sup_convolution,
)
from .supconv import _ternary_max, pl_deficit, sup_convolution
from .transport import (
    DeficitReport,
    _map_deficit,
    bad_set_measure,
    monotone_transport,
    tail_cut_points,
)


class ReductionCheckError(RuntimeError):
    """A numerically asserted reduction inequality failed."""


# ---------------------------------------------------------------------------
# seeded generators for property suites


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_log_concave(seed, lo: float = -8.0, hi: float = 8.0, n: int = 2048) -> GridFunction:
    """Random log-concave density: log f is a min of 3..6 affine functions.

    One strongly increasing and one strongly decreasing line are always
    present so both tails decay inside the declared window.
    """
    rng = _rng(seed)
    k = int(rng.integers(3, 7))
    slopes = rng.uniform(1.0, 4.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    slopes[0] = abs(slopes[0])
    slopes[1] = -abs(slopes[1])
    pivots = rng.uniform(-2.0, 2.0, size=k)
    heights = rng.uniform(-0.5, 0.5, size=k)
    dx = (hi - lo) / (n - 1)
    xs = lo + dx * np.arange(n)
    logf = np.min(heights[:, None] + slopes[:, None] * (xs[None, :] - pivots[:, None]), axis=0)
    vals = np.exp(logf - np.max(logf))
    return normalize(GridFunction(lo, dx, vals))


def random_log_concave_pair(seed, n: int = 2048):
    rng = _rng(seed)
    return random_log_concave(rng, n=n), random_log_concave(rng, n=n)


def near_equality_pair(seed, delta: float, n: int = 2048):
    """A log-concave pair at controlled small deficit: g multiplies f by the
    exponential of a weak concave quadratic, which preserves log-concavity."""
    rng = _rng(seed)
    f = random_log_concave(rng, n=n)
    xs = f.centers
    c = rng.uniform(-1.0, 1.0)
    kappa = rng.uniform(0.3, 1.0)
    g = normalize(f.with_values(f.values * np.exp(-delta * kappa * (xs - c) ** 2)))
    return f, g


def random_unimodal(seed, lo: float = -4.0, hi: float = 4.0, n: int = 513) -> GridFunction:
    """Random unimodal grid function with its mode at x = 0."""
    rng = _rng(seed)
    if n % 2 == 0:
        n += 1
    mid = n // 2
    peak = rng.uniform(0.5, 1.0)
    left = np.sort(rng.uniform(0.0, peak, size=mid))
    right = -np.sort(-rng.uniform(0.0, peak, size=mid))
    vals = np.concatenate([left, [peak], right])
    dx = (hi - lo) / (n - 1)
    return GridFunction(lo, dx, vals)


def random_piecewise_linear(seed, span: float = 4.0, segments: int = 6) -> PiecewiseLinear:
    """Random piecewise-linear test function anchored at phi(0) = 0."""
    rng = _rng(seed)
    knots = np.unique(np.concatenate([rng.uniform(-span, span, size=segments), [-span, 0.0, span]]))
    vals = rng.uniform(-1.0, 1.0, size=knots.size)
    vals = vals - np.interp(0.0, knots, vals)
    return PiecewiseLinear(knots, vals)


# ---------------------------------------------------------------------------
# aligned distances


def _median_amplitude(u: np.ndarray, w: np.ndarray, lo: float, hi: float, cell=None) -> float:
    """The amplitude a in [lo, hi] that minimises sum c_i * |u_i - a*w_i|, with
    per-cell weights c (all 1 when ``cell`` is None).

    The sum is convex and piecewise linear in a, least at the weighted median
    of u_i/w_i with weights c_i*w_i: least absolute deviations through the
    origin (Bloomfield and Steiger 1983).  Cells with w_i = 0 add a constant.
    """
    pos = w > 0
    ratios = u[pos] / w[pos]
    weights = w[pos] if cell is None else cell[pos] * w[pos]
    order = np.argsort(ratios, kind="stable")
    weight = np.cumsum(weights[order])
    median = float(ratios[order][np.searchsorted(weight, 0.5 * weight[-1])])
    return min(max(median, lo), hi)


def _linear_pieces(u: GridFunction, w: GridFunction) -> list:
    """Groups [length, u at both ends, w at both ends] of the segments between
    the merged breakpoints of u and w, on which both are linear.  A segment
    lies wholly inside or wholly outside each grid's node range, and outside
    it that grid's end values are 0, so the jumps to zero at the grid ends
    count.  On equal spacing only the segments inside w's node range are
    listed, in two groups (w's cells split at u's nodes); w is 0 elsewhere."""
    if u.dx != w.dx:
        xs = np.unique(np.concatenate([u.centers, w.centers]))
        out = [np.diff(xs)]
        for g in (u, w):
            vals = g.evaluate(xs)
            inside = (xs[:-1] >= g.x0) & (xs[1:] <= g.x_last)
            out += [np.where(inside, vals[:-1], 0.0), np.where(inside, vals[1:], 0.0)]
        return [out]
    # in units of dx from u's first node, w's node j sits at k + theta + j; w-cell j
    # splits at u's node k+j+1 into a piece in u-cell k+j and one in u-cell k+j+1
    off = (w.x0 - u.x0) / u.dx
    k = math.floor(off)
    theta = off - k

    def u_ends(cells: np.ndarray):
        inside = (cells >= 0) & (cells <= u.n - 2)
        cells = np.clip(cells, 0, u.n - 2)
        return np.where(inside, u.values[cells], 0.0), np.where(inside, u.values[cells + 1], 0.0)

    cells = k + np.arange(w.n - 1)
    a0, a1 = u_ends(cells)
    b0, b1 = u_ends(cells + 1)
    w0, w1 = w.values[:-1], w.values[1:]
    w_node = w0 + (1.0 - theta) * (w1 - w0)
    return [[(1.0 - theta) * u.dx, a0 + theta * (a1 - a0), a1, w0, w_node],
            [theta * u.dx, b0, b0 + theta * (b1 - b0), w_node, w1]]


def _best_amplitude(u: GridFunction, w: GridFunction, lo: float, hi: float) -> float:
    """The amplitude a in [lo, hi] that minimises l1_distance(u, a*w).

    That distance F(a) is convex in a.  On identical grids it is
    dx * sum|u_i - a*w_i|, least at the weighted median of u_i/w_i with
    weights w_i (``_median_amplitude``).  On any other pair F' is a sum over
    the segments on which u and w are both linear (``_linear_pieces``): the
    segment's length times the mean of w*sign(a*w - u), exact once the
    segment is split at its one crossing.  Its sign change is found by false
    position down to adjacent floats.  A segment whose a*w - u keeps one sign
    at both ends across the whole bracket adds a fixed term and leaves the
    active set.  The result depends on (u, w) alone, not on the round-off of
    the kernels that evaluate F.
    """
    if u.x0 == w.x0 and u.dx == w.dx and u.n == w.n:
        return _median_amplitude(u.values, w.values, lo, hi)
    pieces = _linear_pieces(u, w)
    fixed = 0.0

    def prune(lo: float, hi: float) -> None:
        nonlocal pieces, fixed
        active = []
        for group in pieces:
            h, u0, u1, w0, w1 = group
            up = (lo * w0 - u0 > 0) & (lo * w1 - u1 > 0)  # a*w - u only grows with a
            done = up | ((hi * w0 - u0 < 0) & (hi * w1 - u1 < 0))
            fixed += float(np.sum((np.where(up, 0.5, -0.5) * h * (w0 + w1))[done]))
            active.append([x[~done] if np.ndim(x) else x for x in group])
        pieces = active

    def slope(a: float) -> float:
        total = fixed
        for h, u0, u1, w0, w1 in pieces:
            e0, e1 = a * w0 - u0, a * w1 - u1
            mean = 0.5 * (w0 + w1)
            cross = e0 * e1 < 0
            t = e0 / np.where(cross, e0 - e1, 1.0)
            # on a crossing piece: 2 * (integral of w up to the crossing) - mean, signed by e0
            split = np.sign(e0) * (t * (2.0 * w0 + (w1 - w0) * t) - mean)
            total += float(np.sum(h * np.where(cross, split, np.sign(e0 + e1) * mean)))
        return total

    prune(lo, hi)
    f_lo, f_hi = slope(lo), slope(hi)
    if f_lo >= 0.0:
        return lo
    if f_hi <= 0.0:
        return hi
    # Illinois false position on the bracket, with a bisection whenever two
    # steps have not halved it, down to adjacent floats
    kept, widths = 0, [math.inf, math.inf]
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        a = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < a < hi or hi - lo > 0.5 * widths[-2]:
            a = mid
        widths.append(hi - lo)
        d = slope(a)
        if d == 0.0:
            return a
        if d < 0.0:
            lo, f_lo = a, d
            f_hi *= 0.5 if kept == -1 else 1.0
            kept = -1
        else:
            hi, f_hi = a, d
            f_lo *= 0.5 if kept == 1 else 1.0
            kept = 1
        prune(lo, hi)


def _lipschitz_scan(fn, xs: np.ndarray, lip: float, slack: float, exact: np.ndarray) -> dict:
    """Certified branch-and-bound for the minimum of fn over the sorted lattice xs.

    ``fn(i)`` is the value at ``xs[i]``.  Off the ``exact`` indices it is
    lip-Lipschitz in x up to round-off well below ``slack``; ``exact`` indices
    may take any value, so they are always evaluated and never bound a gap.
    Starts from about every ``m // 32``-th index plus the last, then splits
    gaps best-first by their lower bound (d_i + d_j - lip*(x_j - x_i))/2
    (Piyavskii 1972; Shubert 1972) and drops a gap only when that bound
    exceeds the best value found by more than ``slack``.  Returns
    {index: value} for the evaluated indices; every other index is certified
    to hold a value strictly above their minimum, so the first minimiser over
    the returned indices is the first minimiser over the whole lattice.
    """
    m = xs.size
    seed = set(range(0, m, max(1, m // 32))) | {m - 1}
    for k in np.flatnonzero(exact).tolist():
        seed.update(i for i in (k - 1, k, k + 1) if 0 <= i < m)
    vals = {i: fn(i) for i in sorted(seed)}
    best = min(vals.values())

    def gap(i: int, j: int):
        return (0.5 * (vals[i] + vals[j] - lip * (xs[j] - xs[i])), i, j)

    idx = sorted(vals)
    heap = [gap(i, j) for i, j in zip(idx, idx[1:]) if j - i > 1]
    heapq.heapify(heap)
    while heap and heap[0][0] <= best + slack:
        _, i, j = heapq.heappop(heap)
        k = (i + j) // 2
        vals[k] = fn(k)
        best = min(best, vals[k])
        for a, b in ((i, k), (k, j)):
            if b - a > 1:
                heapq.heappush(heap, gap(a, b))
    return vals


def aligned_l1_distance(u: GridFunction, v: GridFunction, optimize_scale: bool = False):
    """Minimize the L1 distance between u and a*v(. - s) over the shift s
    (and over a when flagged).

    Coarse shift search over the lattice of step 4*dx spanning both grids,
    ternary refinement to dx/4; when flagged, two rounds of the exact
    amplitude over [mass_ratio/2, 2*mass_ratio] (``_best_amplitude``) at the
    current shift, each followed by a shift refinement, and a last exact
    amplitude at the best shift found.  Returns (distance, shift, scale).

    The lattice search is a certified branch-and-bound, not a scan of every
    point.  At fixed amplitude a the distance moves with the shift at rate at
    most L = a*TV(v), where TV(v) = v[0] + v[-1] + sum|diff(v)| counts the
    jumps to zero at the edges of v's grid.  A stretch of lattice is skipped
    only when L proves every point in it above the best value found, with a
    slack of 1e-9*(mass(u) + a*mass(v)) for round-off.  A lattice point whose
    translated grid is u's own takes ``l1_distance``'s identical-grid
    rectangle sum instead of the interpolant metric, so it is always
    evaluated.  The result is therefore bit for bit that of evaluating every
    lattice point: the same first minimiser, and the same refinement from it.
    Every other probe is an exact interpolant metric: the equal-spacing path
    when u and v share dx, the merged-breakpoint path otherwise.
    """
    mu, mv = mass(u), mass(v)
    if mu <= 0 or mv <= 0:
        raise DomainError("zero mass")
    dx = min(u.dx, v.dx)
    ratio = mu / mv

    def dist(s: float, a: float) -> float:
        w = translate(v, s)
        if a != 1.0:
            w = scale_amplitude(w, a)
        return l1_distance(u, w)

    best = {"d": math.inf, "s": 0.0, "a": 1.0}

    def probe(s: float, a: float) -> float:
        d = dist(s, a)
        if d < best["d"]:
            best.update(d=d, s=s, a=a)
        return d

    a_cur = ratio if optimize_scale else 1.0
    span = 0.5 * ((u.n - 1) * u.dx + (v.n - 1) * v.dx)
    center = (u.x0 + 0.5 * (u.n - 1) * u.dx) - (v.x0 + 0.5 * (v.n - 1) * v.dx)
    shifts = center + np.arange(-span, span + 2 * dx, 4.0 * dx)
    exact = (v.x0 + shifts == u.x0) & (u.dx == v.dx) & (u.n == v.n)
    tv = v.values[0] + v.values[-1] + float(np.sum(np.abs(np.diff(v.values))))
    vals = _lipschitz_scan(
        lambda i: dist(float(shifts[i]), a_cur), shifts, a_cur * tv, 1e-9 * (mu + a_cur * mv), exact
    )
    for i in sorted(vals):
        if vals[i] < best["d"]:
            best.update(d=vals[i], s=float(shifts[i]), a=a_cur)
    s_cur = best["s"]
    probe(0.0, a_cur)
    probe(center, a_cur)

    def refine_shift(s0: float, a: float) -> float:
        lo, hi = s0 - 4.0 * dx, s0 + 4.0 * dx
        while hi - lo > dx / 4.0:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if probe(m1, a) < probe(m2, a):
                hi = m2
            else:
                lo = m1
        return 0.5 * (lo + hi)

    def snap(s: float, a: float) -> None:
        # shift optima of grid data usually sit on half-cell lattice points
        for step in (dx, 0.5 * dx):
            probe(round(s / step) * step, a)

    s_cur = refine_shift(s_cur, a_cur)
    snap(s_cur, a_cur)
    if optimize_scale:
        for _ in range(2):
            a_cur = _best_amplitude(u, translate(v, s_cur), 0.5 * ratio, 2.0 * ratio)
            probe(s_cur, a_cur)
            s_cur = refine_shift(s_cur, a_cur)
        snap(s_cur, a_cur)
    probe(s_cur, a_cur)
    if optimize_scale:
        # the shift has moved since the last amplitude step: make the amplitude exact at the best shift
        s_best = best["s"]
        probe(s_best, _best_amplitude(u, translate(v, s_best), 0.5 * ratio, 2.0 * ratio))
    return best["d"], best["s"], best["a"]


# ---------------------------------------------------------------------------
# stability distances for one triple


@dataclass(frozen=True)
class StabilityReport:
    lambda_: float
    tau: float
    epsilon: float
    distance_f: float
    distance_g: float
    distance_h: float
    shift: float
    scale: float
    witness: GridFunction

    def to_json_dict(self, include_witness: bool = True) -> dict:
        out = {
            "lambda": self.lambda_,
            "tau": self.tau,
            "epsilon": self.epsilon,
            "distance_f": self.distance_f,
            "distance_g": self.distance_g,
            "distance_h": self.distance_h,
            "shift": self.shift,
            "scale": self.scale,
        }
        if include_witness:
            out["witness"] = {
                "x0": self.witness.x0,
                "dx": self.witness.dx,
                "values": [float(v) for v in self.witness.values],
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def stability_distance(f: GridFunction, g: GridFunction, h: GridFunction, lam: float) -> StabilityReport:
    """Distances from (f, g, h) to the extremal family spanned by the witness.

    The witness is the midpoint sup-convolution of the normalized pair (after
    replacing non-log-concave inputs by their normalized log-concave hulls),
    recentered and rescaled onto h.  The pair (a, x0) is optimized on the
    f-distance and reused, coupled, for g.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    mf, mg = mass(f), mass(g)
    if mf <= 0 or mg <= 0 or mass(h) <= 0:
        raise DomainError("zero mass")
    tau = min(lam, 1.0 - lam)
    fn = normalize(f)
    gn = normalize(g)
    hn = scale_amplitude(h, 1.0 / (mf ** lam * mg ** (1.0 - lam)))
    epsilon = mass(hn) - 1.0

    ff = fn if is_log_concave(fn)[0] else normalize(log_concave_hull(fn).hull)
    gg = gn if is_log_concave(gn)[0] else normalize(log_concave_hull(gn).hull)
    witness_raw = sup_convolution(ff, gg, 0.5).h

    d_h, mu, c = aligned_l1_distance(hn, witness_raw, optimize_scale=True)
    witness = scale_amplitude(translate(witness_raw, mu), c)

    d_f, s, alpha = aligned_l1_distance(fn, witness, optimize_scale=True)
    x0 = s / (1.0 - lam)
    a = alpha ** (-1.0 / (1.0 - lam))
    g_wit = scale_amplitude(translate(witness, -lam * x0), a ** lam)
    d_g = l1_distance(gn, g_wit)

    return StabilityReport(
        lambda_=lam,
        tau=tau,
        epsilon=epsilon,
        distance_f=d_f,
        distance_g=d_g,
        distance_h=d_h,
        shift=x0,
        scale=a,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# the sharp counterexample family


@dataclass(frozen=True)
class CounterexampleConfig:
    delta: float
    t: float
    grid_n: int = 4096
    phi_id: str = "odd_poly"

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise DomainError("delta must lie in (0, 1/2)")
        if not 0.0 < self.t < 1.0:
            raise DomainError("t must lie in (0, 1)")
        if not 64 <= self.grid_n <= 2 ** 20:
            raise DomainError("grid_n must lie in [64, 2^20]")
        if self.phi_id not in ("odd_poly", "even_radial"):
            raise DomainError("phi_id must be odd_poly or even_radial")


@dataclass(frozen=True)
class CounterexampleResult:
    f: GridFunction
    g: GridFunction
    h: GridFunction
    epsilon: float
    distance: float


@functools.cache
def _odd_bump_peak() -> float:
    """max of x*(1-x^2)^3 on [0, 1], found by ternary search (never hard-coded:
    the closed form (6/7)^3/sqrt(7) rounds one ulp lower)."""
    _, peak = _ternary_max(lambda z, x: x * (1.0 - x * x) ** 3, None, np.zeros(1), np.ones(1), 200)
    return float(peak[0])


def counterexample_family(cfg: CounterexampleConfig) -> CounterexampleResult:
    """Gaussian f = exp(-pi x^2) perturbed by an odd C^2 bump: g = (1+delta*phi) f.

    phi(x) = x (1-x^2)^3 / M on [-1, 1] with M chosen at run time so that
    max phi = 1.  The odd symmetry makes the perturbation mass-neutral, so
    renormalization is a no-op up to rounding.  Returns the triple, its
    deficit under sup-convolution at t, and the translation-aligned L1
    distance between g and f.
    """
    n = cfg.grid_n
    lo, hi = -4.0, 4.0
    dx = (hi - lo) / (n - 1)
    xs = lo + dx * np.arange(n)
    fvals = np.exp(-math.pi * xs ** 2)
    inside = np.abs(xs) < 1.0
    phi = np.zeros(n)
    phi[inside] = xs[inside] * (1.0 - xs[inside] ** 2) ** 3
    phi /= _odd_bump_peak()
    gvals = (1.0 + cfg.delta * phi) * fvals
    f = normalize(GridFunction(lo, dx, fvals))
    g = normalize(GridFunction(lo, dx, gvals))
    ok, idx = is_log_concave(g)
    if not ok:
        raise PreconditionError(f"perturbed density lost log-concavity at cell {idx}")
    h = sup_convolution(f, g, cfg.t).h
    epsilon = pl_deficit(h, f, g, cfg.t)
    distance, _, _ = aligned_l1_distance(g, f, optimize_scale=False)
    return CounterexampleResult(f=f, g=g, h=h, epsilon=epsilon, distance=distance)


def _radial_bump(r: np.ndarray, a: float, b: float) -> np.ndarray:
    out = np.zeros_like(r)
    inside = (r > a) & (r < b)
    out[inside] = ((r[inside] - a) * (b - r[inside])) ** 3
    return out


@dataclass(frozen=True)
class RadialCounterexampleResult:
    f: RadialProfile
    g: RadialProfile
    h: RadialProfile
    epsilon: float
    distance: float


def radial_counterexample_family(cfg: CounterexampleConfig, n_dim: int) -> RadialCounterexampleResult:
    """Radial analogue: an even C^2 bump supported in [1/2, 2], made
    mass-neutral against the r^(n-1) weight by subtracting a projection onto a
    second bump.  The distance is minimised over amplitudes a in [1/2, 2] of
    f: on the shared grid it is sum c_i * |g_i - a*f_i| with the radial cell
    weights c, least at the weighted median of g_i/f_i (``_median_amplitude``).
    A grid r <= 5 whose outer two cells carry more than 1e-8 of f's weighted
    mass (from about dimension 70 at n = 1024) is a PreconditionError."""
    if n_dim < 2:
        raise DomainError("radial family needs ambient dimension >= 2")
    if cfg.phi_id != "even_radial":
        raise DomainError("radial family requires phi_id = even_radial")
    n = cfg.grid_n
    r_hi = 5.0
    dr = r_hi / n
    r = dr * (0.5 + np.arange(n))
    fvals = np.exp(-math.pi * r ** 2)
    f = RadialProfile(n_dim, float(r[0]), dr, fvals)  # rejects unsupported dimensions
    cell = cell_weights(f)
    cell_mass = cell * fvals
    edge = float(np.sum(cell_mass[-2:]) / np.sum(cell_mass))
    if edge > 1e-8:
        raise PreconditionError(
            f"the grid r <= {r_hi} truncates f: its outer two cells carry {edge:.2e} of its "
            f"weighted mass (above 1e-8) at dimension {n_dim}"
        )
    weight = r ** (n_dim - 1)
    psi1 = _radial_bump(r, 0.5, 1.4)
    psi2 = _radial_bump(r, 1.1, 2.0)
    c = float(np.sum(fvals * psi1 * weight) / np.sum(fvals * psi2 * weight))
    phi = psi1 - c * psi2
    phi /= float(np.max(np.abs(phi)))
    gvals = (1.0 + cfg.delta * phi) * fvals

    g = RadialProfile(n_dim, float(r[0]), dr, gvals)
    f = RadialProfile(n_dim, f.r0, f.dr, f.values / radial_mass(f))
    g = RadialProfile(n_dim, g.r0, g.dr, g.values / radial_mass(g))
    ok, idx = is_log_concave(g.as_grid())
    if not ok or not g.is_nonincreasing(tol=1e-9):
        raise PreconditionError(f"perturbed radial profile is not log-concave decreasing (cell {idx})")
    h = radial_sup_convolution(f, g, cfg.t)
    epsilon = radial_pl_deficit(h, f, g, cfg.t)
    a = _median_amplitude(g.values, f.values, 0.5, 2.0, cell)
    distance = radial_l1_distance(g, RadialProfile(f.n, f.r0, f.dr, a * f.values))
    return RadialCounterexampleResult(f=f, g=g, h=h, epsilon=epsilon, distance=distance)


# ---------------------------------------------------------------------------
# exponent fits and probes


def exponent_fit(points):
    """OLS of log(distance) on log(epsilon): returns (slope, intercept, r2)."""
    pts = [(float(e), float(d)) for e, d in points]
    if len(pts) < 3:
        raise DomainError("need at least 3 points")
    if any(e <= 0 or d <= 0 for e, d in pts):
        raise DomainError("epsilon and distance values must be positive")
    x = np.log([e for e, _ in pts])
    y = np.log([d for _, d in pts])
    if np.ptp(x) == 0:
        raise DomainError("log-epsilon values have no spread; the fit is degenerate")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_res > 1e-28 and ss_tot == 0:
        raise DomainError("log-distance values have no spread but the fit leaves residuals")
    r2 = 1.0 if ss_res <= 1e-28 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


@dataclass(frozen=True)
class ProbeRow:
    t: float
    tau: float
    epsilon: float
    distance: float
    ratio: float


def tau_scaling_probe(t_values, delta: float, grid_n: int = 4096) -> list:
    """Counterexample runs at fixed delta across t; the last column is
    distance / sqrt(epsilon/tau), which the sharp theory keeps bounded."""
    rows = []
    for t in t_values:
        cfg = CounterexampleConfig(delta=delta, t=float(t), grid_n=grid_n)
        res = counterexample_family(cfg)
        tau = min(t, 1.0 - t)
        ratio = res.distance / math.sqrt(res.epsilon / tau) if res.epsilon > 0 else float("nan")
        rows.append(ProbeRow(t=float(t), tau=tau, epsilon=res.epsilon, distance=res.distance, ratio=ratio))
    return rows


def general_lambda_reduction(f: GridFunction, g: GridFunction, lam: float):
    """Bound the midpoint deficit by the lambda-deficit over tau.

    Returns (eps_half_bound, direct_eps_half) and asserts
    direct <= bound + 1e-6 whenever the interpolation hypothesis
    eps_lambda < 2*tau applies.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    for name, d in (("f", f), ("g", g)):
        ok, idx = is_log_concave(d)
        if not ok:
            raise PreconditionError(f"{name} is not log-concave (first violation at cell {idx})")
    fn = normalize(f)
    gn = normalize(g)
    tau = min(lam, 1.0 - lam)
    eps_lam = pl_deficit(sup_convolution(fn, gn, lam).h, fn, gn, lam)
    bound = eps_lam / tau
    direct = pl_deficit(sup_convolution(fn, gn, 0.5).h, fn, gn, 0.5)
    if eps_lam < 2.0 * tau and direct > bound + 1e-6:
        raise ReductionCheckError(
            f"midpoint deficit {direct:.3e} exceeds the reduction bound {bound:.3e}"
        )
    return bound, direct


# ---------------------------------------------------------------------------
# assembled scalar report for one pair


def full_deficit_report(f: GridFunction, g: GridFunction, lam: float) -> DeficitReport:
    """DeficitReport for the pair under its own sup-convolution at lambda."""
    fn = normalize(f)
    gn = normalize(g)
    tau = min(lam, 1.0 - lam)
    h = sup_convolution(fn, gn, lam).h
    eps = pl_deficit(h, fn, gn, lam)
    eta = math.sqrt(max(eps, 1e-12))
    level = min(max(8.0 * eps, 1e-6), 0.49)
    # transport_deficit(fn, gn, .) normalizes once more; its map serves both
    # deficits and the bad set
    fnn = normalize(fn)
    m2 = monotone_transport(fnn, normalize(gn))
    return DeficitReport(
        lambda_=lam,
        tau=tau,
        epsilon=eps,
        transport_deficit=_map_deficit(fnn, m2, lam),
        midpoint_deficit=_map_deficit(fnn, m2, 0.5),
        bad_set_measure=bad_set_measure(fn, m2, eta=eta),
        tail_cut=tail_cut_points(fn, level),
    )
