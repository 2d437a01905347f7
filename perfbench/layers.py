"""Per-layer tracing from outside the library, and the n-ladder.

``Tracer`` wraps the public functions of each plstab module (layer) in spans:
name, start, end and the enclosing span.  Spans stay in memory and are
reduced to ``<module>.<function>.<stat>`` metrics after the round.  A span's
self time is its duration minus the durations of its direct children (the
workload is single-threaded, so children never overlap).

plstab modules import each other's functions by name (``stability`` holds
its own ``l1_distance``, ``cli`` its own ``sup_convolution``), so a wrapper
replaces *every* attribute of every ``plstab.*`` module that is the original
function object.  Calls made through a module attribute, as ``radial`` makes
them into ``supconv``, and function-local imports then see the wrapper too.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time

TRACED = {
    "cli": ("main",),
    "stability": (
        "aligned_l1_distance",
        "counterexample_family",
        "radial_counterexample_family",
        "stability_distance",
        "full_deficit_report",
    ),
    "grids": ("l1_distance", "from_csv"),
    "supconv": ("sup_convolution",),
    "transport": ("monotone_transport", "transport_deficit"),
    "logconcave": ("log_concave_hull", "is_log_concave"),
    "levelsets": ("symmetric_rearrangement", "check_rearranged_pl"),
    "radial": ("radial_sup_convolution", "radial_l1_distance"),
}

# counts that must repeat exactly between two traced rounds of one seed
COUNT_STATS = ("calls", "probes_per_call", "capped", "concave_frac", "same_grid_frac", "per_report")

LADDER_N = (1024, 4096, 16384)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, note]
        self._stack = []
        self._patches = []

    def install(self) -> None:
        logconcave = importlib.import_module("plstab.logconcave")
        supconv = importlib.import_module("plstab.supconv")
        is_log_concave = logconcave.is_log_concave
        max_cells = getattr(supconv, "DEFAULT_MAX_CELLS", None)

        def note_l1(args, kwargs, result):
            f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
            same = f.x0 == g.x0 and f.dx == g.dx and f.n == g.n
            return {"cells": f.n + g.n, "same": same}

        def note_supconv(args, kwargs, result):
            # classified with the unwrapped test, outside the span
            f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
            concave = bool(is_log_concave(f)[0] and is_log_concave(g)[0])
            return {"cells": result.h.n, "concave": concave, "capped": result.h.n == max_cells}

        notes = {"grids.l1_distance": note_l1, "supconv.sup_convolution": note_supconv}
        modules = [m for name, m in sys.modules.items() if name == "plstab" or name.startswith("plstab.")]
        for mod_name, functions in TRACED.items():
            module = sys.modules.get(f"plstab.{mod_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:  # gone after a refactor: its metrics read 0
                    continue
                name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(name, original, notes.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return wrapper


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_stats(spans) -> dict:
    """``<module>.<function>.<stat>`` metrics from one round's spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for mod_name, functions in TRACED.items():
        for fn_name in functions:
            name = f"{mod_name}.{fn_name}"
            idx = [i for i, s in enumerate(spans) if s[0] == name]
            total = sum(spans[i][2] - spans[i][1] for i in idx)
            out[f"{name}.calls"] = len(idx)
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = total - sum(child[i] for i in idx)
    out["stability.aligned_l1_distance.probes_per_call"] = _nested_per_call(
        spans, "grids.l1_distance", "stability.aligned_l1_distance", out)
    out["transport.monotone_transport.per_report"] = _nested_per_call(
        spans, "transport.monotone_transport", "stability.full_deficit_report", out)

    # a call that raised has no note
    l1 = [s[4] for s in spans if s[0] == "grids.l1_distance" and s[4]]
    cells = sum(n["cells"] for n in l1)
    out["grids.l1_distance.ns_per_cell"] = 1e9 * out["grids.l1_distance.total_s"] / cells if cells else 0.0
    out["grids.l1_distance.same_grid_frac"] = sum(n["same"] for n in l1) / len(l1) if l1 else 0.0

    sc = [s[4] for s in spans if s[0] == "supconv.sup_convolution" and s[4]]
    cells = sum(n["cells"] for n in sc)
    out["supconv.sup_convolution.ns_per_cell"] = (
        1e9 * out["supconv.sup_convolution.total_s"] / cells if cells else 0.0)
    out["supconv.sup_convolution.concave_frac"] = sum(n["concave"] for n in sc) / len(sc) if sc else 0.0
    out["supconv.sup_convolution.capped"] = sum(n["capped"] for n in sc)
    return out


def _nested_per_call(spans, inner, outer, stats) -> float:
    calls = stats[f"{outer}.calls"]
    if not calls:
        return 0.0
    nested = sum(1 for i, s in enumerate(spans) if s[0] == inner and _has_ancestor(spans, i, outer))
    return nested / calls


def count_mismatches(a: dict, b: dict) -> list:
    """Names of count metrics that differ between two traced rounds."""
    return [k for k in a if k.rsplit(".", 1)[-1] in COUNT_STATS and a[k] != b[k]]


def _time(fn, budget: float = 0.25, max_reps: int = 7) -> float:
    """Median seconds per call over repeats filling ``budget`` (one call at least)."""
    times = []
    while not times or (sum(times) < budget and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def counterexample_pair(n: int, delta: float = 0.05):
    """The ``counterexample`` pair f = exp(-pi x^2), g = (1 + delta*phi) f on
    [-4, 4], phi the odd bump x (1 - x^2)^3 scaled to peak 1 (at x = 7^-1/2)."""
    import numpy as np
    from plstab.grids import GridFunction, normalize

    dx = 8.0 / (n - 1)
    xs = -4.0 + dx * np.arange(n)
    f = np.exp(-math.pi * xs ** 2)
    phi = np.where(np.abs(xs) < 1.0, xs * (1.0 - xs ** 2) ** 3, 0.0)
    phi /= 7.0 ** -0.5 * (6.0 / 7.0) ** 3
    return normalize(GridFunction(-4.0, dx, f)), normalize(GridFunction(-4.0, dx, (1.0 + delta * phi) * f))


def ladder() -> dict:
    """Seconds per call of the hot functions at each n, and log4 growth from
    n=4096 to n=16384 (1 for linear cost, 2 for quadratic)."""
    from plstab import grids, logconcave, radial, stability, supconv, transport

    out = {}
    for n in LADDER_N:
        f, g = counterexample_pair(n)
        probe = grids.translate(f, f.dx / 3.0)  # an aligned-search probe: off-grid shift
        rcfg = stability.CounterexampleConfig(delta=0.05, t=0.5, grid_n=n, phi_id="even_radial")
        rad = stability.radial_counterexample_family(rcfg, 3)
        cases = {
            "supconv.sup_convolution": lambda: supconv.sup_convolution(f, g, 0.5),
            "stability.aligned_l1_distance": lambda: stability.aligned_l1_distance(g, f),
            "grids.l1_distance": lambda: grids.l1_distance(g, probe),
            "transport.transport_deficit": lambda: transport.transport_deficit(f, g, 0.5),
            "logconcave.log_concave_hull": lambda: logconcave.log_concave_hull(g),
            "radial.radial_sup_convolution": lambda: radial.radial_sup_convolution(rad.f, rad.g, 0.5),
        }
        for name, fn in cases.items():
            out[f"{name}.s.n{n}"] = _time(fn)
    lo, hi = LADDER_N[-2], LADDER_N[-1]
    for name in cases:
        out[f"{name}.growth"] = math.log(out[f"{name}.s.n{hi}"] / out[f"{name}.s.n{lo}"]) / math.log(hi / lo)
    return out
