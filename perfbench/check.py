"""Correctness gate for CLI reports.

Each check is a property the mathematics guarantees, at the tolerance the
acceptance suite itself uses, so any correct implementation passes whatever
its rounding:

- sweeps: every epsilon >= -1e-6 (criterion 1) and 0 < distance <= 1 + a,
  the triangle-inequality bound for unit-mass f and g scaled by a (a = 1 in
  1-D, a <= 2 in the radial amplitude search); the 1-D fit has slope
  0.5 +- 0.05 with r2 >= 0.99 (criterion 5), the radial fit slope
  0.5 +- 0.07 (criterion 13);
- invariants: every row ok;
- deficit: epsilon >= -1e-6 and epsilon >= 0.98 * transport_deficit - 1e-8
  (criterion 3);
- stability: epsilon >= -1e-6, scale > 0, and each distance between 0 and
  the triangle-inequality bound of its two masses (``_check_stability``).

Every call must also exit 0 with empty stderr, and its report must be
byte-identical across rounds of the same seed (criterion 15).

An operation is a sweep point, an invariant check or one CLI call.  A
failure of the whole call (exit code, stderr, unreadable report, failed fit,
changed bytes) fails every operation of the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its report must satisfy.

    ``kind`` selects the checker; ``points`` is the number of sweep points a
    sweep must report (0 for other commands); ``out`` is the report file when
    the report is not written to stdout.
    """

    kind: str
    argv: tuple
    points: int = 0
    out: str | None = None


@dataclass
class Verdict:
    ops: int
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail_all(self, why: str) -> None:
        self.failed = self.ops
        self.problems.append(why)


def _num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_sweep(payload: dict, v: Verdict, points: int, radial: bool) -> None:
    rows = payload.get("rows")
    if not isinstance(rows, list) or len(rows) != points:
        v.fail_all(f"expected {points} sweep rows")
        return
    d_max = 3.0 if radial else 2.0
    bad = 0
    for i, row in enumerate(rows):
        row = row if isinstance(row, dict) else {}
        eps, dist = row.get("epsilon"), row.get("distance")
        if not (_num(eps) and _num(dist) and eps >= -1e-6 and 0.0 < dist <= d_max):
            bad += 1
            v.problems.append(f"row {i}: epsilon={eps!r} distance={dist!r}")
    v.failed = bad
    summary = payload.get("summary")
    summary = summary if isinstance(summary, dict) else {}
    slope, r2 = summary.get("slope"), summary.get("r2")
    if radial:
        ok = _num(slope) and abs(slope - 0.5) <= 0.07
    else:
        ok = _num(slope) and _num(r2) and abs(slope - 0.5) <= 0.05 and r2 >= 0.99
    if not ok:
        v.fail_all(f"exponent fit slope={slope!r} r2={r2!r}")


def _check_invariants(payload: dict, v: Verdict, points: int) -> None:
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        v.fail_all("no invariant rows")
        return
    for row in rows:
        row = row if isinstance(row, dict) else {}
        if row.get("ok") is not True:
            v.failed += 1
            v.problems.append(f"invariant {row.get('name')!r} failed: {row.get('detail')!r}")


def _report(payload: dict) -> dict:
    rep = payload.get("report")
    return rep if isinstance(rep, dict) else {}


def _check_deficit(payload: dict, v: Verdict, points: int) -> None:
    rep = _report(payload)
    eps, td = rep.get("epsilon"), rep.get("transport_deficit")
    if not (_num(eps) and _num(td) and eps >= -1e-6 and eps >= 0.98 * td - 1e-8):
        v.fail_all(f"deficit epsilon={eps!r} transport_deficit={td!r}")


def _check_stability(payload: dict, v: Verdict, points: int) -> None:
    """The distances are L1 norms of differences, so the triangle inequality
    bounds each by the sum of the two masses: d_f <= 2 (the aligned search
    probes the witness at the mass ratio), d_h <= 2 (1 + epsilon), and
    d_g <= 1 + scale^lambda * mass(witness).  The coupled g-witness is not
    re-aligned, so d_g exceeds 2 when the fitted scale is far from 1."""
    rep = _report(payload)
    eps, scale, lam = rep.get("epsilon"), rep.get("scale"), rep.get("lambda")
    d_f, d_g, d_h = (rep.get(k) for k in ("distance_f", "distance_g", "distance_h"))
    witness = rep.get("witness")
    try:
        w_mass = witness["dx"] * math.fsum(witness["values"])
    except (TypeError, KeyError, ValueError):
        w_mass = None
    ok = all(_num(x) for x in (eps, scale, lam, d_f, d_g, d_h, w_mass))
    ok = ok and eps >= -1e-6 and scale > 0.0 and 0.0 < lam < 1.0
    slack = 1e-9
    ok = ok and 0.0 <= d_f <= 2.0 + slack and 0.0 <= d_h <= 2.0 * (1.0 + eps) + slack
    ok = ok and 0.0 <= d_g <= (1.0 + scale ** lam * w_mass) * (1.0 + slack)
    if not ok:
        v.fail_all(f"stability epsilon={eps!r} distances={[d_f, d_g, d_h]!r} scale={scale!r}")


_CHECKS = {
    "counterexample": lambda payload, v, points: _check_sweep(payload, v, points, radial=False),
    "radial": lambda payload, v, points: _check_sweep(payload, v, points, radial=True),
    "invariants": _check_invariants,
    "deficit": _check_deficit,
    "stability": _check_stability,
}


def check_call(kind: str, points: int, code, stderr: str, report: str | None) -> Verdict:
    """Verdict on one CLI call from its exit code, stderr and report text."""
    try:
        payload = json.loads(report or "")
    except json.JSONDecodeError:
        payload = None
    if not isinstance(payload, dict):
        payload = None
    rows = payload.get("rows") if payload else None
    if kind == "invariants":
        ops = len(rows) if isinstance(rows, list) and rows else 1
    else:
        ops = max(points, 1)
    v = Verdict(ops)
    if payload is None:
        v.fail_all("report is not a JSON object")
    else:
        _CHECKS[kind](payload, v, points)
    if code != 0:
        v.fail_all(f"exit code {code!r}")
    if stderr:
        v.fail_all(f"stderr: {stderr.strip()[:300]!r}")
    return v


def check_repeat(v: Verdict, report: str | None, first: str | None) -> None:
    """Fail the call when its report differs from the first round's bytes."""
    if report != first:
        v.fail_all("report bytes differ from the first round")


class Rounds:
    """Runs rounds of a workload's calls and tallies the checked operations."""

    def __init__(self, cli, calls):
        self.cli = cli
        self.calls = calls
        self.first = None  # each call's report in the first round
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _call(self, call):
        if call.out and os.path.exists(call.out):
            os.remove(call.out)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc()
                code = None
            spent = time.perf_counter() - t0
        report = out.getvalue()
        if call.out:
            report = None
            if os.path.exists(call.out):
                with open(call.out) as handle:
                    report = handle.read()
        return spent, code, err.getvalue(), report

    def run(self) -> float:
        """One round; returns the seconds spent inside the CLI calls."""
        total = 0.0
        reports = []
        for i, call in enumerate(self.calls):
            spent, code, stderr, report = self._call(call)
            total += spent
            verdict = check_call(call.kind, call.points, code, stderr, report)
            if self.first is not None:
                check_repeat(verdict, report, self.first[i])
            reports.append(report)
            self.attempted += verdict.ops
            self.failed += verdict.failed
            self.problems += [f"{call.argv[0]}: {p}" for p in verdict.problems]
        if self.first is None:
            self.first = reports
        return total

    def tally(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems[:20]}
