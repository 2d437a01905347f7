"""Negative self-test of the correctness gate.

Feeds ``check.Rounds`` canned reports through a fake CLI: well-formed ones
must pass, and each corruption (a slope of 0.7, one FAIL row, a negative
epsilon, one byte changed between rounds, stderr output, a non-zero exit, a
crash) must be flagged and counted as failed operations, so the gate cannot
pass vacuously.  ``run.py`` runs it before every benchmark run; run it alone
with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import sys

from check import Call, Rounds


def _sweep(slope: float) -> str:
    rows = [{"epsilon": 1e-4 * (i + 1), "distance": 0.01 * (i + 1) ** 0.5} for i in range(12)]
    return json.dumps({"rows": rows, "summary": {"slope": slope, "intercept": 0.2, "r2": 0.9999}})


def _invariants(fail_row: bool) -> str:
    rows = [{"name": f"check{i}", "ok": not (fail_row and i == 1), "detail": "x"} for i in range(3)]
    return json.dumps({"rows": rows})


def _deficit(eps: float) -> str:
    return json.dumps({"report": {"epsilon": eps, "transport_deficit": 0.5 * abs(eps)}})


class FakeCli:
    """Replays one canned (stdout, stderr, exit code) per call, in order."""

    def __init__(self, outputs):
        self.outputs = list(outputs)

    def main(self, argv):
        out, err, code = self.outputs.pop(0)
        if isinstance(code, Exception):
            raise code
        sys.stdout.write(out)
        sys.stderr.write(err)
        return code


SWEEP = Call("counterexample", ("counterexample",), points=12)
INVARIANTS = Call("invariants", ("invariants",))
DEFICIT = Call("deficit", ("deficit",))

# (case, call, replies of two rounds, expected failed ops, expected attempted ops)
CASES = [
    ("good sweep", SWEEP, [(_sweep(0.5), "", 0)] * 2, 0, 24),
    ("slope 0.7", SWEEP, [(_sweep(0.7), "", 0)] * 2, 24, 24),
    ("good invariants", INVARIANTS, [(_invariants(False), "", 0)] * 2, 0, 6),
    ("one FAIL row", INVARIANTS, [(_invariants(True), "", 0)] * 2, 2, 6),
    ("good deficit", DEFICIT, [(_deficit(0.01), "", 0)] * 2, 0, 2),
    ("negative epsilon", DEFICIT, [(_deficit(-0.01), "", 0)] * 2, 2, 2),
    ("one byte changed", DEFICIT, [(_deficit(0.01), "", 0), (_deficit(0.02), "", 0)], 1, 2),
    ("stderr output", DEFICIT, [(_deficit(0.01), "warning: x\n", 0)] * 2, 2, 2),
    ("exit code 3", DEFICIT, [(_deficit(0.01), "", 3)] * 2, 2, 2),
    ("crash", DEFICIT, [("", "", RuntimeError("boom"))] * 2, 2, 2),
]


def run() -> list:
    """Problems with the gate; empty when every case is judged as expected."""
    problems = []
    for name, call, replies, want_failed, want_attempted in CASES:
        rounds = Rounds(FakeCli(replies), [call])
        rounds.run()
        rounds.run()
        if (rounds.failed, rounds.attempted) != (want_failed, want_attempted):
            problems.append(
                f"self-test {name!r}: {rounds.failed}/{rounds.attempted} failed, "
                f"expected {want_failed}/{want_attempted}"
            )
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line, file=sys.stderr)
    print(f"{len(CASES) - len(found)} of {len(CASES)} self-test cases judged as expected")
    sys.exit(1 if found else 0)
