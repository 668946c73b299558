"""One checker for every bench gate.

A gate is a list of named :class:`Row` s.  :func:`check` prints every
row and returns one failure string per breached or missing row;
:func:`run_gate` is the shared tail of a gated bench script.  The
scripts themselves only turn their payload and reference into rows.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from pathlib import Path

#: Git-ignored home of every bench script's default output.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


@dataclass(frozen=True)
class Row:
    """The run's value of one named row (``None``: the run lacks it) and its bound.

    ``kind`` is ``"floor"``, ``"ceiling"``, ``"equal"`` (within ``rtol``
    of ``bound``) or ``"present"`` (the row only has to exist).
    """

    name: str
    value: float | None
    kind: str = "present"
    bound: float = 0.0
    reference: float | None = None
    rtol: float = 0.0

    def holds(self) -> bool:
        if self.kind == "floor":
            return self.value >= self.bound
        if self.kind == "ceiling":
            return self.value <= self.bound
        return self.kind == "present" or math.isclose(self.value, self.bound, rel_tol=self.rtol)


def check(title, rows) -> list[str]:
    """Print every row under ``title``; one failure per breached or missing row."""
    print("== %s ==" % title)
    failures = []
    for row in rows:
        bound = "present" if row.kind == "present" else "%s %.10g" % (row.kind, row.bound)
        bound += " within rtol %g" % row.rtol if row.rtol else ""
        bound += ", reference %.10g" % row.reference if row.reference is not None else ""
        shown = "--" if row.value is None else "%.10g" % row.value
        if row.value is None:
            verdict = "MISSING"
            failures.append("%s: row missing from the run" % row.name)
        elif row.holds():
            verdict = "ok"
        else:
            verdict = "FAIL"
            failures.append("%s: %s breaches the %s" % (row.name, shown, bound))
        print("  %-46s %16s  (%s) %s" % (row.name, shown, bound, verdict))
    return failures


def add_arguments(parser, tolerance, tolerance_help) -> None:
    """The ``--check-against`` / ``--tolerance`` flags of a gated script."""
    parser.add_argument("--check-against", type=Path, default=None, metavar="REF.json",
                        help="fail (exit 1) when the run regresses beyond the tolerance vs this reference")
    parser.add_argument("--tolerance", type=float, default=tolerance,
                        help="%s (default %g)" % (tolerance_help, tolerance))


def run_gate(title, output, measure, check_against=None, always=None, against=None):
    """Measure, write the payload to ``output``, check it, exit 1 on a failure.

    ``always(payload)`` gives the rows held on every run and
    ``against(payload, reference)`` those held against ``check_against``,
    which must exist before anything is measured.  The written payload
    also holds the measurement's ``wall_s`` and the ``platform`` it ran
    on.  Returns the payload.
    """
    if check_against is not None and not check_against.is_file():
        # Fail before the run, by name — not with a traceback after it.
        raise SystemExit("error: --check-against reference %s does not exist" % check_against)
    started = time.perf_counter()
    payload = measure()
    payload["wall_s"] = time.perf_counter() - started
    payload["platform"] = {"python": platform.python_version(), "machine": platform.machine()}
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("wrote %s (total wall %.1f s)" % (output, payload["wall_s"]))
    rows = always(payload) if always else []
    failures = []
    if check_against is not None:
        compared = against(payload, json.loads(check_against.read_text()))
        if not compared:
            failures.append("%s holds no row this gate compares" % check_against)
        rows = rows + compared
    if rows:
        failures = check(title, rows) + failures
    for failure in failures:
        print("GATE FAILURE: %s" % failure)
    if failures:
        raise SystemExit(1)
    if rows:
        print("%s passed" % title)
    return payload
