"""Correctness gate: a run's report against a committed reference report.

A report passes when every check passed and it has the reference's columns,
row count and check names.  When the reference holds numbers for the same
inputs, every cell must also agree within a column-scaled tolerance.

Tolerance for a numeric column: ``RTOL * max|column| + FLOOR * max|table|``.
The first term admits roundoff relative to the column's own size.  The
second admits roundoff in difference columns (margins, slacks, ordering
minima), whose error is set by the size of the operands, not by their own
size; it is the only term for columns that hold pure roundoff.  Both terms
sit far above the 1e-13 relative changes a reordered but equivalent
computation brings, and far below an error in any cell that matters.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

RTOL = 1e-9
FLOOR = 1e-11


def load(path: Path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save(report: dict, path: Path) -> None:
    """Store the parts of a report the gate compares."""
    data = {
        "columns": report["columns"],
        "rows": report["rows"],
        "checks": [{"name": c["name"], "margin": c["margin"], "passed": c["passed"]}
                   for c in report["checks"]],
    }
    text = json.dumps(data, separators=(",", ":")) + "\n"
    path.write_bytes(gzip.compress(text.encode(), mtime=0))


def _scale(values) -> float:
    return max((abs(v) for v in values if isinstance(v, (int, float))), default=0.0)


def _numeric_columns(rows: list) -> list[int]:
    if not rows:
        return []
    return [i for i, v in enumerate(rows[0])
            if isinstance(v, (int, float)) and not isinstance(v, bool)]


def compare(report: dict, reference: dict, numbers: bool) -> list[str]:
    """Problems found in ``report``; empty when it passes the gate."""
    problems = [f"check {c['name']} failed (margin {c['margin']!r})"
                for c in report["checks"] if not c["passed"]]
    if report["columns"] != reference["columns"]:
        problems.append(f"columns {report['columns']} != reference {reference['columns']}")
    if len(report["rows"]) != len(reference["rows"]):
        problems.append(f"{len(report['rows'])} rows != reference {len(reference['rows'])}")
    names = [c["name"] for c in report["checks"]]
    ref_names = [c["name"] for c in reference["checks"]]
    if names != ref_names:
        problems.append(f"check names {names} != reference {ref_names}")
    if problems or not numbers:
        return problems

    rows, ref_rows = report["rows"], reference["rows"]
    cols = _numeric_columns(ref_rows)
    table = max((_scale(r[i] for r in ref_rows) for i in cols), default=0.0)
    for i in cols:
        tol = RTOL * _scale(r[i] for r in ref_rows) + FLOOR * table
        for k, (row, ref) in enumerate(zip(rows, ref_rows)):
            if not abs(row[i] - ref[i]) <= tol:
                problems.append(f"row {k} column {reference['columns'][i]}: "
                                f"{row[i]!r} != reference {ref[i]!r} (tolerance {tol:.3g})")
    margins = [c["margin"] for c in reference["checks"]]
    tol = RTOL * _scale(margins) + FLOOR * table
    for check, ref in zip(report["checks"], reference["checks"]):
        if not abs(check["margin"] - ref["margin"]) <= tol:
            problems.append(f"check {check['name']} margin {check['margin']!r} != "
                            f"reference {ref['margin']!r} (tolerance {tol:.3g})")
    return problems
