"""Correctness of one pass: hard records, recorded references, work counts.

Every report record is one check.  It fails when it is a hard record
that FAILs, or, for a seed with a recorded reference, when its band
verdict or any of its fields differs from the reference.  The report
header (command, config) and every CSV file are one check each against
the reference, a reference record the pass did not write is one failed
check, and every work count is one check.  ``check_fail_frac``
is failed / attempted.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-9
# Fields such as max_error or defect are rounding residues near 1e-16;
# below this floor they are compared absolutely, not relatively.
ABS_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def read_reports(directory: Path) -> dict:
    """File name -> parsed JSON report, or the list of CSV rows."""
    out = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            out[path.name] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            with path.open(newline="") as fh:
                out[path.name] = list(csv.DictReader(fh))
    return out


def same(a, b) -> bool:
    """Equal structure and strings; numbers within REL_TOL (or ABS_TOL).
    CSV cells are strings and compare as numbers when both parse."""
    if isinstance(a, str) and isinstance(b, str):
        fa, fb = _number(a), _number(b)
        return a == b if fa is None or fb is None else _close(fa, fb)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _close(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_reports(reports: dict, reference: dict | None, tally: Tally) -> None:
    if reference is not None:
        tally.check(sorted(reports) == sorted(reference),
                    f"report files {sorted(reports)} differ from the reference")
    for name, rep in reports.items():
        ref = reference.get(name) if reference is not None else None
        if name.endswith(".csv"):
            if reference is not None:
                tally.check(ref is not None and same(rep, ref),
                            f"{name}: rows differ from the reference")
            continue
        if reference is not None:
            header = {k: v for k, v in rep.items() if k != "checks"}
            ref_header = {k: v for k, v in (ref or {}).items() if k != "checks"}
            tally.check(same(header, ref_header), f"{name}: header differs from the reference")
        ref_records = (ref or {}).get("checks", [])
        for i, rec in enumerate(rep["checks"]):
            what = f"{name}: {rec['statement']}"
            ok = rec["pass"] is True if rec["kind"] == "hard" else True
            if not ok:
                tally.check(False, f"{what} FAILED")
                continue
            if reference is not None:
                ok = i < len(ref_records) and same(rec, ref_records[i])
            tally.check(ok, f"{what} differs from the reference")
        for rec in ref_records[len(rep["checks"]):]:
            tally.check(False, f"{name}: {rec['statement']} missing")


def check_work(counts: dict, expected: dict, tally: Tally) -> None:
    for key, need in sorted(expected.items()):
        got = counts.get(key, 0)
        tally.check(got >= need, f"work count {key} = {got}, below {need}")


def reference_path(seed: int, workload: str) -> Path:
    return REFERENCE_DIR / f"seed-{seed}" / f"{workload}.json"


def load_reference(seed: int, workload: str) -> dict | None:
    path = reference_path(seed, workload)
    return json.loads(path.read_text()) if path.exists() else None
