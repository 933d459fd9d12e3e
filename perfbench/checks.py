"""Correctness checks on the CSV files a sweep writes.

With a recorded reference for the seed, every numeric column (grid
coordinates, value and channels) must match it within REL_TOL relative,
plus an absolute floor of REL_TOL times the column's largest magnitude, so
that values crossing zero (Hall rows near E = 0) are not held to a relative
test. Without a reference, rows must be converged and finite, and shear
viscosities must not be negative.
"""
from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# ROADMAP's solver-equivalence tolerance; the SCBA itself stops at 1e-10
REL_TOL = 1e-8

SHEAR = ("static_shear", "dynamic_shear")
N_COORDS = 4  # E, B, Omega, A


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """(column names, rows of cells) of a sweep CSV; '#' lines skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _num(cell: str) -> float | None:
    return float(cell) if cell else None


def numeric_rows(columns: list[str], rows: list[list[str]]) -> list[list]:
    """Grid coordinates, value and channel cells as floats (None if empty);
    the trailing regime and converged columns are dropped."""
    n = len(columns) - 2
    return [[_num(c) for c in row[:n]] for row in rows]


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}.seed{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(gzip.decompress(path.read_bytes()))


def check_rows(text: str, quantity: str, expected: int,
               reference: dict | None) -> tuple[int, list[str]]:
    """(failed row count, messages) for one sweep's CSV output.

    A missing or short file fails every expected row it lacks.
    """
    columns, rows = read_csv(text)
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows written, {expected} expected")
    failed = max(expected - len(rows), 0)
    rows = rows[:expected]
    try:
        values = numeric_rows(columns, rows)
    except ValueError as exc:
        return expected, problems + [f"unreadable CSV: {exc}"]
    floors = None
    if reference is not None:
        if reference["columns"] != columns or len(reference["rows"]) != expected:
            problems.append("columns or row count differ from the reference")
            return expected, problems
        ref_rows = reference["rows"]
        floors = [REL_TOL * max((abs(r[j]) for r in ref_rows
                                 if r[j] is not None), default=0.0)
                  for j in range(len(columns) - 2)]
    for i, (cells, nums) in enumerate(zip(rows, values)):
        why = _row_problem(cells, nums, quantity,
                           None if floors is None else reference["rows"][i],
                           floors)
        if why:
            failed += 1
            if len(problems) < 5:
                problems.append(f"row {i} ({','.join(cells[:N_COORDS])}): {why}")
    return failed, problems


def _row_problem(cells, nums, quantity, ref, floors) -> str | None:
    if cells[-1] != "true":
        return "not converged"
    if any(x is not None and not math.isfinite(x) for x in nums):
        return "non-finite value"
    if ref is None:
        if quantity in SHEAR and nums[N_COORDS] < 0:
            return f"negative shear viscosity {nums[N_COORDS]!r}"
        return None
    for j, (x, r) in enumerate(zip(nums, ref)):
        if (x is None) != (r is None):
            return f"column {j}: {x!r} where the reference has {r!r}"
        if x is not None and abs(x - r) > REL_TOL * abs(r) + floors[j]:
            return f"column {j}: {x!r} vs reference {r!r}"
    return None
