"""Every figure preset against its recorded data rows.

tests/data/preset_rows.json.gz holds, per preset, the CSV column names and
every data row as written by result_to_csv. A refactor that is meant to
keep the numbers must reproduce them to 1e-10 relative, with a floor of
1e-12 of the largest |value| in the column; the text columns and the
converged flag must match exactly. To re-record after a deliberate change
of the numbers (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_presets.py --record
"""
from __future__ import annotations

import csv
import gzip
import io
import json
import math
import sys
from pathlib import Path

import pytest

from diracvisc import (figure_preset, result_to_csv, result_to_json,
                       result_to_svg, run_sweep)

PRESETS = ("fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5")
BASELINE = Path(__file__).parent / "data" / "preset_rows.json.gz"
REL, FLOOR = 1e-10, 1e-12
TEXT_COLUMNS = ("regime", "converged")


def preset_table(name: str) -> dict:
    """The CSV column names and data rows of one preset (comment lines
    dropped)."""
    text = result_to_csv(run_sweep(figure_preset(name)))
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    columns, *rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return {"columns": columns, "rows": rows}


def _number(cell: str) -> float | None:
    return float(cell) if cell else None


@pytest.fixture(scope="module")
def baseline() -> dict:
    with gzip.open(BASELINE, "rt") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_matches_recorded_rows(name, baseline):
    want, got = baseline[name], preset_table(name)
    assert got["columns"] == want["columns"]
    assert len(got["rows"]) == len(want["rows"])
    for j, col in enumerate(want["columns"]):
        w = [row[j] for row in want["rows"]]
        g = [row[j] for row in got["rows"]]
        if col in TEXT_COLUMNS:
            assert g == w, col
            continue
        w, g = [_number(x) for x in w], [_number(x) for x in g]
        scale = max((abs(x) for x in w if x is not None and math.isfinite(x)),
                    default=0.0)
        for i, (a, b) in enumerate(zip(g, w)):
            if a is None or b is None or not math.isfinite(b):
                assert repr(a) == repr(b), (col, i)
            else:
                assert abs(a - b) <= max(REL * abs(b), FLOOR * scale), \
                    (col, i, a, b)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(x)


@pytest.mark.parametrize("name", PRESETS)
def test_json_and_svg_read_the_csv_rows(name):
    # the JSON and SVG writers read SweepResult.rows, the CSV writer its
    # columns: every JSON cell prints as its CSV cell, and the SVG draws
    # one labelled line per series of those rows
    result = run_sweep(figure_preset(name))
    lines = [ln for ln in result_to_csv(result).splitlines()
             if not ln.startswith("#")]
    columns, *rows = list(csv.reader(lines))
    payload = json.loads(result_to_json(result))["rows"]
    for row, r in zip(rows, payload, strict=True):
        cells = [_cell(r[k]) for k in ("E", "B", "Omega", "A", "value")]
        cells += [_cell(r["channels"].get(c)) for c in columns[5:-2]]
        assert cells + [r["regime_tag"], _cell(r["converged"])] == row
    by_omega = len({r["Omega"] for r in payload}) > len({r["E"] for r in payload})
    series = {(r["A"], r["B"], r["E"] if by_omega else r["Omega"])
              for r in payload}
    svg = result_to_svg(result)
    assert svg.count("<polyline") == len(series)
    assert all(f">A={a!r}" in svg for a, _, _ in series)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    table = {name: preset_table(name) for name in PRESETS}
    BASELINE.write_bytes(gzip.compress(
        json.dumps(table, separators=(",", ":")).encode(), mtime=0))
    print(f"wrote {BASELINE}")
