"""Parameter sweeps with deterministic, reproducible tabular output.

A sweep is described by a flat SweepSpec (JSON-serializable); rows are
computed serially, one B row at a time: every (E, Omega, A) point at one
field in one evaluator call, whose SCBA solves take a disorder column (the
dynamic Hall kink sum does not depend on A and is summed once per row). An
SCBA energy left open reads nan, and run_sweep flags every point whose
value is not finite as not converged: the sweep's one failure path. The
result is a column table, its rows listed in lexicographic grid order
(E, B, Omega, A) by one index permutation, so CSV output is byte-identical
across runs; the CSV writer formats it column by column. Each quantity is
one QUANTITIES entry: its evaluator, its CSV columns and the grids it
needs.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .model import (DEFAULT_CUTOFF, ModelParams, build_spectrum, check_in_band,
                    vertex_correction_b0, vertex_correction_landau)
from .kubo_static import (hall_static_numeric, shear_b0_numeric,
                          shear_bfield_numeric)
from .kubo_dynamic import hall_dynamic, shear_dynamic_b0, shear_dynamic_bfield
from .scba import dos, solve_self_energy_b0, solve_self_energy_landau


# ---------------------------------------------------------------------------
# quantities: each evaluator maps one B row, the points (E[i], Omega[i],
# A[i]) (Omega None for the static quantities), its spectrum (None at
# B = 0) and its params (whose disorder A[i] replaces) to a column table,
# a dict of arrays: "value", the channel columns and "regime", one entry
# per point. It calls the physics through module globals.
# ---------------------------------------------------------------------------

def _number(value, kind=numbers.Real) -> bool:
    """value is a number of the given kind and not a bool (JSON true and
    false load as bools)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _json_object(value, name: str) -> dict:
    """A copy of value, a JSON object; anything else is refused by name."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return dict(value)


def _int_setting(fixed: dict, name: str, default: int) -> int:
    """fixed[name] as an int; a fractional or non-numeric value is refused
    rather than truncated."""
    value = fixed.get(name, default)
    if not (_number(value) and value % 1 == 0):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _solve_sigma(e, A, spectrum, params):
    if spectrum is None:
        return solve_self_energy_b0(e, params, A=A)
    return solve_self_energy_landau(e, params, spectrum, A=A)


def _static_table(v) -> dict:
    return {"value": v.value, **v.channels, "regime": np.array(v.regime_tag)}


def _self_energy(e, Omega, A, spectrum, params, fixed) -> dict:
    sol = _solve_sigma(e, A, spectrum, params)
    return {"value": sol.sigma.imag, "re_sigma": sol.sigma.real,
            "residual": sol.residual, "iterations": sol.steps}


def _dos(e, Omega, A, spectrum, params, fixed) -> dict:
    return {"value": dos(e, _solve_sigma(e, A, spectrum, params).sigma,
                         params, spectrum, A=A)}


def _static_shear(e, Omega, A, spectrum, params, fixed) -> dict:
    if spectrum is None:
        return _static_table(shear_b0_numeric(e, params, A=A))
    return _static_table(shear_bfield_numeric(e, params, spectrum, A=A))


def _static_hall(e, Omega, A, spectrum, params, fixed) -> dict:
    return _static_table(hall_static_numeric(e, params, spectrum, A=A))


def _dynamic_shear(e, Omega, A, spectrum, params, fixed) -> dict:
    if spectrum is None:
        return {"value": shear_dynamic_b0(e, Omega, params, A=A)}
    return {"value": shear_dynamic_bfield(e, Omega, params, spectrum,
                                          fixed.get("broadening"), A=A)}


def _dynamic_hall(e, Omega, A, spectrum, params, fixed) -> dict:
    # the kink sum does not depend on A: the row's (E, Omega) points at its
    # first A are summed once and repeated for every A (the row is A-major)
    gamma = fixed.get("broadening", spectrum.hbar_omega_c / 50.0)
    first = A == A[0]
    value = hall_dynamic(e[first], Omega[first], params, spectrum, gamma)
    return {"value": np.tile(value, A.size // value.size)}


def _vertex_check(e, Omega, A, spectrum, params, fixed) -> dict:
    # neither check depends on E or A: one of each per row
    ratio = vertex_correction_b0(e[0], params).ratio
    table = {"value": np.full(e.size, ratio),
             "ratio_momentum": np.full(e.size, ratio)}
    if spectrum is not None:
        table["ratio_landau"] = np.full(
            e.size, vertex_correction_landau(spectrum).ratio)
    return table


class Quantity(NamedTuple):
    evaluate: Callable[..., dict]  # (E, Omega, A, spectrum, params, fixed)
    value_label: str               # CSV header of the value column
    channels: tuple[str, ...] = ()  # CSV channel columns, in order
    dynamic: bool = False          # needs an Omega grid; others refuse one
    needs_field: bool = False      # needs a B grid with every B > 0


QUANTITIES = {
    "self_energy": Quantity(_self_energy, "im_sigma (eV)",
                            ("re_sigma", "residual", "iterations")),
    "dos": Quantity(_dos, "dos (1/eV nm^2)"),
    "static_shear": Quantity(_static_shear, "eta_s (hbar/nm^2)", ("RA", "RR")),
    "static_hall": Quantity(_static_hall, "eta_H (hbar/nm^2)",
                            ("RA", "RR", "II"), needs_field=True),
    "dynamic_shear": Quantity(_dynamic_shear, "eta_s (hbar/nm^2)",
                              dynamic=True),
    "dynamic_hall": Quantity(_dynamic_hall, "eta_H (hbar/nm^2)",
                             dynamic=True, needs_field=True),
    "vertex_check": Quantity(_vertex_check, "vertex_ratio",
                             ("ratio_momentum", "ratio_landau")),
}


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        for key, end in (("start", self.start), ("stop", self.stop)):
            if not (_number(end) and math.isfinite(end)):
                raise ValueError(f"grid {key} {end!r} is not a number or "
                                 "not finite")
        if not _number(self.count, numbers.Integral):
            raise ValueError(f"grid count {self.count!r} is not an integer")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown grid scale {self.scale!r}")

    def values(self) -> list[float]:
        if self.count < 1:
            raise ValueError("grid count must be >= 1")
        if self.count == 1:
            return [self.start]
        if self.scale == "linear":
            return list(np.linspace(self.start, self.stop, self.count))
        return list(np.geomspace(self.start, self.stop, self.count))


def _as_grid(raw, name: str) -> GridSpec | None:
    if raw is None or isinstance(raw, GridSpec):
        return raw
    if _number(raw):
        return GridSpec(start=float(raw), stop=float(raw), count=1)
    try:
        return GridSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a number or a grid object with "
                         f"start, stop and count ({exc})") from None


@dataclass(frozen=True)
class SweepSpec:
    quantity: str
    e_grid: GridSpec | None = None
    b_grid: GridSpec | None = None
    omega_grid: GridSpec | None = None
    a_values: tuple[float, ...] = ()
    fixed: dict = field(default_factory=dict)
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        q = (QUANTITIES.get(self.quantity)
             if isinstance(self.quantity, str) else None)
        if q is None:
            raise ValueError(f"unknown quantity {self.quantity!r}; "
                             f"valid: {', '.join(QUANTITIES)}")
        if not (isinstance(self.a_values, tuple) and self.a_values
                and all(map(_number, self.a_values))):
            raise ValueError("A must be a non-empty list of disorder values, "
                             f"got {self.a_values!r}")
        # stored as floats, so that a config's 20 and --a 20 write one CSV
        object.__setattr__(self, "a_values", tuple(map(float, self.a_values)))
        for a in self.a_values:     # before any row, each of which runs all A
            if not (math.isfinite(a) and a > 0):
                raise ValueError(f"disorder_A must be positive and finite, "
                                 f"got {a}")
        if self.omega_grid is not None and not q.dynamic:
            raise ValueError(
                f"an Omega grid is only meaningful for dynamic quantities, "
                f"not {self.quantity!r}")
        if q.dynamic and self.omega_grid is None:
            raise ValueError(f"{self.quantity!r} requires an Omega grid")
        if q.dynamic and 0.0 in self.omega_grid.values():
            raise ValueError(f"{self.quantity!r} needs Omega != 0; the Omega "
                             "grid contains 0 (use the static quantity there)")
        if q.needs_field and (self.b_grid is None
                              or min(self.b_grid.values()) <= 0.0):
            raise ValueError(f"{self.quantity!r} needs a magnetic field B > 0")
        if self.b_grid is not None and min(self.b_grid.values()) < 0.0:
            raise ValueError("B must be >= 0; the B grid holds a negative "
                             "field")
        if not isinstance(self.output_path, (str, type(None))):
            raise ValueError(f"output path must be a string, got "
                             f"{self.output_path!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        _int_setting(self.fixed, "degeneracy", 4)
        for name in ("hbar_vf", "cutoff_Ec", "temperature", "broadening"):
            value = self.fixed.get(name, 0.0)
            if not _number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for E in self.e_grid.values() if self.e_grid else ():
            check_in_band(E, self.fixed.get("cutoff_Ec", DEFAULT_CUTOFF))

    def to_config(self) -> dict:
        """Flat JSON form, as read back by from_config."""
        cfg = {"quantity": self.quantity, "A": list(self.a_values),
               "fixed": dict(self.fixed),
               "output": {"path": self.output_path,
                          "format": self.output_format}}
        for name, grid in (("E", self.e_grid), ("B", self.b_grid),
                           ("Omega", self.omega_grid)):
            cfg[name] = asdict(grid) if grid is not None else None
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "SweepSpec":
        cfg = _json_object(cfg, "a config")
        out = _json_object(cfg.get("output", {}), "output")
        a_values = cfg.get("A", ())
        return SweepSpec(
            quantity=cfg.get("quantity"),
            e_grid=_as_grid(cfg.get("E"), "E"),
            b_grid=_as_grid(cfg.get("B"), "B"),
            omega_grid=_as_grid(cfg.get("Omega"), "Omega"),
            a_values=(tuple(a_values) if isinstance(a_values, list)
                      else a_values),
            fixed=_json_object(cfg.get("fixed", {}), "fixed"),
            output_path=out.get("path"),
            output_format=out.get("format", "csv"))


@dataclass(frozen=True)
class SweepRow:
    E: float
    B: float | None
    Omega: float | None
    A: float
    value: float
    channels: dict = field(default_factory=dict)
    regime_tag: str = ""
    converged: bool = True


@dataclass(frozen=True)
class SweepResult:
    """A sweep's header and its column table, one array per CSV column in
    the CSV's order ("E", "B", "Omega", "A", "value", the quantity's
    channels, "regime", "converged"), each in row order. A column that has
    blank cells is an object array holding None at each; one that is blank
    throughout (B or Omega without its grid, say) is None."""
    header: dict
    columns: dict

    def __len__(self) -> int:
        return len(self.columns["value"])

    @cached_property
    def rows(self) -> list[SweepRow]:
        """The table as SweepRow objects; a blank channel cell is left out
        of its row's channels."""
        n = len(self)
        cells = {name: [None] * n if c is None else c.tolist()
                 for name, c in self.columns.items()}
        names = QUANTITIES[self.header["config"]["quantity"]].channels
        return [SweepRow(E=cells["E"][i], B=cells["B"][i],
                         Omega=cells["Omega"][i], A=cells["A"][i],
                         value=cells["value"][i],
                         channels={c: cells[c][i] for c in names
                                   if cells[c][i] is not None},
                         regime_tag=cells["regime"][i] or "",
                         converged=cells["converged"][i])
                for i in range(n)]


def _make_params(A: float, fixed: dict) -> ModelParams:
    given = {k: fixed[k] for k in ("hbar_vf", "cutoff_Ec", "temperature")
             if k in fixed}
    return ModelParams(disorder_A=A, **given,
                       degeneracy=_int_setting(fixed, "degeneracy", 4))


def _join(tables: list[dict]) -> dict:
    """The tables' rows in order as one table; where a table lacks a
    column, its cells there are blank (None, in an object column)."""
    if len(tables) == 1:
        return tables[0]
    sizes = [t["value"].size for t in tables]
    joined = {}
    for name in dict.fromkeys(k for t in tables for k in t):
        parts = [t.get(name) for t in tables]
        if any(p is None for p in parts):
            parts = [np.full(n, None) if p is None
                     else np.asarray(p, dtype=object)
                     for p, n in zip(parts, sizes)]
        joined[name] = np.concatenate(parts)
    return joined


def _eval_point(spec: SweepSpec, e: np.ndarray, B: float | None,
                Omega: np.ndarray | None, A: np.ndarray) -> dict:
    """The column table of one B row over the points (e[i], Omega[i], A[i]),
    in their order, from one evaluator call; Omega is None for a static
    quantity. A point whose SCBA solve stays open reads nan in its value
    (and in its value channels), which run_sweep flags."""
    params = _make_params(float(A[0]), spec.fixed)
    spectrum = build_spectrum(params, B) if B else None
    return QUANTITIES[spec.quantity].evaluate(e, Omega, A, spectrum, params,
                                              spec.fixed)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid one B row at a time and list the rows in
    lexicographic (E, B, Omega, A) order; a point whose value is not
    finite (a failed solve, an overflow) is flagged as not converged."""
    e_vals = np.array((spec.e_grid or GridSpec(0.0, 0.0, 1)).values())
    b_vals = spec.b_grid.values() if spec.b_grid else [None]
    o_vals = (None if spec.omega_grid is None
              else np.array(spec.omega_grid.values()))
    n_e, n_b, n_a = e_vals.size, len(b_vals), len(spec.a_values)
    n_o = 1 if o_vals is None else o_vals.size
    # a row's points run over (A, E, Omega), the rows over B
    e = np.tile(np.repeat(e_vals, n_o), n_a)
    omega = None if o_vals is None else np.tile(o_vals, n_e * n_a)
    A = np.repeat(spec.a_values, n_e * n_o)
    table = _join([_eval_point(spec, e, B, omega, A) for B in b_vals])
    columns = {"E": np.tile(e, n_b),
               "B": None if spec.b_grid is None else np.repeat(b_vals, e.size),
               "Omega": None if omega is None else np.tile(omega, n_b),
               "A": np.tile(A, n_b)}
    for name in ("value", *QUANTITIES[spec.quantity].channels, "regime"):
        columns[name] = table.get(name)
    order = np.arange(e.size * n_b).reshape(n_b, n_a, n_e, n_o).transpose(
        2, 0, 3, 1).ravel()
    columns = {name: None if c is None else c[order]
               for name, c in columns.items()}
    columns["converged"] = np.isfinite(columns["value"])
    header = {"config": spec.to_config(), "code_version": __version__}
    return SweepResult(header=header, columns=columns)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _cells(column: np.ndarray | None, n: int) -> list[str]:
    """The n CSV cells of a column: the repr of each number, each tag as it
    is, true or false for each flag, and a blank for each None."""
    if column is None:
        return [""] * n
    values = column.tolist()
    kind = column.dtype.kind
    if kind == "U":
        return values
    if kind == "b":
        return ["true" if v else "false" for v in values]
    if kind == "O":
        return ["" if v is None else v if isinstance(v, str) else repr(v)
                for v in values]
    return list(map(repr, values))


def result_to_csv(result: SweepResult) -> str:
    quantity = QUANTITIES[result.header["config"]["quantity"]]
    lines = [f"# diracvisc {result.header['code_version']}",
             "# config: " + json.dumps(result.header["config"],
                                       sort_keys=True,
                                       separators=(",", ":"))]
    head = ["E (eV)", "B (T)", "Omega (eV)", "A", quantity.value_label]
    head += list(quantity.channels) + ["regime", "converged"]
    lines.append(",".join(head))
    n = len(result)
    lines += map(",".join, zip(*(_cells(c, n)
                                 for c in result.columns.values())))
    return "\n".join(lines) + "\n"


def result_to_json(result: SweepResult) -> str:
    payload = {"header": result.header,
               "rows": [asdict(r) for r in result.rows]}
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=lambda o: repr(o)) + "\n"


def parse_csv_config(text: str) -> dict:
    """Recover the resolved sweep config from a CSV header (round-trip)."""
    for line in text.splitlines():
        if line.startswith("# config: "):
            return json.loads(line[len("# config: "):])
    raise ValueError("no config header line found")


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def figure_preset(name: str) -> SweepSpec:
    """Sweep definitions mirroring the reference figures' stated parameters."""
    presets = {
        "fig1": SweepSpec(
            quantity="static_shear",
            e_grid=GridSpec(-2.0, 2.0, 81),
            a_values=(10.0, 15.0, 20.0, 35.0)),
        "fig2a": SweepSpec(
            quantity="static_shear",
            e_grid=GridSpec(-0.3, 0.3, 121),
            b_grid=GridSpec(10.0, 10.0, 1),
            a_values=(20.0, 50.0, 100.0, 500.0)),
        "fig2b": SweepSpec(
            quantity="static_shear",
            e_grid=GridSpec(-0.15, 0.15, 61),
            b_grid=GridSpec(0.1, 1.5, 5),
            a_values=(15.0,)),
        "fig3": SweepSpec(
            quantity="static_hall",
            e_grid=GridSpec(-0.3, 0.3, 121),
            b_grid=GridSpec(10.0, 10.0, 1),
            a_values=(50.0, 100.0, 500.0)),
        "fig4": SweepSpec(
            quantity="dynamic_shear",
            e_grid=GridSpec(0.0, 1.5, 3),
            omega_grid=GridSpec(0.05, 1.2, 47),
            a_values=(10.0, 20.0, 35.0)),
        "fig5": SweepSpec(
            quantity="dynamic_hall",
            e_grid=GridSpec(0.05, 0.22, 4),
            b_grid=GridSpec(10.0, 10.0, 1),
            omega_grid=GridSpec(0.02, 0.45, 87),
            a_values=(500.0,)),
    }
    try:
        return presets[name]
    except KeyError:
        raise ValueError(f"unknown figure preset {name!r}; valid: "
                         + ", ".join(sorted(presets))) from None


# ---------------------------------------------------------------------------
# minimal SVG line plots
# ---------------------------------------------------------------------------

_SVG_WIDTH, _SVG_HEIGHT = 640, 400


def result_to_svg(result: SweepResult) -> str:
    """One polyline per (B, Omega, A) combination against the E axis
    (or against Omega when E is fixed and Omega swept)."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    rows = [r for r in result.rows if math.isfinite(r.value)]
    if not rows:
        return ("<svg xmlns='http://www.w3.org/2000/svg' "
                f"width='{width}' height='{height}'/>\n")
    e_vals = sorted({r.E for r in rows})
    o_vals = sorted({r.Omega for r in rows if r.Omega is not None})
    use_omega = len(o_vals) > len(e_vals)
    series: dict[tuple, list[tuple[float, float]]] = {}
    for r in rows:
        key = (r.A, r.B, r.E) if use_omega else (r.A, r.B, r.Omega)
        series.setdefault(key, []).append(
            (r.Omega if use_omega else r.E, r.value))
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 40

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f"]
    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
             f"height='{height}' viewBox='0 0 {width} {height}'>",
             f"<rect width='{width}' height='{height}' fill='white'/>",
             f"<line x1='{pad}' y1='{height-pad}' x2='{width-pad}' "
             f"y2='{height-pad}' stroke='black'/>",
             f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height-pad}' "
             "stroke='black'/>"]
    for i, (key, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        color = palette[i % len(palette)]
        parts.append(f"<polyline points='{path}' fill='none' "
                     f"stroke='{color}' stroke-width='1.5'/>")
        label = f"A={float(key[0])!r}" + (f" B={float(key[1])!r}" if key[1]
                                          else "")
        parts.append(f"<text x='{width-pad-150}' y='{pad+14*(i+1)}' "
                     f"fill='{color}' font-size='12'>{label}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
