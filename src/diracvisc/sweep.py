"""Parameter sweeps with deterministic, reproducible tabular output.

A sweep is described by a flat SweepSpec (JSON-serializable); rows are
computed serially in lexicographic grid order (E, B, Omega, A), so CSV
output is byte-identical across runs. Each quantity is one QUANTITIES
entry: its evaluator, its CSV columns and the grids it needs.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .model import DEFAULT_HARD_LIMIT, ModelParams, build_spectrum
from .kubo_static import (TruncatedLadderError, hall_static_numeric,
                          shear_b0_numeric, shear_bfield_numeric)
from .kubo_dynamic import hall_dynamic, shear_dynamic_b0, shear_dynamic_bfield
from .scba import dos, solve_self_energy_b0, solve_self_energy_landau, ConvergenceError
from .vertex import vertex_correction_b0, vertex_correction_landau


# ---------------------------------------------------------------------------
# quantities: each evaluator maps one grid point to SweepRow fields. They
# call the physics through this module's globals, looked up at call time.
# ---------------------------------------------------------------------------

def _int_setting(fixed: dict, name: str, default: int) -> int:
    """fixed[name] as an int; a fractional or non-numeric value is refused
    rather than truncated."""
    value = fixed.get(name, default)
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _spectrum(params: ModelParams, B: float, E: float, fixed: dict,
              omega: float = 0.0):
    return build_spectrum(
        params, B, e_window=E, omega=omega,
        hard_limit=_int_setting(fixed, "hard_limit", DEFAULT_HARD_LIMIT))


def _solve_sigma(E, B, params, fixed):
    if B:
        return solve_self_energy_landau(E, params,
                                        _spectrum(params, B, E, fixed))
    return solve_self_energy_b0(E, params)


def _static_fields(v) -> dict:
    return {"value": v.value, "channels": v.channels,
            "regime_tag": v.regime_tag}


def _self_energy(E, B, Omega, params, fixed) -> dict:
    sol = _solve_sigma(E, B, params, fixed)
    return {"value": sol.sigma.imag,
            "channels": {"re_sigma": sol.sigma.real,
                         "residual": sol.residual,
                         "iterations": sol.iterations},
            "converged": sol.converged}


def _dos(E, B, Omega, params, fixed) -> dict:
    sol = _solve_sigma(E, B, params, fixed)
    return {"value": dos(E, sol.sigma, params, B), "converged": sol.converged}


def _static_shear(E, B, Omega, params, fixed) -> dict:
    if B:
        return _static_fields(shear_bfield_numeric(
            E, params, _spectrum(params, B, E, fixed)))
    return _static_fields(shear_b0_numeric(E, params, method="exact"))


def _static_hall(E, B, Omega, params, fixed) -> dict:
    return _static_fields(hall_static_numeric(
        E, params, _spectrum(params, B, E, fixed)))


def _dynamic_shear(E, B, Omega, params, fixed) -> dict:
    if B:
        spectrum = _spectrum(params, B, E, fixed, Omega)
        return {"value": shear_dynamic_bfield(E, Omega, params, spectrum,
                                              fixed.get("broadening"))}
    return {"value": shear_dynamic_b0(E, Omega, params)}


def _dynamic_hall(E, B, Omega, params, fixed) -> dict:
    spectrum = _spectrum(params, B, E, fixed, Omega)
    gamma = fixed.get("broadening", spectrum.hbar_omega_c / 50.0)
    return {"value": hall_dynamic(E, Omega, params, spectrum, gamma)}


def _vertex_check(E, B, Omega, params, fixed) -> dict:
    ratio = vertex_correction_b0(E, params).ratio
    channels = {"ratio_momentum": ratio}
    if B:
        channels["ratio_landau"] = vertex_correction_landau(
            E, params, _spectrum(params, B, E, fixed)).ratio
    return {"value": ratio, "channels": channels}


class Quantity(NamedTuple):
    evaluate: Callable[..., dict]  # (E, B, Omega, params, fixed) -> fields
    value_label: str               # CSV header of the value column
    channels: tuple[str, ...] = ()  # CSV channel columns, in order
    dynamic: bool = False          # needs an Omega grid; others refuse one
    needs_field: bool = False      # needs a B grid


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
        for end in (self.start, self.stop):
            if not math.isfinite(end):
                raise ValueError(f"grid endpoint {end!r} is not finite")

    def values(self) -> list[float]:
        if self.count < 1:
            raise ValueError("grid count must be >= 1")
        if self.count == 1:
            return [self.start]
        if self.scale == "linear":
            return list(np.linspace(self.start, self.stop, self.count))
        if self.scale == "log":
            return list(np.geomspace(self.start, self.stop, self.count))
        raise ValueError(f"unknown grid scale {self.scale!r}")


def _as_grid(raw) -> GridSpec | None:
    if raw is None:
        return None
    if isinstance(raw, GridSpec):
        return raw
    if isinstance(raw, (int, float)):
        return GridSpec(start=float(raw), stop=float(raw), count=1)
    return GridSpec(**raw)


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
        q = QUANTITIES.get(self.quantity)
        if q is None:
            raise ValueError(f"unknown quantity {self.quantity!r}; "
                             f"valid: {', '.join(QUANTITIES)}")
        if not self.a_values:
            raise ValueError("at least one disorder value A is required")
        if self.omega_grid is not None and not q.dynamic:
            raise ValueError(
                f"an Omega grid is only meaningful for dynamic quantities, "
                f"not {self.quantity!r}")
        if q.dynamic and self.omega_grid is None:
            raise ValueError(f"{self.quantity!r} requires an Omega grid")
        if q.dynamic and 0.0 in self.omega_grid.values():
            raise ValueError(f"{self.quantity!r} needs Omega != 0; the Omega "
                             "grid contains 0 (use the static quantity there)")
        if q.needs_field and self.b_grid is None:
            raise ValueError(f"{self.quantity!r} requires a magnetic field")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        _int_setting(self.fixed, "degeneracy", 4)
        _int_setting(self.fixed, "hard_limit", DEFAULT_HARD_LIMIT)

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
        out = cfg.get("output") or {}
        return SweepSpec(
            quantity=cfg["quantity"],
            e_grid=_as_grid(cfg.get("E")),
            b_grid=_as_grid(cfg.get("B")),
            omega_grid=_as_grid(cfg.get("Omega")),
            a_values=tuple(cfg.get("A", ())),
            fixed=dict(cfg.get("fixed") or {}),
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
    header: dict
    rows: list[SweepRow]


def _make_params(A: float, fixed: dict) -> ModelParams:
    return ModelParams(
        disorder_A=A,
        hbar_vf=fixed.get("hbar_vf", ModelParams.__dataclass_fields__["hbar_vf"].default),
        cutoff_Ec=fixed.get("cutoff_Ec", ModelParams.__dataclass_fields__["cutoff_Ec"].default),
        degeneracy=_int_setting(fixed, "degeneracy", 4),
        temperature=fixed.get("temperature", 0.0))


def _eval_point(spec: SweepSpec, E: float, B: float | None,
                Omega: float | None, A: float) -> SweepRow:
    params = _make_params(A, spec.fixed)
    evaluate = QUANTITIES[spec.quantity].evaluate
    try:
        return SweepRow(E, B, Omega, A,
                        **evaluate(E, B, Omega, params, spec.fixed))
    except (ConvergenceError, TruncatedLadderError):
        return SweepRow(E, B, Omega, A, value=math.nan, converged=False)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid serially in lexicographic grid order;
    non-converged points are flagged."""
    e_vals = (spec.e_grid or GridSpec(0.0, 0.0, 1)).values()
    b_vals = spec.b_grid.values() if spec.b_grid else [None]
    o_vals = spec.omega_grid.values() if spec.omega_grid else [None]
    rows = [_eval_point(spec, E, B, O, A) for E in e_vals for B in b_vals
            for O in o_vals for A in spec.a_values]
    header = {"config": spec.to_config(), "code_version": __version__}
    return SweepResult(header=header, rows=rows)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def result_to_csv(result: SweepResult) -> str:
    quantity = QUANTITIES[result.header["config"]["quantity"]]
    extra = quantity.channels
    lines = [f"# diracvisc {result.header['code_version']}",
             "# config: " + json.dumps(result.header["config"],
                                       sort_keys=True,
                                       separators=(",", ":"))]
    head = ["E (eV)", "B (T)", "Omega (eV)", "A", quantity.value_label]
    head += list(extra) + ["regime", "converged"]
    lines.append(",".join(head))
    for r in result.rows:
        cells = [_fmt(r.E), _fmt(r.B), _fmt(r.Omega), _fmt(r.A), _fmt(r.value)]
        cells += [_fmt(r.channels.get(c)) for c in extra]
        cells += [r.regime_tag, _fmt(r.converged)]
        lines.append(",".join(cells))
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
            a_values=(15.0,),
            fixed={"hard_limit": 400_000}),
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

def result_to_svg(result: SweepResult, width: int = 640,
                  height: int = 400) -> str:
    """One polyline per (B, Omega, A) combination against the E axis
    (or against Omega when E is fixed and Omega swept)."""
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
        label = "A=" + _fmt(key[0]) + (f" B={_fmt(key[1])}" if key[1] else "")
        parts.append(f"<text x='{width-pad-150}' y='{pad+14*(i+1)}' "
                     f"fill='{color}' font-size='12'>{label}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
