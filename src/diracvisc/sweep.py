"""Parameter sweeps with deterministic, reproducible tabular output.

A sweep is described by a flat SweepSpec (JSON-serializable); rows are
computed serially, one (B, A) block at a time: a static quantity's block
is its E column, a dynamic quantity's its whole (E, Omega) grid. Rows are
listed in lexicographic grid order (E, B, Omega, A), so CSV output is
byte-identical across runs. Each quantity is one QUANTITIES
entry: its evaluator, its CSV columns and the grids it needs.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .model import (DEFAULT_CUTOFF, ModelParams, build_spectrum, check_in_band,
                    vertex_correction_b0, vertex_correction_landau)
from .kubo_static import (hall_static_numeric, shear_b0_numeric,
                          shear_bfield_numeric)
from .kubo_dynamic import hall_dynamic, shear_dynamic_b0, shear_dynamic_bfield
from .scba import dos, solve_self_energy_b0, solve_self_energy_landau, ConvergenceError


# ---------------------------------------------------------------------------
# quantities: each evaluator maps a block of points, an E array and an
# Omega array of the same length (Omega None for the static quantities),
# and its spectrum (None at B = 0) to one dict of SweepRow fields per
# point, calling the physics through module globals.
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


def _solve_sigma(e, spectrum, params):
    if spectrum is None:
        return solve_self_energy_b0(e, params)
    return solve_self_energy_landau(e, params, spectrum)


def _static_rows(v) -> list[dict]:
    return [{"value": value,
             "channels": {name: c[i] for name, c in v.channels.items()},
             "regime_tag": tag}
            for i, (value, tag) in enumerate(zip(v.value, v.regime_tag))]


def _self_energy(e, spectrum, Omega, params, fixed) -> list[dict]:
    sol = _solve_sigma(e, spectrum, params)
    return [{"value": s.imag,
             "channels": {"re_sigma": s.real, "residual": r,
                          "iterations": k}}
            for s, r, k in zip(sol.sigma.tolist(), sol.residual.tolist(),
                               sol.steps.tolist())]


def _dos(e, spectrum, Omega, params, fixed) -> list[dict]:
    return _values(dos(e, _solve_sigma(e, spectrum, params).sigma, params,
                       spectrum))


def _static_shear(e, spectrum, Omega, params, fixed) -> list[dict]:
    if spectrum is None:
        return _static_rows(shear_b0_numeric(e, params))
    return _static_rows(shear_bfield_numeric(e, params, spectrum))


def _static_hall(e, spectrum, Omega, params, fixed) -> list[dict]:
    return _static_rows(hall_static_numeric(e, params, spectrum))


def _values(values) -> list[dict]:
    return [{"value": v} for v in values.tolist()]


def _dynamic_shear(e, spectrum, Omega, params, fixed) -> list[dict]:
    if spectrum is None:
        return _values(shear_dynamic_b0(e, Omega, params))
    return _values(shear_dynamic_bfield(e, Omega, params, spectrum,
                                        fixed.get("broadening")))


def _dynamic_hall(e, spectrum, Omega, params, fixed) -> list[dict]:
    gamma = fixed.get("broadening", spectrum.hbar_omega_c / 50.0)
    return _values(hall_dynamic(e, Omega, params, spectrum, gamma))


def _vertex_check(e, spectrum, Omega, params, fixed) -> list[dict]:
    # neither check depends on E: one of each per (B, A) block
    ratio = vertex_correction_b0(e[0], params).ratio
    channels = {"ratio_momentum": ratio}
    if spectrum is not None:
        channels["ratio_landau"] = vertex_correction_landau(spectrum).ratio
    return [{"value": ratio, "channels": dict(channels)} for _ in e]


class Quantity(NamedTuple):
    evaluate: Callable[..., list]  # (E, spectrum, Omega, params, fixed)
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
    header: dict
    rows: list[SweepRow]


def _make_params(A: float, fixed: dict) -> ModelParams:
    given = {k: fixed[k] for k in ("hbar_vf", "cutoff_Ec", "temperature")
             if k in fixed}
    return ModelParams(disorder_A=A, **given,
                       degeneracy=_int_setting(fixed, "degeneracy", 4))


def _eval_point(spec: SweepSpec, e: np.ndarray, B: float | None,
                Omega: np.ndarray | None, A: float) -> list[SweepRow]:
    """The rows of one (B, A) block over the points (e[i], Omega[i]), in
    their order; Omega is None for a static quantity. The block is
    evaluated in one call. When that call raises ConvergenceError, each
    point of the block is evaluated on its own, so only the points that
    fail are flagged: they read nan. A row whose value is not finite (an
    overflow, say) is flagged too."""
    params = _make_params(A, spec.fixed)
    spectrum = build_spectrum(params, B) if B else None
    evaluate = QUANTITIES[spec.quantity].evaluate
    try:
        fields = evaluate(e, spectrum, Omega, params, spec.fixed)
    except ConvergenceError:
        fields = []
        for i in range(e.size):
            om = None if Omega is None else Omega[i:i + 1]
            try:
                fields += evaluate(e[i:i + 1], spectrum, om, params, spec.fixed)
            except ConvergenceError:
                fields.append({"value": math.nan})
    omegas = [None] * e.size if Omega is None else Omega.tolist()
    return [SweepRow(E, B, O, A, converged=math.isfinite(f["value"]), **f)
            for E, O, f in zip(e, omegas, fields)]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid one (B, A) block at a time and list the rows
    in lexicographic (E, B, Omega, A) order; non-converged points are
    flagged."""
    e_vals = np.array((spec.e_grid or GridSpec(0.0, 0.0, 1)).values())
    b_vals = spec.b_grid.values() if spec.b_grid else [None]
    if spec.omega_grid is None:
        n_o, e, omega = 1, e_vals, None
    else:
        o_vals = spec.omega_grid.values()
        n_o = len(o_vals)
        e, omega = (g.ravel() for g in np.meshgrid(e_vals, o_vals,
                                                   indexing="ij"))
    blocks = [_eval_point(spec, e, B, omega, A) for B in b_vals
              for A in spec.a_values]
    # block rows run over (E, Omega), blocks over (B, A)
    n_b, n_a = len(b_vals), len(spec.a_values)
    rows = [blocks[b * n_a + a][i * n_o + o] for i in range(e_vals.size)
            for b in range(n_b) for o in range(n_o) for a in range(n_a)]
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
        label = "A=" + _fmt(key[0]) + (f" B={_fmt(key[1])}" if key[1] else "")
        parts.append(f"<text x='{width-pad-150}' y='{pad+14*(i+1)}' "
                     f"fill='{color}' font-size='12'>{label}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
