"""Command-line front end: parameter sweeps, figure presets, solver probes,
vertex checks and the oracle-equivalence validation table.

Exit codes: 0 success, 1 compute error (non-convergence or a numerical
failure), 2 usage or I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .model import ModelParams, build_spectrum
from .scba import (ConvergenceError, landau_green_sum, landau_green_sum_direct,
                   solve_self_energy_b0, solve_self_energy_landau)
from .kubo_static import (hall_static_numeric, shear_b0_analytic,
                          shear_b0_numeric, shear_bfield_numeric,
                          shear_pair_sums, shear_pair_sums_direct)
from .kubo_dynamic import static_limit_check
from .sweep import (QUANTITIES, GridSpec, SweepSpec, figure_preset,
                    result_to_csv, result_to_json, result_to_svg, run_sweep)
from .vertex import vertex_correction_b0, vertex_correction_landau

PASS, FAIL, KNOWN = "PASS", "FAIL", "KNOWN-DEVIATION"


def _parse_grid(text: str | None) -> GridSpec | None:
    if text is None or text == "":
        return None
    parts = text.split(":")
    if len(parts) == 1:
        v = float(parts[0])
        return GridSpec(v, v, 1)
    if len(parts) in (3, 4):
        scale = parts[3] if len(parts) == 4 else "linear"
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]), scale)
    raise ValueError(f"grid must be 'value' or 'start:stop:count[:scale]', got {text!r}")


def _spec_from_args(args) -> SweepSpec:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    if args.quantity:
        cfg["quantity"] = args.quantity
    for key, raw in (("E", args.e), ("B", args.b), ("Omega", args.omega)):
        if raw is not None:
            g = _parse_grid(raw)
            cfg[key] = None if g is None else asdict(g)
    if args.a:
        cfg["A"] = [float(x) for x in args.a.split(",") if x]
    if args.fixed:
        fixed = cfg.get("fixed") or {}
        fixed.update(json.loads(args.fixed))
        cfg["fixed"] = fixed
    if args.output:
        cfg.setdefault("output", {})["path"] = args.output
    if args.format:
        cfg.setdefault("output", {})["format"] = args.format
    return SweepSpec.from_config(cfg)


def _write_result(result, spec: SweepSpec, svg: bool) -> None:
    text = (result_to_csv(result) if spec.output_format == "csv"
            else result_to_json(result))
    if spec.output_path:
        with open(spec.output_path, "w") as fh:
            fh.write(text)
        print(f"wrote {spec.output_path} ({len(result.rows)} rows)")
        if svg:
            svg_path = spec.output_path.rsplit(".", 1)[0] + ".svg"
            with open(svg_path, "w") as fh:
                fh.write(result_to_svg(result))
            print(f"wrote {svg_path}")
    else:
        sys.stdout.write(text)


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    result = run_sweep(spec)
    _write_result(result, spec, args.svg)
    return 0


def _cmd_figure(args) -> int:
    spec = replace(figure_preset(args.name), output_path=args.output,
                   output_format=args.format or "csv")
    result = run_sweep(spec)
    _write_result(result, spec, args.svg)
    return 0


def _cmd_solve_sigma(args) -> int:
    params = ModelParams(disorder_A=args.A)
    if args.B:
        spectrum = build_spectrum(params, args.B, e_window=args.E,
                                  hard_limit=args.hard_limit)
        sol = solve_self_energy_landau(args.E, params, spectrum)
        extra = {"b_field_T": args.B, "n_cutoff": spectrum.n_cutoff,
                 "l_B_nm": spectrum.l_B,
                 "hbar_omega_c_eV": spectrum.hbar_omega_c}
    else:
        sol = solve_self_energy_b0(args.E, params)
        extra = {}
    out = {"energy_eV": sol.energy, "re_sigma_eV": sol.sigma.real,
           "im_sigma_eV": sol.sigma.imag, "residual": sol.residual,
           "iterations": sol.iterations, "converged": sol.converged, **extra}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_vertex_check(args) -> int:
    params = ModelParams(disorder_A=args.A)
    rep = vertex_correction_b0(args.E, params)
    print(f"momentum basis: |bare| = {rep.norm_bare:.6e} eV, "
          f"|correction| = {rep.norm_correction:.3e} eV, ratio = {rep.ratio:.3e}")
    if args.B:
        spectrum = build_spectrum(params, args.B, e_window=args.E)
        rep_l = vertex_correction_landau(args.E, params, spectrum)
        print(f"landau basis:   |bare| = {rep_l.norm_bare:.6e} eV, "
              f"|correction| = {rep_l.norm_correction:.3e} eV, "
              f"ratio = {rep_l.ratio:.3e}")
    return 0


def _validate_checks():
    """Condensed oracle-equivalence suite; yields (name, status, detail)."""
    # B = 0 closed-form equivalence away from the Dirac point
    for A in (10.0, 20.0, 35.0):
        params = ModelParams(disorder_A=A)
        worst = 0.0
        for E in np.linspace(0.9, 2.0, 12):
            v = shear_b0_numeric(E, params, method="exact").value
            worst = max(worst, abs(v / shear_b0_analytic(E, params) - 1.0))
        yield (f"B=0 shear vs closed form, A={A:g}, E in [0.9,2]",
               PASS if worst <= 0.07 else FAIL, f"max dev {100*worst:.2f}%")
    params = ModelParams(disorder_A=20.0)
    dev0 = abs(shear_b0_numeric(0.0, params, method="exact").value
               / shear_b0_analytic(0.0, params) - 1.0)
    yield ("B=0 shear at the Dirac point vs closed form",
           KNOWN if dev0 > 0.07 else PASS,
           f"dev {100*dev0:.1f}% (closed form misses the 4(A-1)/3A factor)")

    # digamma resummation of the Landau ladders vs level-by-level sums
    params = ModelParams(disorder_A=20.0)
    spectrum = build_spectrum(params, 10.0)
    worst = 0.0
    for E in (0.0, 0.05, 0.12, 0.3):
        z = E - solve_self_energy_landau(E, params, spectrum).sigma
        pairs = [(landau_green_sum(z, spectrum),
                  landau_green_sum_direct(z, spectrum))]
        pairs += zip(shear_pair_sums(z, spectrum),
                     shear_pair_sums_direct(z, spectrum))
        worst = max([worst] + [abs(c / d - 1.0) for c, d in pairs])
    yield ("Landau ladder closed forms vs direct sums (B=10 T, A=20)",
           PASS if worst <= 1e-11 else FAIL,
           f"SCBA step, RA, RR at 4 energies: max rel dev {worst:.1e}")

    # batched Landau SCBA roots re-inserted into the level-by-level ladder
    energies = np.linspace(-0.3, 0.3, 41)
    worst, im_max = 0.0, -math.inf
    for A in (20.0, 500.0):
        params = ModelParams(disorder_A=A)
        spectrum = build_spectrum(params, 10.0)
        scale = spectrum.hbar_omega_c ** 2 / (2.0 * A)
        sigma = solve_self_energy_landau(energies, params, spectrum).sigma
        for E, s in zip(energies, sigma):
            out = scale * landau_green_sum_direct(E - s, spectrum)
            worst = max(worst, abs(s - out) / abs(s))
        im_max = max(im_max, sigma.imag.max())
    yield ("Landau SCBA roots re-inserted (B=10 T, A=20 and 500, 41 E)",
           PASS if worst <= 1e-9 and im_max <= 0.0 else FAIL,
           f"max residual {worst:.1e}, max Im Sigma {im_max:.1e} eV")

    # quantized anchors at B = 10 T, A = 500
    params = ModelParams(disorder_A=500.0)
    spectrum = build_spectrum(params, 10.0)
    unit_hall = 1.0 / (4.0 * math.pi * spectrum.l_B ** 2)
    hwc = spectrum.hbar_omega_c
    ok = True
    details = []
    for N in range(4):
        e_gap = 0.5 * (hwc * math.sqrt(N) + hwc * math.sqrt(N + 1))
        v = hall_static_numeric(e_gap, params, spectrum).value
        target = (2 * N * N + 2 * N + 1) * unit_hall
        dev = abs(v / target - 1.0)
        ok &= dev <= 0.02
        details.append(f"N={N}: {100*dev:.3f}%")
    yield ("Hall plateau quantization (N=0..3, 2%)", PASS if ok else FAIL,
           "; ".join(details))

    unit_shear = 1.0 / (2.0 * math.pi ** 2 * spectrum.l_B ** 2)
    for N in range(4):
        e_c = hwc * math.sqrt(N)
        v = shear_bfield_numeric(e_c, params, spectrum).value
        stated = (N * N + (1 if N == 0 else 0)) * unit_shear
        exact = (N * N + 1) * unit_shear
        dev_stated = abs(v / stated - 1.0)
        dev_exact = abs(v / exact - 1.0)
        status = PASS if dev_stated <= 0.05 else KNOWN
        yield (f"shear quantization at level center N={N}", status,
               f"vs (N^2+d_N0): {100*dev_stated:.1f}%, "
               f"vs exact-sum (N^2+1): {100*dev_exact:.1f}%")

    # symmetry
    params = ModelParams(disorder_A=50.0)
    spectrum = build_spectrum(params, 10.0)
    es = shear_bfield_numeric(0.12, params, spectrum).value
    es_m = shear_bfield_numeric(-0.12, params, spectrum).value
    eh = hall_static_numeric(0.12, params, spectrum).value
    eh_m = hall_static_numeric(-0.12, params, spectrum).value
    dev_s = abs(es / es_m - 1.0)
    dev_h = abs(eh / -eh_m - 1.0)
    yield ("symmetry: eta_s even, eta_H odd (0.5%)",
           PASS if max(dev_s, dev_h) <= 0.005 else FAIL,
           f"shear {100*dev_s:.3f}%, hall {100*dev_h:.3f}%")

    # vertex nullity
    params = ModelParams(disorder_A=20.0)
    rep = vertex_correction_b0(1.0, params)
    spectrum = build_spectrum(params, 10.0)
    rep_l = vertex_correction_landau(1.0, params, spectrum)
    yield ("vertex correction nullity",
           PASS if rep.ratio <= 1e-8 and rep_l.ratio == 0.0 else FAIL,
           f"momentum {rep.ratio:.2e}, landau {rep_l.ratio:.2e}")

    # static limit
    rep = static_limit_check(1.5, ModelParams(disorder_A=20.0))
    yield ("dynamic -> static limit (B=0, E=1.5, A=20)",
           PASS if rep.shear_ratio <= 0.02 else FAIL,
           f"ratio {rep.shear_ratio:.2e}")


def _cmd_validate(args) -> int:
    failed = False
    for name, status, detail in _validate_checks():
        print(f"[{status:>15}] {name}: {detail}")
        failed |= status == FAIL
    if failed:
        print("validation FAILED")
        return 1
    print("validation passed (known documented deviations excluded)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diracvisc",
        description="Static and dynamic shear/Hall viscosities of disordered "
                    "Dirac electrons (Kubo + SCBA).")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="run a parameter sweep")
    sp.add_argument("--config", help="JSON config file (flags override)")
    sp.add_argument("--quantity", choices=tuple(QUANTITIES))
    sp.add_argument("--e", help="energy grid 'start:stop:count[:scale]' or value")
    sp.add_argument("--b", help="field grid (T)")
    sp.add_argument("--omega", help="frequency grid (eV)")
    sp.add_argument("--a", help="comma-separated disorder values A")
    sp.add_argument("--fixed", help="JSON object of fixed parameters")
    sp.add_argument("--output", help="output file (stdout if omitted)")
    sp.add_argument("--format", choices=("csv", "json"))
    sp.add_argument("--svg", action="store_true",
                    help="also emit a line-plot SVG next to the output file")
    sp.set_defaults(func=_cmd_sweep)

    fp = sub.add_parser("figure", help="run a figure-reproduction preset")
    fp.add_argument("name", help="fig1, fig2a, fig2b, fig3, fig4 or fig5")
    fp.add_argument("--output")
    fp.add_argument("--format", choices=("csv", "json"))
    fp.add_argument("--svg", action="store_true")
    fp.set_defaults(func=_cmd_figure)

    ss = sub.add_parser("solve-sigma", help="solve the SCBA self-energy")
    ss.add_argument("--E", type=float, required=True, help="energy (eV)")
    ss.add_argument("--A", type=float, required=True, help="disorder parameter")
    ss.add_argument("--B", type=float, default=0.0, help="field (T); 0 = none")
    ss.add_argument("--hard-limit", type=int, default=20_000)
    ss.set_defaults(func=_cmd_solve_sigma)

    vc = sub.add_parser("vertex-check", help="vertex-correction nullity check")
    vc.add_argument("--E", type=float, default=1.0)
    vc.add_argument("--A", type=float, default=20.0)
    vc.add_argument("--B", type=float, default=0.0)
    vc.set_defaults(func=_cmd_vertex_check)

    vl = sub.add_parser("validate",
                        help="run the oracle-equivalence suite and print a table")
    vl.set_defaults(func=_cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
