import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import diracvisc
from diracvisc import (ConvergenceError, GridSpec, ModelParams, SweepSpec,
                       build_spectrum, dos, figure_preset, hall_static_numeric,
                       parse_csv_config, result_to_csv, result_to_json,
                       result_to_svg, run_sweep, shear_b0_numeric,
                       shear_bfield_numeric, solve_self_energy_b0,
                       solve_self_energy_landau)
from diracvisc import cli, kubo_static, oracles, scba, sweep
from diracvisc.cli import main
from diracvisc.kubo_static import _hall_sums, shear_pair_sums
from diracvisc.oracles import (MAX_MATERIALIZED_LEVELS,
                               landau_green_sum_direct, shear_pair_sums_direct)
from diracvisc.sweep import QUANTITIES
from test_kubo_static import collapsed_log_sum, small_spectrum
from test_scba import DAMPED, solved_z


def exact_cutoff_root(E, params, seed):
    """Reference: the root of Sigma = -(z/A) Log(1 - E_c^2/z^2),
    z = E - Sigma, the B = 0 equation with the cutoff kept exactly, which
    the Landau SCBA meets as B -> 0; 30-digit mpmath from seed."""
    mpmath = pytest.importorskip("mpmath")
    A, Ec = params.disorder_A, params.cutoff_Ec
    with mpmath.workdps(30):
        def residual(s):
            z = E - s
            return s + z / A * mpmath.log(1 - Ec * Ec / (z * z))

        return complex(mpmath.findroot(residual,
                                       mpmath.mpc(seed.real, seed.imag)))


def tiny_spec(**overrides):
    base = dict(quantity="static_shear", e_grid=GridSpec(-0.5, 0.5, 3),
                a_values=(10.0, 20.0))
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpecValidation:
    def test_omega_only_for_dynamic(self):
        with pytest.raises(ValueError, match="Omega"):
            SweepSpec(quantity="static_shear", e_grid=GridSpec(0, 1, 2),
                      omega_grid=GridSpec(0.1, 0.5, 3), a_values=(10.0,))

    def test_dynamic_requires_omega(self):
        with pytest.raises(ValueError, match="Omega"):
            SweepSpec(quantity="dynamic_shear", e_grid=GridSpec(0, 1, 2),
                      a_values=(10.0,))

    def test_hall_requires_field(self):
        with pytest.raises(ValueError, match="magnetic"):
            SweepSpec(quantity="static_hall", e_grid=GridSpec(0, 1, 2),
                      a_values=(10.0,))

    @pytest.mark.parametrize("quantity", ["dynamic_shear", "dynamic_hall"])
    def test_dynamic_rejects_zero_omega(self, quantity):
        with pytest.raises(ValueError, match="Omega"):
            SweepSpec(quantity=quantity, e_grid=GridSpec(0.5, 0.5, 1),
                      b_grid=GridSpec(10.0, 10.0, 1),
                      omega_grid=GridSpec(-0.1, 0.1, 3), a_values=(20.0,))

    @pytest.mark.parametrize("key,value", [("degeneracy", 4.7),
                                           ("degeneracy", "4")])
    def test_integer_settings_must_be_integers(self, key, value):
        with pytest.raises(ValueError, match=key):
            tiny_spec(fixed={key: value})

    def test_integral_float_settings_accepted(self):
        spec = tiny_spec(fixed={"degeneracy": 2.0})
        ref = run_sweep(tiny_spec(fixed={"degeneracy": 2})).rows
        assert [r.value for r in run_sweep(spec).rows] == [r.value
                                                           for r in ref]

    def test_unknown_quantity(self):
        with pytest.raises(ValueError, match="quantity"):
            SweepSpec(quantity="bogus", a_values=(10.0,))

    def test_needs_disorder_values(self):
        with pytest.raises(ValueError, match="disorder"):
            SweepSpec(quantity="static_shear", e_grid=GridSpec(0, 1, 2))

    def test_grid_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            GridSpec(0.0, 1.0, 0).values()

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
    def test_grid_endpoints_finite(self, end):
        with pytest.raises(ValueError, match="not finite"):
            GridSpec(end, 1.0, 2)
        with pytest.raises(ValueError, match="not finite"):
            GridSpec(0.0, end, 2)

    def test_log_grid(self):
        vals = GridSpec(0.01, 1.0, 3, scale="log").values()
        assert vals[1] == pytest.approx(0.1, rel=1e-12)


class TestSweepDeterminism:
    def test_byte_identical_across_repeat_runs(self):
        spec = tiny_spec()
        a = result_to_csv(run_sweep(spec))
        b = result_to_csv(run_sweep(spec))
        assert a == b

    def test_row_order_lexicographic(self):
        res = run_sweep(tiny_spec())
        keys = [(r.E, r.A) for r in res.rows]
        assert keys == sorted(keys)


class TestSerialization:
    def test_config_round_trip(self):
        spec = tiny_spec()
        res = run_sweep(spec)
        csv_text = result_to_csv(res)
        cfg = parse_csv_config(csv_text)
        spec2 = SweepSpec.from_config(cfg)
        assert spec2.quantity == spec.quantity
        assert spec2.e_grid == spec.e_grid
        assert spec2.a_values == spec.a_values

    def test_csv_has_units_header(self):
        text = result_to_csv(run_sweep(tiny_spec()))
        header = [l for l in text.splitlines() if l.startswith("E (eV)")][0]
        assert "eta_s (hbar/nm^2)" in header
        assert "converged" in header

    def test_json_output(self):
        payload = json.loads(result_to_json(run_sweep(tiny_spec())))
        assert payload["header"]["config"]["quantity"] == "static_shear"
        assert len(payload["rows"]) == 6

    def test_svg_output(self):
        svg = result_to_svg(run_sweep(tiny_spec()))
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_integer_a_writes_the_same_csv(self, tmp_path, capsys):
        # a config's "A": [20] once wrote 20 where --a 20 wrote 20.0
        config = tmp_path / "dos.json"
        config.write_text(json.dumps({
            "quantity": "dos", "E": {"start": 0.05, "stop": 0.1, "count": 2},
            "A": [20]}))
        assert main(["sweep", "--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert main(["sweep", "--quantity", "dos", "--e", "0.05:0.1:2",
                     "--a", "20"]) == 0
        assert capsys.readouterr().out == from_config
        assert '"A":[20.0]' in from_config and ",20.0," in from_config

    def test_values_match_direct_evaluation(self):
        from diracvisc import ModelParams, shear_b0_numeric
        res = run_sweep(tiny_spec())
        row = [r for r in res.rows if r.E == 0.5 and r.A == 20.0][0]
        direct = shear_b0_numeric(0.5, ModelParams(disorder_A=20.0))
        assert row.value == pytest.approx(direct.value, rel=1e-12)


class TestQuantities:
    def test_self_energy_rows(self):
        spec = SweepSpec(quantity="self_energy", e_grid=GridSpec(0.0, 1.0, 2),
                         a_values=(20.0,))
        rows = run_sweep(spec).rows
        assert all(r.converged for r in rows)
        assert rows[0].value == pytest.approx(-3.269e-4, rel=1e-3)

    def test_dos_rows(self):
        spec = SweepSpec(quantity="dos", e_grid=GridSpec(1.5, 1.5, 1),
                         a_values=(20.0,))
        row = run_sweep(spec).rows[0]
        # the sweep reports the full-complex solve; its |Im Sigma|
        # exceeds the Re-projected branch by the level shift
        assert row.value == pytest.approx(2.618, rel=0.02)

    def test_static_hall_rows(self, spectrum10_500):
        hwc = spectrum10_500.hbar_omega_c
        spec = SweepSpec(quantity="static_hall",
                         e_grid=GridSpec(0.5 * hwc, 0.5 * hwc, 1),
                         b_grid=GridSpec(10.0, 10.0, 1), a_values=(500.0,))
        row = run_sweep(spec).rows[0]
        assert row.value == pytest.approx(1.209e-3, rel=0.02)
        assert row.channels["II"] == pytest.approx(row.value, rel=0.05)

    def test_dynamic_hall_rows(self):
        spec = SweepSpec(quantity="dynamic_hall",
                         e_grid=GridSpec(0.05, 0.05, 1),
                         b_grid=GridSpec(10.0, 10.0, 1),
                         omega_grid=GridSpec(0.15, 0.18, 2),
                         a_values=(500.0,))
        rows = run_sweep(spec).rows
        assert len(rows) == 2
        assert rows[0].value != rows[1].value

    def test_vertex_rows(self):
        spec = SweepSpec(quantity="vertex_check",
                         e_grid=GridSpec(1.0, 1.0, 1),
                         b_grid=GridSpec(10.0, 10.0, 1), a_values=(20.0,))
        row = run_sweep(spec).rows[0]
        assert row.value <= 1e-8
        assert row.channels["ratio_landau"] == 0.0


# (quantity, B, A values, E grid) of whole sweep columns: fig2a's and fig3's
# 10 T columns at A = 20 and 500, fig1, and fig2b's 0.1 T column
COLUMNS = [
    ("static_shear", 10.0, (20.0, 500.0), GridSpec(-0.3, 0.3, 121)),
    ("static_hall", 10.0, (20.0, 500.0), GridSpec(-0.3, 0.3, 121)),
    ("static_shear", None, (10.0, 15.0, 20.0, 35.0), GridSpec(-2.0, 2.0, 81)),
    ("static_shear", 0.1, (15.0,), GridSpec(-0.15, 0.15, 61)),
]
# a Gauss node of a 1 T, A = 500 window where the cold-seed Landau Newton
# solve cycles on the real axis, until the branch re-solve takes it
NEWTON_TRAP = 0.1268914167697149
# B = 0, A = 1.2: Newton diverges at E = 5.4 and raises ConvergenceError
DIVERGING = dict(e_grid=GridSpec(5.2, 5.4, 3), a_values=(1.2,))


def scalar_kubo(quantity, E, params, spectrum):
    if quantity == "static_hall":
        return hall_static_numeric(E, params, spectrum)
    if spectrum is None:
        return shear_b0_numeric(E, params)
    return shear_bfield_numeric(E, params, spectrum)


def assert_rows_match_scalar_calls(rows, quantity, params, spectrum):
    for r in rows:
        one = scalar_kubo(quantity, float(r.E), params, spectrum)
        assert r.converged and r.regime_tag == one.regime_tag
        for got, want in [(r.value, one.value),
                          *[(r.channels[k], v) for k, v in one.channels.items()]]:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestColumns:
    @pytest.mark.parametrize("quantity,B,a_values,e_grid", COLUMNS)
    def test_column_rows_match_scalar_calls(self, quantity, B, a_values,
                                            e_grid):
        spec = SweepSpec(quantity=quantity, e_grid=e_grid, a_values=a_values,
                         b_grid=None if B is None else GridSpec(B, B, 1))
        rows = run_sweep(spec).rows
        assert len(rows) == e_grid.count * len(a_values)
        for A in a_values:
            params = ModelParams(disorder_A=A)
            spectrum = None if B is None else build_spectrum(params, B)
            assert_rows_match_scalar_calls([r for r in rows if r.A == A],
                                           quantity, params, spectrum)

    def test_one_landau_solve_per_column(self, monkeypatch):
        # fig3's three A columns at 10 T are one B row: one solve of 363
        calls = []
        solve = kubo_static.solve_self_energy_landau

        def record(E, *args, **kwargs):
            calls.append(np.size(E))
            return solve(E, *args, **kwargs)

        monkeypatch.setattr(kubo_static, "solve_self_energy_landau", record)
        spec = figure_preset("fig3")
        rows = run_sweep(spec).rows
        assert calls == [spec.e_grid.count * len(spec.a_values)]
        assert len(rows) == spec.e_grid.count * len(spec.a_values)

    # a self_energy row, every A at one B, is one solve whose CSV is
    # byte-identical to per-energy scalar solves: at B = 0 and 10 T, with
    # the branch re-solve of A = 50, E = +-0.21 among them, and at the 1 T
    # trap; a row that fails (B = 0, A = 1.2) is retried energy by energy
    # and only the failed row is flagged
    @pytest.mark.parametrize("b_grid,a_values,e_grid,calls,failed", [
        (GridSpec(0.0, 10.0, 2), (20.0, 50.0, 500.0),
         GridSpec(-0.21, 0.21, 15), [45, 45], None),
        (GridSpec(1.0, 1.0, 1), (500.0,), GridSpec(0.0, 2.0 * NEWTON_TRAP, 5),
         [5], None),
        (None, DIVERGING["a_values"], DIVERGING["e_grid"], [3, 1, 1, 1],
         5.4)])
    def test_self_energy_column_is_one_solve(self, b_grid, a_values, e_grid,
                                             calls, failed, monkeypatch):
        def per_energy(e, Omega, A, spectrum, params, fixed):
            sols = [sweep._solve_sigma(E, None, spectrum,
                                       replace(params, disorder_A=a))
                    for E, a in zip(e.tolist(), A.tolist())]
            sigma = np.array([sol.sigma for sol in sols])
            return {"value": sigma.imag, "re_sigma": sigma.real,
                    "residual": np.array([sol.residual for sol in sols]),
                    "iterations": np.array([sol.iterations for sol in sols])}

        spec = SweepSpec(quantity="self_energy", e_grid=e_grid, b_grid=b_grid,
                         a_values=a_values)
        sizes = []
        for name in ("solve_self_energy_b0", "solve_self_energy_landau"):
            def record(E, *args, _solve=getattr(sweep, name), **kwargs):
                sizes.append(np.size(E))
                return _solve(E, *args, **kwargs)
            monkeypatch.setattr(sweep, name, record)
        result = run_sweep(spec)
        assert sizes == calls
        assert [r.converged for r in result.rows] == [
            r.E != failed for r in result.rows]
        monkeypatch.setitem(QUANTITIES, "self_energy",
                            QUANTITIES["self_energy"]._replace(
                                evaluate=per_energy))
        assert result_to_csv(result) == result_to_csv(run_sweep(spec))

    def test_failed_energy_is_the_only_row_flagged(self):
        with pytest.raises(ConvergenceError):
            solve_self_energy_b0(5.4, ModelParams(disorder_A=1.2))
        for quantity in ("self_energy", "dos", "static_shear"):
            spec = SweepSpec(quantity=quantity, **DIVERGING)
            rows = run_sweep(spec).rows
            assert rows[2].E == 5.4 and math.isnan(rows[2].value)
            assert [r.converged for r in rows] == [True, True, False]
            for r in rows[:2]:
                one = run_sweep(replace(spec, e_grid=GridSpec(r.E, r.E, 1)))
                assert one.rows == [r]
        # the vertex check solves no SCBA, so its column has no failure
        rows = run_sweep(SweepSpec(quantity="vertex_check", **DIVERGING)).rows
        assert [r.converged for r in rows] == [True, True, True]
        assert all(r.value <= 1e-8 for r in rows)


# a row's energies: the A = 50 branch re-solve (E = +-0.21), the A = 500
# gap roots of a 10 T ladder, the Dirac point and a level's flank
ROW_ENERGIES = np.array([-0.21, 0.21, 0.0, 0.13, *DAMPED["gaps"]["energy"]])
ROW_A = (20.0, 50.0, 500.0)
# (quantity, B, span of the long row's energies); no Hall at B = 0
ROW_CASES = [(q, B, span) for B, span in ((0.0, 2.0), (10.0, 0.3))
             for q in ("self_energy", "dos", "static_shear", "static_hall")
             if (q, B) != ("static_hall", 0.0)]


def row_arrays(quantity, e, params, spectrum, A=None):
    """Every output array of a static quantity over the energies e, at the
    disorder column A (params.disorder_A when None)."""
    if quantity in ("self_energy", "dos"):
        sol = (solve_self_energy_b0(e, params, A=A) if spectrum is None
               else solve_self_energy_landau(e, params, spectrum, A=A))
        if quantity == "dos":
            return [dos(e, sol.sigma, params, spectrum, A=A)]
        return [sol.sigma, sol.residual, sol.steps]
    if quantity == "static_hall":
        v = hall_static_numeric(e, params, spectrum, A=A)
    elif spectrum is None:
        v = shear_b0_numeric(e, params, A=A)
    else:
        v = shear_bfield_numeric(e, params, spectrum, A=A)
    return [v.value, *v.channels.values(), np.array(v.regime_tag),
            np.array(v.low_confidence)]


def assert_row_is_its_disorder_calls(quantity, B, energies, a_values):
    """One call over every (A, E) of a row equals, to the bit, the calls
    at each A on its own."""
    params = ModelParams(disorder_A=a_values[0])
    spectrum = None if B == 0.0 else build_spectrum(params, B)
    row = row_arrays(quantity, np.tile(energies, len(a_values)), params,
                     spectrum, np.repeat(a_values, energies.size))
    each = [row_arrays(quantity, energies, ModelParams(disorder_A=a),
                       spectrum) for a in a_values]
    for k, got in enumerate(row):
        want = np.concatenate([arrays[k] for arrays in each])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k


class TestDisorderRows:
    @pytest.mark.parametrize("quantity,B,span", ROW_CASES)
    def test_row_equals_its_disorder_calls(self, quantity, B, span):
        assert_row_is_its_disorder_calls(quantity, B, ROW_ENERGIES, ROW_A)

    def test_row_holds_the_re_solve_and_the_gap_roots(self, spectrum10_50):
        params = ModelParams(disorder_A=20.0)
        sol = solve_self_energy_landau(
            np.tile(ROW_ENERGIES, 3), params, spectrum10_50,
            A=np.repeat(ROW_A, ROW_ENERGIES.size))
        sigma = sol.sigma.reshape(3, -1)
        real = np.abs(sigma.imag) <= 1e-9 * np.abs(sigma)
        # A = 50: the broadened roots of the re-solve; A = 500: real roots
        # at the frozen gap energies
        assert not real[1, :2].any()
        assert real[2, 4:].all()

    @pytest.mark.parametrize("quantity,B,span", ROW_CASES)
    def test_long_row_equals_its_disorder_calls(self, quantity, B, span):
        # 2 x 4,096 energies: the Landau step's ladder call then holds
        # 16,384 values, where numpy computes scale * (temporary) in place
        # with the operands swapped
        assert_row_is_its_disorder_calls(
            quantity, B, np.linspace(-span, span, 4096), (20.0, 500.0))

    def test_bad_disorder_column_is_refused(self, spectrum10_50):
        params = ModelParams(disorder_A=20.0)
        for A in ([20.0, -1.0], [20.0, math.inf], [20.0]):
            with pytest.raises(ValueError, match="disorder"):
                solve_self_energy_landau(np.array([0.1, 0.2]), params,
                                         spectrum10_50, A=np.array(A))
            with pytest.raises(ValueError, match="disorder"):
                solve_self_energy_b0(np.array([0.1, 0.2]), params,
                                     A=np.array(A))


def cell(x) -> str:
    """The per-cell CSV formatter that the column writer replaced."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def reference_csv(result) -> str:
    """The CSV of result's rows, written row by row, cell by cell."""
    quantity = QUANTITIES[result.header["config"]["quantity"]]
    lines = [f"# diracvisc {result.header['code_version']}",
             "# config: " + json.dumps(result.header["config"],
                                       sort_keys=True,
                                       separators=(",", ":"))]
    head = ["E (eV)", "B (T)", "Omega (eV)", "A", quantity.value_label]
    lines.append(",".join(head + list(quantity.channels)
                          + ["regime", "converged"]))
    for r in result.rows:
        cells = [cell(r.E), cell(r.B), cell(r.Omega), cell(r.A),
                 cell(r.value)]
        cells += [cell(r.channels.get(c)) for c in quantity.channels]
        lines.append(",".join(cells + [r.regime_tag, cell(r.converged)]))
    return "\n".join(lines) + "\n"


TWO_FIELDS = dict(e_grid=GridSpec(-0.21, 0.21, 3), b_grid=GridSpec(0.0, 10.0, 2),
                  a_values=(20.0, 500.0))
CSV_CASES = [
    ("self_energy", dict(e_grid=GridSpec(0.0, 1.0, 3), a_values=(20.0, 50.0))),
    ("self_energy", TWO_FIELDS),
    ("self_energy", DIVERGING),
    ("dos", TWO_FIELDS),
    ("dos", DIVERGING),
    ("static_shear", TWO_FIELDS),
    ("static_shear", DIVERGING),
    ("static_hall", dict(TWO_FIELDS, b_grid=GridSpec(5.0, 10.0, 2))),
    ("dynamic_shear", dict(e_grid=GridSpec(0.0, 0.2, 2),
                           omega_grid=GridSpec(0.05, 0.1, 2),
                           a_values=(20.0, 50.0))),
    ("dynamic_hall", dict(e_grid=GridSpec(0.05, 0.13, 2),
                          b_grid=GridSpec(10.0, 10.0, 1),
                          omega_grid=GridSpec(-0.3, 0.3, 2),
                          a_values=(50.0, 500.0))),
    ("vertex_check", TWO_FIELDS),
]


class TestCsvOracle:
    @pytest.mark.parametrize("quantity,grids", CSV_CASES)
    def test_column_writer_equals_the_cell_writer(self, quantity, grids):
        result = run_sweep(SweepSpec(quantity=quantity, **grids))
        text = result_to_csv(result)
        assert text == reference_csv(result)
        rows = [line.split(",") for line in text.splitlines()[3:]]
        assert len(rows) == len(result)
        if grids is DIVERGING:
            # the failed point: nan, its other cells blank, not converged
            failed = [r for r in rows if r[-1] == "false"]
            assert failed == [["5.4", "", "", "1.2", "nan"]
                              + [""] * (len(rows[0]) - 6) + ["false"]]
            assert [(r.channels, r.regime_tag) for r in result.rows
                    if not r.converged] == [({}, "")]
        if quantity == "self_energy":
            assert all(r[7].isdigit() for r in rows if r[-1] == "true")

    def test_cells_are_blank_without_their_grid(self):
        text = result_to_csv(run_sweep(tiny_spec()))
        assert all(line.split(",")[1:3] == ["", ""]
                   for line in text.splitlines()[3:])

    def test_vertex_check_without_field_leaves_the_landau_ratio_blank(self):
        result = run_sweep(SweepSpec(quantity="vertex_check", **TWO_FIELDS))
        for r in result.rows:
            assert ("ratio_landau" in r.channels) == (r.B == 10.0)


class TestDynamicBlocks:
    def test_one_call_per_block_and_rows_in_grid_order(self, monkeypatch):
        calls = []
        real = sweep.hall_dynamic

        def record(E, Omega, *args, **kwargs):
            calls.append(np.size(E))
            return real(E, Omega, *args, **kwargs)

        monkeypatch.setattr(sweep, "hall_dynamic", record)
        spec = SweepSpec(quantity="dynamic_hall",
                         e_grid=GridSpec(0.05, 0.13, 3),
                         b_grid=GridSpec(5.0, 10.0, 2),
                         omega_grid=GridSpec(-0.3, 0.3, 4),
                         a_values=(50.0, 500.0))
        rows = run_sweep(spec).rows
        assert calls == [3 * 4] * (2 * 2)  # one call per (B, A) block
        keys = [(r.E, r.B, r.Omega, r.A) for r in rows]
        assert keys == sorted(keys) and len(set(keys)) == 48
        want = []
        for r in rows:
            params = ModelParams(disorder_A=r.A)
            spectrum = build_spectrum(params, r.B)
            want.append(real(r.E, r.Omega, params, spectrum,
                             spectrum.hbar_omega_c / 50.0))
        got = np.array([r.value for r in rows])
        assert got.tobytes() == np.array(want).tobytes()

    # calls: each block evaluator fails once on the whole block of 12
    # points and then takes them one by one
    @pytest.mark.parametrize("quantity,name,B,calls", [
        ("dynamic_hall", "hall_dynamic", 10.0, 1 + 12),
        ("dynamic_shear", "shear_dynamic_b0", None, 1 + 12),
        ("dynamic_shear", "shear_dynamic_bfield", 10.0, 1 + 12)])
    def test_failed_point_is_the_only_row_flagged(self, quantity, name, B,
                                                  calls, monkeypatch):
        spec = SweepSpec(quantity=quantity, e_grid=GridSpec(0.0, 0.2, 3),
                         b_grid=None if B is None else GridSpec(B, B, 1),
                         omega_grid=GridSpec(-0.3, 0.3, 4), a_values=(50.0,))
        want = run_sweep(spec).rows
        bad = want[5]
        real = getattr(sweep, name)
        seen = []

        def failing(E, Omega, *args, **kwargs):
            seen.append(np.size(E))
            if np.any((E == bad.E) & (Omega == bad.Omega)):
                raise ConvergenceError("injected", 1.0, 100, 0j)
            return real(E, Omega, *args, **kwargs)

        monkeypatch.setattr(sweep, name, failing)
        rows = run_sweep(spec).rows
        assert len(seen) == calls
        assert [r.converged for r in rows] == [r is not bad for r in want]
        assert math.isnan(rows[5].value)
        scale = max(abs(r.value) for r in want)
        for r, w in zip(rows, want):
            assert (r.E, r.Omega) == (w.E, w.Omega)
            if w is not bad:
                assert abs(r.value - w.value) <= 1e-12 * scale


def full_ladder_fields(quantity, E, params, spectrum):
    """(value, channels) of one row, evaluated on the given spectrum."""
    if quantity == "self_energy":
        sigma = solve_self_energy_landau(E, params, spectrum).sigma
        return sigma.imag, {"re_sigma": sigma.real}
    kubo = {"static_shear": shear_bfield_numeric,
            "static_hall": hall_static_numeric}[quantity]
    v = kubo(E, params, spectrum)
    return v.value, v.channels


# 0.5 T, where a 20,000-level default cap once cut the ladder (78,762
# levels) short: Im Sigma read 0.9-16% low, the shear and Hall up to 16% off
HALF_TESLA = dict(e_grid=GridSpec(0.05, 0.1, 2), b_grid=GridSpec(0.5, 0.5, 1),
                  a_values=(20.0, 50.0))


class TestPhysicalLadder:
    @pytest.mark.parametrize("quantity",
                             ["self_energy", "static_shear", "static_hall"])
    def test_default_rows_sum_the_full_ladder(self, quantity):
        rows = run_sweep(SweepSpec(quantity=quantity, **HALF_TESLA)).rows
        assert [(r.E, r.A) for r in rows] == [
            (0.05, 20.0), (0.05, 50.0), (0.1, 20.0), (0.1, 50.0)]
        full = small_spectrum(b_field=0.5, n_cutoff=78_762)
        for row in rows:
            params = ModelParams(disorder_A=row.A)
            value, channels = full_ladder_fields(quantity, row.E, params, full)
            assert row.converged and row.value == value
            assert {k: row.channels[k] for k in channels} == channels

    @pytest.mark.parametrize("A", [20.0, 50.0])
    @pytest.mark.parametrize("E", [0.05, 0.1])
    def test_default_ladder_meets_direct_sums(self, E, A):
        params = ModelParams(disorder_A=A)
        spectrum = build_spectrum(params, 0.5)
        assert spectrum.n_cutoff == 78_762
        sigma = solve_self_energy_landau(E, params, spectrum).sigma
        z = E - sigma
        scale = spectrum.hbar_omega_c ** 2 / (2.0 * A)
        out = scale * landau_green_sum_direct(z, spectrum)
        assert abs(sigma - out) <= 1e-9 * abs(sigma)
        ra, rr = shear_pair_sums(z, spectrum)
        ref_ra, ref_rr = shear_pair_sums_direct(z, spectrum)
        assert ra == pytest.approx(ref_ra, rel=1e-11)
        assert rr == pytest.approx(ref_rr, rel=1e-11)
        assert ra.real - rr.real == pytest.approx(ref_ra.real - ref_rr.real,
                                                  rel=1e-11)

    def test_legacy_hard_limit_key_is_ignored(self):
        rows = run_sweep(SweepSpec(quantity="static_shear",
                                   fixed={"hard_limit": 20_000},
                                   **HALF_TESLA)).rows
        ref = run_sweep(SweepSpec(quantity="static_shear", **HALF_TESLA)).rows
        assert [r.value for r in rows] == [r.value for r in ref]

    def test_finite_temperature_dynamic_hall_past_the_cap_runs(self, capsys):
        # 0.01 T, k_B T = 1 meV: 3.9e6 levels, of which the Fermi window
        # sums ~2.7e3 pairs
        rc = main(["sweep", "--quantity", "dynamic_hall", "--e", "0.1",
                   "--b", "0.01", "--omega", "0.05", "--a", "20",
                   "--fixed", '{"temperature": 0.001}'])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[-1] == "true" and math.isfinite(float(row[4]))

    def test_zero_temperature_dynamic_hall_past_the_cap_runs(self, capsys):
        # 0.01 T, T = 0: only the ~1.7e3 pairs of the Fermi window are summed
        rc = main(["sweep", "--quantity", "dynamic_hall", "--e", "0.1",
                   "--b", "0.01", "--omega", "0.05", "--a", "20"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[-1] == "true" and math.isfinite(float(row[4]))

    def test_static_hall_past_the_cap_runs(self, capsys):
        # 0.01 T: 3.9e6 levels, summed in closed form with no cap
        rc = main(["sweep", "--quantity", "static_hall", "--e", "0.1",
                   "--b", "0.01", "--a", "20"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[-1] == "true" and math.isfinite(float(row[4]))
        z, spectrum = solved_z(0.01, 20.0, 0.1)
        assert spectrum.n_cutoff == 3_938_085 > MAX_MATERIALIZED_LEVELS
        _, _, sum_log = _hall_sums(z, spectrum)
        assert sum_log == pytest.approx(collapsed_log_sum(z, spectrum),
                                        rel=1e-12)

    def test_dynamic_shear_window_needs_no_cap(self):
        # 0.05 T: 7.9e5 levels, of which the window sum builds ~1.2e3
        spec = SweepSpec(quantity="dynamic_shear",
                         e_grid=GridSpec(0.1, 0.1, 1),
                         b_grid=GridSpec(0.05, 0.05, 1),
                         omega_grid=GridSpec(0.05, 0.05, 1),
                         a_values=(20.0,))
        row = run_sweep(spec).rows[0]
        assert row.converged and math.isfinite(row.value) and row.value > 0


# one cheap point per quantity; B = 10 T where the quantity allows a field
_ONE_POINT = {
    "self_energy": ["--e", "1.0", "--a", "20"],
    "dos": ["--e", "1.0", "--a", "20"],
    "static_shear": ["--e", "0.5", "--a", "20"],
    "static_hall": ["--e", "0.06", "--b", "10", "--a", "500"],
    "dynamic_shear": ["--e", "1.0", "--omega", "0.3", "--a", "20"],
    "dynamic_hall": ["--e", "0.05", "--b", "10", "--omega", "0.15",
                     "--a", "500"],
    "vertex_check": ["--e", "1.0", "--b", "10", "--a", "20"],
}

_GRID_COLUMNS = "E (eV),B (T),Omega (eV),A,"
_COLUMN_LINES = {
    "self_energy": "im_sigma (eV),re_sigma,residual,iterations",
    "dos": "dos (1/eV nm^2)",
    "static_shear": "eta_s (hbar/nm^2),RA,RR",
    "static_hall": "eta_H (hbar/nm^2),RA,RR,II",
    "dynamic_shear": "eta_s (hbar/nm^2)",
    "dynamic_hall": "eta_H (hbar/nm^2)",
    "vertex_check": "vertex_ratio,ratio_momentum,ratio_landau",
}


class TestCsvColumns:
    @pytest.mark.parametrize("quantity", sorted(_COLUMN_LINES))
    def test_column_line(self, quantity, capsys):
        rc = main(["sweep", "--quantity", quantity] + _ONE_POINT[quantity])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (_GRID_COLUMNS + _COLUMN_LINES[quantity]
                            + ",regime,converged")
        assert len(lines) == 4
        assert lines[3].endswith(",true")


    def test_quantity_choices_are_the_table(self):
        sweep = cli.build_parser()._subparsers._group_actions[0].choices["sweep"]
        action = next(a for a in sweep._actions if a.dest == "quantity")
        assert tuple(action.choices) == tuple(QUANTITIES)


class TestFigurePresets:
    def test_known_names_resolve(self):
        for name in ("fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5"):
            spec = figure_preset(name)
            assert spec.a_values

    def test_fig2a_parameters(self):
        spec = figure_preset("fig2a")
        assert spec.b_grid.values() == [10.0]
        assert spec.a_values == (20.0, 50.0, 100.0, 500.0)

    def test_fig4_parameters(self):
        spec = figure_preset("fig4")
        assert spec.b_grid is None
        assert spec.e_grid.values() == [0.0, 0.75, 1.5]

    def test_fig5_parameters(self):
        spec = figure_preset("fig5")
        es = spec.e_grid.values()
        assert es[0] == pytest.approx(0.05)
        assert spec.quantity == "dynamic_hall"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="preset"):
            figure_preset("fig9")


class TestCli:
    def test_solve_sigma(self, capsys):
        rc = main(["solve-sigma", "--E", "0.0", "--A", "20"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["im_sigma_eV"] == pytest.approx(-3.269e-4, rel=1e-3)
        assert out["converged"]

    def test_solve_sigma_with_field(self, capsys):
        rc = main(["solve-sigma", "--E", "0.0", "--A", "6", "--B", "10"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_cutoff"] > 3000
        assert out["im_sigma_eV"] < -0.3

    def test_sweep_to_file_with_svg(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--quantity", "static_shear", "--e=-0.5:0.5:3",
                   "--a", "10,20", "--output", str(out), "--svg"])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# diracvisc")
        assert (tmp_path / "sweep.svg").exists()

    def test_sweep_stdout(self, capsys):
        rc = main(["sweep", "--quantity", "dos", "--e", "1.5", "--a", "20"])
        assert rc == 0
        assert "dos (1/eV nm^2)" in capsys.readouterr().out

    def test_sweep_config_file_with_override(self, tmp_path, capsys):
        cfg = {"quantity": "dos", "E": {"start": 1.5, "stop": 1.5, "count": 1},
               "A": [20.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path), "--a", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert ",10.0," in out

    def test_config_with_threads_key_still_runs(self, tmp_path, capsys):
        # configs written for older versions carry a "threads" key
        cfg = {"quantity": "dos", "E": {"start": 1.5, "stop": 1.5, "count": 1},
               "A": [20.0], "threads": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path)])
        assert rc == 0
        assert "dos (1/eV nm^2)" in capsys.readouterr().out

    @pytest.mark.parametrize("key,raw,named", [
        ("A", 20, "A"),
        ("A", ["x"], "A"),
        ("A", [True], "A"),
        ("E", "0.1", "E"),
        ("E", {"start": "x", "stop": 1, "count": 2}, "start"),
        ("E", {"start": 0.1, "stop": 1, "count": 2.5}, "count"),
        ("fixed", [1], "fixed"),
        ("output", "x.csv", "output"),
        ("output", {"path": 3}, "path"),
        ("quantity", [], "quantity"),
        ("E", {"start": 1.5, "stop": 1.5, "count": 1, "scale": []}, "scale"),
    ])
    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys, key,
                                               raw, named):
        # the config keeps keys the sweep ignores (threads, hard_limit)
        cfg = {"quantity": "dos", "E": {"start": 0.1, "stop": 0.2, "count": 2},
               "A": [20.0], "threads": 1, "fixed": {"hard_limit": 20_000},
               key: raw}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and named in err

    @pytest.mark.parametrize("text,named", [
        ("[]", "config"),
        ('{"E": 1.5, "A": [20]}', "quantity")], ids=["list", "no_quantity"])
    def test_bad_config_shape_is_a_usage_error(self, text, named, tmp_path,
                                               capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = main(["sweep", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and named in err

    @pytest.mark.parametrize("raw", ["[1,2]", "null", "3"])
    def test_fixed_that_is_not_an_object_is_a_usage_error(self, raw, capsys):
        rc = main(["sweep", "--quantity", "dos", "--e", "1.5", "--a", "20",
                   "--fixed", raw])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:") and "--fixed" in err

    def test_svg_beside_an_output_in_a_dotted_directory(self, tmp_path,
                                                        capsys):
        # the SVG path was once cut at the directory's dot: run.svg beside
        # run.d
        out = tmp_path / "run.d" / "out"
        out.parent.mkdir()
        rc = main(["sweep", "--quantity", "dos", "--e", "1.5", "--a", "20",
                   "--output", str(out), "--svg"])
        assert rc == 0
        assert out.read_text().startswith("# diracvisc")
        assert (out.parent / "out.svg").read_text().startswith("<svg")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.d"]

    # an x.svg output was once overwritten by the SVG, and --svg without
    # --output was ignored; both are refused before any row is evaluated
    @pytest.mark.parametrize("command", [
        ["sweep", "--quantity", "dos", "--e", "1.5", "--a", "20"],
        ["figure", "fig1"]], ids=["sweep", "figure"])
    @pytest.mark.parametrize("output", [[], ["--output", "x.svg"]],
                             ids=["no_output", "svg_output"])
    def test_svg_needs_a_separate_output_file(self, command, output,
                                              tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        calls = []
        real = sweep._eval_point
        monkeypatch.setattr(sweep, "_eval_point",
                            lambda *a: calls.append(a) or real(*a))
        rc = main([*command, *output, "--svg"])
        captured = capsys.readouterr()
        assert rc == 2 and calls == [] and captured.out == ""
        assert captured.err.startswith("usage error:")
        assert "--svg" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_dirac_point_shear_at_weak_disorder(self, capsys):
        # z^2 underflows at A >= 750; the row once read nan, converged
        rc = main(["sweep", "--quantity", "static_shear", "--e", "0",
                   "--a", "750,1000", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 2
        for row in rows:
            assert math.isfinite(row["value"]) and row["value"] >= 0.0
            assert row["converged"]

    @pytest.mark.parametrize("quantity", ["dynamic_shear", "dynamic_hall"])
    @pytest.mark.parametrize("broadening", ["0", "-0.0023", "NaN",
                                            "Infinity"])
    def test_bad_broadening_is_usage_error(self, quantity, broadening,
                                           capsys):
        # each once gave a number marked converged or an error that did
        # not name the setting
        rc = main(["sweep", "--quantity", quantity, "--e", "0.13",
                   "--b", "10", "--omega", "0.2", "--a", "500",
                   "--fixed", f'{{"broadening": {broadening}}}'])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "broadening" in err

    def test_usage_error_exit_code(self, capsys):
        rc = main(["sweep", "--quantity", "static_hall", "--e", "0:1:2",
                   "--a", "10"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--e", "--b", "--omega"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_grid_is_usage_error(self, flag, value, capsys):
        args = {"--e": "0.05", "--b": "10", "--omega": "0.15"}
        args[flag] = value
        rc = main(["sweep", "--quantity", "dynamic_hall", "--a", "500"]
                  + [f"{k}={v}" for k, v in args.items()])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage error" in err and value in err

    def test_zero_omega_evaluates_no_row(self, monkeypatch, capsys):
        calls = []
        real = sweep._eval_point
        monkeypatch.setattr(sweep, "_eval_point",
                            lambda *a: calls.append(a) or real(*a))
        code = main(["sweep", "--quantity", "dynamic_shear", "--e", "0.5",
                     "--omega=-0.1:0.1:3", "--a", "20"])
        assert code == 2 and calls == []
        captured = capsys.readouterr()
        assert "usage error" in captured.err and captured.out == ""

    @pytest.mark.parametrize("quantity,omega", [("static_hall", []),
                                                ("dynamic_hall",
                                                 ["--omega", "0.2"])])
    @pytest.mark.parametrize("b_grid", ["10:0:2", "-1"])
    def test_field_quantity_refuses_b_zero(self, quantity, omega, b_grid,
                                           monkeypatch, capsys):
        # the 10 T row once ran before B = 0 ended the sweep with exit 2
        calls = []
        real = sweep._eval_point
        monkeypatch.setattr(sweep, "_eval_point",
                            lambda *a: calls.append(a) or real(*a))
        code = main(["sweep", "--quantity", quantity, "--e", "0.1",
                     f"--b={b_grid}", "--a", "20", *omega])
        assert code == 2 and calls == []
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "B > 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("quantity,omega", [
        ("self_energy", []), ("dos", []), ("static_shear", []),
        ("dynamic_shear", ["--omega", "0.2"]), ("vertex_check", [])])
    def test_negative_field_evaluates_no_row(self, quantity, omega,
                                             monkeypatch, capsys):
        # the 1 T and 0 T rows once ran before B = -1 ended the sweep
        calls = []
        real = sweep._eval_point
        monkeypatch.setattr(sweep, "_eval_point",
                            lambda *a: calls.append(a) or real(*a))
        code = main(["sweep", "--quantity", quantity, "--e", "0.1",
                     "--b=1:-1:3", "--a", "20", *omega])
        assert code == 2 and calls == []
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "B must be >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["sweep", "--quantity", "self_energy", "--e=-36", "--a", "2.5"],
        ["sweep", "--quantity", "dos", "--e=-8:0:3", "--b", "0.05",
         "--a", "20"],
        ["sweep", "--quantity", "static_shear", "--e", "3", "--a", "20",
         "--fixed", '{"cutoff_Ec": 3}'],
        ["solve-sigma", "--E=-36", "--A", "2.5"],
        ["solve-sigma", "--E", "8", "--A", "20", "--B", "0.05"],
        ["vertex-check", "--E", "7.2"]])
    def test_energy_outside_the_band_is_usage_error(self, args, monkeypatch,
                                                    capsys):
        # at A = 2.5, E = -36 eV solve-sigma once ran 100 Newton steps and
        # exited 1, and sweep wrote a NaN row and exited 0
        calls = []
        monkeypatch.setattr(sweep, "_eval_point", lambda *a: calls.append(a))
        assert main(args) == 2 and calls == []
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "E_c" in captured.err
        assert "E = " in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("quantity,omega", [
        ("vertex_check", []), ("static_shear", []),
        ("dynamic_shear", ["--omega", "0.2"])])
    @pytest.mark.parametrize("a_values", ["20,-1", "20,nan", "0"])
    def test_bad_disorder_evaluates_no_row(self, quantity, omega, a_values,
                                           monkeypatch, capsys):
        # a row runs every A at once, so each A is checked before any row
        calls = []
        monkeypatch.setattr(sweep, "_eval_point", lambda *a: calls.append(a))
        code = main(["sweep", "--quantity", quantity, "--e", "0.1",
                     "--a", a_values, *omega])
        assert code == 2 and calls == []
        err = capsys.readouterr().err
        assert "usage error: disorder_A must be positive and finite" in err

    @pytest.mark.parametrize("fixed", ['{"degeneracy": 4.7}'])
    def test_fractional_integer_setting_is_usage_error(self, fixed, capsys):
        code = main(["sweep", "--quantity", "static_shear", "--e", "0.05",
                     "--b", "10", "--a", "20", "--fixed", fixed])
        assert code == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity,key,value", [
        ("dynamic_hall", "broadening", '"x"'), ("dos", "temperature", '"x"'),
        ("dos", "cutoff_Ec", '"7"'), ("dynamic_hall", "broadening", "null"),
        ("dos", "temperature", "null"), ("dos", "hbar_vf", "true")])
    def test_non_numeric_setting_is_usage_error(self, quantity, key, value,
                                                monkeypatch, capsys):
        # each once ended in an uncaught TypeError from a row
        calls = []
        monkeypatch.setattr(sweep, "_eval_point",
                            lambda *a: calls.append(a))
        grids = ["--b", "10", "--omega", "0.2"] if quantity == "dynamic_hall" \
            else []
        code = main(["sweep", "--quantity", quantity, "--e", "0.13",
                     "--a", "500", *grids, "--fixed", f'{{"{key}": {value}}}'])
        assert code == 2 and calls == []
        err = capsys.readouterr().err
        assert "usage error" in err and key in err

    def test_static_sweep_rejects_temperature(self, capsys):
        rc = main(["sweep", "--quantity", "static_shear", "--e", "0.5",
                   "--a", "20", "--fixed", '{"temperature": 0.01}'])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_figure_format_without_output(self, capsys):
        rc = main(["figure", "fig1", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 324
        assert payload["header"]["config"]["output"]["format"] == "json"

    def test_compute_error_exit_code(self, monkeypatch, capsys):
        def failing(spec):
            raise ArithmeticError("numerical failure")
        monkeypatch.setattr(cli, "run_sweep", failing)
        rc = main(["sweep", "--quantity", "static_shear", "--e", "0.1",
                   "--b", "10", "--a", "20"])
        assert rc == 1
        assert "compute error" in capsys.readouterr().err

    def test_import_leaves_out_scipy_integrate(self):
        # only the quadrature validation route needs scipy.integrate
        src = str(Path(diracvisc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, diracvisc.cli; "
                "print('scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_runtime_loads_no_scipy(self, tmp_path):
        # scipy is a test dependency and oracles holds the references:
        # neither the import nor a Landau figure, a digamma-summed column,
        # a T > 0 Fermi block, a field dynamic shear row, a self-energy
        # column or a vertex check loads either
        src = str(Path(diracvisc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        runs = [["figure", "fig3"],
                ["sweep", "--quantity", "static_shear", "--e=-0.3:0.3:7",
                 "--b", "10", "--a", "50"],
                ["sweep", "--quantity", "dynamic_hall", "--e", "0:0.2:3",
                 "--b", "10", "--omega", "0.05:0.2:2", "--a", "500",
                 "--fixed", '{"temperature": 0.001}'],
                ["sweep", "--quantity", "dynamic_shear", "--e", "0.1",
                 "--b", "10", "--omega", "0.05", "--a", "20"],
                ["sweep", "--quantity", "self_energy", "--e=-0.3:0.3:5",
                 "--b", "10", "--a", "50"],
                ["sweep", "--quantity", "vertex_check", "--e", "1",
                 "--b", "10", "--a", "20"]]
        runs = [argv + ["--output", str(tmp_path / f"{i}.csv")]
                for i, argv in enumerate(runs)]
        code = ("import json, sys\n"
                "from diracvisc.cli import main\n"
                "def loaded(): return [m for m in sys.modules "
                "if m.startswith('scipy') or m == 'diracvisc.oracles']\n"
                "seen = [[0, loaded()]]\n"
                f"for argv in {runs!r}:\n"
                "    seen.append([main(argv), loaded()])\n"
                "print(json.dumps(seen))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout.splitlines()[-1]) == [[0, []]] * 7

    def test_vertex_check_needs_no_landau_solve(self, monkeypatch, capsys):
        # neither check solves an SCBA: the Landau check must not call the
        # Landau SCBA map, and no solve of either kind may run the core
        def no_solve(*args):
            raise ConvergenceError("no SCBA solve expected", 1.0, 0, 0j)

        monkeypatch.setattr(scba, "landau_green_sum", no_solve)
        monkeypatch.setattr(scba, "_iterate", no_solve)
        assert main(["vertex-check", "--B", "10"]) == 0
        assert "landau basis" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["solve-sigma", "--E", "0.1", "--A", "20", "--B", "nan"],
        ["solve-sigma", "--E", "0.1", "--A", "20", "--B", "inf"],
        ["vertex-check", "--E", "0.1", "--B", "-1"],
        ["vertex-check", "--E", "0.1", "--B", "nan"],
        ["vertex-check", "--E", "0.1", "--B", "inf"]])
    def test_bad_field_is_usage_error(self, args, capsys):
        # solve-sigma once said "cannot convert float NaN to integer" or
        # exited 1 on a division by zero; vertex-check printed its momentum
        # line before it failed
        assert main(args) == 2
        captured = capsys.readouterr()
        assert ("usage error: b_field must be positive and finite"
                in captured.err)
        assert captured.out == ""

    def test_overflowing_row_is_not_converged(self):
        # past about 1e155 T (hbar w_c)^4 overflows in the pair sums: the row
        # reads nan and is flagged, not marked converged. A subprocess, as
        # the overflow warns and the suite turns RuntimeWarning into errors
        src = str(Path(diracvisc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run(
            [sys.executable, "-m", "diracvisc.cli", "sweep", "--quantity",
             "static_shear", "--e", "0.1", "--b", "1e160", "--a", "20"],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        row = out.stdout.splitlines()[-1].split(",")
        assert math.isnan(float(row[4])) and row[-1] == "false"

    def test_parser_is_built_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert main(["solve-sigma", "--E", "0.1", "--A", "20"]) == 0
        assert built.count("diracvisc") == 1

    def test_validate_command_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "validation passed" in out
        assert f"[{cli.FAIL:>15}]" not in out

    @pytest.mark.parametrize("B", [0.05, 0.01])
    @pytest.mark.parametrize("quantity",
                             ["self_energy", "static_shear", "static_hall"])
    def test_low_field_row_past_the_ladder_end_runs(self, quantity, B,
                                                    capsys):
        # the Newton iterates of E = 7.1 eV, A = 15 pass the ladder's end
        # (787,617 and 3,938,085 levels); the root meets the B -> 0 limit,
        # 8.7e-7 (0.05 T) and 3.3e-7 (0.01 T) off
        rc = main(["sweep", "--quantity", quantity, "--e", "7.1",
                   "--b", str(B), "--a", "15"])
        out, err = capsys.readouterr()
        assert rc == 0, err
        row = out.splitlines()[-1].split(",")
        assert row[-1] == "true"
        if quantity == "self_energy":
            sigma = complex(float(row[5]), float(row[4]))
            want = exact_cutoff_root(7.1, ModelParams(disorder_A=15.0), sigma)
            assert abs(sigma - want) <= 1e-6 * abs(want)

    def test_past_the_pair_sums_reach_is_refused(self, capsys):
        # 10 T, A = 0.3: the root lies at |a| = 2.9 N_c, past the 2 N_c
        # reach of the closed pair sums; the SCBA sum has no such limit
        args = ["--e", "1", "--b", "10", "--a", "0.3"]
        for quantity in ("static_shear", "static_hall"):
            assert main(["sweep", "--quantity", quantity, *args]) == 2
            assert "sqrt(2) E_c" in capsys.readouterr().err
        assert main(["sweep", "--quantity", "self_energy", *args]) == 0
        assert capsys.readouterr().out.endswith(",true\n")

    @pytest.mark.parametrize("quantity", [
        "self_energy", "dos", "static_shear", "static_hall", "dynamic_shear",
        "dynamic_hall"])
    def test_no_row_materializes_the_ladder(self, quantity, monkeypatch,
                                            capsys):
        # 10 T, A = 1, E = 7.1 eV: the root lies at |a| = 1.07 N_c, past
        # the ladder's end; a 10-level cap stops any level-by-level sum
        monkeypatch.setattr(oracles, "MAX_MATERIALIZED_LEVELS", 10)
        omega = ["--omega", "0.05"] if quantity.startswith("dynamic") else []
        rc = main(["sweep", "--quantity", quantity, "--e", "7.1", "--b", "10",
                   "--a", "1", *omega])
        out, err = capsys.readouterr()
        assert rc == 0, err
        assert out.endswith(",true\n")

    @pytest.mark.parametrize("quantity", list(QUANTITIES))
    def test_low_field_row_peaks_below_half_a_ladder(self, quantity):
        # 0.01 T: N_c = 3,938,085 levels. One float64 array over the ladder
        # takes 8 N_c bytes; a row that holds no ladder peaks below half
        # of that (tracemalloc counts numpy's buffers)
        params = ModelParams(disorder_A=20.0)
        n_c = build_spectrum(params, 0.01).n_cutoff
        dynamic = QUANTITIES[quantity].dynamic
        spec = SweepSpec(quantity=quantity, e_grid=GridSpec(0.1, 0.1, 1),
                         b_grid=GridSpec(0.01, 0.01, 1),
                         omega_grid=GridSpec(0.01, 0.01, 1) if dynamic else None,
                         a_values=(20.0,))
        tracemalloc.start()
        try:
            rows = run_sweep(spec).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.converged for r in rows] == [True]
        assert peak < 4 * n_c

    def test_low_field_dynamic_shear_block_peaks_below_half_a_ladder(self):
        # the field shear solves a block's nodes in chunks of whole points;
        # one SCBA call on all 8 points peaked at 37 MB, above the bound
        n_c = build_spectrum(ModelParams(disorder_A=20.0), 0.01).n_cutoff
        spec = SweepSpec(quantity="dynamic_shear",
                         e_grid=GridSpec(0.04, 0.1, 4),
                         b_grid=GridSpec(0.01, 0.01, 1),
                         omega_grid=GridSpec(0.01, 0.02, 2), a_values=(20.0,))
        tracemalloc.start()
        try:
            rows = run_sweep(spec).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.converged for r in rows] == [True] * 8
        assert peak < 4 * n_c

    @pytest.mark.parametrize("quantity,omega", [
        ("static_hall", []), ("dynamic_shear", ["--omega", "0.05"]),
        ("dynamic_hall", ["--omega", "0.05"])])
    def test_ladder_without_a_pair_reads_zero(self, quantity, omega, capsys):
        # 40,000 T: N_c = 1 holds no (n, n + 2) pair, so every sum is empty
        rc = main(["sweep", "--quantity", quantity, "--e", "0.1",
                   "--b", "40000", "--a", "20", *omega])
        out, err = capsys.readouterr()
        assert rc == 0, err
        row = out.splitlines()[-1].split(",")
        assert float(row[4]) == 0.0 and row[-1] == "true"

    def test_validate_landau_scba_reinsertion(self):
        name, status, detail = next(
            row for row in cli._validate_checks()
            if row[0].startswith("Landau SCBA roots re-inserted"))
        assert status == cli.PASS, detail

    def test_validate_ladder_closed_forms(self):
        status = next(status for name, status, _ in cli._validate_checks()
                      if name.startswith("Landau ladder"))
        assert status == cli.PASS

    def test_validate_dynamic_hall_window(self):
        name, status, detail = next(
            row for row in cli._validate_checks()
            if row[0].startswith("dynamic Hall Fermi-window sum"))
        assert status == cli.PASS, detail

    def test_io_error_exit_code(self, capsys):
        rc = main(["sweep", "--quantity", "dos", "--e", "1.5", "--a", "20",
                   "--output", "/nonexistent-dir/x.csv"])
        assert rc == 2
        assert "i/o error" in capsys.readouterr().err

    def test_figure_command(self, tmp_path):
        out = tmp_path / "fig.csv"
        # fig5 with a thinned grid would be slow; use vertex-check instead
        rc = main(["vertex-check", "--E", "1.0", "--A", "20"])
        assert rc == 0
        rc = main(["figure", "fig9"])
        assert rc == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
