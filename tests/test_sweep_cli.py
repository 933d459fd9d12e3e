import json
import math

import pytest

from diracvisc import (GridSpec, SweepSpec, figure_preset, parse_csv_config,
                       result_to_csv, result_to_json, result_to_svg,
                       run_sweep)
from diracvisc import cli
from diracvisc.cli import main
from diracvisc.kubo_static import TruncatedLadderError
from diracvisc.sweep import QUANTITIES


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

    def test_values_match_direct_evaluation(self):
        from diracvisc import ModelParams, shear_b0_numeric
        res = run_sweep(tiny_spec())
        row = [r for r in res.rows if r.E == 0.5 and r.A == 20.0][0]
        direct = shear_b0_numeric(0.5, ModelParams(disorder_A=20.0),
                                  method="exact")
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

    def test_truncated_tail_flags_row(self):
        # 1000 of ~3.9e3 levels at the n = 1 level: the overlapped A = 20
        # row loses its tail, the separated A = 500 row keeps it
        spec = SweepSpec(quantity="static_shear",
                         e_grid=GridSpec(0.1147334, 0.1147334, 1),
                         b_grid=GridSpec(10.0, 10.0, 1),
                         a_values=(20.0, 500.0),
                         fixed={"hard_limit": 1000})
        bad, good = run_sweep(spec).rows
        assert math.isnan(bad.value) and not bad.converged
        assert good.converged and good.value > 0

    def test_vertex_rows(self):
        spec = SweepSpec(quantity="vertex_check",
                         e_grid=GridSpec(1.0, 1.0, 1),
                         b_grid=GridSpec(10.0, 10.0, 1), a_values=(20.0,))
        row = run_sweep(spec).rows[0]
        assert row.value <= 1e-8
        assert row.channels["ratio_landau"] == 0.0


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
        def truncated(spec):
            raise TruncatedLadderError("tail lost")
        monkeypatch.setattr(cli, "run_sweep", truncated)
        rc = main(["sweep", "--quantity", "static_shear", "--e", "0.1",
                   "--b", "10", "--a", "20"])
        assert rc == 1
        assert "compute error" in capsys.readouterr().err

    def test_validate_ladder_closed_forms(self):
        status = next(status for name, status, _ in cli._validate_checks()
                      if name.startswith("Landau ladder"))
        assert status == cli.PASS

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
