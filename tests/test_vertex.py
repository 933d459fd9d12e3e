import pytest

from diracvisc import (ConvergenceError, ModelParams, build_spectrum, scba,
                       vertex_correction_b0, vertex_correction_landau)


class TestMomentumBasis:
    def test_ratio_below_threshold(self, params20):
        rep = vertex_correction_b0(1.0, params20, angular_nodes=64)
        assert rep.basis == "momentum"
        assert rep.norm_bare > 0
        assert rep.ratio <= 1e-8

    def test_ratio_energy_independent(self, params20):
        ratios = [vertex_correction_b0(E, params20, angular_nodes=64).ratio
                  for E in (0.2, 1.0, 2.0)]
        assert all(r <= 1e-8 for r in ratios)

    def test_doubling_nodes_does_not_grow_ratio(self, params20):
        r64 = vertex_correction_b0(1.0, params20, angular_nodes=64).ratio
        r128 = vertex_correction_b0(1.0, params20, angular_nodes=128).ratio
        assert r128 <= max(r64, 1e-12)

    def test_minimum_nodes_enforced(self, params20):
        with pytest.raises(ValueError):
            vertex_correction_b0(1.0, params20, angular_nodes=4)

    def test_grid_of_energies_and_disorders(self):
        for A in (10.0, 20.0, 35.0):
            for E in (0.2, 0.3, 1.0, 1.8, 2.0):
                rep = vertex_correction_b0(E, ModelParams(disorder_A=A))
                assert rep.ratio <= 1e-8


class TestLandauBasis:
    def test_structural_zero(self, spectrum10_20):
        rep = vertex_correction_landau(spectrum10_20)
        assert rep.basis == "landau"
        assert rep.norm_bare > 0
        assert rep.norm_correction == 0.0
        assert rep.ratio == 0.0

    def test_independent_of_disorder(self):
        for A in (5.0, 50.0, 500.0):
            params = ModelParams(disorder_A=A)
            spectrum = build_spectrum(params, 10.0)
            rep = vertex_correction_landau(spectrum)
            assert rep.ratio == 0.0

    def test_grid(self, params20):
        # short ladders too, where the window stops at N_c
        for B in (0.5, 1.0, 10.0, 5000.0):
            rep = vertex_correction_landau(build_spectrum(params20, B))
            assert rep.ratio == 0.0

    def test_makes_no_scba_solve(self, spectrum10_20, monkeypatch):
        def no_solve(*args):
            raise ConvergenceError("no SCBA solve expected", 1.0, 0, 0j)

        monkeypatch.setattr(scba, "_iterate", no_solve)
        assert vertex_correction_landau(spectrum10_20).ratio == 0.0
