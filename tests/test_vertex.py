import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @settings(max_examples=200, deadline=None)
    @given(E=st.floats(-7.2, 7.2, exclude_min=True, exclude_max=True),
           A=st.floats(math.log(0.3), math.log(2000.0)).map(math.exp),
           nodes=st.integers(8, 256))
    def test_rounding_zero_anywhere_in_the_band(self, E, A, nodes):
        # strong disorder too, where the B = 0 SCBA root is hard to find:
        # the check needs none
        rep = vertex_correction_b0(E, ModelParams(disorder_A=A),
                                   angular_nodes=nodes)
        assert rep.ratio <= 1e-14

    def test_makes_no_scba_solve(self, params20, monkeypatch):
        def no_solve(*args):
            raise ConvergenceError("no SCBA solve expected", 1.0, 0, 0j)

        monkeypatch.setattr(scba, "_iterate", no_solve)
        assert vertex_correction_b0(5.4, params20).ratio <= 1e-14


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
