import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracvisc import (XX_MINUS_YY, XY, ModelParams,
                       build_spectrum, effective_cyclotron, landau_energy,
                       magnetic_length, stress_element_xx_minus_yy,
                       stress_element_xy, stress_kspace)
from diracvisc.oracles import MAX_MATERIALIZED_LEVELS, levels

# independent CODATA evaluation of sqrt(hbar / e B)
HBAR_SI = 1.054571817e-34   # J s
E_SI = 1.602176634e-19      # C


def lb_codata(b):
    return math.sqrt(HBAR_SI / (E_SI * b)) * 1e9


class TestMagneticLength:
    def test_one_tesla(self):
        assert magnetic_length(1.0) == pytest.approx(lb_codata(1.0), rel=1e-9)
        assert magnetic_length(1.0) == pytest.approx(25.656, rel=1e-4)

    def test_ten_tesla(self):
        assert magnetic_length(10.0) == pytest.approx(8.113, rel=1e-3)

    def test_inverse_sqrt_scaling(self):
        assert magnetic_length(4.0) == pytest.approx(magnetic_length(1.0) / 2.0,
                                                     rel=1e-14)

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValueError):
            magnetic_length(0.0)
        with pytest.raises(ValueError):
            magnetic_length(-1.0)

    @pytest.mark.parametrize("b_field", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, b_field):
        with pytest.raises(ValueError, match="positive and finite"):
            magnetic_length(b_field)


class TestSpectrum:
    def test_cyclotron_energy(self, params20, spectrum10_20):
        hwc = math.sqrt(2.0) * params20.hbar_vf / magnetic_length(10.0)
        assert spectrum10_20.hbar_omega_c == pytest.approx(hwc, rel=1e-12)
        assert spectrum10_20.hbar_omega_c == pytest.approx(0.1147, rel=1e-3)

    def test_cyclotron_b_scaling(self, params20):
        s1 = build_spectrum(params20, 1.0)
        s4 = build_spectrum(params20, 4.0)
        assert s4.hbar_omega_c == pytest.approx(2.0 * s1.hbar_omega_c, rel=1e-12)

    def test_cutoff_policy(self, params20, spectrum10_20):
        hwc = spectrum10_20.hbar_omega_c
        n_c = spectrum10_20.n_cutoff
        assert hwc * math.sqrt(n_c) >= params20.cutoff_Ec
        assert hwc * math.sqrt(n_c - 1) < params20.cutoff_Ec

    def test_level_indices_cap(self, params20):
        # 0.1 T, the longest ladder any preset sums level by level, fits
        s = build_spectrum(params20, 0.1)
        assert s.n_cutoff == 393_809 <= MAX_MATERIALIZED_LEVELS
        assert np.array_equal(levels(s), np.arange(393_810))
        with pytest.raises(ValueError, match=r"B = 0\.01 T .* 3938085 .* "
                           + str(MAX_MATERIALIZED_LEVELS)):
            levels(build_spectrum(params20, 0.01))

    def test_landau_energy_examples(self, spectrum10_20):
        assert landau_energy(0, 1, spectrum10_20) == 0.0
        assert landau_energy(1, 1, spectrum10_20) == pytest.approx(0.1147, rel=1e-3)
        assert landau_energy(2, -1, spectrum10_20) == pytest.approx(-0.1622, rel=1e-3)
        # resonance 0 -> (2,+) matches the 0.162 eV anchor
        gap = landau_energy(2, 1, spectrum10_20) - landau_energy(0, 1, spectrum10_20)
        assert gap == pytest.approx(0.162, abs=5e-4)
        # parity E_{n,-s} = -E_{n,s}; n = 0 is shared by both branches
        for n in range(13):
            for s in (1, -1):
                assert landau_energy(n, -s, spectrum10_20) == pytest.approx(
                    -landau_energy(n, s, spectrum10_20), abs=1e-15)
        assert landau_energy(0, -1, spectrum10_20) == 0.0

    def test_landau_energy_domain(self, spectrum10_20):
        with pytest.raises(ValueError):
            landau_energy(-1, 1, spectrum10_20)


class TestEffectiveCyclotron:
    def test_value(self, spectrum10_20):
        hwc = spectrum10_20.hbar_omega_c
        assert effective_cyclotron(hwc, spectrum10_20) == pytest.approx(
            hwc / 2.0, rel=1e-12)
        assert effective_cyclotron(0.1147, spectrum10_20) == pytest.approx(
            0.05737, rel=2e-3)
        assert effective_cyclotron(0.5, spectrum10_20) == pytest.approx(
            0.01316, rel=2e-3)

    def test_decay_with_energy(self, spectrum10_20):
        assert effective_cyclotron(100.0, spectrum10_20) < 1e-4

    def test_dirac_point_sentinel(self, spectrum10_20):
        assert effective_cyclotron(0.0, spectrum10_20) == math.inf


class TestStressElements:
    def test_zero_zero(self, spectrum10_20):
        assert stress_element_xy((0, 1), (0, 1), spectrum10_20) == 0
        assert stress_element_xx_minus_yy((0, 1), (0, -1), spectrum10_20) == 0

    def test_xy_examples(self, spectrum10_20):
        hwc = spectrum10_20.hbar_omega_c
        v = stress_element_xy((1, 1), (3, 1), spectrum10_20)
        assert v == pytest.approx(-1j * math.sqrt(2.0) * hwc / 4.0, rel=1e-12)
        assert v == pytest.approx(-1j * 0.04056, rel=2e-3)
        v20 = stress_element_xy((2, 1), (0, 1), spectrum10_20)
        assert v20 == pytest.approx(1j * hwc / (2.0 * math.sqrt(2.0)), rel=1e-12)
        assert v20 == pytest.approx(1j * 0.04056, rel=2e-3)

    def test_xx_minus_yy_examples(self, spectrum10_20):
        hwc = spectrum10_20.hbar_omega_c
        v = stress_element_xx_minus_yy((3, 1), (1, 1), spectrum10_20)
        assert v == pytest.approx(-(hwc / 2.0) * math.sqrt(2.0), rel=1e-12)
        assert v == pytest.approx(-0.08112, rel=2e-3)
        v_up = stress_element_xx_minus_yy((1, -1), (3, 1), spectrum10_20)
        assert v_up == pytest.approx(-(hwc / 2.0) * math.sqrt(2.0), rel=1e-12)

    @given(n=st.integers(0, 30), npr=st.integers(0, 30),
           s=st.sampled_from([-1, 1]), sp=st.sampled_from([-1, 1]))
    @settings(max_examples=200, deadline=None)
    def test_selection_rule(self, spectrum10_20, n, npr, s, sp):
        xy = stress_element_xy((n, s), (npr, sp), spectrum10_20)
        xxyy = stress_element_xx_minus_yy((n, s), (npr, sp), spectrum10_20)
        if abs(n - npr) != 2:
            assert xy == 0 and xxyy == 0

    @given(n=st.integers(0, 30), s=st.sampled_from([-1, 1]),
           sp=st.sampled_from([-1, 1]))
    @settings(max_examples=100, deadline=None)
    def test_xy_hermiticity(self, spectrum10_20, n, s, sp):
        up = stress_element_xy((n, s), (n + 2, sp), spectrum10_20)
        down = stress_element_xy((n + 2, sp), (n, s), spectrum10_20)
        assert up == pytest.approx(down.conjugate(), rel=1e-14)

    @given(n=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_particle_hole_magnitudes(self, spectrum10_20, n):
        mags = {abs(stress_element_xy((n, s), (n + 2, sp), spectrum10_20))
                for s in (-1, 1) for sp in (-1, 1)}
        assert max(mags) - min(mags) < 1e-15

    def test_cyclotron_scaling(self, params20):
        s1 = build_spectrum(params20, 1.0)
        s4 = build_spectrum(params20, 4.0)
        v1 = stress_element_xy((1, 1), (3, 1), s1)
        v4 = stress_element_xy((1, 1), (3, 1), s4)
        assert v4 == pytest.approx(2.0 * v1, rel=1e-12)


class TestStressKspace:
    def test_zero_momentum(self, params20):
        for which in (XY, XX_MINUS_YY):
            assert np.allclose(stress_kspace(0.0, 0.3, which, params20), 0.0)

    def test_sigma_z_case(self, params20):
        t = stress_kspace(1.0, math.pi / 4.0, XY, params20)
        half = params20.hbar_vf / 2.0
        assert np.allclose(t, np.diag([half, -half]), atol=1e-12)
        assert half == pytest.approx(0.3291, rel=1e-12)

    def test_trace_identity(self, params20):
        # Tr[T_xy^2] = (hbar v_f k)^2 / 2 for every angle (brute-force grid)
        k = 1.3
        expected = (params20.hbar_vf * k) ** 2 / 2.0
        for theta in np.linspace(0.0, 2.0 * math.pi, 37):
            t = stress_kspace(k, theta, XY, params20)
            assert np.trace(t @ t).real == pytest.approx(expected, rel=1e-12)

    def test_eigenvalue_isotropy(self, params20):
        k = 0.7
        ref = np.sort(np.linalg.eigvalsh(stress_kspace(k, 0.0, XY, params20)))
        for theta in np.linspace(0.1, 2.0 * math.pi, 17):
            ev = np.sort(np.linalg.eigvalsh(stress_kspace(k, theta, XY, params20)))
            assert np.allclose(ev, ref, atol=1e-12)

    @pytest.mark.parametrize("which", [XY, XX_MINUS_YY])
    def test_array_theta_stacks_the_scalar_calls(self, params20, which):
        theta = np.linspace(0.0, 2.0 * math.pi, 13)
        stacked = np.stack([stress_kspace(0.9, t, which, params20)
                            for t in theta], axis=-1)
        t = stress_kspace(0.9, theta, which, params20)
        assert t.shape == (2, 2, 13)
        np.testing.assert_array_equal(t, stacked)

    def test_negative_k_rejected(self, params20):
        with pytest.raises(ValueError):
            stress_kspace(-1.0, 0.0, XY, params20)

    def test_unknown_component_rejected(self, params20):
        with pytest.raises(ValueError):
            stress_kspace(1.0, 0.0, "XX", params20)


class TestModelParams:
    @pytest.mark.parametrize("kwargs", [
        {"disorder_A": -1.0},
        {"disorder_A": 20.0, "hbar_vf": 0.0},
        {"disorder_A": 20.0, "cutoff_Ec": -7.2},
        {"disorder_A": 20.0, "degeneracy": 0},
        {"disorder_A": 20.0, "temperature": -0.1},
        {"disorder_A": math.nan},
        {"disorder_A": math.inf},
        {"disorder_A": 20.0, "hbar_vf": math.nan},
        {"disorder_A": 20.0, "hbar_vf": math.inf},
        {"disorder_A": 20.0, "cutoff_Ec": math.nan},
        {"disorder_A": 20.0, "cutoff_Ec": -math.inf},
        {"disorder_A": 20.0, "temperature": math.nan},
        {"disorder_A": 20.0, "temperature": math.inf},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_defaults(self, params20):
        assert params20.hbar_vf == 0.6582
        assert params20.cutoff_Ec == 7.2
        assert params20.degeneracy == 4
        assert params20.temperature == 0.0
