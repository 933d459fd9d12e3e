import math

import numpy as np
import pytest

from diracvisc import (LandauSpectrum, ModelParams, OVERLAPPED, SEPARATED,
                       build_spectrum, detect_regime, hall_static_analytic,
                       hall_static_numeric, landau_energy, magnetic_length,
                       shear_b0_analytic, shear_b0_numeric,
                       shear_bfield_analytic, shear_bfield_dirac_limit,
                       shear_bfield_numeric, solve_self_energy_landau,
                       stress_element_xx_minus_yy, stress_element_xy)
from diracvisc.kubo_static import (TruncatedLadderError, _k_kernel,
                                   _k_kernel_quad, hall_fermi_sea_quadrature,
                                   shear_pair_sums, shear_pair_sums_direct)
from test_scba import ladder_cases, solved_z


def small_spectrum(b_field=10.0, n_cutoff=40, hbar_vf=0.6582):
    lb = magnetic_length(b_field)
    return LandauSpectrum(b_field=b_field, l_B=lb,
                          hbar_omega_c=math.sqrt(2.0) * hbar_vf / lb,
                          n_cutoff=n_cutoff, truncated=False)


def physical_levels(spectrum):
    out = []
    for n in range(spectrum.n_cutoff + 1):
        for s in ((1,) if n == 0 else (1, -1)):
            out.append((n, s))
    return out


# ---------------------------------------------------------------------------
# B = 0
# ---------------------------------------------------------------------------

class TestShearB0:
    def test_quadrature_matches_closed_kernel(self, params20):
        for E, A in [(1.5, 20.0), (0.5, 10.0), (0.0, 20.0), (0.0, 35.0),
                     (2.0, 35.0)]:
            params = ModelParams(disorder_A=A)
            vq = shear_b0_numeric(E, params, method="quad")
            ve = shear_b0_numeric(E, params, method="exact")
            assert vq.value == pytest.approx(ve.value, rel=1e-7)
            for ch in ("RA", "RR"):
                assert vq.channels[ch] == pytest.approx(ve.channels[ch],
                                                        rel=1e-6, abs=1e-20)

    def test_channel_identity_rr_aa(self, params20):
        # Re Tr[T G^A T G^A] = Re Tr[T G^R T G^R]: conjugate kernels
        from diracvisc import solve_self_energy_b0
        s = solve_self_energy_b0(1.2, params20, drop_real_part=True).sigma
        zR, zA = 1.2 - s, 1.2 - s.conjugate()
        k_rr = _k_kernel_quad(zR, zR, params20)
        k_aa = _k_kernel_quad(zA, zA, params20)
        assert k_aa.real == pytest.approx(k_rr.real, rel=1e-8)

    def test_array_kernel_equals_scalar_calls(self, params20):
        # the second and last pairs are the RR channel's a == b case
        z1 = np.array([1.2 + 0.25j, 0.4 + 1e-3j, -0.3 + 0.05j, 2.0 + 1e-6j])
        z2 = np.array([1.2 - 0.25j, 0.4 + 1e-3j, -0.3 - 0.05j, 2.0 + 1e-6j])
        k = _k_kernel(z1, z2, params20)
        assert k.shape == z1.shape
        for i in range(z1.size):
            one = _k_kernel(complex(z1[i]), complex(z2[i]), params20)
            assert np.ndim(one) == 0
            assert abs(k[i] - one) <= 1e-14 * abs(one)

    def test_value_against_frozen_and_closed_form(self, params20):
        v = shear_b0_numeric(1.5, params20)
        assert v.value == pytest.approx(1.381854, rel=1e-4)
        oracle = shear_b0_analytic(1.5, params20)
        assert oracle == pytest.approx(1.413199, rel=1e-4)
        assert abs(v.value / oracle - 1.0) < 0.07

    def test_value_decomposition(self, params20):
        v = shear_b0_numeric(0.8, params20)
        assert v.value == pytest.approx(v.channels["RA"] - v.channels["RR"],
                                        rel=1e-12)
        assert v.regime_tag == "b_zero"

    def test_disorder_enhancement_at_dirac_point(self):
        vals = [shear_b0_numeric(0.0, ModelParams(disorder_A=A)).value
                for A in (5.0, 10.0, 20.0, 35.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dirac_point_structural_factor(self):
        # honest integral = closed form * 4(A-1)/(3A) at E = 0
        for A in (10.0, 20.0):
            params = ModelParams(disorder_A=A)
            v = shear_b0_numeric(0.0, params).value
            oracle = shear_b0_analytic(0.0, params)
            assert v / oracle == pytest.approx(4.0 * (A - 1.0) / (3.0 * A),
                                               rel=1e-3)

    def test_rr_channel_identity_at_dirac_point(self, params20):
        # at E = 0: Re(RA) = -Re(RR), so value = 2 RA (with the honest
        # (A-1)/A weight shared by both channels)
        v = shear_b0_numeric(0.0, params20)
        assert v.channels["RR"] == pytest.approx(-v.channels["RA"], rel=1e-9)
        assert v.value == pytest.approx(2.0 * v.channels["RA"], rel=1e-9)

    def test_even_in_energy(self, params20):
        for E in (0.4, 1.5):
            vp = shear_b0_numeric(E, params20).value
            vm = shear_b0_numeric(-E, params20).value
            assert vm == pytest.approx(vp, rel=1e-9)

    def test_positive(self):
        for A in (7.0, 20.0):
            for E in np.linspace(0.0, 2.0, 7):
                v = shear_b0_numeric(E, ModelParams(disorder_A=A)).value
                assert v >= -1e-9

    def test_closed_form_weak_disorder_everywhere_above_dirac(self):
        # equivalence holds away from the Dirac point (E >= 0.9)
        for A in (10.0, 20.0, 35.0):
            params = ModelParams(disorder_A=A)
            for E in np.linspace(0.9, 2.0, 8):
                v = shear_b0_numeric(E, params, method="exact").value
                assert abs(v / shear_b0_analytic(E, params) - 1.0) < 0.07

    def test_closed_form_weak_disorder_large_a(self):
        # at A in {100, 500} the closed form holds over the whole doped range
        for A in (100.0, 500.0):
            params = ModelParams(disorder_A=A)
            for E in np.linspace(0.2, 2.0, 20):
                v = shear_b0_numeric(E, params, method="exact").value
                assert abs(v / shear_b0_analytic(E, params) - 1.0) < 0.07

    def test_closed_form_anomalous_region_deviates(self):
        # documented: near the Dirac point the closed form is off by up to
        # ~30% (missing 4/3 factor and log-enhanced Im Sigma)
        params = ModelParams(disorder_A=35.0)
        dev = abs(shear_b0_numeric(0.1, params).value
                  / shear_b0_analytic(0.1, params) - 1.0)
        assert 0.07 < dev < 0.35

    def test_analytic_dirac_value(self):
        # (3A Ec^2 e^{-A}) / (8 pi^2 (hbar v_f)^2), decreasing in A
        vals = []
        for A in (5.0, 10.0, 20.0):
            params = ModelParams(disorder_A=A)
            expected = 3.0 * A * (7.2 * math.exp(-A / 2.0)) ** 2 / (
                8.0 * math.pi ** 2 * 0.6582 ** 2 * A)
            expected *= A  # (3/A)(Ec A e^{-A/2})^2 = 3 A Ec^2 e^{-A}
            assert shear_b0_analytic(0.0, params) == pytest.approx(expected,
                                                                   rel=1e-12)
            vals.append(shear_b0_analytic(0.0, params))
        assert vals[0] > vals[1] > vals[2]


# ---------------------------------------------------------------------------
# Landau sums vs explicit matrix-element traces (dual route)
# ---------------------------------------------------------------------------

class TestLandauBruteForce:
    def brute_shear(self, E, sigma, spectrum, params):
        levels = physical_levels(spectrum)
        gr = {st: 1.0 / (E - sigma - landau_energy(*st, spectrum))
              for st in levels}
        s_ra = s_rr = 0.0 + 0.0j
        for a in levels:
            for b in levels:
                if abs(a[0] - b[0]) != 2:
                    continue
                t2 = abs(stress_element_xy(a, b, spectrum)) ** 2
                if t2 == 0.0:
                    continue
                s_ra += gr[a] * t2 * gr[b].conjugate()
                s_rr += gr[a] * t2 * gr[b]
        pref = (params.degeneracy / 4.0) / (math.pi ** 2 * spectrum.l_B ** 2)
        return pref * s_ra.real, pref * s_rr.real

    def brute_hall_surface(self, E, sigma, spectrum, params):
        levels = physical_levels(spectrum)
        gr = {st: 1.0 / (E - sigma - landau_energy(*st, spectrum))
              for st in levels}
        s_ra = s_rr = 0.0 + 0.0j
        for a in levels:
            for b in levels:
                xy = stress_element_xy(b, a, spectrum)
                if xy == 0.0:
                    continue
                xxyy = stress_element_xx_minus_yy(a, b, spectrum)
                s_ra += gr[a] * xxyy * gr[b].conjugate() * xy
                s_rr += gr[a] * xxyy * gr[b] * xy
        pref = (params.degeneracy / 4.0) / (2.0 * math.pi ** 2 * spectrum.l_B ** 2)
        return pref * (s_ra - s_rr).real

    def test_shear_channels_match_trace(self, params50):
        spectrum = small_spectrum(n_cutoff=30)
        E = 0.75 * spectrum.hbar_omega_c
        sigma = complex(-0.004, -0.02)
        ra, rr = self.brute_shear(E, sigma, spectrum, params50)
        v = shear_bfield_numeric(E, params50, spectrum, sigma=sigma)
        assert v.channels["RA"] == pytest.approx(ra, rel=1e-11)
        assert v.channels["RR"] == pytest.approx(rr, rel=1e-11)
        assert v.value == pytest.approx(ra - rr, rel=1e-11)

    def test_hall_surface_channel_matches_trace(self, params50):
        spectrum = small_spectrum(n_cutoff=30)
        E = 1.4 * spectrum.hbar_omega_c
        sigma = complex(0.003, -0.015)
        brute = self.brute_hall_surface(E, sigma, spectrum, params50)
        v = hall_static_numeric(E, params50, spectrum, sigma=sigma)
        assert v.channels["RA"] == pytest.approx(brute, rel=1e-11)
        assert v.channels["RR"] == 0.0

    def test_hall_fermi_sea_quadrature_matches_closed_form(self):
        # gapless regime (strong broadening): the solved real-axis branch is
        # unambiguous and the direct quadrature tracks the closed form
        spectrum = small_spectrum(n_cutoff=24)
        params = ModelParams(disorder_A=6.0)
        for E in (0.1385, 0.30):
            v = hall_static_numeric(E, params, spectrum)
            quad_ii = hall_fermi_sea_quadrature(E, params, spectrum,
                                                bottom_pad=8.0,
                                                coarse_nodes=4000)
            assert quad_ii == pytest.approx(v.channels["II"], rel=0.02)

    def test_hall_fermi_sea_antiderivative_exact(self):
        # the closed form equals the path integral for an analytic
        # self-energy path (independent of any solver)
        from diracvisc.kubo_static import _pair_energies
        spectrum = small_spectrum(n_cutoff=20)
        E = 0.1385

        def sig_model(om):
            om = np.asarray(om, dtype=float)
            return 0.03 * np.tanh(om / 0.3) - 1j * 0.012 * (1.2 + np.tanh(om / 0.5))

        z_e = E - complex(sig_model(E))
        closed_s = 0j
        closed_l = 0.0
        pairs = _pair_energies(spectrum)
        for Ea, Eb, w in pairs:
            Ga = 1.0 / (z_e - Ea)
            Gb = 1.0 / (z_e - Eb)
            d = Eb - Ea
            closed_s += np.sum(w * (Ga + Gb) / d)
            closed_l += np.sum(w * (2.0 / d ** 2)
                               * (np.log(z_e - Ea) - np.log(z_e - Eb)).imag)
        closed = closed_s.imag - closed_l

        bottom = -spectrum.hbar_omega_c * math.sqrt(20) - 4.0
        om = np.linspace(bottom, E, 400001)
        z = om - sig_model(om)
        acc = np.zeros(om.size, dtype=complex)
        for i0 in range(0, om.size, 100000):
            sl = slice(i0, min(i0 + 100000, om.size))
            for Ea, Eb, w in pairs:
                Ga = 1.0 / (z[sl, None] - Ea[None, :])
                Gb = 1.0 / (z[sl, None] - Eb[None, :])
                acc[sl] += np.sum(w[None, :] * (Eb - Ea)[None, :]
                                  * Ga ** 2 * Gb ** 2, axis=1)
        path = np.sum(0.5 * (acc[1:] + acc[:-1]) * np.diff(z))
        assert (1j * path).real == pytest.approx(closed, rel=1e-4)


# ---------------------------------------------------------------------------
# digamma resummation of the shear sums, and the truncated-tail check
# ---------------------------------------------------------------------------

def direct_pair_sums(z, spectrum):
    """Reference: sum_n (n+1) g_n(z) g_{n+2}(z*) and (n+1) g_n(z) g_{n+2}(z)."""
    n = np.arange(spectrum.n_cutoff + 1)
    g = z / (z * z - n * spectrum.hbar_omega_c ** 2)
    w = n[:-2] + 1.0
    return (np.sum(w * g[:-2] * np.conjugate(g[2:])),
            np.sum(w * g[:-2] * g[2:]))


class TestShearPairSums:
    @pytest.mark.parametrize("B,A,E,gap", ladder_cases())
    def test_closed_form_matches_direct_sum(self, B, A, E, gap):
        z, spectrum = solved_z(B, A, E)
        ra, rr = shear_pair_sums(z, spectrum)
        ref_ra, ref_rr = direct_pair_sums(z, spectrum)
        assert ra == pytest.approx(ref_ra, rel=1e-11)
        assert rr == pytest.approx(ref_rr, rel=1e-11)
        # RA - RR cancels to ~0 at gap roots; below the channels' own
        # rounding it is compared against their size
        assert ra.real - rr.real == pytest.approx(
            ref_ra.real - ref_rr.real, rel=1e-11, abs=1e-11 * abs(ref_ra))

    def test_short_ladder_falls_back_to_direct_sum(self):
        # |z^2 / W| = 900 N_c: the partial-fraction digammas would keep
        # only ~5 digits of RR here
        spectrum = small_spectrum(n_cutoff=4)
        z = complex(60.0 * spectrum.hbar_omega_c, 0.01)
        assert abs(z * z) / spectrum.hbar_omega_c ** 2 > 800 * spectrum.n_cutoff
        got = shear_pair_sums(z, spectrum)
        assert got == shear_pair_sums_direct(z, spectrum)
        for c, ref in zip(got, direct_pair_sums(z, spectrum)):
            assert c == pytest.approx(ref, rel=1e-11)


class TestTruncatedTail:
    # 10 T ladders cut at 1000 of ~3.9e3 levels
    @pytest.mark.parametrize("A,E", [(20.0, 0.1), (20.0, 0.0),
                                     (500.0, 0.05)])  # the last: a gap root
    def test_raises_compute_error(self, A, E):
        params = ModelParams(disorder_A=A)
        spectrum = build_spectrum(params, 10.0, hard_limit=1000)
        assert spectrum.truncated
        with pytest.raises(TruncatedLadderError, match="hard_limit") as exc:
            shear_bfield_numeric(E, params, spectrum)
        assert isinstance(exc.value, ArithmeticError)

    def test_resonant_level_passes(self, params500):
        # at a separated level the resonant pairs dominate the sum; the
        # SCBA on the cut ladder moves the value by ~2%
        full = build_spectrum(params500, 10.0)
        cut = build_spectrum(params500, 10.0, hard_limit=1000)
        assert cut.truncated
        E = cut.hbar_omega_c
        v = shear_bfield_numeric(E, params500, cut).value
        assert v == pytest.approx(
            shear_bfield_numeric(E, params500, full).value, rel=0.05)


class TestZeroTemperatureOnly:
    @pytest.mark.parametrize("evaluate", [
        lambda p: shear_b0_numeric(0.5, p, method="exact"),
        lambda p: shear_b0_numeric(0.5, p),
        lambda p: shear_bfield_numeric(0.1, p, build_spectrum(p, 10.0)),
        lambda p: hall_static_numeric(0.06, p, build_spectrum(p, 10.0)),
    ], ids=["shear_b0_exact", "shear_b0_quad", "shear_bfield", "hall"])
    def test_finite_temperature_rejected(self, evaluate):
        with pytest.raises(ValueError, match="zero-temperature"):
            evaluate(ModelParams(disorder_A=20.0, temperature=0.01))


# ---------------------------------------------------------------------------
# quantization anchors, A = 500, B = 10 T
# ---------------------------------------------------------------------------

class TestQuantization:
    def test_hall_plateaus(self, params500, spectrum10_500):
        hwc = spectrum10_500.hbar_omega_c
        unit = 1.0 / (4.0 * math.pi * spectrum10_500.l_B ** 2)
        assert unit == pytest.approx(1.209e-3, rel=1e-3)
        for N in range(4):
            e_gap = 0.5 * (hwc * math.sqrt(N) + hwc * math.sqrt(N + 1))
            v = hall_static_numeric(e_gap, params500, spectrum10_500)
            assert v.value == pytest.approx((2 * N * N + 2 * N + 1) * unit,
                                            rel=0.02)
            # Fermi-sea dominance in the gap
            assert abs(v.channels["II"] / v.value) >= 0.8

    def test_hall_gap_value_and_mirror(self, params500, spectrum10_500):
        hwc = spectrum10_500.hbar_omega_c
        e0 = 0.5 * hwc
        vp = hall_static_numeric(e0, params500, spectrum10_500).value
        vm = hall_static_numeric(-e0, params500, spectrum10_500).value
        assert vp == pytest.approx(1.209e-3, rel=0.02)
        assert vm == pytest.approx(-vp, rel=1e-6)

    def test_shear_centers_match_exact_sum(self, params500, spectrum10_500):
        # the exact evaluation of the Landau sums gives (N^2+1) at centers
        # (clean limit); finite-A tails and the level shift degrade the
        # value by a few percent per N. Frozen honest values regression.
        hwc = spectrum10_500.hbar_omega_c
        unit = 1.0 / (2.0 * math.pi ** 2 * spectrum10_500.l_B ** 2)
        frozen = {0: 1.0160, 1: 1.9381, 2: 4.6663, 3: 8.9816}
        for N, expect in frozen.items():
            v = shear_bfield_numeric(hwc * math.sqrt(N), params500,
                                     spectrum10_500)
            assert v.value / unit == pytest.approx(expect, rel=1e-3)
            clean = N * N + 1
            assert v.value / unit == pytest.approx(clean, rel=0.02 + 0.03 * N)

    def test_shear_n0_matches_stated_quantum(self, params500, spectrum10_500):
        # the stated (N^2 + delta_N0) height is exact at N = 0
        unit = 1.0 / (2.0 * math.pi ** 2 * spectrum10_500.l_B ** 2)
        v = shear_bfield_numeric(0.0, params500, spectrum10_500)
        assert v.value == pytest.approx(unit, rel=0.05)
        assert unit == pytest.approx(7.70e-4, rel=2e-3)


# ---------------------------------------------------------------------------
# regimes and closed forms, B != 0
# ---------------------------------------------------------------------------

class TestRegimesAndClosedForms:
    def test_detect_regime(self, params500, params50, spectrum10_500,
                           spectrum10_50):
        s = solve_self_energy_landau(0.0574, params500, spectrum10_500).sigma
        tag, wct, low = detect_regime(0.0574, params500, spectrum10_500, s)
        assert tag == SEPARATED and not low
        params100 = ModelParams(disorder_A=100.0)
        sp = build_spectrum(params100, 10.0)
        s = solve_self_energy_landau(1.0, params100, sp).sigma
        tag, wct, low = detect_regime(1.0, params100, sp, s)
        assert tag == OVERLAPPED and wct < 0.5 and not low

    def test_overlapped_equivalence(self):
        # numeric Landau sums vs the overlapped closed form, within 15%
        # in the w_eff tau < 0.5 regime
        params = ModelParams(disorder_A=100.0)
        spectrum = build_spectrum(params, 10.0)
        for E in (0.6, 0.8, 1.0, 1.5):
            s = solve_self_energy_landau(E, params, spectrum)
            tag, wct, _ = detect_regime(E, params, spectrum, s.sigma)
            assert tag == OVERLAPPED
            num = shear_bfield_numeric(E, params, spectrum, sigma=s).value
            an = shear_bfield_analytic(E, params, spectrum, sigma=s,
                                       regime=OVERLAPPED).value
            assert abs(num / an - 1.0) < 0.15

    def test_overlapped_reduces_to_b0_form(self):
        # w_eff -> 0 turns the overlapped form into the zero-field one
        params = ModelParams(disorder_A=20.0)
        spectrum = build_spectrum(params, 1e-3, hard_limit=10)
        from diracvisc.kubo_static import shear_bfield_overlapped
        from diracvisc import self_energy_b0_asymptotic
        sigma = self_energy_b0_asymptotic(1.5, params)
        v = shear_bfield_overlapped(1.5, params, spectrum, sigma)
        assert v == pytest.approx(shear_b0_analytic(1.5, params), rel=1e-3)

    def test_separated_analytic_centers(self, params500, spectrum10_500):
        unit = 1.0 / (2.0 * math.pi ** 2 * spectrum10_500.l_B ** 2)
        hwc = spectrum10_500.hbar_omega_c
        v0 = shear_bfield_analytic(0.0, params500, spectrum10_500,
                                   regime=SEPARATED)
        assert v0.value == pytest.approx(unit, rel=1e-9)
        v2 = shear_bfield_analytic(hwc * math.sqrt(2.0), params500,
                                   spectrum10_500, regime=SEPARATED)
        assert v2.value == pytest.approx(4.0 * unit, rel=1e-9)
        assert 4.0 * unit == pytest.approx(3.08e-3, rel=2e-3)

    def test_ambiguous_regime_flagged(self):
        params = ModelParams(disorder_A=100.0)
        spectrum = build_spectrum(params, 10.0)
        # scan for a point with 0.5 < wct < 2
        for E in np.linspace(0.25, 0.55, 13):
            s = solve_self_energy_landau(E, params, spectrum).sigma
            _, wct, low = detect_regime(E, params, spectrum, s)
            if 0.5 < wct < 2.0:
                v = shear_bfield_analytic(E, params, spectrum, sigma=s)
                assert v.low_confidence
                return
        pytest.fail("no ambiguous-regime point found in the scan")

    def test_dirac_limit_grows_with_field(self):
        params = ModelParams(disorder_A=15.0)
        vals = [shear_bfield_dirac_limit(params, build_spectrum(params, B))
                for B in (1.0, 5.0, 10.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_hall_analytic_separated_gap(self, params500, spectrum10_500):
        hwc = spectrum10_500.hbar_omega_c
        unit = 1.0 / (4.0 * math.pi * spectrum10_500.l_B ** 2)
        v = hall_static_analytic(0.5 * hwc, params500, spectrum10_500,
                                 regime=SEPARATED)
        assert v.value == pytest.approx(1.209e-3, rel=0.02)
        vm = hall_static_analytic(-0.5 * hwc, params500, spectrum10_500,
                                  regime=SEPARATED)
        assert vm.value == pytest.approx(-v.value, rel=0.05)
        v1 = hall_static_analytic(0.5 * (hwc + hwc * math.sqrt(2)), params500,
                                  spectrum10_500, regime=SEPARATED)
        assert v1.value == pytest.approx(5.0 * unit, rel=0.02)

    def test_hall_analytic_overlapped_scaling(self):
        # rho w t^2 E^2 / 4(1+4 w^2 t^2) -> 0 linearly as w_eff tau -> 0
        params = ModelParams(disorder_A=100.0)
        spectrum = build_spectrum(params, 10.0)
        v15 = hall_static_analytic(1.5, params, spectrum, regime=OVERLAPPED)
        assert v15.value > 0
        s = solve_self_energy_landau(1.5, params, spectrum).sigma
        from diracvisc import dos, relaxation_time, effective_cyclotron
        rho = dos(1.5, s, params, 10.0)
        tau = relaxation_time(s)
        wc = effective_cyclotron(1.5, spectrum)
        expected = rho * wc * tau ** 2 * 1.5 ** 2 / (4.0 * (1.0 + 4.0 * (wc * tau) ** 2))
        assert v15.value == pytest.approx(expected, rel=1e-9)

    def test_hall_overlapped_vs_numeric(self):
        # in the deep overlapped regime the numeric Hall response follows
        # the closed form within a broad band (both small)
        params = ModelParams(disorder_A=100.0)
        spectrum = build_spectrum(params, 10.0)
        for E in (1.0, 1.5):
            num = hall_static_numeric(E, params, spectrum).value
            an = hall_static_analytic(E, params, spectrum,
                                      regime=OVERLAPPED).value
            assert num == pytest.approx(an, rel=0.5)


class TestSymmetry:
    def test_shear_even_hall_odd(self, params50, spectrum10_50):
        for E in (0.12, 0.2):
            es_p = shear_bfield_numeric(E, params50, spectrum10_50).value
            es_m = shear_bfield_numeric(-E, params50, spectrum10_50).value
            assert abs(es_p / es_m - 1.0) < 0.005
            eh_p = hall_static_numeric(E, params50, spectrum10_50).value
            eh_m = hall_static_numeric(-E, params50, spectrum10_50).value
            assert abs(eh_p / -eh_m - 1.0) < 0.005

    def test_shear_positive_in_field(self, params50, spectrum10_50):
        for E in np.linspace(0.0, 0.3, 7):
            assert shear_bfield_numeric(E, params50,
                                        spectrum10_50).value >= -1e-9
