import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diracvisc
from diracvisc import (LandauSpectrum, ModelParams, OVERLAPPED, SEPARATED,
                       build_spectrum, detect_regime, hall_dynamic,
                       hall_static_analytic,
                       hall_static_numeric, landau_energy, magnetic_length,
                       shear_b0_analytic, shear_b0_numeric,
                       shear_bfield_analytic, shear_bfield_dirac_limit,
                       shear_bfield_numeric, solve_self_energy_b0,
                       solve_self_energy_landau, stress_element_xx_minus_yy, stress_element_xy)
from diracvisc import kubo_static, oracles
from diracvisc.kubo_static import (_hall_sums, _k_kernel, _radial,
                                   _t_integral, _weighted_log_sum,
                                   shear_pair_sums)
from diracvisc.oracles import (hall_fermi_sea_quadrature, hall_sums_direct,
                               k_kernel_quad)
from diracvisc.scba import landau_green_sum
from test_scba import ladder_cases, solved_z


def small_spectrum(b_field=10.0, n_cutoff=40, hbar_vf=0.6582):
    lb = magnetic_length(b_field)
    return LandauSpectrum(b_field=b_field, l_B=lb,
                          hbar_omega_c=math.sqrt(2.0) * hbar_vf / lb,
                          n_cutoff=n_cutoff)


def shear_b0_quad_channels(E, params):
    """The RA and RR channels of shear_b0_numeric with the radial integral
    taken by adaptive quadrature (k_kernel_quad)."""
    s = solve_self_energy_b0(E, params, drop_real_part=True).sigma
    zR, zA = E - s, E - s.conjugate()
    pref = kubo_static._b0_prefactor(params)
    return (pref * k_kernel_quad(zR, zA, params).real,
            pref * k_kernel_quad(zR, zR, params).real)


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
            ra, rr = shear_b0_quad_channels(E, params)
            ve = shear_b0_numeric(E, params)
            assert ra - rr == pytest.approx(ve.value, rel=1e-7)
            for ch, vq in (("RA", ra), ("RR", rr)):
                assert vq == pytest.approx(ve.channels[ch], rel=1e-6,
                                           abs=1e-20)

    def test_channel_identity_rr_aa(self, params20):
        # Re Tr[T G^A T G^A] = Re Tr[T G^R T G^R]: conjugate kernels
        from diracvisc import solve_self_energy_b0
        s = solve_self_energy_b0(1.2, params20, drop_real_part=True).sigma
        zR, zA = 1.2 - s, 1.2 - s.conjugate()
        k_rr = k_kernel_quad(zR, zR, params20)
        k_aa = k_kernel_quad(zA, zA, params20)
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
                v = shear_b0_numeric(E, params).value
                assert abs(v / shear_b0_analytic(E, params) - 1.0) < 0.07

    def test_closed_form_weak_disorder_large_a(self):
        # at A in {100, 500} the closed form holds over the whole doped range
        for A in (100.0, 500.0):
            params = ModelParams(disorder_A=A)
            for E in np.linspace(0.2, 2.0, 20):
                v = shear_b0_numeric(E, params).value
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


WEAK_DISORDER_A = (400.0, 500.0, 750.0, 1000.0)


def check_dirac_point_value(v, A):
    """Finite, >= 0 and the closed form times 4(A-1)/(3A); past A ~ 745
    both underflow, since the value scales like e^{-A}."""
    assert math.isfinite(v) and v >= 0.0
    oracle = 4.0 * (A - 1.0) / (3.0 * A) * shear_b0_analytic(
        0.0, ModelParams(disorder_A=A))
    assert abs(v - oracle) <= 1e-6 * oracle + 1e-300


class TestWeakDisorderDiracPoint:
    """At E = 0, Sigma ~ -i Ec e^{-A/2}: z^2 underflows past A ~ 750 and
    the quad integrand's (a - t)(b - t) past A ~ 350."""

    @pytest.mark.parametrize("A", WEAK_DISORDER_A)
    def test_exact_route(self, A):
        v = shear_b0_numeric(0.0, ModelParams(disorder_A=A))
        check_dirac_point_value(v.value, A)

    def test_quad_route_in_a_subprocess(self):
        # a failure here once killed the interpreter inside quad
        src = str(Path(diracvisc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("from diracvisc import ModelParams, solve_self_energy_b0\n"
                "from diracvisc.kubo_static import _b0_prefactor\n"
                "from diracvisc.oracles import k_kernel_quad\n"
                f"for A in {WEAK_DISORDER_A!r}:\n"
                "    p = ModelParams(disorder_A=A)\n"
                "    s = solve_self_energy_b0(0.0, p, drop_real_part=True)"
                ".sigma\n"
                "    zR, zA, pref = 0.0 - s, 0.0 - s.conjugate(), "
                "_b0_prefactor(p)\n"
                "    print(repr(float(pref * k_kernel_quad(zR, zA, p).real"
                " - pref * k_kernel_quad(zR, zR, p).real)))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        values = [float(x) for x in out.stdout.split()]
        assert len(values) == len(WEAK_DISORDER_A)
        for A, v in zip(WEAK_DISORDER_A, values):
            check_dirac_point_value(v, A)
            exact = shear_b0_numeric(0.0, ModelParams(disorder_A=A)).value
            assert v == pytest.approx(exact, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("z1,z2", [
        (2e-70j, -2e-70j), (2e-70j, 2e-70j),
        ((3.0 + 2.0j) * 1e-60, (3.0 - 2.0j) * 1e-60),
        (0.3 + 0.01j, 0.3 + 0.01j)])
    def test_scaled_integral_matches_direct(self, params20, z1, z2,
                                            monkeypatch):
        # where z^2 is still a normal float both forms hold
        T = params20.cutoff_Ec ** 2
        direct = _radial(_t_integral, z1, z2, T)
        monkeypatch.setattr(kubo_static, "_TINY_Z", 1.0)
        scaled = _radial(_t_integral, z1, z2, T)
        assert abs(scaled - direct) <= 1e-13 * abs(direct)

    def test_array_with_tiny_and_normal_elements(self, params20):
        z1 = np.array([1e-75j, 0.4 + 1e-3j, 1e-200 + 1e-180j])
        z2 = z1.conjugate()
        k = _k_kernel(z1, z2, params20)
        for i in range(z1.size):
            one = _k_kernel(complex(z1[i]), complex(z2[i]), params20)
            assert abs(k[i] - one) <= 1e-14 * abs(one)

    def test_column_equals_element_wise_calls(self, params500):
        # at E = 0 |z| underflows past _TINY_Z; the other energies of the
        # column once went through the scaled route with it and moved in
        # the last bits (1.2713830314467836 against 1.271383031446784 at
        # E = 0.1)
        energies = np.array([0.0, 0.1, 0.5])
        column = shear_b0_numeric(energies, params500)
        for i, E in enumerate(energies):
            one = shear_b0_numeric(float(E), params500)
            assert column.value[i] == one.value
            assert column.channels["RA"][i] == one.channels["RA"]


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
            quad_ii = hall_fermi_sea_quadrature(E, params, spectrum)
            assert quad_ii == pytest.approx(v.channels["II"], rel=0.02)

    def test_hall_fermi_sea_antiderivative_exact(self):
        # the closed form equals the path integral for an analytic
        # self-energy path (independent of any solver)
        from diracvisc.oracles import pair_energies
        spectrum = small_spectrum(n_cutoff=20)
        E = 0.1385

        def sig_model(om):
            om = np.asarray(om, dtype=float)
            return 0.03 * np.tanh(om / 0.3) - 1j * 0.012 * (1.2 + np.tanh(om / 0.5))

        z_e = E - complex(sig_model(E))
        closed_s = 0j
        closed_l = 0.0
        pairs = pair_energies(spectrum)
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
# digamma resummation of the shear sums
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

    def test_far_past_the_ladder_end_is_refused(self):
        # |z^2 / W| = 900 N_c: the partial-fraction digammas would keep
        # only ~5 digits of RR here; one such element refuses its column
        spectrum = small_spectrum(n_cutoff=4)
        z = complex(60.0 * spectrum.hbar_omega_c, 0.01)
        assert abs(z * z) / spectrum.hbar_omega_c ** 2 > 800 * spectrum.n_cutoff
        for column in (z, np.array([0.3 * spectrum.hbar_omega_c, z])):
            with pytest.raises(ValueError, match=r"sqrt\(2\) E_c"):
                shear_pair_sums(column, spectrum)


# ---------------------------------------------------------------------------
# closed-form static Hall sums
# ---------------------------------------------------------------------------

def collapsed_log_sum(z, spectrum, chunk=500_000):
    """Reference for the Fermi-sea log sum: (2/W) sum_{m=0}^{N_c} c_m
    Im Log(m - a), a = z^2/W, weights c = (1, 4m for m = 1..N_c-2,
    -(N_c-2)^2, -(N_c-1)^2), added by math.fsum in chunks."""
    W = spectrum.hbar_omega_c ** 2
    n = spectrum.n_cutoff
    a = z * z / W

    def terms():
        for lo in range(0, n + 1, chunk):
            m = np.arange(lo, min(lo + chunk, n + 1), dtype=float)
            c = 4.0 * m
            c[m == 0] = 1.0
            c[m == n - 1] = -float((n - 2) ** 2)
            c[m == n] = -float((n - 1) ** 2)
            yield from (c * np.log(m - a).imag).tolist()

    return 2.0 / W * math.fsum(terms())


def direct_weighted_log_sum(a, hi):
    """sum_{m=1}^{hi} m Log(m - a), real and imaginary parts by math.fsum."""
    m = np.arange(1.0, hi + 1)
    terms = m * np.log(m - a)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def hall_by_loop(monkeypatch, *args, **kwargs):
    """hall_static_numeric with its ladder sums taken level by level, one
    energy at a time."""
    def by_level(z, spectrum):
        return np.array([hall_sums_direct(x, spectrum) for x in z]).T

    with monkeypatch.context() as m:
        m.setattr(kubo_static, "_hall_sums", by_level)
        return hall_static_numeric(*args, **kwargs)


class TestHallSums:
    def test_fig3_grid_matches_level_loop(self, monkeypatch):
        # the fig3 preset: 10 T, E in [-0.3, 0.3] (121 points), A = 50,
        # 100, 500; each channel against its column maximum, since inside
        # gaps the I channel's Im*Im products are rounding noise
        energies = np.linspace(-0.3, 0.3, 121)
        got, ref = [], []
        for A in (50.0, 100.0, 500.0):
            params = ModelParams(disorder_A=A)
            spectrum = build_spectrum(params, 10.0)
            sigma = solve_self_energy_landau(energies, params, spectrum).sigma
            for E, s in zip(energies, sigma):
                got.append(hall_static_numeric(E, params, spectrum, sigma=s))
                ref.append(hall_by_loop(monkeypatch, E, params, spectrum,
                                        sigma=s))

        def column(values, key):
            return np.array([v.value if key == "value" else v.channels[key]
                             for v in values])

        for key, tol in (("RA", 1e-13), ("II", 1e-9), ("value", 1e-9)):
            dev = np.abs(column(got, key) - column(ref, key)).max()
            assert dev <= tol * np.abs(column(ref, key)).max(), key
        assert all(g.regime_tag == r.regime_tag for g, r in zip(got, ref))

    @pytest.mark.parametrize("B", [10.0, 1.0, 0.1])
    @pytest.mark.parametrize("A", [20.0, 500.0])
    @pytest.mark.parametrize("E", [0.05, -0.12, 0.3])
    def test_fermi_sea_log_sum_matches_fsum(self, B, A, E):
        z, spectrum = solved_z(B, A, E)
        _, _, sum_log = _hall_sums(z, spectrum)
        assert sum_log == pytest.approx(collapsed_log_sum(z, spectrum),
                                        rel=1e-12)

    @pytest.mark.parametrize("hi", [60, 3_937, 393_807])
    def test_euler_maclaurin_tail_matches_fsum(self, hi):
        spectrum = build_spectrum(ModelParams(disorder_A=500.0), 10.0)
        W = spectrum.hbar_omega_c ** 2
        e_gap = 0.5 * (1.0 + math.sqrt(2.0)) * spectrum.hbar_omega_c
        cases = [
            complex(-0.37, 0.0),                      # E = 0: real a < 0
            complex(e_gap, 1e-15) ** 2 / W,           # Im z at the gap floor
            complex(5.0, -4.9),                       # |a| = 7.0
        ]
        for a in cases:
            got = _weighted_log_sum(a, hi)
            ref = direct_weighted_log_sum(a, hi)
            assert got.real == pytest.approx(ref.real, rel=1e-13)
            assert got.imag == pytest.approx(ref.imag, rel=1e-12, abs=0.0)

    def test_far_past_the_ladder_end_is_refused(self, params50):
        # |z^2 / W| = 900 N_c, past the closed sums' reach of 2 N_c
        spectrum = small_spectrum(n_cutoff=4)
        z = complex(60.0 * spectrum.hbar_omega_c, 0.01)
        assert abs(z * z) / spectrum.hbar_omega_c ** 2 > 800 * spectrum.n_cutoff
        with pytest.raises(ValueError, match=r"sqrt\(2\) E_c"):
            _hall_sums(z, spectrum)
        with pytest.raises(ValueError, match=r"sqrt\(2\) E_c"):
            hall_static_numeric(z.real, params50, spectrum,
                                sigma=complex(0.0, -z.imag))

    def test_ladder_without_a_pair_has_empty_sums(self):
        # N_c < 2 holds no (n, n + 2) pair: exact zeros, no warning
        spectrum = small_spectrum(n_cutoff=1)
        for z in spectrum.hbar_omega_c * np.array([0.3 + 0.01j, 1.0j,
                                                   1.2 + 0.05j]):
            assert _hall_sums(z, spectrum) == (0.0, 0.0, 0.0)
            assert shear_pair_sums(z, spectrum) == (0.0, 0.0)
        e, om = np.meshgrid([0.0, 0.1, -0.2], [0.05, -0.3])
        params = ModelParams(disorder_A=20.0)
        assert hall_dynamic(0.1, 0.05, params, spectrum, 0.01) == 0.0
        assert np.array_equal(hall_dynamic(e, om, params, spectrum, 0.01),
                              np.zeros(e.shape))

    def test_no_level_is_materialized(self, params50, spectrum10_50,
                                      monkeypatch):
        # the ladder has 3,939 levels; a 10-level cap stops any level loop
        expected = hall_static_numeric(0.12, params50, spectrum10_50)
        monkeypatch.setattr(oracles, "MAX_MATERIALIZED_LEVELS", 10)
        with pytest.raises(ValueError, match="stop at 10"):
            hall_sums_direct(1j, spectrum10_50)
        assert hall_static_numeric(0.12, params50, spectrum10_50) == expected


# z = sqrt(rho N_c) hbar w_c e^(i theta) past the ladder's end, one phase per
# ratio rho: Newton iterates at low field (arg z ~ 0.2), strong-disorder
# roots (0.8 to 1.5) and a negative energy
PAST_END = [(1.01, 0.2), (1.3, 0.8), (1.7, 1.5), (1.99, math.pi - 0.8)]
# the largest deviation from the 30-digit level sums over PAST_END at
# N_c = 14, 400 and 3,939, rounded up; RR loses digits like (|a| / N_c)^2,
# and the I channel is measured against 8 |S_RA|, as it cancels toward 0
PAST_END_TOL = {"green": 6e-15, "RA": 4e-14, "RR": 2.5e-11, "I": 4e-14,
                "surface": 8e-14, "log": 4e-14}


def mp_ladder_sums(z, spectrum):
    """Reference: the SCBA ladder sum, S_RA, S_RR and the (I, surface, log)
    sums of hall_sums_direct, level by level in 30-digit mpmath; I as
    8 Im S_RA, the chains summed over their band indices."""
    mpmath = pytest.importorskip("mpmath")
    n_c = spectrum.n_cutoff
    with mpmath.workdps(30):
        hwc = mpmath.mpf(spectrum.hbar_omega_c)
        zc = mpmath.mpc(z.real, z.imag)
        g = [zc / (zc * zc - n * hwc * hwc) for n in range(n_c + 1)]
        green = 2 * mpmath.fsum(g) - g[0]
        ra = mpmath.fsum((n + 1) * g[n] * g[n + 2].conjugate()
                         for n in range(n_c - 1))
        rr = mpmath.fsum((n + 1) * g[n] * g[n + 2] for n in range(n_c - 1))
        # E_{m,s}, Im 1/(z - E) and Im Log(z - E) of every level and band
        level = {}
        for m in range(n_c + 1):
            for s in (1, -1):
                e = s * hwc * mpmath.sqrt(m)
                d = zc.real - e
                level[m, s] = (e, -zc.imag / (d * d + zc.imag ** 2),
                               mpmath.atan2(zc.imag, d))
        surface, logs = [], []
        for n in range(n_c - 1):
            for s in (1, -1):
                ea, ga, la = level[n, s]
                for sp in (1, -1):
                    eb, gb, lb = level[n + 2, sp]
                    delta = eb - ea
                    surface.append((n + 1) * (ga + gb) / delta)
                    logs.append((n + 1) * 2 / delta ** 2 * (la - lb))
        return (complex(green), complex(ra), complex(rr),
                float(8 * ra.imag), float(mpmath.fsum(surface)),
                float(mpmath.fsum(logs)))


class TestPastTheLadderEnd:
    @pytest.mark.parametrize("rho,theta", PAST_END)
    @pytest.mark.parametrize("n_cutoff", [14, 400, 3_939])
    def test_closed_sums_meet_mpmath(self, n_cutoff, rho, theta):
        spectrum = small_spectrum(n_cutoff=n_cutoff)
        z = (spectrum.hbar_omega_c * math.sqrt(rho * n_cutoff)
             * complex(math.cos(theta), math.sin(theta)))
        green, ra, rr, sum_i, surface, log = mp_ladder_sums(z, spectrum)
        got = dict(zip(("green", "RA", "RR", "I", "surface", "log"),
                       (landau_green_sum(z, spectrum),
                        *shear_pair_sums(z, spectrum),
                        *_hall_sums(z, spectrum))))
        want = {"green": green, "RA": ra, "RR": rr, "I": sum_i,
                "surface": surface, "log": log}
        scale = dict(want, I=8.0 * abs(ra))
        for key, tol in PAST_END_TOL.items():
            assert abs(got[key] - want[key]) <= tol * abs(scale[key]), key


class TestMixedColumns:
    # near elements (|a| <= N_c) and just-past-end ones (N_c < |a| <= 2 N_c,
    # reflected digammas) in one array: each sum must give exactly what its
    # element-by-element calls give, on a ladder of N_c < 2 too
    @pytest.mark.parametrize("n_cutoff", [4, 1])
    @pytest.mark.parametrize("ladder_sum",
                             [landau_green_sum, shear_pair_sums, _hall_sums])
    def test_column_matches_element_calls(self, n_cutoff, ladder_sum):
        spectrum = small_spectrum(n_cutoff=n_cutoff)
        z = spectrum.hbar_omega_c * math.sqrt(n_cutoff) * np.array(
            [0.15 + 0.005j, 1.25 + 0.005j, -0.6 + 0.025j, 1.35 + 0.1j,
             0.35 + 5e-16j, -1.1 + 5e-4j])
        a = np.abs(z * z) / spectrum.hbar_omega_c ** 2 / n_cutoff
        assert (a <= 1).sum() == 3 and ((1 < a) & (a <= 2)).sum() == 3
        got = np.array(ladder_sum(z, spectrum)).T
        want = np.array([ladder_sum(x, spectrum) for x in z])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hi", [2, 60, 3_937, 3_938_000])
    def test_weighted_log_sum_column_matches_scalar_calls(self, hi):
        # heads of K - 1 = 1 to 13,849 terms, summed in slices of at most
        # _CHUNK_TERMS terms or one head (several slices at the two
        # largest hi)
        a = np.array([-0.37, 5.0 - 4.9j, 0.2 + 1e-15j, 40.0 + 3.0j,
                      700.0 - 1.0j, 6900.0 + 1e-3j, 3.5, 4000.0 - 2.0j])
        got = _weighted_log_sum(a, hi)
        want = np.array([_weighted_log_sum(x, hi) for x in a])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("quantity,B,span", [
        (shear_b0_numeric, 0.0, 2.0), (shear_bfield_numeric, 10.0, 0.3),
        (hall_static_numeric, 10.0, 0.3)])
    def test_long_column_equals_its_chunks(self, quantity, B, span):
        # a 20,000-energy column against the same energies in 20 calls:
        # past 16,384 complex values numpy would evaluate x * (temporary)
        # in place with the operands swapped, and round differently
        params = ModelParams(disorder_A=20.0)
        args = (params,) if B == 0.0 else (params,
                                           build_spectrum(params, B))
        energies = np.linspace(-span, span, 20_000)
        whole = quantity(energies, *args)
        parts = [quantity(e, *args) for e in np.split(energies, 20)]
        assert whole.value.tobytes() == np.concatenate(
            [p.value for p in parts]).tobytes()
        for key, channel in whole.channels.items():
            assert channel.tobytes() == np.concatenate(
                [p.channels[key] for p in parts]).tobytes(), key
        assert whole.regime_tag == sum((p.regime_tag for p in parts), ())

    def test_low_field_column_memory_is_bounded(self):
        # at 0.01 T the heads of a 121-energy column over +-0.3 eV hold
        # 7.5e5 terms (K ~ 2 E^2 / (hbar w_c)^2); one flat array of them
        # took 30 MB
        params = ModelParams(disorder_A=50.0)
        spectrum = build_spectrum(params, 0.01)
        energies = np.linspace(-0.3, 0.3, 121)
        tracemalloc.start()
        try:
            column = hall_static_numeric(energies, params, spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        assert np.all(np.isfinite(column.value))

    def test_budget_slices(self):
        # every slice sums to at most the budget of 12, or holds a single
        # element: 8+3 | 5+6+1 | 9+2 | 13
        slices = kubo_static._budget_slices(
            np.array([8, 3, 5, 6, 1, 9, 2, 13]), 12)
        assert [(s.start, s.stop) for s in slices] == [(0, 2), (2, 5),
                                                        (5, 7), (7, 8)]


class TestParity:
    # E -> -E at 10 T: Im Sigma even, Re Sigma odd, eta_s even, eta_H odd;
    # the viscosities in units of hbar / (4 pi l_B^2). The solves stop at
    # 1e-12: at the default 1e-10 the stop rule alone leaves parity errors
    # of ~3e-11 in Sigma and ~1e-9 units in eta_s (A = 18.6, E = 0.191).
    @settings(max_examples=25, deadline=None)
    @given(A=st.floats(math.log(15.0), math.log(1000.0)).map(math.exp),
           E=st.floats(0.0, 0.3))
    @example(A=math.exp(5.0), E=2.225073858507203e-309)  # w_eff tau overflows
    def test_e_to_minus_e(self, A, E):
        params = ModelParams(disorder_A=A)
        spectrum = build_spectrum(params, 10.0)
        plus, minus = (solve_self_energy_landau(e, params, spectrum,
                                                tol=1e-12).sigma
                       for e in (E, -E))
        assert abs(minus + plus.conjugate()) <= 1e-10 * abs(plus)
        unit = 1.0 / (4.0 * math.pi * spectrum.l_B ** 2)
        shear = [shear_bfield_numeric(e, params, spectrum, sigma=s).value
                 for e, s in ((E, plus), (-E, minus))]
        hall = [hall_static_numeric(e, params, spectrum, sigma=s).value
                for e, s in ((E, plus), (-E, minus))]
        assert abs(shear[0] - shear[1]) <= 1e-10 * unit
        assert abs(hall[0] + hall[1]) <= 1e-7 * unit


class TestZeroTemperatureOnly:
    @pytest.mark.parametrize("evaluate", [
        lambda p: shear_b0_numeric(0.5, p),
        lambda p: shear_bfield_numeric(0.1, p, build_spectrum(p, 10.0)),
        lambda p: hall_static_numeric(0.06, p, build_spectrum(p, 10.0)),
    ], ids=["shear_b0_exact", "shear_bfield", "hall"])
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

    # fig2a's and fig3's 10 T rows, solved over their A columns
    @pytest.mark.parametrize("a_values", [(20.0, 50.0, 100.0, 500.0),
                                          (50.0, 100.0, 500.0)],
                             ids=["fig2a", "fig3"])
    def test_column_regimes_equal_detect_regime(self, a_values,
                                                spectrum10_500):
        energies = np.linspace(-0.3, 0.3, 121)
        e = np.tile(energies, len(a_values))
        sigma = solve_self_energy_landau(
            e, ModelParams(disorder_A=a_values[0]), spectrum10_500,
            A=np.repeat(a_values, energies.size)).sigma
        # and the Hall's gap floor, E = 0 and Im Sigma = 0, where w_eff tau
        # is inf, a finite w_eff tau that overflows, and nan
        floored = sigma.real + 1j * np.minimum(sigma.imag, -1e-15)
        extra_e = np.array([0.0, 0.0, 0.1, 1e-300, 0.1, 0.1])
        extra_s = np.array([-2e-3j, 1e-3 - 1e-300j, 2e-3 + 0j,
                            1e-3 - 1e-300j, complex(math.nan, math.nan),
                            1e-3 - 3e-3j])
        e = np.concatenate((e, e, extra_e))
        s = np.concatenate((sigma, floored, extra_s))
        want = [detect_regime(float(E), None, spectrum10_500, complex(si))
                for E, si in zip(e, s)]
        tags, low = kubo_static._regimes(e, spectrum10_500, s)
        assert tags == [tag for tag, _, _ in want]
        assert low == [flag for _, _, flag in want]
        wct = [w for _, w, _ in want]
        assert math.isinf(wct[-6]) and math.isinf(wct[-3])
        assert set(tags) == {SEPARATED, OVERLAPPED} and any(low)

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
        spectrum = small_spectrum(b_field=1e-3, n_cutoff=10)
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
        rho = dos(1.5, s, params, spectrum)
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
