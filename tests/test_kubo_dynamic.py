import math

import numpy as np
import pytest

from diracvisc import (ELECTRON_ELECTRON, ELECTRON_HOLE, HOLE_HOLE,
                       ModelParams, hall_dynamic,
                       hall_static_numeric,
                       shear_bfield_numeric, shear_dynamic_b0,
                       shear_dynamic_b0_ee_limit, shear_dynamic_b0_eh_limit,
                       shear_dynamic_bfield, static_limit_check,
                       transition_table)
from diracvisc.kubo_dynamic import counterpart_pair_sum


class TestTransitionTable:
    def test_low_fermi_energy(self, params500, spectrum10_500):
        tab = transition_table(0.05, spectrum10_500, 0.4)
        keyed = {(t.from_state, t.to_state): t for t in tab}
        t1 = keyed[((0, 1), (2, 1))]
        assert t1.frequency == pytest.approx(0.162, abs=5e-4)
        assert t1.weight == 1.0
        assert t1.kind == ELECTRON_HOLE
        t2 = keyed[((1, -1), (3, 1))]
        assert t2.frequency == pytest.approx(0.313, abs=5e-4)
        assert t2.weight == 2.0
        # both directions of the 0.313 pair are allowed at E_F = 0.05
        assert ((3, -1), (1, 1)) in keyed

    def test_higher_fermi_energy_opens_ee(self, params500, spectrum10_500):
        tab = transition_table(0.13, spectrum10_500, 0.4)
        keyed = {(t.from_state, t.to_state): t for t in tab}
        t = keyed[((1, 1), (3, 1))]
        assert t.frequency == pytest.approx(0.084, abs=5e-4)
        assert t.kind == ELECTRON_ELECTRON
        # Pauli blocking removed the reversed partner of the 0.313 pair
        assert ((3, -1), (1, 1)) not in keyed
        assert ((1, -1), (3, 1)) in keyed

    def test_fermi_far_above_empties_table(self, params500, spectrum10_500):
        tab = transition_table(10.0, spectrum10_500, 0.4)
        assert tab == []

    def test_hole_side_kinds(self, params500, spectrum10_500):
        tab = transition_table(-0.4, spectrum10_500, 0.1)
        assert tab, "expected hole-side transitions"
        assert all(t.kind == HOLE_HOLE for t in tab)

    def test_sorted_by_frequency(self, params500, spectrum10_500):
        tab = transition_table(0.13, spectrum10_500, 0.4)
        freqs = [t.frequency for t in tab]
        assert freqs == sorted(freqs)

    def test_rejects_bad_omega_max(self, params500, spectrum10_500):
        with pytest.raises(ValueError):
            transition_table(0.0, spectrum10_500, 0.0)


class TestShearDynamicB0:
    def test_static_limit_doped(self, params20):
        rep = static_limit_check(1.5, params20)
        assert rep.shear_ratio <= 0.02

    def test_static_limit_dirac_point(self):
        # needs Omega << Dirac-point broadening: A = 10 has width 0.0485 eV
        rep = static_limit_check(0.0, ModelParams(disorder_A=10.0))
        assert rep.shear_ratio <= 0.05

    def test_eh_numeric_is_half_the_closed_form(self):
        # the defining window integral gives exactly half of the printed
        # e-h closed form (clean value Omega^2/64 hbar v_f^2); the offset is
        # a double-counted transition ordering in the closed form
        for A in (20.0, 40.0):
            params = ModelParams(disorder_A=A)
            v = shear_dynamic_b0(0.0, 1.0, params)
            assert v == pytest.approx(
                0.5 * shear_dynamic_b0_eh_limit(1.0, params), rel=0.15)

    def test_eh_power_law(self):
        for A in (20.0, 40.0):
            params = ModelParams(disorder_A=A)
            v1 = shear_dynamic_b0(0.0, 0.3, params)
            v2 = shear_dynamic_b0(0.0, 1.0, params)
            p = math.log(v2 / v1) / math.log(1.0 / 0.3)
            assert p == pytest.approx(2.0, abs=0.15)

    def test_eh_limit_values(self, params20):
        v = shear_dynamic_b0_eh_limit(1.0, params20)
        assert v == pytest.approx(0.079829, rel=1e-4)
        assert shear_dynamic_b0_eh_limit(2.0, params20) == pytest.approx(
            4.0 * v, rel=1e-12)
        big_a = shear_dynamic_b0_eh_limit(1.0, ModelParams(disorder_A=1e9))
        assert big_a == pytest.approx(1.0 / (32.0 * 0.6582 ** 2), rel=1e-6)

    def test_ee_limit_value_and_agreement(self, params20):
        v = shear_dynamic_b0_ee_limit(1.5, 0.1, params20)
        pref = 1.5 ** 2 / (2.0 * math.pi ** 2 * 0.6582 ** 2)
        brack = math.pi ** 2 / 20.0 + 20.0 * 2.25 / ((20.0 / math.pi) ** 2 * 0.01 + 9.0)
        assert v == pytest.approx(pref * brack, rel=1e-12)
        assert v == pytest.approx(1.3887, rel=1e-3)
        num = shear_dynamic_b0(1.5, 0.1, params20)
        assert num == pytest.approx(v, rel=0.05)

    def test_ee_limit_monotone_in_omega(self, params20):
        vals = [shear_dynamic_b0_ee_limit(1.5, om, params20)
                for om in (0.05, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_curve_crossing_near_0p4(self):
        # A = 10 and A = 20 curves at E = 1.5 cross when the window bottom
        # enters the disorder-enhanced region
        p10, p20 = ModelParams(disorder_A=10.0), ModelParams(disorder_A=20.0)
        d_at = {om: (shear_dynamic_b0(1.5, om, p20)
                     - shear_dynamic_b0(1.5, om, p10))
                for om in (0.3, 0.5)}
        assert d_at[0.3] > 0 > d_at[0.5]

    def test_frequency_symmetry(self, params20):
        for E, om in ((0.5, 0.4), (0.0, 0.7)):
            assert shear_dynamic_b0(E, -om, params20) == pytest.approx(
                shear_dynamic_b0(E, om, params20), rel=1e-12)

    def test_frequency_trends(self, params20):
        # interband side grows with frequency at the Dirac point ...
        oms = (0.2, 0.4, 0.6, 0.8, 1.0)
        vals = [shear_dynamic_b0(0.0, om, params20) for om in oms]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # ... and the doped low-frequency side falls
        oms = (0.05, 0.1, 0.2, 0.3)
        vals = [shear_dynamic_b0(1.5, om, params20) for om in oms]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_split_channels(self, params20):
        tot, eh, intra = shear_dynamic_b0(0.0, 1.0, params20,
                                          return_split=True)
        assert tot == pytest.approx(eh + intra, rel=1e-12)
        assert eh > 0.9 * tot  # whole window is interband at E = 0
        tot, eh, intra = shear_dynamic_b0(1.5, 0.2, params20,
                                          return_split=True)
        assert eh == 0.0 and intra == pytest.approx(tot, rel=1e-12)

    def test_zero_frequency_rejected(self, params20):
        with pytest.raises(ValueError):
            shear_dynamic_b0(1.0, 0.0, params20)

    @pytest.mark.parametrize("E,om,A,T,frozen", [
        (0.0, 1.0, 20.0, 0.0, (0.039932914979615125, 0.039932914979615125)),
        (0.3, 0.5, 10.0, 0.0, (0.032749023792314154, 0.008551154636813869)),
        (1.5, 0.2, 20.0, 0.0, (1.1995335612892362, 0.0)),
        (1.0, 0.3, 20.0, 1e-3, (0.3580345766399207, 0.0)),
        (-0.1, 0.5, 20.0, 1e-3, (0.010627188752283587, 0.009975322965905377))])
    def test_window_against_per_node_values(self, E, om, A, T, frozen):
        # (total, interband) from the per-node scalar loop over the same
        # Gauss nodes, with the damped fixed-point solver (tolerance 1e-10)
        tot, eh, _ = shear_dynamic_b0(
            E, om, ModelParams(disorder_A=A, temperature=T),
            return_split=True)
        assert tot == pytest.approx(frozen[0], rel=1e-8)
        assert eh == pytest.approx(frozen[1], rel=1e-8)


class TestShearDynamicBfield:
    GAMMA_DIV = 50.0

    def peaks(self, e_fermi, params, spectrum, omegas, gamma):
        vals = np.array([shear_dynamic_bfield(e_fermi, om, params, spectrum,
                                              gamma) for om in omegas])
        out = []
        for i in range(1, len(omegas) - 1):
            if vals[i] > vals[i - 1] and vals[i] > vals[i + 1] \
                    and vals[i] > 0.05 * vals.max():
                out.append((omegas[i], vals[i]))
        return out, vals

    def test_peaks_match_transition_table(self, params500, spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / self.GAMMA_DIV
        omegas = np.linspace(0.03, 0.42, 160)
        for e_fermi in (0.05, 0.13):
            table = transition_table(e_fermi, spectrum10_500, 0.45)
            expected = sorted({round(t.frequency, 3) for t in table
                               if 0.04 < t.frequency < 0.41})
            found, _ = self.peaks(e_fermi, params500, spectrum10_500, omegas,
                                  gamma)
            assert len(found) == len(expected)
            for (om_pk, _), om_exp in zip(found, expected):
                assert abs(om_pk - om_exp) <= max(gamma, 0.01)

    def test_shared_transition_peak_ratio(self, params500, spectrum10_500):
        # the 0.313 eV peak carries two transitions at E_F = 0.05 and one at
        # E_F = 0.13: heights 2:1
        gamma = spectrum10_500.hbar_omega_c / self.GAMMA_DIV
        om_c = (1.0 + math.sqrt(3.0)) * spectrum10_500.hbar_omega_c
        h1 = shear_dynamic_bfield(0.05, om_c, params500, spectrum10_500, gamma)
        h2 = shear_dynamic_bfield(0.13, om_c, params500, spectrum10_500, gamma)
        assert h1 / h2 == pytest.approx(2.0, rel=0.10)

    def test_equal_peak_heights_for_same_transition(self, params500,
                                                    spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / self.GAMMA_DIV
        om_c = math.sqrt(2.0) * spectrum10_500.hbar_omega_c  # 0 -> (2,+)
        h1 = shear_dynamic_bfield(0.05, om_c, params500, spectrum10_500, gamma)
        h2 = shear_dynamic_bfield(0.13, om_c, params500, spectrum10_500, gamma)
        assert h1 == pytest.approx(h2, rel=0.05)

    def test_ee_ladder_inverse_cube(self, params500, spectrum10_500):
        # intraband peak strengths across the ladder follow Omega^-3
        gamma = spectrum10_500.hbar_omega_c / self.GAMMA_DIV
        hwc = spectrum10_500.hbar_omega_c
        oms, heights = [], []
        for n in (4, 8, 16, 32, 64, 128, 256):
            om_n = hwc * (math.sqrt(n + 2) - math.sqrt(n))
            e_f = hwc * math.sqrt(n + 1)
            h = shear_dynamic_bfield(e_f, om_n, params500, spectrum10_500,
                                     gamma)
            oms.append(om_n)
            heights.append(h)
        slope = np.polyfit(np.log(oms), np.log(heights), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.3)

    def test_frequency_symmetry(self, params500, spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / self.GAMMA_DIV
        om = 0.16
        assert shear_dynamic_bfield(0.05, -om, params500, spectrum10_500,
                                    gamma) == pytest.approx(
            shear_dynamic_bfield(0.05, om, params500, spectrum10_500, gamma),
            rel=1e-12)

    def test_scba_static_limit_at_level_center(self, params500,
                                               spectrum10_500):
        e1 = spectrum10_500.hbar_omega_c
        st = shear_bfield_numeric(e1, params500, spectrum10_500).value
        dy = shear_dynamic_bfield(e1, 1e-3, params500, spectrum10_500, None)
        assert dy == pytest.approx(st, rel=0.05)


class TestHallDynamic:
    def test_single_kink_at_low_fermi_energy(self, params500, spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / 50.0

        def jump(om_c):
            lo = hall_dynamic(0.05, om_c - gamma, params500, spectrum10_500,
                              gamma)
            hi = hall_dynamic(0.05, om_c + gamma, params500, spectrum10_500,
                              gamma)
            return lo - hi

        big = jump(0.162)
        assert abs(jump(0.084)) < 0.05 * abs(big)
        assert abs(jump(0.313)) < 0.05 * abs(big)

    def test_three_kinks_at_higher_fermi_energy(self, params500,
                                                spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / 50.0
        jumps = {}
        for om_c in (0.084, 0.162, 0.313):
            lo = hall_dynamic(0.13, om_c - gamma, params500, spectrum10_500,
                              gamma)
            hi = hall_dynamic(0.13, om_c + gamma, params500, spectrum10_500,
                              gamma)
            jumps[om_c] = lo - hi
        assert all(abs(j) > 1e-3 for j in jumps.values())

    def test_counterpart_cancellation(self, params500, spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / 50.0
        om_c = (1.0 + math.sqrt(3.0)) * spectrum10_500.hbar_omega_c
        pair = counterpart_pair_sum(1, 0.05, om_c + gamma, params500,
                                    spectrum10_500, gamma)
        # single-transition kink amplitude scale at its center
        single = counterpart_pair_sum(1, 0.13, om_c + gamma, params500,
                                      spectrum10_500, gamma)
        assert abs(single) > 0
        assert abs(pair) <= 1e-3 * abs(single)

    def test_kink_antisymmetry(self, params500, spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / 50.0
        om_c = math.sqrt(2.0) * spectrum10_500.hbar_omega_c
        amp = abs(hall_dynamic(0.05, om_c - gamma, params500, spectrum10_500,
                               gamma)
                  - hall_dynamic(0.05, om_c + gamma, params500,
                                 spectrum10_500, gamma))
        base = 0.5 * (hall_dynamic(0.05, om_c - 6 * gamma, params500,
                                   spectrum10_500, gamma)
                      + hall_dynamic(0.05, om_c + 6 * gamma, params500,
                                     spectrum10_500, gamma))
        for delta in (0.3 * gamma, 0.6 * gamma, gamma):
            s = (hall_dynamic(0.05, om_c + delta, params500, spectrum10_500,
                              gamma)
                 + hall_dynamic(0.05, om_c - delta, params500, spectrum10_500,
                                gamma))
            assert abs(s - 2.0 * base) <= 0.05 * amp

    def test_plateau_retained_at_small_frequency(self, params500,
                                                 spectrum10_500):
        hwc = spectrum10_500.hbar_omega_c
        gamma = hwc / 50.0
        e_gap = 0.5 * (hwc + hwc * math.sqrt(2.0))
        plateau = hall_static_numeric(e_gap, params500, spectrum10_500).value
        dyn = hall_dynamic(e_gap, 1e-3, params500, spectrum10_500, gamma)
        assert dyn == pytest.approx(plateau, rel=0.05)

    def test_reduced_form_matches_full_near_kink(self, params500,
                                                 spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / 50.0
        for om in (0.15, 0.17):
            full = hall_dynamic(0.05, om, params500, spectrum10_500, gamma)
            red = hall_dynamic(0.05, om, params500, spectrum10_500, gamma,
                               reduced=True)
            assert red == pytest.approx(full, rel=0.10)

    def test_domain_errors(self, params500, spectrum10_500):
        with pytest.raises(ValueError):
            hall_dynamic(0.05, 0.0, params500, spectrum10_500, 0.01)
        with pytest.raises(ValueError):
            hall_dynamic(0.05, 0.1, params500, spectrum10_500, 0.0)


class TestFiniteTemperature:
    TEMPERATURES = (2e-3, 1e-3, 5e-4)  # k_B T in eV

    def test_b0_close_to_zero_temperature(self):
        ref = shear_dynamic_b0(1.0, 0.3, ModelParams(disorder_A=20.0))
        for T in self.TEMPERATURES:
            v = shear_dynamic_b0(1.0, 0.3, ModelParams(disorder_A=20.0,
                                                       temperature=T))
            assert v == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("evaluate", [shear_dynamic_bfield, hall_dynamic],
                             ids=["shear", "hall"])
    def test_bfield_gap_shrinks_as_temperature_drops(self, evaluate,
                                                     spectrum10_500):
        E, Omega, gamma = 0.13, 0.2, 0.0023
        ref = evaluate(E, Omega, ModelParams(disorder_A=500.0),
                       spectrum10_500, gamma)
        gaps = [abs(evaluate(E, Omega, ModelParams(disorder_A=500.0,
                                                   temperature=T),
                             spectrum10_500, gamma) / ref - 1.0)
                for T in self.TEMPERATURES]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] < 0.02


class TestStaticLimitReport:
    def test_b_zero_report(self, params20):
        rep = static_limit_check(1.5, params20)
        assert rep.regime_tag == "b_zero"
        assert rep.hall_ratio is None
        assert rep.shear_static > 0

    def test_bfield_report(self, params500, spectrum10_500):
        e1 = spectrum10_500.hbar_omega_c
        rep = static_limit_check(e1, params500, spectrum10_500)
        assert rep.shear_ratio <= 0.05
        assert rep.hall_static is not None
