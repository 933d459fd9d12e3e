import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit
from hypothesis import given, settings
from hypothesis import strategies as st

from diracvisc import (ELECTRON_ELECTRON, ELECTRON_HOLE, HOLE_HOLE,
                       ModelParams, hall_dynamic,
                       hall_static_numeric,
                       shear_bfield_numeric, shear_dynamic_b0,
                       shear_dynamic_b0_ee_limit, shear_dynamic_b0_eh_limit,
                       shear_dynamic_bfield, static_limit_check,
                       build_spectrum, transition_table)
from diracvisc import kubo_dynamic, oracles
from diracvisc.kubo_dynamic import _fermi
from diracvisc.kubo_static import _k_kernel
from diracvisc.oracles import counterpart_pair_sum, levels, pair_energies
from diracvisc.scba import (level_width, solve_self_energy_b0,
                            solve_self_energy_landau)


def hall_dynamic_full_ladder(E, Omega, params, spectrum, broadening,
                             reduced=False):
    """hall_dynamic summed over every (s, s') chain of the whole ladder in
    both directions, rounded once (math.fsum); the term list is returned
    too."""
    om = abs(Omega)
    g2 = broadening * broadening

    def f(x):
        return _fermi(x, E, params.temperature)

    terms = []
    for Ea, Eb, w in pair_energies(spectrum):
        for ea, eb, sgn in ((Ea, Eb, 1.0), (Eb, Ea, -1.0)):
            x = om - eb + ea
            kink = x / (x * x + g2)
            if reduced:
                terms.append(sgn * (w / om) * (f(eb) - f(ea)) * kink)
            else:
                x2 = om + eb - ea
                kink2 = x2 / (x2 * x2 + g2)
                terms.append(sgn * (w / om) * (
                    2.0 * (f(ea + om) - f(ea)) * kink
                    + (f(eb + om) - f(ea - om)) * kink2))
    terms = np.concatenate(terms)
    pref = (params.degeneracy / 4.0) * spectrum.hbar_omega_c ** 2 / (
        8.0 * math.pi * spectrum.l_B ** 2)
    return pref * math.fsum(terms), pref * terms


def shear_dynamic_bfield_four_chains(E, Omega, params, spectrum,
                                     broadening=None):
    """shear_dynamic_bfield as a loop over the four (s, s') level chains of
    the pairs (n, n + 2), n <= n_top, with the breakpoints collected chain by
    chain: the form the band-summed sum replaced."""
    om = abs(Omega)
    T = params.temperature
    pad = 8.0 * T if T > 0 else 0.0
    lo, hi = E - om - pad, E + pad
    gam = broadening if broadening is not None else (
        spectrum.hbar_omega_c / math.sqrt(2.0 * params.disorder_A))
    level_window = (max(abs(lo), abs(hi)) + om
                    + max(100.0 * gam, 8.0 * spectrum.hbar_omega_c))
    n_top = min(int((level_window / spectrum.hbar_omega_c) ** 2),
                spectrum.n_cutoff - 2)
    pairs = [(Ea[:n_top + 1], Eb[:n_top + 1], w[:n_top + 1])
             for Ea, Eb, w in pair_energies(spectrum)]

    bks = []
    for Ea, Eb, _ in pairs:
        for lev in (Ea, Eb):
            sel = lev[(lev > lo - om - 8 * gam) & (lev < hi + om + 8 * gam)]
            for e in sel:
                bks.extend((e, e - om, e - 4 * gam, e + 4 * gam,
                            e - om - 4 * gam, e - om + 4 * gam))
    bks = sorted(b for b in set(bks) if lo < b < hi)
    merged = []
    for b in bks:
        if not merged or b - merged[-1] > 0.25 * gam:
            merged.append(b)
    nodes, wq = kubo_dynamic._panel_nodes([kubo_dynamic._cuts(lo, hi, merged)],
                                          kubo_dynamic._BFIELD_RULE)

    if broadening is None:
        z_lo = nodes - solve_self_energy_landau(nodes, params, spectrum).sigma
        z_up = nodes + om - solve_self_energy_landau(nodes + om, params,
                                                     spectrum).sigma
    else:
        z_lo = nodes + 1j * broadening
        z_up = nodes + om + 1j * broadening
    if T > 0:
        occ = _fermi(nodes, E, T) - _fermi(nodes + om, E, T)
    else:
        occ = np.ones_like(nodes)

    tot = np.zeros_like(nodes)
    for Ea, Eb, w in pairs:
        ia_lo = (1.0 / (z_lo[:, None] - Ea[None, :])).imag
        ia_up = (1.0 / (z_up[:, None] - Ea[None, :])).imag
        ib_lo = (1.0 / (z_lo[:, None] - Eb[None, :])).imag
        ib_up = (1.0 / (z_up[:, None] - Eb[None, :])).imag
        tot += (ia_up * ib_lo + ia_lo * ib_up) @ w
    pref = (params.degeneracy / 4.0) * spectrum.hbar_omega_c ** 2 / (
        8.0 * math.pi ** 2 * spectrum.l_B ** 2 * om)
    return pref * float(np.sum(wq * occ * tot))


def shear_dynamic_b0_refined(E, Omega, params, panels=400):
    """shear_dynamic_b0's window integral on `panels` equal panels of
    [E - Omega - 8 k_B T, E + 8 k_B T], also cut at 0, -Omega, -Omega/2,
    E - Omega and E, with 24 Gauss nodes on each."""
    om, T = abs(Omega), params.temperature
    lo, hi = E - om - 8.0 * T, E + 8.0 * T
    cuts = np.unique(np.concatenate((
        np.linspace(lo, hi, panels + 1),
        [x for x in (0.0, -om, -0.5 * om, E - om, E) if lo < x < hi])))
    x, w = np.polynomial.legendre.leggauss(24)
    mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel() * (
        expit((E - nodes) / T) - expit((E - om - nodes) / T))
    gam_lo = -solve_self_energy_b0(nodes, params,
                                   drop_real_part=True).sigma.imag
    gam_up = -solve_self_energy_b0(nodes + om, params,
                                   drop_real_part=True).sigma.imag
    z_up = nodes + om + 1j * gam_up
    kern = (_k_kernel(z_up, nodes - 1j * gam_lo, params).real
            - _k_kernel(z_up, nodes + 1j * gam_lo, params).real)
    pref = (params.degeneracy / 4.0) / (2.0 * math.pi ** 2
                                        * params.hbar_vf ** 2 * om)
    return pref * float(np.sum(weights * kern))


def transition_table_full_ladder(e_fermi, spectrum, omega_max):
    """transition_table's loop over every pair (n, n + 2) of the ladder."""
    hwc = spectrum.hbar_omega_c
    out = []
    for n in levels(spectrum)[:-2].tolist():
        lo_states = [(n, 1)] if n == 0 else [(n, 1), (n, -1)]
        for a in lo_states:
            ea = a[1] * hwc * math.sqrt(a[0])
            for b in ((n + 2, 1), (n + 2, -1)):
                eb = b[1] * hwc * math.sqrt(b[0])
                for (i, ei), (f, ef) in (((a, ea), (b, eb)),
                                         ((b, eb), (a, ea))):
                    if ei <= e_fermi < ef and 0.0 < ef - ei <= omega_max:
                        out.append((ef - ei, i, f, float(n + 1)))
    return sorted(out)


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

    @pytest.mark.parametrize("e_fermi,omega_max", [
        (math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
        (0.05, math.nan), (0.05, math.inf)])
    def test_rejects_non_finite_input(self, spectrum10_500, e_fermi,
                                      omega_max):
        # a window top cast from nan or inf to int made an empty table
        with pytest.raises(ValueError, match="must be finite"):
            transition_table(e_fermi, spectrum10_500, omega_max)

    @pytest.mark.parametrize("b_field,e_fermis,omega_maxes,levels", [
        (10.0, (-0.4, -0.13, 0.0, 0.05, 0.13, 3.0), (0.02, 0.1, 0.45),
         (1, 3, 8)),
        (1.0, (-0.13, 0.05), (0.02, 0.1), (1, 8))])
    def test_window_matches_full_ladder(self, params500, b_field, e_fermis,
                                        omega_maxes, levels):
        spectrum = build_spectrum(params500, b_field)
        hwc = spectrum.hbar_omega_c
        cases = [(e_f, om) for e_f in e_fermis for om in omega_maxes]
        # Fermi energy on a level, omega_max on a transition frequency
        for k in levels:
            e_k = hwc * math.sqrt(k)
            cases += [(e_k, hwc * math.sqrt(k + 2) - e_k),
                      (-e_k, e_k + hwc * math.sqrt(k + 2))]
        for e_f, om in cases:
            tab = [(t.frequency, t.from_state, t.to_state, t.weight)
                   for t in transition_table(e_f, spectrum, om)]
            assert tab == transition_table_full_ladder(e_f, spectrum, om)


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
        with pytest.raises(ValueError):
            shear_dynamic_b0([1.0, 0.5], [0.2, 0.0], params20)

    B0_GRID = ([-0.3, -0.01, 0.0, 0.05, 1.0],
               [-0.4, -0.05, 0.02, 0.3, 1.2, 0.7])

    # 30 points on both sides of E = 0 and of Omega = 0, solved in chunks of
    # whole points of at most _CHUNK_NODES nodes each; and 200 points in
    # one solve of 46,080 energies, past the 16,384 complex values from
    # which numpy would evaluate x * (temporary) in place with the
    # operands swapped
    @pytest.mark.parametrize("T,grid,chunk,n_solves", [
        pytest.param(0.0, B0_GRID, None, 2, id="0.0"),
        pytest.param(2e-3, B0_GRID, None, 5, id="0.002"),
        pytest.param(0.0, (np.linspace(-1.0, 1.0, 20),
                           np.linspace(-1.0, 1.0, 10)), 1 << 16, 1,
                     id="one_solve")])
    def test_block_matches_point_calls(self, T, grid, chunk, n_solves,
                                       monkeypatch):
        params = ModelParams(disorder_A=20.0, temperature=T)
        E, Omega = np.meshgrid(*grid, indexing="ij")
        if chunk is not None:
            monkeypatch.setattr(kubo_dynamic, "_CHUNK_NODES", chunk)
        sizes = []
        solve = kubo_dynamic.solve_self_energy_b0
        monkeypatch.setattr(kubo_dynamic, "solve_self_energy_b0",
                            lambda e, *args, **kwargs: sizes.append(e.size)
                            or solve(e, *args, **kwargs))
        block = shear_dynamic_b0(E, Omega, params, return_split=True)
        # each node is solved at omega and omega + |Omega|
        assert len(sizes) == n_solves
        assert max(sizes) <= 2 * kubo_dynamic._CHUNK_NODES
        monkeypatch.undo()
        points = np.array([[shear_dynamic_b0(e, om, params, return_split=True)
                            for e, om in zip(row_e, row_om)]
                           for row_e, row_om in zip(E, Omega)])
        for got, want in zip(block, np.moveaxis(points, -1, 0)):
            assert got.shape == E.shape
            assert got.tobytes() == want.tobytes()
        assert np.abs(block[0] / points[..., 0] - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("E,om,A,T,frozen", [
        (0.0, 1.0, 20.0, 0.0, (0.039932914979615125, 0.039932914979615125)),
        (0.3, 0.5, 10.0, 0.0, (0.032749023792314154, 0.008551154636813869)),
        (1.5, 0.2, 20.0, 0.0, (1.1995335612892362, 0.0)),
        (1.0, 0.3, 20.0, 1e-3, (0.35803335293386757, 0.0)),
        (-0.1, 0.5, 20.0, 1e-3, (0.01062719706650664, 0.009975329535435059))])
    def test_window_against_per_node_values(self, E, om, A, T, frozen):
        # (total, interband) from the per-node scalar loop over the same
        # Gauss nodes, with the damped fixed-point solver (tolerance 1e-10;
        # 1e-13 for the T > 0 rows)
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

    @pytest.mark.xfail(strict=True, reason="the 16-node panels end at level "
                       "+- 4 gamma and straddle the square-root band edges "
                       "of the solved Sigma: 9.956e-6 against 6.789e-6 "
                       "(+47%) from a 256-node rule")
    def test_scba_window_meets_a_finer_rule(self, params500, spectrum10_500,
                                            monkeypatch):
        E, Omega = 0.13, 0.1
        got = shear_dynamic_bfield(E, Omega, params500, spectrum10_500)
        monkeypatch.setattr(kubo_dynamic, "_BFIELD_RULE",
                            np.polynomial.legendre.leggauss(256))
        fine = shear_dynamic_bfield(E, Omega, params500, spectrum10_500)
        assert got == pytest.approx(fine, rel=0.05)


class TestShearDynamicBfieldChains:
    """The band-summed node sum against the four-chain loop it replaced."""

    @pytest.mark.parametrize("T", [0.0, 1e-3])
    @pytest.mark.parametrize("B,A,width", [
        (10.0, 500.0, 50.0), (1.0, 500.0, 50.0),   # constant hbar w_c / 50
        (10.0, 20.0, None), (10.0, 30.0, None),    # SCBA
        (1.0, 20.0, None), (1.0, 30.0, None)])
    def test_matches_four_chain_sum(self, B, A, width, T):
        params = ModelParams(disorder_A=A, temperature=T)
        # smaller windows at 1 T, where the four-chain loop is slow
        points = {10.0: ((0.0, 0.05), (0.13, -0.313), (-0.21, 0.1)),
                  1.0: ((0.0, -0.05), (0.13, 0.02), (-0.21, -0.02))}[B]
        for E, Omega in points:
            spectrum = build_spectrum(params, B)
            gamma = width and spectrum.hbar_omega_c / width
            v = shear_dynamic_bfield(E, Omega, params, spectrum, gamma)
            ref = shear_dynamic_bfield_four_chains(E, Omega, params, spectrum,
                                                   gamma)
            assert v == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestShearDynamicBfieldBlock:
    """A field shear block against its one-point calls."""

    @staticmethod
    def node_counts(E, Omega, params, spectrum):
        gam, T = level_width(params, spectrum), params.temperature
        rule = kubo_dynamic._BFIELD_RULE[0].size
        return np.array([(len(kubo_dynamic._bfield_window(
            e - abs(om) - 8.0 * T, e + 8.0 * T, abs(om), spectrum, gam)[0])
            - 1) * rule
            for e, om in zip(np.ravel(E).tolist(), np.ravel(Omega).tolist())])

    GRID_10T = ([0.05, 0.1, -0.13, 0.0], [0.02, -0.1, 0.3])

    # chunk None: the module's chunk size, which takes the 1 T block of
    # 2,048 nodes (192 to 896 per point) in one solve of 32,768 complex
    # values per scba._psi call, past the 16,384 from which numpy would
    # evaluate x * (temporary) in place with the operands swapped
    @pytest.mark.parametrize("B,A,T,grid,chunk,n_parts", [
        (10.0, 20.0, 0.0, GRID_10T, 200, 10),
        (10.0, 500.0, 1e-3, GRID_10T, 300, 8),
        (1.0, 50.0, 1e-3, ([0.05, 0.1], [0.02, -0.1]), None, 1)])
    def test_block_equals_point_calls(self, B, A, T, grid, chunk, n_parts,
                                      monkeypatch):
        params = ModelParams(disorder_A=A, temperature=T)
        spectrum = build_spectrum(params, B)
        E, Omega = np.meshgrid(*grid, indexing="ij")
        if chunk is not None:
            monkeypatch.setattr(kubo_dynamic, "_CHUNK_NODES", chunk)
        nodes = self.node_counts(E, Omega, params, spectrum)
        parts = kubo_dynamic._budget_slices(nodes, kubo_dynamic._CHUNK_NODES)
        assert len(parts) == n_parts
        sizes = []
        solve = kubo_dynamic.solve_self_energy_landau
        monkeypatch.setattr(kubo_dynamic, "solve_self_energy_landau",
                            lambda e, *args, **kwargs: sizes.append(e.size)
                            or solve(e, *args, **kwargs))
        block = shear_dynamic_bfield(E, Omega, params, spectrum)
        # one solve per chunk, of its nodes at omega and omega + |Omega|
        assert sizes == [2 * nodes[part].sum() for part in parts]
        monkeypatch.undo()
        points = np.array([shear_dynamic_bfield(e, om, params, spectrum)
                           for e, om in zip(E.ravel(), Omega.ravel())])
        assert block.shape == E.shape
        assert block.tobytes() == points.reshape(E.shape).tobytes()

    def test_constant_broadening_solves_nothing(self, params500,
                                                spectrum10_500, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("no SCBA solve expected")

        gamma = spectrum10_500.hbar_omega_c / 50.0
        E, Omega = np.array([0.05, 0.13]), np.array([0.1, -0.2])
        points = [shear_dynamic_bfield(e, om, params500, spectrum10_500,
                                       gamma) for e, om in zip(E, Omega)]
        monkeypatch.setattr(kubo_dynamic, "solve_self_energy_landau",
                            no_solve)
        block = shear_dynamic_bfield(E, Omega, params500, spectrum10_500,
                                     gamma)
        assert block.tobytes() == np.array(points).tobytes()

    def test_scalar_call_returns_a_float(self, params500, spectrum10_500):
        v = shear_dynamic_bfield(0.05, 0.1, params500, spectrum10_500)
        assert type(v) is float
        with pytest.raises(ValueError):
            shear_dynamic_bfield([0.05, 0.1], [0.1, 0.0], params500,
                                 spectrum10_500)


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


FIG5_E = np.linspace(0.05, 0.22, 4)
FIG5_OMEGA = np.linspace(0.02, 0.45, 87)


def window_and_ladder(E_grid, Omega_grid, params, spectrum, gamma, reduced):
    E, Omega = np.meshgrid(E_grid, Omega_grid, indexing="ij")
    window = hall_dynamic(E, Omega, params, spectrum, gamma, reduced=reduced)
    ladder = np.array([[hall_dynamic_full_ladder(E, om, params, spectrum,
                                                 gamma, reduced)[0]
                        for om in Omega_grid] for E in E_grid])
    return window, ladder


class TestHallDynamicWindow:
    """The sum over the Fermi window against every term of the ladder,
    rounded once; the dropped pairs cancel exactly at T = 0 and to within
    e^-40 at T > 0."""

    # each grid is one block call, summed in several chunks, at T = 0 and
    # at k_B T = 1 meV
    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    def test_fig5_grid(self, spectrum10_500, reduced):
        for T in (0.0, 1e-3):
            window, ladder = window_and_ladder(
                FIG5_E, FIG5_OMEGA[::2],
                ModelParams(disorder_A=500.0, temperature=T), spectrum10_500,
                spectrum10_500.hbar_omega_c / 50.0, reduced)
            assert (np.abs(window - ladder).max()
                    <= 1e-12 * np.abs(ladder).max()), T

    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    def test_one_tesla_grid(self, params500, reduced):
        spectrum = build_spectrum(params500, 1.0)
        for T in (0.0, 1e-3):
            window, ladder = window_and_ladder(
                (-0.05, 0.0, 0.02, 0.05),
                (-0.08, -0.03, *np.linspace(0.005, 0.08, 7)),
                ModelParams(disorder_A=500.0, temperature=T), spectrum,
                spectrum.hbar_omega_c / 50.0, reduced)
            assert (np.abs(window - ladder).max()
                    <= 1e-12 * np.abs(ladder).max()), T

    @pytest.mark.parametrize("T", [0.0, 1e-3])
    def test_ladder_sum_matches_the_oracle(self, T):
        # the library's full-ladder reference (cli validate) against the
        # pair-by-pair oracle above
        params = ModelParams(disorder_A=500.0, temperature=T)
        spectrum = build_spectrum(params, 10.0)
        gamma = spectrum.hbar_omega_c / 50.0
        for E, om, reduced in [(0.05, 0.02, False), (-0.13, 0.3, True),
                               (0.22, -0.45, False), (0.0, 0.162, True)]:
            ref, terms = hall_dynamic_full_ladder(E, om, params, spectrum,
                                                  gamma, reduced)
            v = oracles.hall_dynamic_ladder_sum(
                E, om, params, spectrum, gamma, reduced=reduced)
            assert abs(v - ref) <= 1e-13 * np.abs(terms).max()

    # a block gives its per-point calls to the bit: each point's terms are
    # reduced on their own, whatever else its chunk holds. At 0.01 T a
    # point holds up to 2.4e4 terms, more than one chunk's budget, and is
    # summed alone
    @pytest.mark.parametrize("reduced", [False, True],
                             ids=["full", "reduced"])
    @pytest.mark.parametrize("B,E_grid,Omega_grid,T", [
        (10.0, FIG5_E, FIG5_OMEGA, 0.0),
        (10.0, FIG5_E, FIG5_OMEGA, 1e-3),
        (0.01, np.linspace(-0.1, 0.1, 5), (-0.1, 0.01, 0.05), 0.0)])
    def test_block_equals_point_calls(self, B, E_grid, Omega_grid, T,
                                      reduced):
        params = ModelParams(disorder_A=500.0, temperature=T)
        spectrum = build_spectrum(params, B)
        gamma = spectrum.hbar_omega_c / 50.0
        E, Omega = np.meshgrid(E_grid, Omega_grid, indexing="ij")
        block = hall_dynamic(E, Omega, params, spectrum, gamma,
                             reduced=reduced)
        points = np.array([hall_dynamic(e, om, params, spectrum, gamma,
                                        reduced=reduced)
                           for e, om in zip(E.ravel(), Omega.ravel())])
        assert block.ravel().tobytes() == points.tobytes()

    def test_low_field_block_memory_is_bounded(self, params500):
        # 0.01 T, 121 E x 10 Omega: 1.8e7 kink terms, about 150 MB as one
        # flat (point x pair) array; the chunks hold at most 4,096 terms or
        # one point's terms (up to 2.4e4)
        spectrum = build_spectrum(params500, 0.01)
        gamma = spectrum.hbar_omega_c / 50.0
        E, Omega = np.meshgrid(np.linspace(-0.1, 0.1, 121),
                               np.linspace(0.01, 0.1, 10), indexing="ij")
        tracemalloc.start()
        try:
            block = hall_dynamic(E, Omega, params500, spectrum, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        picks = [(0, 0), (60, 4), (120, 9), (37, 2)]
        points = [hall_dynamic(E[i], Omega[i], params500, spectrum, gamma)
                  for i in picks]
        assert np.abs([block[i] for i in picks] - np.array(points)).max() \
            <= 1e-12 * np.abs(block).max()

    @pytest.mark.parametrize("E_levels,Omega_levels", [
        (1.0, 1.0),                       # |E| + Omega = 2 hwc exactly
        (-1.0, 1.0),
        (0.4, math.sqrt(3.0) - 0.4)])     # sqrt(3) hwc up to rounding
    def test_level_on_the_window_edge(self, params500, spectrum10_500,
                                      E_levels, Omega_levels):
        # the pair whose lower level sits at |E| + |Omega| still counts:
        # there E - Omega or E + Omega meets a level exactly
        hwc = spectrum10_500.hbar_omega_c
        gamma = hwc / 50.0
        E, om = E_levels * hwc, Omega_levels * hwc
        for reduced in (False, True):
            v = hall_dynamic(E, om, params500, spectrum10_500, gamma,
                             reduced=reduced)
            ref, terms = hall_dynamic_full_ladder(E, om, params500,
                                                  spectrum10_500, gamma,
                                                  reduced)
            assert abs(v - ref) <= 1e-13 * np.abs(terms).max()

    def test_finite_temperature_sums_the_whole_ladder(self):
        # past |E| + |Omega| + 40 k_B T the Fermi factors are 1 or below
        # e^-40, so the dropped pairs cancel to that order. (E, Omega)
        # points per field: at 0.2 T the oracle sums 1.6e6 terms, ~0.4 s
        points = {10.0: [(E, om) for E in (0.0, 0.05, 0.13, -0.2)
                         for om in (0.02, 0.162, -0.45)],
                  1.0: [(0.05, 0.162), (-0.2, -0.45)],
                  0.2: [(0.13, -0.45)]}
        for B, T in itertools.product(points, (5e-4, 1e-3, 2e-3, 1e-2)):
            params = ModelParams(disorder_A=500.0, temperature=T)
            spectrum = build_spectrum(params, B)
            gamma = spectrum.hbar_omega_c / 50.0
            for (E, om), reduced in itertools.product(points[B],
                                                      (False, True)):
                v = hall_dynamic(E, om, params, spectrum, gamma,
                                 reduced=reduced)
                ref, terms = hall_dynamic_full_ladder(E, om, params,
                                                      spectrum, gamma,
                                                      reduced)
                assert abs(v - ref) <= 1e-12 * np.abs(terms).max(), (B, T)

    def test_no_level_is_materialized(self, params500, spectrum10_500,
                                      monkeypatch):
        # the ladder has 3,939 levels; a 10-level cap stops any level loop
        gamma = spectrum10_500.hbar_omega_c / 50.0
        hot = ModelParams(disorder_A=500.0, temperature=1e-3)
        expected = [hall_dynamic(0.13, 0.2, p, spectrum10_500, gamma)
                    for p in (params500, hot)]
        monkeypatch.setattr(oracles, "MAX_MATERIALIZED_LEVELS", 10)
        with pytest.raises(ValueError, match="stop at 10"):
            levels(spectrum10_500)
        assert [hall_dynamic(0.13, 0.2, p, spectrum10_500, gamma)
                for p in (params500, hot)] == expected

    @settings(max_examples=30, deadline=None)
    @given(B=st.floats(1.0, 10.0), E=st.floats(-0.3, 0.3),
           Omega=st.floats(1e-3, 0.5) | st.floats(-0.5, -1e-3),
           T=st.just(0.0) | st.floats(1e-4, 1e-2),
           gamma_div=st.floats(5.0, 200.0), reduced=st.booleans())
    def test_any_point_matches_full_ladder(self, B, E, Omega, T,
                                           gamma_div, reduced):
        params = ModelParams(disorder_A=500.0, temperature=T)
        spectrum = build_spectrum(params, B)
        gamma = spectrum.hbar_omega_c / gamma_div
        v = hall_dynamic(E, Omega, params, spectrum, gamma,
                         reduced=reduced)
        ref, terms = hall_dynamic_full_ladder(E, Omega, params, spectrum,
                                              gamma, reduced)
        # against the largest single term: where the kinks cancel, the
        # value itself is rounding noise, and the oracle's own rounding
        # grows like sqrt(N_c) (1.9e-14 of that term at 1 T)
        assert abs(v - ref) <= 1e-12 * np.abs(terms).max()


class TestFiniteTemperature:
    TEMPERATURES = (2e-3, 1e-3, 5e-4)  # k_B T in eV

    @pytest.mark.parametrize("T", TEMPERATURES)
    def test_fermi_factor_matches_expit(self, T):
        x = 0.13 - np.linspace(-60.0, 60.0, 4801) * T
        want = expit((0.13 - x) / T)
        got = _fermi(x, 0.13, T)
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_fermi_factor_at_its_reach_and_far_out(self):
        # _FERMI_REACH rests on these two values
        T = 1e-3
        reach = kubo_dynamic._FERMI_REACH
        assert _fermi(-reach * T, 0.0, T) == 1.0
        assert 0.0 < _fermi(reach * T, 0.0, T) < 4.3e-18
        # exp(-1e5) underflows to 0 without a RuntimeWarning
        far = _fermi(np.array([-1e5, 1e5]) * T, 0.0, T)
        np.testing.assert_array_equal(far, [1.0, 0.0])

    def test_b0_close_to_zero_temperature(self):
        ref = shear_dynamic_b0(1.0, 0.3, ModelParams(disorder_A=20.0))
        for T in self.TEMPERATURES:
            v = shear_dynamic_b0(1.0, 0.3, ModelParams(disorder_A=20.0,
                                                       temperature=T))
            assert v == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("A,E,Omega", [(20.0, 1.5, 1.2), (35.0, 1.5, 1.2),
                                           (35.0, 0.3, 0.5)])
    def test_b0_window_meets_its_refinement(self, A, E, Omega):
        # T > 0: the window's panels follow the Fermi edges at E - Omega
        # and E, as at T = 0
        params = ModelParams(disorder_A=A, temperature=5e-4)
        ref = shear_dynamic_b0_refined(E, Omega, params)
        assert shear_dynamic_b0(E, Omega, params) == pytest.approx(
            ref, rel=1.5e-4)

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


class TestNonFiniteInput:
    """A non-finite E or Omega is an input error that names the value, for
    a scalar and for a block, before any window or ladder is built."""

    @pytest.mark.parametrize("quantity", ["shear_b0", "shear_bfield",
                                          "hall"])
    @pytest.mark.parametrize("E,Omega,name", [
        (math.nan, 0.1, "E"), (-math.inf, 0.1, "E"),
        (0.05, math.nan, "Omega"), (0.05, math.inf, "Omega"),
        ([0.05, math.nan], [0.1, 0.2], "E"),
        ([[0.05], [0.1]], [0.1, -math.inf], "Omega")])
    def test_refused(self, quantity, E, Omega, name, params500,
                     spectrum10_500):
        gamma = spectrum10_500.hbar_omega_c / 50.0
        call = {"shear_b0": lambda: shear_dynamic_b0(E, Omega, params500),
                "shear_bfield": lambda: shear_dynamic_bfield(
                    E, Omega, params500, spectrum10_500),
                "hall": lambda: hall_dynamic(E, Omega, params500,
                                             spectrum10_500, gamma)}[quantity]
        with pytest.raises(ValueError,
                           match=rf"^{name} must be finite, got -?(nan|inf)$"):
            call()
