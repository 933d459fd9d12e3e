import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from diracvisc import (ConvergenceError, ModelParams,
                       build_spectrum, dos, relaxation_time,
                       self_energy_b0_asymptotic,
                       self_energy_dirac_point_bfield, self_energy_overlapped,
                       self_energy_separated, solve_self_energy_b0,
                       solve_self_energy_landau)
from diracvisc import kubo_dynamic, scba
from diracvisc.scba import landau_green_sum, landau_green_sum_direct

# Sigma frozen from the damped fixed-point solver the batched Newton solve
# replaced: the three landau_window benchmark rows (B = 10 T, E = 0.1), a
# 121-point E grid at A = 50 and the A = 500 gap centres
DAMPED = json.loads((Path(__file__).parent / "data"
                     / "damped_landau_sigma.json").read_text())


def fixed_point_residual_b0(E, sigma, params):
    """Reinsert sigma into the defining closed-log equation."""
    z = E - sigma
    log = 2.0 * math.log(params.cutoff_Ec) + 1j * math.pi - 2.0 * np.log(z)
    return abs(sigma - (-(z / params.disorder_A) * log)) / abs(sigma)


class TestB0Solver:
    def test_dirac_point_against_bisection(self, params20):
        # independent oracle: gamma solves A = 2 ln(Ec/gamma) on the real line
        A, Ec = params20.disorder_A, params20.cutoff_Ec
        gamma = brentq(lambda g: A - 2.0 * math.log(Ec / g), 1e-12, Ec)
        sol = solve_self_energy_b0(0.0, params20)
        assert sol.converged
        assert sol.sigma.real == pytest.approx(0.0, abs=1e-12)
        assert sol.sigma.imag == pytest.approx(-gamma, rel=1e-8)
        assert sol.sigma.imag == pytest.approx(-3.269e-4, rel=1e-3)

    def test_moderate_energy_vs_asymptotic(self, params20):
        # the solved |Im Sigma| exceeds the asymptotic by the log enhancement;
        # measured 5.8% at (1.5, 20)
        sol = solve_self_energy_b0(1.5, params20, drop_real_part=True)
        asym = self_energy_b0_asymptotic(1.5, params20).imag
        assert asym == pytest.approx(-0.23595, rel=1e-4)
        assert sol.sigma.imag == pytest.approx(-0.249704, rel=1e-4)
        assert abs(sol.sigma.imag / asym - 1.0) < 0.08

    def test_symmetry(self, params20):
        for E in (0.3, 1.1, 2.0):
            plus = solve_self_energy_b0(E, params20).sigma
            minus = solve_self_energy_b0(-E, params20).sigma
            assert minus.imag == pytest.approx(plus.imag, rel=1e-9)
            assert minus.real == pytest.approx(-plus.real, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("E,A", [(0.0, 20.0), (0.7, 12.0), (1.5, 20.0),
                                     (2.0, 35.0)])
    def test_residual_reinsertion(self, E, A):
        params = ModelParams(disorder_A=A)
        sol = solve_self_energy_b0(E, params, tol=1e-10)
        assert sol.converged
        assert fixed_point_residual_b0(E, sol.sigma, params) <= 10.0 * 1e-10 * 50
        # the spec bound: residual of the converged iterate itself
        assert sol.residual <= 1e-10

    def test_nonconvergence_raises_with_residual(self, params20):
        with pytest.raises(ConvergenceError) as exc:
            solve_self_energy_b0(1.0, params20, max_iter=2)
        assert exc.value.residual > 0
        assert exc.value.iterations == 2

    def test_retarded_branch(self, params20):
        for E in np.linspace(-2, 2, 9):
            assert solve_self_energy_b0(E, params20).sigma.imag <= 0


def gamma_root_b0(E, params):
    """gamma = -Im Sigma of the Re-dropped equation, by bracketing in
    ln gamma: gamma = Im[(z/A) Log(-Ec^2/z^2)], z = E + i gamma."""
    A, Ec = params.disorder_A, params.cutoff_Ec

    def g(u):
        z = complex(E, math.exp(u))
        log = 2.0 * math.log(Ec) + 1j * math.pi - 2.0 * np.log(z)
        return 1.0 - ((z / A) * log).imag / z.imag

    return math.exp(brentq(g, math.log(1e-300), math.log(10.0 * Ec),
                           xtol=1e-15, rtol=1e-15))


class TestB0ArraySolve:
    ENERGIES = np.linspace(-2.0, 2.0, 41)

    @pytest.mark.parametrize("drop", [False, True])
    def test_array_equals_scalar(self, params20, drop):
        energies = np.concatenate((self.ENERGIES, [0.0, 1e-9, -3.5]))
        sol = solve_self_energy_b0(energies, params20, drop_real_part=drop)
        assert sol.converged and sol.sigma.shape == energies.shape
        for i, E in enumerate(energies):
            one = solve_self_energy_b0(float(E), params20,
                                       drop_real_part=drop)
            assert sol.sigma[i] == pytest.approx(one.sigma, rel=1e-14,
                                                 abs=1e-300)
            assert sol.residual[i] == pytest.approx(one.residual, rel=1e-6,
                                                    abs=1e-16)
            assert one.iterations <= sol.iterations

    def test_scalar_input_gives_scalars(self, params20):
        sol = solve_self_energy_b0(0.7, params20)
        assert np.ndim(sol.sigma) == 0 and np.ndim(sol.residual) == 0
        assert sol.energy == 0.7 and isinstance(sol.iterations, int)

    @pytest.mark.parametrize("A", [3.0, 10.0, 20.0, 35.0, 500.0])
    def test_dropped_real_part_matches_bracketed_root(self, A):
        params = ModelParams(disorder_A=A)
        assert 0.0 in self.ENERGIES
        sol = solve_self_energy_b0(self.ENERGIES, params, drop_real_part=True)
        assert np.all(sol.sigma.real == 0.0)
        for E, s in zip(self.ENERGIES, sol.sigma):
            assert -s.imag == pytest.approx(gamma_root_b0(E, params),
                                            rel=1e-9)

    @pytest.mark.parametrize("A", [3.0, 10.0, 20.0, 35.0, 500.0])
    def test_full_complex_root_reinserts(self, A):
        params = ModelParams(disorder_A=A)
        sol = solve_self_energy_b0(self.ENERGIES, params)
        assert np.all(sol.sigma.imag < 0) and np.all(sol.residual <= 1e-10)
        for E, s in zip(self.ENERGIES, sol.sigma):
            assert fixed_point_residual_b0(E, s, params) <= 1e-9

    @pytest.mark.parametrize("drop", [False, True])
    def test_few_newton_steps(self, drop):
        # quadratic convergence from the weak-disorder seed
        for A in (10.0, 20.0, 35.0, 500.0):
            sol = solve_self_energy_b0(np.linspace(-3.0, 3.0, 61),
                                       ModelParams(disorder_A=A),
                                       drop_real_part=drop)
            assert sol.iterations <= 8

    def test_nonconvergence_raises_for_arrays(self, params20):
        with pytest.raises(ConvergenceError) as exc:
            solve_self_energy_b0(np.array([0.5, 1.0, 1.5]), params20,
                                 max_iter=2)
        assert exc.value.residual > 0
        assert exc.value.iterations == 2

    def test_max_iter_must_be_positive(self, params20):
        with pytest.raises(ValueError, match="max_iter"):
            solve_self_energy_b0(1.0, params20, max_iter=0)


class TestAsymptoticB0:
    def test_values(self, params20):
        v0 = self_energy_b0_asymptotic(0.0, params20)
        assert v0.imag == pytest.approx(-7.2 * math.exp(-10.0), rel=1e-12)
        assert v0.imag == pytest.approx(-3.269e-4, rel=1e-3)
        v = self_energy_b0_asymptotic(1.5, params20)
        assert v.imag == pytest.approx(-0.23595, rel=1e-4)
        assert v.real == 0.0

    def test_even_in_energy(self, params20):
        assert (self_energy_b0_asymptotic(1.3, params20)
                == self_energy_b0_asymptotic(-1.3, params20))


class TestLandauSolver:
    @pytest.mark.parametrize("A,tol", [(500.0, 0.02), (50.0, 0.20)])
    def test_separated_level_center(self, A, tol):
        # The inter-level background shifts the level by Re Sigma; the
        # semicircle value applies at the shifted center E* with
        # E* - E_1 - Re Sigma(E*) = 0. Residual tail corrections ~ O(1/sqrt(A)).
        params = ModelParams(disorder_A=A)
        spectrum = build_spectrum(params, 10.0)
        e1 = spectrum.hbar_omega_c
        E = e1
        for _ in range(40):
            E = e1 + solve_self_energy_landau(E, params, spectrum).sigma.real
        sol = solve_self_energy_landau(E, params, spectrum)
        expected = -spectrum.hbar_omega_c / math.sqrt(2.0 * A)
        if A == 50.0:
            assert expected == pytest.approx(-0.011473, rel=1e-3)
        assert sol.sigma.imag == pytest.approx(expected, rel=tol)

    def test_dirac_point_lambert_w(self):
        # overlap-regime closed form, valid while (hbar w_c / Ec)^2 e^A << 1
        for A in (5.0, 6.0):
            params = ModelParams(disorder_A=A)
            spectrum = build_spectrum(params, 10.0)
            sol = solve_self_energy_landau(0.0, params, spectrum)
            w_form = self_energy_dirac_point_bfield(params, spectrum)
            x = (spectrum.hbar_omega_c / params.cutoff_Ec) ** 2 * math.exp(A)
            assert x < 0.2
            assert sol.sigma.imag == pytest.approx(w_form.imag, rel=0.08)

    def test_lambert_w_two_term_expansion(self):
        # W(x) ~ x for small x reduces the closed form to
        # Ec e^{-A/2} + (hbar w_c)^2 / (2 Ec e^{-A/2})
        params = ModelParams(disorder_A=5.0)
        spectrum = build_spectrum(params, 10.0)
        gamma0 = params.cutoff_Ec * math.exp(-2.5)
        two_term = gamma0 + spectrum.hbar_omega_c ** 2 / (2.0 * gamma0)
        w_form = self_energy_dirac_point_bfield(params, spectrum)
        assert w_form.imag == pytest.approx(-two_term, rel=0.02)

    def test_symmetry(self, params50, spectrum10_50):
        plus = solve_self_energy_landau(0.5, params50, spectrum10_50).sigma
        minus = solve_self_energy_landau(-0.5, params50, spectrum10_50).sigma
        assert minus.imag == pytest.approx(plus.imag, rel=1e-8)

    def test_small_field_approaches_b0(self):
        # like-for-like: full-complex solves both sides
        params = ModelParams(disorder_A=15.0)
        spectrum = build_spectrum(params, 0.1, hard_limit=500_000)
        assert not spectrum.truncated
        sl = solve_self_energy_landau(0.5, params, spectrum).sigma
        sb = solve_self_energy_b0(0.5, params).sigma
        assert sl.imag == pytest.approx(sb.imag, rel=0.10)

    def test_gap_has_vanishing_imaginary_part(self, params500, spectrum10_500):
        hwc = spectrum10_500.hbar_omega_c
        gap_center = 0.5 * (hwc + hwc * math.sqrt(2.0))
        sol = solve_self_energy_landau(gap_center, params500, spectrum10_500)
        assert abs(sol.sigma.imag) < 1e-8


def direct_green_sum(z, spectrum):
    """Reference: sum_n w_n z / (z^2 - n W), weights (1, 2, 2, ...)."""
    n = np.arange(spectrum.n_cutoff + 1)
    terms = z / (z * z - n * spectrum.hbar_omega_c ** 2)
    return 2.0 * np.sum(terms) - terms[0]


def ladder_cases():
    """(B, A, E, gap): energies on both sides of the Dirac point, E = 0 (purely
    imaginary z) and, at A = 500, the real-axis gap roots."""
    cases = []
    for B in (0.1, 10.0):
        hwc = build_spectrum(ModelParams(disorder_A=20.0), B).hbar_omega_c
        for A in (15.0, 20.0, 500.0):
            cases += [(B, A, E, False) for E in (0.0, 0.05, -0.12, 0.3)]
            if A == 500.0:
                cases += [(B, A, E, True) for E in
                          (0.5 * hwc, 0.5 * (1.0 + math.sqrt(2.0)) * hwc)]
    return cases


def solved_z(B, A, E):
    params = ModelParams(disorder_A=A)
    spectrum = build_spectrum(params, B, e_window=E, hard_limit=500_000)
    assert not spectrum.truncated
    return E - solve_self_energy_landau(E, params, spectrum).sigma, spectrum


class TestLandauGreenSum:
    @pytest.mark.parametrize("B,A,E,gap", ladder_cases())
    def test_closed_form_matches_direct_sum(self, B, A, E, gap):
        z, spectrum = solved_z(B, A, E)
        assert abs(z * z) / spectrum.hbar_omega_c ** 2 <= spectrum.n_cutoff
        if gap:
            assert abs(z.imag) < 1e-8
        assert landau_green_sum(z, spectrum) == pytest.approx(
            direct_green_sum(z, spectrum), rel=1e-11)

    def test_short_ladder_falls_back_to_direct_sum(self):
        # |z^2 / W| = 900 N_c: past the ladder's end, summed level by level
        spectrum = build_spectrum(ModelParams(disorder_A=20.0), 10.0,
                                  hard_limit=4)
        z = complex(60.0 * spectrum.hbar_omega_c, 0.01)
        assert abs(z * z) / spectrum.hbar_omega_c ** 2 > 800 * spectrum.n_cutoff
        got = landau_green_sum(z, spectrum)
        assert got == landau_green_sum_direct(z, spectrum)
        assert got == pytest.approx(direct_green_sum(z, spectrum), rel=1e-11)


def damped_landau_sigma(E, params, spectrum, *, tol=1e-10,
                        max_iter=10_000):
    """Reference: Sigma = F(Sigma) by damped fixed-point iteration from the
    imaginary-axis seed, with a secant rescue for the roots damping cannot
    reach. One energy at a time; this is the solver's former algorithm."""
    A = params.disorder_A
    scale = spectrum.hbar_omega_c ** 2 / (2.0 * A)

    def step(sigma):
        out = complex(scale * landau_green_sum(E - sigma, spectrum))
        return out.conjugate() if out.imag > 0 else out

    sigma = -1j * max(params.cutoff_Ec * math.exp(-A / 2.0),
                      spectrum.hbar_omega_c / math.sqrt(2.0 * A),
                      math.pi * abs(E) / A)
    mixing, best, stall = 0.3, math.inf, 0
    for _ in range(max_iter):
        out = step(sigma)
        residual = abs(out - sigma) / abs(out)
        if residual <= tol:
            return out
        if residual < 0.5 * best:
            best, stall = residual, 0
        else:
            stall += 1
            if stall >= 200 and mixing > 0.01:  # break limit cycles
                mixing, stall = 0.5 * mixing, 0
        sigma = (1.0 - mixing) * sigma + mixing * out
    s0, s1 = sigma, sigma * (1.0 + 1e-6) + 1e-12 * (1 - 1j)
    h0, h1 = s0 - step(s0), s1 - step(s1)
    for _ in range(80):
        s2 = s1 - h1 * (s1 - s0) / (h1 - h0)
        if s2.imag > 0:
            s2 = s2.conjugate()
        h2 = s2 - step(s2)
        if abs(h2) <= tol * abs(s2 - h2):
            return step(s2)
        s0, h0, s1, h1 = s1, h1, s2, h2
    raise AssertionError(f"damped reference did not converge at E = {E}")


def ladder_residual(E, sigma, params, spectrum):
    """|Sigma - F(Sigma)| / |Sigma| with the ladder summed level by level."""
    scale = spectrum.hbar_omega_c ** 2 / (2.0 * params.disorder_A)
    return abs(sigma - scale * direct_green_sum(E - sigma, spectrum)) / abs(sigma)


def frozen(case):
    return (np.array(case["energy"]),
            np.array([complex(re, im) for re, im in case["sigma"]]))


class TestLandauArraySolve:
    ENERGIES = np.linspace(-0.3, 0.3, 41)

    def test_array_equals_scalar(self, params50, spectrum10_50):
        energies = np.concatenate((self.ENERGIES, [0.0, 0.21, -0.21]))
        sol = solve_self_energy_landau(energies, params50, spectrum10_50)
        assert sol.converged and sol.sigma.shape == energies.shape
        for i, E in enumerate(energies):
            one = solve_self_energy_landau(float(E), params50, spectrum10_50)
            assert np.ndim(one.sigma) == 0 and isinstance(one.iterations, int)
            assert sol.sigma[i] == pytest.approx(one.sigma, rel=1e-12,
                                                 abs=1e-300)
            assert one.iterations <= sol.iterations

    @pytest.mark.parametrize("row", range(3))
    def test_window_rows_match_damped_solver(self, row, monkeypatch):
        # one solve call on the window nodes and one on nodes + Omega
        case = DAMPED["window"][row]
        params = ModelParams(disorder_A=case["A"])
        spectrum = build_spectrum(params, 10.0, e_window=case["E"],
                                  omega=case["Omega"], hard_limit=20_000)
        calls = []
        solve = kubo_dynamic.solve_self_energy_landau

        def record(*args, **kwargs):
            calls.append(solve(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(kubo_dynamic, "solve_self_energy_landau", record)
        eta = kubo_dynamic.shear_dynamic_bfield(case["E"], case["Omega"],
                                                params, spectrum)
        assert len(calls) == 2
        energy, sigma = frozen(case)
        np.testing.assert_array_equal(
            np.concatenate([c.energy for c in calls]), energy)
        np.testing.assert_allclose(np.concatenate([c.sigma for c in calls]),
                                   sigma, rtol=1e-8, atol=0.0)
        assert eta == pytest.approx(case["eta"], rel=1e-8)

    def test_grid_matches_damped_solver(self, params50, spectrum10_50):
        energy, sigma = frozen(DAMPED["grid"])
        got = solve_self_energy_landau(energy, params50, spectrum10_50).sigma
        np.testing.assert_allclose(got, sigma, rtol=1e-8, atol=0.0)

    def test_gap_roots_stay_real(self, params500, spectrum10_500):
        energy, sigma = frozen(DAMPED["gaps"])
        sol = solve_self_energy_landau(energy, params500, spectrum10_500)
        np.testing.assert_allclose(sol.sigma, sigma, rtol=1e-8, atol=0.0)
        assert np.all(np.abs(sol.sigma.imag) <= 1e-9 * np.abs(sol.sigma))
        for E, s in zip(energy, sol.sigma):
            assert ladder_residual(E, s, params500, spectrum10_500) <= 1e-9

    def test_branch_rule_leaves_a_spurious_real_root(self, params50,
                                                     spectrum10_50,
                                                     monkeypatch):
        # At E = +-0.21 (A = 50) Newton from the imaginary-axis seed lands
        # on a real root of the ladder equation; the solve from
        # Re Sigma - i hbar w_c/sqrt(2A) finds the broadened root the
        # damped solver picks, and that one is returned.
        energies = np.array([-0.21, 0.21])
        passes = []
        iterate = scba._iterate

        def record(e, seed, *args):
            out = iterate(e, seed, *args)
            passes.append((e.copy(), out[0].copy()))
            return out

        monkeypatch.setattr(scba, "_iterate", record)
        sol = solve_self_energy_landau(energies, params50, spectrum10_50)
        assert len(passes) == 2
        np.testing.assert_array_equal(passes[1][0], energies)
        cold = passes[0][1]
        assert np.all(np.abs(cold.imag) <= 1e-9 * np.abs(cold))
        assert np.all(sol.sigma.imag < -1e-3)
        for E, real_root, s in zip(energies, cold, sol.sigma):
            assert ladder_residual(E, real_root, params50,
                                   spectrum10_50) <= 1e-9
            assert ladder_residual(E, s, params50, spectrum10_50) <= 1e-9
            assert abs(s - real_root) > 0.4 * abs(s)
            assert s == pytest.approx(
                damped_landau_sigma(E, params50, spectrum10_50), rel=1e-8)

    @pytest.mark.parametrize("A", [20.0, 50.0, 500.0])
    def test_parity_and_reinsertion(self, A):
        params = ModelParams(disorder_A=A)
        spectrum = build_spectrum(params, 10.0)
        plus = solve_self_energy_landau(self.ENERGIES, params, spectrum)
        minus = solve_self_energy_landau(-self.ENERGIES, params,
                                         spectrum).sigma
        s = plus.sigma
        np.testing.assert_allclose(minus.imag, s.imag, rtol=1e-8,
                                   atol=1e-12 * np.abs(s).max())
        np.testing.assert_allclose(minus.real, -s.real, rtol=1e-8,
                                   atol=1e-12 * np.abs(s).max())
        assert np.all(s.imag <= 0) and np.all(plus.residual <= 1e-10)
        for E, sig in zip(self.ENERGIES, s):
            assert ladder_residual(E, sig, params, spectrum) <= 1e-9

    @pytest.mark.parametrize("A", [20.0, 500.0])
    def test_matches_damped_reference(self, A):
        params = ModelParams(disorder_A=A)
        spectrum = build_spectrum(params, 10.0)
        energies = np.linspace(-0.3, 0.3, 21)
        sol = solve_self_energy_landau(energies, params, spectrum)
        ref = [damped_landau_sigma(E, params, spectrum) for E in energies]
        np.testing.assert_allclose(sol.sigma, ref, rtol=1e-8, atol=0.0)

    def test_nonconvergence_raises_for_arrays(self, params50, spectrum10_50):
        with pytest.raises(ConvergenceError) as exc:
            solve_self_energy_landau(np.array([0.05, 0.1, 0.2]), params50,
                                     spectrum10_50, max_iter=2)
        assert exc.value.residual > 0
        assert exc.value.iterations == 2

    def test_max_iter_must_be_positive(self, params50, spectrum10_50):
        with pytest.raises(ValueError, match="max_iter"):
            solve_self_energy_landau(0.1, params50, spectrum10_50, max_iter=0)


class TestSeparatedForm:
    def test_center_value(self, params50, spectrum10_50):
        v = self_energy_separated(spectrum10_50.hbar_omega_c, (1, 1),
                                  params50, spectrum10_50)
        assert v.imag == pytest.approx(-0.011473, rel=1e-3)
        assert v.real == pytest.approx(0.0, abs=1e-15)

    def test_semicircle_edge(self, params50, spectrum10_50):
        hwc = spectrum10_50.hbar_omega_c
        eps_max = math.sqrt(1.0 / (2.0 * 50.0))
        edge = hwc + 2.0 * hwc * eps_max
        v = self_energy_separated(edge, (1, 1), params50, spectrum10_50)
        assert v.imag == pytest.approx(0.0, abs=1e-12)

    def test_outside_semicircle_raises(self, params50, spectrum10_50):
        hwc = spectrum10_50.hbar_omega_c
        with pytest.raises(ValueError):
            self_energy_separated(hwc * 1.4, (1, 1), params50, spectrum10_50)


class TestOverlappedForm:
    def test_small_field_reduces_to_b0(self):
        params = ModelParams(disorder_A=15.0)
        tiny = build_spectrum(params, 1e-4, hard_limit=10)  # only hwc matters
        v = self_energy_overlapped(0.8, params, tiny)
        b0 = self_energy_b0_asymptotic(0.8, params)
        assert v.imag == pytest.approx(b0.imag, rel=1e-4)

    def test_oscillation_negligible_at_one_tesla(self):
        # at (E=0.5, B=1, A=15) the damping factor kills the cosine
        params = ModelParams(disorder_A=15.0)
        spectrum = build_spectrum(params, 1.0, hard_limit=500_000)
        assert spectrum.hbar_omega_c == pytest.approx(0.03628, rel=2e-3)
        delta = math.exp(-4.0 * math.pi ** 2 * 0.25
                         / (15.0 * spectrum.hbar_omega_c ** 2))
        assert delta < 1e-100
        v = self_energy_overlapped(0.5, params, spectrum)
        no_osc = -(params.cutoff_Ec * math.exp(-7.5)
                   + spectrum.hbar_omega_c ** 2
                   / (2.0 * params.cutoff_Ec * math.exp(-7.5))
                   + math.pi * 0.5 / 15.0)
        assert v.imag == pytest.approx(no_osc, rel=1e-9)

    def test_sdh_period_in_e_squared(self):
        # successive maxima of the cosine term are spaced by (hbar w_c)^2 in E^2
        params = ModelParams(disorder_A=15.0)
        spectrum = build_spectrum(params, 10.0)
        W = spectrum.hbar_omega_c ** 2

        def osc(E):
            base = self_energy_overlapped(E, params, spectrum).imag
            smooth = -(params.cutoff_Ec * math.exp(-7.5)
                       + W / (2.0 * params.cutoff_Ec * math.exp(-7.5))
                       + math.pi * abs(E) / 15.0)
            return base - smooth

        e2 = np.linspace(0.5 * W, 6.0 * W, 4001)
        vals = np.array([osc(math.sqrt(t)) for t in e2])
        peaks = [e2[i] for i in range(1, len(e2) - 1)
                 if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        spacings = np.diff(peaks)
        assert np.allclose(spacings, W, rtol=0.02)


class TestDos:
    def test_b0_values(self, params20):
        pref = 2.0 * 20.0 / (math.pi ** 2 * params20.hbar_vf ** 2)
        assert pref == pytest.approx(9.3551, rel=1e-4)
        rho = dos(1.5, -0.23595j, params20)
        assert rho == pytest.approx(pref * 0.23595, rel=1e-12)
        assert rho == pytest.approx(2.2074, rel=1e-3)
        rho0 = dos(0.0, -3.269e-4 * 1j, params20)
        assert rho0 == pytest.approx(3.06e-3, rel=2e-3)

    def test_even(self, params20):
        s = solve_self_energy_b0(0.9, params20).sigma
        assert dos(0.9, s, params20) == pytest.approx(
            dos(-0.9, s.conjugate().real - 1j * abs(s.imag), params20), rel=1e-12)

    def test_positive_im_sigma_rejected(self, params20):
        with pytest.raises(ValueError):
            dos(1.0, 0.1j, params20)

    def test_landau_consistency_with_green_function_sum(self, params50,
                                                        spectrum10_50):
        # rho from Im Sigma equals -(g/pi)(1/2 pi l_B^2) sum_ns Im G within 1%
        E = 0.5
        sol = solve_self_energy_landau(E, params50, spectrum10_50)
        rho = dos(E, sol.sigma, params50, 10.0)
        z = E - sol.sigma
        n = np.arange(spectrum10_50.n_cutoff + 1)
        w = np.where(n == 0, 1.0, 2.0)
        g = z / (z * z - n * spectrum10_50.hbar_omega_c ** 2)
        trace = np.sum(w * g.imag)
        rho_direct = -(4.0 / math.pi) / (2.0 * math.pi * spectrum10_50.l_B ** 2) * trace
        assert rho == pytest.approx(rho_direct, rel=0.01)

    def test_semicircle_sum_rule(self, params500, spectrum10_500):
        # integrated weight across one level = degeneracy / (2 pi l_B^2)
        hwc = spectrum10_500.hbar_omega_c
        for center in (0.0, hwc):  # n = 0 and n = 1
            half = 2.0 * hwc * math.sqrt(1.0 / (2.0 * 500.0))
            es = np.linspace(center - 1.3 * half, center + 1.3 * half, 401)
            sigma = solve_self_energy_landau(es, params500,
                                             spectrum10_500).sigma
            rho = [dos(e, s, params500, 10.0) for e, s in zip(es, sigma)]
            weight = np.trapezoid(rho, es)
            expected = 4.0 / (2.0 * math.pi * spectrum10_500.l_B ** 2)
            assert weight == pytest.approx(expected, rel=0.02)


class TestRelaxationTime:
    def test_values(self):
        assert relaxation_time(-0.236j) == pytest.approx(2.119, rel=1e-3)
        assert relaxation_time(-0.011473j) == pytest.approx(43.58, rel=1e-3)

    def test_halving(self):
        assert relaxation_time(-0.2j) == pytest.approx(
            relaxation_time(-0.1j) / 2.0, rel=1e-12)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            relaxation_time(0.0j)
