import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from diracvisc import (ConvergenceError, ModelParams, SweepSpec,
                       build_spectrum, dos, relaxation_time, run_sweep,
                       self_energy_b0_asymptotic,
                       self_energy_dirac_point_bfield, self_energy_overlapped,
                       self_energy_separated, solve_self_energy_b0,
                       solve_self_energy_landau)
from diracvisc import kubo_dynamic, scba
from diracvisc.scba import landau_green_sum

# Sigma frozen from the damped fixed-point solver the batched Newton solve
# replaced: the three landau_window benchmark rows (B = 10 T, E = 0.1), a
# 121-point E grid at A = 50 and the A = 500 gap centres
DAMPED = json.loads((Path(__file__).parent / "data"
                     / "damped_landau_sigma.json").read_text())


def fixed_point_residual_b0(E, sigma, params, drop_real_part=False):
    """Reinsert sigma into the defining closed-log equation, its Log taken
    by numpy's complex log (the solver takes scba._log); with
    drop_real_part the map's real part is dropped, as in the solve."""
    z = E - sigma
    log = 2.0 * math.log(params.cutoff_Ec) + 1j * math.pi - 2.0 * np.log(z)
    out = -(z / params.disorder_A) * log
    if drop_real_part:
        out = 1j * out.imag
    return abs(sigma - out) / abs(sigma)


def complex_parts(re, im):
    """A complex array from its parts, a signed zero kept."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def log_sample(size, seed):
    """size complex numbers for scba._log: a fifth with |z| within ~1e-3
    of 1, where the B = 0 SCBA's z lies, the rest with |z| log-uniform
    over 1e-300..1e300 at uniform angles, the first 800 of them on the
    four half-axes, each half-axis with both signed zeros."""
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(-300.0, 300.0, size)
    r[:size // 5] = 1.0 + rng.normal(0.0, 1e-3, size // 5)
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    axis = r[size // 5:size // 5 + 100]
    z[size // 5:size // 5 + 800] = np.concatenate([
        complex_parts(sign * axis, zero) if real else
        complex_parts(zero, sign * axis)
        for real in (True, False) for sign in (1.0, -1.0)
        for zero in (0.0, -0.0)])
    return z


def log_error(got, want, z):
    """|got - want| per part, in units of eps max(|ln|z||, pi)."""
    scale = np.finfo(float).eps * np.maximum(np.abs(np.log(np.abs(z))),
                                             math.pi)
    return np.maximum(abs(got.real - want.real),
                      abs(got.imag - want.imag)) / scale


class TestLog:
    def test_meets_np_log(self):
        z = log_sample(4000, 1)
        for re_sign, im_sign in itertools.product((1.0, -1.0), repeat=2):
            assert ((np.sign(z.real) == re_sign)
                    & (np.sign(z.imag) == im_sign)).any()
        assert (z.imag == 0.0).sum() == (z.real == 0.0).sum() == 400
        assert abs(z).min() < 1e-290 and abs(z).max() > 1e290
        assert log_error(scba._log(z), np.log(z), z).max() <= 4.0

    def test_meets_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        z = log_sample(4000, 2)[::10]
        # mpmath has no signed zero: on the cut it takes Im Log = +pi
        z = z[~((z.real < 0.0) & np.signbit(z.imag) & (z.imag == 0.0))]
        got = scba._log(z)
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.log(mpmath.mpc(x.real, x.imag)))
                             for x in z])
        assert log_error(got, want, z).max() <= 4.0

    def test_special_values_are_np_log_s(self):
        inf, nan = math.inf, math.nan
        z = complex_parts(
            [-1.0, -1.0, 1.0, -0.0, inf, -inf, inf, -inf, nan, 2.0, inf,
             -inf, nan, nan, 0.5],
            [0.0, -0.0, -0.0, -1.0, 1.0, 1.0, -inf, inf, 1.0, nan, nan,
             nan, inf, -inf, -inf])
        got, want = scba._log(z), np.log(z)
        assert got[0] == 1j * math.pi and got[1] == -1j * math.pi
        np.testing.assert_array_equal(got, want)
        for part in ("real", "imag"):
            g, w = getattr(got, part), getattr(want, part)
            assert (np.isnan(g) == np.isnan(w)).all()
            assert (np.signbit(g) == np.signbit(w))[~np.isnan(w)].all()
        assert np.isinf(got.real[4:8]).all() and np.isnan(got[8:14]).all()
        assert got[14] == complex(math.inf, -0.5 * math.pi)

    @pytest.mark.parametrize("re,im,angle", [
        (0.0, 0.0, 0.0), (0.0, -0.0, -0.0), (-0.0, 0.0, math.pi),
        (-0.0, -0.0, -math.pi)])
    def test_zero_is_minus_inf_with_np_log_s_warning(self, re, im, angle):
        z = complex_parts(np.array([re]), im)
        with pytest.warns(RuntimeWarning) as ours:
            got = scba._log(z)
        with pytest.warns(RuntimeWarning) as numpy_s:
            want = np.log(z)
        assert [str(w.message) for w in ours] == [
            str(w.message) for w in numpy_s] == [
            "divide by zero encountered in log"]
        assert got.tobytes() == want.tobytes()
        assert got[0].real == -math.inf and got[0].imag == angle
        assert np.signbit(got[0].imag) == np.signbit(angle)

    def test_scalar_gives_a_scalar(self):
        got = scba._log(-1.0 - 1j)
        assert isinstance(got, np.complex128)
        assert got == scba._log(np.array([-1.0 - 1j]))[0]

    def test_column_equals_its_one_element_calls(self):
        # the batching rule where numpy's SIMD log and arctan2 run: any
        # batch, chunk or stride gives every element the same bits
        z = log_sample(20000, 3)
        column = scba._log(z)
        ones = np.array([scba._log(x) for x in z])
        assert column.tobytes() == ones.tobytes()
        for size in range(1, 34):
            chunks = np.concatenate([scba._log(z[i:i + size])
                                     for i in range(0, z.size, size)])
            assert chunks.tobytes() == column.tobytes(), size
        wide = np.zeros(2 * z.size, dtype=complex)
        wide[1::2] = z
        assert scba._log(wide[1::2]).tobytes() == column.tobytes()


class TestB0Solver:
    def test_dirac_point_against_bisection(self, params20):
        # independent oracle: gamma solves A = 2 ln(Ec/gamma) on the real line
        A, Ec = params20.disorder_A, params20.cutoff_Ec
        gamma = brentq(lambda g: A - 2.0 * math.log(Ec / g), 1e-12, Ec)
        sol = solve_self_energy_b0(0.0, params20)
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
        assert fixed_point_residual_b0(E, sol.sigma, params) <= 10.0 * 1e-10 * 50
        # the spec bound: residual of the converged iterate itself
        assert sol.residual <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(E=st.floats(-7.0, 7.0),
           A=st.floats(math.log(1.6), math.log(1000.0)).map(math.exp),
           drop=st.booleans())
    @example(E=7.0, A=1.6, drop=False)
    @example(E=-7.0, A=1.6, drop=True)
    @example(E=0.0, A=1000.0, drop=False)
    def test_roots_reinsert_into_numpy_log_map(self, E, A, drop):
        # the solver's roots against an independent log; below A = 1.6
        # the solve diverges (test_strong_disorder_root_is_found)
        params = ModelParams(disorder_A=A)
        sol = solve_self_energy_b0(E, params, drop_real_part=drop, tol=1e-10)
        assert fixed_point_residual_b0(E, sol.sigma, params,
                                       drop_real_part=drop) <= 2e-10

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
        assert sol.sigma.shape == energies.shape
        for i, E in enumerate(energies):
            one = solve_self_energy_b0(float(E), params20,
                                       drop_real_part=drop)
            assert sol.sigma[i] == pytest.approx(one.sigma, rel=1e-14,
                                                 abs=1e-300)
            assert sol.residual[i] == pytest.approx(one.residual, rel=1e-6,
                                                    abs=1e-16)
            assert one.iterations == one.steps == sol.steps[i]
        assert sol.iterations == sol.steps.max()
        assert isinstance(sol.iterations, int)

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

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="Newton from the imaginary-axis seed diverges "
                              "at strong disorder (|Sigma| doubles each "
                              "step, past 1e23 eV), though a root "
                              "gamma = 5.807 eV is bracketed")
    def test_strong_disorder_root_is_found(self):
        params = ModelParams(disorder_A=1.2)
        sol = solve_self_energy_b0(5.4, params, drop_real_part=True)
        assert -sol.sigma.imag == pytest.approx(gamma_root_b0(5.4, params),
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

    def test_lambert_w_matches_scipy_and_mpmath(self):
        # scipy's lambertw while e^A stays finite, mpmath past A ~ 709
        from scipy.special import lambertw
        mpmath = pytest.importorskip("mpmath")
        for B, A in itertools.product((1.0, 10.0), (1.0, 5.0, 20.0, 700.0)):
            params = ModelParams(disorder_A=A)
            spectrum = build_spectrum(params, B)
            hwc = spectrum.hbar_omega_c
            x = (hwc / params.cutoff_Ec) ** 2 * math.exp(A)
            got = self_energy_dirac_point_bfield(params, spectrum).imag
            assert got == pytest.approx(-hwc / math.sqrt(lambertw(x).real),
                                        rel=1e-14)
        params = ModelParams(disorder_A=800.0)
        spectrum = build_spectrum(params, 10.0)
        hwc = spectrum.hbar_omega_c
        with mpmath.workdps(30):
            x = (mpmath.mpf(hwc) / params.cutoff_Ec) ** 2 * mpmath.exp(800)
            ref = float(-hwc / mpmath.sqrt(mpmath.lambertw(x).real))
        got = self_energy_dirac_point_bfield(params, spectrum).imag
        assert got == pytest.approx(ref, rel=1e-14)

    def test_lambert_w_needs_no_scipy(self):
        src = str(Path(scba.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys\n"
                "sys.modules['scipy'] = None  # any scipy import fails\n"
                "from diracvisc import (ModelParams, build_spectrum,\n"
                "                       self_energy_dirac_point_bfield)\n"
                "p = ModelParams(disorder_A=20.0)\n"
                "s = build_spectrum(p, 10.0)\n"
                "print(repr(self_energy_dirac_point_bfield(p, s).imag))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        params = ModelParams(disorder_A=20.0)
        expected = self_energy_dirac_point_bfield(
            params, build_spectrum(params, 10.0)).imag
        assert float(out.stdout) == expected

    def test_symmetry(self, params50, spectrum10_50):
        plus = solve_self_energy_landau(0.5, params50, spectrum10_50).sigma
        minus = solve_self_energy_landau(-0.5, params50, spectrum10_50).sigma
        assert minus.imag == pytest.approx(plus.imag, rel=1e-8)

    def test_small_field_approaches_b0(self):
        # like-for-like: full-complex solves both sides
        params = ModelParams(disorder_A=15.0)
        spectrum = build_spectrum(params, 0.1)
        sl = solve_self_energy_landau(0.5, params, spectrum).sigma
        sb = solve_self_energy_b0(0.5, params).sigma
        assert sl.imag == pytest.approx(sb.imag, rel=0.10)

    @pytest.mark.parametrize("E", [3.0, 5.0])
    def test_weak_field_meets_the_exact_cutoff_root(self, E):
        # far from the Dirac point a self_energy row on the ladder up to E_c
        # reproduces the B = 0 equation with the cutoff kept exactly,
        # Sigma = -(z/A) Log(1 - Ec^2/z^2) (Log(-Ec^2/z^2) drops the 1); a
        # ladder stretched to 3|E| is off by 0.08 (3 eV) and 0.48 (5 eV)
        params = ModelParams(disorder_A=20.0)
        A, Ec = params.disorder_A, params.cutoff_Ec
        s = solve_self_energy_b0(E, params).sigma
        for _ in range(200):   # damped fixed-point iteration
            z = E - s
            root = -(z / A) * np.log(1.0 - Ec ** 2 / z ** 2)
            if abs(root - s) <= 1e-15 * abs(root):
                break
            s = 0.5 * (s + root)
        else:
            pytest.fail("damped iteration did not converge")
        row, = run_sweep(SweepSpec.from_config(
            {"quantity": "self_energy", "E": E, "B": 0.1, "A": [A]})).rows
        assert abs(complex(row.channels["re_sigma"], row.value) - root) <= 1e-5

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
    spectrum = build_spectrum(params, B)
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

    def test_far_past_the_ladder_end_meets_direct_sum(self):
        # |z^2 / W| = 900 N_c: the reflected digammas still hold (6.7e-13)
        spectrum = replace(build_spectrum(ModelParams(disorder_A=20.0), 10.0),
                           n_cutoff=4)
        z = complex(60.0 * spectrum.hbar_omega_c, 0.01)
        assert abs(z * z) / spectrum.hbar_omega_c ** 2 > 800 * spectrum.n_cutoff
        got = landau_green_sum(z, spectrum)
        assert got == pytest.approx(direct_green_sum(z, spectrum), rel=1e-11)


# near the poles at 0 and -1 and the roots at -0.50 and 1.46, where the
# shift by 10 cancels ln(x + 10) against the ten poles it sums
NEAR_DIGAMMA_ROOTS = [1e-3 + 1e-3j, -1e-3 + 0.01j, 0.3 - 0.2j, -1.0 + 1e-4j,
                      -1.002 + 1e-3j, -0.999 - 0.01j, -0.5 + 0.2j, 0.6,
                      1.46 + 0.05j, 1.4616 + 0.02j, 1.5 - 0.3j, 1.43,
                      -1.5 + 0.9j, 1.9 + 0.9j]


def mp_psi(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return complex(mpmath.digamma(mpmath.mpc(x.real, x.imag)))


def psi_family(name):
    """40 fixed arguments of one family _psi is checked on."""
    rng = np.random.default_rng(sum(map(ord, name)))
    u = rng.uniform(size=(2, 40))
    if name == "|x| < 3":
        return 3.0 * np.sqrt(u[0]) * np.exp(2j * math.pi * u[1])
    if name == "-a, |a| < 50":
        return -(100.0 * u[0] - 50.0 + 1j * (2e-3 * u[1] - 1e-3))
    if name in ("+-a, a ~ 4e3", "+-a, a ~ 3.9e5"):
        a0 = 3938.0 if "4e3" in name else 393790.0
        a = a0 + 60.0 * u[0] - 30.0 + 1j * (10.0 * u[1] - 5.0)
        return np.where(np.arange(40) % 2 == 0, a, -a)
    if name == "real negative":
        return -50.0 * u[0] + 0j
    if name == "Re x = 1/2":
        return 0.5 + 1j * (100.0 * u[1] - 50.0)
    if name == "|Im x| <= 1e3":
        return 40.0 * u[0] - 20.0 + 1j * np.copysign(
            10.0 ** (3.0 * u[1]), u[1] - 0.5)
    raise KeyError(name)


class TestPsi:
    @pytest.mark.parametrize("family", [
        "|x| < 3", "-a, |a| < 50", "+-a, a ~ 4e3", "+-a, a ~ 3.9e5",
        "real negative", "Re x = 1/2", "|Im x| <= 1e3"])
    def test_meets_mpmath(self, family):
        x = psi_family(family)
        got = scba._psi(x)
        for xi, gi in zip(x, got):
            want = mp_psi(xi)
            # for Re x < 1/2 the reflection adds psi(1 - x) and pi cot(pi x),
            # which cancel near the roots on the negative axis: rounding is
            # relative to their size there (scipy's digamma too)
            scale = abs(want) if xi.real >= 0.5 else max(
                abs(want), abs(mp_psi(1.0 - xi)))
            assert abs(gi - want) <= 1e-14 * scale, xi

    @pytest.mark.parametrize("root", [-0.5040830082644554,
                                      1.4616321449683622])
    def test_absolute_error_near_its_roots(self, root):
        d = np.linspace(-1e-3, 1e-3, 201)
        x = np.concatenate((root + d, root + 1j * d, root + d * (1 + 1j),
                            root + d * (1 - 1j)))
        for xi, got in zip(x, scba._psi(x)):
            assert abs(got - mp_psi(xi)) <= 1e-15, xi

    @settings(max_examples=300, deadline=None)
    @given(re=st.integers(-60 * 1024, 60 * 1024),
           im=st.floats(-50.0, 50.0))
    def test_recurrence_and_reflection(self, re, im):
        # Re x on a 1/1024 grid, so x + 1 and 1 - x are exact; at an
        # integer one of x, x + 1 and 1 - x is a pole, and within 1e-300
        # of it psi and 1/x pass the float range
        x = complex(re / 1024.0, im)
        assume(not (abs(im) < 1e-300 and re <= 0 and re % 1024 == 0))
        assume(not (abs(im) < 1e-300 and re >= 1024 and re % 1024 == 0))
        p, p_up, p_flip = scba._psi(np.array([x, x + 1.0, 1.0 - x]))
        size = abs(p) + abs(p_up) + abs(p_flip)
        assert abs(p_up - p - 1.0 / x) <= 1e-14 * (size + abs(1.0 / x))
        mpmath = pytest.importorskip("mpmath")
        # mpmath.cot loses digits near the real axis, and sin(pi x) near
        # the poles unless x is first reduced by its nearest integer
        with mpmath.workdps(40):
            pi_r = mpmath.pi * (mpmath.mpc(x) - round(x.real))
            cot = complex(mpmath.pi * mpmath.cos(pi_r) / mpmath.sin(pi_r))
        assert abs(p_flip - p - cot) <= 1e-14 * (size + abs(cot))

    def test_mixed_column_equals_its_one_element_calls(self, spectrum10_20):
        # only the reflected elements take the cot term: a column mixing
        # reflected, unreflected and pole elements gives each one the value
        # of its own call, bit for bit
        poles = [0.0, -1.0, -2.0]
        special = np.array(poles + [0.5, -0.5, -3.5 + 1e-9j, -0.504, 1.4616,
                                    2.5 - 3j, -7.25 + 0.1j, 40.0 + 2j])
        # the stacked pole_sum arguments (lo - a, hi + 1 - a) of a 10 T ladder
        z = np.array([0.05 - 0.004j, -0.13 - 0.01j, 0.21 - 0.02j])
        a = z * z / spectrum10_20.hbar_omega_c ** 2
        stacked = np.array((-a, spectrum10_20.n_cutoff + 1 - a))
        column = np.concatenate((special, stacked.ravel()))
        assert (column.real < 0.5).any() and (column.real >= 0.5).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scba._psi(column)
            ones = np.array([scba._psi(x) for x in column])
            rows = scba._psi(stacked)
        assert got.tobytes() == ones.tobytes()
        assert rows.shape == stacked.shape
        assert rows.tobytes() == got[special.size:].tobytes()
        assert np.isnan(got[:3].real).all() and np.isnan(got[:3].imag).all()
        assert np.isfinite(got[3:]).all()

    def test_poles_are_nan_without_a_warning(self):
        poles = -np.arange(6.0) + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scba._psi(np.concatenate((poles, poles + 1e-9j)))
            scalar = scba._psi(-3.0 + 0j)
        assert np.isnan(got[:6]).all() and np.isnan(scalar)
        assert np.isfinite(got[6:]).all()


class TestPoleSum:
    @pytest.mark.parametrize("x", NEAR_DIGAMMA_ROOTS)
    def test_shifted_digamma_meets_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        want = complex(mpmath.digamma(x))
        column = np.array([x, x + 3.0, 10.0 - 2.0j])  # near and far elements
        for got in (scba._psi(x), scba._psi(column)[0]):
            assert abs(got - want) <= 1e-13 * abs(want)
        far = complex(mpmath.digamma(10.0 - 2.0j))
        assert abs(scba._psi(column)[2] - far) <= 1e-13 * abs(far)

    @pytest.mark.parametrize("n_cutoff", [14, 3_939, 787_617])
    def test_past_the_last_pole_meets_mpmath(self, n_cutoff):
        # Re c > hi + 1/2: both digamma arguments are reflected to 1 - x
        mpmath = pytest.importorskip("mpmath")
        c = n_cutoff * np.array([1.0, 1.04 + 1e-3j, 1.3 - 0.4j, 1.7 + 0.05j,
                                 1.99 + 1.2j, -1.5 + 2.0j, 900.0 + 1.0j])
        c[0] += 0.5 + 1e-9 + 1e-3j      # just past the last pole, N_c
        c = np.append(c, n_cutoff + 0.75)   # on the real axis
        assert (c.real > n_cutoff + 0.5).sum() == c.size - 1
        got = scba.pole_sum(c, 0, n_cutoff)
        with mpmath.workdps(40):
            for ci, gi in zip(c, got):
                x = mpmath.mpc(ci.real, ci.imag)
                want = complex(mpmath.digamma(-x)
                               - mpmath.digamma(n_cutoff + 1 - x))
                # measured: 6.6e-15 up to 2 N_c, 5.5e-12 at 900 N_c
                tol = 1e-14 if abs(ci) <= 2 * n_cutoff else 6e-12
                assert abs(gi - want) <= tol * abs(want), ci

    def test_pole_sum_matches_direct_sum(self):
        c = np.array([0.4 - 0.05j, -0.46 + 0.1j, 1.2 + 0.3j, 37.5 - 0.2j])
        for ci, got in zip(c, scba.pole_sum(c, 0, 60)):
            want = math.fsum((1.0 / (ci - n)).real for n in range(61)) \
                + 1j * math.fsum((1.0 / (ci - n)).imag for n in range(61))
            assert got == pytest.approx(want, rel=1e-13)
            assert scba.pole_sum(complex(ci), 0, 60) == pytest.approx(
                want, rel=1e-13)


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
        assert sol.sigma.shape == energies.shape
        for i, E in enumerate(energies):
            one = solve_self_energy_landau(float(E), params50, spectrum10_50)
            assert np.ndim(one.sigma) == 0 and isinstance(one.iterations, int)
            assert sol.sigma[i] == pytest.approx(one.sigma, rel=1e-12,
                                                 abs=1e-300)
            assert one.iterations == one.steps == sol.steps[i]
        assert sol.iterations == sol.steps.max()
        assert isinstance(sol.iterations, int)

    @pytest.mark.parametrize("size", [4_096, 8_192])
    def test_long_column_equals_its_one_energy_solves(self, size, params20,
                                                      spectrum10_20):
        # from 4,096 energies on scba._psi holds 16,384 or more complex
        # values, the size from which numpy would evaluate x * (temporary)
        # in place with the operands swapped; every 7th energy is checked
        energies = np.linspace(-0.3, 0.3, size)
        sol = solve_self_energy_landau(energies, params20, spectrum10_20)
        ones = [solve_self_energy_landau(float(E), params20, spectrum10_20)
                for E in energies[::7]]
        assert sol.sigma[::7].tobytes() == np.array(
            [one.sigma for one in ones]).tobytes()
        assert sol.steps[::7].tolist() == [one.steps for one in ones]

    @pytest.mark.parametrize("row", range(3))
    def test_window_rows_match_damped_solver(self, row, monkeypatch):
        # one solve call on the window nodes stacked on nodes + Omega
        case = DAMPED["window"][row]
        params = ModelParams(disorder_A=case["A"])
        spectrum = build_spectrum(params, 10.0)
        calls = []
        solve = kubo_dynamic.solve_self_energy_landau

        def record(*args, **kwargs):
            calls.append(solve(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(kubo_dynamic, "solve_self_energy_landau", record)
        eta = kubo_dynamic.shear_dynamic_bfield(case["E"], case["Omega"],
                                                params, spectrum)
        assert len(calls) == 1
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

    def test_unconfirmed_real_root_raises(self, params50, spectrum10_50,
                                          monkeypatch):
        # the real roots at E = +-0.21 stand only when the re-solve
        # converges; a re-solve that stays open fails the solve
        iterate = scba._iterate
        passes = []

        def resolve_stays_open(e, seed, *args):
            sigma, residual, steps = iterate(e, seed, *args)
            passes.append(e.copy())
            if len(passes) == 2:
                residual = np.full(e.shape, 0.5)
            return sigma, residual, steps

        monkeypatch.setattr(scba, "_iterate", resolve_stays_open)
        with pytest.raises(ConvergenceError) as exc:
            solve_self_energy_landau(np.array([-0.21, 0.1, 0.21]), params50,
                                     spectrum10_50)
        np.testing.assert_array_equal(passes[1], [-0.21, 0.21])
        assert exc.value.residual == 0.5

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
        # the open energies are solved again, and both passes count
        assert exc.value.iterations == 4

    def test_max_iter_must_be_positive(self, params50, spectrum10_50):
        with pytest.raises(ValueError, match="max_iter"):
            solve_self_energy_landau(0.1, params50, spectrum10_50, max_iter=0)

    # a Gauss node of dynamic_shear at 1 T, A = 500, E = 0.13, Omega = 0.1
    TRAP_E = 0.1268914167697149

    def test_real_axis_trap_at_one_tesla(self):
        # the cold-seed iterate falls onto the real axis (Im Sigma ~ -1e-71)
        # and cycles at residual 0.34; the stalled energy takes the branch
        # re-solve, which converges
        params = ModelParams(disorder_A=500.0)
        spectrum = build_spectrum(params, 1.0)
        sol = solve_self_energy_landau(self.TRAP_E, params, spectrum)
        assert sol.sigma.imag < -5e-4
        assert sol.sigma == pytest.approx(
            damped_landau_sigma(self.TRAP_E, params, spectrum), rel=1e-8)

    def test_one_tesla_dynamic_shear_grid_converges(self):
        # at 7 of these 16 points a window node stalls on the real axis
        params = ModelParams(disorder_A=500.0)
        spectrum = build_spectrum(params, 1.0)
        for E in (0.0, 0.1, 0.13, -0.21):
            for Omega in (0.05, 0.1, 0.2, 0.313):
                eta = kubo_dynamic.shear_dynamic_bfield(E, Omega, params,
                                                        spectrum)
                assert math.isfinite(eta)

    def test_trap_neighbours_converge_off_axis(self):
        params = ModelParams(disorder_A=500.0)
        for E in (self.TRAP_E - 1e-5, self.TRAP_E + 1e-5):
            spectrum = build_spectrum(params, 1.0)
            sol = solve_self_energy_landau(E, params, spectrum)
            assert sol.sigma.imag < -5e-4 and sol.iterations <= 20


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
        tiny = replace(build_spectrum(params, 1e-4), n_cutoff=10)  # only hwc matters
        v = self_energy_overlapped(0.8, params, tiny)
        b0 = self_energy_b0_asymptotic(0.8, params)
        assert v.imag == pytest.approx(b0.imag, rel=1e-4)

    def test_oscillation_negligible_at_one_tesla(self):
        # at (E=0.5, B=1, A=15) the damping factor kills the cosine
        params = ModelParams(disorder_A=15.0)
        spectrum = build_spectrum(params, 1.0)
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
        with pytest.raises(ValueError, match="got 0.1"):
            dos(np.array([0.9, 1.0]), np.array([-0.2j, 0.1j]), params20)

    def test_column_equals_its_scalar_calls(self, params20, params50,
                                            spectrum10_50):
        for params, spectrum, energies in (
                (params20, None, np.linspace(-1.0, 1.0, 21)),
                (params50, spectrum10_50, np.linspace(-0.3, 0.3, 21))):
            solve = (solve_self_energy_b0 if spectrum is None else
                     lambda e, p: solve_self_energy_landau(e, p, spectrum))
            sigma = solve(energies, params).sigma
            column = dos(energies, sigma, params, spectrum)
            ones = [dos(E, s, params, spectrum)
                    for E, s in zip(energies, sigma)]
            assert column.tobytes() == np.array(ones).tobytes()

    def test_landau_consistency_with_green_function_sum(self, params50,
                                                        spectrum10_50):
        # rho from Im Sigma equals -(g/pi)(1/2 pi l_B^2) sum_ns Im G within 1%
        E = 0.5
        sol = solve_self_energy_landau(E, params50, spectrum10_50)
        rho = dos(E, sol.sigma, params50, spectrum10_50)
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
            rho = dos(es, sigma, params500, spectrum10_500)
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
