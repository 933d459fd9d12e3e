"""Self-consistent Born approximation for the disorder self-energy.

Solvers return the retarded Sigma(E) (Im Sigma <= 0); the advanced branch is
the complex conjugate. Closed-form asymptotics used as oracles set the real
part to zero, which is also the convention of the B = 0 transport kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, lambertw

from .model import LandauSpectrum, ModelParams

_RESIDUAL_FLOOR = 1e-280


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach tolerance."""

    def __init__(self, message: str, residual: float, iterations: int,
                 sigma: complex):
        super().__init__(f"{message} (residual {residual:.3e} after "
                         f"{iterations} iterations)")
        self.residual = residual
        self.iterations = iterations
        self.sigma = sigma


@dataclass(frozen=True)
class SelfEnergySolution:
    energy: float          # eV
    sigma: complex         # retarded Sigma(E), eV
    residual: float        # |Sigma_out - Sigma_in| / max(|Sigma_out|, floor)
    iterations: int
    converged: bool


def _log_branch(z: complex, cutoff: float) -> complex:
    """Log(-Ec^2 / z^2) on the branch continuous over the retarded domain.

    With z = E - Sigma in the closed upper half-plane this equals
    2 ln Ec + i pi - 2 Log z and makes Im Sigma even / Re Sigma odd in E.
    """
    return 2.0 * math.log(cutoff) + 1j * math.pi - 2.0 * np.log(z)


def _iterate(seed: complex, step, tol: float, mixing: float, max_iter: int,
             energy: float) -> SelfEnergySolution:
    sigma = seed
    residual = math.inf
    best = math.inf
    stall = 0
    for it in range(1, max_iter + 1):
        out = step(sigma)
        if out.imag > 0:               # reflect back to the retarded branch
            out = out.conjugate()
        # residual of the defining equation, not of the damped update
        residual = abs(out - sigma) / max(abs(out), _RESIDUAL_FLOOR)
        if residual <= tol:
            return SelfEnergySolution(energy, out, residual, it, True)
        if residual < 0.5 * best:
            best, stall = residual, 0
        else:
            stall += 1
            if stall >= 200 and mixing > 0.01:  # break limit cycles
                mixing *= 0.5
                stall = 0
        sigma = (1.0 - mixing) * sigma + mixing * out
    # secant rescue for roots damping cannot reach (real-axis gap roots,
    # semicircle tangencies); skipped for deliberately tiny budgets
    if max_iter >= 50:
        refined = _secant_refine(sigma, step, tol)
        if refined is not None:
            sigma, residual, extra = refined
            return SelfEnergySolution(energy, sigma, residual,
                                      max_iter + extra, True)
    raise ConvergenceError("SCBA iteration did not converge", residual,
                           max_iter, sigma)


def _secant_refine(sigma: complex, step, tol: float, max_steps: int = 80):
    """Secant iteration on h(S) = S - F(S); rescues real-axis (gap) roots
    where plain damping stalls."""
    def h(s):
        out = step(s)
        if out.imag > 0:
            out = out.conjugate()
        return s - out

    s0, s1 = sigma, sigma * (1.0 + 1e-6) + 1e-12 * (1 - 1j)
    h0, h1 = h(s0), h(s1)
    for it in range(max_steps):
        dh = h1 - h0
        if dh == 0:
            break
        s2 = s1 - h1 * (s1 - s0) / dh
        if s2.imag > 0:
            s2 = s2.conjugate()
        h2 = h(s2)
        res = abs(h2) / max(abs(s2 - h2), _RESIDUAL_FLOOR)
        if res <= tol:
            out = step(s2)
            if out.imag > 0:
                out = out.conjugate()
            return out, res, it + 1
        s0, h0, s1, h1 = s1, h1, s2, h2
    return None


def solve_self_energy_b0(E: float, params: ModelParams, *,
                         drop_real_part: bool = False, tol: float = 1e-10,
                         mixing: float = 0.3,
                         max_iter: int = 10_000) -> SelfEnergySolution:
    """Fixed point of Sigma = -((E - Sigma)/A) Log(-Ec^2/(E - Sigma)^2).

    drop_real_part=True iterates with Re Sigma forced to zero; this is the
    branch all B = 0 closed forms (and the B = 0 Kubo kernels) are built on.
    """
    A = params.disorder_A
    Ec = params.cutoff_Ec
    seed = -1j * max(Ec * math.exp(-A / 2.0), math.pi * abs(E) / A, 1e-300)

    def step(sigma: complex) -> complex:
        z = E - sigma
        out = -(z / A) * _log_branch(z, Ec)
        if drop_real_part:
            out = 1j * out.imag
        return out

    return _iterate(seed, step, tol, mixing, max_iter, E)


def pole_sum(c: complex, lo: int, hi: int) -> complex:
    """sum_{n=lo}^{hi} 1/(c - n) = psi(lo - c) - psi(hi + 1 - c) (DLMF 5.5.2)."""
    return digamma(lo - c) - digamma(hi + 1 - c)


def landau_green_sum_direct(z: complex, spectrum: LandauSpectrum) -> complex:
    """sum_{n=0}^{N_c} w_n z / (z^2 - n (hbar w_c)^2), weights (1, 2, 2, ...),
    summed level by level."""
    en2 = np.arange(spectrum.n_cutoff + 1) * spectrum.hbar_omega_c ** 2
    weights = np.full(en2.shape, 2.0)
    weights[0] = 1.0
    return np.sum(weights * z / (z * z - en2))


def landau_green_sum(z: complex, spectrum: LandauSpectrum) -> complex:
    """The ladder sum of landau_green_sum_direct in O(1).

    With W = (hbar w_c)^2 and a = z^2/W it equals (z/W)[2 S(a) - 1/a],
    S = pole_sum over n = 0..N_c. The digamma pair holds ~1e-12 relative
    while the ladder reaches past the energy, |a| <= N_c; beyond that
    psi(N_c + 1 - a) and psi(-a) cancel, so the ladder is summed directly.
    """
    W = spectrum.hbar_omega_c ** 2
    a = z * z / W
    if abs(a) > spectrum.n_cutoff:
        return landau_green_sum_direct(z, spectrum)
    return (z / W) * (2.0 * pole_sum(a, 0, spectrum.n_cutoff) - 1.0 / a)


def solve_self_energy_landau(E: float, params: ModelParams,
                             spectrum: LandauSpectrum, *, tol: float = 1e-10,
                             mixing: float = 0.3, max_iter: int = 10_000,
                             seed: complex | None = None) -> SelfEnergySolution:
    """Fixed point of Sigma = ((hbar w_c)^2 / 2A) sum_{n,s} G_{ns}(E).

    The sum runs over physical levels (n = 0 once) via
    g_n = z / (z^2 - n (hbar w_c)^2) with weights (1, 2, 2, ...), and is
    evaluated by landau_green_sum.
    """
    A = params.disorder_A
    scale = spectrum.hbar_omega_c ** 2 / (2.0 * A)
    if seed is None:
        seed = -1j * max(params.cutoff_Ec * math.exp(-A / 2.0),
                         spectrum.hbar_omega_c / math.sqrt(2.0 * A),
                         math.pi * abs(E) / A)

    def step(sigma: complex) -> complex:
        return scale * landau_green_sum(E - sigma, spectrum)

    return _iterate(seed, step, tol, mixing, max_iter, E)


def self_energy_b0_asymptotic(E: float, params: ModelParams) -> complex:
    """Weak-disorder limit: Im Sigma = -Ec e^{-A/2} - (pi/A)|E|, Re Sigma = 0."""
    A = params.disorder_A
    return -1j * (params.cutoff_Ec * math.exp(-A / 2.0) + math.pi * abs(E) / A)


def self_energy_separated(E: float, nearest_level: tuple[int, int],
                          params: ModelParams,
                          spectrum: LandauSpectrum) -> complex:
    """Semicircle solution near an isolated level: Re = hbar w_c eps,
    Im = -hbar w_c sqrt(1/2A - eps^2), eps = (E - E_NS)/(2 hbar w_c)."""
    n, s = nearest_level
    hwc = spectrum.hbar_omega_c
    eps = (E - s * hwc * math.sqrt(n)) / (2.0 * hwc)
    disc = 1.0 / (2.0 * params.disorder_A) - eps * eps
    if -1e-12 / params.disorder_A < disc < 0:
        disc = 0.0
    if disc < 0:
        raise ValueError(
            f"energy outside the level semicircle (eps = {eps:.4g}, "
            f"half-width {math.sqrt(1.0 / (2.0 * params.disorder_A)):.4g}); "
            "the density of states vanishes here")
    return hwc * eps - 1j * hwc * math.sqrt(disc)


def self_energy_overlapped(E: float, params: ModelParams,
                           spectrum: LandauSpectrum) -> complex:
    """Overlapping-level closed form with the Shubnikov-de Haas cosine.

    Im Sigma = -Ec e^{-A/2} - (hbar w_c)^2/(2 Ec e^{-A/2})
               - (pi/A)|E| [1 + 2 delta cos(pi E / hbar w_eff)],
    delta = exp(-4 pi^2 E^2 / (A (hbar w_c)^2)).
    """
    A = params.disorder_A
    gamma0 = params.cutoff_Ec * math.exp(-A / 2.0)
    W = spectrum.hbar_omega_c ** 2
    base = gamma0 + W / (2.0 * gamma0)
    if E == 0:
        osc = 0.0
    else:
        delta = math.exp(-4.0 * math.pi ** 2 * E * E / (A * W))
        # cos argument pi E / (hbar w_eff) = 2 pi E |E| / (hbar w_c)^2
        osc = (math.pi * abs(E) / A) * (
            1.0 + 2.0 * delta * math.cos(2.0 * math.pi * E * abs(E) / W))
    return -1j * (base + osc)


def self_energy_dirac_point_bfield(params: ModelParams,
                                   spectrum: LandauSpectrum) -> complex:
    """Lambert-W closed form for Im Sigma(E=0) in a field:
    Im Sigma = -hbar w_c / sqrt(W[(hbar w_c / Ec)^2 e^A])."""
    hwc = spectrum.hbar_omega_c
    x = (hwc / params.cutoff_Ec) ** 2 * math.exp(params.disorder_A)
    w = lambertw(x).real
    return -1j * hwc / math.sqrt(w)


def dos(E: float, sigma: complex, params: ModelParams,
        b_field: float | None = None) -> float:
    """Density of states per eV nm^2 (includes the degeneracy factor).

    B = 0:   rho = -(g/4) (2A / pi^2 (hbar v_f)^2) Im Sigma
    B != 0:  rho = -(g/4) (2 / pi^2 l_B^2)(2A / (hbar w_c)^2) Im Sigma
    """
    if sigma.imag > 0:
        raise ValueError(f"retarded Im Sigma must be <= 0, got {sigma.imag}")
    A = params.disorder_A
    scale = params.degeneracy / 4.0
    if b_field is None or b_field == 0:
        return -scale * (2.0 * A / (math.pi ** 2 * params.hbar_vf ** 2)) * sigma.imag
    from .model import magnetic_length
    lb = magnetic_length(b_field)
    hwc = math.sqrt(2.0) * params.hbar_vf / lb
    return -scale * (2.0 / (math.pi ** 2 * lb ** 2)) * (2.0 * A / hwc ** 2) * sigma.imag


def relaxation_time(sigma: complex) -> float:
    """Quasiparticle lifetime tau = hbar / (2 |Im Sigma|), in hbar/eV."""
    if sigma.imag >= 0:
        raise ValueError("Im Sigma must be negative for a finite lifetime")
    return 1.0 / (2.0 * abs(sigma.imag))
