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
# relative step of the finite-difference Landau slope
_FD_STEP = 1e-7
# a root with |Im Sigma| <= _REAL_AXIS |Sigma| lies on the real axis
_REAL_AXIS = 1e-9


class ConvergenceError(RuntimeError):
    """The SCBA Newton solve did not reach tolerance."""

    def __init__(self, message: str, residual: float, iterations: int,
                 sigma: complex):
        super().__init__(f"{message} (residual {residual:.3e} after "
                         f"{iterations} iterations)")
        self.residual = residual
        self.iterations = iterations
        self.sigma = sigma


@dataclass(frozen=True)
class SelfEnergySolution:
    energy: float          # eV (an array for array input)
    sigma: complex         # retarded Sigma(E), eV
    residual: float        # |Sigma_out - Sigma_in| / max(|Sigma_out|, floor)
    iterations: int        # Newton steps; for array input, the most any
                           # element took, plus the most any branch
                           # re-solve took
    converged: bool


def _log_branch(z, cutoff: float):
    """Log(-Ec^2 / z^2) on the branch continuous over the retarded domain.

    With z = E - Sigma in the closed upper half-plane this equals
    2 ln Ec + i pi - 2 Log z and makes Im Sigma even / Re Sigma odd in E.
    """
    return 2.0 * math.log(cutoff) + 1j * math.pi - 2.0 * np.log(z)


def _iterate(e: np.ndarray, seed: np.ndarray, fmap, tol: float,
             max_iter: int):
    """Newton's method on h(Sigma) = Sigma - F(Sigma), one root per energy.

    fmap(e, s) returns F(s) at the iterates s of the energies e, and a
    function that gives the slope h'(s) on a boolean mask of them, so only
    the energies that take a Newton step pay for it. Each energy stops at
    the first iterate whose residual |F - Sigma|/|F| is <= tol and keeps
    F(Sigma) as its root. F and the Newton iterates are reflected to the
    retarded branch (Im <= 0). Returns the sigma and residual arrays and
    the most steps any energy took; raises ConvergenceError when an energy
    is still open after max_iter steps.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    sigma = np.empty(e.shape, dtype=complex)
    residual = np.empty(e.shape)
    idx = np.arange(e.size)     # the energies still iterating
    s = seed
    for it in range(1, max_iter + 1):
        out, slope_at = fmap(e[idx], s)
        out = np.where(out.imag > 0, out.conjugate(), out)
        res = np.abs(out - s) / np.maximum(np.abs(out), _RESIDUAL_FLOOR)
        done = res <= tol
        sigma[idx[done]] = out[done]
        residual[idx[done]] = res[done]
        if done.all():
            return sigma, residual, it
        if it == max_iter:
            break
        left = ~done
        slope = slope_at(left)
        idx, s, out = idx[left], s[left], out[left]
        s = s - (s - out) / slope
        s = np.where(s.imag > 0, s.conjugate(), s)
    worst = np.argmax(res)
    raise ConvergenceError("SCBA Newton solve did not converge", res[worst],
                           max_iter, out[worst])


def _solution(E, e: np.ndarray, sigma: np.ndarray, residual: np.ndarray,
              iterations: int) -> SelfEnergySolution:
    """Scalars for scalar E, arrays otherwise."""
    if np.ndim(E) == 0:
        return SelfEnergySolution(E, sigma[0], residual[0], iterations, True)
    return SelfEnergySolution(e, sigma, residual, iterations, True)


def solve_self_energy_b0(E, params: ModelParams, *,
                         drop_real_part: bool = False, tol: float = 1e-10,
                         max_iter: int = 100) -> SelfEnergySolution:
    """Root of Sigma = F(Sigma) = -(z/A) Log(-Ec^2/z^2), z = E - Sigma, for
    one energy or a 1-D array of energies.

    Newton's method (_iterate) with the closed-form slope
    h' = 1 - (Log(-Ec^2/z^2) - 2)/A. drop_real_part=True forces Re Sigma to
    zero, the branch all B = 0 closed forms (and the B = 0 Kubo kernels) are
    built on, and solves the real equation for gamma = -Im Sigma with the
    real slope 1 - (ln(Ec^2/|z|^2) - 2)/A.
    """
    A = params.disorder_A
    Ec = params.cutoff_Ec
    e = np.asarray(E, dtype=float).reshape(-1)

    def fmap(e, s):
        z = e - s
        log = _log_branch(z, Ec)
        out = -(z / A) * log
        if drop_real_part:
            out, log = 1j * out.imag, log.real
        return out, lambda keep: 1.0 - (log[keep] - 2.0) / A

    seed = -1j * np.maximum(max(Ec * math.exp(-A / 2.0), 1e-300),
                            math.pi * np.abs(e) / A)
    return _solution(E, e, *_iterate(e, seed, fmap, tol, max_iter))


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


def landau_green_sum(z, spectrum: LandauSpectrum):
    """The ladder sum of landau_green_sum_direct in O(1), for a complex
    scalar or array z.

    With W = (hbar w_c)^2 and a = z^2/W it equals (z/W)[2 S(a) - 1/a],
    S = pole_sum over n = 0..N_c. The digamma pair holds ~1e-12 relative
    while the ladder reaches past the energy, |a| <= N_c; beyond that
    psi(N_c + 1 - a) and psi(-a) cancel, so the ladder is summed directly.
    """
    W = spectrum.hbar_omega_c ** 2
    z = np.asarray(z, dtype=complex)
    a = z * z / W
    near = np.abs(a) <= spectrum.n_cutoff
    if not near.all():
        out = np.empty_like(z)
        out[near] = landau_green_sum(z[near], spectrum)
        out[~near] = [landau_green_sum_direct(x, spectrum) for x in z[~near]]
        return out[()]
    return (z / W) * (2.0 * pole_sum(a, 0, spectrum.n_cutoff) - 1.0 / a)


def solve_self_energy_landau(E, params: ModelParams, spectrum: LandauSpectrum,
                             *, tol: float = 1e-10,
                             max_iter: int = 100) -> SelfEnergySolution:
    """Root of Sigma = F(Sigma) = ((hbar w_c)^2 / 2A) sum_{n,s} G_{ns}(E) for
    one energy or a 1-D array of energies.

    The sum runs over physical levels (n = 0 once) via
    g_n = z / (z^2 - n (hbar w_c)^2) with weights (1, 2, 2, ...), and is
    evaluated by landau_green_sum. Newton's method (_iterate) takes its slope
    from one more ladder sum, dF/dSigma ~ (F(Sigma + h) - F(Sigma))/h with
    h = 1e-7 |Sigma|, and starts from the larger of the B = 0 Dirac-point
    width, the level width hbar w_c/sqrt(2A) and pi|E|/A on the imaginary
    axis. The equation can have more than one root: an energy whose root
    lands on the real axis (|Im Sigma| <= 1e-9 |Sigma|) is solved again
    from Re Sigma - i hbar w_c/sqrt(2A). The new root replaces it if it lies
    off the real axis; otherwise the real root is a spectral gap and stands.
    """
    A = params.disorder_A
    scale = spectrum.hbar_omega_c ** 2 / (2.0 * A)
    width = spectrum.hbar_omega_c / math.sqrt(2.0 * A)
    e = np.asarray(E, dtype=float).reshape(-1)

    def fmap(e, s):
        z = e - s
        out = scale * landau_green_sum(z, spectrum)

        def slope_at(keep):
            h = _FD_STEP * np.maximum(np.abs(s[keep]), _RESIDUAL_FLOOR)
            out_h = scale * landau_green_sum(z[keep] - h, spectrum)
            return 1.0 - (out_h - out[keep]) / h

        return out, slope_at

    seed = -1j * np.maximum(max(params.cutoff_Ec * math.exp(-A / 2.0), width),
                            math.pi * np.abs(e) / A)
    sigma, residual, iterations = _iterate(e, seed, fmap, tol, max_iter)
    real = np.flatnonzero(_on_real_axis(sigma))
    if real.size:
        s2, r2, again = _iterate(e[real], sigma[real].real - 1j * width, fmap,
                                 tol, max_iter)
        off = ~_on_real_axis(s2)
        sigma[real[off]], residual[real[off]] = s2[off], r2[off]
        iterations += again
    return _solution(E, e, sigma, residual, iterations)


def _on_real_axis(sigma: np.ndarray) -> np.ndarray:
    return np.abs(sigma.imag) <= _REAL_AXIS * np.abs(sigma)


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
