"""Static shear and Hall viscosities from the Kubo stress-stress formulas.

Two routes per quantity: a numeric route evaluating the defining Green's-
function integrals/sums with the solved SCBA self-energy, and closed-form
limits (weak disorder, separated/overlapped Landau levels) used as oracles.

All viscosities are in hbar/nm^2 and include the spin-valley degeneracy.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .model import LandauSpectrum, ModelParams, effective_cyclotron
from .scba import (SelfEnergySolution, dos, pole_sum, relaxation_time,
                   solve_self_energy_b0, solve_self_energy_landau)

SEPARATED = "separated"
OVERLAPPED = "overlapped"
B_ZERO = "b_zero"


class TruncatedLadderError(ArithmeticError):
    """A Landau sum lost a non-negligible tail to the spectrum's hard limit."""


@dataclass(frozen=True)
class ViscosityValue:
    """A viscosity with its channel decomposition.

    value = Re(RA) - Re(RR) [+ Re(II) for Hall] by construction.
    """
    value: float
    channels: dict[str, float] = field(default_factory=dict)
    regime_tag: str = B_ZERO
    low_confidence: bool = False


# ---------------------------------------------------------------------------
# radial momentum integral, B = 0
# ---------------------------------------------------------------------------

def _t_integral(a, b, T: float):
    """Exact int_0^T t dt / ((a - t)(b - t)), element-wise over arrays.

    Principal logs are valid here: Im(a - t) is constant along the real-t
    path, and for real a, b both endpoint logs sit on the same side of the
    cut. Near-degenerate a ~ b (a == b in the RR channel) takes the
    confluent form; each branch is evaluated only on its own elements.
    Scalar input gives a scalar.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex),
                               np.asarray(b, dtype=complex))
    out = np.empty(a.shape, dtype=complex)
    far = np.abs(a - b) > 1e-8 * (np.abs(a) + np.abs(b))
    af, bf = a[far], b[far]
    out[far] = (af * (np.log(af) - np.log(af - T))
                - bf * (np.log(bf) - np.log(bf - T))) / (bf - af)
    m = 0.5 * (a[~far] + b[~far])
    out[~far] = m / (m - T) - 1.0 + np.log(m - T) - np.log(m)
    return out[()]


def _k_kernel(z1, z2, params: ModelParams):
    """z1 z2 * int_0^{Ec} du u^3 / ((z1^2-u^2)(z2^2-u^2)), u = hbar v_f k,
    element-wise over arrays."""
    T = params.cutoff_Ec ** 2
    return 0.5 * z1 * z2 * _t_integral(z1 * z1, z2 * z2, T)


def _pole_points(z: complex, T: float) -> list[float]:
    pts = set()
    tr, ti = (z * z).real, abs((z * z).imag)
    mag = abs(z) ** 2
    for p in (tr - 10 * ti, tr - ti, tr, tr + ti, tr + 10 * ti,
              0.1 * mag, mag, 10 * mag):
        if 1e-300 < p < T:
            pts.add(p)
    return sorted(pts)


def _k_kernel_quad(z1: complex, z2: complex, params: ModelParams,
                   epsrel: float = 1e-9) -> complex:
    """Adaptive Gauss-Kronrod evaluation of _k_kernel (validation route)."""
    T = params.cutoff_Ec ** 2
    a, b = z1 * z1, z2 * z2
    pts = sorted(set(_pole_points(z1, T) + _pole_points(z2, T)))

    def f_re(t):
        return (t / ((a - t) * (b - t))).real

    def f_im(t):
        return (t / ((a - t) * (b - t))).imag

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        re, _ = quad(f_re, 0.0, T, points=pts, limit=500, epsabs=0.0,
                     epsrel=epsrel)
        im, _ = quad(f_im, 0.0, T, points=pts, limit=500, epsabs=0.0,
                     epsrel=epsrel)
    return 0.5 * z1 * z2 * (re + 1j * im)


def _require_zero_temperature(params: ModelParams) -> None:
    """The static Kubo formulas here are zero-temperature ones."""
    if params.temperature > 0:
        raise ValueError("static viscosities are zero-temperature formulas; "
                         f"got temperature {params.temperature} eV")


def _b0_prefactor(params: ModelParams) -> float:
    return (params.degeneracy / 4.0) / (2.0 * math.pi ** 2 * params.hbar_vf ** 2)


def _b0_sigma(E: float, params: ModelParams,
              sigma: SelfEnergySolution | complex | None) -> complex:
    if sigma is None:
        return solve_self_energy_b0(E, params, drop_real_part=True).sigma
    if isinstance(sigma, SelfEnergySolution):
        return sigma.sigma
    return sigma


def shear_b0_numeric(E: float, params: ModelParams, *,
                     sigma: SelfEnergySolution | complex | None = None,
                     method: str = "quad") -> ViscosityValue:
    """Static shear viscosity at B = 0 from the radial Kubo integral.

    method="quad" uses adaptive Gauss-Kronrod with pole-aware subdivision;
    method="exact" uses the closed antiderivative of the same integrand.
    """
    if method not in ("quad", "exact"):
        raise ValueError(f"unknown method {method!r}")
    _require_zero_temperature(params)
    s = _b0_sigma(E, params, sigma)
    zR = E - s
    zA = E - s.conjugate()
    kern = _k_kernel_quad if method == "quad" else _k_kernel
    pref = _b0_prefactor(params)
    ra = pref * kern(zR, zA, params).real
    rr = pref * kern(zR, zR, params).real
    return ViscosityValue(value=ra - rr, channels={"RA": ra, "RR": rr},
                          regime_tag=B_ZERO)


def shear_b0_analytic(E: float, params: ModelParams) -> float:
    """Weak-disorder closed form:
    (hbar / 8 pi^2 (hbar v_f)^2) [A E^2 + (3/A)(pi|E| + Ec A e^{-A/2})^2]."""
    A = params.disorder_A
    g0 = params.cutoff_Ec * A * math.exp(-A / 2.0)
    return (params.degeneracy / 4.0) / (8.0 * math.pi ** 2 * params.hbar_vf ** 2) * (
        A * E * E + (3.0 / A) * (math.pi * abs(E) + g0) ** 2)


# ---------------------------------------------------------------------------
# Landau-level sums, B != 0
# ---------------------------------------------------------------------------

def _g_array(z: complex, spectrum: LandauSpectrum) -> np.ndarray:
    """g_n = z / (z^2 - n (hbar w_c)^2), n = 0..N_c; n = 0 counted once."""
    n = np.arange(spectrum.n_cutoff + 1)
    return z / (z * z - n * spectrum.hbar_omega_c ** 2)


def shear_pair_sums_direct(z: complex,
                           spectrum: LandauSpectrum) -> tuple[complex, complex]:
    """(S_RA, S_RR) = sum_{n=0}^{N_c-2} (n+1) g_n(z) g_{n+2}(z_s) with
    z_s = conj(z) (RA) or z (RR), summed level by level."""
    g = _g_array(z, spectrum)
    w = np.arange(spectrum.n_cutoff - 1) + 1.0
    return (np.sum(w * g[:-2] * np.conjugate(g[2:])),
            np.sum(w * g[:-2] * g[2:]))


def _pair_sum(zr: complex, zs: complex, W: float, hi: int) -> complex:
    """sum_{n=0}^{hi} (n+1) g_n(zr) g_{n+2}(zs) by partial fractions in n."""
    a, b = zr * zr / W, zs * zs / W
    fractions = ((a + 1.0) * pole_sum(a, 0, hi)
                 - (b - 1.0) * pole_sum(b - 2.0, 0, hi))
    return fractions * zr * zs / (W * W * (b - 2.0 - a))


def shear_pair_sums(z: complex,
                    spectrum: LandauSpectrum) -> tuple[complex, complex]:
    """The sums of shear_pair_sums_direct in O(1) by partial fractions.

    Like landau_green_sum, the ladder is summed directly once
    |z^2 / (hbar w_c)^2| > N_c, where the digamma terms cancel.
    """
    W = spectrum.hbar_omega_c ** 2
    if abs(z * z / W) > spectrum.n_cutoff:
        return shear_pair_sums_direct(z, spectrum)
    hi = spectrum.n_cutoff - 2
    return _pair_sum(z, z.conjugate(), W, hi), _pair_sum(z, z, W, hi)


_TAIL_TOL = 1e-3  # largest share of the shear sum allowed in a truncated tail


def _check_tail(z: complex, spectrum: LandauSpectrum) -> None:
    """Raise if the last 10% of the ladder carries more than _TAIL_TOL of the
    positive-definite sum (n+1) Im g_n Im g_{n+2}.

    Summed level by level: at gap roots (Im z ~ 1e-15) the same sum written
    as (Re S_RA - Re S_RR)/2 is rounding noise.
    """
    g = _g_array(z, spectrum)
    terms = (np.arange(spectrum.n_cutoff - 1) + 1.0) * g[:-2].imag * g[2:].imag
    total = np.sum(terms)
    if total > 0:
        tail = np.sum(terms[-max(1, len(terms) // 10):])
        if abs(tail) > _TAIL_TOL * abs(total):
            raise TruncatedLadderError(
                "Landau sum truncated before the tail converged; rebuild the "
                f"spectrum with a larger hard_limit (n_cutoff={spectrum.n_cutoff})")


def _landau_sigma(E: float, params: ModelParams, spectrum: LandauSpectrum,
                  sigma: SelfEnergySolution | complex | None) -> complex:
    if sigma is None:
        return solve_self_energy_landau(E, params, spectrum).sigma
    if isinstance(sigma, SelfEnergySolution):
        return sigma.sigma
    return sigma


def detect_regime(E: float, params: ModelParams, spectrum: LandauSpectrum,
                  sigma: complex) -> tuple[str, float, bool]:
    """(tag, w_eff*tau, low_confidence): separated iff w_eff*tau > 2."""
    if sigma.imag >= 0:
        return SEPARATED, math.inf, False
    wct = effective_cyclotron(E, spectrum) * relaxation_time(sigma)
    if wct > 2.0:
        return SEPARATED, wct, False
    if wct < 0.5:
        return OVERLAPPED, wct, False
    return (SEPARATED if wct >= 1.0 else OVERLAPPED), wct, True


def shear_bfield_numeric(E: float, params: ModelParams,
                         spectrum: LandauSpectrum, *,
                         sigma: SelfEnergySolution | complex | None = None
                         ) -> ViscosityValue:
    """Static shear viscosity from the Landau-level Kubo sums.

    RA = (hbar^3 w_c^2 / 4 pi^2 l_B^2) sum_n (n+1)(g^R_n g^A_{n+2} + g^R_{n+2} g^A_n)
    RR = (hbar^3 w_c^2 / 2 pi^2 l_B^2) sum_n (n+1) g^R_n g^R_{n+2}

    evaluated by shear_pair_sums; on truncated spectra the tail is checked
    first (TruncatedLadderError).
    """
    _require_zero_temperature(params)
    s = _landau_sigma(E, params, spectrum, sigma)
    z = E - s
    if spectrum.truncated:
        _check_tail(z, spectrum)
    s_ra, s_rr = shear_pair_sums(z, spectrum)
    scale = (params.degeneracy / 4.0) * spectrum.hbar_omega_c ** 2 / (
        math.pi ** 2 * spectrum.l_B ** 2)
    ra = 0.5 * scale * s_ra.real
    rr = 0.5 * scale * s_rr.real
    tag, _, low = detect_regime(E, params, spectrum, s)
    return ViscosityValue(value=ra - rr, channels={"RA": ra, "RR": rr},
                          regime_tag=tag, low_confidence=low)


def nearest_level(E: float, spectrum: LandauSpectrum) -> tuple[int, int]:
    """(n, s) of the Landau level closest in energy to E."""
    hwc = spectrum.hbar_omega_c
    n0 = int(round((E / hwc) ** 2))
    best, best_d = (0, 1), abs(E)
    for n in {max(0, n0 - 1), n0, n0 + 1}:
        n = min(n, spectrum.n_cutoff)
        for sgn in (1, -1):
            d = abs(E - sgn * hwc * math.sqrt(n))
            if d < best_d:
                best, best_d = (n, sgn if n > 0 else 1), d
    return best


def level_index_below(E: float, spectrum: LandauSpectrum) -> int:
    """Plateau index N: number of n >= 1 levels between the Dirac point and E."""
    return int(math.floor((abs(E) / spectrum.hbar_omega_c) ** 2))


def shear_bfield_separated(E: float, params: ModelParams,
                           spectrum: LandauSpectrum) -> float:
    """(N^2 + delta_{N,0}) (hbar / 2 pi^2 l_B^2)(1 - 2 A eps^2), eps measured
    from the nearest level center."""
    n, s = nearest_level(E, spectrum)
    eps = (E - s * spectrum.hbar_omega_c * math.sqrt(n)) / (2.0 * spectrum.hbar_omega_c)
    quantum = n * n + (1 if n == 0 else 0)
    return (params.degeneracy / 4.0) * quantum / (2.0 * math.pi ** 2 * spectrum.l_B ** 2) * (
        1.0 - 2.0 * params.disorder_A * eps * eps)


def shear_bfield_overlapped(E: float, params: ModelParams,
                            spectrum: LandauSpectrum,
                            sigma: complex) -> float:
    """(1/8) E^2 rho tau / (1+4 w^2 t^2) + (rho/32 tau)(3+16 w^2 t^2)/(1+4 w^2 t^2)."""
    rho = dos(E, sigma, params, spectrum.b_field)
    tau = relaxation_time(sigma)
    wct = effective_cyclotron(E, spectrum) * tau
    d = 1.0 + 4.0 * wct * wct
    return (E * E * rho * tau / 8.0) / d + (rho / (32.0 * tau)) * (3.0 + 16.0 * wct * wct) / d


def shear_bfield_sdh(E: float, params: ModelParams,
                     spectrum: LandauSpectrum) -> float:
    """Evaluated overlapped form for |E| >> hbar w_c, with the
    Shubnikov-de Haas cosine (period (hbar w_c)^2 in E^2)."""
    if E == 0:
        raise ValueError("the oscillatory form needs E != 0")
    A = params.disorder_A
    W = spectrum.hbar_omega_c ** 2
    alpha = (A / math.pi) * W / (2.0 * E * abs(E))
    delta = math.exp(-4.0 * math.pi ** 2 * E * E / (A * W))
    d = 1.0 + 4.0 * alpha * alpha
    osc = 1.0 + (4.0 * alpha * alpha * delta / d) * math.cos(2.0 * math.pi * E * abs(E) / W)
    return (params.degeneracy / 4.0) / (4.0 * math.pi ** 2 * spectrum.l_B ** 2) * (
        A * E * E / (W * d)) * osc


def shear_bfield_dirac_limit(params: ModelParams,
                             spectrum: LandauSpectrum) -> float:
    """Near-Dirac-point overlapped form:
    (3A / 8 pi^2 (hbar v_f)^2) [Ec e^{-A/2} + (hbar w_c)^2 / (2 Ec e^{-A/2})]^2."""
    A = params.disorder_A
    gamma0 = params.cutoff_Ec * math.exp(-A / 2.0)
    width = gamma0 + spectrum.hbar_omega_c ** 2 / (2.0 * gamma0)
    return (params.degeneracy / 4.0) * 3.0 * A / (
        8.0 * math.pi ** 2 * params.hbar_vf ** 2) * width * width


def shear_bfield_analytic(E: float, params: ModelParams,
                          spectrum: LandauSpectrum, *,
                          sigma: SelfEnergySolution | complex | None = None,
                          regime: str | None = None) -> ViscosityValue:
    """Closed-form static shear in a field, dispatched on w_eff * tau."""
    s = _landau_sigma(E, params, spectrum, sigma)
    if regime is None:
        tag, _, low = detect_regime(E, params, spectrum, s)
    else:
        tag, low = regime, False
    if tag == SEPARATED:
        val = shear_bfield_separated(E, params, spectrum)
    else:
        val = shear_bfield_overlapped(E, params, spectrum, s)
    return ViscosityValue(value=val, regime_tag=tag, low_confidence=low)


# ---------------------------------------------------------------------------
# static Hall viscosity, B != 0
# ---------------------------------------------------------------------------

_GAP_FLOOR = 1e-15  # minimal |Im Sigma| used inside gaps to keep G retarded


def _pair_energies(spectrum: LandauSpectrum):
    """(E_a, E_b, n+1) arrays for the four (s, s') chains of |dn| = 2 pairs."""
    hwc = spectrum.hbar_omega_c
    n = np.arange(spectrum.n_cutoff - 1)
    out = []
    for s in (1.0, -1.0):
        for sp in (1.0, -1.0):
            out.append((s * hwc * np.sqrt(n), sp * hwc * np.sqrt(n + 2),
                        n + 1.0))
    return out


def hall_static_numeric(E: float, params: ModelParams,
                        spectrum: LandauSpectrum, *,
                        sigma: SelfEnergySolution | complex | None = None) -> ViscosityValue:
    """Static Hall viscosity: Fermi-surface (I) channels at E plus the
    Fermi-sea (II) channel.

    The zero-temperature Fermi-sea integral is evaluated exactly through the
    antiderivatives of (1 - dSigma/dw) G^n, leaving closed expressions in
    z(E) = E - Sigma(E); the deep sea cancels pairwise.
    """
    _require_zero_temperature(params)
    s = _landau_sigma(E, params, spectrum, sigma)
    if s.imag > -_GAP_FLOOR:
        s = complex(s.real, -_GAP_FLOOR)
    z = E - s
    W = spectrum.hbar_omega_c ** 2
    lb2 = spectrum.l_B ** 2
    scale = params.degeneracy / 4.0

    sum_i = 0.0
    sum_surface = 0.0 + 0.0j
    sum_log = 0.0
    for Ea, Eb, w in _pair_energies(spectrum):
        Ga = 1.0 / (z - Ea)
        Gb = 1.0 / (z - Eb)
        sum_i += 2.0 * np.sum(w * (Ga.imag * Gb.real - Ga.real * Gb.imag))
        delta = Eb - Ea
        sum_surface += np.sum(w * (Ga + Gb) / delta)
        sum_log += np.sum(w * (2.0 / delta ** 2)
                          * (np.log(z - Ea) - np.log(z - Eb)).imag)

    eta_i = scale * W / (16.0 * math.pi ** 2 * lb2) * sum_i
    eta_ii = scale * W / (8.0 * math.pi ** 2 * lb2) * (sum_surface.imag - sum_log)
    tag, _, low = detect_regime(E, params, spectrum, s)
    return ViscosityValue(value=eta_i + eta_ii,
                          channels={"RA": eta_i, "RR": 0.0, "II": eta_ii},
                          regime_tag=tag, low_confidence=low)


def hall_fermi_sea_quadrature(E: float, params: ModelParams,
                              spectrum: LandauSpectrum, *,
                              nodes_per_level: int = 160,
                              coarse_nodes: int = 1200,
                              pad_widths: float = 10.0,
                              bottom_pad: float | None = None,
                              solver_tol: float = 1e-9) -> float:
    """Fermi-sea (II) channel by direct quadrature (validation route).

    Solves Sigma(w) in one array call on a composite grid (refined
    around every Landau level) and integrates
    i (hbar w_c)^2/(8 pi^2 l_B^2) sum (n+1) Delta (1 - Sigma') G_a^2 G_b^2
    as a trapezoid sum along the path z(w) = w - Sigma(w), using
    (1 - dSigma/dw) dw = dz; this stays accurate across the sqrt-edges of
    the solved self-energy where dSigma/dw diverges. Intended for small
    test spectra in regimes without interior spectral gaps (the solved
    real-axis branch is ambiguous inside gaps).
    """
    hwc = spectrum.hbar_omega_c
    gamma = hwc / math.sqrt(2.0 * params.disorder_A)
    if bottom_pad is None:
        bottom_pad = 40.0 * gamma
    bottom = -hwc * math.sqrt(spectrum.n_cutoff) - bottom_pad
    grid = [np.linspace(bottom, E, coarse_nodes)]
    for n in range(spectrum.n_cutoff + 1):
        for sgn in (1, -1):
            en = sgn * hwc * math.sqrt(n)
            lo = max(bottom, en - pad_widths * gamma)
            hi = min(E, en + pad_widths * gamma)
            if hi > lo:
                grid.append(np.linspace(lo, hi, nodes_per_level))
    om = np.unique(np.concatenate(grid))
    min_step = 1e-4 * gamma / nodes_per_level
    keep = np.concatenate(([True], np.diff(om) > min_step))
    om = om[keep]

    z = om - solve_self_energy_landau(om, params, spectrum,
                                      tol=solver_tol).sigma
    integrand = np.zeros(om.size, dtype=complex)
    for Ea, Eb, w in _pair_energies(spectrum):
        Ga = 1.0 / (z[:, None] - Ea[None, :])
        Gb = 1.0 / (z[:, None] - Eb[None, :])
        delta = (Eb - Ea)[None, :]
        integrand += np.sum(w[None, :] * delta * Ga ** 2 * Gb ** 2, axis=1)
    total = np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(z))
    W = hwc ** 2
    scale = params.degeneracy / 4.0
    return scale * W / (8.0 * math.pi ** 2 * spectrum.l_B ** 2) * (1j * total).real


def hall_static_analytic(E: float, params: ModelParams,
                         spectrum: LandauSpectrum, *,
                         sigma: SelfEnergySolution | complex | None = None,
                         regime: str | None = None) -> ViscosityValue:
    """Closed-form static Hall viscosity (quantized plateaus in gaps)."""
    s = _landau_sigma(E, params, spectrum, sigma)
    if regime is None:
        tag, _, low = detect_regime(E, params, spectrum, s)
    else:
        tag, low = regime, False
    scale = params.degeneracy / 4.0
    wc_eff = effective_cyclotron(E, spectrum)
    if s.imag < 0:
        tau = relaxation_time(s)
        rho = dos(E, s, params, spectrum.b_field)
    else:
        tau, rho = math.inf, 0.0
    if tag == SEPARATED:
        N = level_index_below(E, spectrum)
        quantized = math.copysign(1.0, E) if E != 0 else 0.0
        quantized *= (2 * N * N + 2 * N + 1) * scale / (4.0 * math.pi * spectrum.l_B ** 2)
        if math.isinf(tau) or math.isinf(wc_eff):
            corr = 0.0
        else:
            corr = rho * E * E / (16.0 * wc_eff * (1.0 + 4.0 * (wc_eff * tau) ** 2))
        val = quantized - corr
    else:
        wct = wc_eff * tau
        val = rho * wc_eff * tau * tau * E * E / (4.0 * (1.0 + 4.0 * wct * wct))
    return ViscosityValue(value=val, regime_tag=tag, low_confidence=low)
