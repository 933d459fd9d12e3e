"""Independent references for the runtime's closed forms: the Landau
ladders summed level by level and the Kubo integrals by quadrature. Only
`diracvisc validate` and the tests call them; no runtime module imports
this one, so neither a whole ladder nor scipy is on the runtime path."""
from __future__ import annotations

import math
import warnings

import numpy as np

from .model import LandauSpectrum, ModelParams
from .scba import level_width, solve_self_energy_landau
from .kubo_static import _radial
from .kubo_dynamic import (_check_broadening, _hall_chains,
                           _hall_dynamic_terms, _hall_prefactor, _points)

# Longest ladder a reference materializes: just above the 393,809 levels
# of B = 0.1 T at the default cutoff.
MAX_MATERIALIZED_LEVELS = 400_000


def levels(spectrum: LandauSpectrum) -> np.ndarray:
    """n = 0..N_c, the whole ladder. Raises ValueError past
    MAX_MATERIALIZED_LEVELS rather than cut the ladder short."""
    if spectrum.n_cutoff > MAX_MATERIALIZED_LEVELS:
        raise ValueError(
            f"B = {spectrum.b_field:g} T needs N_c = {spectrum.n_cutoff} "
            f"Landau levels; level-by-level sums stop at "
            f"{MAX_MATERIALIZED_LEVELS}")
    return np.arange(spectrum.n_cutoff + 1)


def landau_green_sum_direct(z: complex, spectrum: LandauSpectrum) -> complex:
    """sum_{n=0}^{N_c} w_n z / (z^2 - n (hbar w_c)^2), weights (1, 2, 2, ...),
    summed level by level (scba.landau_green_sum)."""
    en2 = levels(spectrum) * spectrum.hbar_omega_c ** 2
    weights = np.full(en2.shape, 2.0)
    weights[0] = 1.0
    return np.sum(weights * z / (z * z - en2))


def shear_pair_sums_direct(z: complex,
                           spectrum: LandauSpectrum) -> tuple[complex, complex]:
    """(S_RA, S_RR) = sum_{n=0}^{N_c-2} (n+1) g_n(z) g_{n+2}(z_s) with
    z_s = conj(z) (RA) or z (RR), summed level by level (shear_pair_sums)."""
    g = z / (z * z - levels(spectrum) * spectrum.hbar_omega_c ** 2)
    w = np.arange(spectrum.n_cutoff - 1) + 1.0
    return (np.sum(w * g[:-2] * np.conjugate(g[2:])),
            np.sum(w * g[:-2] * g[2:]))


def pair_energies(spectrum: LandauSpectrum):
    """(E_a, E_b, n+1) arrays for the four (s, s') chains of the pairs
    (n, n + 2) of the whole ladder: _hall_chains' unswapped columns."""
    ea, eb, w = _hall_chains(levels(spectrum)[:-2], spectrum.hbar_omega_c)
    return [(ea[:, c], eb[:, c], w[:, c]) for c in range(4)]


def hall_sums_direct(z: complex,
                     spectrum: LandauSpectrum) -> tuple[float, float, float]:
    """(I, Im surface, log) sums of hall_static_numeric, summed level by
    level over the four (s, s') chains (kubo_static._hall_sums)."""
    sum_i = 0.0
    sum_surface = 0.0 + 0.0j
    sum_log = 0.0
    for Ea, Eb, w in pair_energies(spectrum):
        Ga = 1.0 / (z - Ea)
        Gb = 1.0 / (z - Eb)
        sum_i += 2.0 * np.sum(w * (Ga.imag * Gb.real - Ga.real * Gb.imag))
        delta = Eb - Ea
        sum_surface += np.sum(w * (Ga + Gb) / delta)
        sum_log += np.sum(w * (2.0 / delta ** 2)
                          * (np.log(z - Ea) - np.log(z - Eb)).imag)
    return sum_i, sum_surface.imag, sum_log


def hall_dynamic_ladder_sum(E: float, Omega: float, params: ModelParams,
                            spectrum: LandauSpectrum, broadening: float, *,
                            reduced: bool = False) -> float:
    """kubo_dynamic.hall_dynamic at one point over every pair of the ladder,
    the terms rounded once (math.fsum): the reference its Fermi window is
    checked against."""
    e, om, _ = _points(E, Omega)
    chains = (c.ravel() for c in _hall_chains(levels(spectrum)[:-2],
                                              spectrum.hbar_omega_c))
    terms = _hall_dynamic_terms(e, om, *chains, _check_broadening(broadening),
                                params.temperature, reduced)
    return _hall_prefactor(params, spectrum) / om[0] * math.fsum(terms)


def counterpart_pair_sum(n: int, e_fermi: float, Omega: float,
                         params: ModelParams, spectrum: LandauSpectrum,
                         broadening: float) -> float:
    """Zero-temperature reduced-form contribution of the mutually-cancelling
    interband pair (n,-) -> (n+2,+) and (n,+) -> (n+2,-) alone, both
    directions (diagnostic for the cancellation test)."""
    # the (+,-) and (-,+) chains, both directions
    chains = (c[:, [1, 2, 5, 6]].ravel()
              for c in _hall_chains(np.array([n]), spectrum.hbar_omega_c))
    om = abs(Omega)
    terms = _hall_dynamic_terms(e_fermi, om, *chains, broadening, 0.0, True)
    return _hall_prefactor(params, spectrum) / om * float(np.sum(terms))


_QUAD_EPSREL = 1e-9  # relative tolerance of k_kernel_quad


def _pole_points(z: complex, T: float) -> list[float]:
    pts = set()
    tr, ti = (z * z).real, abs((z * z).imag)
    mag = abs(z) ** 2
    for p in (tr - 10 * ti, tr - ti, tr, tr + ti, tr + 10 * ti,
              0.1 * mag, mag, 10 * mag):
        if 1e-300 < p < T:
            pts.add(p)
    return sorted(pts)


def k_kernel_quad(z1: complex, z2: complex, params: ModelParams) -> complex:
    """Adaptive Gauss-Kronrod evaluation of kubo_static._k_kernel."""
    from scipy.integrate import quad  # slow to import; only this route uses it

    def integral(z1, z2, T):
        a, b = z1 * z1, z2 * z2
        pts = sorted(set(_pole_points(z1, T) + _pole_points(z2, T)))

        def f(t):
            return t / ((a - t) * (b - t))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re, _ = quad(lambda t: f(t).real, 0.0, T, points=pts, limit=500,
                         epsabs=0.0, epsrel=_QUAD_EPSREL)
            im, _ = quad(lambda t: f(t).imag, 0.0, T, points=pts, limit=500,
                         epsabs=0.0, epsrel=_QUAD_EPSREL)
        return re + 1j * im

    return _radial(integral, z1, z2, params.cutoff_Ec ** 2)


# hall_fermi_sea_quadrature's grid: uniform from 8 eV below the ladder up
# to E, plus 160 nodes within 10 level widths of every level
_SEA_COARSE_NODES = 4000
_SEA_LEVEL_NODES = 160
_SEA_PAD_WIDTHS = 10.0
_SEA_BOTTOM_PAD = 8.0
_SEA_SOLVER_TOL = 1e-9


def hall_fermi_sea_quadrature(E: float, params: ModelParams,
                              spectrum: LandauSpectrum) -> float:
    """Fermi-sea (II) channel of hall_static_numeric by direct quadrature.

    Solves Sigma(w) in one array call (tolerance _SEA_SOLVER_TOL) on a
    composite grid (refined around every Landau level) and integrates
    i (hbar w_c)^2/(8 pi^2 l_B^2) sum (n+1) Delta (1 - Sigma') G_a^2 G_b^2
    as a trapezoid sum along the path z(w) = w - Sigma(w), using
    (1 - dSigma/dw) dw = dz; this stays accurate across the sqrt-edges of
    the solved self-energy where dSigma/dw diverges. Intended for small
    test spectra in regimes without interior spectral gaps (the solved
    real-axis branch is ambiguous inside gaps).
    """
    hwc = spectrum.hbar_omega_c
    gamma = level_width(params, spectrum)
    bottom = -hwc * math.sqrt(spectrum.n_cutoff) - _SEA_BOTTOM_PAD
    grid = [np.linspace(bottom, E, _SEA_COARSE_NODES)]
    for n in levels(spectrum):
        for sgn in (1, -1):
            en = sgn * hwc * math.sqrt(n)
            lo = max(bottom, en - _SEA_PAD_WIDTHS * gamma)
            hi = min(E, en + _SEA_PAD_WIDTHS * gamma)
            if hi > lo:
                grid.append(np.linspace(lo, hi, _SEA_LEVEL_NODES))
    om = np.unique(np.concatenate(grid))
    min_step = 1e-4 * gamma / _SEA_LEVEL_NODES
    keep = np.concatenate(([True], np.diff(om) > min_step))
    om = om[keep]

    z = om - solve_self_energy_landau(om, params, spectrum,
                                      tol=_SEA_SOLVER_TOL).sigma
    integrand = np.zeros(om.size, dtype=complex)
    for Ea, Eb, w in pair_energies(spectrum):
        Ga = 1.0 / (z[:, None] - Ea[None, :])
        Gb = 1.0 / (z[:, None] - Eb[None, :])
        delta = (Eb - Ea)[None, :]
        integrand += np.sum(w[None, :] * delta * Ga ** 2 * Gb ** 2, axis=1)
    total = np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(z))
    W = hwc ** 2
    scale = params.degeneracy / 4.0
    return scale * W / (8.0 * math.pi ** 2 * spectrum.l_B ** 2) * (1j * total).real
