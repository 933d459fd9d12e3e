"""Frequency-dependent shear and Hall viscosities.

B = 0: zero-temperature window integrals of the Kubo kernel over
omega in [E - Omega, E], with the self-energy solved at every node.
B != 0: Landau-level transition sums with |dn| = 2, either with the SCBA
self-energy or with a constant broadening for clean-limit studies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import LandauSpectrum, ModelParams
from .kubo_static import (_b0_prefactor, _k_kernel, _pair_energies,
                          hall_static_numeric, shear_b0_numeric,
                          shear_bfield_numeric)
from .scba import solve_self_energy_b0, solve_self_energy_landau

ELECTRON_HOLE = "electron_hole"
ELECTRON_ELECTRON = "electron_electron"
HOLE_HOLE = "hole_hole"

# Gauss-Legendre nodes per panel of the frequency windows
_B0_NODES = 24
_BFIELD_NODES = 16


@dataclass(frozen=True)
class Transition:
    """An allowed |dn| = 2 transition between an occupied and an empty level."""
    from_state: tuple[int, int]
    to_state: tuple[int, int]
    frequency: float        # |dE| in eV
    weight: float           # n_low + 1
    kind: str


def _classify(e_from: float, e_to: float) -> str:
    if e_from == 0.0 or e_to == 0.0:
        return ELECTRON_HOLE
    if e_from < 0.0 < e_to or e_to < 0.0 < e_from:
        return ELECTRON_HOLE
    return ELECTRON_ELECTRON if e_from > 0.0 else HOLE_HOLE


def transition_table(e_fermi: float, spectrum: LandauSpectrum,
                     omega_max: float) -> list[Transition]:
    """All occupied -> empty level pairs with |dn| = 2 and |dE| <= omega_max.

    A level is occupied iff its energy is <= e_fermi. Deterministic order:
    by frequency, then level indices.
    """
    if omega_max <= 0:
        raise ValueError(f"omega_max must be positive, got {omega_max}")
    hwc = spectrum.hbar_omega_c
    out: list[Transition] = []
    for n in range(spectrum.n_cutoff - 1):
        lo_states = [(n, 1)] if n == 0 else [(n, 1), (n, -1)]
        hi_states = [(n + 2, 1), (n + 2, -1)]
        for a in lo_states:
            ea = a[1] * hwc * math.sqrt(a[0])
            for b in hi_states:
                eb = b[1] * hwc * math.sqrt(b[0])
                for (i, ei), (f, ef) in (((a, ea), (b, eb)), ((b, eb), (a, ea))):
                    if ei <= e_fermi < ef and 0.0 < ef - ei <= omega_max:
                        out.append(Transition(from_state=i, to_state=f,
                                              frequency=ef - ei,
                                              weight=float(n + 1),
                                              kind=_classify(ei, ef)))
    out.sort(key=lambda t: (t.frequency, t.from_state, t.to_state))
    return out


# ---------------------------------------------------------------------------
# B = 0 window integrals
# ---------------------------------------------------------------------------

def _gauss_panels(lo: float, hi: float, breakpoints, n_per: int):
    xs, ws = np.polynomial.legendre.leggauss(n_per)
    bks = sorted({lo, hi, *[b for b in breakpoints if lo < b < hi]})
    nodes, weights = [], []
    for a, b in zip(bks[:-1], bks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * xs)
        weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _b0_integrand(omega: np.ndarray, big_omega: float,
                  params: ModelParams) -> np.ndarray:
    """Re[K_RA - K_RR] at the window nodes omega, with the Re-dropped
    self-energy solved at every omega and omega + Omega in one call."""
    sig = solve_self_energy_b0(np.concatenate((omega, omega + big_omega)),
                               params, drop_real_part=True).sigma
    s2, s1 = sig[:omega.size], sig[omega.size:]
    z1 = omega + big_omega - s1
    return (_k_kernel(z1, omega - s2.conjugate(), params).real
            - _k_kernel(z1, omega - s2, params).real)


def shear_dynamic_b0(E: float, Omega: float, params: ModelParams, *,
                     return_split: bool = False):
    """Dynamic shear viscosity at B = 0.

    Even in Omega. With return_split=True also returns the interband
    (electron-hole, omega < 0 < omega + Omega) and intraband window parts.
    """
    if Omega == 0:
        raise ValueError("Omega must be nonzero; use the static route at 0")
    om = abs(Omega)
    T = params.temperature
    if T > 0:
        lo, hi = E - om - 8.0 * T, E + 8.0 * T
        nodes, weights = _gauss_panels(lo, hi, [0.0, -om, E - om, E,
                                                0.5 * (lo + hi)], _B0_NODES)
        weights = weights * (_fermi(nodes, E, T) - _fermi(nodes + om, E, T))
        keep = weights != 0.0
        nodes, weights = nodes[keep], weights[keep]
    else:
        lo, hi = E - om, E
        cuts = sorted({lo, hi, *[x for x in (0.0, -om) if lo < x < hi]})
        panels = [_gauss_panels(a, b, [-0.5 * om,  # interband 2w + Omega = 0
                                       a + (b - a) / 3.0, b - (b - a) / 3.0],
                                _B0_NODES)
                  for a, b in zip(cuts[:-1], cuts[1:])]
        nodes = np.concatenate([x for x, _ in panels])
        weights = np.concatenate([w for _, w in panels])
    pref = _b0_prefactor(params) / om
    v = pref * weights * _b0_integrand(nodes, om, params)
    tot = float(np.sum(v))
    eh = float(np.sum(v[(nodes < 0.0) & (0.0 < nodes + om)]))
    if return_split:
        return tot, eh, tot - eh
    return tot


def _fermi(x: np.ndarray | float, mu: float, temperature: float):
    if temperature <= 0:
        return np.where(np.asarray(x) <= mu, 1.0, 0.0)
    return expit((mu - np.asarray(x)) / temperature)


def shear_dynamic_b0_eh_limit(Omega: float, params: ModelParams) -> float:
    """Closed form for E << Omega: (Omega^2/16 hbar v_f^2)(1/2 + 16/15A)."""
    if Omega <= 0:
        raise ValueError(f"Omega must be positive, got {Omega}")
    return (params.degeneracy / 4.0) * Omega ** 2 / (16.0 * params.hbar_vf ** 2) * (
        0.5 + 16.0 / (15.0 * params.disorder_A))


def shear_dynamic_b0_ee_limit(E: float, Omega: float,
                              params: ModelParams) -> float:
    """Closed form for 0 < Omega << E:
    (E^2/2 pi^2 hbar v_f^2)(pi^2/A + A E^2/((A^2/pi^2) Omega^2 + 4 E^2))."""
    if Omega <= 0:
        raise ValueError(f"Omega must be positive, got {Omega}")
    A = params.disorder_A
    return (params.degeneracy / 4.0) * E * E / (2.0 * math.pi ** 2 * params.hbar_vf ** 2) * (
        math.pi ** 2 / A
        + A * E * E / ((A / math.pi) ** 2 * Omega ** 2 + 4.0 * E * E))


# ---------------------------------------------------------------------------
# B != 0 transition sums
# ---------------------------------------------------------------------------

def shear_dynamic_bfield(E: float, Omega: float, params: ModelParams,
                         spectrum: LandauSpectrum,
                         broadening: float | None = None) -> float:
    """Dynamic shear viscosity in a field (|dn| = 2 transition sums).

    broadening=None solves the SCBA self-energy at every omega node; a float
    uses constant-width Lorentzian levels (clean-limit studies). Even in
    Omega. Only levels with |E_level| below the window reach plus a pad are
    kept; the pad puts the dropped Lorentzian tails below 1e-4 relative.
    """
    if Omega == 0:
        raise ValueError("Omega must be nonzero")
    om = abs(Omega)
    T = params.temperature
    pad = 8.0 * T if T > 0 else 0.0
    lo, hi = E - om - pad, E + pad
    gam = broadening if broadening is not None else (
        spectrum.hbar_omega_c / math.sqrt(2.0 * params.disorder_A))
    level_window = (max(abs(lo), abs(hi)) + om
                    + max(100.0 * gam, 8.0 * spectrum.hbar_omega_c))
    pairs = []
    for Ea, Eb, w in _pair_energies(spectrum):
        keep = (np.abs(Ea) <= level_window) | (np.abs(Eb) <= level_window)
        if np.any(keep):
            pairs.append((Ea[keep], Eb[keep], w[keep]))

    bks = []
    for Ea, Eb, _ in pairs:
        for lev in (Ea, Eb):
            sel = lev[(lev > lo - om - 8 * gam) & (lev < hi + om + 8 * gam)]
            for e in sel:
                bks.extend((e, e - om, e - 4 * gam, e + 4 * gam,
                            e - om - 4 * gam, e - om + 4 * gam))
    # cluster breakpoints closer than a quarter width: panel count control
    bks = sorted(b for b in set(bks) if lo < b < hi)
    merged = []
    for b in bks:
        if not merged or b - merged[-1] > 0.25 * gam:
            merged.append(b)
    nodes, wq = _gauss_panels(lo, hi, merged, _BFIELD_NODES)

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
    W = spectrum.hbar_omega_c ** 2
    pref = (params.degeneracy / 4.0) * W / (
        8.0 * math.pi ** 2 * spectrum.l_B ** 2 * om)
    return pref * float(np.sum(wq * occ * tot))


def hall_dynamic(E: float, Omega: float, params: ModelParams,
                 spectrum: LandauSpectrum, broadening: float, *,
                 reduced: bool = False) -> float:
    """Dynamic Hall viscosity as a sum of kink resonances.

    The full form keeps the frequency-shifted occupation factors; the
    reduced form evaluates them at the level energies. In both, swapped
    transition partners enter with a minus sign and cancel pairwise when
    both directions are Pauli-allowed.
    """
    if Omega == 0:
        raise ValueError("Omega must be nonzero")
    if broadening <= 0:
        raise ValueError(f"broadening must be positive, got {broadening}")
    om = abs(Omega)
    g2 = broadening * broadening
    T = params.temperature

    def f(x):
        return _fermi(x, E, T)

    tot = 0.0
    for Ea, Eb, w in _pair_energies(spectrum):
        for ea, eb, sgn in ((Ea, Eb, 1.0), (Eb, Ea, -1.0)):
            x = om - eb + ea
            kink = x / (x * x + g2)
            if reduced:
                tot += sgn * np.sum((w / om) * (f(eb) - f(ea)) * kink)
            else:
                x2 = om + eb - ea
                kink2 = x2 / (x2 * x2 + g2)
                tot += sgn * np.sum((w / om) * (
                    2.0 * (f(ea + om) - f(ea)) * kink
                    + (f(eb + om) - f(ea - om)) * kink2))
    W = spectrum.hbar_omega_c ** 2
    pref = (params.degeneracy / 4.0) * W / (8.0 * math.pi * spectrum.l_B ** 2)
    return pref * float(tot)


def counterpart_pair_sum(n: int, e_fermi: float, Omega: float,
                         params: ModelParams, spectrum: LandauSpectrum,
                         broadening: float) -> float:
    """Reduced-form contribution of the mutually-cancelling interband pair
    (n,-) -> (n+2,+) and (n,+) -> (n+2,-) alone (diagnostic for the
    cancellation test)."""
    hwc = spectrum.hbar_omega_c
    g2 = broadening * broadening
    om = abs(Omega)

    def f(x):
        return 1.0 if x <= e_fermi else 0.0

    tot = 0.0
    for s, sp in ((-1.0, 1.0), (1.0, -1.0)):
        ea = s * hwc * math.sqrt(n)
        eb = sp * hwc * math.sqrt(n + 2)
        for a, b, sgn in ((ea, eb, 1.0), (eb, ea, -1.0)):
            x = om - b + a
            tot += sgn * ((n + 1) / om) * (f(b) - f(a)) * x / (x * x + g2)
    W = hwc ** 2
    pref = (params.degeneracy / 4.0) * W / (8.0 * math.pi * spectrum.l_B ** 2)
    return pref * tot


@dataclass(frozen=True)
class StaticLimitReport:
    """Relative drift of the dynamic quantities at a small probe frequency."""
    omega: float
    shear_static: float
    shear_dynamic: float
    shear_ratio: float
    hall_static: float | None = None
    hall_dynamic: float | None = None
    hall_ratio: float | None = None
    regime_tag: str = "b_zero"


def static_limit_check(E: float, params: ModelParams,
                       spectrum: LandauSpectrum | None = None, *,
                       omega: float = 1e-3,
                       broadening: float | None = None) -> StaticLimitReport:
    """|eta(omega) - eta_static| / eta_static for shear (and Hall if a
    spectrum is given)."""
    if spectrum is None:
        st = shear_b0_numeric(E, params, method="exact").value
        dy = shear_dynamic_b0(E, omega, params)
        return StaticLimitReport(omega=omega, shear_static=st,
                                 shear_dynamic=dy,
                                 shear_ratio=abs(dy / st - 1.0),
                                 regime_tag="b_zero")
    st_v = shear_bfield_numeric(E, params, spectrum)
    dy = shear_dynamic_bfield(E, omega, params, spectrum, broadening)
    hall_st = hall_static_numeric(E, params, spectrum).value
    gam = broadening if broadening is not None else (
        spectrum.hbar_omega_c / math.sqrt(2.0 * params.disorder_A))
    hall_dy = hall_dynamic(E, omega, params, spectrum, gam)
    return StaticLimitReport(
        omega=omega, shear_static=st_v.value, shear_dynamic=dy,
        shear_ratio=abs(dy / st_v.value - 1.0) if st_v.value else math.inf,
        hall_static=hall_st, hall_dynamic=hall_dy,
        hall_ratio=abs(hall_dy / hall_st - 1.0) if hall_st else math.inf,
        regime_tag=st_v.regime_tag)
