"""Model parameters, Landau spectra and stress-tensor matrix elements.

Units: hbar = 1 internally. Energies in eV, lengths in nm, magnetic field
in tesla, viscosities in hbar/nm^2. The default hbar*v_f = 0.6582 eV nm
(v_f = 1e6 m/s) reproduces the B = 10 T inter-level resonances at
0.084 / 0.162 / 0.313 eV.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# hbar/e in V s; numerically equal to hbar in eV s.
HBAR_OVER_E = 6.582119569e-16

DEFAULT_HBAR_VF = 0.6582   # eV nm
DEFAULT_CUTOFF = 7.2       # eV, band cutoff


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; the single source of units.

    disorder_A is the dimensionless scattering-strength parameter
    A = 4 pi (hbar v_f)^2 / (n_i V_0^2); larger A means weaker disorder.
    """
    disorder_A: float
    hbar_vf: float = DEFAULT_HBAR_VF        # eV nm
    cutoff_Ec: float = DEFAULT_CUTOFF       # eV
    degeneracy: int = 4                     # spin x valley
    temperature: float = 0.0                # k_B T in eV; 0 = strict zero-T

    def __post_init__(self):
        for name in ("hbar_vf", "cutoff_Ec", "disorder_A"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if self.degeneracy < 1:
            raise ValueError(f"degeneracy must be >= 1, got {self.degeneracy}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be finite and >= 0, "
                             f"got {self.temperature}")

    @property
    def k_cutoff(self) -> float:
        """Momentum cutoff E_c / (hbar v_f) in 1/nm."""
        return self.cutoff_Ec / self.hbar_vf


def magnetic_length(b_field: float) -> float:
    """l_B = sqrt(hbar / e B) in nm."""
    if b_field <= 0:
        raise ValueError(f"b_field must be positive, got {b_field}")
    return math.sqrt(HBAR_OVER_E / b_field) * 1e9


@dataclass(frozen=True)
class LandauSpectrum:
    """Landau-level ladder E_{n,s} = s hbar omega_c sqrt(n).

    The n = 0 level is a single level shared by the s = +1 and s = -1
    branches; sums over levels must count it once.
    """
    b_field: float          # T
    l_B: float              # nm
    hbar_omega_c: float     # eV
    n_cutoff: int


def check_in_band(E: float, cutoff_Ec: float) -> None:
    """Refuse an energy outside the band, |E| >= E_c, with a ValueError."""
    if not abs(E) < cutoff_Ec:
        raise ValueError(f"energy E = {E:g} eV lies outside the band "
                         f"|E| < E_c = {cutoff_Ec:g} eV")


def build_spectrum(params: ModelParams, b_field: float) -> LandauSpectrum:
    """N_c = the least n with hbar w_c sqrt(n) >= E_c, the band cutoff."""
    lb = magnetic_length(b_field)
    hwc = math.sqrt(2.0) * params.hbar_vf / lb
    n_c = int(math.ceil((params.cutoff_Ec / hwc) ** 2))
    return LandauSpectrum(b_field=b_field, l_B=lb, hbar_omega_c=hwc,
                          n_cutoff=n_c)


def landau_energy(n: int, s: int, spectrum: LandauSpectrum) -> float:
    """E_{n,s} = s hbar omega_c sqrt(n)."""
    if n < 0:
        raise ValueError(f"Landau index must be >= 0, got {n}")
    if s not in (-1, 1):
        raise ValueError(f"s must be +1 or -1, got {s}")
    return s * spectrum.hbar_omega_c * math.sqrt(n)


def effective_cyclotron(E: float, spectrum: LandauSpectrum) -> float:
    """hbar omega_c_eff = (hbar omega_c)^2 / (2|E|).

    Diverges at the Dirac point; E = 0 returns inf (separated regime by
    definition there).
    """
    if E == 0:
        return math.inf
    return spectrum.hbar_omega_c ** 2 / (2.0 * abs(E))


def stress_element_xy(bra: tuple[int, int], ket: tuple[int, int],
                      spectrum: LandauSpectrum) -> complex:
    """<n,s| T_xy |n',s'> in eV; nonzero only for |n - n'| = 2."""
    n, s = bra
    npr, sp = ket
    if n < 0 or npr < 0:
        raise ValueError("Landau indices must be >= 0")
    hwc = spectrum.hbar_omega_c
    if n == 0 and npr == 0:
        return 0j
    if n == 0:
        return -1j * sp * hwc / (2.0 * math.sqrt(2.0)) if npr == 2 else 0j
    if npr == 0:
        return 1j * s * hwc / (2.0 * math.sqrt(2.0)) if n == 2 else 0j
    if n == npr + 2:
        return 1j * s * hwc * math.sqrt(n - 1) / 4.0
    if n == npr - 2:
        return -1j * sp * hwc * math.sqrt(n + 1) / 4.0
    return 0j


def stress_element_xx_minus_yy(bra: tuple[int, int], ket: tuple[int, int],
                               spectrum: LandauSpectrum) -> complex:
    """<n,s| T_xx - T_yy |n',s'> in eV; nonzero only for |n - n'| = 2."""
    n, s = bra
    npr, sp = ket
    if n < 0 or npr < 0:
        raise ValueError("Landau indices must be >= 0")
    hwc = spectrum.hbar_omega_c
    if n == 0 and npr == 0:
        return 0j
    if n == 0:
        return complex(-sp * hwc / math.sqrt(2.0)) if npr == 2 else 0j
    if npr == 0:
        return complex(-s * hwc / math.sqrt(2.0)) if n == 2 else 0j
    if npr == n - 2:
        return complex(-hwc * s * math.sqrt(n - 1) / 2.0)
    if npr == n + 2:
        return complex(-hwc * sp * math.sqrt(n + 1) / 2.0)
    return 0j


# Pauli matrices in the chiral (k, s) basis
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

XY = "XY"
XX_MINUS_YY = "XX_MINUS_YY"


def stress_kspace(k: float, theta: float | np.ndarray, which: str,
                  params: ModelParams) -> np.ndarray:
    """Momentum-basis stress tensor as a 2x2 matrix in the chiral basis.

    T_xy        = (hbar v_f k / 2) (sigma_z sin 2theta - sigma_y cos 2theta)
    T_xx - T_yy =  hbar v_f k      (sigma_z cos 2theta + sigma_y sin 2theta)

    An array theta gives the matrices stacked on the last axes,
    shape (2, 2) + theta.shape.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    e = params.hbar_vf * k
    sin, cos = np.sin(2 * theta), np.cos(2 * theta)
    if which == XY:
        return 0.5 * e * (np.multiply.outer(_SIGMA_Z, sin)
                          - np.multiply.outer(_SIGMA_Y, cos))
    if which == XX_MINUS_YY:
        return e * (np.multiply.outer(_SIGMA_Z, cos)
                    + np.multiply.outer(_SIGMA_Y, sin))
    raise ValueError(f"which must be {XY!r} or {XX_MINUS_YY!r}, got {which!r}")
