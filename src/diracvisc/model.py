"""Model parameters, Landau spectra, stress-tensor matrix elements and the
check that short-range disorder leaves the stress vertex undressed.

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


def magnetic_length(b_field: float) -> float:
    """l_B = sqrt(hbar / e B) in nm."""
    if not 0.0 < b_field < math.inf:
        raise ValueError(f"b_field must be positive and finite, got {b_field}")
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


# ---------------------------------------------------------------------------
# vertex-correction nullity: the first Bethe-Salpeter iteration of the
# stress vertex under short-range disorder, in the momentum and Landau bases
# ---------------------------------------------------------------------------

_N_WINDOW = 30      # the Landau check runs over n''' <= _N_WINDOW + 2


@dataclass(frozen=True)
class VertexReport:
    basis: str              # "momentum" or "landau"
    norm_bare: float        # eV
    norm_correction: float  # eV
    ratio: float


def vertex_correction_b0(E: float, params: ModelParams,
                         angular_nodes: int = 64) -> VertexReport:
    """First-order dressed stress vertex at B = 0, at theta_k = 0 and k on
    shell (k = max(|E|, 0.1 Ec)/hbar v_f).

    T(k', theta') = k' T(1, theta'), and G(k') is diagonal in the band basis
    and independent of theta', so the correction is sum_jk R_jk C_ij,kl: a
    radial factor R_jk (G^R_j G^A_k over k'^2 dk') times the angular factor
    C_ij,kl = (1/N) sum_m U_ij(theta_m) T_jk(k, theta_m) U^dag_kl(theta_m),
    with U = U_k^dag U_k'. Every entry of C holds only the harmonics
    e^{i m theta}, m = +-1, +-2, +-3, so the trapezoid rule on N >= 8 nodes
    sums C to zero up to rounding, whatever R is. The reported correction
    is |C| (eV): no SCBA solve, no radial integral. C and T scale as k, so
    the ratio is formed at unit k and is the same number at every E and A.
    """
    if angular_nodes < 8:
        raise ValueError("angular_nodes must be >= 8")
    k_on = max(abs(E), 0.1 * params.cutoff_Ec) / params.hbar_vf
    theta = np.linspace(0.0, 2.0 * math.pi, angular_nodes, endpoint=False)
    e = np.exp(1j * theta)
    u = np.empty((2, 2, angular_nodes), dtype=complex)   # symmetric in i, j
    u[0, 0] = u[1, 1] = 0.5 * (1.0 + e)
    u[0, 1] = u[1, 0] = 0.5 * (1.0 - e)
    t = stress_kspace(1.0, theta, XY, params)
    corr = np.einsum("ijm,jkm,klm->ijkl", u, t, u.conj()) / angular_nodes
    norm_bare = float(np.linalg.norm(stress_kspace(1.0, 0.0, XY, params)))
    norm_corr = float(np.linalg.norm(corr))
    return VertexReport(basis="momentum", norm_bare=k_on * norm_bare,
                        norm_correction=k_on * norm_corr,
                        ratio=norm_corr / norm_bare)


def _signs(n: int) -> tuple[int, ...]:
    """The branches s of level n; n = 0 is one level shared by both."""
    return (1,) if n == 0 else (1, -1)


def vertex_correction_landau(spectrum: LandauSpectrum) -> VertexReport:
    """First-order dressed stress vertex in the Landau basis.

    The disorder average leaves the index structure
      (s s' s'' s''' + 1) d_{n,n'} d_{n'',n'''}
      + s s'' d_{n,n'+1} d_{n'',n'''+1} + s' s''' d_{n,n'-1} d_{n'',n'''-1},
    so the correction sums G(n'') G(n''') T_xy(n'', n''') over the internal
    pairs with |n'' - n'''| <= 1 only, while the stress elements require
    |n'' - n'''| = 2. The reported correction is the norm of T_xy on those
    pairs up to n''' = _N_WINDOW + 2: zero identically, at any E and A.
    """
    top = min(_N_WINDOW, spectrum.n_cutoff - 2) + 2
    coupled = [stress_element_xy((n2, s2), (n3, s3), spectrum)
               for n3 in range(top + 1) for s3 in _signs(n3)
               for n2 in range(max(n3 - 1, 0), n3 + 2) for s2 in _signs(n2)]
    norm_corr = float(np.linalg.norm(coupled))
    bare = abs(stress_element_xy((1, 1), (3, 1), spectrum))
    return VertexReport(basis="landau", norm_bare=bare,
                        norm_correction=norm_corr,
                        ratio=norm_corr / bare)
