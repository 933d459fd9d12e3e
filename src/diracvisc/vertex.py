"""Numerical check that the short-range-disorder vertex correction to the
stress vertex vanishes, in both the momentum and the Landau basis.

In the momentum basis the first Bethe-Salpeter iteration of the dressed
stress vertex is assembled explicitly; its Frobenius norm relative to the
bare vertex is the reported ratio. The angular integral kills every matrix
entry (the integrand is a pure sum of e^{i m theta'} harmonics with m != 0,
so a periodic trapezoid rule is exact). In the Landau basis the
disorder-average index structure (dn'' in {0, +-1}) never meets the
|dn''| = 2 stress elements, a structural zero, so the check evaluates the
stress elements on the coupled index pairs and needs no SCBA solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (XY, LandauSpectrum, ModelParams, stress_element_xy,
                    stress_kspace)
from .scba import solve_self_energy_b0
from .kubo_dynamic import _panel_nodes

MOMENTUM = "momentum"
LANDAU = "landau"

_RADIAL_RULE = np.polynomial.legendre.leggauss(48)  # per radial panel
_N_WINDOW = 30      # the Landau check runs over n''' <= _N_WINDOW + 2


@dataclass(frozen=True)
class VertexReport:
    basis: str
    norm_bare: float        # eV
    norm_correction: float  # eV
    ratio: float


def _spin_rotation(dtheta: np.ndarray) -> np.ndarray:
    """U_k^dag U_k' as a (2, 2, m) stack, dtheta = theta' - theta."""
    e = np.exp(1j * dtheta)
    u = np.empty((2, 2) + dtheta.shape, dtype=complex)
    u[0, 0] = u[1, 1] = 0.5 * (1.0 + e)
    u[0, 1] = u[1, 0] = 0.5 * (1.0 - e)
    return u


def vertex_correction_b0(E: float, params: ModelParams,
                         angular_nodes: int = 64) -> VertexReport:
    """First-order dressed stress vertex at B = 0, evaluated at theta_k = 0
    and k on shell (k = max(|E|, 0.1 Ec)/hbar v_f)."""
    if angular_nodes < 8:
        raise ValueError("angular_nodes must be >= 8")
    sigma = solve_self_energy_b0(E, params).sigma
    vf = params.hbar_vf
    k_on = max(abs(E), 0.1 * params.cutoff_Ec) / vf
    k_c = params.k_cutoff

    theta = np.linspace(0.0, 2.0 * math.pi, angular_nodes, endpoint=False)
    u = _spin_rotation(theta)            # theta_k = 0
    u_dag = np.conjugate(np.swapaxes(u, 0, 1))

    # radial Gauss-Legendre panels with extra resolution at the pole
    pole = abs((E - sigma).real) / vf
    edges = sorted({0.0, k_c, *[p for p in (0.5 * pole, pole, 2.0 * pole)
                                if 0.0 < p < k_c]})
    kp, wk = _panel_nodes(edges[:-1], edges[1:], _RADIAL_RULE)
    zR = E - sigma
    zA = E - sigma.conjugate()
    gR = 1.0 / (zR - vf * np.array([kp, -kp]))
    gA = 1.0 / (zA - vf * np.array([kp, -kp]))
    # stress_kspace is linear in k: T(k', theta) = k' T(1, theta), so with
    # the radial measure k' dk' the radial nodes sum to one 2x2 matrix of
    # G^R_j G^A_k weighted by wk k'^2
    radial = (gR * (wk * kp * kp)) @ gA.T
    t = stress_kspace(1.0, theta, XY, params)
    corr = np.einsum("ijm,jk,jkm,klm->il", u, radial, t, u_dag)
    ni_v0_sq = 4.0 * math.pi * vf ** 2 / params.disorder_A
    corr *= ni_v0_sq * (2.0 * math.pi / angular_nodes) / (2.0 * math.pi) ** 2

    bare = stress_kspace(k_on, 0.0, XY, params)
    norm_bare = float(np.linalg.norm(bare))
    norm_corr = float(np.linalg.norm(corr))
    return VertexReport(basis=MOMENTUM, norm_bare=norm_bare,
                        norm_correction=norm_corr,
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
    return VertexReport(basis=LANDAU, norm_bare=bare,
                        norm_correction=norm_corr,
                        ratio=norm_corr / bare)
