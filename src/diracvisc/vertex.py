"""Numerical check that the short-range-disorder vertex correction to the
stress vertex vanishes, in both the momentum and the Landau basis.

The first Bethe-Salpeter iteration of the dressed stress vertex is assembled
explicitly; its Frobenius norm relative to the bare vertex is the reported
ratio. In the momentum basis the angular integral kills every matrix entry
(the integrand is a pure sum of e^{i m theta'} harmonics with m != 0, so a
periodic trapezoid rule is exact); in the Landau basis the disorder-average
index structure (dn'' in {0, +-1}) never meets the |dn''| = 2 stress
elements, a structural zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LandauSpectrum, ModelParams, stress_element_xy
from .scba import solve_self_energy_b0, solve_self_energy_landau

MOMENTUM = "momentum"
LANDAU = "landau"

_RADIAL_NODES = 48  # Gauss-Legendre nodes per radial panel


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


def _txy_chiral(k: float, theta: np.ndarray, hbar_vf: float) -> np.ndarray:
    """T_xy(k') in the chiral basis as a (2, 2, m) stack."""
    e = hbar_vf * k
    t = np.zeros((2, 2) + theta.shape, dtype=complex)
    t[0, 0] = 0.5 * e * np.sin(2 * theta)
    t[1, 1] = -t[0, 0]
    t[0, 1] = 0.5j * e * np.cos(2 * theta)
    t[1, 0] = -t[0, 1]
    return t


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
    xs, ws = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    corr = np.zeros((2, 2), dtype=complex)
    ni_v0_sq = 4.0 * math.pi * vf ** 2 / params.disorder_A
    zR = E - sigma
    zA = E - sigma.conjugate()
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for kp, wk in zip(mid + half * xs, half * ws):
            gR = np.array([1.0 / (zR - vf * kp), 1.0 / (zR + vf * kp)])
            gA = np.array([1.0 / (zA - vf * kp), 1.0 / (zA + vf * kp)])
            t = _txy_chiral(kp, theta, vf)
            inner = np.einsum("ijm,j,jkm,k,klm->ilm", u, gR, t, gA, u_dag)
            corr += wk * kp * inner.sum(axis=2)
    corr *= ni_v0_sq * (2.0 * math.pi / angular_nodes) / (2.0 * math.pi) ** 2

    bare = _txy_chiral(k_on, np.zeros(1), vf)[:, :, 0]
    norm_bare = float(np.linalg.norm(bare))
    norm_corr = float(np.linalg.norm(corr))
    return VertexReport(basis=MOMENTUM, norm_bare=norm_bare,
                        norm_correction=norm_corr,
                        ratio=norm_corr / norm_bare)


def vertex_correction_landau(E: float, params: ModelParams,
                             spectrum: LandauSpectrum, *,
                             n_window: int = 30) -> VertexReport:
    """First-order dressed stress vertex in the Landau basis.

    The disorder average leaves the index structure
      (s s' s'' s''' + 1) d_{n,n'} d_{n'',n'''}
      + s s'' d_{n,n'+1} d_{n'',n'''+1} + s' s''' d_{n,n'-1} d_{n'',n'''-1},
    so only |n'' - n'''| <= 1 internal pairs contribute, while the stress
    elements require |n'' - n'''| = 2: every term vanishes identically.
    """
    sol = solve_self_energy_landau(E, params, spectrum)
    hwc = spectrum.hbar_omega_c
    z = E - sol.sigma
    nw = min(n_window, spectrum.n_cutoff - 2)

    def g(n: int, s: int) -> complex:
        return 1.0 / (z - s * hwc * math.sqrt(n))

    def states(n: int):
        return ((n, 1),) if n == 0 else ((n, 1), (n, -1))

    norm_sq = 0.0
    for n in range(nw + 1):
        for npr in range(nw + 1):
            if abs(n - npr) > 1:
                continue  # the disorder-average structure is zero outright
            offset = n - npr  # forces n'' = n''' + offset
            for _, s in states(n):
                for _, sp in states(npr):
                    acc = 0j
                    for n3 in range(nw + 3):
                        n2 = n3 + offset
                        if n2 < 0:
                            continue
                        for _, s3 in states(n3):
                            for _, s2 in states(n2):
                                if offset == 0:
                                    struct = s * sp * s2 * s3 + 1.0
                                elif offset == 1:
                                    struct = s * s2
                                else:
                                    struct = sp * s3
                                t = stress_element_xy((n2, s2), (n3, s3),
                                                      spectrum)
                                if t == 0:
                                    continue
                                acc += struct * g(n2, s2) * g(n3, s3) * t
                    norm_sq += abs(acc) ** 2
    # prefactor n_i V_0^2 / (8 pi l_B^2) is irrelevant for a structural zero
    # but kept so the report carries physical units
    pref = (4.0 * math.pi * params.hbar_vf ** 2 / params.disorder_A) / (
        8.0 * math.pi * spectrum.l_B ** 2)
    norm_corr = pref * math.sqrt(norm_sq)
    bare = abs(stress_element_xy((1, 1), (3, 1), spectrum))
    return VertexReport(basis=LANDAU, norm_bare=bare,
                        norm_correction=norm_corr,
                        ratio=norm_corr / bare)
