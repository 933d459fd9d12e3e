"""Frequency-dependent shear and Hall viscosities.

Both dynamic shears are window integrals over omega in
[E - |Omega| - 8 k_B T, E + 8 k_B T], taken by one driver,
_window_integral: Gauss panels per point, one self-energy solve of the
nodes omega and omega + |Omega|, the Fermi weights
f(omega) - f(omega + |Omega|) and a kernel of (z_lo, z_up), summed per
point. At B = 0 the kernel is the radial Kubo kernel; in a field it is the
|dn| = 2 Landau transition sum, with the SCBA self-energy or a constant
broadening (clean-limit studies). The dynamic Hall kink sum is a ladder
sum over the level pairs within 40 k_B T of its Fermi window. All three
take a block of (E, Omega) points (two arrays of one shape) in one call,
in chunks of bounded memory, and reduce each point on its own; both
shears also take a disorder A per point, and the kink sum does not depend
on A.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LandauSpectrum, ModelParams
from .kubo_static import (_CHUNK_TERMS, _b0_prefactor, _budget_slices,
                          _g_array, _k_kernel, hall_static_numeric,
                          shear_b0_numeric, shear_bfield_numeric)
from .scba import (_require_finite, level_width, solve_self_energy_b0,
                   solve_self_energy_landau)

ELECTRON_HOLE = "electron_hole"
ELECTRON_ELECTRON = "electron_electron"
HOLE_HOLE = "hole_hole"

# Gauss-Legendre rules (nodes, weights on [-1, 1]) per panel of the
# frequency windows
_B0_RULE = np.polynomial.legendre.leggauss(24)
_BFIELD_RULE = np.polynomial.legendre.leggauss(16)
# reach of the dynamic Hall sum past its Fermi window, in k_B T
_FERMI_REACH = 40.0  # _fermi reads exactly 1.0 at 40, below 4.3e-18 at -40
# most window nodes one solve and one kernel call of a dynamic-shear block
# take: each node holds about 0.5 kB of temporaries (it is solved at omega
# and omega + Omega), so a chunk stays near 1 MB
_CHUNK_NODES = 1 << 11


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


def _check_broadening(broadening: float) -> float:
    if not (math.isfinite(broadening) and broadening > 0):
        raise ValueError(
            f"broadening must be positive and finite, got {broadening}")
    return broadening


def _window_top(reach, spectrum: LandauSpectrum):
    """Largest lower index n of the pairs (n, n + 2) with sqrt(n) hbar w_c
    <= reach, plus one index of margin against rounding; capped at N_c - 2.
    Element-wise for an array reach."""
    return np.minimum(((np.asarray(reach) / spectrum.hbar_omega_c) ** 2)
                      .astype(int) + 1, spectrum.n_cutoff - 2)


def transition_table(e_fermi: float, spectrum: LandauSpectrum,
                     omega_max: float) -> list[Transition]:
    """All occupied -> empty level pairs with |dn| = 2 and |dE| <= omega_max.

    A level is occupied iff its energy is <= e_fermi. Deterministic order:
    by frequency, then level indices. Both levels of such a transition lie
    within omega_max of e_fermi, so only the pairs (n, n + 2) with
    sqrt(n) hbar w_c <= |e_fermi| + omega_max are visited.
    """
    if not (math.isfinite(e_fermi) and 0 < omega_max < math.inf):
        raise ValueError("e_fermi must be finite and omega_max positive and "
                         f"finite, got {e_fermi} and {omega_max}")
    hwc = spectrum.hbar_omega_c
    out: list[Transition] = []
    for n in range(_window_top(abs(e_fermi) + omega_max, spectrum) + 1):
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
# Frequency-window integrals
# ---------------------------------------------------------------------------

def _cuts(lo: float, hi: float, breakpoints) -> list[float]:
    """lo, hi and the breakpoints strictly between them, sorted."""
    return [lo, *sorted({b for b in breakpoints if lo < b < hi}), hi]


def _panel_nodes(edges, rule):
    """Nodes and weights of rule on the panels between consecutive edges,
    for each list of edges."""
    xs, ws = rule
    left = np.array([x for c in edges for x in c[:-1]])
    right = np.array([x for c in edges for x in c[1:]])
    mid, half = 0.5 * (left + right), 0.5 * (right - left)
    return ((mid[:, None] + half[:, None] * xs).ravel(),
            (half[:, None] * ws).ravel())


def _points(E, Omega):
    """E and |Omega| as 1-D arrays of one length, and the shape of the
    block (() for two scalars). An empty block is refused, and so are a
    non-finite value and Omega = 0 (use the static quantity there)."""
    e, om = np.broadcast_arrays(np.asarray(E, dtype=float),
                                np.asarray(Omega, dtype=float))
    _require_finite("(E, Omega) block", E=e, Omega=om)
    om = np.abs(om)
    if not om.all():
        raise ValueError("Omega must be nonzero")
    return e.ravel(), om.ravel(), e.shape


def _shaped(values: np.ndarray, shape: tuple):
    """A float for a scalar block, else values in the block's shape."""
    return float(values[0]) if shape == () else values.reshape(shape)


def _window_integral(E, Omega, A, params: ModelParams, window, rule, solve,
                     kernel, pref: float) -> list:
    """Per kernel row, each point's sum of pref / |Omega| * w * row over
    the nodes of [E - |Omega| - 8 k_B T, E + 8 k_B T] (w: the Gauss weight
    times f(omega) - f(omega + |Omega|)), in the block's shape.

    A is each point's disorder (a float or an array of the block's shape;
    None for params.disorder_A). window(lo, hi, E, |Omega|, A) gives a
    point's panel edges and an extra value; solve(omega, a) maps the nodes
    omega stacked on omega + |Omega|, at the disorders a of the nodes, to
    z = omega - Sigma; kernel(z, nodes, |Omega|, counts, extras) gives one
    or more rows over the nodes of the points it is given. A point with a
    node whose z is not finite (an SCBA solve left open) reads nan, and
    the kernel skips its nodes. Whole points of at most _CHUNK_NODES
    nodes (or one point) go together, for memory only: each point is
    reduced on its own (np.add.reduceat), so a block equals its per-point
    calls to the bit.
    """
    e, om, shape = _points(E, Omega)
    a = np.broadcast_to(params.disorder_A if A is None else A,
                        shape).astype(float).ravel()
    bad = ~(np.isfinite(a) & (a > 0))
    if bad.any():
        raise ValueError(f"disorder_A must be positive and finite, got "
                         f"{a[bad][0]}")
    T = params.temperature
    windows = [window(Ei - oi - 8.0 * T, Ei + 8.0 * T, Ei, oi, ai)
               for Ei, oi, ai in zip(e.tolist(), om.tolist(), a.tolist())]
    counts = np.array([len(w[0]) - 1 for w in windows]) * rule[0].size
    sums = []
    for part in _budget_slices(counts, _CHUNK_NODES):
        edges, extras = zip(*windows[part])
        nodes, weights = _panel_nodes(edges, rule)
        n = counts[part]
        mu, o = np.repeat(e[part], n), np.repeat(om[part], n)
        weights = weights * (_fermi(nodes, mu, T) - _fermi(nodes + o, mu, T))
        z = solve(np.array((nodes, nodes + o)), np.repeat(a[part], n))
        ok = np.logical_and.reduceat(np.isfinite(z).all(axis=0),
                                     np.cumsum(n) - n)
        # every node converged: views, not masked copies
        keep = slice(None) if ok.all() else np.repeat(ok, n)
        kept = n[ok]
        rows = kernel(z[:, keep], nodes[keep], o[keep], kept,
                      [x for x, good in zip(extras, ok.tolist()) if good])
        part_sums = np.full((*rows.shape[:-1], n.size), math.nan)
        part_sums[..., ok] = np.add.reduceat(
            pref / o[keep] * weights[keep] * rows, np.cumsum(kept) - kept,
            axis=-1)
        sums.append(part_sums)
    return [_shaped(row, shape)
            for row in np.concatenate(sums, axis=-1).reshape(-1, e.size)]


def _fermi(x: np.ndarray | float, mu: float, temperature: float):
    """1 / (1 + exp((x - mu)/T)) from e = exp(-|t|), t = (mu - x)/T, as
    1/(1 + e) or e/(1 + e), so it never overflows; a step at T <= 0."""
    if temperature <= 0:
        return np.where(np.asarray(x) <= mu, 1.0, 0.0)
    t = (mu - np.asarray(x)) / temperature
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def shear_dynamic_b0(E, Omega, params: ModelParams, *, A=None,
                     return_split: bool = False):
    """Dynamic shear viscosity at B = 0.

    Even in Omega. The window (_window_integral) is cut at 0, -Omega,
    E - Omega and E where they lie inside, each cut in thirds and at
    -Omega/2 (interband 2 omega + Omega = 0), with 24 Gauss nodes per
    panel. A node carries the radial kernel's RA - RR part with Re Sigma
    dropped. With return_split=True also returns the interband
    (electron-hole, omega < 0 < omega + Omega) and intraband window parts.
    E and Omega are floats, or arrays of one shape whose values come back
    in that shape. A, when given, is the disorder of each point (a float
    or an array of the block's shape) and replaces params.disorder_A; the
    nodes of every point are solved in one call, and each value is the
    same bits as in a call at its own disorder.
    """
    def window(lo, hi, e, om, disorder):
        cuts = _cuts(lo, hi, (0.0, -om, e - om, e))
        edges = [lo]
        for a, b in zip(cuts[:-1], cuts[1:]):
            edges += _cuts(a, b, (-0.5 * om, a + (b - a) / 3.0,
                                  b - (b - a) / 3.0))[1:]
        return edges, None

    def solve(omega, a):
        return omega - solve_self_energy_b0(
            omega.ravel(), params, A=np.tile(a, 2),
            drop_real_part=True).sigma.reshape(2, -1)

    def kernel(z, nodes, o, counts, extras):
        z_lo, z_up = z
        k = (_k_kernel(z_up, z_lo.conjugate(), params).real
             - _k_kernel(z_up, z_lo, params).real)
        return np.array((k, np.where((nodes < 0.0) & (0.0 < nodes + o),
                                     k, 0.0)))

    tot, eh = _window_integral(E, Omega, A, params, window, _B0_RULE, solve,
                               kernel, _b0_prefactor(params))
    return (tot, eh, tot - eh) if return_split else tot


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

def _bfield_window(lo: float, hi: float, om: float,
                   spectrum: LandauSpectrum, gam: float):
    """The panel edges of one field dynamic shear window [lo, hi], and n_top.

    The window is cut at the levels +-sqrt(m) hbar w_c, m <= n_top + 2,
    near the window, shifted by 0 or -om and by 0 or +-4 gam; breakpoints
    closer than a quarter width are clustered (panel count control). The
    pairs n <= n_top have a level inside level_window, the window reach
    plus max(100 gam, 8 hbar w_c).
    """
    hwc = spectrum.hbar_omega_c
    level_window = max(abs(lo), abs(hi)) + om + max(100.0 * gam, 8.0 * hwc)
    n_top = min(int((level_window / hwc) ** 2), spectrum.n_cutoff - 2)
    lev = hwc * np.sqrt(np.arange(n_top + 3))
    lev = np.concatenate((lev, -lev))
    lev = lev[(lev > lo - om - 8 * gam) & (lev < hi + om + 8 * gam)]
    lev = np.concatenate((lev, lev - om))
    bks = np.concatenate((lev, lev - 4 * gam, lev + 4 * gam))
    merged = []
    for b in np.unique(bks[(lo < bks) & (bks < hi)]).tolist():
        if not merged or b - merged[-1] > 0.25 * gam:
            merged.append(b)
    return _cuts(lo, hi, merged), n_top


def shear_dynamic_bfield(E, Omega, params: ModelParams,
                         spectrum: LandauSpectrum,
                         broadening: float | None = None, *, A=None):
    """Dynamic shear viscosity in a field (|dn| = 2 transition sums).

    broadening=None solves the SCBA self-energy at every node omega and
    omega + Omega; a float uses constant-width Lorentzian levels
    (clean-limit studies). Even in Omega. As
    sum_s 1/(z - s sqrt(n) hbar w_c) = 2 g_n(z) for every n, the four
    (s, s') level chains factor: a node carries 4 sum_n (n + 1)
    [Im g_n(z_up) Im g_{n+2}(z_lo) + Im g_n(z_lo) Im g_{n+2}(z_up)], z_lo at
    omega and z_up at omega + Omega, over the pairs with a level inside
    level_window (_bfield_window), 16 Gauss nodes per panel. With the
    SCBA self-energy the far terms fall off only like 1/n, so the dropped
    tail is not small: at 10 T, A = 20, Omega = 3e-4 the result lies 5.5%
    (E = 0.1 eV) below the static shear; the whole ladder is within 2.3e-6.
    E and Omega are floats, or arrays of one shape whose values come back
    in that shape. Each point keeps its own window, panels and n_top. A,
    when given, is the disorder of each point (a float or an array of the
    block's shape) and replaces params.disorder_A: a point's window
    gamma is the level width at its A (or the broadening), and the nodes
    of every point are solved in one call, each value the same bits as
    in a call at its own disorder.
    """
    if broadening is not None:
        _check_broadening(broadening)

    def window(lo, hi, e, om, disorder):
        gam = (level_width(params, spectrum, disorder) if broadening is None
               else broadening)
        return _bfield_window(lo, hi, om, spectrum, gam)

    def solve(omega, a):
        if broadening is not None:
            return omega + 1j * broadening
        return omega - solve_self_energy_landau(
            omega.ravel(), params, spectrum,
            A=np.tile(a, 2)).sigma.reshape(2, -1)

    def kernel(z, nodes, o, counts, n_tops):
        # each point's g_n rows about _CHUNK_TERMS terms (or one node) at a
        # time, so the memory stays bounded where n_top grows as 1/B
        row = np.empty(nodes.size)
        for stop, count, n_top in zip(np.cumsum(counts).tolist(),
                                      counts.tolist(), n_tops):
            weight = np.arange(n_top + 1) + 1.0
            step = max(_CHUNK_TERMS // (n_top + 3), 1)
            for j in range(stop - count, stop, step):
                k = slice(j, min(j + step, stop))
                g_lo, g_up = _g_array(z[:, k], spectrum, n_top + 2).imag
                row[k] = 4.0 * ((g_up[:, :-2] * g_lo[:, 2:]
                                 + g_lo[:, :-2] * g_up[:, 2:]) @ weight)
        return row

    pref = (params.degeneracy / 4.0) * spectrum.hbar_omega_c ** 2 / (
        8.0 * math.pi ** 2 * spectrum.l_B ** 2)
    return _window_integral(E, Omega, A, params, window, _BFIELD_RULE, solve,
                            kernel, pref)[0]


def _hall_chains(n: np.ndarray, hwc: float):
    """(E_a, E_b, weight) of the kink terms of the pairs (n, n + 2), one row
    per pair: the (s, s') chains (+,+), (+,-), (-,+), (-,-) and then the
    same chains with the two levels swapped, which enter with a minus sign.
    """
    lo = hwc * np.sqrt(n)[:, None]
    hi = hwc * np.sqrt(n + 2.0)[:, None]
    e_lo = np.hstack((lo, lo, -lo, -lo))
    e_hi = np.hstack((hi, -hi, hi, -hi))
    weight = (n + 1.0)[:, None] * np.repeat((1.0, -1.0), 4)
    return np.hstack((e_lo, e_hi)), np.hstack((e_hi, e_lo)), weight


def _hall_prefactor(params: ModelParams, spectrum: LandauSpectrum) -> float:
    """The prefactor of the dynamic Hall kink sum times |Omega|."""
    return (params.degeneracy / 4.0) * spectrum.hbar_omega_c ** 2 / (
        8.0 * math.pi * spectrum.l_B ** 2)


def _hall_dynamic_terms(e, om, ea, eb, w, broadening: float,
                        temperature: float, reduced: bool) -> np.ndarray:
    """The kink terms of hall_dynamic without its prefactor, element by
    element over the broadcast arrays of the energy e, the frequency
    om = |Omega|, and the chain terms (E_a, E_b, weight) = (ea, eb, w)."""
    g2 = broadening * broadening

    def f(x):
        return _fermi(x, e, temperature)

    def kink(x):
        return w * x / (x * x + g2)

    if reduced:
        return (f(eb) - f(ea)) * kink(om - eb + ea)
    return (2.0 * (f(ea + om) - f(ea)) * kink(om - eb + ea)
            + (f(eb + om) - f(ea - om)) * kink(om + eb - ea))


def hall_dynamic(E, Omega, params: ModelParams, spectrum: LandauSpectrum,
                 broadening: float, *, reduced: bool = False):
    """Dynamic Hall viscosity as a sum of kink resonances.

    The full form keeps the frequency-shifted occupation factors; the
    reduced form evaluates them at the level energies. In both, swapped
    transition partners enter with a minus sign and cancel pairwise when
    both directions are Pauli-allowed.

    Only the pairs (n, n + 2) with sqrt(n) hbar w_c <= |E| + |Omega| +
    40 k_B T are summed (one index of margin). Above that every level and
    every shifted level lies more than 40 k_B T from E, where its Fermi
    factor is 1 or 0 to within e^-40 (exactly at T = 0): the Fermi
    differences of the (+,+) and (-,-) chains vanish, and the (+,-) and
    (-,+) chains carry the same weight n + 1 and the same |E_b - E_a| with
    opposite signs, so their terms cancel one by one. No temperature or
    field makes the sum materialize the ladder.

    E and Omega are floats, or arrays of one shape whose values come back
    in that shape. A block builds its level pairs once, up to its largest
    reach. Each point's 8 terms per pair, up to its own reach, lie end to
    end in flat arrays of at most _CHUNK_TERMS / 2 terms (or one point), and
    each point is reduced on its own (np.add.reduceat), so a point's value
    does not depend on the rest of the block. A ladder of N_c < 2 holds no
    (n, n + 2) pair, and its sums are exact zeros.
    """
    e, om, shape = _points(E, Omega)
    _check_broadening(broadening)
    if spectrum.n_cutoff < 2:
        return _shaped(np.zeros(e.size), shape)
    T = params.temperature
    top = _window_top(np.abs(e) + om + _FERMI_REACH * T, spectrum)
    ea, eb, w = (c.ravel() for c in _hall_chains(np.arange(top.max() + 1),
                                                 spectrum.hbar_omega_c))
    size = 8 * (top + 1)
    total = np.empty(e.size)
    # half the budget of the complex ladder heads: a chunk holds about a
    # dozen real arrays of its length at once (inputs, kinks, Fermi factors)
    for part in _budget_slices(size, _CHUNK_TERMS // 2):
        n = size[part]
        start = np.cumsum(n) - n
        j = np.arange(n.sum()) - np.repeat(start, n)
        terms = _hall_dynamic_terms(np.repeat(e[part], n),
                                    np.repeat(om[part], n), ea[j], eb[j],
                                    w[j], broadening, T, reduced)
        total[part] = np.add.reduceat(terms, start)
    return _shaped(_hall_prefactor(params, spectrum) / om * total, shape)


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
        st = shear_b0_numeric(E, params).value
        dy = shear_dynamic_b0(E, omega, params)
        return StaticLimitReport(omega=omega, shear_static=st,
                                 shear_dynamic=dy,
                                 shear_ratio=abs(dy / st - 1.0),
                                 regime_tag="b_zero")
    st_v = shear_bfield_numeric(E, params, spectrum)
    dy = shear_dynamic_bfield(E, omega, params, spectrum, broadening)
    hall_st = hall_static_numeric(E, params, spectrum).value
    gam = level_width(params, spectrum) if broadening is None else broadening
    hall_dy = hall_dynamic(E, omega, params, spectrum, gam)
    return StaticLimitReport(
        omega=omega, shear_static=st_v.value, shear_dynamic=dy,
        shear_ratio=abs(dy / st_v.value - 1.0) if st_v.value else math.inf,
        hall_static=hall_st, hall_dynamic=hall_dy,
        hall_ratio=abs(hall_dy / hall_st - 1.0) if hall_st else math.inf,
        regime_tag=st_v.regime_tag)
