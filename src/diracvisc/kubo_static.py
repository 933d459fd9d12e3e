"""Static shear and Hall viscosities from the Kubo stress-stress formulas.

Two routes per quantity: a numeric route evaluating the defining Green's-
function integrals/sums with the solved SCBA self-energy, and closed-form
limits (weak disorder, separated/overlapped Landau levels) used as oracles.

All viscosities are in hbar/nm^2 and include the spin-valley degeneracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import LandauSpectrum, ModelParams, effective_cyclotron
from .scba import (SelfEnergySolution, _log, dos, ladder_sums, pole_sum,
                   relaxation_time, solve_self_energy_b0,
                   solve_self_energy_landau)

SEPARATED = "separated"
OVERLAPPED = "overlapped"
B_ZERO = "b_zero"


@dataclass(frozen=True)
class ViscosityValue:
    """A viscosity with its channel decomposition.

    value = Re(RA) - Re(RR) [+ Re(II) for Hall] by construction. For a 1-D
    array of energies, value and the channels are arrays and regime_tag and
    low_confidence are tuples, one entry per energy.
    """
    value: float
    channels: dict[str, float] = field(default_factory=dict)
    regime_tag: str = B_ZERO
    low_confidence: bool = False


# ---------------------------------------------------------------------------
# radial momentum integral, B = 0
# ---------------------------------------------------------------------------

def _t_integral(z1, z2, T):
    """Exact int_0^T t dt / ((a - t)(b - t)), a = z1^2, b = z2^2, per element.

    Principal logs are valid here: Im(a - t) is constant along the real-t
    path, and for real a, b both endpoint logs sit on the same side of the
    cut. Near-degenerate a ~ b (a == b in the RR channel) takes the
    confluent form; each branch is evaluated only on its own elements.
    Scalar input gives a scalar.
    """
    a, b = np.broadcast_arrays(np.asarray(z1 * z1, dtype=complex),
                               np.asarray(z2 * z2, dtype=complex))
    out = np.empty(a.shape, dtype=complex)
    far = np.abs(a - b) > 1e-8 * (np.abs(a) + np.abs(b))
    af, bf = a[far], b[far]
    # np.multiply keeps the operand order at any size (see scba._psi)
    out[far] = (np.multiply(af, _log(af) - _log(af - T))
                - np.multiply(bf, _log(bf) - _log(bf - T))) / (bf - af)
    m = 0.5 * (a[~far] + b[~far])
    out[~far] = m / (m - T) - 1.0 + _log(m - T) - _log(m)
    return out[()]


_TINY_Z = 1e-70  # |z| below which _radial integrates in u = t / |z|^2


def _radial(integral, z1, z2, T: float):
    """0.5 z1 z2 integral(z1, z2, T), where integral(z1, z2, T) returns
    int_0^T t dt / ((z1^2 - t)(z2^2 - t)). Once any |z| < _TINY_Z (at E = 0,
    z^2 underflows past A ~ 750, the quad integrand past A ~ 350) this is
    taken in u = t / c^2, c = max(|z1|, |z2|), up to u = 1e30; beyond, the
    integrand is 1/u to 1e-30 relative, and that part is added as a log.
    Each element takes the route its own |z| selects."""
    c = np.maximum(abs(z1), abs(z2))
    tiny = c < _TINY_Z
    if not tiny.any():
        return 0.5 * z1 * z2 * integral(z1, z2, T)
    if not tiny.all():
        z1, z2 = np.broadcast_arrays(z1, z2)
        out = np.empty(tiny.shape, dtype=complex)
        out[~tiny] = _radial(integral, z1[~tiny], z2[~tiny], T)
        out[tiny] = _radial(integral, z1[tiny], z2[tiny], T)
        return out
    log_end = math.log(T) - 2.0 * np.log(c)
    log_top = np.minimum(log_end, math.log(1e30))
    scaled = np.vectorize(integral, otypes=[complex])(z1 / c, z2 / c,
                                                      np.exp(log_top))
    return 0.5 * z1 * z2 * (scaled + log_end - log_top)


def _k_kernel(z1, z2, params: ModelParams):
    """z1 z2 * int_0^{Ec} du u^3 / ((z1^2-u^2)(z2^2-u^2)), u = hbar v_f k,
    element-wise over arrays."""
    return _radial(_t_integral, z1, z2, params.cutoff_Ec ** 2)


def _require_zero_temperature(params: ModelParams) -> None:
    """The static Kubo formulas here are zero-temperature ones."""
    if params.temperature > 0:
        raise ValueError("static viscosities are zero-temperature formulas; "
                         f"got temperature {params.temperature} eV")


def _b0_prefactor(params: ModelParams) -> float:
    return (params.degeneracy / 4.0) / (2.0 * math.pi ** 2 * params.hbar_vf ** 2)


def _resolve_sigma(sigma: SelfEnergySolution | complex | None,
                   solve) -> complex:
    """The given self-energy as a complex number; solve() when none is given."""
    if sigma is None:
        sigma = solve()
    if isinstance(sigma, SelfEnergySolution):
        return sigma.sigma
    return sigma


def _column(E, sigma, solve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(energies, self-energies, ok) for a float or a 1-D array E: ok marks
    the energies whose Sigma is finite (an array solve writes nan where it
    stays open), and the energies and self-energies are those at ok, as
    1-D arrays; one solve() call for the whole column when no sigma is
    given."""
    e = np.asarray(E, dtype=float).reshape(-1)
    s = np.asarray(_resolve_sigma(sigma, solve), dtype=complex).reshape(-1)
    ok = np.isfinite(s)
    return e[ok], s[ok], ok


def _spread(ok: np.ndarray, values, fill) -> list:
    """values, given at ok, over every element of ok; fill elsewhere."""
    given = iter(values)
    return [next(given) if good else fill for good in ok.tolist()]


def _viscosity(E, ok, value, channels: dict, tags, low) -> ViscosityValue:
    """Scalars for scalar E, per-energy arrays and tuples otherwise, from
    the values at ok (see _column); an energy outside ok reads nan in its
    value and channels, with a blank tag."""
    if not ok.all():
        value, *rest = (np.array(_spread(ok, x, math.nan))
                        for x in (value, *channels.values()))
        channels = dict(zip(channels, rest))
        tags, low = _spread(ok, tags, ""), _spread(ok, low, False)
    if np.ndim(E) == 0:
        return ViscosityValue(value[0], {k: c[0] for k, c in channels.items()},
                              tags[0], low[0])
    return ViscosityValue(value, channels, tuple(tags), tuple(low))


def _regimes(e: np.ndarray, spectrum: LandauSpectrum,
             s: np.ndarray) -> tuple[list[str], list[bool]]:
    """detect_regime's tags and low-confidence flags over a column, with
    its arithmetic: w_eff tau is inf at E = 0 and where it overflows, and
    nan where Sigma is (read as overlapped, low confidence)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wct = (spectrum.hbar_omega_c ** 2 / (2.0 * np.abs(e))) * (
            1.0 / (2.0 * np.abs(s.imag)))
    closed = s.imag >= 0
    tags = np.where(closed | (wct >= 1.0), SEPARATED, OVERLAPPED)
    low = ~(closed | (wct > 2.0) | (wct < 0.5))
    return tags.tolist(), low.tolist()


def shear_b0_numeric(E, params: ModelParams, *, A=None,
                     sigma: SelfEnergySolution | complex | None = None
                     ) -> ViscosityValue:
    """Static shear viscosity at B = 0 from the radial Kubo integral, taken
    with its closed antiderivative (_k_kernel; oracles.k_kernel_quad is
    the adaptive-quadrature check of it). E is a float or a 1-D array; an
    array is solved in one SCBA call, at the disorder column A when one is
    given (see solve_self_energy_b0)."""
    _require_zero_temperature(params)
    e, s, ok = _column(E, sigma, lambda: solve_self_energy_b0(
        E, params, A=A, drop_real_part=True))
    zR = e - s
    zA = e - s.conjugate()
    pref = _b0_prefactor(params)
    ra = pref * _k_kernel(zR, zA, params).real
    rr = pref * _k_kernel(zR, zR, params).real
    return _viscosity(E, ok, ra - rr, {"RA": ra, "RR": rr},
                      [B_ZERO] * e.size, [False] * e.size)


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

def _g_array(z, spectrum: LandauSpectrum, hi: int):
    """g_n = z / (z^2 - n (hbar w_c)^2), n = 0..hi, along the last axis:
    one row per element of an array z; n = 0 counted once."""
    n = np.arange(hi + 1)
    z = np.expand_dims(z, -1)
    return z / (z * z - n * spectrum.hbar_omega_c ** 2)


def _pair_sum(zr: complex, zs: complex, W: float, hi: int) -> complex:
    """sum_{n=0}^{hi} (n+1) g_n(zr) g_{n+2}(zs) by partial fractions in n."""
    a, b = zr * zr / W, zs * zs / W
    s_a, s_b = pole_sum(np.array((a, b - 2.0)), 0, hi)
    fractions = (a + 1.0) * s_a - (b - 1.0) * s_b
    return fractions * zr * zs / (W * W * (b - 2.0 - a))


# the closed pair and Hall sums are taken up to |a| = _PAIR_REACH N_c,
# |z| <= sqrt(2) E_c or so; farther out RR loses digits like
# (|a| / N_c)^2 and keeps ~5 at 900 N_c
_PAIR_REACH = 2.0


def shear_pair_sums(z, spectrum: LandauSpectrum):
    """The sums of oracles.shear_pair_sums_direct in O(1) by partial
    fractions, for a complex scalar or array z, through scba.ladder_sums
    up to |a| = _PAIR_REACH N_c. A ladder of N_c < 2 holds no (n, n + 2)
    pair, and pole_sum over its empty range is exactly 0."""
    def closed(z, a):
        W, hi = spectrum.hbar_omega_c ** 2, spectrum.n_cutoff - 2
        return _pair_sum(z, z.conjugate(), W, hi), _pair_sum(z, z, W, hi)

    return ladder_sums(z, spectrum, closed, _PAIR_REACH)


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


def shear_bfield_numeric(E, params: ModelParams,
                         spectrum: LandauSpectrum, *, A=None,
                         sigma: SelfEnergySolution | complex | None = None
                         ) -> ViscosityValue:
    """Static shear viscosity from the Landau-level Kubo sums.

    RA = (hbar^3 w_c^2 / 4 pi^2 l_B^2) sum_n (n+1)(g^R_n g^A_{n+2} + g^R_{n+2} g^A_n)
    RR = (hbar^3 w_c^2 / 2 pi^2 l_B^2) sum_n (n+1) g^R_n g^R_{n+2}

    evaluated by shear_pair_sums. E is a float or a 1-D array; an array is
    solved in one SCBA call, at the disorder column A when one is given
    (see solve_self_energy_landau).
    """
    _require_zero_temperature(params)
    e, s, ok = _column(E, sigma, lambda: solve_self_energy_landau(
        E, params, spectrum, A=A))
    s_ra, s_rr = shear_pair_sums(e - s, spectrum)
    scale = (params.degeneracy / 4.0) * spectrum.hbar_omega_c ** 2 / (
        math.pi ** 2 * spectrum.l_B ** 2)
    ra = 0.5 * scale * s_ra.real
    rr = 0.5 * scale * s_rr.real
    return _viscosity(E, ok, ra - rr, {"RA": ra, "RR": rr},
                      *_regimes(e, spectrum, s))


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
    rho = dos(E, sigma, params, spectrum)
    tau = relaxation_time(sigma)
    wct = effective_cyclotron(E, spectrum) * tau
    d = 1.0 + 4.0 * wct * wct
    return (E * E * rho * tau / 8.0) / d + (rho / (32.0 * tau)) * (3.0 + 16.0 * wct * wct) / d


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
    s = _resolve_sigma(sigma, lambda: solve_self_energy_landau(
        E, params, spectrum))
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


# most terms a Landau ladder sum over a column or block holds at once (the
# static Hall heads here, 128 kB per complex temporary; the dynamic Hall
# kink terms of kubo_dynamic take half as many, and its field shear's g_n
# rows about as many), so memory stays bounded at any field and block size
_CHUNK_TERMS = 1 << 13

# B_2k / (2k)! and the derivative order j = 2k - 1 it multiplies, k = 2..4
_EULER_MACLAURIN = ((-1.0 / 720.0, 3), (1.0 / 30240.0, 5),
                    (-1.0 / 1209600.0, 7))


def _budget_slices(sizes: np.ndarray, budget: int) -> list[slice]:
    """Consecutive slices of sizes, each summing to at most budget or
    holding a single element."""
    out, start, total = [], 0, 0
    for i, size in enumerate(sizes.tolist()):
        total += size
        if i > start and total > budget:
            out.append(slice(start, i))
            start, total = i, size
    out.append(slice(start, len(sizes)))
    return out


def _weighted_log_sum(a, hi: int):
    """sum_{m=1}^{hi} m Log(m - a) in O(|a|), for a complex scalar or array a.

    Each element sums its first K - 1 terms directly, K = min(2|a| + 50,
    hi): the heads lie end to end in flat arrays of at most _CHUNK_TERMS
    terms (or one head), so the memory stays bounded where the work, the
    sum of the K, grows as E^2/B; each head is reduced on its own
    (np.add.reduceat), so its value does not depend on the rest of the
    array. The smooth rest m = K..hi is taken by
    Euler-Maclaurin (DLMF 2.10.1) on f(x) = x Log(x - a). With u = x - a:
    antiderivative u^2/2 Log u - u^2/4 + a (u Log u - u),
    f' = Log u + 1 + a/u and f^(j) = -(j-2)! (1 - (j-1) a/u) / u^(j-1) for
    odd j >= 3. Im u = -Im a is constant and Re u > |a| on the tail, so the
    principal logs stay on one branch.
    """
    a = np.asarray(a, dtype=complex)
    k = np.minimum((2.0 * np.abs(a)).astype(int) + 50, hi)
    # heads run over m = 0..K-1: the m = 0 term is an exact zero, and it
    # keeps every head non-empty, as reduceat needs
    size = np.maximum(k, 1).reshape(-1)
    flat = a.reshape(-1)
    head = np.empty(flat.size, dtype=complex)
    for part in _budget_slices(size, _CHUNK_TERMS):
        n = size[part]
        start = np.cumsum(n) - n
        m = np.arange(float(n.sum())) - np.repeat(start, n)
        terms = m * np.log(m - np.repeat(flat[part], n))
        head[part] = np.add.reduceat(terms, start)
    head = head.reshape(a.shape)
    x = np.array(np.broadcast_arrays(k, hi), dtype=float)
    u = x - a
    log_u = np.log(u)
    ends = (0.5 * u * u * log_u - 0.25 * u * u + a * (u * log_u - u)
            + (log_u + 1.0 + a / u) / 12.0)
    for coeff, j in _EULER_MACLAURIN:
        ends -= (coeff * math.factorial(j - 2) * (1.0 - (j - 1) * a / u)
                 / u ** (j - 1))
    f = x * log_u
    return head + ends[1] - ends[0] + 0.5 * (f[0] + f[1])


def _hall_sums(z, spectrum: LandauSpectrum):
    """The sums of oracles.hall_sums_direct in O(min(|a|, N_c)),
    a = z^2 / (hbar w_c)^2, for a complex scalar or array z, through
    scba.ladder_sums up to |a| = _PAIR_REACH N_c. A ladder of N_c < 2 holds
    no (n, n + 2) pair, and its sums are exact zeros.

    With W = (hbar w_c)^2, N = N_c and S(c) = pole_sum(c, 0, N - 2):
    - I: the band sums factor into g_n, giving 8 Im _pair_sum(z, conj z).
    - surface: the chains sum to (1/W) sum_n (n+1)[2a/(a-2-n) + 2a/(a-n)
      - 4]; the real -4 drops out of the imaginary part, leaving
      (2a/W)[(a+1) S(a) + (a-1) S(a-2) - 2(N-1)].
    - log: for either band index the chain weights sum to (n+1)/W, and for
      Im z > 0, Im[Log(z - sqrt(m) hbar w_c) + Log(z + sqrt(m) hbar w_c)]
      = pi + Im Log(m - a). Summation by parts gives the weights 1, 4m
      (m = 1..N-2), -(N-2)^2 and -(N-1)^2 on m = 0..N; they sum to 0, so
      the pi terms cancel and _weighted_log_sum carries the 4m part.
    """
    def closed(z, a):
        W, n = spectrum.hbar_omega_c ** 2, spectrum.n_cutoff
        if n < 2:
            return np.zeros((3, z.size))
        sum_i = 8.0 * _pair_sum(z, z.conjugate(), W, n - 2).imag
        s_a, s_a2 = pole_sum(np.array((a, a - 2.0)), 0, n - 2)
        surface = (2.0 * a / W) * ((a + 1.0) * s_a + (a - 1.0) * s_a2
                                   - 2.0 * (n - 1))
        logs = (np.log(-a) + 4.0 * _weighted_log_sum(a, n - 2)
                - (n - 2) ** 2 * np.log(n - 1 - a)
                - (n - 1) ** 2 * np.log(n - a))
        return sum_i, surface.imag, 2.0 / W * logs.imag

    return ladder_sums(z, spectrum, closed, _PAIR_REACH)


def hall_static_numeric(E, params: ModelParams,
                        spectrum: LandauSpectrum, *, A=None,
                        sigma: SelfEnergySolution | complex | None = None) -> ViscosityValue:
    """Static Hall viscosity: Fermi-surface (I) channels at E plus the
    Fermi-sea (II) channel.

    The zero-temperature Fermi-sea integral is evaluated exactly through the
    antiderivatives of (1 - dSigma/dw) G^n, leaving closed expressions in
    z(E) = E - Sigma(E); the deep sea cancels pairwise. The sums over the
    four (s, s') level chains are taken in closed form by _hall_sums, in
    O(min(|z|^2 / (hbar w_c)^2, N_c)) time without materializing the
    ladder; |E - Sigma| past sqrt(2) E_c or so is refused. Inside gaps
    Im Sigma is held at -_GAP_FLOOR to keep G retarded. E is a float or a
    1-D array; an array is solved in one SCBA call, at the disorder column
    A when one is given (see solve_self_energy_landau), and summed in one
    _hall_sums call.
    """
    _require_zero_temperature(params)
    e, s, ok = _column(E, sigma, lambda: solve_self_energy_landau(
        E, params, spectrum, A=A))
    s = s.real + 1j * np.minimum(s.imag, -_GAP_FLOOR)
    W = spectrum.hbar_omega_c ** 2
    lb2 = spectrum.l_B ** 2
    scale = params.degeneracy / 4.0

    sum_i, sum_surface, sum_log = _hall_sums(e - s, spectrum)
    eta_i = scale * W / (16.0 * math.pi ** 2 * lb2) * sum_i
    eta_ii = scale * W / (8.0 * math.pi ** 2 * lb2) * (sum_surface - sum_log)
    return _viscosity(E, ok, eta_i + eta_ii,
                      {"RA": eta_i, "RR": np.zeros(e.size), "II": eta_ii},
                      *_regimes(e, spectrum, s))


def hall_static_analytic(E: float, params: ModelParams,
                         spectrum: LandauSpectrum, *,
                         sigma: SelfEnergySolution | complex | None = None,
                         regime: str | None = None) -> ViscosityValue:
    """Closed-form static Hall viscosity (quantized plateaus in gaps)."""
    s = _resolve_sigma(sigma, lambda: solve_self_energy_landau(
        E, params, spectrum))
    if regime is None:
        tag, _, low = detect_regime(E, params, spectrum, s)
    else:
        tag, low = regime, False
    scale = params.degeneracy / 4.0
    wc_eff = effective_cyclotron(E, spectrum)
    if s.imag < 0:
        tau = relaxation_time(s)
        rho = dos(E, s, params, spectrum)
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
