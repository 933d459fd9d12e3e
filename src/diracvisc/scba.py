"""Self-consistent Born approximation for the disorder self-energy.

Solvers return the retarded Sigma(E) (Im Sigma <= 0); the advanced branch is
the complex conjugate. Closed-form asymptotics used as oracles set the real
part to zero, which is also the convention of the B = 0 transport kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    iterations: int        # the largest entry of steps
    steps: int             # Newton steps per element (an array for array
                           # input), a branch re-solve included


def _log(z):
    """The principal Log z = ln|z| + i atan2(Im z, Re z) of a complex scalar
    or array, the Log of every B = 0 SCBA step and radial kernel.

    Domain and special values are np.log's: Im Log lies in [-pi, pi], and
    on the cut the sign of Im z's zero picks the side, so -1 + 0j gives
    i pi and -1 - 0j gives -i pi; +-0 + 0j gives -inf + (0 or pi) j with
    np.log's divide-by-zero warning, and inf and nan come out as np.log's.
    The two parts are written in place, not summed as ln|z| + 1j atan2,
    which would turn Im = -0 into +0 and inf + nan j into nan + nan j.
    |z| is taken by hypot, so no square under- or overflows, and each part
    is within 4 ulps of max(|ln|z||, pi). Near |z| = 1 that is an
    absolute bound: np.log keeps ln|z| relative-accurate there, at about
    ten times the cost. Below |z| ~ 1e-308 hypot's subnormal result loses
    digits; _radial rescales |z| < 1e-70 first and the SCBA seed floor is
    1e-300, so no B = 0 caller goes there.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    np.log(np.abs(z), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out[()]


def _log_branch(z, cutoff: float):
    """Log(-Ec^2 / z^2) on the branch continuous over the retarded domain.

    With z = E - Sigma in the closed upper half-plane this equals
    2 ln Ec + i pi - 2 Log z and makes Im Sigma even / Re Sigma odd in E.
    """
    return 2.0 * math.log(cutoff) + 1j * math.pi - 2.0 * _log(z)


def _iterate(e: np.ndarray, seed: np.ndarray, fmap, tol: float,
             max_iter: int, *columns):
    """Newton's method on h(Sigma) = Sigma - F(Sigma), one root per energy.

    fmap(e, s, *columns) returns F(s) and the slope h'(s) at the iterates s
    of the energies e, each column (an array over the energies, or a float
    that holds at all of them) taken at the same energies; an energy that
    stops leaves its slope unused. Each energy
    stops at the first iterate whose residual |F - Sigma|/|F| is <= tol and
    keeps F(Sigma) as its root; an energy still open after max_iter steps
    keeps its last F(Sigma) and residual. F and the Newton iterates are
    reflected to the retarded branch (Im <= 0). Returns the sigma, residual
    and step-count arrays.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    sigma = np.empty(e.shape, dtype=complex)
    residual = np.empty(e.shape)
    steps = np.empty(e.shape, dtype=int)
    idx = np.arange(e.size)     # the energies still iterating
    s = seed
    for it in range(1, max_iter + 1):
        out, slope = fmap(e[idx], s, *(_at(c, idx) for c in columns))
        out = np.where(out.imag > 0, out.conjugate(), out)
        res = np.abs(out - s) / np.maximum(np.abs(out), _RESIDUAL_FLOOR)
        done = (res <= tol) | (it == max_iter)
        stop = idx[done]
        sigma[stop], residual[stop], steps[stop] = out[done], res[done], it
        if done.all():
            break
        left = ~done
        idx, s, out = idx[left], s[left], out[left]
        s = s - (s - out) / slope[left]
        s = np.where(s.imag > 0, s.conjugate(), s)
    return sigma, residual, steps


def _at(column, idx):
    """A column at the energies idx: an array's entries, or the float that
    holds at every energy."""
    return column[idx] if isinstance(column, np.ndarray) else column


def _solution(E, e: np.ndarray, sigma: np.ndarray, residual: np.ndarray,
              steps: np.ndarray, tol: float) -> SelfEnergySolution:
    """Scalars for scalar E, arrays otherwise; raises ConvergenceError with
    the worst residual when any energy is still open."""
    if not (residual <= tol).all():
        worst = np.argmax(residual)
        raise ConvergenceError("SCBA Newton solve did not converge",
                               residual[worst], int(steps[worst]),
                               sigma[worst])
    iterations = int(steps.max())
    if np.ndim(E) == 0:
        return SelfEnergySolution(E, sigma[0], residual[0], iterations,
                                  iterations)
    return SelfEnergySolution(e, sigma, residual, iterations, steps)


def _disorder_columns(A, e: np.ndarray, params: ModelParams, per_disorder):
    """per_disorder(a), a tuple of floats, over the energies e: its floats
    at params.disorder_A when A is None, or at A's one value when all are
    equal; otherwise one column per entry, computed once for each distinct
    disorder a of A, a 1-D array like e."""
    if A is None:
        return per_disorder(params.disorder_A)
    a = np.asarray(A, dtype=float).reshape(-1)
    if a.shape != e.shape:
        raise ValueError(f"the disorder column A holds {a.size} values for "
                         f"{e.size} energies")
    # the distinct values in order of appearance: np.unique would sort, and
    # the first sort in a process costs about 1 MB of resident memory
    entries = {}
    for value in dict.fromkeys(a.tolist()):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"disorder_A must be positive and finite, got "
                             f"{value}")
        entries[value] = per_disorder(value)
    if len(entries) == 1:
        return entries[value]
    columns = np.empty((len(entries[value]), e.size))
    for value, floats in entries.items():
        columns[:, a == value] = np.array(floats)[:, None]
    return list(columns)


def solve_self_energy_b0(E, params: ModelParams, *, A=None,
                         drop_real_part: bool = False, tol: float = 1e-10,
                         max_iter: int = 100) -> SelfEnergySolution:
    """Root of Sigma = F(Sigma) = -(z/A) Log(-Ec^2/z^2), z = E - Sigma, for
    one energy or a 1-D array of energies.

    A, when given, is the disorder of each energy (a 1-D array like E) and
    replaces params.disorder_A; an array over several disorders is one
    solve, and each energy's root is the same bits as in a solve at its
    own disorder. Newton's method (_iterate) with the closed-form slope
    h' = 1 - (Log(-Ec^2/z^2) - 2)/A. drop_real_part=True forces Re Sigma to
    zero, the branch all B = 0 closed forms (and the B = 0 Kubo kernels) are
    built on, and solves the real equation for gamma = -Im Sigma with the
    real slope 1 - (ln(Ec^2/|z|^2) - 2)/A.
    """
    Ec = params.cutoff_Ec
    e = np.asarray(E, dtype=float).reshape(-1)
    a, floor = _disorder_columns(
        A, e, params, lambda a: (a, max(Ec * math.exp(-a / 2.0), 1e-300)))

    def fmap(e, s, a):
        z = e - s
        log = _log_branch(z, Ec)
        out = -(z / a) * log
        if drop_real_part:
            out, log = 1j * out.imag, log.real
        return out, 1.0 - (log - 2.0) / a

    seed = -1j * np.maximum(floor, math.pi * np.abs(e) / a)
    return _solution(E, e, *_iterate(e, seed, fmap, tol, max_iter, a), tol)


# psi(w) ~ ln w - 1/2w - sum_k (B_2k / 2k) w^(-2k) (DLMF 5.11.2), the
# B_2k / 2k from k = 7 down to k = 1
_PSI_SERIES = (1.0 / 12.0, -691.0 / 32760.0, 1.0 / 132.0, -1.0 / 240.0,
               1.0 / 252.0, -1.0 / 120.0, 1.0 / 12.0)
# sum_{k<10} 1/(y + k) = (2y + 9) sum_{k<5} 1/(y (y + 9) + k (9 - k))
_PSI_PAIRS = np.array([0.0, 8.0, 14.0, 18.0, 20.0])


def _psi(x):
    """digamma(x) for a complex array, nan at the poles 0, -1, -2, ...

    Re x < 1/2 is reflected, psi(x) = psi(1 - x) - pi cot(pi x) (DLMF 5.5.4),
    with x reduced exactly by the nearest multiple m of 1/2:
    cot(pi x) = cot(pi r), or -tan(pi r) for half-integer m, r = x - m.
    Then psi(y) = psi(y + 10) - sum_{k<10} 1/(y + k) (DLMF 5.5.2), the ten
    poles summed in pairs, and psi(y + 10) by its asymptotic series through
    B_14, whose first dropped term is below 1e-16 for |y + 10| >= 10.5. The
    pairs are subtracted from ln(y + 10) before the small terms, so near
    the roots at -0.504 and 1.462 the error stays below 1e-15. Only the
    reflected elements take the cot term, and a column without one skips
    it.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=complex).reshape(-1)
    flip = x.real < 0.5
    y = np.where(flip, 1.0 - x, x)
    w = y + 10.0
    # not y * (y + 9.0): from 256 KiB on, numpy computes x * (temporary)
    # in place with the operands swapped, and a complex product is not
    # bit-symmetric, so the value would depend on the batch's size
    yy = np.multiply(y, y + 9.0)
    u = 1.0 / (w * w)
    series = _PSI_SERIES[0] * u
    for c in _PSI_SERIES[1:]:
        series += c
        series *= u
    # ln(y + 10) minus the pairs, largest first: each rounding falls on a
    # smaller running value
    big = np.empty((1 + _PSI_PAIRS.size, x.size), dtype=complex)
    np.log(w, out=big[0])
    np.divide(2.0 * y + 9.0, yy + _PSI_PAIRS[:, None], out=big[1:])
    out = np.subtract.reduce(big, axis=0) - (0.5 / w + series)
    if flip.any():
        xf = x[flip]
        twice = np.rint(2.0 * xf.real)
        t = np.tan(np.pi * (xf - 0.5 * twice))
        # at a pole, and within ~1e-308 of one where psi passes the float
        # range, 1/t is inf + nan j, and psi comes out nan
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cot = np.where(twice % 2.0 == 0.0, 1.0 / t, -t)
            out[flip] -= np.pi * cot
    return out.reshape(shape)


def pole_sum(c, lo: int, hi: int):
    """sum_{n=lo}^{hi} 1/(c - n) = psi(lo - c) - psi(hi + 1 - c) (DLMF 5.5.2),
    both digammas in one call, for a complex scalar or array c.

    Past the last pole, Re c > hi + 1/2, both arguments are replaced by
    1 - x: the reflection's two cot terms (DLMF 5.5.4) are equal there,
    since the arguments differ by an integer, and cancel exactly.
    """
    x = np.array((lo - c, hi + 1 - c))
    past = np.real(c) > hi + 0.5
    if np.any(past):
        x = np.where(past, 1.0 - x, x)
    lo_psi, hi_psi = _psi(x)
    return lo_psi - hi_psi


def ladder_sums(z, spectrum: LandauSpectrum, closed, reach: float = math.inf):
    """A Landau ladder sum for a complex scalar or array z by its closed
    form, every element in one call.

    With a = z^2 / (hbar w_c)^2, closed(z, a) takes 1-D arrays and returns
    one value or a tuple of values per element, and so does ladder_sums. A
    scalar z is a one-element column, so it gets the value it would get
    inside any column. A column holding an element with |a| > reach N_c,
    that is |z| > sqrt(reach) E_c or so, is refused with a ValueError.
    """
    x = np.asarray(z, dtype=complex).reshape(-1)
    a = x * x / spectrum.hbar_omega_c ** 2
    if reach < math.inf:    # an infinite reach, the SCBA sum's, refuses none
        far = np.abs(a) > reach * spectrum.n_cutoff
        if far.any():
            end = math.sqrt(reach * spectrum.n_cutoff) * spectrum.hbar_omega_c
            raise ValueError(
                f"|E - Sigma| = {np.abs(x[far]).max():.4g} eV lies past "
                f"sqrt({reach:g} N_c) hbar w_c = {end:.4g} eV, about "
                f"sqrt({reach:g}) E_c, where the closed Landau sums lose "
                "digits")
    out = np.asarray(closed(x, a))
    if np.ndim(z) == 0:
        out = out[..., 0][()]
    return tuple(out) if out.ndim > np.ndim(z) else out


def landau_green_sum(z, spectrum: LandauSpectrum):
    """The ladder sum of oracles.landau_green_sum_direct in O(1), for a
    complex scalar or array z, through ladder_sums at every |a|.

    With W = (hbar w_c)^2 and a = z^2/W it equals (z/W)[2 S(a) - 1/a],
    S = pole_sum over n = 0..N_c. Past the ladder's end, |a| > N_c, where
    the Newton iterates of strong disorder go (10.6 N_c at A = 1, 10 T),
    the reflected pole_sum holds 5.3e-15 relative up to |a| = 2 N_c and
    6.7e-13 at 900 N_c.
    """
    def closed(z, a):
        return ((z / spectrum.hbar_omega_c ** 2)
                * (2.0 * pole_sum(a, 0, spectrum.n_cutoff) - 1.0 / a))

    return ladder_sums(z, spectrum, closed)


def level_width(params: ModelParams, spectrum: LandauSpectrum) -> float:
    """The SCBA Landau level width hbar w_c / sqrt(2A)."""
    return spectrum.hbar_omega_c / math.sqrt(2.0 * params.disorder_A)


def solve_self_energy_landau(E, params: ModelParams, spectrum: LandauSpectrum,
                             *, A=None, tol: float = 1e-10,
                             max_iter: int = 100) -> SelfEnergySolution:
    """Root of Sigma = F(Sigma) = ((hbar w_c)^2 / 2A) sum_{n,s} G_{ns}(E) for
    one energy or a 1-D array of energies.

    A, when given, is the disorder of each energy (a 1-D array like E) and
    replaces params.disorder_A; an array over several disorders is one
    solve, and each energy's root is the same bits as in a solve at its
    own disorder. The sum runs over physical levels (n = 0 once) via
    g_n = z / (z^2 - n (hbar w_c)^2) with weights (1, 2, 2, ...), and is
    evaluated by landau_green_sum. Newton's method (_iterate) takes its slope
    dF/dSigma ~ (F(Sigma + h) - F(Sigma))/h, h = 1e-7 |Sigma|, from the same
    ladder call, one on [z, z - h] per step, and starts from the larger of
    the B = 0 Dirac-point width, the level width hbar w_c/sqrt(2A) and
    pi|E|/A on the imaginary axis. The equation can have more than one
    root: an energy whose root lands on the real axis
    (|Im Sigma| <= 1e-9 |Sigma|), or that is still open after max_iter
    steps, is solved again from Re Sigma - i hbar w_c/sqrt(2A). When both
    solves converge on the real axis the first root is a spectral gap and
    stands; otherwise the re-solve's outcome replaces it. steps counts both
    solves.
    """
    hwc = spectrum.hbar_omega_c
    e = np.asarray(E, dtype=float).reshape(-1)

    def per_disorder(a):
        width = hwc / math.sqrt(2.0 * a)    # level_width at disorder a
        return (a, hwc ** 2 / (2.0 * a), width,
                max(params.cutoff_Ec * math.exp(-a / 2.0), width))

    a, scale, width, floor = _disorder_columns(A, e, params, per_disorder)

    def fmap(e, s, scale):
        z = e - s
        h = _FD_STEP * np.maximum(np.abs(s), _RESIDUAL_FLOOR)
        # np.multiply keeps the operand order at any size (see _psi)
        out, shifted = np.multiply(scale, landau_green_sum(
            np.concatenate((z, z - h)), spectrum).reshape(2, -1))
        return out, 1.0 - (shifted - out) / h

    seed = -1j * np.maximum(floor, math.pi * np.abs(e) / a)
    sigma, residual, steps = _iterate(e, seed, fmap, tol, max_iter, scale)
    again = np.flatnonzero(_on_real_axis(sigma) | ~(residual <= tol))
    if again.size:
        s2, r2, n2 = _iterate(e[again],
                              sigma[again].real - 1j * _at(width, again),
                              fmap, tol, max_iter, _at(scale, again))
        gap = (residual[again] <= tol) & (r2 <= tol) & _on_real_axis(s2)
        sigma[again[~gap]], residual[again[~gap]] = s2[~gap], r2[~gap]
        steps[again] += n2
    return _solution(E, e, sigma, residual, steps, tol)


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
    Im Sigma = -hbar w_c / sqrt(W(x)), x = (hbar w_c / Ec)^2 e^A, with
    W = e^u and e^u + u = ln x solved without e^A (it overflows past
    A ~ 709). Newton steps from u = ln max(ln x, 1), right of the root of
    this convex increasing map, fall monotonically until one fails to."""
    hwc = spectrum.hbar_omega_c
    log_x = 2.0 * math.log(hwc / params.cutoff_Ec) + params.disorder_A
    u = math.log(max(log_x, 1.0))
    while True:
        e_u = math.exp(u)
        step = u - (e_u + u - log_x) / (e_u + 1.0)
        if not step < u:
            return -1j * hwc * math.exp(-0.5 * u)
        u = step


def dos(E, sigma, params: ModelParams,
        spectrum: LandauSpectrum | None = None, *, A=None):
    """Density of states per eV nm^2 (includes the degeneracy factor), for
    a float E and complex sigma or a column of each; A, when given, is the
    disorder of each energy and replaces params.disorder_A.

    B = 0 (no spectrum): rho = -(g/4) (2A / pi^2 (hbar v_f)^2) Im Sigma
    B != 0:  rho = -(g/4) (2 / pi^2 l_B^2)(2A / (hbar w_c)^2) Im Sigma
    """
    if np.any(np.imag(sigma) > 0):
        raise ValueError("retarded Im Sigma must be <= 0, got "
                         f"{np.max(np.imag(sigma))}")
    A = params.disorder_A if A is None else A
    scale = params.degeneracy / 4.0
    if spectrum is None:
        return -scale * (2.0 * A / (math.pi ** 2 * params.hbar_vf ** 2)) * sigma.imag
    lb, hwc = spectrum.l_B, spectrum.hbar_omega_c
    return -scale * (2.0 / (math.pi ** 2 * lb ** 2)) * (2.0 * A / hwc ** 2) * sigma.imag


def relaxation_time(sigma: complex) -> float:
    """Quasiparticle lifetime tau = hbar / (2 |Im Sigma|), in hbar/eV, as a
    Python float: at E ~ 1e-309 omega_c_eff * tau then overflows to inf,
    the E = 0 value, without a numpy RuntimeWarning."""
    if sigma.imag >= 0:
        raise ValueError("Im Sigma must be negative for a finite lifetime")
    return 1.0 / (2.0 * abs(float(sigma.imag)))
