"""Exact-analysis engine: per-link and end-to-end SNR distributions for the
lower-bound (noise-term-dropped) SNR forms, and the sum-BER lower bound, by
numerical integration and by the paper's termwise closed form.

The distributions and the integral come from `lowerbound`: the per-link
largest-eigenvalue CDF and density in their determinant form (Kang & Alouini
2003; Chiani, Win & Zanella 2003), the end-to-end CDF by conditioning on the
far link, and the sum-BER as the average of Q over both link gains of each
direction, one trapezoid grid over the product of the two link densities.
Every term there is non-negative, so nothing cancels; the trapezoid rules
are refined until their error estimate is below 1e-13 of the value, and a
NumericalError is raised rather than return a value they cannot back.  A
symmetric network (the same antennas at both sources, equal link SNRs and
equal constants in both directions) has two equal directions, and its
sum-BER integrates one of them.

The closed form runs over the product of the two links' exact
largest-eigenvalue expansions, which `lowerbound.ccdf_expansion` reads off
the same determinant; each summand is a Bessel moment (Gradshteyn & Ryzhik
6.621.3) with scipy's `hyp2f1` and the math module's `lgamma`.  Summands
that share a moment are grouped (`_moment_groups`), the rational parts of
their coefficients summed exactly, and each distinct moment evaluated once,
in the log domain because the terms span hundreds of orders of magnitude at
high SNR.  The final subtraction from the zero-SNR ceiling a/log2(M) loses
about log10(ceiling / sum-BER) digits, so below 1e-5 of the ceiling the
sum-BER comes from the integral instead.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import NamedTuple

import numpy as np
from scipy.special import hyp2f1

from . import lowerbound
from .errors import ConfigurationError, NumericalError, UnsupportedConfigError
from .scenario import AntennaConfig, CoefficientSet, Modulation, PowerProfile

_DIRECTIONS = ("arb", "bra")
# the most antennas at any node that the link laws and the closed form are
# tested for
MAX_TABLE_DIM = 4
# share of the zero-SNR ceiling a/log2 M at or below which the closed form
# has lost too many digits and sum_ber_closed_form takes the integral
FALLBACK_SHARE = 1e-5
_log = logging.getLogger(__name__)


def _require_link(m_s: int, m_r: int) -> None:
    if m_s < m_r:
        raise ConfigurationError(f"link laws take m_s >= m_r; swap the dimensions (got {m_s}x{m_r})")
    if not (1 <= m_r and m_s <= MAX_TABLE_DIM):
        raise UnsupportedConfigError(f"link laws cover dimensions up to {MAX_TABLE_DIM}, got {m_s}x{m_r}")


def require_analytic(ant: AntennaConfig) -> None:
    """The antenna counts that the analytic and high-SNR engines serve: m_r
    to MAX_TABLE_DIM at each source (ConfigurationError below m_r, naming the
    swap; UnsupportedConfigError above the limit).  Monte Carlo takes any."""
    for m_s in (ant.m_a, ant.m_b):
        _require_link(m_s, ant.m_r)


# ---------------------------------------------------------------------------
# Per-link largest-eigenvalue distributions
# ---------------------------------------------------------------------------

def _check_link(m_s: int, m_r: int, rho: float) -> None:
    _require_link(m_s, m_r)
    if rho <= 0.0:
        raise ConfigurationError(f"rho must be positive, got {rho!r}")


def link_cdf(x: float, m_s: int, m_r: int, rho: float) -> float:
    """CDF of rho times the largest eigenvalue of an m_s x m_r Wishart
    channel at x."""
    if x <= 0.0:
        return 0.0
    _check_link(m_s, m_r, rho)
    return float(lowerbound.link_cdf_pdf(np.array([x / rho]), m_s, m_r)[0][0])


def link_pdf(x: float, m_s: int, m_r: int, rho: float) -> float:
    """Density of rho times the largest eigenvalue of an m_s x m_r Wishart
    channel at x."""
    if x < 0.0:
        return 0.0
    _check_link(m_s, m_r, rho)
    return float(lowerbound.link_cdf_pdf(np.array([x / rho]), m_s, m_r)[1][0]) / rho


# ---------------------------------------------------------------------------
# End-to-end lower-bound SNR CDF and the sum-BER integral
# ---------------------------------------------------------------------------

def _direction(direction: str, coeffs: CoefficientSet, ant: AntennaConfig,
               pw: PowerProfile) -> lowerbound.Direction:
    """One direction's lower-bound SNR A g_s g_f / (B g_s + C g_f): the
    source link, whose gain enters the first hop, the far link from the
    relay to the destination, and the direction's (A, B, C)."""
    require_analytic(ant)
    if direction == "arb":
        return lowerbound.Direction(lowerbound.Link(ant.m_a, ant.m_r, pw.rho_ar),
                                    lowerbound.Link(ant.m_b, ant.m_r, pw.rho_rb),
                                    coeffs.a_arb, coeffs.b_arb, coeffs.c_arb)
    if direction == "bra":
        return lowerbound.Direction(lowerbound.Link(ant.m_b, ant.m_r, pw.rho_br),
                                    lowerbound.Link(ant.m_a, ant.m_r, pw.rho_ra),
                                    coeffs.a_bra, coeffs.b_bra, coeffs.c_bra)
    raise ConfigurationError(f"direction must be 'arb' or 'bra', got {direction!r}")


def e2e_cdf(direction: str, x: float | np.ndarray, coeffs: CoefficientSet,
            ant: AntennaConfig, pw: PowerProfile) -> float | np.ndarray:
    """CDF of the lower-bound end-to-end SNR in one direction at x (a float,
    or an array of thresholds of any shape, returned in that shape),
    refined to an estimated relative error below 1e-13 (NumericalError
    otherwise).  It is 0 at x <= 0, 1 at x = inf and NaN at NaN."""
    d = _direction(direction, coeffs, ant, pw)
    cdf = lowerbound.e2e_cdf(x, *d)[0]
    return cdf if cdf.ndim else float(cdf)


def _sum_ber_integral(coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile,
                      mod: Modulation, path: str) -> float:
    """The sum-BER lower bound from the integration engine, checked to lie
    in (0, a/log2 M] within its tolerance; one debug record on the
    "twrelay.analysis" logger gives the path, the error estimate, the grid
    points and the link-law arguments."""
    est = lowerbound.sum_ber([_direction(d, coeffs, ant, pw) for d in _DIRECTIONS],
                             mod.a, mod.b, mod.bits_per_symbol)
    _log.debug("sum-BER by the lower-bound integral (%s): %.6e, error estimate %.1e, "
               "%d grid points, %d link-law arguments",
               path, est.value, est.error, est.grid_points, est.link_args)
    ceiling = mod.ceiling
    # where every CDF is near 1 the value rounds to within the tolerance of
    # the ceiling, on either side
    if not 0.0 < est.value <= ceiling * (1.0 + lowerbound.REL_TOL):
        raise NumericalError(f"sum-BER integral gave {est.value!r} outside (0, {ceiling!r}]")
    return min(est.value, ceiling)


def sum_ber_quadrature(coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile,
                       mod: Modulation) -> float:
    """Lower-bound sum-BER as the average of Q over both link gains of each
    direction, one trapezoid grid over the two link densities
    (`lowerbound.sum_ber`), refined to an estimated relative error below
    1e-13."""
    return _sum_ber_integral(coeffs, ant, pw, mod, "quadrature")


# ---------------------------------------------------------------------------
# Sum-BER lower bound: termwise closed form
# ---------------------------------------------------------------------------

def bessel_moment(mu: float, nu: int, alpha: float, beta: float) -> float:
    """The weighted Bessel moment
    int_0^inf x^(mu-1) exp(-alpha x) K_nu(beta x) dx
    for 0 < beta < alpha and mu > |nu|, evaluated through its Gamma and
    Gauss-hypergeometric closed form (Gradshteyn & Ryzhik 6.621.3)."""
    nu = abs(int(nu))
    if not 0.0 < beta < alpha:
        raise ConfigurationError(f"bessel_moment requires 0 < beta < alpha, got {beta}, {alpha}")
    if not mu - nu > 0.0:
        raise ConfigurationError(f"bessel_moment requires mu > |nu|, got mu={mu}, nu={nu}")
    return math.exp(_ln_bessel_moment(mu, nu, alpha, beta))


def _ln_bessel_moment(mu: float, nu: int, alpha: float, beta: float) -> float:
    # G&R 6.621.3 has F(mu+nu, nu+1/2; mu+1/2; z) with z = (alpha-beta)/(alpha+beta).
    # At high SNR z comes within 1/rho of the singular point z = 1, where F
    # grows like (1-z)^(-2 nu) and rounding z alone costs digits.  The Pfaff
    # transformation moves the argument to z/(z-1) = -(alpha-beta)/(2 beta),
    # computed from alpha and beta directly.
    hyp = hyp2f1(0.5 - nu, 0.5 + nu, mu + 0.5, -(alpha - beta) / (2.0 * beta))
    return (0.5 * math.log(math.pi) - 0.5 * math.log(2.0 * beta)
            - (mu - 0.5) * math.log(alpha + beta)
            + math.lgamma(mu + nu) + math.lgamma(mu - nu) - math.lgamma(mu + 0.5)
            + math.log(hyp))


class _MomentGroup(NamedTuple):
    """The closed-form summands of one direction that share a Bessel moment.

    The moment depends only on (n, i, s = k + j, nu = |p - k + 1|): alpha
    and beta come from (n, i), mu = s + 3/2.  The group's coefficient is
    sum over (e, r) in `powers` of r * X^(e/2) * Y^(s + 1 - e/2) / A^(s + 1),
    with X = C n / rho_src, Y = B i / rho_rel and r an exact rational.
    """

    n: int
    i: int
    s: int
    nu: int
    powers: tuple


def _general_terms(m_src: int, m_far: int, m_r: int):
    """Index tuples (n, m, k, i, j, p, d_nm, d_ij) of the closed form's
    expansion in one direction, with the exact coefficients of the two
    links' largest-eigenvalue laws."""
    src = lowerbound.ccdf_expansion(m_src, m_r)
    far = lowerbound.ccdf_expansion(m_far, m_r)
    for (n, m), d_nm in src:
        for k in range(0, m + 1):
            for (i, j), d_ij in far:
                for p in range(0, k + j + 1):
                    yield n, m, k, i, j, p, d_nm, d_ij


@functools.lru_cache(maxsize=None)
def _moment_groups(m_src: int, m_far: int, m_r: int) -> tuple:
    """The closed form's summands in one direction, grouped by moment, with
    the rational part of each coefficient summed exactly.  Groups whose
    coefficients cancel exactly are left out."""
    groups: dict = {}
    for n, m, k, i, j, p, d_nm, d_ij in _general_terms(m_src, m_far, m_r):
        powers = groups.setdefault((n, i, k + j, abs(p - k + 1)), {})
        r = 2 * d_nm * d_ij * math.comb(k + j, p) / (math.factorial(k) * math.factorial(j))
        powers[p + k + 1] = powers.get(p + k + 1, 0) + r
    out = []
    for key, powers in sorted(groups.items()):
        nonzero = tuple((e, r) for e, r in sorted(powers.items()) if r != 0)
        if nonzero:
            out.append(_MomentGroup(*key, nonzero))
    return tuple(out)


def _closed_form_f64(coeffs, ant, pw, mod) -> float:
    ln_pref = (math.log(mod.a) + 0.5 * math.log(mod.b)
               - math.log(2.0) - 0.5 * math.log(math.pi)
               - math.log(mod.bits_per_symbol))
    terms = [mod.ceiling]
    for direction in _DIRECTIONS:
        src, far, a, b, c = _direction(direction, coeffs, ant, pw)
        for g in _moment_groups(src.m, far.m, ant.m_r):
            x, y = c * g.n / src.rho, b * g.i / far.rho
            ln_x, ln_y = math.log(x), math.log(y)
            # the group's coefficient, scaled by its largest part
            ln_parts = [math.log(abs(r)) + 0.5 * e * ln_x + (g.s + 1 - 0.5 * e) * ln_y
                        for e, r in g.powers]
            top = max(ln_parts)
            coef = math.fsum(math.copysign(math.exp(ln - top), r)
                             for ln, (_, r) in zip(ln_parts, g.powers))
            # the moment integrates x^(s + 1/2) exp(-(b + rate) x) K_nu(beta x)
            ln_moment = _ln_bessel_moment(g.s + 1.5, g.nu, mod.b + (x + y) / a,
                                          2.0 * math.sqrt(x * y) / a)
            terms.append(-coef * math.exp(ln_pref + top - (g.s + 1) * math.log(a) + ln_moment))
    return math.fsum(terms)


def sum_ber_closed_form(coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile,
                        mod: Modulation) -> float:
    """Lower-bound sum-BER assembled from one Gamma-function and Gauss
    hypergeometric moment per distinct (n, i, s, nu) group of summands.

    The double-precision assembly subtracts terms that sum to about the
    zero-SNR ceiling a/log2 M, so a result at or below FALLBACK_SHARE (1e-5)
    of the ceiling has lost too many digits; there the value comes from the
    integral of non-negative terms (`lowerbound.sum_ber`: Q averaged over the
    determinant-form densities of both link gains), refined until its error
    estimate is below 1e-13 relative, checked to lie in (0, ceiling] and
    reported in one debug record on the "twrelay.analysis" logger.
    """
    value = _closed_form_f64(coeffs, ant, pw, mod)
    if not math.isfinite(value):
        raise NumericalError("closed-form assembly produced a non-finite value")
    if value <= mod.ceiling * FALLBACK_SHARE:
        return _sum_ber_integral(coeffs, ant, pw, mod,
                                 f"closed form at or below {FALLBACK_SHARE:g} of the ceiling")
    return value


# ---------------------------------------------------------------------------
# High-SNR min-of-links distribution (approximation diagnostics)
# ---------------------------------------------------------------------------

def min_pair_cdf(direction: str, x: float | np.ndarray, coeffs: CoefficientSet,
                 ant: AntennaConfig, pw: PowerProfile) -> float | np.ndarray:
    """CDF of min(B g_src, C g_far) at x (a float, or an array of
    thresholds), the high-SNR surrogate for the lower-bound SNR scaled by
    A / (B C).  The links are independent, so it is F_s + F_f (1 - F_s)
    with the determinant-form link CDFs F_s of B g_src and F_f of C g_far:
    non-negative terms only."""
    src, far, _, b, c = _direction(direction, coeffs, ant, pw)
    xs = np.maximum(np.atleast_1d(np.asarray(x, dtype=float)), 0.0)
    f_s = lowerbound.link_cdf_pdf(xs / (b * src.rho), src.m, src.n)[0]
    f_f = lowerbound.link_cdf_pdf(xs / (c * far.rho), far.m, far.n)[0]
    cdf = f_s + f_f * (1.0 - f_s)
    return cdf if np.ndim(x) else float(cdf[0])
