"""Exact-analysis engine: per-link and end-to-end SNR distributions for the
lower-bound (noise-term-dropped) SNR forms, and the sum-BER lower bound via
numerical quadrature and via the termwise closed form.

One expansion serves every antenna configuration: the end-to-end CDF and
the closed form both run over the product of the two Wishart largest-
eigenvalue tables (`_general_terms`); a single relay antenna is the case
where each table has one entry.  The special functions are scipy's `kv` and
`hyp2f1` and the math module's `lgamma`; each closed-form summand is a
Bessel moment (Gradshteyn & Ryzhik 6.621.3).

The closed form groups its summands by moment (`_moment_groups`): the
rational parts of the coefficients that share a moment are summed exactly,
and each distinct moment is evaluated once.  It is assembled in the log
domain because its terms span hundreds of orders of magnitude at high SNR.
The final subtraction from the zero-SNR ceiling a/log2(M) loses about
log10(ceiling / sum-BER) digits.  When the double-precision result falls
below 1e-5 of the ceiling, the assembly is redone with mpmath at a
precision sized from that loss, estimated by the high-SNR power law, and
reading the eigenvalue tables as exact rationals.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from typing import NamedTuple

from scipy import integrate
from scipy.special import gammainc, hyp2f1, kv

from .errors import ConfigurationError, NumericalError
from .highsnr import HighSnrProfile, eta_pair, high_snr_sum_ber
from .scenario import AntennaConfig, CoefficientSet, Modulation, PowerProfile
from .specfun import wishart_max_eig_coeffs

_DIRECTIONS = ("arb", "bra")
_log = logging.getLogger(__name__)


def _direction_params(direction: str, coeffs: CoefficientSet, ant: AntennaConfig,
                      pw: PowerProfile):
    """Per-direction bundle: (source antennas, far-side antennas, source
    rho, relay rho toward the destination, A, B, C).  The source side is the
    one whose uplink CCDF enters the first-hop factor."""
    if direction == "arb":
        return ant.m_a, ant.m_b, pw.rho_ar, pw.rho_rb, coeffs.a_arb, coeffs.b_arb, coeffs.c_arb
    if direction == "bra":
        return ant.m_b, ant.m_a, pw.rho_br, pw.rho_ra, coeffs.a_bra, coeffs.b_bra, coeffs.c_bra
    raise ConfigurationError(f"direction must be 'arb' or 'bra', got {direction!r}")


# ---------------------------------------------------------------------------
# Per-link largest-eigenvalue distributions
# ---------------------------------------------------------------------------

def link_cdf(x: float, m_s: int, m_r: int, rho: float) -> float:
    """CDF of rho times the largest eigenvalue of an m_s x m_r Wishart
    channel at x."""
    if x <= 0.0:
        return 0.0
    if rho <= 0.0:
        raise ConfigurationError(f"rho must be positive, got {rho!r}")
    table = wishart_max_eig_coeffs(m_s, m_r)
    u = x / rho
    tail = 0.0
    for (n, m), d in table.entries.items():
        nu = n * u
        term = 1.0
        partial = term
        for k in range(1, m + 1):
            term *= nu / k
            partial += term
        tail += d * partial * math.exp(-nu)
    return 1.0 - tail


def link_pdf(x: float, m_s: int, m_r: int, rho: float) -> float:
    """Density of rho times the largest eigenvalue of an m_s x m_r Wishart
    channel at x."""
    if x < 0.0:
        return 0.0
    if rho <= 0.0:
        raise ConfigurationError(f"rho must be positive, got {rho!r}")
    table = wishart_max_eig_coeffs(m_s, m_r)
    u = x / rho
    dens = 0.0
    for (n, m), d in table.entries.items():
        if u == 0.0:
            term = 1.0 if m == 0 else 0.0
        else:
            term = (n * u) ** m / math.factorial(m)
        dens += d * (n / rho) * term * math.exp(-n * u)
    return dens


# ---------------------------------------------------------------------------
# End-to-end lower-bound SNR CDF
# ---------------------------------------------------------------------------

def _general_terms(m_src: int, m_far: int, m_r: int, exact: bool = False):
    """Index tuples (n, m, k, i, j, p, d_nm, d_ij) of the general expansion,
    with the table coefficients as floats or, if exact, as Fractions."""
    src = wishart_max_eig_coeffs(m_src, m_r)
    far = wishart_max_eig_coeffs(m_far, m_r)
    src, far = (src.exact, far.exact) if exact else (src.entries, far.entries)
    for (n, m), d_nm in src.items():
        for k in range(0, m + 1):
            for (i, j), d_ij in far.items():
                for p in range(0, k + j + 1):
                    yield n, m, k, i, j, p, d_nm, d_ij


def _summands(direction: str, coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile):
    """The summands of the end-to-end CDF tail in one direction: tuples
    (d, ln_coef, q, nu, rate, beta) such that the summand at x is
    d * exp(ln_coef - rate x) * x^q * K_nu(beta x).  The closed form
    integrates the same summands, grouped by moment (`_moment_groups`)."""
    m_src, m_far, rho_src, rho_rel, a, b, c = _direction_params(direction, coeffs, ant, pw)
    for n, m, k, i, j, p, d_nm, d_ij in _general_terms(m_src, m_far, ant.m_r):
        ln_coef = (math.log(2.0)
                   + math.log(math.comb(k + j, p))
                   - math.lgamma(k + 1.0) - math.lgamma(j + 1.0)
                   + 0.5 * (p + k + 1) * (math.log(c * n) - math.log(rho_src))
                   + 0.5 * (2 * j + k - p + 1) * (math.log(b * i) - math.log(rho_rel))
                   - (k + j + 1) * math.log(a))
        rate = (c * n / rho_src + b * i / rho_rel) / a
        beta = (2.0 / a) * math.sqrt(b * c * n * i / (rho_src * rho_rel))
        yield d_nm * d_ij, ln_coef, k + j + 1, abs(p - k + 1), rate, beta


def e2e_cdf(direction: str, x: float, coeffs: CoefficientSet, ant: AntennaConfig,
            pw: PowerProfile) -> float:
    """CDF of the lower-bound end-to-end SNR in one direction, summed over
    the product of the source-side and far-side eigenvalue tables."""
    ant.require_analytic()
    if x <= 0.0:
        return 0.0
    tail_terms = []
    for d, ln_coef, q, nu, rate, beta in _summands(direction, coeffs, ant, pw):
        k_val = kv(nu, beta * x)
        if k_val == 0.0:
            continue
        if math.isinf(k_val):
            raise NumericalError(f"Bessel K overflow at order {nu}, x={beta * x}")
        tail_terms.append(d * math.exp(ln_coef + q * math.log(x) - rate * x) * k_val)
    return 1.0 - math.fsum(tail_terms)


# ---------------------------------------------------------------------------
# Sum-BER lower bound: numerical quadrature route
# ---------------------------------------------------------------------------

def sum_ber_quadrature(coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile,
                       mod: Modulation) -> float:
    """Lower-bound sum-BER by adaptive quadrature of the CDF-weighted
    Gaussian-tail integral, with the square-root substitution removing the
    endpoint singularity."""
    ant.require_analytic()
    pref = mod.a * math.sqrt(mod.b) / (2.0 * math.sqrt(math.pi) * mod.bits_per_symbol)

    def integrand(t: float) -> float:
        u = t * t
        return 2.0 * math.exp(-mod.b * t * t) * (e2e_cdf("bra", u, coeffs, ant, pw)
                                                 + e2e_cdf("arb", u, coeffs, ant, pw))

    upper = math.sqrt(700.0 / mod.b)
    out = integrate.quad(integrand, 0.0, upper, epsabs=1e-13, epsrel=1e-9,
                         limit=500, full_output=1)
    if len(out) > 3:
        raise NumericalError(f"sum-BER quadrature did not converge: {out[3]}")
    value, abserr = out[0], out[1]
    if not math.isfinite(value):
        raise NumericalError("sum-BER quadrature produced a non-finite value")
    return pref * value


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


@functools.lru_cache(maxsize=None)
def _moment_groups(m_src: int, m_far: int, m_r: int) -> tuple:
    """The closed form's summands in one direction, grouped by moment, with
    the rational part of each coefficient summed exactly.  Groups whose
    coefficients cancel exactly are left out.  Code that edits the
    eigenvalue tables must clear this cache."""
    groups: dict = {}
    for n, m, k, i, j, p, d_nm, d_ij in _general_terms(m_src, m_far, m_r, exact=True):
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
    terms = [mod.a / mod.bits_per_symbol]
    for direction in _DIRECTIONS:
        m_src, m_far, rho_src, rho_rel, a, b, c = _direction_params(direction, coeffs, ant, pw)
        for g in _moment_groups(m_src, m_far, ant.m_r):
            x, y = c * g.n / rho_src, b * g.i / rho_rel
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


def _closed_form_mp(coeffs, ant, pw, mod, dps: int) -> float:
    """The closed form assembled with mpmath at dps significant digits, one
    Gamma-2F1 moment per `_MomentGroup`.  The result is not checked; see
    `_closed_form_rescue`."""
    import mpmath as mp

    with mp.workdps(dps):
        pref = mp.mpf(mod.a) * mp.sqrt(mod.b) / (2 * mp.sqrt(mp.pi) * mp.mpf(mod.bits_per_symbol))

        half = mp.mpf(0.5)

        def moment(mu, nu, alpha, beta):
            gammas = mp.gamma(mu + nu) * mp.gamma(mu - nu) / mp.gamma(mu + half)
            z = (alpha - beta) / (alpha + beta)
            if z <= 0.8:
                # G&R 6.621.3 as printed; mpmath sums this 2F1 directly here
                return (mp.sqrt(mp.pi) * (2 * beta) ** nu / (alpha + beta) ** (mu + nu) * gammas
                        * mp.hyp2f1(mu + nu, nu + half, mu + half, z))
            # nearer z = 1 the Pfaff form, as in _ln_bessel_moment: rounding z
            # would cost digits, and mpmath transforms either form alike
            return (mp.sqrt(mp.pi / (2 * beta)) / (alpha + beta) ** (mu - half) * gammas
                    * mp.hyp2f1(half - nu, half + nu, mu + half, -(alpha - beta) / (2 * beta)))

        total = mp.mpf(mod.a) / mp.mpf(mod.bits_per_symbol)
        for direction in _DIRECTIONS:
            m_src, m_far, rho_src, rho_rel, a, b, c = _direction_params(direction, coeffs, ant, pw)
            a = mp.mpf(a)
            for g in _moment_groups(m_src, m_far, ant.m_r):
                x = mp.mpf(c) * g.n / mp.mpf(rho_src)
                y = mp.mpf(b) * g.i / mp.mpf(rho_rel)
                sx, sy = mp.sqrt(x), mp.sqrt(y)
                coef = mp.fsum(mp.mpf(r.numerator) / r.denominator
                               * sx ** e * sy ** (2 * g.s + 2 - e) for e, r in g.powers)
                coef /= a ** (g.s + 1)
                total -= pref * coef * moment(g.s + 1 + half, g.nu, mod.b + (x + y) / a,
                                              2 * sx * sy / a)
        return float(total)


# Digits carried beyond the estimated cancellation, and the precision past
# which the rescue gives up.
_MP_GUARD_DIGITS = 20
_MP_MAX_DPS = 400


def _closed_form_rescue(coeffs, ant, pw, mod) -> float:
    """The closed form at the precision its final cancellation needs.

    The subtraction from the ceiling a/log2 M loses about
    log10(ceiling / value) digits; the value is estimated by the high-SNR
    power law with the same coefficients.  A result at or below
    ceiling * 10^-(dps - 16), or above the ceiling, has lost (nearly) all
    its digits and is recomputed at twice the precision."""
    ceiling = mod.a / mod.bits_per_symbol
    d = ant.m_r * min(ant.m_a, ant.m_b)
    est = high_snr_sum_ber(HighSnrProfile(d, *eta_pair(coeffs, ant, pw), mod), pw.rho_ar)
    lost = max(0.0, math.log10(ceiling) - math.log10(max(est, sys.float_info.min)))
    moments = sum(len(_moment_groups(*_direction_params(direction, coeffs, ant, pw)[:2], ant.m_r))
                  for direction in _DIRECTIONS)
    dps = min(_MP_GUARD_DIGITS + math.ceil(lost), _MP_MAX_DPS)
    tried, resolved = [], False
    while dps <= _MP_MAX_DPS and not resolved:
        tried.append(dps)
        value = _closed_form_mp(coeffs, ant, pw, mod, dps)
        resolved = 0.0 < value <= ceiling and math.log10(value / ceiling) > 16 - dps
        dps *= 2
    _log.debug("closed-form rescue%s: %.1f digits lost (estimated), dps tried %s, "
               "%d moments evaluated", "" if resolved else " failed", lost, tried,
               moments * len(tried))
    if not resolved:
        raise NumericalError(f"closed-form sum-BER did not resolve at up to {tried[-1]} digits "
                             f"(last value {value!r}, ceiling {ceiling!r})")
    return value


def sum_ber_closed_form(coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile,
                        mod: Modulation, method: str = "auto") -> float:
    """Lower-bound sum-BER assembled from one Gamma-function and Gauss
    hypergeometric moment per distinct (n, i, s, nu) group of summands.

    method "auto" uses the double-precision log-domain assembly and escalates
    to mpmath when the result is too small to survive the final cancellation
    against the zero-SNR ceiling; "mp" always uses mpmath.  The mpmath path
    sizes its precision from the digits the cancellation costs, and never
    returns a value at or below 0 or above the ceiling: it raises
    NumericalError instead.  A debug record on the "twrelay.analysis"
    logger reports the digits lost, the precisions tried and the moments
    evaluated.
    """
    ant.require_analytic()
    if method not in ("auto", "mp"):
        raise ConfigurationError(f"unknown closed-form method {method!r}")
    if method == "mp":
        return _closed_form_rescue(coeffs, ant, pw, mod)
    value = _closed_form_f64(coeffs, ant, pw, mod)
    ceiling = mod.a / mod.bits_per_symbol
    if not math.isfinite(value):
        raise NumericalError("closed-form assembly produced a non-finite value")
    if value <= ceiling * 1e-5:
        # the assembly subtracts terms summing to ~ceiling, so a result this
        # small has lost too many digits to cancellation
        return _closed_form_rescue(coeffs, ant, pw, mod)
    return value


# ---------------------------------------------------------------------------
# High-SNR min-of-links distribution (approximation diagnostics)
# ---------------------------------------------------------------------------

def min_pair_cdf(direction: str, x: float, coeffs: CoefficientSet, ant: AntennaConfig,
                 pw: PowerProfile) -> float:
    """CDF of min(B g_src, C g_rel) assembled termwise from the two-link
    product-rule density (the high-SNR surrogate for the lower-bound SNR
    scaled by A / (B C))."""
    ant.require_analytic()
    if x <= 0.0:
        return 0.0
    m_src, m_far, rho_src, rho_rel, a, b, c = _direction_params(direction, coeffs, ant, pw)
    src = wishart_max_eig_coeffs(m_src, ant.m_r).entries
    far = wishart_max_eig_coeffs(m_far, ant.m_r).entries
    s_b = b * rho_src    # scale of B g_src
    s_c = c * rho_rel    # scale of C g_rel
    total = []
    for (n, m), d_nm in src.items():
        for (i, j), d_ij in far.items():
            rate = n / s_b + i / s_c
            # density-of-first times tail-of-second
            for p in range(0, j + 1):
                q = m + p
                coef = (d_nm * d_ij * n ** (m + 1) * i ** p
                        / (math.factorial(m) * math.factorial(p)
                           * s_b ** (m + 1) * s_c ** p))
                total.append(coef * math.factorial(q) / rate ** (q + 1)
                             * gammainc(q + 1, rate * x))
            # tail-of-first times density-of-second
            for k in range(0, m + 1):
                q = k + j
                coef = (d_nm * d_ij * n ** k * i ** (j + 1)
                        / (math.factorial(k) * math.factorial(j)
                           * s_b ** k * s_c ** (j + 1)))
                total.append(coef * math.factorial(q) / rate ** (q + 1)
                             * gammainc(q + 1, rate * x))
    return math.fsum(total)
