"""Exact-analysis engine: the end-to-end SNR distribution of the
lower-bound (noise-term-dropped) SNR forms, and the sum-BER lower bound,
by numerical integration; and the paper's termwise closed form of that
bound, which `validate` checks against the integral.

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

Each direction's end-to-end SNR law A g_s g_f / (B g_s + C g_f + 1) is
stated once, by `direction_scales`: on the power-free link gains lambda it
is 1 / gamma = k_s / lambda_s + k_f / lambda_f + kappa / (lambda_s
lambda_f), with the noise scale kappa = 1 / (A rho_s rho_f).  The lower
form drops kappa.  The engines here and `highsnr` read (k_s, k_f) through
`_direction`; Monte Carlo (`simulate.end_to_end_snrs`) reads all three.

The closed form (`_closed_form_f64`) runs over the product of the two
links' exact largest-eigenvalue expansions, which `lowerbound.ccdf_expansion`
reads off the same determinant; each summand is a Bessel moment
(Gradshteyn & Ryzhik 6.621.3) with scipy's `hyp2f1` and the math module's
`lgamma`.  Summands that share a moment are grouped (`_moment_groups`), the
rational parts of their coefficients summed exactly, and each distinct
moment evaluated once, in the log domain because the terms span hundreds of
orders of magnitude at high SNR.  The cached groups also hold each
rational's ln|r| and sign as floats, so the double-precision assembly
converts no rational per call; it takes a direction's 2F1 values from one
`hyp2f1` array call through `_ln_bessel_moment`, the one statement of the
moment formula, and assembles equal directions (a symmetric network's two)
once, counting their terms twice.  Its terms, the zero-SNR ceiling
a/log2(M) among them, cancel down to the sum-BER, so its rounding error
follows their absolute sum: it is at most c eps sum|terms| with c = 32
(27.0 at worst, measured over every configuration up to 4 antennas).
"""

from __future__ import annotations

import functools
import logging
import math
from collections import Counter
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
# The double-precision assembly's rounding bound is _ROUNDING_C eps sum|terms|
# (eps = 2^-52; at worst 27.0 eps sum|terms|, measured over every
# configuration up to 4 antennas).
_ROUNDING_C = 32.0
_log = logging.getLogger(__name__)


def require_analytic(ant: AntennaConfig) -> None:
    """The antenna counts that the analytic and high-SNR engines serve: m_r
    to MAX_TABLE_DIM at each source (ConfigurationError below m_r, naming the
    swap; UnsupportedConfigError above the limit).  Monte Carlo takes any."""
    for m_s in (ant.m_a, ant.m_b):
        if m_s < ant.m_r:
            raise ConfigurationError(f"link laws take m_s >= m_r; swap the dimensions "
                                     f"(got {m_s}x{ant.m_r})")
        if not (1 <= ant.m_r and m_s <= MAX_TABLE_DIM):
            raise UnsupportedConfigError(f"link laws cover dimensions up to {MAX_TABLE_DIM}, "
                                         f"got {m_s}x{ant.m_r}")


# ---------------------------------------------------------------------------
# End-to-end lower-bound SNR CDF and the sum-BER integral
# ---------------------------------------------------------------------------

def _links(direction: str, ant: AntennaConfig) -> tuple:
    """One direction's source link, whose gain enters the first hop, and far
    link, from the relay to the destination: (src, far)."""
    require_analytic(ant)
    if direction == "arb":
        m_s, m_f = ant.m_a, ant.m_b
    elif direction == "bra":
        m_s, m_f = ant.m_b, ant.m_a
    else:
        raise ConfigurationError(f"direction must be 'arb' or 'bra', got {direction!r}")
    return lowerbound.Link(m_s, ant.m_r), lowerbound.Link(m_f, ant.m_r)


def direction_scales(coeffs: CoefficientSet, pw: PowerProfile) -> tuple:
    """Each direction's (k_s, k_f, kappa), arb first: the one statement of
    the end-to-end SNR law A g_s g_f / (B g_s + C g_f + 1) on the power-free
    link gains lambda (g_s = rho_s lambda_s at the source link, g_f = rho_f
    lambda_f at the far one),

        1 / gamma = k_s / lambda_s + k_f / lambda_f + kappa / (lambda_s lambda_f),

    k_s = C / (A rho_s), k_f = B / (A rho_f) and kappa = 1 / (A rho_s rho_f),
    the noise scale.  The lower form drops kappa, which leaves the harmonic
    mean bound (Hasna & Alouini 2003): m / 2 <= gamma <= m for m =
    min(lambda_s / k_s, lambda_f / k_f).  The analytic engines read k_s and
    k_f (`_direction`), Monte Carlo all three; no antenna count is checked,
    since Monte Carlo takes any.  A scale whose divisor is 0 is infinite: a
    zero relay weight (A = 0, at beta = 0 or 1 for the weighted protocols)
    makes all three so, and gamma = 0 at every draw; an underflow at an
    extreme SNR makes the scales it divides infinite."""
    return _scales(pw, coeffs.a_arb, coeffs.b_arb, coeffs.c_arb,
                   coeffs.a_bra, coeffs.b_bra, coeffs.c_bra)


def _scales(pw: PowerProfile, a_arb, b_arb, c_arb, a_bra, b_bra, c_bra) -> tuple:
    """`direction_scales` of the six constants in `CoefficientSet`'s field
    order, as `scenario._unified_constants` gives them, which
    `highsnr.beta_numeric` evaluates at each step without building a
    CoefficientSet."""
    return ((_per(c_arb, a_arb * pw.rho_ar), _per(b_arb, a_arb * pw.rho_rb),
             _per(1.0, a_arb * pw.rho_ar * pw.rho_rb)),
            (_per(c_bra, a_bra * pw.rho_br), _per(b_bra, a_bra * pw.rho_ra),
             _per(1.0, a_bra * pw.rho_br * pw.rho_ra)))


def _per(x: float, y: float) -> float:
    """x / y, inf where the divisor y is 0 (also for x = 0: k_f at B = A = 0)."""
    return x / y if y else math.inf


def _direction(direction: str, coeffs: CoefficientSet, ant: AntennaConfig,
               pw: PowerProfile) -> lowerbound.Direction:
    """One direction's lower-bound SNR A g_s g_f / (B g_s + C g_f): its links
    (`_links`) and finite scales k_s, k_f (`direction_scales`)."""
    src, far = _links(direction, ant)
    k_s, k_f, _ = direction_scales(coeffs, pw)[_DIRECTIONS.index(direction)]
    if math.isinf(k_s) or math.isinf(k_f):
        raise ConfigurationError(f"the {direction} direction's scales are k_s = {k_s:g}, k_f = "
                                 f"{k_f:g}: its SNR is 0 at every draw (a zero relay weight, or "
                                 f"an extreme SNR), which has no end-to-end CDF or power law "
                                 f"(--mode mc and closed take it)")
    return lowerbound.Direction(src, far, k_s, k_f)


def e2e_cdf(direction: str, x: float | np.ndarray, coeffs: CoefficientSet,
            ant: AntennaConfig, pw: PowerProfile) -> float | np.ndarray:
    """CDF of the lower-bound end-to-end SNR in one direction at x (a float,
    or an array of thresholds of any shape, returned in that shape),
    refined until its estimated relative error is below 1e-13
    (NumericalError otherwise).  It is 0 at x <= 0, 1 at x = inf and NaN
    at NaN.  Each value is the one its threshold gives alone, bit for bit."""
    d = _direction(direction, coeffs, ant, pw)
    cdf = lowerbound.e2e_cdf(x, *d)[0]
    return cdf if cdf.ndim else float(cdf)


def _directions(coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile) -> list:
    """Both directions' lower-bound SNRs (`_direction`), arb first."""
    return [_direction(d, coeffs, ant, pw) for d in _DIRECTIONS]


def sum_ber_quadrature(coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile,
                       mod: Modulation) -> float:
    """Lower-bound sum-BER as the average of Q over both link gains of each
    direction, one trapezoid grid over the two link densities
    (`lowerbound.sum_ber`), refined to an estimated relative error below
    1e-13 and checked to lie in (0, a/log2 M]; one debug record on the
    "twrelay.analysis" logger gives the value, error estimate, grid points
    and link-law arguments.  A direction with an infinite scale (a zero
    relay weight, at beta = 0 or 1 for the weighted protocols, or an
    underflow at an extreme SNR) has gamma = 0 at every draw, and adds its
    exact (a / log2 M) Q(0), half the ceiling, to which the smallest-double
    floor of `lowerbound.sum_ber` applies with the rest."""
    require_analytic(ant)
    live = [d for d, (k_s, k_f, _) in zip(_DIRECTIONS, direction_scales(coeffs, pw))
            if not (math.isinf(k_s) or math.isinf(k_f))]
    ceiling = mod.ceiling
    silenced = 0.5 * ceiling * (len(_DIRECTIONS) - len(live))
    if not live:
        return silenced
    est = lowerbound.sum_ber([_direction(d, coeffs, ant, pw) for d in live],
                             mod.a, mod.b, mod.bits_per_symbol, silenced)
    _log.debug("sum-BER by the lower-bound integral: %.6e, error estimate %.1e, "
               "%d grid points, %d link-law arguments",
               est.value, est.error, est.grid_points, est.link_args)
    # where every CDF is near 1 the value rounds to within the tolerance of
    # the ceiling, on either side
    if not 0.0 < est.value <= ceiling * (1.0 + lowerbound.REL_TOL):
        raise NumericalError(f"sum-BER integral gave {est.value!r} outside (0, {ceiling!r}]")
    return min(est.value, ceiling)


# ---------------------------------------------------------------------------
# Sum-BER lower bound: termwise closed form
# ---------------------------------------------------------------------------

def _ln_bessel_moment(mu, nu, alpha, beta) -> list:
    """ln of the weighted Bessel moment
    int_0^inf x^(mu-1) exp(-alpha x) K_nu(beta x) dx, 0 < beta < alpha and
    mu > nu, of each entry of the equal-length sequences mu, nu, alpha and
    beta, through its Gamma and Gauss-hypergeometric closed form (Gradshteyn
    & Ryzhik 6.621.3), with one `hyp2f1` call over all of them.  The closed
    form's orders nu are integers; at those up to 17, against a 50-digit
    mpmath oracle over mu up to nu + 8.5 and 1 - z from 0.9 to 1e-8
    (z = (alpha - beta)/(alpha + beta)), the moment is within 1.3e-13
    relative."""
    # G&R 6.621.3 has F(mu+nu, nu+1/2; mu+1/2; z) with z = (alpha-beta)/(alpha+beta).
    # At high SNR z comes within 1/rho of the singular point z = 1, where F
    # grows like (1-z)^(-2 nu) and rounding z alone costs digits.  The Pfaff
    # transformation moves the argument to z/(z-1) = -(alpha-beta)/(2 beta),
    # computed from alpha and beta directly.
    hyp = hyp2f1([0.5 - v for v in nu], [0.5 + v for v in nu], [m + 0.5 for m in mu],
                 [-(a - b) / (2.0 * b) for a, b in zip(alpha, beta)])
    return [0.5 * math.log(math.pi) - 0.5 * math.log(2.0 * b)
            - (m - 0.5) * math.log(a + b)
            + math.lgamma(m + v) + math.lgamma(m - v) - math.lgamma(m + 0.5)
            + math.log(h)
            for m, v, a, b, h in zip(mu, nu, alpha, beta, hyp)]


class _MomentGroup(NamedTuple):
    """The closed-form summands of one direction that share a Bessel moment.

    The moment depends only on (n, i, s = k + j, nu = |p - k + 1|): alpha
    and beta come from (n, i), mu = s + 3/2.  The group's coefficient is
    sum over (e, r) in `powers` of r * X^(e/2) * Y^(s + 1 - e/2), with
    X = n k_s, Y = i k_f (the direction's scales) and r an exact rational.
    The double-precision assembly reads r only as ln_r, the floats ln|r|,
    and sign, the floats +-1.0 of its sign, one each per power in the order
    of `powers`, converted from the rationals once per table.
    """

    n: int
    i: int
    s: int
    nu: int
    powers: tuple
    ln_r: tuple
    sign: tuple


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
            out.append(_MomentGroup(*key, nonzero,
                                    tuple(math.log(abs(r)) for _, r in nonzero),
                                    tuple(math.copysign(1.0, r) for _, r in nonzero)))
    return tuple(out)


def _closed_form_f64(directions: list, mod: Modulation) -> tuple:
    """The paper's closed form of the sum-BER lower bound, assembled in
    double precision over the directions (`_directions`), and its rounding
    bound: (value, bound).  `validate.check_closed_vs_quadrature` holds it to
    `sum_ber_quadrature`."""
    ln_pref = (math.log(mod.a) + 0.5 * math.log(mod.b)
               - math.log(2.0) - 0.5 * math.log(math.pi)
               - math.log(mod.bits_per_symbol))
    terms = [mod.ceiling]
    # equal directions (a symmetric network's two) are assembled once; fsum
    # takes each of their terms as often as the direction occurs
    for (src, far, k_s, k_f), count in Counter(directions).items():
        tops, coefs, moments = [], [], []
        # ln x, ln y and the moment's two rates, once per distinct (n, i)
        at_ni = {}
        for g in _moment_groups(src.m, far.m, src.n):
            if (g.n, g.i) not in at_ni:
                x, y = g.n * k_s, g.i * k_f
                beta = 2.0 * math.sqrt(x * y)
                if not beta:
                    # x y is below the smallest double (at thousands of dB)
                    raise NumericalError("closed-form assembly cannot run at this SNR: a Bessel "
                                         "moment's beta = 2 sqrt(x y) underflows to 0")
                at_ni[g.n, g.i] = (math.log(x), math.log(y), mod.b + x + y, beta)
            ln_x, ln_y, rate, beta = at_ni[g.n, g.i]
            # the group's coefficient, scaled by its largest part
            ln_parts = [ln_r + 0.5 * e * ln_x + (g.s + 1 - 0.5 * e) * ln_y
                        for (e, _), ln_r in zip(g.powers, g.ln_r)]
            top = max(ln_parts)
            tops.append(top)
            coefs.append(math.fsum(math.copysign(math.exp(ln - top), sign)
                                   for ln, sign in zip(ln_parts, g.sign)))
            # the moment integrates x^(s + 1/2) exp(-(b + rate) x) K_nu(beta x)
            moments.append((g.s + 1.5, g.nu, rate, beta))
        ln_moments = _ln_bessel_moment(*zip(*moments))
        terms += [-coef * math.exp(ln_pref + top + ln_moment)
                  for coef, top, ln_moment in zip(coefs, tops, ln_moments)] * count
    # at extreme SNR 2F1 overflows, and terms of both signs can be infinite
    if not all(map(math.isfinite, terms)):
        raise NumericalError("closed-form assembly produced a non-finite value")
    # the value and its rounding bound c eps sum|terms|, c = _ROUNDING_C: fsum
    # rounds once, and each term carries a few ulps of its size from exp, log
    # and 2F1
    return math.fsum(terms), _ROUNDING_C * math.ulp(1.0) * math.fsum(map(abs, terms))
