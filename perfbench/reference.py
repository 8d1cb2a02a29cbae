"""High-precision oracle for the benchmark's reference values.

Everything here is the benchmark's own code and uses no part of `twrelay`:
the largest-eigenvalue tables are derived in exact rationals from the
determinant form of the Wishart CDF, and every sum-BER, CDF and asymptote
value is evaluated with mpmath at `DPS` digits.  The formulas are the
lower-bound (noise-term-dropped) model of the paper: per direction, the
end-to-end SNR is A g1 g2 / (B g1 + C g2), where g1 is the source uplink
and g2 the relay downlink.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

DPS = 90

_SLOTS = {"two_slot": 2, "first_three_slot": 3, "second_three_slot": 3,
          "first_four_slot": 4, "second_four_slot": 4}
WEIGHTED = ("first_three_slot", "second_four_slot")


def modulation(protocol: str):
    """(a, b, M) of the rate-normalised constellation: QPSK for two slots,
    8-QAM for three, 16-QAM for four."""
    slots = _SLOTS[protocol]
    if slots == 2:
        return mp.mpf(2), mp.sin(mp.pi / 4) ** 2, 4
    m = 8 if slots == 3 else 16
    return 4 * (1 - 1 / mp.sqrt(m)), mp.mpf(3) / (2 * (m - 1)), m


def ceiling(protocol: str) -> float:
    """Zero-SNR ceiling a / log2(M) of the sum-BER."""
    a, _, m = modulation(protocol)
    return float(a / math.log2(m))


@lru_cache(maxsize=None)
def wishart_table(m_s: int, m_r: int) -> dict:
    """Exact coefficients d[n, m] of
    P(L > x) = sum d[n, m] sum_{k<=m} (n x)^k e^(-n x) / k!
    for the largest eigenvalue L of an m_s x m_r complex Wishart matrix,
    from F(x) = det[gamma(n_max - n_min + i + j - 1, x)] / K."""
    import sympy

    x, y = sympy.symbols("x y")          # y stands for exp(-x)
    big, small = max(m_s, m_r), min(m_s, m_r)

    def lower_gamma(a: int):
        return sympy.factorial(a - 1) * (1 - y * sum(x ** k / sympy.factorial(k) for k in range(a)))

    mat = sympy.Matrix(small, small, lambda i, j: lower_gamma(big - small + i + j + 1))
    norm = 1
    for k in range(1, small + 1):
        norm *= sympy.factorial(big - k) * sympy.factorial(small - k)
    ccdf = sympy.Poly(sympy.expand(1 - mat.det() / norm), x, y)
    coeff = {}                            # (n, k) -> coefficient of x^k e^(-n x)
    for (k, n), c in ccdf.terms():
        if n == 0:
            if c != 0:
                raise ArithmeticError("CCDF has a non-decaying term")
            continue
        coeff[(n, k)] = Fraction(int(c.p), int(c.q))
    table = {}
    for n in {n for n, _ in coeff}:
        top = max(k for nn, k in coeff if nn == n)
        # c[n, k] = n^k / k! * sum_{m >= k} d[n, m]
        tail = [coeff.get((n, k), Fraction(0)) * math.factorial(k) / Fraction(n) ** k
                for k in range(top + 1)] + [Fraction(0)]
        for m in range(top + 1):
            d = tail[m] - tail[m + 1]
            if d:
                table[(n, m)] = d
    return table


def powers(rho_db):
    """(rho_ar, rho_br, rho_r) of the benchmark's scenario: the relay sits
    midway (d0 = 1/2), so the path-loss model gives rho_br = rho_ar, and the
    relay transmits at the A-side SNR."""
    rho = mp.mpf(10) ** (mp.mpf(rho_db) / 10)
    return rho, rho, rho


def directions(protocol, cfg, rho_db, dfactors=None, beta_sq=mp.mpf(1) / 2):
    """Per direction (arb, bra): (m_src, m_far, rho_src, rho_rel, A, B, C).

    dfactors is (d_arb_3, d_bra_3, d_arb_4, d_bra_4); with one relay antenna
    every factor is exactly 2."""
    m_a, m_r, m_b = cfg
    rho_ar, rho_br, rho_r = powers(rho_db)
    ra, rb = rho_ar / rho_r, rho_br / rho_r
    b2 = mp.mpf(beta_sq)
    a2 = 1 - b2
    if m_r == 1:
        dfactors = (2, 2, 2, 2)
    half = mp.mpf(1) / 2
    if protocol == "two_slot":
        arb, bra = (1, 1, 1 + rb), (1, 1, 1 + ra)
    elif protocol == "first_three_slot":
        arb, bra = (a2, a2, 1 + b2 * rb), (b2, b2, 1 + a2 * ra)
    elif protocol == "first_four_slot":
        arb = bra = (half, 1, half)
    elif protocol == "second_three_slot":
        arb = (mp.mpf(dfactors[0]) / 2, 1, half + rb)
        bra = (mp.mpf(dfactors[1]) / 2, 1, half + ra)
    elif protocol == "second_four_slot":
        arb = (a2 * mp.mpf(dfactors[2]) / 2, a2, half + b2 * rb)
        bra = (b2 * mp.mpf(dfactors[3]) / 2, b2, half + a2 * ra)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return ((m_a, m_b, rho_ar, rho_r) + tuple(map(mp.mpf, arb)),
            (m_b, m_a, rho_br, rho_r) + tuple(map(mp.mpf, bra)))


def _terms(m_src, m_far, m_r):
    src = wishart_table(m_src, m_r)
    far = wishart_table(m_far, m_r)
    for (n, m), d_nm in src.items():
        for k in range(m + 1):
            for (i, j), d_ij in far.items():
                for p in range(k + j + 1):
                    coef = 2 * d_nm * d_ij * math.comb(k + j, p) / (math.factorial(k) * math.factorial(j))
                    yield n, k, i, j, p, mp.mpf(coef.numerator) / coef.denominator


def _term_scale(n, k, i, j, p, rho_s, rho_r, a, b, c):
    # (c n / rho_s)^((p+k+1)/2) (b i / rho_r)^((2j+k-p+1)/2) / a^(k+j+1)
    return ((c * n / rho_s) ** (mp.mpf(p + k + 1) / 2)
            * (b * i / rho_r) ** (mp.mpf(2 * j + k - p + 1) / 2) / a ** (k + j + 1))


def _cdf_terms(direction_params, m_r):
    """Terms (weight, power, rate, order, scale) of the CDF tail
    sum weight x^power e^(-rate x) K_order(scale x)."""
    m_src, m_far, rho_s, rho_r, a, b, c = direction_params
    return [(coef * _term_scale(n, k, i, j, p, rho_s, rho_r, a, b, c), k + j + 1,
             (c * n / rho_s + b * i / rho_r) / a, p - k + 1,
             (2 / a) * mp.sqrt(b * c * n * i / (rho_s * rho_r)))
            for n, k, i, j, p, coef in _terms(m_src, m_far, m_r)]


def e2e_cdf(x, direction_params, m_r):
    """CDF of the lower-bound end-to-end SNR of one direction at x."""
    x = mp.mpf(x)
    if x <= 0:
        return mp.mpf(0)
    bessel = {}     # few distinct (order, argument) pairs; integer-order K is slow in mpmath
    tail = []
    for w, pw, rate, order, scale in _cdf_terms(direction_params, m_r):
        key = (abs(order), scale)
        if key not in bessel:
            bessel[key] = mp.besselk(abs(order), scale * x)
        tail.append(w * x ** pw * mp.exp(-rate * x) * bessel[key])
    return 1 - mp.fsum(tail)


def bessel_moment(mu, nu, alpha, beta):
    """int_0^inf x^(mu-1) e^(-alpha x) K_nu(beta x) dx (Gradshteyn & Ryzhik
    6.621.3), for 0 < beta < alpha and mu > |nu|."""
    nu = abs(nu)
    z = (alpha - beta) / (alpha + beta)
    return (mp.sqrt(mp.pi) * (2 * beta) ** nu / (alpha + beta) ** (mu + nu)
            * mp.gamma(mu + nu) * mp.gamma(mu - nu) / mp.gamma(mu + mp.mpf(1) / 2)
            * mp.hyp2f1(mu + nu, nu + mp.mpf(1) / 2, mu + mp.mpf(1) / 2, z))


def direction_ber(direction_params, m_r, protocol):
    """The part of the lower-bound sum-BER that one direction subtracts from
    the zero-SNR ceiling: (a / log2 M) E[Q(sqrt(2 b g))] = ceiling/2 - this."""
    m_src, m_far, rho_s, rho_r, a, b, c = direction_params
    mod_a, mod_b, m = modulation(protocol)
    pref = mod_a * mp.sqrt(mod_b) / (2 * mp.sqrt(mp.pi) * mp.log(m, 2))
    total = mp.mpf(0)
    moments = {}
    for n, k, i, j, p, coef in _terms(m_src, m_far, m_r):
        key = (n, i, k + j, abs(p - k + 1))
        if key not in moments:
            alpha = mod_b + (c * n / rho_s + b * i / rho_r) / a
            beta = (2 / a) * mp.sqrt(b * c * n * i / (rho_s * rho_r))
            moments[key] = bessel_moment(k + j + mp.mpf(3) / 2, p - k + 1, alpha, beta)
        total += coef * _term_scale(n, k, i, j, p, rho_s, rho_r, a, b, c) * moments[key]
    return pref * total


def sum_ber(protocol, cfg, rho_db, dfactors=None, beta_sq=mp.mpf(1) / 2):
    """Lower-bound sum-BER by the termwise closed form: the zero-SNR ceiling
    a / log2 M minus one term per direction."""
    a, _, m = modulation(protocol)
    arb, bra = directions(protocol, cfg, rho_db, dfactors, beta_sq)
    return a / mp.log(m, 2) - direction_ber(arb, cfg[1], protocol) - direction_ber(bra, cfg[1], protocol)


# ---------------------------------------------------------------------------
# High-SNR asymptote
# ---------------------------------------------------------------------------

def _table_weight(m_s, m_r, t):
    return sum(d * math.comb(t, m) * (-1) ** (t + m) * Fraction(n) ** (t + 1)
               for (n, m), d in wishart_table(m_s, m_r).items())


def asymptote(protocol, cfg, rho_db, dfactors=None, beta_sq=mp.mpf(1) / 2):
    """Power-law sum-BER asymptote at the A-side SNR:
    ((2 b rho g_arb)^-d + (2 b rho g_bra)^-d) / log2 M."""
    m_a, m_r, m_b = cfg
    (_, _, rho_ar, rho_rb, a1, b1, c1), (_, _, rho_br, rho_ra, a2, b2, c2) = \
        directions(protocol, cfg, rho_db, dfactors, beta_sq)
    t_a, t_b = m_a * m_r - 1, m_b * m_r - 1
    s_a = _table_weight(m_a, m_r, t_a)
    s_b = _table_weight(m_b, m_r, t_b)
    s_a, s_b = mp.mpf(s_a.numerator) / s_a.denominator, mp.mpf(s_b.numerator) / s_b.denominator
    f_ar = s_a * (c1 / a1) ** (t_a + 1)
    f_rb = s_b * (b1 * rho_ar / (a1 * rho_rb)) ** (t_b + 1)
    f_br = s_b * (c2 * rho_ar / (a2 * rho_br)) ** (t_b + 1)
    f_ra = s_a * (b2 * rho_ar / (a2 * rho_ra)) ** (t_a + 1)
    if m_a > m_b:
        num = (f_rb, f_br)
    elif m_a < m_b:
        num = (f_ar, f_ra)
    else:
        num = (f_ar + f_rb, f_br + f_ra)
    div = m_r * min(m_a, m_b)
    mod_a, mod_b, m = modulation(protocol)
    total = mp.mpf(0)
    for eta in (v / mp.gamma(div) for v in num):
        gain = mp.exp(-(mp.log(mod_a) + (div - 1) * mp.log(2) + mp.log(eta)
                        + mp.loggamma(div + mp.mpf(1) / 2) - mp.log(mp.pi) / 2 - mp.log(div)) / div)
        total += (2 * mod_b * rho_ar * gain) ** (-div)
    return total / mp.log(m, 2)


# ---------------------------------------------------------------------------
# Independent cross-checks
# ---------------------------------------------------------------------------

def link_ccdf(y, m_s, m_r, rho):
    u = y / rho
    return sum(mp.mpf(d.numerator) / d.denominator
               * sum((n * u) ** k / mp.factorial(k) for k in range(m + 1)) * mp.exp(-n * u)
               for (n, m), d in wishart_table(m_s, m_r).items())


def link_pdf(y, m_s, m_r, rho):
    u = y / rho
    return sum(mp.mpf(d.numerator) / d.denominator * (n / rho) * (n * u) ** m
               / mp.factorial(m) * mp.exp(-n * u)
               for (n, m), d in wishart_table(m_s, m_r).items())


def e2e_cdf_by_construction(x, direction_params, m_r):
    """The same CDF from its definition: P(A g1 g2 / (B g1 + C g2) > x) is
    the integral over g2 = B x / A + w of f2(g2) P(g1 > C x / A + B C x^2 / (A^2 w))."""
    m_src, m_far, rho_s, rho_r, a, b, c = direction_params
    x = mp.mpf(x)

    def integrand(w):
        if w == 0:
            return mp.mpf(0)
        return (link_pdf(b * x / a + w, m_far, m_r, rho_r)
                * link_ccdf(c * x / a + b * c * x * x / (a * a * w), m_src, m_r, rho_s))

    return 1 - mp.quad(integrand, [0, rho_r / 10, rho_r, 10 * rho_r, mp.inf])


def sum_ber_by_scipy_quadrature(protocol, cfg, rho_db, dfactors=None):
    """Lower-bound sum-BER by scipy adaptive quadrature of the CDF-weighted
    Gaussian-tail integral, with the CDF expansion evaluated in float64 by
    scipy.special.kv.  At mid SNR the CDF's float64 cancellation costs far
    less than the 1e-8 this check resolves."""
    import numpy as np
    from scipy import integrate
    from scipy.special import kv

    mod_a, mod_b, m = (float(v) for v in modulation(protocol))
    terms = np.array([[float(v) for v in t] for d in directions(protocol, cfg, rho_db, dfactors)
                      for t in _cdf_terms(d, cfg[1])])
    w, pw, rate, order, scale = terms.T

    def integrand(t):
        x = t * t
        if x == 0.0:
            return 0.0
        tail = np.sum(w * x ** pw * np.exp(-rate * x) * kv(order, scale * x))
        return 2.0 * math.exp(-mod_b * x) * (2.0 - tail)

    val, _ = integrate.quad(integrand, 0.0, math.sqrt(700.0 / mod_b), epsabs=0.0, epsrel=1e-12, limit=500)
    return mod_a * math.sqrt(mod_b) / (2.0 * math.sqrt(math.pi) * math.log2(m)) * val
