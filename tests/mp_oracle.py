"""mpmath oracles for the analytic engine: the paper's closed-form sum-BER
assembled at any precision, the determinant form of the largest-
eigenvalue CDF and density, and the end-to-end CDF of one direction by
quadrature over the exact expansions of its two link laws.  Test-only:
the program runs in double precision.

The closed form at 100 digits takes seconds to minutes per point, so the
values that the engine tests compare against are stored in
oracle_sum_ber.json; `python tests/mp_oracle.py` regenerates them (about
ten minutes)."""

import json
import math
from pathlib import Path

import mpmath as mp

from twrelay.analysis import _DIRECTIONS, _direction, _moment_groups
from twrelay.lowerbound import ccdf_expansion
from twrelay.scenario import (AntennaConfig, BALANCED_WEIGHTS, DFactors, PowerProfile, Protocol,
                              coefficient_set, parse_protocol, protocol_modulation)


def closed_form_mp(coeffs, ant, pw, mod, dps: int) -> float:
    """The closed form assembled with mpmath at dps significant digits, one
    Gamma-2F1 moment per `_MomentGroup`, on the exact-rational tables.  The
    final subtraction from the ceiling a/log2 M loses about
    log10(ceiling / value) digits, so dps must exceed that loss."""
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
            # nearer z = 1 the Pfaff form: rounding z would cost digits
            return (mp.sqrt(mp.pi / (2 * beta)) / (alpha + beta) ** (mu - half) * gammas
                    * mp.hyp2f1(half - nu, half + nu, mu + half, -(alpha - beta) / (2 * beta)))

        total = mp.mpf(mod.a) / mp.mpf(mod.bits_per_symbol)
        for direction in _DIRECTIONS:
            src, far, k_s, k_f = _direction(direction, coeffs, ant, pw)
            for g in _moment_groups(src.m, far.m, ant.m_r):
                x, y = g.n * mp.mpf(k_s), g.i * mp.mpf(k_f)
                sx, sy = mp.sqrt(x), mp.sqrt(y)
                coef = mp.fsum(mp.mpf(r.numerator) / r.denominator
                               * sx ** e * sy ** (2 * g.s + 2 - e) for e, r in g.powers)
                total -= pref * coef * moment(g.s + 1 + half, g.nu, mod.b + x + y, 2 * sx * sy)
        return float(total)


def link_cdf_pdf_mp(u: float, m_1: int, m_2: int, dps: int = 60) -> tuple:
    """(F, f) of the largest eigenvalue of an m_1 x m_2 complex Wishart
    matrix at u, from the determinant of lower incomplete gamma functions
    and Jacobi's formula for its derivative."""
    s, t = min(m_1, m_2), max(m_1, m_2)
    with mp.workdps(dps):
        u = mp.mpf(u)
        k = mp.fprod(mp.factorial(t - j) * mp.factorial(s - j) for j in range(1, s + 1))
        g = mp.matrix(s, s)
        for i in range(s):
            for j in range(s):
                g[i, j] = mp.gammainc(t - s + i + j + 1, 0, u)
        dens = mp.mpf(0)
        for j in range(s):
            col = g.copy()
            for i in range(s):
                col[i, j] = u ** (t - s + i + j) * mp.exp(-u)
            dens += mp.det(col)
        return float(mp.det(g) / k), float(dens / k)


def _link_law_mp(m: int, n: int):
    """(F, f) of the largest eigenvalue of an m x n complex Wishart matrix
    as functions of u at the working precision, from `ccdf_expansion`:
    1 - F is a sum of Erlang tails, f the matching sum of Erlang densities."""
    table = [(i, k, mp.mpf(d.numerator) / d.denominator) for (i, k), d in ccdf_expansion(m, n)]

    def cdf(u):
        return 1 - mp.fsum(d * mp.exp(-i * u) * mp.fsum((i * u) ** j / mp.factorial(j)
                                                        for j in range(k + 1))
                           for i, k, d in table)

    def pdf(u):
        return mp.fsum(d * i * (i * u) ** k * mp.exp(-i * u) / mp.factorial(k) for i, k, d in table)
    return cdf, pdf


def _e2e_cdf_at(direction, x):
    # F = F_f(k_f x) + int_0^inf F_s(k_s x lambda_f / w) f_f(lambda_f) dw,
    # lambda_f = w + k_f x, at the working precision
    src, far, k_s, k_f = direction
    x, k_s, k_f = mp.mpf(x), mp.mpf(k_s), mp.mpf(k_f)
    cdf_s, _ = _link_law_mp(src.m, src.n)
    cdf_f, pdf_f = _link_law_mp(far.m, far.n)

    def integrand(w):
        lam_f = w + k_f * x
        return cdf_s(k_s * x * lam_f / w) * pdf_f(lam_f)
    # below w0 the source link saturates (F_s -> 1); the far density has
    # fallen far below rounding once lambda_f passes 1e3 m n
    w0 = k_s * k_f * x * x
    top = 1000 * far.m * far.n
    points = [mp.mpf(0), w0 / 10000]
    while points[-1] < top:
        points.append(100 * points[-1])
    return cdf_f(k_f * x) + mp.quad(integrand, points + [mp.inf])


def e2e_cdf_mp(direction, x: float, dps: int):
    """The end-to-end CDF F(x) of one direction (a `lowerbound.Direction`)
    to dps significant digits: the first form of the module docstring of
    `lowerbound`, integrated by mp.quad with breakpoints at even decades of
    k_s k_f x^2, on both link laws' exact expansions.

    Each 1 - P(L > u) loses the digits of the expansion's largest
    coefficient and of 1 / F, so the working precision carries both, and is
    raised once more if F turns out smaller than its first guess allowed."""
    coef = max(abs(d) for link in direction[:2] for _, d in ccdf_expansion(link.m, link.n))
    guard = extra = 10 + math.ceil(math.log10(coef + 1))
    while True:
        with mp.workdps(dps + extra):
            value = _e2e_cdf_at(direction, x)
            lost = max(0, math.ceil(-mp.log10(value))) if value > 0 else dps
        if extra >= guard + lost:
            with mp.workdps(dps):
                return +value
        extra += lost


# ---------------------------------------------------------------------------
# Stored oracle values: `python tests/mp_oracle.py` rewrites ORACLE_FILE
# ---------------------------------------------------------------------------

ORACLE_FILE = Path(__file__).with_name("oracle_sum_ber.json")
ORACLE_DPS = 100
GRID_DIMS = ((2, 1, 2), (2, 2, 2), (3, 3, 3))
GRID_DB = (0.0, 20.0, 40.0, 60.0)
# a closed form at 4 antennas per side takes minutes at 100 digits
DEEP_CASES = (((4, 4, 4), 30.0, "first_four_slot"), ((4, 4, 4), 60.0, "first_four_slot"),
              ((4, 3, 4), 30.0, "two_slot"))
# dual-reception protocols with several relay antennas take d-factors from
# Monte Carlo; the oracle points use fixed ones
DFACTORS = DFactors(1.6, 1.6, 1.7, 1.7)


def oracle_key(dims, rho_db: float, protocol: str) -> str:
    return f"{'x'.join(map(str, dims))}/{protocol}/{rho_db:g}"


def oracle_inputs(dims, rho_db: float, protocol: str):
    """(coeffs, ant, pw, mod) of one stored oracle point."""
    p = parse_protocol(protocol)
    ant = AntennaConfig(*dims)
    pw = PowerProfile.balanced(rho_db)
    w = BALANCED_WEIGHTS if p.uses_weights else None
    d = DFACTORS if p.dual_reception and ant.m_r > 1 else None
    return coefficient_set(p, ant, pw, w, d), ant, pw, protocol_modulation(p)


def oracle_points():
    for dims in GRID_DIMS:
        for rho_db in GRID_DB:
            for p in Protocol:
                yield dims, rho_db, p.value
    yield from DEEP_CASES


if __name__ == "__main__":
    values = {}
    for point in oracle_points():
        values[oracle_key(*point)] = closed_form_mp(*oracle_inputs(*point), dps=ORACLE_DPS)
        print(oracle_key(*point), values[oracle_key(*point)], flush=True)
    ORACLE_FILE.write_text(json.dumps(values, indent=1) + "\n")
