"""Invariant checks wired into the validate command, each holding one
engine against another or against an independent form of the same law:
the single-antenna reductions, the unified SNR form against the
dual-reception sums, the shape of the end-to-end CDF, the closed form
against the integral, the high-SNR slopes, Monte-Carlo draws against the
end-to-end CDF (KS) and the lower bound below the exact-form Monte-Carlo
mean.  Identities that the test suite holds more tightly, such as the
Bessel moment against mpmath, are not repeated here.

The order of the unified SNR forms is not checked either.  Monte Carlo
reads the analytic engines' scales and noise term
(`analysis.direction_scales`) rather than a second statement of the law,
so the exact form lies at or below the lower one, and the lower form in
the harmonic-mean sandwich m / 2 <= gamma <= m, by construction; the two
checks that held one statement against the other went with the second,
and a test holds the one left to its formula.

Each check returns a CheckResult; statistical checks are skipped (with a
warning) when the trial budget is too small to give them power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kv

from .analysis import _closed_form_f64, _direction, _directions, e2e_cdf, sum_ber_quadrature
from .errors import ConfigurationError
from .highsnr import eta_pair
from .lowerbound import REL_TOL
from .scenario import (AntennaConfig, BALANCED_WEIGHTS, CoefficientSet, PowerProfile,
                       Protocol, coefficient_set, protocol_modulation)
from .simulate import (D_FACTOR_TRIALS, ChannelStream, SweepPoint,
                       end_to_end_snrs, estimate_d_factors, link_gains,
                       sample_end_to_end_snrs, semi_analytic_sweep)

_MIN_STATISTICAL_TRIALS = 10_000
_KS_GRID_POINTS = 1500     # points of the log grid on which _ks_statistic tabulates a CDF


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        extra = f"  ({self.note})" if self.note else ""
        return f"{status:4s}  {self.name:38s} measured={self.measured:.3e} threshold={self.threshold:.3e}{extra}"


def _ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided KS distance of samples against a smooth CDF, given as a
    function of an array of thresholds.

    The CDF is tabulated on a log grid of _KS_GRID_POINTS spanning the
    samples and linearly interpolated; the interpolation error is orders of
    magnitude below the thresholds used here."""
    xs = np.sort(samples)
    n = xs.size
    grid = np.geomspace(max(xs[0], 1e-300), xs[-1], _KS_GRID_POINTS)
    table = cdf(grid)
    F = np.interp(xs, grid, table)
    lo = np.arange(0, n) / n
    hi = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(F - lo)), np.max(np.abs(F - hi))))


def _block_gains(seed: int, block: int, n: int):
    """LinkGains of the first n draws of the given block of the seed's 2x1x2
    stream."""
    side_a, side_b = ChannelStream(seed).draw_block(AntennaConfig(2, 1, 2), block)
    return link_gains(side_a[:n], side_b[:n])


def single_antenna_e2e_cdf(direction: str, x: float, coeffs: CoefficientSet,
                           ant: AntennaConfig, pw: PowerProfile) -> float:
    """Oracle for `e2e_cdf` with one relay antenna, written without the
    largest-eigenvalue law: both link gains are then Erlang (Gamma with
    integer shape m_src and m_far), and the end-to-end CDF is a finite
    double sum of Bessel K terms indexed by the two Erlang shapes."""
    if ant.m_r != 1:
        raise ConfigurationError("the single-antenna CDF requires m_r == 1")
    if x <= 0.0:
        return 0.0
    src, far, k_s, k_f = _direction(direction, coeffs, ant, pw)
    m_src, m_far = src.m, far.m
    rate = k_s + k_f
    bessel_arg = 2.0 * x * math.sqrt(k_s * k_f)
    tail_terms = []
    for p in range(0, m_src):
        for k in range(0, m_far + p):
            ln_mag = (math.log(2.0)
                      + math.log(math.comb(m_far + p - 1, k))
                      - math.lgamma(p + 1.0) - math.lgamma(float(m_far))
                      + 0.5 * (2 * m_far + p - k - 1) * math.log(k_f)
                      + 0.5 * (k + p + 1) * math.log(k_s)
                      + (m_far + p) * math.log(x))
            tail_terms.append(math.exp(ln_mag - rate * x) * kv(abs(k - p + 1), bessel_arg))
    return 1.0 - math.fsum(tail_terms)


def check_mr1_reduction(pw: PowerProfile) -> CheckResult:
    ant = AntennaConfig(2, 1, 2)
    worst = 0.0
    for p in Protocol:
        w = BALANCED_WEIGHTS if p.uses_weights else None
        coeffs = coefficient_set(p, ant, pw, w)
        for x in np.geomspace(1e-3 * pw.rho_ar, 10 * pw.rho_ar, 25):
            for direction in ("arb", "bra"):
                f1 = single_antenna_e2e_cdf(direction, float(x), coeffs, ant, pw)
                f2 = e2e_cdf(direction, float(x), coeffs, ant, pw)
                worst = max(worst, abs(f1 - f2))
        # the determinant-form origin weights must collapse to the direct
        # single-antenna power laws
        eta = eta_pair(coeffs, ant, pw)
        direct_arb = ((coeffs.c_arb / coeffs.a_arb) ** 2
                      + (coeffs.b_arb * pw.rho_ar / (coeffs.a_arb * pw.rho_rb)) ** 2)
        direct_bra = ((coeffs.c_bra * pw.rho_ar / (coeffs.a_bra * pw.rho_br)) ** 2
                      + (coeffs.b_bra * pw.rho_ar / (coeffs.a_bra * pw.rho_ra)) ** 2)
        worst = max(worst, abs(eta[0] - direct_arb) / direct_arb,
                    abs(eta[1] - direct_bra) / direct_bra)
    return CheckResult("mr1_reduction", worst <= 1e-12, worst, 1e-12)


def check_unified_dual_mr1(pw: PowerProfile, seed: int) -> CheckResult:
    ant = AntennaConfig(2, 1, 2)
    g = _block_gains(seed, 0, 2000)
    worst = 0.0
    for p in (Protocol.SECOND_THREE_SLOT, Protocol.SECOND_FOUR_SLOT):
        w = BALANCED_WEIGHTS if p.uses_weights else None
        coeffs = coefficient_set(p, ant, pw, w)
        for form in ("exact", "lower"):
            u_arb, u_bra = end_to_end_snrs(p, g, pw, w, coeffs, form)
            d_arb, d_bra = end_to_end_snrs(p, g, pw, w, snr_form=form)
            scale = np.maximum(np.maximum(u_arb, u_bra), 1.0)
            worst = max(worst,
                        float(np.max(np.abs(u_arb - d_arb) / scale)),
                        float(np.max(np.abs(u_bra - d_bra) / scale)))
    return CheckResult("unified_dual_agreement_mr1", worst <= 1e-12, worst, 1e-12)


def check_lower_bound_ordering(pw: PowerProfile, trials: int, seed: int) -> CheckResult:
    if trials < _MIN_STATISTICAL_TRIALS:
        return CheckResult("lower_bound_ordering", True, 0.0, 0.0,
                           note="underpowered at this trial budget", skipped=True)
    ant = AntennaConfig(2, 1, 2)
    points = [SweepPoint(p, pw, BALANCED_WEIGHTS if p.uses_weights else None)
              for p in Protocol]
    estimates = semi_analytic_sweep(points, ant, trials=trials, seed=seed, snr_form="exact")
    worst_margin = -math.inf
    for (p, _, w, _), exact in zip(points, estimates):
        coeffs = coefficient_set(p, ant, pw, w)
        lower = sum_ber_quadrature(coeffs, ant, pw, protocol_modulation(p))
        # the lower bound lies below the exact-metric estimate
        margin = (lower - exact.mean) / max(exact.std_error, 1e-300)
        worst_margin = max(worst_margin, margin)
    return CheckResult("lower_bound_ordering", worst_margin <= 3.0, worst_margin, 3.0,
                       note="z-score of lower bound above exact-form estimate")


def _ks_case(p: Protocol, ant: AntennaConfig, pw: PowerProfile, trials, seed,
             dfactors=None) -> float:
    w = BALANCED_WEIGHTS if p.uses_weights else None
    arb, _ = sample_end_to_end_snrs(p, ant, pw, w, snr_form="lower", trials=trials, seed=seed)
    coeffs = coefficient_set(p, ant, pw, w, dfactors)

    def cdf(xs):
        return e2e_cdf("arb", xs, coeffs, ant, pw)
    return _ks_statistic(arb, cdf)


def _sub_seed(seed: int, k: int) -> int:
    """The seed of a check's k-th own stream, wrapped into the Philox key
    range [0, 2**128), so that every valid seed has its sub-streams."""
    return (seed + k) % (1 << 128)


def check_ks_suite(pw: PowerProfile, trials: int, seed: int) -> list:
    if trials < _MIN_STATISTICAL_TRIALS:
        return [CheckResult("ks_distribution_suite", True, 0.0, 0.0,
                            note="underpowered at this trial budget", skipped=True)]
    results = []
    n = min(trials, 100_000)
    ant1 = AntennaConfig(2, 1, 2)
    worst = 0.0
    for p in Protocol:
        worst = max(worst, _ks_case(p, ant1, pw, n, seed))
    results.append(CheckResult("ks_all_protocols_2x1x2", worst <= 0.01, worst, 0.01))

    ant2 = AntennaConfig(2, 2, 2)
    ks_exact = _ks_case(Protocol.FIRST_FOUR_SLOT, ant2, pw, n, _sub_seed(seed, 1))
    results.append(CheckResult("ks_first_four_slot_2x2x2", ks_exact <= 0.01, ks_exact, 0.01))

    d, _ = estimate_d_factors(ant2, pw, trials=max(trials, D_FACTOR_TRIALS),
                              seed=_sub_seed(seed, 2))
    ks_approx = _ks_case(Protocol.SECOND_THREE_SLOT, ant2, pw, n, _sub_seed(seed, 3),
                          dfactors=d)
    results.append(CheckResult("ks_second_three_slot_2x2x2", ks_approx <= 0.03,
                               ks_approx, 0.03, note="mean-ratio approximate form"))
    return results


def check_slopes() -> list:
    results = []
    cases = [
        ("slope_2x1x2", AntennaConfig(2, 1, 2), Protocol.TWO_SLOT, None, -2.0, 0.05),
        ("slope_2x2x2_first_four_slot", AntennaConfig(2, 2, 2),
         Protocol.FIRST_FOUR_SLOT, None, -4.0, 0.1),
    ]
    for name, ant, p, w, target, tol in cases:
        mod = protocol_modulation(p)
        vals = []
        for rho_db in (50.0, 60.0):
            pw = PowerProfile.balanced(rho_db)
            coeffs = coefficient_set(p, ant, pw, w)
            vals.append(sum_ber_quadrature(coeffs, ant, pw, mod))
        slope = (math.log10(vals[1]) - math.log10(vals[0])) / 1.0
        results.append(CheckResult(name, abs(slope - target) <= tol, slope, target,
                                   note=f"tolerance +-{tol}"))
    return results


def check_closed_vs_quadrature() -> CheckResult:
    """The paper's closed form, assembled in double precision, against the
    integral that `sweep`'s closed rows give, at every case point, each at
    its own error estimate: |closed - integral| at most the closed form's
    rounding bound plus REL_TOL of the integral."""
    worst = 0.0
    cases = [(AntennaConfig(2, 1, 2), (Protocol.TWO_SLOT, Protocol.SECOND_THREE_SLOT,
                                       Protocol.FIRST_FOUR_SLOT), (10.0, 17.5, 25.0, 32.5, 40.0)),
             (AntennaConfig(2, 2, 2), (Protocol.TWO_SLOT, Protocol.FIRST_FOUR_SLOT),
              (10.0, 15.0, 20.0)),
             (AntennaConfig(4, 3, 4), (Protocol.TWO_SLOT,), (10.0,))]
    for ant, protocols, grid in cases:
        for p in protocols:
            mod = protocol_modulation(p)
            for rho_db in grid:
                pw = PowerProfile.balanced(rho_db)
                coeffs = coefficient_set(p, ant, pw)
                c, bound = _closed_form_f64(_directions(coeffs, ant, pw), mod)
                q = sum_ber_quadrature(coeffs, ant, pw, mod)
                worst = max(worst, abs(c - q) / (bound + REL_TOL * q))
    return CheckResult("closed_vs_quadrature", worst <= 1.0, worst, 1.0,
                       note="|closed - integral| over closed-form bound + 1e-13 integral")


def check_monotonicity(pw: PowerProfile) -> CheckResult:
    ant = AntennaConfig(2, 1, 2)
    worst = 0.0
    grid = np.geomspace(1e-4 * pw.rho_ar, 50 * pw.rho_ar, 400)
    for p in Protocol:
        w = BALANCED_WEIGHTS if p.uses_weights else None
        coeffs = coefficient_set(p, ant, pw, w)
        vals = e2e_cdf("bra", grid, coeffs, ant, pw)
        worst = max(worst, float(np.max(np.diff(vals) * -1.0)))
        worst = max(worst, abs(vals[0]), abs(1.0 - e2e_cdf("bra", 1e4 * coeffs.a_bra * min(pw.rho_br, pw.rho_ra), coeffs, ant, pw)))
    return CheckResult("e2e_cdf_shape", worst <= 1e-6, worst, 1e-6,
                       note="max CDF decrease / endpoint deviation")


def run_validation(trials: int = 100_000, seed: int = 12345) -> tuple[list, int]:
    """Run the full invariant suite; returns (results, exit_code)."""
    pw = PowerProfile.balanced(30.0)
    results = [check_mr1_reduction(pw),
               check_unified_dual_mr1(pw, seed),
               check_monotonicity(pw),
               check_closed_vs_quadrature()]
    results.extend(check_slopes())
    results.extend(check_ks_suite(pw, trials, seed))
    # at 10 dB Monte Carlo resolves the exact form's mean; at 30 dB rare deep
    # fades carry it, and the z-score of the skewed sample misfires at some seeds
    results.append(check_lower_bound_ordering(PowerProfile.balanced(10.0), trials, seed))
    failed = [r for r in results if not r.skipped and not r.passed]
    return results, (4 if failed else 0)
