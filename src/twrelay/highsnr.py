"""High-SNR engine: diversity orders, density derivatives at the origin,
the power-law sum-BER asymptote, relay-weight optimization against that
asymptote, and the rate-normalized inter-protocol gap.

Every function here is deterministic in (protocol, antennas, powers,
d-factors): nothing is drawn.  The dual-reception factors that the
protocols with more than one relay antenna need are the caller's
(`simulate.estimate_d_factors`).

The derivatives come from the exact leading coefficient of each link's
largest-eigenvalue CDF in its determinant form
(`lowerbound.leading_coefficient`); no eigenvalue expansion table is read.
With diversity order d and the direction weights eta_arb, eta_bra of
`eta_pair`, the asymptote is the single expression

    a 2^(d-1) Gamma(d + 1/2) (eta_arb + eta_bra) / (sqrt(pi) d log2(M) (2 b rho_ar)^d),

so the relay weights that minimise it minimise eta_arb + eta_bra, whatever
the modulation.  That sum is convex in beta^2, and `beta_numeric` finds
its minimum by a hand-written golden section; scipy.optimize is not
imported, because its import alone costs more than half that of this
package."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .analysis import _DIRECTIONS, _direction
from .errors import ConfigurationError
from .lowerbound import leading_coefficient
from .scenario import (AntennaConfig, CoefficientSet, DFactors, Modulation,
                       PowerProfile, Protocol, WeightPair, coefficient_set,
                       protocol_modulation)


@dataclass(frozen=True)
class HighSnrProfile:
    """Everything the power-law asymptote needs for one protocol: diversity
    order, the two direction weights, and the modulation."""

    d: int
    eta_arb: float
    eta_bra: float
    mod: Modulation

    @property
    def eta_sum(self) -> float:
        return self.eta_arb + self.eta_bra


@functools.cache
def _link_weight(m: int, n: int) -> float:
    # m n c: the (mn - 1)-th derivative at 0 of the density of an m x n
    # link's largest eigenvalue, over (mn - 1)!
    return float(m * n * leading_coefficient(m, n))


def eta_pair(coeffs: CoefficientSet, ant: AntennaConfig, pw: PowerProfile) -> tuple[float, float]:
    """Direction weights of the asymptote: the end-to-end density's first
    nonzero derivative at the origin, normalized by Gamma of the diversity
    order d = m_r min(m_a, m_b).  Only the links with m n = d contribute
    (the slower-decaying link dominates; both do when the source antenna
    counts tie), each d c (rho_ar k / (A rho_link))^d, where F(u) = c u^d
    + ... is the link CDF (`lowerbound.leading_coefficient`), k = C for the
    source link and B for the far link."""
    m = min(ant.m_a, ant.m_b)
    d = m * ant.m_r
    weight = _link_weight(m, ant.m_r)   # every link with m n = d is m x m_r
    rho_ar = pw.rho_ar
    out = []
    for direction in _DIRECTIONS:
        src, far, a, b, c = _direction(direction, coeffs, ant, pw)
        total = 0.0
        if src.m * src.n == d:
            total += (c * rho_ar / (a * src.rho)) ** d
        if far.m * far.n == d:
            total += (b * rho_ar / (a * far.rho)) ** d
        if not total > 0.0:
            raise ConfigurationError(
                f"direction weight of {direction} must be positive, got {total!r}")
        out.append(weight * total)
    return out[0], out[1]


def high_snr_profile(p: Protocol, ant: AntennaConfig, pw: PowerProfile,
                     mod: Optional[Modulation] = None,
                     w: Optional[WeightPair] = None,
                     dfactors: Optional[DFactors] = None) -> HighSnrProfile:
    """Asymptote parameters for one protocol under its rate-normalized
    modulation (overridable)."""
    if mod is None:
        mod = protocol_modulation(p)
    coeffs = coefficient_set(p, ant, pw, w, dfactors)
    eta_arb, eta_bra = eta_pair(coeffs, ant, pw)
    d = ant.m_r * min(ant.m_a, ant.m_b)
    return HighSnrProfile(d=d, eta_arb=eta_arb, eta_bra=eta_bra, mod=mod)


def high_snr_sum_ber(profile: HighSnrProfile, rho_ar: float) -> float:
    """Power-law sum-BER asymptote at the given A-side average SNR.

    This is the raw power law. It approximates the sum-BER only at high SNR
    and exceeds the zero-SNR ceiling a / log2 M below the crossover SNR. It
    is deliberately not clamped there: the weights that `beta_numeric`
    picks minimise this law at every SNR, and a clamp would make it flat in
    the weights at low SNR. Callers that report it as a sum-BER must leave
    out the values above the ceiling, as `twrelay sweep` does.

    The value is a 2^(d-1) Gamma(d + 1/2) (eta_arb + eta_bra) /
    (sqrt(pi) d log2(M) (2 b rho_ar)^d), evaluated in logs so that no
    factor overflows at large d.
    """
    if not rho_ar > 0.0:
        raise ConfigurationError(f"rho_ar must be positive, got {rho_ar!r}")
    mod, d = profile.mod, profile.d
    return math.exp(math.log(mod.a) + (d - 1) * math.log(2.0) + math.lgamma(d + 0.5)
                    + math.log(profile.eta_sum) - 0.5 * math.log(math.pi) - math.log(d)
                    - math.log(mod.bits_per_symbol) - d * math.log(2.0 * mod.b * rho_ar))


def beta_closed_form(p: Protocol, pw: PowerProfile,
                     ant: Optional[AntennaConfig] = None) -> WeightPair:
    """Closed-form high-SNR-optimal relay weights for the weighted
    protocols, exact for the single-antenna-everywhere configuration."""
    if not p.uses_weights:
        raise ConfigurationError(f"{p.value} has no relay weights")
    if ant is not None and (ant.m_a, ant.m_r, ant.m_b) != (1, 1, 1):
        raise ConfigurationError(
            "closed-form weights hold for the 1x1x1 configuration; use beta_numeric instead")
    half = 0.5 if p is Protocol.SECOND_FOUR_SLOT else 1.0
    s_a = math.sqrt(pw.rho_ar * (pw.rho_ar + half * pw.rho_ra) / (half * pw.rho_ra))
    s_b = math.sqrt(pw.rho_br * (pw.rho_br + half * pw.rho_rb) / (half * pw.rho_rb))
    return WeightPair.from_beta_squared(s_a / (s_a + s_b))


def beta_numeric(p: Protocol, ant: AntennaConfig, pw: PowerProfile,
                 dfactors: Optional[DFactors] = None) -> WeightPair:
    """Relay weights minimizing the power-law asymptote, by golden section
    on eta_arb + eta_bra over beta^2 in [1e-9, 1 - 1e-9] down to a width
    of 1e-8 (41 evaluations).

    The asymptote is eta_arb + eta_bra times a positive factor of the
    modulation, d and rho_ar alone (`high_snr_sum_ber`), so the modulation
    does not move the minimiser.  With x = beta^2 and 1 - x = alpha^2, each
    term of the eta sum (`eta_pair`) that depends on x is a positive
    constant times ((k + x r) / (1 - x))^d or ((k + (1 - x) r) / x)^d with
    k, r > 0 (from the constants of `coefficient_set`); every other term is
    constant.  The bases equal
    -r + (k + r) / (1 - x) and -r + (k + r) / x, which are positive and
    convex on (0, 1), and t^d is convex and increasing for t > 0, so each
    term, and the sum, is convex: a golden section without a bracketing
    grid finds the minimum, also where it lies at an end of the interval.

    Hand-written rather than `scipy.optimize.minimize_scalar`: importing
    scipy.optimize adds about 0.3 s to the 0.55 s import of this package
    (2-vCPU x86_64, three fresh processes).
    """
    if not p.uses_weights:
        raise ConfigurationError(f"{p.value} has no relay weights")

    def objective(beta_sq: float) -> float:
        w = WeightPair.from_beta_squared(beta_sq)
        return sum(eta_pair(coefficient_set(p, ant, pw, w, dfactors), ant, pw))

    lo, hi = 1e-9, 1.0 - 1e-9   # an endpoint weight zeroes out one direction
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d_pt = lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d_pt)
    while hi - lo > 1e-8:
        if fc < fd:
            hi, d_pt, fd = d_pt, c, fc
            c = hi - invphi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d_pt, fd
            d_pt = lo + invphi * (hi - lo)
            fd = objective(d_pt)
    return WeightPair.from_beta_squared(0.5 * (lo + hi))


def high_snr_gap(worse: HighSnrProfile, better: HighSnrProfile) -> float:
    """Rate-normalized horizontal dB gap between two asymptotes of equal
    diversity order, positive when the arguments are ordered worse-then-
    better."""
    if worse.d != better.d:
        raise ConfigurationError(
            f"gap undefined across diversity orders {worse.d} and {better.d}")
    d = worse.d
    li = worse.mod.bits_per_symbol
    lj = better.mod.bits_per_symbol
    first = 10.0 * math.log10(better.mod.b * lj / (worse.mod.b * li))
    second = (10.0 / d) * math.log10(
        worse.mod.a * lj * worse.eta_sum / (better.mod.a * li * better.eta_sum))
    return first + second


@dataclass(frozen=True)
class GapRow:
    protocol: Protocol
    gap_db: float
    eta_sum: float
    beta_sq: Optional[float] = None


@dataclass(frozen=True)
class GapTable:
    best: Protocol
    rows: tuple


def gap_table(ant: AntennaConfig, pw: PowerProfile,
              dfactors: Optional[DFactors] = None) -> GapTable:
    """Ranked asymptote comparison across all protocols at one scenario.

    Weighted protocols get their weights from the numeric asymptote
    optimizer (balanced powers give 1/2 automatically).  With multiple
    relay antennas the dual-reception protocols need the dual-reception
    factors; without them `coefficient_set` raises ConfigurationError.
    The two-slot and first three-slot protocols are evaluated on their
    matched-beamformer bound, the only closed-form regime they admit with
    multiple relay antennas.
    """
    ant.require_analytic()
    protocols = list(Protocol)
    profiles = {}
    betas = {}
    for p in protocols:
        w = None
        if p.uses_weights:
            w = beta_numeric(p, ant, pw, dfactors=dfactors)
            betas[p] = w.beta ** 2
        profiles[p] = high_snr_profile(p, ant, pw, w=w, dfactors=dfactors)

    ref = profiles[protocols[0]]
    scores = {p: high_snr_gap(profiles[p], ref) for p in protocols}
    best = min(protocols, key=lambda p: scores[p])
    rows = tuple(
        GapRow(protocol=p,
               gap_db=high_snr_gap(profiles[p], profiles[best]),
               eta_sum=profiles[p].eta_sum,
               beta_sq=betas.get(p))
        for p in protocols
    )
    return GapTable(best=best, rows=rows)
