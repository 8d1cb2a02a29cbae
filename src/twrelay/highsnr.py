"""High-SNR engine: diversity orders, density derivatives at the origin,
array gains, the power-law sum-BER asymptote, relay-weight optimization
against that asymptote, and the rate-normalized inter-protocol gap.

The derivatives come from the exact leading coefficient of each link's
largest-eigenvalue CDF in its determinant form
(`lowerbound.leading_coefficient`); no eigenvalue expansion table is read."""

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

    def _gain(self, eta: float) -> float:
        ln_g = -(math.log(self.mod.a) + (self.d - 1) * math.log(2.0) + math.log(eta)
                 + math.lgamma(self.d + 0.5) - 0.5 * math.log(math.pi)
                 - math.log(self.d)) / self.d
        return math.exp(ln_g)

    @property
    def g_arb(self) -> float:
        return self._gain(self.eta_arb)

    @property
    def g_bra(self) -> float:
        return self._gain(self.eta_bra)

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
    is deliberately not clamped there: `beta_numeric` minimises it, also for
    the weights behind `gap_table`, and a clamp would flatten that objective
    at low SNR. Callers that report it as a sum-BER must leave out the values
    above the ceiling, as `twrelay sweep` does.
    """
    if not rho_ar > 0.0:
        raise ConfigurationError(f"rho_ar must be positive, got {rho_ar!r}")
    mod = profile.mod
    t1 = (2.0 * mod.b * rho_ar * profile.g_arb) ** (-profile.d)
    t2 = (2.0 * mod.b * rho_ar * profile.g_bra) ** (-profile.d)
    return (t1 + t2) / mod.bits_per_symbol


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
                 mod: Optional[Modulation] = None, tolerance: float = 1e-6,
                 dfactors: Optional[DFactors] = None) -> WeightPair:
    """Relay weights minimizing the power-law asymptote: coarse grid over
    beta^2 followed by golden-section refinement."""
    if not p.uses_weights:
        raise ConfigurationError(f"{p.value} has no relay weights")
    if mod is None:
        mod = protocol_modulation(p)

    eps = 1e-9   # endpoint weights zero out one direction entirely

    def objective(beta_sq: float) -> float:
        w = WeightPair.from_beta_squared(min(max(beta_sq, eps), 1.0 - eps))
        prof = high_snr_profile(p, ant, pw, mod, w, dfactors)
        return high_snr_sum_ber(prof, pw.rho_ar)

    n_grid = 101
    best_i = min(range(n_grid), key=lambda i: objective(i / (n_grid - 1)))
    lo = max(0.0, (best_i - 1) / (n_grid - 1))
    hi = min(1.0, (best_i + 1) / (n_grid - 1))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d_pt = lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d_pt)
    while hi - lo > tolerance:
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
    dfactors: Optional[DFactors] = None


def gap_table(ant: AntennaConfig, pw: PowerProfile,
              protocols: Optional[list] = None,
              dfactors: Optional[DFactors] = None,
              d_trials: int = 1_000_000, seed: int = 12345) -> GapTable:
    """Ranked asymptote comparison across protocols at one scenario.

    Weighted protocols get their weights from the numeric asymptote
    optimizer (balanced powers give 1/2 automatically).  With multiple
    relay antennas the dual-reception factors are estimated by Monte Carlo
    unless supplied.  The two-slot and first three-slot protocols are
    evaluated on their matched-beamformer bound, the only closed-form
    regime they admit with multiple relay antennas.
    """
    ant.require_analytic()
    if protocols is None:
        protocols = list(Protocol)
    if ant.m_r > 1 and dfactors is None and any(p.dual_reception for p in protocols):
        from .simulate import estimate_d_factors
        dfactors = estimate_d_factors(ant, pw, trials=d_trials, seed=seed)

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
    return GapTable(best=best, rows=rows, dfactors=dfactors if ant.m_r > 1 else None)
