"""Experiment description: protocols, antennas, powers, modulation, relay
weights, and the table of constants that turns a protocol into its unified
end-to-end SNR form."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigurationError


class Protocol(enum.Enum):
    TWO_SLOT = "two_slot"
    FIRST_THREE_SLOT = "first_three_slot"
    SECOND_THREE_SLOT = "second_three_slot"
    FIRST_FOUR_SLOT = "first_four_slot"
    SECOND_FOUR_SLOT = "second_four_slot"

    @property
    def slot_count(self) -> int:
        return {
            Protocol.TWO_SLOT: 2,
            Protocol.FIRST_THREE_SLOT: 3,
            Protocol.SECOND_THREE_SLOT: 3,
            Protocol.FIRST_FOUR_SLOT: 4,
            Protocol.SECOND_FOUR_SLOT: 4,
        }[self]

    @property
    def uses_weights(self) -> bool:
        """True for the protocols that weight the two sources at the relay."""
        return self in (Protocol.FIRST_THREE_SLOT, Protocol.SECOND_FOUR_SLOT)

    @property
    def relay_transmits_twice(self) -> bool:
        """True when the relay broadcast is split over two slots (half power)."""
        return self in (Protocol.SECOND_THREE_SLOT, Protocol.FIRST_FOUR_SLOT,
                        Protocol.SECOND_FOUR_SLOT)

    @property
    def dual_reception(self) -> bool:
        """True when each destination combines two relay transmissions."""
        return self in (Protocol.SECOND_THREE_SLOT, Protocol.SECOND_FOUR_SLOT)


def parse_protocol(name: str) -> Protocol:
    key = name.strip().lower().replace("-", "_")
    try:
        return Protocol(key)
    except ValueError:
        valid = ", ".join(p.value for p in Protocol)
        raise ConfigurationError(f"unknown protocol {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class AntennaConfig:
    m_a: int
    m_r: int
    m_b: int

    def __post_init__(self):
        for name in ("m_a", "m_r", "m_b"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ConfigurationError(f"antenna count {name} must be a positive integer, got {v!r}")

    def require_analytic(self) -> None:
        """Analytic formulas need at least as many antennas at A and B as at R."""
        if self.m_a < self.m_r or self.m_b < self.m_r:
            raise ConfigurationError(
                f"analytic forms require m_a >= m_r and m_b >= m_r (got {self.m_a}x{self.m_r}x{self.m_b}); "
                "swap the roles of the dimensions before calling")


@dataclass(frozen=True)
class PowerProfile:
    """Average transmit SNRs per link, linear scale.  The relay transmits at
    the same average SNR toward both destinations."""

    rho_ar: float
    rho_br: float
    rho_ra: float
    rho_rb: float

    def __post_init__(self):
        for name in ("rho_ar", "rho_br", "rho_ra", "rho_rb"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ConfigurationError(f"{name} must be positive, got {v!r}")
        if abs(self.rho_ra - self.rho_rb) > 1e-9 * max(self.rho_ra, self.rho_rb):
            raise ConfigurationError("relay transmit SNRs toward A and B must be equal")

    @staticmethod
    def balanced(rho_db: float) -> "PowerProfile":
        rho = db_to_linear(rho_db)
        return PowerProfile(rho, rho, rho, rho)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def power_profile(rho_ar_db: float, d0: float, pl_exponent: float = 3.0,
                  relay_rho_db: Optional[float] = None) -> PowerProfile:
    """Build a power profile from relay placement.

    d0 is the A-to-relay fraction of the A-to-B distance; the B-side SNR
    follows the simplified path-loss model
    rho_br|dB = rho_ar|dB - 10 * pl_exponent * log10((1 - d0) / d0).
    The relay transmit SNR defaults to the A-side value.
    """
    if not 0.0 < d0 < 1.0:
        raise ConfigurationError(f"relay placement d0 must lie in (0, 1), got {d0!r}")
    if not pl_exponent > 0.0:
        raise ConfigurationError(f"path-loss exponent must be positive, got {pl_exponent!r}")
    rho_br_db = rho_ar_db - 10.0 * pl_exponent * math.log10((1.0 - d0) / d0)
    r_db = rho_ar_db if relay_rho_db is None else relay_rho_db
    return PowerProfile(
        rho_ar=db_to_linear(rho_ar_db),
        rho_br=db_to_linear(rho_br_db),
        rho_ra=db_to_linear(r_db),
        rho_rb=db_to_linear(r_db),
    )


@dataclass(frozen=True)
class WeightPair:
    """Relay combining weights for the two sources, alpha for A and beta
    for B, constrained to the unit circle."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigurationError("weights must be non-negative")
        if abs(self.alpha ** 2 + self.beta ** 2 - 1.0) > 1e-12:
            raise ConfigurationError(
                f"weights must satisfy alpha^2 + beta^2 = 1, got {self.alpha**2 + self.beta**2!r}")

    @staticmethod
    def from_beta_squared(beta_sq: float) -> "WeightPair":
        if not 0.0 <= beta_sq <= 1.0:
            raise ConfigurationError(f"beta^2 must lie in [0, 1], got {beta_sq!r}")
        return WeightPair(alpha=math.sqrt(1.0 - beta_sq), beta=math.sqrt(beta_sq))


BALANCED_WEIGHTS = WeightPair.from_beta_squared(0.5)


@dataclass(frozen=True)
class Modulation:
    """BER-metric constants: error coefficient a, SNR scale b, and
    constellation size M (a power of two)."""

    a: float
    b: float
    m: int

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ConfigurationError("modulation constants must be positive")
        if self.m < 2 or (self.m & (self.m - 1)) != 0:
            raise ConfigurationError(f"constellation size must be a power of two >= 2, got {self.m!r}")

    @property
    def bits_per_symbol(self) -> float:
        return math.log2(self.m)


def modulation_constants(family: str, m: int = 2) -> Modulation:
    """Constants (a, b, M) for bpsk, mpsk, or mqam."""
    fam = family.strip().lower()
    if fam == "bpsk":
        return Modulation(1.0, 1.0, 2)
    if m < 2 or (m & (m - 1)) != 0:
        raise ConfigurationError(f"constellation size must be a power of two >= 2, got {m!r}")
    if fam == "mpsk":
        return Modulation(2.0, math.sin(math.pi / m) ** 2, m)
    if fam == "mqam":
        return Modulation(4.0 * (1.0 - 1.0 / math.sqrt(m)), 1.5 / (m - 1), m)
    raise ConfigurationError(f"unknown modulation family {family!r}; expected bpsk, mpsk, or mqam")


def protocol_modulation(p: Protocol) -> Modulation:
    """Rate-normalized constellation per protocol: QPSK for two slots,
    8-QAM for three, 16-QAM for four."""
    return {
        2: modulation_constants("mpsk", 4),
        3: modulation_constants("mqam", 8),
        4: modulation_constants("mqam", 16),
    }[p.slot_count]


@dataclass(frozen=True)
class CoefficientSet:
    """The six constants of the unified end-to-end SNR form
    A g1 g2 / (B g1 + C g2 + 1), one (A, B, C) triple per direction."""

    a_arb: float
    b_arb: float
    c_arb: float
    a_bra: float
    b_bra: float
    c_bra: float


@dataclass(frozen=True)
class DFactors:
    """Mean-ratio corrections that fold the secondary (non-matched)
    reception branch of the dual-reception protocols into the unified SNR
    constants.  Each equals 1 + E[secondary]/E[primary], hence lies in
    (1, 2]; with a single relay antenna all equal exactly 2."""

    d_arb_3: float
    d_bra_3: float
    d_arb_4: float
    d_bra_4: float

    def __post_init__(self):
        for name in ("d_arb_3", "d_bra_3", "d_arb_4", "d_bra_4"):
            v = getattr(self, name)
            if not 1.0 < v <= 2.0:
                raise ConfigurationError(f"{name} must lie in (1, 2], got {v!r}")


MR1_DFACTORS = DFactors(2.0, 2.0, 2.0, 2.0)


def coefficient_set(p: Protocol, ant: AntennaConfig, pw: PowerProfile,
                    w: Optional[WeightPair] = None,
                    d: Optional[DFactors] = None) -> CoefficientSet:
    """Unified-SNR constants for a protocol.

    Weights are required for the weighted protocols; dual-reception factors
    are required only for the dual-reception protocols with more than one
    relay antenna (with one relay antenna they degenerate to 2 and the
    single-antenna constants are exact).
    """
    if p.uses_weights:
        if w is None:
            raise ConfigurationError(f"{p.value} requires a WeightPair")
        a2, b2 = w.alpha ** 2, w.beta ** 2
    ra = pw.rho_ar / pw.rho_ra   # A-side source-to-relay power ratio
    rb = pw.rho_br / pw.rho_rb

    if p is Protocol.TWO_SLOT:
        return CoefficientSet(1.0, 1.0, 1.0 + rb, 1.0, 1.0, 1.0 + ra)
    if p is Protocol.FIRST_THREE_SLOT:
        return CoefficientSet(a2, a2, 1.0 + b2 * rb, b2, b2, 1.0 + a2 * ra)
    if p is Protocol.FIRST_FOUR_SLOT:
        return CoefficientSet(0.5, 1.0, 0.5, 0.5, 1.0, 0.5)

    if ant.m_r == 1:
        d = MR1_DFACTORS
    elif d is None:
        raise ConfigurationError(
            f"{p.value} with {ant.m_r} relay antennas requires dual-reception factors")
    if p is Protocol.SECOND_THREE_SLOT:
        return CoefficientSet(d.d_arb_3 / 2.0, 1.0, 0.5 + rb,
                              d.d_bra_3 / 2.0, 1.0, 0.5 + ra)
    if p is Protocol.SECOND_FOUR_SLOT:
        return CoefficientSet(a2 * d.d_arb_4 / 2.0, a2, 0.5 + b2 * rb,
                              b2 * d.d_bra_4 / 2.0, b2, 0.5 + a2 * ra)
    raise ConfigurationError(f"unhandled protocol {p!r}")


# ---------------------------------------------------------------------------
# Scenario files: flat key = value text
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = ("protocol", "m_a", "m_r", "m_b", "rho_ar_db", "d0",
                  "pl_exponent", "relay_rho_db", "beta", "trials", "seed")


@dataclass
class Scenario:
    """One experiment: geometry, antennas, optional protocol and weight."""

    m_a: int = 2
    m_r: int = 1
    m_b: int = 2
    rho_ar_db: float = 30.0
    d0: float = 0.5
    pl_exponent: float = 3.0
    relay_rho_db: Optional[float] = None
    protocol: Optional[Protocol] = None
    beta: Optional[float] = None          # relay weight for B's signal
    trials: int = 100_000
    seed: int = 12345

    @property
    def antennas(self) -> AntennaConfig:
        return AntennaConfig(self.m_a, self.m_r, self.m_b)

    @property
    def powers(self) -> PowerProfile:
        return power_profile(self.rho_ar_db, self.d0, self.pl_exponent, self.relay_rho_db)

    def weights(self) -> Optional[WeightPair]:
        if self.beta is None:
            return None
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError(f"beta must lie in [0, 1], got {self.beta!r}")
        return WeightPair(alpha=math.sqrt(max(0.0, 1.0 - self.beta ** 2)), beta=self.beta)


def load_scenario(path) -> Scenario:
    """Parse a flat key = value scenario file.  Unknown keys are errors."""
    text = Path(path).read_text()
    sc = Scenario()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _SCENARIO_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown scenario key {key!r}")
        try:
            if key == "protocol":
                sc.protocol = parse_protocol(value)
            elif key in ("m_a", "m_r", "m_b", "trials", "seed"):
                setattr(sc, key, int(value))
            else:
                setattr(sc, key, float(value))
        except ConfigurationError:
            raise
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: cannot parse value {value!r} for {key}") from None
    # trip the validators
    sc.antennas
    sc.powers
    sc.weights()
    if sc.trials < 1:
        raise ConfigurationError(f"{path}: trials must be >= 1")
    return sc
