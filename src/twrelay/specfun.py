"""Expansion-coefficient tables for the largest eigenvalue of a complex
Wishart matrix, the ingredient of the paper's closed-form sum-BER
(`analysis._moment_groups`) that no library provides.  The Gamma and Gauss
2F1 functions come from math and scipy.special; the distributions and the
high-SNR weights come from the determinant form in `lowerbound`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction as F
from types import MappingProxyType
from typing import Mapping

from .errors import ConfigurationError, UnsupportedConfigError


@dataclass(frozen=True)
class EigCoeffTable:
    """Coefficients d[n, m] of the largest-eigenvalue CCDF expansion.

    For a matrix H with i.i.d. CN(0,1) entries, min dimension m_r and max
    dimension m_s, the largest eigenvalue L of H H^H satisfies

        P(L > x) = sum_n sum_m d[n, m] * sum_{k<=m} (n x)^k e^{-n x} / k!

    with n in 1..m_r and m in [m_s - m_r, (m_s + m_r) n - 2 n^2].

    `exact` holds the coefficients as Fractions, which the closed form's
    moment grouping sums exactly.
    """

    m_s: int
    m_r: int
    exact: Mapping

    def __post_init__(self):
        for (n, m) in self.exact:
            if not 1 <= n <= self.m_r:
                raise ConfigurationError(f"eigenvalue table index n={n} outside 1..{self.m_r}")
            lo = self.m_s - self.m_r
            hi = (self.m_s + self.m_r) * n - 2 * n * n
            if not lo <= m <= hi:
                raise ConfigurationError(
                    f"eigenvalue table index m={m} outside [{lo}, {hi}] for n={n}")
        object.__setattr__(self, "exact", MappingProxyType(dict(self.exact)))


# Derived symbolically from the determinant form of the largest-eigenvalue
# CDF (Gram determinant of lower incomplete gamma functions) and validated
# against Monte-Carlo eigenvalue draws in the test suite.  Keys: (m_s, m_r).
# The entries are exact rationals, so that 1 - sum d[n, m] is exactly 0 (and
# so are the CDF's Taylor coefficients below the diversity order m_s * m_r)
# and the closed form's moment groups that cancel drop out exactly.
_EIG_TABLES = {
    (1, 1): {(1, 0): F(1)},
    (2, 1): {(1, 1): F(1)},
    (3, 1): {(1, 2): F(1)},
    (4, 1): {(1, 3): F(1)},
    (2, 2): {(1, 0): F(2), (1, 1): F(-2), (1, 2): F(2), (2, 0): F(-1)},
    (3, 2): {
        (1, 1): F(3), (1, 2): F(-4), (1, 3): F(3),
        (2, 1): F(-3, 4), (2, 2): F(-1, 4),
    },
    (4, 2): {
        (1, 2): F(4), (1, 3): F(-6), (1, 4): F(4),
        (2, 2): F(-1, 2), (2, 3): F(-3, 8), (2, 4): F(-1, 8),
    },
    (3, 3): {
        (1, 0): F(3), (1, 1): F(-6), (1, 2): F(12), (1, 3): F(-12), (1, 4): F(6),
        (2, 0): F(-3), (2, 1): F(3, 2), (2, 2): F(-3, 4), (2, 3): F(-3, 8), (2, 4): F(-3, 8),
        (3, 0): F(1),
    },
    (4, 3): {
        (1, 1): F(6), (1, 2): F(-16), (1, 3): F(27), (1, 4): F(-24), (1, 5): F(10),
        (2, 1): F(-3), (2, 2): F(1), (2, 3): F(3, 8), (2, 4): F(-3, 4),
        (2, 5): F(-5, 32), (2, 6): F(-15, 32),
        (3, 1): F(2, 3), (3, 2): F(8, 27), (3, 3): F(1, 27),
    },
    (4, 4): {
        (1, 0): F(4), (1, 1): F(-12), (1, 2): F(36), (1, 3): F(-68),
        (1, 4): F(84), (1, 5): F(-60), (1, 6): F(20),
        (2, 0): F(-6), (2, 1): F(6), (2, 2): F(-6), (2, 3): F(1), (2, 4): F(-1),
        (2, 5): F(5, 2), (2, 6): F(-5, 2), (2, 7): F(35, 32), (2, 8): F(-35, 32),
        (3, 0): F(4), (3, 1): F(-4, 3), (3, 2): F(4, 9), (3, 3): F(28, 81),
        (3, 4): F(92, 243), (3, 5): F(100, 729), (3, 6): F(20, 729),
        (4, 0): F(-1),
    },
}

MAX_TABLE_DIM = 4


def wishart_max_eig_coeffs(m_s: int, m_r: int) -> EigCoeffTable:
    """Expansion coefficients for the largest eigenvalue of an m_s x m_r
    complex Wishart matrix (m_s >= m_r required; swap dimensions first)."""
    if m_s < m_r:
        raise ConfigurationError(
            f"wishart_max_eig_coeffs requires m_s >= m_r; swap the dimensions (got {m_s} < {m_r})")
    if not (1 <= m_r and m_s <= MAX_TABLE_DIM):
        raise UnsupportedConfigError(
            f"eigenvalue coefficient tables cover dimensions up to {MAX_TABLE_DIM}, got ({m_s}, {m_r})")
    return _table(m_s, m_r)


@functools.lru_cache(maxsize=None)
def _table(m_s: int, m_r: int) -> EigCoeffTable:
    # built once per shape
    return EigCoeffTable(m_s=m_s, m_r=m_r, exact=_EIG_TABLES[(m_s, m_r)])
