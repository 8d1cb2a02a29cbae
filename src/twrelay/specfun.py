"""Expansion-coefficient tables for the largest eigenvalue of a complex
Wishart matrix, the one ingredient of the analytic SNR/BER machinery that no
library provides.  The Gamma, Bessel K and Gauss 2F1 functions come from
math and scipy.special.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, UnsupportedConfigError


@dataclass(frozen=True)
class EigCoeffTable:
    """Coefficients d[n, m] of the largest-eigenvalue CCDF expansion.

    For a matrix H with i.i.d. CN(0,1) entries, min dimension m_r and max
    dimension m_s, the largest eigenvalue L of H H^H satisfies

        P(L > x) = sum_n sum_m d[n, m] * sum_{k<=m} (n x)^k e^{-n x} / k!

    with n in 1..m_r and m in [m_s - m_r, (m_s + m_r) n - 2 n^2].
    """

    m_s: int
    m_r: int
    entries: dict

    def __post_init__(self):
        for (n, m) in self.entries:
            if not 1 <= n <= self.m_r:
                raise ConfigurationError(f"eigenvalue table index n={n} outside 1..{self.m_r}")
            lo = self.m_s - self.m_r
            hi = (self.m_s + self.m_r) * n - 2 * n * n
            if not lo <= m <= hi:
                raise ConfigurationError(
                    f"eigenvalue table index m={m} outside [{lo}, {hi}] for n={n}")


# Derived symbolically from the determinant form of the largest-eigenvalue
# CDF (Gram determinant of lower incomplete gamma functions) and validated
# against Monte-Carlo eigenvalue draws in the test suite.  Keys: (m_s, m_r).
_EIG_TABLES = {
    (1, 1): {(1, 0): 1.0},
    (2, 1): {(1, 1): 1.0},
    (3, 1): {(1, 2): 1.0},
    (4, 1): {(1, 3): 1.0},
    (2, 2): {(1, 0): 2.0, (1, 1): -2.0, (1, 2): 2.0, (2, 0): -1.0},
    (3, 2): {
        (1, 1): 3.0, (1, 2): -4.0, (1, 3): 3.0,
        (2, 1): -0.75, (2, 2): -0.25,
    },
    (4, 2): {
        (1, 2): 4.0, (1, 3): -6.0, (1, 4): 4.0,
        (2, 2): -0.5, (2, 3): -0.375, (2, 4): -0.125,
    },
    (3, 3): {
        (1, 0): 3.0, (1, 1): -6.0, (1, 2): 12.0, (1, 3): -12.0, (1, 4): 6.0,
        (2, 0): -3.0, (2, 1): 1.5, (2, 2): -0.75, (2, 3): -0.375, (2, 4): -0.375,
        (3, 0): 1.0,
    },
    (4, 3): {
        (1, 1): 6.0, (1, 2): -16.0, (1, 3): 27.0, (1, 4): -24.0, (1, 5): 10.0,
        (2, 1): -3.0, (2, 2): 1.0, (2, 3): 0.375, (2, 4): -0.75,
        (2, 5): -0.15625, (2, 6): -0.46875,
        (3, 1): 2.0 / 3.0, (3, 2): 8.0 / 27.0, (3, 3): 1.0 / 27.0,
    },
    (4, 4): {
        (1, 0): 4.0, (1, 1): -12.0, (1, 2): 36.0, (1, 3): -68.0,
        (1, 4): 84.0, (1, 5): -60.0, (1, 6): 20.0,
        (2, 0): -6.0, (2, 1): 6.0, (2, 2): -6.0, (2, 3): 1.0, (2, 4): -1.0,
        (2, 5): 2.5, (2, 6): -2.5, (2, 7): 35.0 / 32.0, (2, 8): -35.0 / 32.0,
        (3, 0): 4.0, (3, 1): -4.0 / 3.0, (3, 2): 4.0 / 9.0, (3, 3): 28.0 / 81.0,
        (3, 4): 92.0 / 243.0, (3, 5): 100.0 / 729.0, (3, 6): 20.0 / 729.0,
        (4, 0): -1.0,
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
    return EigCoeffTable(m_s=m_s, m_r=m_r, entries=dict(_EIG_TABLES[(m_s, m_r)]))
