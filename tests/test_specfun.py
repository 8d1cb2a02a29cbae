"""Accuracy of the library special functions the closed-form engine
evaluates (math.lgamma, scipy.special.kv, scipy.special.hyp2f1) against
independent oracles and identities, and the exact largest-eigenvalue
expansion derived from the determinant form: entries, index bounds, CDF
shape, and agreement with the mpmath determinant and with Monte-Carlo
eigenvalue draws."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import hyp2f1, kv

from mp_oracle import link_cdf_pdf_mp
from twrelay.analysis import MAX_TABLE_DIM
from twrelay.lowerbound import ccdf_expansion, leading_coefficient

ALL_TABLE_DIMS = [(m_s, m_r) for m_s in range(1, MAX_TABLE_DIM + 1) for m_r in range(1, m_s + 1)]


class TestLnGamma:
    def test_half_integer(self):
        assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_factorial(self):
        assert math.lgamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_recurrence_oracle(self):
        # build Gamma(7.5) from Gamma(1.5) = sqrt(pi)/2 by the recurrence
        val = math.sqrt(math.pi) / 2.0
        for k in range(6):
            val *= 1.5 + k
        assert math.lgamma(7.5) == pytest.approx(math.log(val), rel=1e-13)

    def test_accuracy_sweep(self):
        with mp.workdps(40):
            for x in np.geomspace(0.5, 200.0, 60):
                ref = float(mp.loggamma(float(x)))
                assert math.lgamma(float(x)) == pytest.approx(ref, rel=1e-12, abs=1e-13)


class TestBesselK:
    def test_negative_order_symmetry(self):
        assert kv(3, 2.0) == kv(-3, 2.0)

    def test_k0_integral_representation(self):
        # oracle: trapezoid rule on the doubly-exponentially decaying
        # integrand exp(-x cosh t), accurate far beyond the tolerance here
        x = 1.0
        h = 0.02
        ts = np.arange(0.0, 40.0, h)
        vals = np.exp(-x * np.cosh(ts))
        oracle = h * (0.5 * vals[0] + vals[1:].sum())
        assert kv(0, x) == pytest.approx(oracle, rel=1e-10)
        assert kv(0, 1.0) == pytest.approx(0.4210244382, rel=1e-9)

    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_recurrence_identity(self, x):
        for nu in range(1, 9):
            lhs = kv(nu + 1, x)
            rhs = kv(nu - 1, x) + (2.0 * nu / x) * kv(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_accuracy_sweep(self):
        with mp.workdps(40):
            for nu in range(0, 7):
                for x in np.geomspace(1e-6, 690.0, 50):
                    ref = float(mp.besselk(nu, mp.mpf(float(x))))
                    if ref == 0.0:
                        continue
                    assert kv(nu, float(x)) == pytest.approx(ref, rel=1e-10)

    def test_monotone_decreasing(self):
        grid = np.geomspace(0.05, 50.0, 200)
        for nu in (0, 1, 4):
            vals = [kv(nu, float(x)) for x in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestGauss2F1:
    def test_unit_at_zero(self):
        assert hyp2f1(2.5, 1.5, 3.0, 0.0) == 1.0

    def test_log_closed_form(self):
        assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(-math.log(0.5) / 0.5, rel=1e-12)

    def test_near_one_transformed(self):
        with mp.workdps(40):
            ref = float(mp.hyp2f1(3.5, 1.5, 4.0, mp.mpf("0.95")))
        assert hyp2f1(3.5, 1.5, 4.0, 0.95) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("params", [
        (4.5, 1.5, 4.0, 0.999999),   # parameter difference a negative even integer
        (6.5, 3.5, 4.0, 0.9999),
        (2.5, 1.5, 3.0, 0.95),       # odd integer difference
        (2.2, 0.4, 3.7, 0.85),       # non-integer difference
        (2.0, 3.0, 4.5, -0.8),       # negative argument
        (1.1, 2.3, 0.9, 0.6),
        (-2.0, 1.5, 3.3, 0.9),       # terminating series
    ])
    def test_accuracy(self, params):
        a, b, c, z = params
        with mp.workdps(40):
            ref = float(mp.hyp2f1(a, b, c, mp.mpf(z)))
        assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=1e-9)


def _table_cdf(table, x, rho=1.0):
    tail = 0.0
    for (n, m), d in table:
        d = float(d)
        nu = n * x / rho
        s, t = 1.0, 1.0
        for k in range(1, m + 1):
            t *= nu / k
            s += t
        tail += d * s * math.exp(-nu)
    return 1.0 - tail


class TestEigCoeffTables:
    def test_single_relay_antenna_entries(self):
        assert dict(ccdf_expansion(3, 1)) == {(1, 2): 1}
        assert dict(ccdf_expansion(1, 1)) == {(1, 0): 1}

    def test_two_by_two_entries(self):
        expected = {(1, 0): 2, (1, 1): -2, (1, 2): 2, (2, 0): -1}
        assert dict(ccdf_expansion(2, 2)) == expected

    def test_erlang_reduction(self):
        # with one relay antenna the assembled CDF must be the Erlang CDF
        table = ccdf_expansion(3, 1)
        for x in (0.3, 1.0, 4.0):
            erlang = 1.0 - math.exp(-x) * (1.0 + x + x * x / 2.0)
            assert _table_cdf(table, x) == pytest.approx(erlang, abs=1e-14)

    def test_index_bounds(self):
        for m_s in range(1, 5):
            for m_r in range(1, m_s + 1):
                for (n, m), _ in ccdf_expansion(m_s, m_r):
                    assert 1 <= n <= m_r
                    assert m_s - m_r <= m <= (m_s + m_r) * n - 2 * n * n

    def test_cdf_limits_and_monotone(self):
        for m_s in range(1, 5):
            for m_r in range(1, m_s + 1):
                table = ccdf_expansion(m_s, m_r)
                rho = 3.7
                assert _table_cdf(table, 1e-12, rho) == pytest.approx(0.0, abs=1e-9)
                assert _table_cdf(table, 50.0 * rho, rho) == pytest.approx(1.0, abs=1e-6)
                grid = np.geomspace(1e-4 * rho, 50.0 * rho, 1000)
                vals = [_table_cdf(table, float(x), rho) for x in grid]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("dims,draws,tol", [
        ((2, 2), 1_000_000, 0.005),
        ((3, 2), 200_000, 0.005),
        ((4, 2), 200_000, 0.005),
        ((3, 3), 200_000, 0.005),
        ((4, 3), 200_000, 0.005),
        ((4, 4), 200_000, 0.005),
    ])
    def test_monte_carlo_eigenvalue_oracle(self, dims, draws, tol):
        m_s, m_r = dims
        rng = np.random.default_rng(2024 + 10 * m_s + m_r)
        h = (rng.standard_normal((draws, m_r, m_s))
             + 1j * rng.standard_normal((draws, m_r, m_s))) / np.sqrt(2.0)
        lam = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))[:, -1]
        lam.sort()
        table = ccdf_expansion(m_s, m_r)
        qs = np.linspace(0.01, 0.99, 60)
        xs = np.quantile(lam, qs)
        worst = max(abs(_table_cdf(table, float(x)) - q) for x, q in zip(xs, qs))
        assert worst <= tol

    @pytest.mark.parametrize("dims", ALL_TABLE_DIMS)
    def test_exact_origin_conditions(self, dims):
        # in exact arithmetic the CCDF is 1 at the origin, and the CDF's
        # Taylor coefficients vanish below the diversity order m_s m_r; the
        # closed form's cancellation at high SNR relies on both
        m_s, m_r = dims
        exact = dict(ccdf_expansion(m_s, m_r))
        assert all(isinstance(d, Fraction) for d in exact.values())
        assert sum(exact.values()) == 1

        def ccdf_taylor(t):
            # x^t coefficient of sum d * sum_{k<=m} (n x)^k / k! * e^(-n x)
            return sum(d * Fraction(n ** k * (-n) ** (t - k),
                                    math.factorial(k) * math.factorial(t - k))
                       for (n, m), d in exact.items() for k in range(min(m, t) + 1))

        order = m_s * m_r
        for t in range(1, order):
            assert ccdf_taylor(t) == 0, t
        assert -ccdf_taylor(order) > 0
        # the determinant form's exact leading coefficient is the same number
        assert leading_coefficient(m_s, m_r) == -ccdf_taylor(order)

    @pytest.mark.parametrize("dims", ALL_TABLE_DIMS)
    def test_matches_mpmath_determinant(self, dims):
        # the expansion against det[gamma(a_ij, u)] / K from mpmath's
        # gammainc at 60 digits, a route that shares no code with the exact
        # expansion; the sum runs in mpmath so that only the coefficients
        # are tested, and its CDF, 1 - CCDF, keeps the digits that cancel
        # where the CDF is small
        m_s, m_r = dims
        table = ccdf_expansion(m_s, m_r)
        for u in (0.05, 0.5, 2.0, 8.0):
            cdf = link_cdf_pdf_mp(u, m_s, m_r)[0]
            with mp.workdps(60):
                ccdf = mp.fsum(mp.mpf(d.numerator) / d.denominator
                               * mp.fsum((n * mp.mpf(u)) ** k / mp.factorial(k)
                                         for k in range(m + 1)) * mp.exp(-n * mp.mpf(u))
                               for (n, m), d in table)
                assert float(ccdf) == pytest.approx(1.0 - cdf, rel=1e-12), u
                assert float(1 - ccdf) == pytest.approx(cdf, rel=1e-12), u
