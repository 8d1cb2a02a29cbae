"""Distribution and sum-BER analysis: link laws, end-to-end CDF reduction
and construction, the quadrature/closed-form pair, and precision paths."""

import logging
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import twrelay.analysis
from twrelay.analysis import (_closed_form_f64, _closed_form_mp, bessel_moment, e2e_cdf,
                              link_cdf, link_pdf, min_pair_cdf, sum_ber_closed_form,
                              sum_ber_quadrature)
from twrelay.errors import ConfigurationError, NumericalError
from twrelay.highsnr import high_snr_profile, high_snr_sum_ber
from twrelay.scenario import (AntennaConfig, BALANCED_WEIGHTS, PowerProfile,
                              Protocol, coefficient_set, modulation_constants,
                              protocol_modulation)
from twrelay.simulate import semi_analytic_sum_ber
from twrelay.validate import (check_bessel_moment_identity,
                              check_construction_integral, check_ks_suite,
                              single_antenna_e2e_cdf)

ANT = AntennaConfig(2, 1, 2)


class TestLinkLaws:
    def test_cdf_at_zero(self):
        assert link_cdf(0.0, 2, 1, 5.0) == 0.0

    def test_erlang_two(self):
        assert link_cdf(1.0, 2, 1, 1.0) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12)
        assert link_cdf(1.0, 2, 1, 1.0) == pytest.approx(0.26424, abs=5e-6)

    def test_exponential_density(self):
        assert link_pdf(0.0, 1, 1, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_pdf_is_cdf_derivative(self):
        for x in np.linspace(0.2, 8.0, 20):
            h = 1e-5 * max(1.0, x)
            num = (link_cdf(x + h, 3, 2, 1.3) - link_cdf(x - h, 3, 2, 1.3)) / (2 * h)
            assert link_pdf(float(x), 3, 2, 1.3) == pytest.approx(num, abs=1e-6)

    def test_pdf_normalization(self):
        val, _ = integrate.quad(lambda x: link_pdf(x, 3, 2, 1.0), 0.0, 80.0,
                                epsabs=1e-12, epsrel=1e-10, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestEndToEndCdf:
    def test_zero(self):
        pw = PowerProfile.balanced(10.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, pw)
        assert e2e_cdf("arb", 0.0, coeffs, ANT, pw) == 0.0

    def test_path_reduction(self):
        pw = PowerProfile.balanced(10.0)
        for p in Protocol:
            w = BALANCED_WEIGHTS if p.uses_weights else None
            coeffs = coefficient_set(p, ANT, pw, w)
            for x in np.geomspace(0.01 * pw.rho_ar, 20 * pw.rho_ar, 40):
                one = single_antenna_e2e_cdf("arb", float(x), coeffs, ANT, pw)
                gen = e2e_cdf("arb", float(x), coeffs, ANT, pw)
                assert gen == pytest.approx(one, abs=1e-12)

    def test_bessel_overflow_raises(self):
        # K_nu of an argument near 1e-300 overflows; the CDF must not turn it into NaN
        pw = PowerProfile.balanced(20.0)
        ant = AntennaConfig(4, 4, 4)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        with pytest.raises(NumericalError, match="overflow"):
            e2e_cdf("arb", 1e-300, coeffs, ant, pw)

    def test_antenna_precondition_names_remedy(self):
        pw = PowerProfile.balanced(10.0)
        bad = AntennaConfig(1, 2, 2)
        coeffs = coefficient_set(Protocol.FIRST_FOUR_SLOT, bad, pw)
        with pytest.raises(ConfigurationError, match="swap"):
            e2e_cdf("arb", 1.0, coeffs, bad, pw)

    def test_construction_integral(self):
        res = check_construction_integral(PowerProfile.balanced(30.0))
        assert res.passed, res.line()

    def test_shape(self):
        pw = PowerProfile.balanced(25.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.FIRST_FOUR_SLOT, ant, pw)
        grid = np.geomspace(1e-4 * pw.rho_ar, 100 * pw.rho_ar, 300)
        vals = [e2e_cdf("bra", float(x), coeffs, ant, pw) for x in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)


class TestSumBerQuadrature:
    def test_degenerate_unit_cdf(self, monkeypatch):
        # with both CDFs pinned to their x -> inf limit the integral
        # collapses to the zero-SNR ceiling
        mod = modulation_constants("mqam", 16)
        pw = PowerProfile.balanced(10.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, pw)
        monkeypatch.setattr(twrelay.analysis, "e2e_cdf", lambda *args: 1.0)
        val = sum_ber_quadrature(coeffs, ANT, pw, mod)
        assert val == pytest.approx(mod.a / mod.bits_per_symbol, rel=1e-9)

    def test_monotone_in_snr(self):
        mod = protocol_modulation(Protocol.TWO_SLOT)
        prev = None
        for rho_db in np.linspace(5.0, 33.0, 20):
            pw = PowerProfile.balanced(float(rho_db))
            coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, pw)
            v = sum_ber_quadrature(coeffs, ANT, pw, mod)
            if prev is not None:
                assert v < prev
            prev = v


def _moment_oracle(mu, nu, alpha, beta):
    # Gradshteyn & Ryzhik 6.621.3 as printed (c - a - b = -2 nu), at 50 digits
    with mp.workdps(50):
        mu, alpha, beta = mp.mpf(mu), mp.mpf(alpha), mp.mpf(beta)
        z = (alpha - beta) / (alpha + beta)
        return (mp.sqrt(mp.pi) * (2 * beta) ** nu / (alpha + beta) ** (mu + nu)
                * mp.gamma(mu + nu) * mp.gamma(mu - nu) / mp.gamma(mu + 0.5)
                * mp.hyp2f1(mu + nu, nu + 0.5, mu + 0.5, z))


class TestBesselMoment:
    # the closed form's moments have mu = k + j + 3/2 <= 17.5 and nu <= 9 up
    # to 4x4x4; z = (alpha - beta)/(alpha + beta) approaches 1 as 1/rho
    @pytest.mark.parametrize("one_minus_z", [0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("nu", [0, 1, 4, 9, 17])
    def test_matches_mpmath(self, nu, one_minus_z):
        z = 1.0 - one_minus_z
        for mu in (nu + 0.5, nu + 2.5, nu + 8.5):
            for alpha in (0.37, 1.0, 2.9):
                beta = alpha * (1.0 - z) / (1.0 + z)
                ref = float(_moment_oracle(mu, nu, alpha, beta))
                assert bessel_moment(mu, nu, alpha, beta) == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            bessel_moment(2.5, 1, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            bessel_moment(1.5, 2, 2.0, 1.0)


class TestSumBerClosedForm:
    def test_matches_quadrature(self):
        for p in (Protocol.TWO_SLOT, Protocol.SECOND_FOUR_SLOT):
            mod = protocol_modulation(p)
            w = BALANCED_WEIGHTS if p.uses_weights else None
            for rho_db in (12.0, 28.0):
                pw = PowerProfile.balanced(rho_db)
                coeffs = coefficient_set(p, ANT, pw, w)
                c = sum_ber_closed_form(coeffs, ANT, pw, mod)
                q = sum_ber_quadrature(coeffs, ANT, pw, mod)
                assert c == pytest.approx(q, rel=1e-6)

    def test_precision_paths_agree(self):
        pw = PowerProfile.balanced(20.0)
        for ant in (ANT, AntennaConfig(2, 2, 2)):
            coeffs = coefficient_set(Protocol.FIRST_FOUR_SLOT, ant, pw)
            mod = protocol_modulation(Protocol.FIRST_FOUR_SLOT)
            f64 = _closed_form_f64(coeffs, ant, pw, mod)
            mp_ = sum_ber_closed_form(coeffs, ant, pw, mod, method="mp")
            assert f64 == pytest.approx(mp_, rel=1e-9)
        # the unchecked double-precision assembly is not a public method
        with pytest.raises(ConfigurationError):
            sum_ber_closed_form(coeffs, ant, pw, mod, method="float64")

    def test_lower_bounds_simulation(self):
        p = Protocol.SECOND_THREE_SLOT
        mod = protocol_modulation(p)
        pw = PowerProfile.balanced(22.0)
        coeffs = coefficient_set(p, ANT, pw)
        closed = sum_ber_closed_form(coeffs, ANT, pw, mod)
        est = semi_analytic_sum_ber(p, ANT, pw, mod=mod, trials=300_000, seed=8,
                                    snr_form="exact")
        assert closed <= est.mean + 3.0 * est.std_error

    def test_asymptote_consistency_at_high_snr(self):
        # closed form approaches the power-law asymptote
        pw = PowerProfile.balanced(60.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        closed = sum_ber_closed_form(coeffs, ANT, pw, mod)
        prof = high_snr_profile(Protocol.TWO_SLOT, ANT, pw)
        asym = high_snr_sum_ber(prof, pw.rho_ar)
        assert closed / asym == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("dims,rho_db,protocol", [
        ((2, 2, 2), 30.0, Protocol.TWO_SLOT),
        ((2, 2, 2), 60.0, Protocol.TWO_SLOT),
        ((3, 3, 3), 20.0, Protocol.FIRST_FOUR_SLOT),
    ])
    def test_rescue_precision_is_sufficient(self, dims, rho_db, protocol):
        # the precision sized from the estimated cancellation gives the
        # value a 100-digit assembly gives
        ant = AntennaConfig(*dims)
        pw = PowerProfile.balanced(rho_db)
        coeffs = coefficient_set(protocol, ant, pw)
        mod = protocol_modulation(protocol)
        closed = sum_ber_closed_form(coeffs, ant, pw, mod)
        assert closed == pytest.approx(_closed_form_mp(coeffs, ant, pw, mod, dps=100), rel=1e-12)

    def test_rescue_escalates_past_impossible_values(self, monkeypatch, caplog):
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        ceiling = mod.a / mod.bits_per_symbol
        true_value = _closed_form_mp(coeffs, ant, pw, mod, dps=60)
        # results a too-low precision could give: too small to have kept any
        # digit at 30 digits, negative, and above the ceiling
        bad = iter([ceiling * 1e-20, -1e-20, 2.0 * ceiling])
        tried = []

        def fake_mp(coeffs, ant, pw, mod, dps):
            tried.append(dps)
            return next(bad, true_value)

        monkeypatch.setattr(twrelay.analysis, "_closed_form_mp", fake_mp)
        caplog.set_level(logging.DEBUG, logger="twrelay.analysis")
        assert sum_ber_closed_form(coeffs, ant, pw, mod) == true_value
        assert tried == [30, 60, 120, 240]
        assert len(caplog.records) == 1
        assert str(tried) in caplog.records[0].getMessage()

    @pytest.mark.parametrize("bad", [-1e-20, 0.0, 2.0])
    def test_rescue_raises_rather_than_return_impossible(self, monkeypatch, bad):
        # bad is in units of the ceiling a / log2 M
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        value = bad * mod.a / mod.bits_per_symbol
        monkeypatch.setattr(twrelay.analysis, "_closed_form_mp", lambda *args, **kw: value)
        for method in ("auto", "mp"):
            with pytest.raises(NumericalError):
                sum_ber_closed_form(coeffs, ant, pw, mod, method=method)

    def test_rescue_debug_record(self, caplog):
        # one record per rescue: digits lost, precisions tried, moments
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        sum_ber_closed_form(coeffs, ant, pw, mod)
        assert not caplog.records     # silent by default
        caplog.set_level(logging.DEBUG, logger="twrelay.analysis")
        sum_ber_closed_form(coeffs, ant, pw, mod)
        assert len(caplog.records) == 1
        msg = caplog.records[0].getMessage()
        assert "digits lost" in msg and "dps tried [30]" in msg and "48 moments" in msg

    def test_exact_tables_rescue_4x3x4(self):
        # with float-rounded table entries the cancellation at the origin
        # failed at ~1e-17 and this point came out ~9e10 times the power law
        ant = AntennaConfig(4, 3, 4)
        pw = PowerProfile.balanced(30.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        closed = sum_ber_closed_form(coeffs, ant, pw, mod)
        asym = high_snr_sum_ber(high_snr_profile(Protocol.TWO_SLOT, ant, pw), pw.rho_ar)
        assert closed > 0.0
        assert 0.9 < closed / asym <= 1.0

    def test_bessel_moment_identity_suite(self):
        res = check_bessel_moment_identity()
        assert res.passed, res.line()


class TestDistributionAgreement:
    def test_ks_suite(self):
        results = check_ks_suite(PowerProfile.balanced(30.0), trials=100_000, seed=21)
        for r in results:
            assert r.passed, r.line()

    def test_min_pair_cdf_shape(self):
        pw = PowerProfile.balanced(40.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, pw)
        grid = np.geomspace(1.0, 100 * pw.rho_ar, 200)
        vals = [min_pair_cdf("arb", float(x), coeffs, ANT, pw) for x in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)
