"""High-SNR machinery: origin derivatives, direction weights, the power-law
asymptote, weight optimization, and the rate-normalized gap."""

import math
from fractions import Fraction

import numpy as np
import pytest

from twrelay import highsnr
from twrelay.errors import ConfigurationError, UnsupportedConfigError
from twrelay.lowerbound import ccdf_expansion
from twrelay.highsnr import (beta_closed_form, beta_numeric, eta_pair, gap_table,
                             high_snr_gap, high_snr_profile, high_snr_sum_ber)
from twrelay.scenario import (AntennaConfig, BALANCED_WEIGHTS, DFactors, PowerProfile,
                              Protocol, WeightPair, _unified_constants, coefficient_set,
                              power_profile, protocol_modulation)

UNBALANCED = power_profile(40.0, 0.3, 3.0, relay_rho_db=40.0)


class TestOriginDerivatives:
    # the direction weight is the end-to-end origin derivative over (d - 1)!;
    # where a single link has the diversity order d = m n, it is that link's
    # derivative alone

    def test_two_slot_balanced_2x1x2(self):
        # the links of 2x1x2, each alone: A-R in 2x1x3, R-B in 3x1x2
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(2, 1, 3)
        eta = eta_pair(coefficient_set(Protocol.TWO_SLOT, ant, pw), ant, pw)
        assert eta[0] == pytest.approx(4.0, rel=1e-12)   # (C/A)^2 with C = 2
        ant = AntennaConfig(3, 1, 2)
        eta = eta_pair(coefficient_set(Protocol.TWO_SLOT, ant, pw), ant, pw)
        assert eta[0] == pytest.approx(1.0, rel=1e-12)

    def test_general_reduces_to_direct_power(self):
        pw = power_profile(25.0, 0.4, 3.0)
        ant = AntennaConfig(3, 1, 4)       # the 3x1 A-R link alone, d = 3
        coeffs = coefficient_set(Protocol.SECOND_THREE_SLOT, ant, pw)
        eta = eta_pair(coeffs, ant, pw)
        assert eta[0] * math.factorial(2) == pytest.approx(
            (coeffs.c_arb / coeffs.a_arb) ** 3, rel=1e-12)
        ant = AntennaConfig(3, 1, 2)       # the 2x1 B-R link alone, d = 2
        coeffs = coefficient_set(Protocol.SECOND_THREE_SLOT, ant, pw)
        eta = eta_pair(coeffs, ant, pw)
        assert eta[1] == pytest.approx(
            (coeffs.c_bra * pw.rho_ar / (coeffs.a_bra * pw.rho_br)) ** 2, rel=1e-12)

    def test_all_positive(self):
        for ant in (AntennaConfig(2, 2, 2), AntennaConfig(4, 2, 3), AntennaConfig(3, 3, 4)):
            pw = power_profile(30.0, 0.45, 3.0)
            for p in Protocol:
                w = BALANCED_WEIGHTS if p.uses_weights else None
                from twrelay.simulate import estimate_d_factors
                d, _ = estimate_d_factors(ant, pw, trials=20_000, seed=1)
                coeffs = coefficient_set(p, ant, pw, w, d)
                assert min(eta_pair(coeffs, ant, pw)) > 0.0


class TestEtaPair:
    def test_single_antenna_everywhere(self):
        ant = AntennaConfig(1, 1, 1)
        pw = PowerProfile.balanced(20.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        eta = eta_pair(coeffs, ant, pw)
        assert eta[0] == pytest.approx(3.0, rel=1e-12)   # 2^1 + 1^1

    def test_balanced_2x1x2(self):
        ant = AntennaConfig(2, 1, 2)
        pw = PowerProfile.balanced(40.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        eta = eta_pair(coeffs, ant, pw)
        assert eta == (pytest.approx(5.0, rel=1e-12), pytest.approx(5.0, rel=1e-12))

    def test_asymmetric_uses_slower_link(self):
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(1, 1, 3)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        eta = eta_pair(coeffs, ant, pw)
        # with fewer antennas at A, only the A-side links limit diversity
        assert eta[0] == pytest.approx(coeffs.c_arb / coeffs.a_arb, rel=1e-12)
        assert eta[1] == pytest.approx(
            coeffs.b_bra * pw.rho_ar / (coeffs.a_bra * pw.rho_ra), rel=1e-12)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 2), (3, 1, 3), (4, 1, 4), (2, 2, 2),
                                      (3, 2, 3), (4, 2, 4), (3, 3, 3), (4, 3, 4), (4, 4, 4)])
    def test_exact_for_every_table_shape(self, dims):
        # against the exact rational of the same float inputs, with the
        # link's (d-1)-th density derivative at 0 summed from the exact
        # eigenvalue expansion (summed in floats it was 2e-10 off at 4x4x4)
        ant = AntennaConfig(*dims)
        m, m_r = dims[0], dims[1]
        d = m * m_r
        table = ccdf_expansion(m, m_r)
        deriv = sum(c * math.comb(d - 1, k) * (-1) ** (d - 1 + k) * n ** d
                    for (n, k), c in table)
        pw = power_profile(40.0, 0.3, 3.0)
        for p, w in ((Protocol.TWO_SLOT, None),
                     (Protocol.FIRST_THREE_SLOT, WeightPair.from_beta_squared(0.37))):
            coeffs = coefficient_set(p, ant, pw, w)
            rho_ar = Fraction(pw.rho_ar)
            exact = []
            for a, b, c, rho_src, rho_far in (
                    (coeffs.a_arb, coeffs.b_arb, coeffs.c_arb, pw.rho_ar, pw.rho_rb),
                    (coeffs.a_bra, coeffs.b_bra, coeffs.c_bra, pw.rho_br, pw.rho_ra)):
                ratios = (Fraction(c) * rho_ar / (Fraction(a) * Fraction(rho_src)),
                          Fraction(b) * rho_ar / (Fraction(a) * Fraction(rho_far)))
                exact.append(deriv * sum(r ** d for r in ratios) / math.factorial(d - 1))
            eta = eta_pair(coeffs, ant, pw)
            assert eta == (pytest.approx(float(exact[0]), rel=1e-14),
                           pytest.approx(float(exact[1]), rel=1e-14)), p


class TestAsymptote:
    def test_pure_power_law(self):
        prof = high_snr_profile(Protocol.TWO_SLOT, AntennaConfig(2, 1, 2),
                                PowerProfile.balanced(40.0))
        v1 = high_snr_sum_ber(prof, 1e4)
        v2 = high_snr_sum_ber(prof, 2e4)
        assert v1 / v2 == pytest.approx(2.0 ** prof.d, rel=1e-12)

    def test_equal_weights_give_equal_terms(self):
        prof = high_snr_profile(Protocol.TWO_SLOT, AntennaConfig(2, 1, 2),
                                PowerProfile.balanced(40.0))
        assert prof.eta_arb == prof.eta_bra

    def test_matches_closed_form_at_40db(self):
        from twrelay.analysis import sum_ber_quadrature
        ant = AntennaConfig(2, 1, 2)
        pw = PowerProfile.balanced(40.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        lower = sum_ber_quadrature(coeffs, ant, pw, mod)
        prof = high_snr_profile(Protocol.TWO_SLOT, ant, pw)
        assert high_snr_sum_ber(prof, pw.rho_ar) == pytest.approx(lower, rel=0.05)

    def test_tightness_monotone(self):
        from twrelay.analysis import sum_ber_quadrature
        ant = AntennaConfig(2, 1, 2)
        for p in Protocol:
            w = BALANCED_WEIGHTS if p.uses_weights else None
            mod = protocol_modulation(p)
            ratios = []
            for rho_db in (40.0, 50.0, 60.0, 70.0):
                pw = PowerProfile.balanced(rho_db)
                coeffs = coefficient_set(p, ant, pw, w)
                lower = sum_ber_quadrature(coeffs, ant, pw, mod)
                prof = high_snr_profile(p, ant, pw, w)
                ratios.append(lower / high_snr_sum_ber(prof, pw.rho_ar))
            devs = [abs(r - 1.0) for r in ratios]
            assert all(b < a for a, b in zip(devs, devs[1:])), (p, ratios)


class TestBetaClosedForm:
    def test_balanced_half(self):
        pw = PowerProfile.balanced(25.0)
        for p in (Protocol.FIRST_THREE_SLOT, Protocol.SECOND_FOUR_SLOT):
            assert beta_closed_form(p, pw).beta ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_reference_geometry(self):
        assert beta_closed_form(Protocol.FIRST_THREE_SLOT, UNBALANCED).beta ** 2 \
            == pytest.approx(0.82915, abs=1e-5)
        assert beta_closed_form(Protocol.SECOND_FOUR_SLOT, UNBALANCED).beta ** 2 \
            == pytest.approx(0.85159, abs=1e-5)

    def test_strong_b_side_limit(self):
        pw = PowerProfile(10.0, 1e9, 10.0, 10.0)
        assert beta_closed_form(Protocol.FIRST_THREE_SLOT, pw).beta ** 2 < 1e-3

    def test_monotone_in_a_side_power(self):
        prev = -1.0
        for rho_db in np.linspace(20.0, 50.0, 20):
            pw = PowerProfile(10 ** (rho_db / 10), 100.0, 200.0, 200.0)
            b2 = beta_closed_form(Protocol.FIRST_THREE_SLOT, pw).beta ** 2
            assert b2 > prev
            prev = b2

    def test_contracts(self):
        pw = PowerProfile.balanced(25.0)
        with pytest.raises(ConfigurationError):
            beta_closed_form(Protocol.TWO_SLOT, pw)


class TestBetaNumeric:
    def test_matches_closed_form_1x1x1(self):
        ant = AntennaConfig(1, 1, 1)
        for p in (Protocol.FIRST_THREE_SLOT, Protocol.SECOND_FOUR_SLOT):
            closed = beta_closed_form(p, UNBALANCED).beta ** 2
            numeric = beta_numeric(p, ant, UNBALANCED).beta ** 2
            assert numeric == pytest.approx(closed, abs=1e-8)

    def test_stationarity_of_closed_form(self):
        # the closed-form weight is a stationary point of the asymptote
        rng = np.random.default_rng(77)
        ant = AntennaConfig(1, 1, 1)
        for _ in range(10):
            rho_ar, rho_br, rho_r = 10 ** rng.uniform(1.5, 4.5, 3)
            pw = PowerProfile(rho_ar, rho_br, rho_r, rho_r)
            for p in (Protocol.FIRST_THREE_SLOT, Protocol.SECOND_FOUR_SLOT):
                b2 = beta_closed_form(p, pw).beta ** 2

                def obj(v):
                    prof = high_snr_profile(p, ant, pw, WeightPair.from_beta_squared(v))
                    return high_snr_sum_ber(prof, pw.rho_ar)

                h = 1e-5
                deriv = (obj(b2 + h) - obj(b2 - h)) / (2 * h)
                curv = (obj(b2 + h) - 2 * obj(b2) + obj(b2 - h)) / (h * h)
                assert abs(deriv) <= 1e-6 * abs(curv) + 1e-12

    def test_optimality_spot_check(self):
        ant = AntennaConfig(2, 1, 2)
        p = Protocol.SECOND_FOUR_SLOT
        best = beta_numeric(p, ant, UNBALANCED).beta ** 2

        def obj(v):
            prof = high_snr_profile(p, ant, UNBALANCED, WeightPair.from_beta_squared(v))
            return high_snr_sum_ber(prof, UNBALANCED.rho_ar)

        for probe in (0.25, 0.5, 0.75):
            assert obj(best) <= obj(probe)

    @pytest.mark.parametrize("d0", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 2, 3)])
    def test_global_minimum_of_convex_eta_sum(self, dims, d0):
        # the eta sum is convex in beta^2, and the optimizer's value lies at
        # or below every inner point of a fine grid, up to rounding, and its
        # beta^2 within one grid step of the grid's best point.  The grid's
        # ends are the ends of the search interval, which the golden section
        # approaches only to its final width 1e-8: at 2x1x3 only the A-R link
        # sets the diversity order, and the minimum is at an end.
        ant = AntennaConfig(*dims)
        pw = power_profile(30.0, d0, 3.0)
        dfactors = DFactors(1.55, 1.6, 1.65, 1.7) if ant.m_r > 1 else None
        xs = np.linspace(1e-9, 1.0 - 1e-9, 1001)
        for p in (Protocol.FIRST_THREE_SLOT, Protocol.SECOND_FOUR_SLOT):
            def eta_sum(w):
                return sum(eta_pair(coefficient_set(p, ant, pw, w, dfactors), ant, pw))

            w = beta_numeric(p, ant, pw, dfactors=dfactors)
            grid = np.array([eta_sum(WeightPair.from_beta_squared(x)) for x in xs])
            assert eta_sum(w) <= grid[1:-1].min() * (1.0 + 1e-13), p
            assert abs(w.beta ** 2 - xs[grid.argmin()]) <= xs[1] - xs[0], p
            second = grid[:-2] - 2.0 * grid[1:-1] + grid[2:]
            assert (second >= 0.0).all(), p

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 4), (4, 3, 3),
                                      (4, 4, 4)])
    def test_equals_golden_section_over_public_objective(self, dims):
        # the search evaluates the eta sum from per-call constants; it must
        # give, bit for bit, the golden section over eta_pair of
        # coefficient_set at WeightPair.from_beta_squared.  Each weighted
        # protocol runs with d-factors; second_four_slot also runs without
        # them where it needs none (m_r = 1)
        ant = AntennaConfig(*dims)
        cases = [(p, DFactors(1.31, 1.47, 1.62, 1.77))
                 for p in (Protocol.FIRST_THREE_SLOT, Protocol.SECOND_FOUR_SLOT)]
        if ant.m_r == 1:
            cases.append((Protocol.SECOND_FOUR_SLOT, None))
        for db in (-10.0, 0.0, 17.3, 30.0, 60.0):
            for d0 in (0.1, 0.3, 0.5, 0.77):
                pw = power_profile(db, d0)
                for p, dfactors in cases:
                    def objective(x):
                        w = WeightPair.from_beta_squared(x)
                        return sum(eta_pair(coefficient_set(p, ant, pw, w, dfactors), ant, pw))

                    lo, hi = 1e-9, 1.0 - 1e-9
                    invphi = (math.sqrt(5.0) - 1.0) / 2.0
                    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
                    fc, fd = objective(c), objective(d)
                    while hi - lo > 1e-8:
                        if fc < fd:
                            hi, d, fd = d, c, fc
                            c = hi - invphi * (hi - lo)
                            fc = objective(c)
                        else:
                            lo, c, fc = c, d, fd
                            d = lo + invphi * (hi - lo)
                            fd = objective(d)
                    expected = WeightPair.from_beta_squared(0.5 * (lo + hi))
                    assert beta_numeric(p, ant, pw, dfactors) == expected, (p, db, d0, dfactors)

    def test_checks_before_first_step(self, monkeypatch):
        # the errors of coefficient_set and eta_pair, raised before any step
        steps = []
        monkeypatch.setattr(highsnr, "_unified_constants",
                            lambda *args: steps.append(args) or _unified_constants(*args))
        pw = PowerProfile.balanced(20.0)
        with pytest.raises(ConfigurationError, match="requires dual-reception factors"):
            beta_numeric(Protocol.SECOND_FOUR_SLOT, AntennaConfig(2, 2, 2), pw)
        with pytest.raises(UnsupportedConfigError, match="dimensions up to"):
            beta_numeric(Protocol.FIRST_THREE_SLOT, AntennaConfig(5, 1, 5), pw)
        with pytest.raises(ConfigurationError, match="swap the dimensions"):
            beta_numeric(Protocol.FIRST_THREE_SLOT, AntennaConfig(1, 2, 2), pw,
                         DFactors(1.5, 1.5, 1.5, 1.5))
        # the d-factors are checked first, as coefficient_set checks them
        # before eta_pair reads the antennas
        with pytest.raises(ConfigurationError, match="requires dual-reception factors"):
            beta_numeric(Protocol.SECOND_FOUR_SLOT, AntennaConfig(5, 2, 5), pw)
        with pytest.raises(ConfigurationError, match="has no relay weights"):
            beta_numeric(Protocol.TWO_SLOT, AntennaConfig(2, 1, 2), pw)
        assert steps == []
        beta_numeric(Protocol.FIRST_THREE_SLOT, AntennaConfig(2, 1, 2), pw)
        assert len(steps) == 41


class TestGap:
    def test_identical_protocols(self):
        prof = high_snr_profile(Protocol.TWO_SLOT, AntennaConfig(2, 1, 2),
                                PowerProfile.balanced(40.0))
        assert high_snr_gap(prof, prof) == 0.0

    def test_balanced_2x1x2_reference_values(self):
        ant = AntennaConfig(2, 1, 2)
        pw = PowerProfile.balanced(40.0)
        two = high_snr_profile(Protocol.TWO_SLOT, ant, pw)
        sec3 = high_snr_profile(Protocol.SECOND_THREE_SLOT, ant, pw)
        first4 = high_snr_profile(Protocol.FIRST_FOUR_SLOT, ant, pw)
        assert high_snr_gap(sec3, two) == pytest.approx(0.6608, abs=0.002)
        assert high_snr_gap(first4, two) == pytest.approx(3.3547, abs=0.002)

    def test_mismatched_diversity_rejected(self):
        pw = PowerProfile.balanced(40.0)
        p1 = high_snr_profile(Protocol.TWO_SLOT, AntennaConfig(2, 1, 2), pw)
        p2 = high_snr_profile(Protocol.TWO_SLOT, AntennaConfig(3, 1, 3), pw)
        with pytest.raises(ConfigurationError):
            high_snr_gap(p1, p2)

    def test_gap_equals_per_bit_offset_at_common_target(self):
        # the gap is the horizontal offset between the two asymptotes on the
        # per-bit SNR axis at any common error-rate target
        ant = AntennaConfig(2, 1, 2)
        pw = PowerProfile.balanced(40.0)
        worse = high_snr_profile(Protocol.SECOND_THREE_SLOT, ant, pw)
        better = high_snr_profile(Protocol.TWO_SLOT, ant, pw)

        def rho_at(profile, target=1e-6):
            lo, hi = 1.0, 1e12
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if high_snr_sum_ber(profile, mid) > target:
                    lo = mid
                else:
                    hi = mid
            return math.sqrt(lo * hi)

        off = (10.0 * math.log10(rho_at(worse) / worse.mod.bits_per_symbol)
               - 10.0 * math.log10(rho_at(better) / better.mod.bits_per_symbol))
        assert off == pytest.approx(high_snr_gap(worse, better), abs=1e-6)


class TestGapTable:
    def test_balanced_2x1x2(self):
        tab = gap_table(AntennaConfig(2, 1, 2), PowerProfile.balanced(40.0))
        assert tab.best is Protocol.TWO_SLOT
        gaps = {r.protocol: r.gap_db for r in tab.rows}
        assert gaps[Protocol.FIRST_THREE_SLOT] == pytest.approx(3.1014, abs=0.002)
        assert gaps[Protocol.SECOND_FOUR_SLOT] == pytest.approx(3.3547, abs=0.002)

    def test_unbalanced_2x1x2_ranking(self):
        tab = gap_table(AntennaConfig(2, 1, 2), UNBALANCED)
        assert tab.best is Protocol.SECOND_FOUR_SLOT
        ranked = sorted(tab.rows, key=lambda r: r.gap_db)
        assert ranked[1].protocol is Protocol.TWO_SLOT

    @pytest.mark.parametrize("dims, d0, best, runner_up, margin_db", [
        ((2, 1, 2), 0.1, Protocol.SECOND_FOUR_SLOT, Protocol.FIRST_THREE_SLOT, 1.21),
        ((2, 1, 2), 0.2, Protocol.SECOND_FOUR_SLOT, Protocol.FIRST_THREE_SLOT, 1.08),
        ((2, 1, 2), 0.3, Protocol.SECOND_FOUR_SLOT, Protocol.TWO_SLOT, 0.61),
        ((2, 1, 2), 0.4, Protocol.TWO_SLOT, Protocol.SECOND_THREE_SLOT, 0.39),
        ((2, 1, 2), 0.5, Protocol.TWO_SLOT, Protocol.SECOND_THREE_SLOT, 0.66),
        ((3, 1, 3), 0.1, Protocol.SECOND_FOUR_SLOT, Protocol.FIRST_THREE_SLOT, 1.13),
        ((3, 1, 3), 0.2, Protocol.SECOND_FOUR_SLOT, Protocol.FIRST_THREE_SLOT, 1.02),
        ((3, 1, 3), 0.3, Protocol.SECOND_FOUR_SLOT, Protocol.FIRST_THREE_SLOT, 0.77),
        ((3, 1, 3), 0.4, Protocol.TWO_SLOT, Protocol.SECOND_THREE_SLOT, 0.46),
        ((3, 1, 3), 0.5, Protocol.TWO_SLOT, Protocol.SECOND_THREE_SLOT, 0.66),
    ])
    def test_single_relay_antenna_map_at_30db(self, dims, d0, best, runner_up, margin_db):
        # the paper's first claim where no Monte Carlo runs (m_r = 1 needs no
        # d-factors): the four-slot protocol wins once the relay sits off the
        # midpoint (path-loss exponent 3), two-slot at and near it; winner,
        # runner-up and its margin on the SNR-per-bit axis, to 0.01 dB
        tab = gap_table(AntennaConfig(*dims), power_profile(30.0, d0))
        ranked = sorted(tab.rows, key=lambda r: r.gap_db)
        assert (tab.best, ranked[1].protocol) == (best, runner_up)
        assert ranked[1].gap_db == pytest.approx(margin_db, abs=0.01)

    def test_dual_reception_needs_dfactors(self):
        # the engine draws nothing: at m_r = 2 the caller supplies the factors
        with pytest.raises(ConfigurationError, match="dual-reception factors"):
            gap_table(AntennaConfig(2, 2, 2), PowerProfile.balanced(40.0))
