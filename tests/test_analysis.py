"""Distribution and sum-BER analysis: link laws, end-to-end CDF reduction
and construction, the integral/closed-form pair against the mpmath oracle,
the integration engine's error control, and the absence of mpmath at run
time."""

import json
import logging
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import twrelay.lowerbound
from mp_oracle import (ORACLE_DPS, ORACLE_FILE, closed_form_mp, link_cdf_pdf_mp,
                       oracle_inputs, oracle_key, oracle_points)
from twrelay.analysis import (FALLBACK_SHARE, _closed_form_f64, _direction, bessel_moment,
                              e2e_cdf, link_cdf, link_pdf, min_pair_cdf, require_analytic,
                              sum_ber_closed_form, sum_ber_quadrature)
from twrelay.errors import ConfigurationError, NumericalError, UnsupportedConfigError
from twrelay.highsnr import eta_pair, gap_table, high_snr_profile, high_snr_sum_ber
from twrelay.lowerbound import REL_TOL, Direction, Estimate, _cdf_bounds
from twrelay.scenario import (AntennaConfig, BALANCED_WEIGHTS, DFactors, PowerProfile,
                              Protocol, WeightPair, coefficient_set, modulation_constants,
                              power_profile, protocol_modulation)
from twrelay.simulate import SweepPoint, semi_analytic_sweep
from twrelay.validate import (check_bessel_moment_identity,
                              check_construction_integral, check_ks_suite,
                              single_antenna_e2e_cdf)

ANT = AntennaConfig(2, 1, 2)
# the worst relative error of the link kernel against 60-digit references
# on test_determinant_form_matches_mpmath's grid, measured per shape, is
# 1.21e-13 at (4, 4) (u = 4.99, just above the switch to the monomial Gram
# matrix), 5.7e-15 at (4, 3) and at most 2.5e-15 elsewhere; each tolerance
# is at most 3 times its shape's figure
KERNEL_REL = {(2, 2): 6e-15, (3, 3): 7e-15, (4, 3): 1.5e-14, (4, 4): 3e-13, (2, 1): 6e-15,
              (4, 1): 5e-15}


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

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 3), (4, 4), (2, 1), (4, 1)])
    def test_determinant_form_matches_mpmath(self, dims):
        # 60-digit determinant of lower incomplete gammas and its Jacobi
        # derivative; rho = 1.7 exercises the scaling of x and of the density.
        # The array form is checked over the same grid in one call.
        rho, rel = 1.7, KERNEL_REL[dims]
        grid = np.geomspace(1e-6, 30.0, 49)
        cdf, pdf = twrelay.lowerbound.link_cdf_pdf(grid, *dims)
        for k, u in enumerate(grid):
            ref_cdf, ref_pdf = link_cdf_pdf_mp(float(u), *dims)
            assert link_cdf(rho * u, *dims, rho) == pytest.approx(ref_cdf, rel=rel)
            assert link_pdf(rho * u, *dims, rho) == pytest.approx(ref_pdf / rho, rel=rel)
            assert cdf[k] == pytest.approx(ref_cdf, rel=rel)
            assert pdf[k] == pytest.approx(ref_pdf, rel=rel)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (4, 1), (1, 3), (3, 2), (3, 3), (4, 3),
                                      (4, 4)])
    def test_link_values_independent_of_batch(self, dims):
        # one call over more arguments than a quadrature block, on both sides
        # of the u = 1 and u = 4 limits, gives each argument the bits of a
        # call of its own
        u = np.geomspace(1e-6, 80.0, 5000)
        cdf, pdf = twrelay.lowerbound.link_cdf_pdf(u, *dims)
        single = [twrelay.lowerbound.link_cdf_pdf(u[k:k + 1], *dims) for k in range(u.size)]
        assert np.array_equal(cdf, np.concatenate([f for f, _ in single]))
        assert np.array_equal(pdf, np.concatenate([f for _, f in single]))

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (2, 2), (4, 3), (4, 4)])
    def test_infinite_argument(self, dims):
        # F(inf) = 1 and f(inf) = 0, alone and among finite arguments, whose
        # values the infinite ones leave as they are
        assert link_cdf(math.inf, *dims, 1.0) == 1.0
        assert link_pdf(math.inf, *dims, 1.0) == 0.0
        u = np.array([0.5, math.inf, 3.0, 30.0, math.inf])
        cdf, pdf = twrelay.lowerbound.link_cdf_pdf(u, *dims)
        assert np.array_equal(cdf[[1, 4]], [1.0, 1.0]) and np.array_equal(pdf[[1, 4]], [0.0, 0.0])
        finite = twrelay.lowerbound.link_cdf_pdf(u[[0, 2, 3]], *dims)
        assert np.array_equal(cdf[[0, 2, 3]], finite[0])
        assert np.array_equal(pdf[[0, 2, 3]], finite[1])


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

    def test_tiny_threshold_is_finite(self):
        # the Bessel-sum CDF overflowed in K_nu here; the integral has no K_nu
        pw = PowerProfile.balanced(20.0)
        ant = AntennaConfig(4, 4, 4)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        value = e2e_cdf("arb", 1e-300, coeffs, ant, pw)
        assert math.isfinite(value) and 0.0 <= value <= 1e-200

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

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3)])
    def test_unit_interval_and_monotone(self, dims):
        # the Bessel-sum CDF gave negative values and 1 + 9e-16 here
        pw = PowerProfile.balanced(20.0)
        ant = AntennaConfig(*dims)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        grid = np.append(np.geomspace(1e-4 * pw.rho_ar, 1e4 * coeffs.a_arb * pw.rho_ar, 120),
                         10.0 * pw.rho_ar)
        scalars = [e2e_cdf("arb", float(x), coeffs, ant, pw) for x in np.sort(grid)]
        assert all(type(v) is float for v in scalars)
        vals = e2e_cdf("arb", np.sort(grid), coeffs, ant, pw)
        # the array form is the scalar form, element by element, within the
        # engine's tolerance (points are refined together in chunks)
        np.testing.assert_allclose(vals, scalars, rtol=twrelay.lowerbound.REL_TOL, atol=0.0)
        for v in (np.array(scalars), vals):
            assert np.all((v >= 0.0) & (v <= 1.0))
            assert np.all(np.diff(v) >= 0.0)

    @pytest.mark.parametrize("rho_db", [20.0, 40.0])
    @pytest.mark.parametrize("dims", [(2, 1, 2), (2, 2, 2), (3, 3, 3), (4, 3, 4)])
    def test_link_bounds(self, dims, rho_db):
        # L = max(F_f(B x / A), F_s(C x / A)) <= F(x) <= U = F_f(2 B x / A) +
        # F_s(2 C x / A), each value within its own error estimate; the relay
        # off the midpoint gives the two directions different links
        ant = AntennaConfig(*dims)
        pw = power_profile(rho_db, 0.3)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        xs = np.geomspace(1e-4 * pw.rho_ar, 1e2 * pw.rho_ar, 61)
        for direction in ("arb", "bra"):
            d = _direction(direction, coeffs, ant, pw)
            values, errors, _, _ = twrelay.lowerbound.e2e_cdf(xs, *d)
            _, lower, upper = _cdf_bounds(xs, *d)
            assert np.all(lower <= values + errors), direction
            assert np.all(values - errors <= upper), direction
            assert np.any(upper - lower > 0.1), direction

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 3, 4)])
    def test_settled_values_within_their_error(self, dims):
        # where the link bounds meet (U == L) the value is settled at them,
        # with error 0 and no node; integrating those points anyway gives
        # the same value within the integral's own error estimate
        ant = AntennaConfig(*dims)
        pw = power_profile(20.0, 0.3)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        xs = np.geomspace(1e-4 * pw.rho_ar, 1e3 * pw.rho_ar, 61)
        d = _direction("arb", coeffs, ant, pw)
        values, errors, _, settled = twrelay.lowerbound.e2e_cdf(xs, *d)
        f_first, lower, upper = _cdf_bounds(xs, *d)
        meet = upper == lower
        assert settled == meet.sum() > 0
        assert np.array_equal(values[meet], lower[meet]) and not np.any(errors[meet])
        integrated, error, _ = twrelay.lowerbound._e2e_chunk(xs[meet], f_first[meet], *d)
        assert np.all(np.abs(integrated - values[meet]) <= error + REL_TOL * values[meet])

    def test_infinite_nan_and_shaped_thresholds(self):
        # inf is settled at 1 by the link bounds, NaN gives NaN, and an
        # array of any shape gives that shape with the values of the same
        # thresholds in one flat call
        ant = AntennaConfig(2, 2, 2)
        pw = PowerProfile.balanced(20.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        assert e2e_cdf("arb", math.inf, coeffs, ant, pw) == 1.0
        nan = e2e_cdf("arb", math.nan, coeffs, ant, pw)
        assert type(nan) is float and math.isnan(nan)
        xs = pw.rho_ar * np.array([[0.01, math.inf, 0.3], [math.nan, -1.0, 2.0]])
        vals = e2e_cdf("arb", xs, coeffs, ant, pw)
        assert vals.shape == xs.shape
        assert np.array_equal(vals, e2e_cdf("arb", xs.ravel(), coeffs, ant, pw).reshape(xs.shape),
                              equal_nan=True)
        assert vals[0, 1] == 1.0 and math.isnan(vals[1, 0]) and vals[1, 1] == 0.0
        assert 0.0 < vals[0, 0] < vals[0, 2] < vals[1, 2] < 1.0
        assert np.array_equal(e2e_cdf("arb", xs[:1, :1], coeffs, ant, pw),
                              [[e2e_cdf("arb", float(xs[0, 0]), coeffs, ant, pw)]])

    def test_one_kernel_batch_per_scalar_call(self, monkeypatch):
        # the benchmark's outage curve: every inner integral stops by its
        # fourth level, whose nodes, with those of the three coarser levels,
        # go to the link law in one call after the bounds' call
        ant = AntennaConfig(2, 2, 2)
        pw = power_profile(20.0, 0.5)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        d = _direction("arb", coeffs, ant, pw)
        kernel = twrelay.lowerbound.link_cdf_pdf
        calls = []

        def recording(u, m, n):
            calls.append(u.size)
            return kernel(u, m, n)
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording)
        integrated = 0
        for r in 10.0 ** (-3.0 + np.arange(25) / 6.0):
            calls.clear()
            _, _, _, settled = twrelay.lowerbound.e2e_cdf(np.array([r * pw.rho_ar]), *d)
            assert len(calls) == 2 - settled, r
            integrated += 1 - settled
        assert integrated >= 20


class TestSumBerQuadrature:
    def test_degenerate_unit_cdf(self, monkeypatch):
        # every link gain divided by k: as k -> inf each gain tends to 0 and
        # the value to the zero-SNR ceiling, from below, like k^(-1/2)
        # (erfc z = 1 - 2 z / sqrt(pi) + O(z^3)); the Richardson limit of
        # k = 1e8 and 1e12 removes that term and leaves the ceiling
        mod = modulation_constants("mqam", 16)
        pw = PowerProfile.balanced(10.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, pw)
        kernel = twrelay.lowerbound.link_cdf_pdf
        values = []
        for k in (1e8, 1e12):
            def shrunk(u, m, n, k=k):
                cdf, pdf = kernel(k * u, m, n)
                return cdf, k * pdf
            monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", shrunk)
            values.append(sum_ber_quadrature(coeffs, ANT, pw, mod))
        assert values[0] < values[1] < mod.ceiling
        assert (100.0 * values[1] - values[0]) / 99.0 == pytest.approx(mod.ceiling, rel=1e-12)

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

    def test_equal_directions_integrated_once(self, monkeypatch):
        # a symmetric network's two directions are equal: the pair passes
        # the link law exactly the arguments of one direction alone
        ant = AntennaConfig(2, 2, 2)
        pw = PowerProfile.balanced(30.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        d = _direction("arb", coeffs, ant, pw)
        assert _direction("bra", coeffs, ant, pw) == d
        kernel = twrelay.lowerbound.link_cdf_pdf

        def arguments(directions):
            calls = []

            def recording(u, m, n):
                calls.append((u.copy(), m, n))
                return kernel(u, m, n)
            monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording)
            est = twrelay.lowerbound.sum_ber(directions, mod.a, mod.b, mod.bits_per_symbol)
            return est, calls
        one, one_calls = arguments([d])
        pair, pair_calls = arguments([d, d])
        assert len(pair_calls) == len(one_calls)
        for (u, m, n), (u1, m1, n1) in zip(pair_calls, one_calls):
            assert np.array_equal(u, u1) and (m, n) == (m1, n1)
        assert pair.value == 2.0 * one.value and pair.link_args == one.link_args

    def test_link_arguments_are_axis_nodes(self, monkeypatch):
        # the grid passes the link law each axis node once, a few hundred
        # arguments in all, and integrates no end-to-end CDF
        ant = AntennaConfig(2, 2, 2)
        pw = PowerProfile.balanced(30.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        kernel = twrelay.lowerbound.link_cdf_pdf
        args = []

        def recording(u, m, n):
            args.append(u.copy())
            return kernel(u, m, n)

        def forbidden(*args, **kw):
            raise AssertionError("end-to-end CDF used")
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording)
        monkeypatch.setattr(twrelay.lowerbound, "e2e_cdf", forbidden)
        monkeypatch.setattr(twrelay.lowerbound, "_cdf_bounds", forbidden)
        d = _direction("arb", coeffs, ant, pw)
        est = twrelay.lowerbound.sum_ber([d, d], mod.a, mod.b, mod.bits_per_symbol)
        args = np.concatenate(args)
        assert args.size == est.link_args < 400
        assert np.unique(args).size == args.size
        # one grid over the two axes of the one distinct direction
        side = args.size // 2
        assert est.grid_points == side * side

    @pytest.mark.parametrize("dims, kernel_calls", [((2, 2, 2), 1), ((2, 1, 3), 2)])
    def test_one_kernel_call_and_grid_pass_per_direction(self, monkeypatch, dims, kernel_calls):
        # a direction that stops by the fourth level passes the link law all
        # nodes of that level at once (one call per link shape) and sums all
        # four levels in one pass over the grid
        ant = AntennaConfig(*dims)
        pw = power_profile(30.0, 0.5)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        kernel, level_sums = twrelay.lowerbound.link_cdf_pdf, twrelay.lowerbound._level_sums
        calls, passes = [], []

        def recording(u, m, n):
            calls.append((m, n))
            return kernel(u, m, n)

        def counting(*args):
            passes.append(args[-1])
            return level_sums(*args)
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording)
        monkeypatch.setattr(twrelay.lowerbound, "_level_sums", counting)
        d = _direction("arb", coeffs, ant, pw)
        twrelay.lowerbound.sum_ber([d], mod.a, mod.b, mod.bits_per_symbol)
        assert len(calls) == kernel_calls and passes == [twrelay.lowerbound._LEVELS]

    @pytest.mark.parametrize("dims, ref", [((2, 1, 2), 9.999943804600575e-01),
                                           ((4, 4, 4), 9.999859277218750e-01)])
    def test_low_snr_axes(self, dims, ref):
        # at -100 dB each deep fade lies far above its link law; each axis
        # then starts below its own upper end instead (263 169 grid points
        # when it started below the deep fade).  ref: the closed form at 40
        # digits (tests/mp_oracle.closed_form_mp)
        ant = AntennaConfig(*dims)
        pw = PowerProfile.balanced(-100.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        est = twrelay.lowerbound.sum_ber([_direction(d, coeffs, ant, pw) for d in ("arb", "bra")],
                                         mod.a, mod.b, mod.bits_per_symbol)
        assert est.grid_points <= 20000
        assert est.value == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("rho_db, ref", [(20.0, 3.0809171134038427e-01),
                                             (40.0, 1.1719727012787257e-02)])
    def test_4x4x4_second_four_slot_against_40_digits(self, rho_db, ref):
        # the closed form at 40 digits (tests/mp_oracle.closed_form_mp);
        # integrating CDF values gave 1.03e-13 and 2.0e-14 here with error
        # estimates of 1.2e-14 and 1.2e-15
        ant = AntennaConfig(4, 4, 4)
        pw = power_profile(rho_db, 0.1)
        p = Protocol.SECOND_FOUR_SLOT
        coeffs = coefficient_set(p, ant, pw, WeightPair.from_beta_squared(0.3),
                                 DFactors(1.7, 1.6, 1.8, 1.55))
        value = sum_ber_quadrature(coeffs, ant, pw, protocol_modulation(p))
        assert value == pytest.approx(ref, rel=3e-14, abs=0.0)

    @pytest.mark.parametrize("dims, protocol, rho_db, d0", [
        ((2, 1, 2), Protocol.TWO_SLOT, 20.0, 0.5),
        ((2, 1, 3), Protocol.FIRST_FOUR_SLOT, 30.0, 0.3),
        ((3, 3, 3), Protocol.TWO_SLOT, 20.0, 0.5),
    ])
    def test_matches_integral_of_the_cdfs(self, dims, protocol, rho_db, d0):
        # the sum-BER is also pref int 2 e^(-b t^2) (F_arb + F_bra)(t^2) dt
        # over the public end-to-end CDFs, pref = a sqrt(b) / (2 sqrt(pi)
        # log2 M); a trapezoid rule in ln t of step 0.05 (error about
        # e^(-2 pi (pi/4) / 0.05), far below 1e-10) from 15 e-folds below
        # the CDFs' rise to e^(-50) of the Gaussian weight
        ant = AntennaConfig(*dims)
        pw = power_profile(rho_db, d0)
        coeffs = coefficient_set(protocol, ant, pw)
        mod = protocol_modulation(protocol)
        x_rise = min(coeffs.a_arb * pw.rho_rb / coeffs.b_arb, coeffs.a_arb * pw.rho_ar / coeffs.c_arb,
                     coeffs.a_bra * pw.rho_ra / coeffs.b_bra, coeffs.a_bra * pw.rho_br / coeffs.c_bra)
        h = 0.05
        v = np.arange(0.5 * math.log(min(x_rise, 1.0 / mod.b)) - 15.0,
                      0.5 * math.log(50.0 / mod.b), h)
        t = np.exp(v)
        cdf = sum(e2e_cdf(d, t * t, coeffs, ant, pw) for d in ("arb", "bra"))
        pref = mod.a * math.sqrt(mod.b) / (2.0 * math.sqrt(math.pi) * mod.bits_per_symbol)
        by_cdf = pref * h * np.sum(2.0 * np.exp(-mod.b * t * t) * cdf * t)
        assert sum_ber_quadrature(coeffs, ant, pw, mod) == pytest.approx(by_cdf, rel=1e-10)

    @pytest.mark.parametrize("dims, rho_db, d0", [((2, 2, 2), 30.0, 0.5), ((2, 1, 3), 20.0, 0.3),
                                                  ((4, 3, 4), 30.0, 0.5)])
    def test_equal_directions_match_mirrored(self, dims, rho_db, d0):
        # mirror(d) swaps the links and B with C: the same law, integrated
        # by conditioning on the other link, and so twice
        ant = AntennaConfig(*dims)
        pw = power_profile(rho_db, d0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        d = _direction("arb", coeffs, ant, pw)
        mirror = Direction(d.far, d.src, d.a, d.c, d.b)
        once = twrelay.lowerbound.sum_ber([d, d], mod.a, mod.b, mod.bits_per_symbol)
        twice = twrelay.lowerbound.sum_ber([d, mirror], mod.a, mod.b, mod.bits_per_symbol)
        assert once.value == pytest.approx(twice.value, rel=2 * REL_TOL, abs=0.0)


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
        # the double-precision assembly above the fallback threshold
        pw = PowerProfile.balanced(20.0)
        for ant in (ANT, AntennaConfig(2, 2, 2)):
            coeffs = coefficient_set(Protocol.FIRST_FOUR_SLOT, ant, pw)
            mod = protocol_modulation(Protocol.FIRST_FOUR_SLOT)
            f64 = _closed_form_f64(coeffs, ant, pw, mod)
            assert f64 == pytest.approx(closed_form_mp(coeffs, ant, pw, mod, dps=40), rel=1e-9)

    def test_lower_bounds_simulation(self):
        p = Protocol.SECOND_THREE_SLOT
        mod = protocol_modulation(p)
        pw = PowerProfile.balanced(22.0)
        coeffs = coefficient_set(p, ANT, pw)
        closed = sum_ber_closed_form(coeffs, ANT, pw, mod)
        est = semi_analytic_sweep([SweepPoint(p, pw, mod=mod)], ANT, trials=300_000, seed=8,
                                  snr_form="exact")[0]
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

    # Below 1e-5 of the ceiling the closed form is rescued by the integral.
    @pytest.mark.parametrize("dims,rho_db,protocol", [
        ((2, 2, 2), 30.0, Protocol.TWO_SLOT),
        ((2, 2, 2), 60.0, Protocol.TWO_SLOT),
        ((3, 3, 3), 20.0, Protocol.FIRST_FOUR_SLOT),
        ((4, 4, 4), 30.0, Protocol.FIRST_FOUR_SLOT),
        ((4, 4, 4), 60.0, Protocol.FIRST_FOUR_SLOT),
        ((4, 3, 4), 30.0, Protocol.TWO_SLOT),
    ])
    def test_rescue_precision_is_sufficient(self, dims, rho_db, protocol):
        # against the closed form at 100 digits: the stored value where
        # tests/mp_oracle.py keeps the point, else computed here
        ant = AntennaConfig(*dims)
        pw = PowerProfile.balanced(rho_db)
        coeffs = coefficient_set(protocol, ant, pw)
        mod = protocol_modulation(protocol)
        stored = json.loads(ORACLE_FILE.read_text())
        key = oracle_key(dims, rho_db, protocol.value)
        ref = (stored[key] if key in stored
               else closed_form_mp(coeffs, ant, pw, mod, dps=ORACLE_DPS))
        assert sum_ber_closed_form(coeffs, ant, pw, mod) == pytest.approx(ref, rel=1e-12)

    def test_engine_matches_stored_oracle(self):
        # five protocols x {2x1x2, 2x2x2, 3x3x3} x {0, 20, 40, 60} dB and the
        # 4x4x4 / 4x3x4 points, against the closed form at 100 digits
        # (stored; see tests/mp_oracle.py)
        oracle = json.loads(ORACLE_FILE.read_text())
        for point in oracle_points():
            coeffs, ant, pw, mod = oracle_inputs(*point)
            ref = oracle[oracle_key(*point)]
            assert sum_ber_quadrature(coeffs, ant, pw, mod) == pytest.approx(ref, rel=1e-12), point
            closed = sum_ber_closed_form(coeffs, ant, pw, mod)
            below = ref <= 1e-5 * mod.a / mod.bits_per_symbol
            assert closed == pytest.approx(ref, rel=1e-12 if below else 1e-9), point

    @pytest.mark.parametrize("bad", [-1e-20, 0.0, 2.0])
    def test_rescue_raises_rather_than_return_impossible(self, monkeypatch, bad):
        # bad is in units of the ceiling a / log2 M
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        value = bad * mod.a / mod.bits_per_symbol
        monkeypatch.setattr(twrelay.lowerbound, "sum_ber",
                            lambda *args: Estimate(value, 0.0, 1, 1))
        with pytest.raises(NumericalError):
            sum_ber_closed_form(coeffs, ant, pw, mod)
        with pytest.raises(NumericalError):
            sum_ber_quadrature(coeffs, ant, pw, mod)

    def test_node_cap_raises(self, monkeypatch):
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        monkeypatch.setattr(twrelay.lowerbound, "MAX_INTERVALS", 32)
        with pytest.raises(NumericalError, match="sum-BER grid did not reach relative error "
                                                 "1e-13 within 32 trapezoid intervals per axis"):
            sum_ber_closed_form(coeffs, ant, pw, mod)
        with pytest.raises(NumericalError, match="end-to-end CDF did not reach relative error "
                                                 "1e-13 within 32 trapezoid intervals"):
            e2e_cdf("arb", pw.rho_ar, coeffs, ant, pw)

    def test_rescue_debug_record(self, caplog):
        # one record per integral: path, error estimate, grid points and
        # link-law arguments
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        value = sum_ber_closed_form(coeffs, ant, pw, mod)
        assert not caplog.records     # silent by default
        caplog.set_level(logging.DEBUG, logger="twrelay.analysis")
        sum_ber_closed_form(coeffs, ant, pw, mod)
        assert len(caplog.records) == 1
        msg = caplog.records[0].getMessage()
        assert f"closed form at or below {FALLBACK_SHARE:g} of the ceiling" in msg
        assert f"{value:.6e}" in msg and "error estimate" in msg
        points = int(msg.split(", ")[-2].split()[0])
        args = int(msg.split(", ")[-1].split()[0])
        assert msg.endswith(f"{points} grid points, {args} link-law arguments")
        assert 0 < args < 1000 and args < points
        assert not any(word in msg for word in ("outer", "inner", "settled"))
        err = float(msg.split("error estimate ")[1].split(",")[0])
        assert 0.0 <= err <= 1e-13 * value
        # above the threshold the closed form logs nothing
        pw = PowerProfile.balanced(10.0)
        sum_ber_closed_form(coefficient_set(Protocol.TWO_SLOT, ant, pw), ant, pw, mod)
        assert len(caplog.records) == 1

    def test_no_mpmath_at_run_time(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "mpmath", None)
        with pytest.raises(ImportError):
            import mpmath  # noqa: F401
        pw = PowerProfile.balanced(60.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        assert 0.0 < sum_ber_closed_form(coeffs, ant, pw, mod) < 1e-20
        assert 0.0 < sum_ber_quadrature(coeffs, ant, pw, mod) < 1e-20
        assert 0.0 < e2e_cdf("arb", pw.rho_ar, coeffs, ant, pw) < 1.0

    def test_tables_serve_only_the_closed_form(self, monkeypatch):
        # the exact Wishart expansion feeds the paper's closed form alone;
        # the link laws, the integrals and the high-SNR weights come from
        # the determinant form in floating point or its Cauchy coefficient
        ant = AntennaConfig(2, 2, 2)
        pw = PowerProfile.balanced(20.0)
        dfactors = DFactors(1.6, 1.6, 1.7, 1.7)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)

        def values():
            return (eta_pair(coeffs, ant, pw),
                    gap_table(ant, pw, dfactors=dfactors),
                    min_pair_cdf("arb", 0.3 * pw.rho_ar, coeffs, ant, pw),
                    e2e_cdf("arb", 0.3 * pw.rho_ar, coeffs, ant, pw),
                    sum_ber_quadrature(coeffs, ant, pw, mod))

        before = values()

        def no_tables(*args):
            raise AssertionError("eigenvalue table read")

        for name, module in list(sys.modules.items()):
            if name.startswith("twrelay") and hasattr(module, "ccdf_expansion"):
                monkeypatch.setattr(module, "ccdf_expansion", no_tables)
        assert values() == before
        twrelay.analysis._moment_groups.cache_clear()
        with pytest.raises(AssertionError, match="eigenvalue table read"):
            sum_ber_closed_form(coeffs, ant, pw, mod)

    def test_dimension_contract(self):
        # require_analytic states the rule on the antenna counts, and
        # _direction, which every closed-form call passes first, applies it
        pw = PowerProfile.balanced(10.0)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        big = AntennaConfig(5, 2, 5)
        with pytest.raises(UnsupportedConfigError):
            require_analytic(big)
        with pytest.raises(UnsupportedConfigError):
            sum_ber_closed_form(coefficient_set(Protocol.TWO_SLOT, big, pw), big, pw, mod)
        swapped = AntennaConfig(1, 2, 2)
        with pytest.raises(ConfigurationError, match="swap"):
            require_analytic(swapped)
        with pytest.raises(ConfigurationError, match="swap"):
            sum_ber_closed_form(coefficient_set(Protocol.TWO_SLOT, swapped, pw), swapped, pw, mod)
        require_analytic(AntennaConfig(4, 4, 4))

    def test_exact_tables_rescue_4x3x4(self):
        # the unbalanced array at 30 dB, 2e-28 of the ceiling, sits just below
        # its high-SNR asymptote
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
        assert np.array_equal(min_pair_cdf("arb", grid, coeffs, ANT, pw), vals)
        # non-negative and the law of the minimum of the two independent
        # links, 1 - (1 - F_s)(1 - F_f), with 60-digit link CDFs; the
        # termwise table sum gave -2e-17 at 3x3x3 where the value is 1e-31
        for dims in ((2, 1, 2), (2, 2, 2), (3, 3, 3), (4, 3, 4), (4, 4, 4)):
            ant = AntennaConfig(*dims)
            coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
            for x in np.geomspace(1e-3 * pw.rho_ar, 30 * pw.rho_ar, 13):
                got = min_pair_cdf("arb", float(x), coeffs, ant, pw)
                f_s = link_cdf_pdf_mp(x / (coeffs.b_arb * pw.rho_ar), ant.m_a, ant.m_r)[0]
                f_f = link_cdf_pdf_mp(x / (coeffs.c_arb * pw.rho_rb), ant.m_b, ant.m_r)[0]
                assert got >= 0.0
                assert got == pytest.approx(f_s + f_f * (1.0 - f_s), rel=1e-12), (dims, x)


def test_scalar_results_are_builtin_floats():
    # every scalar public result is a built-in float, not a numpy scalar,
    # whose repr would not read back as a number
    ant = AntennaConfig(2, 2, 2)
    mod = protocol_modulation(Protocol.TWO_SLOT)
    values = {}
    for rho_db in (10.0, 40.0):     # the closed form above and below FALLBACK_SHARE
        pw = PowerProfile.balanced(rho_db)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        values[f"sum_ber_quadrature {rho_db}"] = sum_ber_quadrature(coeffs, ant, pw, mod)
        values[f"sum_ber_closed_form {rho_db}"] = sum_ber_closed_form(coeffs, ant, pw, mod)
        for x in (0.0, 0.3 * pw.rho_ar, math.inf):
            values[f"e2e_cdf {rho_db} {x}"] = e2e_cdf("arb", x, coeffs, ant, pw)
            values[f"min_pair_cdf {rho_db} {x}"] = min_pair_cdf("arb", x, coeffs, ant, pw)
        values[f"high_snr_sum_ber {rho_db}"] = high_snr_sum_ber(
            high_snr_profile(Protocol.TWO_SLOT, ant, pw), pw.rho_ar)
    for x in (0.0, 2.5, math.inf):
        values[f"link_cdf {x}"] = link_cdf(x, 2, 2, 1.5)
        values[f"link_pdf {x}"] = link_pdf(x, 2, 2, 1.5)
    values["bessel_moment"] = bessel_moment(3.5, 2, 2.0, 1.0)
    assert {name: type(v) for name, v in values.items() if type(v) is not float} == {}
