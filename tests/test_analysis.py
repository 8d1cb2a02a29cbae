"""Distribution and sum-BER analysis: link laws, end-to-end CDF reduction
and construction, the integral/closed-form pair against the mpmath oracle,
the integration engine's error control, and the absence of mpmath at run
time."""

import json
import logging
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc

import twrelay.lowerbound
from mp_oracle import (ORACLE_DPS, ORACLE_FILE, closed_form_mp, e2e_cdf_mp, link_cdf_pdf_mp,
                       oracle_inputs, oracle_key, oracle_points)
from twrelay.analysis import (_closed_form_f64, _direction, _directions, _ln_bessel_moment,
                              e2e_cdf, require_analytic, sum_ber_quadrature)
from twrelay.errors import ConfigurationError, NumericalError, UnsupportedConfigError
from twrelay.highsnr import eta_pair, gap_table, high_snr_profile, high_snr_sum_ber
from twrelay.lowerbound import (REL_ROUNDING, REL_TOL, Direction, Estimate, Link, _sum_ber_bound,
                                link_cdf_pdf, link_laws)
from twrelay.scenario import (AntennaConfig, BALANCED_WEIGHTS, DFactors, PowerProfile,
                              Protocol, WeightPair, coefficient_set, modulation_constants,
                              power_profile, protocol_modulation)
from twrelay.simulate import SweepPoint, semi_analytic_sweep
from twrelay.validate import check_ks_suite, single_antenna_e2e_cdf

ANT = AntennaConfig(2, 1, 2)
# the worst relative error of the link kernel against 60-digit references
# on test_determinant_form_matches_mpmath's grid, measured per shape, is
# 1.21e-13 at (4, 4) (u = 4.99, just above the switch to the monomial Gram
# matrix), 5.7e-15 at (4, 3) and at most 2.5e-15 elsewhere; each tolerance
# is at most 3 times its shape's figure
KERNEL_REL = {(2, 2): 6e-15, (3, 3): 7e-15, (4, 3): 1.5e-14, (4, 4): 3e-13, (2, 1): 6e-15,
              (4, 1): 5e-15}


def _law(x: float, m: int, n: int, rho: float) -> tuple:
    """(CDF, density) of rho times the largest eigenvalue of an m x n
    Wishart channel at x, from one kernel call."""
    cdf, pdf = link_cdf_pdf(np.array([x / rho]), m, n)
    return float(cdf[0]), float(pdf[0]) / rho


def _link_bounds(xs, d: Direction):
    """(L, U) with L <= F(x) <= U for the end-to-end CDF of d: gamma <= x
    holds where lambda_f <= k_f x or lambda_s <= k_s x, and requires
    lambda_f <= 2 k_f x or lambda_s <= 2 k_s x, so
    L = max(F_f(k_f x), F_s(k_s x)) and U = min(1, F_f(2 k_f x) + F_s(2 k_s x))."""
    f_s, f_s2 = (link_cdf_pdf(k * d.k_s * xs, d.src.m, d.src.n)[0] for k in (1.0, 2.0))
    f_f, f_f2 = (link_cdf_pdf(k * d.k_f * xs, d.far.m, d.far.n)[0] for k in (1.0, 2.0))
    return np.maximum(f_f, f_s), np.minimum(1.0, f_f2 + f_s2)


class TestLinkLaws:
    def test_cdf_at_zero(self):
        assert _law(0.0, 2, 1, 5.0)[0] == 0.0

    def test_erlang_two(self):
        assert _law(1.0, 2, 1, 1.0)[0] == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12)
        assert _law(1.0, 2, 1, 1.0)[0] == pytest.approx(0.26424, abs=5e-6)

    def test_exponential_density(self):
        assert _law(0.0, 1, 1, 2.0)[1] == pytest.approx(0.5, rel=1e-12)

    def test_pdf_is_cdf_derivative(self):
        for x in np.linspace(0.2, 8.0, 20):
            h = 1e-5 * max(1.0, x)
            num = (_law(x + h, 3, 2, 1.3)[0] - _law(x - h, 3, 2, 1.3)[0]) / (2 * h)
            assert _law(float(x), 3, 2, 1.3)[1] == pytest.approx(num, abs=1e-6)

    def test_pdf_normalization(self):
        val, _ = integrate.quad(lambda x: _law(x, 3, 2, 1.0)[1], 0.0, 80.0,
                                epsabs=1e-12, epsrel=1e-10, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 3), (4, 4), (2, 1), (4, 1)])
    def test_determinant_form_matches_mpmath(self, dims):
        # 60-digit determinant of lower incomplete gammas and its Jacobi
        # derivative, over the grid in one call
        rel = KERNEL_REL[dims]
        grid = np.geomspace(1e-6, 30.0, 49)
        cdf, pdf = twrelay.lowerbound.link_cdf_pdf(grid, *dims)
        for k, u in enumerate(grid):
            ref_cdf, ref_pdf = link_cdf_pdf_mp(float(u), *dims)
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

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (4, 1), (1, 3), (3, 2), (3, 3), (4, 3),
                                      (4, 4)])
    def test_edge_layouts(self, dims):
        # no argument gives two empty arrays; a 2-d array keeps its shape
        # and the values of its raveled call; NaN gives NaN without a
        # warning, alone and among arguments on both sides of the switch
        for cdf, pdf in (link_cdf_pdf(np.array([]), *dims), link_cdf_pdf([], *dims)):
            assert cdf.shape == pdf.shape == (0,)
        u = np.geomspace(1e-3, 50.0, 12).reshape(3, 4)
        cdf, pdf = link_cdf_pdf(u, *dims)
        flat = link_cdf_pdf(u.ravel(), *dims)
        assert cdf.shape == pdf.shape == (3, 4)
        assert np.array_equal(cdf.ravel(), flat[0]) and np.array_equal(pdf.ravel(), flat[1])
        u = np.array([0.5, math.nan, 30.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lone = link_cdf_pdf(u[1:2], *dims)
            cdf, pdf = link_cdf_pdf(u, *dims)
        assert np.isnan(lone).all() and np.isnan(cdf[1]) and np.isnan(pdf[1])
        finite = link_cdf_pdf(u[[0, 2]], *dims)
        assert np.array_equal(cdf[[0, 2]], finite[0]) and np.array_equal(pdf[[0, 2]], finite[1])

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (4, 1), (1, 3), (3, 2), (3, 3), (4, 3),
                                      (4, 4)])
    def test_one_sided_batches_independent_of_batch(self, dims):
        # a call longer than a quadrature block with every argument below
        # the basis switch (u = 1 up to 2 x 2, u = 4 beyond), from 0, or
        # every one above it, up to inf, gives each argument the bits of a
        # call of its own
        limit = 1.0 if min(dims) <= 2 else 4.0
        size = twrelay.lowerbound._BLOCK + 5
        below = np.geomspace(1e-6, limit, size, endpoint=False)
        below[0] = 0.0
        above = np.geomspace(limit, 1e3, size)
        above[-1] = math.inf
        for u in (below, above):
            cdf, pdf = link_cdf_pdf(u, *dims)
            single = [link_cdf_pdf(u[k:k + 1], *dims) for k in range(u.size)]
            assert np.array_equal(cdf, np.concatenate([f for f, _ in single]))
            assert np.array_equal(pdf, np.concatenate([f for _, f in single]))

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (2, 2), (4, 3), (4, 4)])
    def test_infinite_argument(self, dims):
        # F(inf) = 1 and f(inf) = 0, alone and among finite arguments, whose
        # values the infinite ones leave as they are
        assert [f.tolist() for f in link_cdf_pdf([math.inf], *dims)] == [[1.0], [0.0]]
        u = np.array([0.5, math.inf, 3.0, 30.0, math.inf])
        cdf, pdf = twrelay.lowerbound.link_cdf_pdf(u, *dims)
        assert np.array_equal(cdf[[1, 4]], [1.0, 1.0]) and np.array_equal(pdf[[1, 4]], [0.0, 0.0])
        finite = twrelay.lowerbound.link_cdf_pdf(u[[0, 2, 3]], *dims)
        assert np.array_equal(cdf[[0, 2, 3]], finite[0])
        assert np.array_equal(pdf[[0, 2, 3]], finite[1])

    @pytest.mark.parametrize("links, kernel_calls", [(((2, 2), (2, 2)), 1),
                                                     (((2, 1), (3, 1)), 2)])
    def test_two_links_share_a_call_by_shape(self, monkeypatch, links, kernel_calls):
        # each link's law at its own arguments, in their shape, bit for bit
        # what a call of its own gives; one kernel call for links of one shape
        src, far = (Link(m, n) for m, n in links)
        kernel = twrelay.lowerbound.link_cdf_pdf
        calls = []

        def recording(u, m, n):
            calls.append((m, n))
            return kernel(u, m, n)
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording)
        u = np.geomspace(1e-4, 40.0, 30)
        for u_src, u_far in ((u, u[::-1][:17]), (u.reshape(5, 6), np.stack([u, 2.0 * u]))):
            calls.clear()
            got = link_laws((src, far), (u_src, u_far))
            assert len(calls) == kernel_calls
            for (cdf, pdf), link, args in zip(got, (src, far), (u_src, u_far)):
                ref_cdf, ref_pdf = kernel(args, link.m, link.n)
                assert cdf.shape == pdf.shape == args.shape
                assert np.array_equal(cdf, ref_cdf) and np.array_equal(pdf, ref_pdf)


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

    @pytest.mark.parametrize("rho_db", [60.0, 0.0, -20.0])
    @pytest.mark.parametrize("dims", [(2, 1, 2), (4, 4, 4), (3, 2, 4)])
    def test_extreme_thresholds(self, dims, rho_db):
        # a subnormal and a tiny threshold give 0; thresholds far past both
        # links' saturation, up to the largest double, give 1 with no
        # overflow on the way (the suite turns RuntimeWarning into errors).
        # Unclamped, the source link's argument k_s x lambda_f / w would
        # overflow from x ~ 1e206 on at 60 dB, the far link's nodes
        # w ~ k_f x near x = 1.7e308 at 0 dB, and k_f x itself at -20 dB
        ant = AntennaConfig(*dims)
        pw = power_profile(rho_db, 0.3)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        xs = [1e-310, 1e-300, 1e200 * pw.rho_ar, 1e300, 1.7e308, math.inf]
        want = [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        assert [e2e_cdf("bra", x, coeffs, ant, pw) for x in xs] == want
        assert e2e_cdf("bra", np.array(xs), coeffs, ant, pw).tolist() == want

    def test_antenna_precondition_names_remedy(self):
        pw = PowerProfile.balanced(10.0)
        bad = AntennaConfig(1, 2, 2)
        coeffs = coefficient_set(Protocol.FIRST_FOUR_SLOT, bad, pw)
        with pytest.raises(ConfigurationError, match="swap"):
            e2e_cdf("arb", 1.0, coeffs, bad, pw)

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
        # the array form is the scalar form, element by element, bit for bit
        assert vals.tolist() == scalars
        for v in (np.array(scalars), vals):
            assert np.all((v >= 0.0) & (v <= 1.0))
            assert np.all(np.diff(v) >= 0.0)

    @pytest.mark.parametrize("rho_db", [20.0, 40.0])
    @pytest.mark.parametrize("dims", [(2, 1, 2), (2, 2, 2), (3, 3, 3), (4, 3, 4)])
    def test_link_bounds(self, dims, rho_db):
        # L <= F(x) <= U (_link_bounds), each value within its own error
        # estimate; the relay off the midpoint gives the two directions
        # different links
        ant = AntennaConfig(*dims)
        pw = power_profile(rho_db, 0.3)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        xs = np.geomspace(1e-4 * pw.rho_ar, 1e2 * pw.rho_ar, 61)
        for direction in ("arb", "bra"):
            d = _direction(direction, coeffs, ant, pw)
            values, errors, _ = twrelay.lowerbound.e2e_cdf(xs, *d)
            lower, upper = _link_bounds(xs, d)
            assert np.all(lower <= values + errors), direction
            assert np.all(values - errors <= upper), direction
            assert np.any(upper - lower > 0.1), direction

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 3, 4)])
    def test_settled_values_within_their_error(self, dims):
        # every threshold is integrated, also where the link bounds meet
        # (U == L) and fix the value: each value reports an error of at
        # least REL_ROUNDING of itself, and where the bounds meet it lies
        # within that error of them
        ant = AntennaConfig(*dims)
        pw = power_profile(20.0, 0.3)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        xs = np.geomspace(1e-4 * pw.rho_ar, 1e3 * pw.rho_ar, 61)
        d = _direction("arb", coeffs, ant, pw)
        values, errors, nodes = twrelay.lowerbound.e2e_cdf(xs, *d)
        lower, upper = _link_bounds(xs, d)
        meet = upper == lower
        assert meet.any() and nodes > 0
        assert np.all(errors >= REL_ROUNDING * values)
        assert np.all(np.abs(values[meet] - lower[meet]) <= errors[meet])

    @pytest.mark.parametrize("dims", [(2, 1, 2), (2, 2, 2), (3, 3, 3), (4, 3, 4)])
    def test_values_independent_of_batch(self, dims):
        # one call over thresholds from deep outage to saturation, more than
        # a chunk of them, gives each the value and error of a call of its
        # own, bit for bit, and the nodes of those calls summed; the relay
        # off the midpoint gives the two directions different links
        ant = AntennaConfig(*dims)
        for rho_db in (0.0, 40.0):
            pw = power_profile(rho_db, 0.3)
            coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
            xs = np.geomspace(1e-5 * pw.rho_ar, 1e3 * pw.rho_ar, 80)
            for direction in ("arb", "bra"):
                d = _direction(direction, coeffs, ant, pw)
                values, errors, nodes = twrelay.lowerbound.e2e_cdf(xs, *d)
                single = [twrelay.lowerbound.e2e_cdf(xs[k:k + 1], *d) for k in range(xs.size)]
                case = (rho_db, direction)
                assert np.array_equal(values, np.concatenate([v for v, _, _ in single])), case
                assert np.array_equal(errors, np.concatenate([e for _, e, _ in single])), case
                assert nodes == sum(n for _, _, n in single), case

    def test_infinite_nan_and_shaped_thresholds(self):
        # inf gives 1, NaN gives NaN, and an array of any shape gives that
        # shape with the values of the same thresholds in one flat call
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

    @pytest.mark.parametrize("protocol, direction, rho_db, d0, grid, index, ref", [
        (Protocol.FIRST_FOUR_SLOT, "arb", 30.0, 0.5, (1e-4, 50.0, 400), 223,
         7.631070257678407150923e-4),
        (Protocol.TWO_SLOT, "bra", 30.0, 0.5, (1e-3, 30.0, 1500), 238,
         9.862147108054826671617346e-10),
        (Protocol.TWO_SLOT, "arb", 0.0, 0.3, (1e-5, 1e3, 80), 25,
         2.63046775881563946818029777155e-11),
    ], ids=["first_four_slot-arb", "two_slot-bra", "two_slot-arb-0dB-d0.3"])
    def test_lone_and_batch_within_error(self, protocol, direction, rho_db, d0, grid, index,
                                         ref):
        # 2x2x2, one point of a threshold grid, against 40- and 30-digit
        # references (mp_oracle.e2e_cdf_mp).  Alone, the first two points
        # once stopped at the third level, 3.1e-13 and 2.9e-12 off with
        # estimates of 8.4e-15 and 2.3e-14; the third was 4.3e-13 off with
        # an estimate of 3.4e-14 in its batch, while 8e-16 off alone, when
        # a batch took its first step count from its narrowest integral
        ant, pw = AntennaConfig(2, 2, 2), power_profile(rho_db, d0)
        d = _direction(direction, coefficient_set(protocol, ant, pw), ant, pw)
        lo, hi, n = grid
        xs = np.geomspace(lo * pw.rho_ar, hi * pw.rho_ar, n)
        for batch, k in ((xs[index:index + 1], 0), (xs, index)):
            values, errors, _ = twrelay.lowerbound.e2e_cdf(batch, *d)
            assert abs(values[k] - ref) <= errors[k], batch.size

    @pytest.mark.parametrize("dims", [(2, 1, 3), (3, 2, 4)])
    def test_direction_mapping_at_unbalanced_powers(self, dims):
        # both directions against the construction integral written from the
        # raw (A, B, C) and link SNRs as the paper defines each direction:
        # A -> R -> B hears A at rho_ar and the relay at rho_rb, B -> R -> A
        # hears B at rho_br and the relay at rho_ra.  The relay off the
        # midpoint and at its own SNR makes every rho differ, so a swapped
        # rho, constant or antenna count in either direction shows.
        # 1 - F(x) = int (1 - F_s(x C g_f / w)) f_f(g_f) dw / A with
        # g_f = (w + B x) / A, breakpoints around the source link's
        # saturation near w = B C x^2 / (A rho_s)
        ant = AntennaConfig(*dims)
        pw = power_profile(20.0, 0.3, relay_rho_db=15.0)
        coeffs = coefficient_set(Protocol.FIRST_THREE_SLOT, ant, pw,
                                 WeightPair.from_beta_squared(0.3))
        paper = {"arb": (ant.m_a, pw.rho_ar, ant.m_b, pw.rho_rb,
                         coeffs.a_arb, coeffs.b_arb, coeffs.c_arb),
                 "bra": (ant.m_b, pw.rho_br, ant.m_a, pw.rho_ra,
                         coeffs.a_bra, coeffs.b_bra, coeffs.c_bra)}
        for direction, (m_s, rho_s, m_f, rho_f, a, b, c) in paper.items():
            for x in pw.rho_ar * np.array([0.003, 0.01, 0.03, 0.1, 0.3, 1.0]):
                def integrand(w):
                    g_f = (w + b * x) / a
                    return ((1.0 - _law(x * c * g_f / w, m_s, ant.m_r, rho_s)[0])
                            * _law(g_f, m_f, ant.m_r, rho_f)[1] / a)
                upper = 100.0 * a * rho_f + 10.0 * b * x
                w_sat = b * c * x * x / (a * rho_s)
                points = [w_sat * 10.0 ** k for k in (-4, -2, 0, 2, 4) if w_sat * 10.0 ** k < upper]
                tail, _ = integrate.quad(integrand, 0.0, upper, points=points,
                                         epsabs=1e-12, epsrel=1e-10, limit=400)
                got = e2e_cdf(direction, float(x), coeffs, ant, pw)
                assert got == pytest.approx(1.0 - tail, rel=0.0, abs=1e-9), (direction, x)

    def test_mp_oracle_matches_single_antenna_form(self):
        # the quadrature oracle over the link laws' exact expansions against
        # the Bessel-K sum of one relay antenna, both directions
        ant, pw = AntennaConfig(2, 1, 2), power_profile(20.0, 0.3)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        for direction in ("arb", "bra"):
            d = _direction(direction, coeffs, ant, pw)
            for r in (0.01, 0.3, 3.0):
                x = r * pw.rho_ar
                ref = single_antenna_e2e_cdf(direction, x, coeffs, ant, pw)
                assert float(e2e_cdf_mp(d, x, 20)) == pytest.approx(ref, rel=1e-12), (direction, r)

    def test_one_kernel_batch_per_scalar_call(self, monkeypatch):
        # the benchmark's outage curve: every inner integral stops by its
        # fourth level, whose nodes, with those of the three coarser levels,
        # go to the link law in one call, whose far-link arguments end with
        # k_f x for F_f(k_f x)
        ant = AntennaConfig(2, 2, 2)
        pw = power_profile(20.0, 0.5)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        d = _direction("arb", coeffs, ant, pw)
        kernel = twrelay.lowerbound.link_cdf_pdf
        calls = []

        def recording(u, m, n):
            calls.append(np.array(u))
            return kernel(u, m, n)
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording)
        for r in 10.0 ** (-3.0 + np.arange(25) / 6.0):
            x = r * pw.rho_ar
            calls.clear()
            twrelay.lowerbound.e2e_cdf(np.array([x]), *d)
            assert len(calls) == 1 and calls[0][-1] == d.k_f * x, r

    def test_far_link_cdf_in_the_first_kernel_call(self, monkeypatch):
        # an array call takes F_f(k_f x) of each chunk's live thresholds (not
        # 0, negative, inf or NaN) from the chunk's first kernel call, after
        # its rows' far-link nodes; no kernel call is on the far link alone
        ant = AntennaConfig(4, 3, 4)
        pw = power_profile(20.0, 0.3)
        d = _direction("bra", coefficient_set(Protocol.TWO_SLOT, ant, pw), ant, pw)
        kernel = twrelay.lowerbound.link_cdf_pdf
        laws, kernel_sizes = [], []

        def recording_laws(links, args):
            laws.append(tuple(np.array(u) for u in args))
            return link_laws(links, args)

        def recording_kernel(u, m, n):
            kernel_sizes.append(np.size(u))
            return kernel(u, m, n)
        monkeypatch.setattr(twrelay.lowerbound, "link_laws", recording_laws)
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording_kernel)
        xs = pw.rho_ar * np.geomspace(1e-5, 1e3, 200)
        xs[[3, 50, 120, 199]] = [0.0, -1.0, math.inf, math.nan]
        twrelay.lowerbound.e2e_cdf(xs, *d)
        live = np.isfinite(xs) & (xs > 0.0)
        # both links have one shape: one kernel call per link-law call
        assert d.src == d.far
        assert kernel_sizes == [u_s.size + u_f.size for u_s, u_f in laws]
        tails = []
        for u_s, u_f in laws:
            if u_f.shape == u_s.shape:
                continue
            # a chunk's first call: each row's far nodes w + k_f x, then k_f x
            rows = u_s.shape[0]
            assert u_f.size == u_s.size + rows
            tail, nodes = u_f[u_s.size:], u_f[:u_s.size].reshape(u_s.shape)
            assert np.all(nodes >= tail[:, None]) and np.all(nodes[:, -1] > tail)
            tails.append(tail)
        assert laws[0][1].shape != laws[0][0].shape
        assert np.array_equal(np.sort(np.concatenate(tails)), np.sort(d.k_f * xs[live]))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 3, 4)])
    def test_inner_nodes_on_the_ladder(self, monkeypatch, dims):
        # every inner integral's first pass is the ladder's fourth level from a
        # coarse step of 1.2: the far-link nodes w + k_f x have ln w = v0 + s -
        # e^(-s) at s = _LO + 0.15 i, i = 0 ... 8 n, with n = ceil(width / 1.2)
        # coarse intervals over its width in s, alone and in a batch
        lb = twrelay.lowerbound
        ant = AntennaConfig(*dims)
        pw = power_profile(20.0, 0.5)
        d = _direction("arb", coefficient_set(Protocol.TWO_SLOT, ant, pw), ant, pw)
        first_calls = []

        def recording(links, args):
            u_src, u_far = args
            # a chunk's first call: each row's far nodes, then the rows' k_f x
            if u_far.size > u_src.size:
                first_calls.append((u_src.shape, np.array(u_far)))
            return link_laws(links, args)
        monkeypatch.setattr(lb, "link_laws", recording)
        for xs in (pw.rho_ar * np.array([0.1]), pw.rho_ar * np.geomspace(1e-5, 1e3, 40)):
            first_calls.clear()
            lb.e2e_cdf(xs, *d)
            seen = []
            for (rows, count), u_far in first_calls:
                nodes = u_far[:rows * count].reshape(rows, count)
                for far_nodes, tail in zip(nodes, u_far[rows * count:]):
                    (i,) = np.flatnonzero(d.k_f * xs == tail)
                    x = xs[i]
                    v1 = math.log(lb._FAR_SPAN + d.k_f * x)
                    v0 = min(max(2.0 * math.log(x) + math.log(d.k_s * d.k_f) - lb._INNER_SHIFT,
                                 -650.0), v1)
                    n = math.ceil((v1 - v0 + 1.0 - lb._LO) / 1.2)
                    s = lb._LO + 0.15 * np.arange(8 * n + 1)
                    assert count == 8 * n + 1, (dims, x)
                    np.testing.assert_allclose(far_nodes, np.exp(v0 + s - np.exp(-s)) + tail,
                                               rtol=1e-13, atol=0.0)
                    seen.append(i)
            assert sorted(seen) == list(range(xs.size))

    def test_benchmark_curves_node_count(self):
        # the cost of the benchmark's outage curves: 75 lone thresholds,
        # r = 10^(-3 + k/6) of rho_ar, at 2x1x2, 2x2x2 and 3x3x3
        nodes = 0
        for dims in ((2, 1, 2), (2, 2, 2), (3, 3, 3)):
            ant = AntennaConfig(*dims)
            pw = power_profile(20.0, 0.5)
            d = _direction("arb", coefficient_set(Protocol.TWO_SLOT, ant, pw), ant, pw)
            for k in range(25):
                x = np.array([10.0 ** (-3.0 + k / 6.0) * pw.rho_ar])
                nodes += twrelay.lowerbound.e2e_cdf(x, *d)[2]
        assert nodes == 16731

    @pytest.mark.parametrize("cap, status", [
        (207, ""),
        (208, " (estimate 5.2e-28 at values up to 1.000591e-15)"),
    ], ids=["first-pass", "refinement"])
    def test_interval_cap(self, monkeypatch, cap, status):
        # at 4x4x4 the threshold x = 10^(-2/3) rho_ar takes 26 coarse
        # intervals, 208 in its first pass, and refines once: a cap below the
        # first pass raises as its ladder is built, one at it on the
        # refinement, with the last estimate; twice that cap lets it settle
        ant = AntennaConfig(4, 4, 4)
        pw = power_profile(30.0, 0.5)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        x = 10.0 ** (-2.0 / 3.0) * pw.rho_ar
        settled = e2e_cdf("arb", x, coeffs, ant, pw)
        monkeypatch.setattr(twrelay.lowerbound, "MAX_INTERVALS", cap)
        with pytest.raises(NumericalError) as info:
            e2e_cdf("arb", x, coeffs, ant, pw)
        assert str(info.value) == ("end-to-end CDF did not reach relative error 1e-13 within "
                                   f"{cap} trapezoid intervals{status}")
        monkeypatch.setattr(twrelay.lowerbound, "MAX_INTERVALS", 416)
        assert e2e_cdf("arb", x, coeffs, ant, pw) == settled


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
        # arguments in all, and integrates no end-to-end CDF; links of two
        # shapes give axes of two lengths and an n_s x n_f grid
        ant = AntennaConfig(2, 2, 3)
        pw = PowerProfile.balanced(20.0)
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
        d = _direction("arb", coeffs, ant, pw)
        est = twrelay.lowerbound.sum_ber([d, d], mod.a, mod.b, mod.bits_per_symbol)
        # one grid over the two axes of the one distinct direction
        n_s, n_f = (u.size for u in args)
        assert n_s != n_f and est.grid_points == n_s * n_f
        args = np.concatenate(args)
        assert args.size == est.link_args < 400
        assert np.unique(args).size == args.size

    @pytest.mark.parametrize("dims, kernel_calls", [((2, 2, 2), 1), ((2, 1, 3), 2)])
    def test_one_kernel_call_and_grid_pass_per_direction(self, monkeypatch, dims, kernel_calls):
        # a direction that stops at the first pass's level passes the link
        # law all nodes of that level at once (one call per link shape) and
        # reads its three levels' sums in one pass over the grid
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
            passes.append(args)
            return level_sums(*args)
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording)
        monkeypatch.setattr(twrelay.lowerbound, "_level_sums", counting)
        d = _direction("arb", coeffs, ant, pw)
        twrelay.lowerbound.sum_ber([d], mod.a, mod.b, mod.bits_per_symbol)
        assert len(calls) == kernel_calls and len(passes) == 1

    @pytest.mark.parametrize("levels", [1, 2])
    def test_levels_set_cost_not_numbers(self, monkeypatch, levels):
        # two integrals that stop at the fifth level: a sum-BER grid (546
        # link arguments) and an end-to-end CDF.  With
        # _LEVELS = 5 the first pass evaluates that level at once; with
        # `levels` fewer, each integral refines `levels` times after its
        # first pass, one kernel call more each time, and reads its three
        # sums off the same nodes, so it returns the same numbers
        ant, pw = AntennaConfig(4, 4, 4), power_profile(20.0, 0.5)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        d = _direction("arb", coefficient_set(Protocol.TWO_SLOT, ant, pw), ant, pw)
        ant4, pw30 = AntennaConfig(4, 4, 4), power_profile(30.0, 0.5)
        d4 = _direction("arb", coefficient_set(Protocol.TWO_SLOT, ant4, pw30), ant4, pw30)
        xs = np.array([10.0 ** (-2.0 / 3.0) * pw30.rho_ar])
        kernel = twrelay.lowerbound.link_cdf_pdf
        calls = []

        def recording(u, m, n):
            calls.append(u.size)
            return kernel(u, m, n)
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", recording)

        def run(first_level):
            monkeypatch.setattr(twrelay.lowerbound, "_LEVELS", first_level)
            calls.clear()
            return (twrelay.lowerbound.sum_ber([d], mod.a, mod.b, mod.bits_per_symbol),
                    twrelay.lowerbound.e2e_cdf(xs, *d4), len(calls))
        ber5, cdf5, calls5 = run(5)
        assert ber5.link_args == 546
        ber, cdf, n_calls = run(5 - levels)
        assert ber == ber5 and n_calls == calls5 + 2 * levels
        for a, b in zip(cdf, cdf5):
            assert np.array_equal(a, b)
        # the stop rule reads sums at strides 4, 2 and 1 of the finest level
        with pytest.raises(ValueError, match="_LEVELS"):
            run(2)

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
        # mirror(d) swaps the links and their scales: the same law,
        # integrated by conditioning on the other link, and so twice
        ant = AntennaConfig(*dims)
        pw = power_profile(rho_db, d0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        d = _direction("arb", coeffs, ant, pw)
        mirror = Direction(d.far, d.src, d.k_f, d.k_s)
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


class TestSharedErfcKernel:
    """The sum-BER grid's erfc factor on the fixed step ladder depends only
    on the level and the node indices where both deep fades lie below their
    axes' tops (rho = 1), and is cached per level."""

    @staticmethod
    def _old_way(axes, k_s, k_f, b):
        # erfc(sqrt(b gamma)) from the eigenvalue nodes, as the grid formed
        # it before the kernel was shared
        lam_s, lam_f = (ax.at(np.arange(ax.n + 1))[0] for ax in axes)
        return erfc(np.sqrt(b / np.add.outer(k_s / lam_s, k_f / lam_f)))

    def test_kernel_is_universal(self, monkeypatch):
        # random link shapes up to 4x4, scales and every protocol's b, both
        # fades below their tops: the old formula at the axes' nodes matches
        # the cached entries within a few units in the last place of 1, the
        # kernel's top (it rounds b gamma afresh, which erfc's slope
        # amplifies: 1.5 eps at most over 200 such directions)
        lb = twrelay.lowerbound
        monkeypatch.setattr(lb, "_kernels", {})
        rng = np.random.default_rng(38)
        bs = sorted({protocol_modulation(p).b for p in Protocol})
        eps = np.finfo(float).eps
        for _ in range(12):
            src, far = (Link(*map(int, rng.integers(1, 5, size=2))) for _ in range(2))
            b = float(rng.choice(bs))
            k_s, k_f = (b * lb._trace_tail(link.m * link.n) * 10.0 ** -rng.uniform(0.1, 6.0)
                        for link in (src, far))
            axes = (lb._Axis(src, k_s / b), lb._Axis(far, k_f / b))
            assert axes[0].rho == axes[1].rho == 1.0 and axes[0].h == axes[1].h == 0.125
            old = self._old_way(axes, k_s, k_f, b)
            cached = lb._cached_kernel(axes[0].h, max(old.shape))[:old.shape[0], :old.shape[1]]
            assert np.max(np.abs(old - cached)) <= 4.0 * eps
        # the leading block of a larger matrix is a smaller one, bit for bit
        small = lb._cached_kernel(0.0625, 64).copy()
        large = lb._cached_kernel(0.0625, lb._KERNEL_NODES)
        assert small.shape == (64, 64) and large.shape[0] == lb._KERNEL_NODES
        assert np.array_equal(large[:64, :64], small)

    def test_cold_warm_and_uncached_agree(self, monkeypatch):
        # a sum-BER is the same bit for bit with a cold cache, a warm one
        # grown larger by an earlier call, and no cache at all (the kernel
        # evaluated per call by the same formula)
        lb = twrelay.lowerbound
        ant, pw = AntennaConfig(3, 2, 4), power_profile(10.0, 0.3)
        p = Protocol.FIRST_FOUR_SLOT
        coeffs = coefficient_set(p, ant, pw, BALANCED_WEIGHTS, DFactors(1.6, 1.6, 1.7, 1.7))
        mod = protocol_modulation(p)
        directions = _directions(coeffs, ant, pw)
        big = _directions(coefficient_set(Protocol.TWO_SLOT, AntennaConfig(4, 4, 4),
                                          power_profile(60.0, 0.5)),
                          AntennaConfig(4, 4, 4), power_profile(60.0, 0.5))

        def value():
            return lb.sum_ber(directions, mod.a, mod.b, mod.bits_per_symbol)
        monkeypatch.setattr(lb, "_kernels", {})
        cold = value()
        cold_nodes = len(lb._kernels[0.125])
        lb.sum_ber(big, 0.5, 0.5, 1.0)
        assert len(lb._kernels[0.125]) > cold_nodes
        warm = value()
        monkeypatch.setattr(lb, "_KERNEL_NODES", 0)
        uncached = value()
        assert cold == warm == uncached

    def test_link_law_and_factor_share_each_node(self):
        # 4x4x4 at 30 dB, where the value lies at b gamma of tens: a node
        # lambda = e^v would carry the rounding of v0 (about -8.7) into
        # every node that the cached factor does not see, which moved this
        # value 2.2e-14 off the closed form, twice its error estimate.
        # ref: the closed form at 100 digits (tests/mp_oracle.closed_form_mp)
        ant, pw = AntennaConfig(4, 4, 4), power_profile(30.0, 0.5)
        p = Protocol.SECOND_THREE_SLOT
        coeffs = coefficient_set(p, ant, pw, WeightPair.from_beta_squared(0.4),
                                 DFactors(1.6, 1.6, 1.7, 1.7))
        mod = protocol_modulation(p)
        est = twrelay.lowerbound.sum_ber(_directions(coeffs, ant, pw), mod.a, mod.b,
                                         mod.bits_per_symbol)
        assert abs(est.value - 3.0476088335409264e-30) <= est.error

    def test_low_snr_axes_evaluate_per_call(self, monkeypatch):
        # at -100 dB the deep fades lie above the tops (rho > 1): the same
        # formula at rho_s phi_s + rho_f phi_f matches the old way, and
        # nothing is cached
        lb = twrelay.lowerbound
        monkeypatch.setattr(lb, "_kernels", {})
        ant, pw = AntennaConfig(2, 2, 2), PowerProfile.balanced(-100.0)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        d = _direction("arb", coefficient_set(Protocol.TWO_SLOT, ant, pw), ant, pw)
        axes = (lb._Axis(d.src, d.k_s / mod.b), lb._Axis(d.far, d.k_f / mod.b))
        assert min(ax.rho for ax in axes) > 1e8
        per_call = lb._kernel(*(lb._phi(ax.h, np.arange(ax.n + 1), ax.rho) for ax in axes))
        old = self._old_way(axes, d.k_s, d.k_f, mod.b)
        assert np.max(np.abs(old - per_call)) <= 4.0 * np.finfo(float).eps
        lb.sum_ber([d], mod.a, mod.b, mod.bits_per_symbol)
        assert lb._kernels == {}


class TestBesselMoment:
    # the closed form's moments have mu = k + j + 3/2 <= 17.5 and nu <= 9 up
    # to 4x4x4; z = (alpha - beta)/(alpha + beta) approaches 1 as 1/rho
    @pytest.mark.parametrize("one_minus_z", [0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("nu", [0, 1, 4, 9, 17])
    def test_matches_mpmath(self, nu, one_minus_z):
        # all nine points in one hyp2f1 call, as the closed form's assembly
        # makes it
        z = 1.0 - one_minus_z
        points = [(mu, nu, alpha, alpha * (1.0 - z) / (1.0 + z))
                  for mu in (nu + 0.5, nu + 2.5, nu + 8.5) for alpha in (0.37, 1.0, 2.9)]
        for point, ln_moment in zip(points, _ln_bessel_moment(*zip(*points))):
            assert math.exp(ln_moment) == pytest.approx(float(_moment_oracle(*point)), rel=1e-12)


class TestSumBerClosedForm:
    # float.hex of the double-precision assembly's value: balanced two_slot
    # at 5 dB (equal directions), second_four_slot at 20 dB, d0 = 0.3, beta^2
    # = 0.4, DFactors(1.7, 1.6, 1.8, 1.55), and balanced two_slot at 20 dB,
    # cancelled to within 1e-6 (2x2x2) to 1e-13 of the ceiling, where a
    # change in the order of its floating-point operations moves the last
    # bits
    PINNED = {
        (2, 2, 2): ("0x1.849d6f6cc1c06p-4", "0x1.8bb74ab288fc0p-4", "0x1.889b340a17c8ap-20"),
        (3, 3, 3): ("0x1.15e71e6f9ceaep-6", "0x1.5c9f4d2f860ebp-5", "0x1.a46217b32ec00p-40"),
        (4, 3, 4): ("0x1.e06c84aa03454p-8", "0x1.d8b7d2a52eb35p-6", "-0x1.6be155dc1924ep-44"),
        (4, 4, 4): ("0x1.7b1511dab34aep-9", "0x1.353f480b32711p-6", "0x1.df32716b5ea1cp-42"),
    }

    @pytest.mark.parametrize("dims", sorted(PINNED))
    def test_assembly_bits_pinned(self, dims):
        ant = AntennaConfig(*dims)
        values = []
        for p, pw, w, dfactors in ((Protocol.TWO_SLOT, PowerProfile.balanced(5.0), None, None),
                                   (Protocol.SECOND_FOUR_SLOT, power_profile(20.0, 0.3),
                                    WeightPair.from_beta_squared(0.4), DFactors(1.7, 1.6, 1.8, 1.55)),
                                   (Protocol.TWO_SLOT, PowerProfile.balanced(20.0), None, None)):
            coeffs = coefficient_set(p, ant, pw, w, dfactors)
            values.append(_closed_form_f64(_directions(coeffs, ant, pw),
                                           protocol_modulation(p))[0])
        assert tuple(v.hex() for v in values) == self.PINNED[dims]

    def test_precision_paths_agree(self):
        # the double-precision assembly within its own rounding bound of the
        # closed form at 40 digits, where its value is kept (2x1x2 at 10 dB)
        # and where the bound sends it to the grid
        for ant, rho_db in ((ANT, 10.0), (ANT, 20.0), (AntennaConfig(2, 2, 2), 20.0)):
            pw = PowerProfile.balanced(rho_db)
            coeffs = coefficient_set(Protocol.FIRST_FOUR_SLOT, ant, pw)
            mod = protocol_modulation(Protocol.FIRST_FOUR_SLOT)
            f64, bound = _closed_form_f64(_directions(coeffs, ant, pw), mod)
            assert abs(f64 - closed_form_mp(coeffs, ant, pw, mod, dps=40)) <= bound

    def test_lower_bounds_simulation(self):
        p = Protocol.SECOND_THREE_SLOT
        mod = protocol_modulation(p)
        pw = PowerProfile.balanced(22.0)
        coeffs = coefficient_set(p, ANT, pw)
        lower = sum_ber_quadrature(coeffs, ANT, pw, mod)
        est = semi_analytic_sweep([SweepPoint(p, pw, mod=mod)], ANT, trials=300_000, seed=8,
                                  snr_form="exact")[0]
        assert lower <= est.mean + 3.0 * est.std_error

    def test_asymptote_consistency_at_high_snr(self):
        # the lower bound approaches the power-law asymptote
        pw = PowerProfile.balanced(60.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        lower = sum_ber_quadrature(coeffs, ANT, pw, mod)
        prof = high_snr_profile(Protocol.TWO_SLOT, ANT, pw)
        asym = high_snr_sum_ber(prof, pw.rho_ar)
        assert lower / asym == pytest.approx(1.0, abs=0.01)

    # where the closed form's rounding bound exceeds 1e-13 of its value the
    # integral still meets it
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
        assert sum_ber_quadrature(coeffs, ant, pw, mod) == pytest.approx(ref, rel=1e-12)

    def test_engine_matches_stored_oracle(self):
        # five protocols x {2x1x2, 2x2x2, 3x3x3} x {0, 20, 40, 60} dB and the
        # 4x4x4 / 4x3x4 points, against the closed form at 100 digits
        # (stored; see tests/mp_oracle.py): the integral within 1e-12, and
        # the double-precision assembly within its rounding bound plus 1e-12
        oracle = json.loads(ORACLE_FILE.read_text())
        for point in oracle_points():
            coeffs, ant, pw, mod = oracle_inputs(*point)
            ref = oracle[oracle_key(*point)]
            assert sum_ber_quadrature(coeffs, ant, pw, mod) == pytest.approx(ref, rel=1e-12), point
            closed, bound = _closed_form_f64(_directions(coeffs, ant, pw), mod)
            assert abs(closed - ref) <= bound + 1e-12 * ref, point

    def test_error_estimate_covers_stored_oracle(self):
        # the reported error bounds the distance to the 100-digit closed form
        # at every stored point: rounding, not the extrapolation, sets it there
        oracle = json.loads(ORACLE_FILE.read_text())
        for point in oracle_points():
            coeffs, ant, pw, mod = oracle_inputs(*point)
            directions = [_direction(d, coeffs, ant, pw) for d in ("arb", "bra")]
            est = twrelay.lowerbound.sum_ber(directions, mod.a, mod.b, mod.bits_per_symbol)
            assert abs(est.value - oracle[oracle_key(*point)]) <= est.error, point

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
            sum_ber_quadrature(coeffs, ant, pw, mod)

    def test_node_cap_raises(self, monkeypatch):
        pw = PowerProfile.balanced(30.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        monkeypatch.setattr(twrelay.lowerbound, "MAX_INTERVALS", 32)
        with pytest.raises(NumericalError, match="sum-BER grid did not reach relative error "
                                                 "1e-13 within 32 trapezoid intervals per axis"):
            sum_ber_quadrature(coeffs, ant, pw, mod)
        with pytest.raises(NumericalError, match="end-to-end CDF did not reach relative error "
                                                 "1e-13 within 32 trapezoid intervals"):
            e2e_cdf("arb", pw.rho_ar, coeffs, ant, pw)

    def test_bound_below_the_smallest_normal_double(self, monkeypatch):
        # a scale that underflows to 0 gives its link's term 0, and a bound
        # below the smallest normal double fails before any grid
        calls = []
        monkeypatch.setattr(twrelay.lowerbound, "link_cdf_pdf", lambda *args: calls.append(args))
        for k in (0.0, 5e-324, 1e-200):
            d = Direction(Link(2, 1), Link(2, 2), k, k)
            assert _sum_ber_bound([d, d], 3.0, 0.1, 2.0) == 0.0
            with pytest.raises(NumericalError, match="its bound from the link scales is 0.0"):
                twrelay.lowerbound.sum_ber([d, d], 3.0, 0.1, 2.0)
        assert calls == []

    def test_debug_record(self, caplog):
        # one record per integral: its value, error estimate, grid points
        # and link-law arguments
        pw = PowerProfile.balanced(10.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        value = sum_ber_quadrature(coeffs, ant, pw, mod)
        assert not caplog.records     # silent by default
        caplog.set_level(logging.DEBUG, logger="twrelay.analysis")
        sum_ber_quadrature(coeffs, ant, pw, mod)
        assert len(caplog.records) == 1
        msg = caplog.records[0].getMessage()
        assert msg.startswith(f"sum-BER by the lower-bound integral: {value:.6e}, error estimate ")
        points = int(msg.split(", ")[-2].split()[0])
        args = int(msg.split(", ")[-1].split()[0])
        assert msg.endswith(f"{points} grid points, {args} link-law arguments")
        assert 0 < args < 1000 and args < points
        assert not any(word in msg for word in ("outer", "inner", "settled"))
        err = float(msg.split("error estimate ")[1].split(",")[0])
        assert 0.0 <= err <= 1e-13 * value

    def test_no_mpmath_at_run_time(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "mpmath", None)
        with pytest.raises(ImportError):
            import mpmath  # noqa: F401
        pw = PowerProfile.balanced(60.0)
        ant = AntennaConfig(2, 2, 2)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        assert 0.0 < sum_ber_quadrature(coeffs, ant, pw, mod) < 1e-20
        assert 0.0 < e2e_cdf("arb", pw.rho_ar, coeffs, ant, pw) < 1.0

    def test_tables_serve_only_the_closed_form(self, monkeypatch):
        # the exact Wishart expansion feeds the paper's closed form alone;
        # the link laws, the integrals and the high-SNR weights come from
        # the determinant form in floating point or its Cauchy coefficient
        ant = AntennaConfig(2, 2, 2)
        pw = PowerProfile.balanced(10.0)
        dfactors = DFactors(1.6, 1.6, 1.7, 1.7)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)

        def values():
            return (eta_pair(coeffs, ant, pw),
                    gap_table(ant, pw, dfactors=dfactors),
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
            _closed_form_f64(_directions(coeffs, ant, pw), mod)

    def test_dimension_contract(self):
        # require_analytic states the rule on the antenna counts, and every
        # sum-BER call applies it
        pw = PowerProfile.balanced(10.0)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        big = AntennaConfig(5, 2, 5)
        with pytest.raises(UnsupportedConfigError):
            require_analytic(big)
        with pytest.raises(UnsupportedConfigError):
            sum_ber_quadrature(coefficient_set(Protocol.TWO_SLOT, big, pw), big, pw, mod)
        swapped = AntennaConfig(1, 2, 2)
        with pytest.raises(ConfigurationError, match="swap"):
            require_analytic(swapped)
        with pytest.raises(ConfigurationError, match="swap"):
            sum_ber_quadrature(coefficient_set(Protocol.TWO_SLOT, swapped, pw), swapped, pw, mod)
        require_analytic(AntennaConfig(4, 4, 4))

    def test_exact_tables_rescue_4x3x4(self):
        # the unbalanced array at 30 dB, 2e-28 of the ceiling, sits just below
        # its high-SNR asymptote
        ant = AntennaConfig(4, 3, 4)
        pw = PowerProfile.balanced(30.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        mod = protocol_modulation(Protocol.TWO_SLOT)
        lower = sum_ber_quadrature(coeffs, ant, pw, mod)
        asym = high_snr_sum_ber(high_snr_profile(Protocol.TWO_SLOT, ant, pw), pw.rho_ar)
        assert lower > 0.0
        assert 0.9 < lower / asym <= 1.0

    def test_supported_range(self):
        # a fixed subsample of the supported range: every protocol from -20
        # to 60 dB in steps of 20, at d0 = 0.1 and 0.9, with fixed weights
        # and d-factors.  The raw assembly is within its own bound plus the
        # grid's tolerance of the grid, and every value in (0, ceiling] and
        # not rising with SNR
        dfactors, weights = DFactors(1.6, 1.6, 1.7, 1.7), WeightPair.from_beta_squared(0.4)
        for dims in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 4), (4, 3, 4), (4, 4, 4)):
            ant = AntennaConfig(*dims)
            for p in Protocol:
                mod = protocol_modulation(p)
                for d0 in (0.1, 0.9):
                    previous = mod.ceiling
                    for rho_db in range(-20, 61, 20):
                        pw = power_profile(float(rho_db), d0)
                        coeffs = coefficient_set(p, ant, pw, weights if p.uses_weights else None,
                                                 dfactors if p.dual_reception and ant.m_r > 1
                                                 else None)
                        case = (dims, p.value, d0, rho_db)
                        grid = sum_ber_quadrature(coeffs, ant, pw, mod)
                        assert 0.0 < grid <= previous, case
                        previous = grid
                        directions = _directions(coeffs, ant, pw)
                        raw, bound = _closed_form_f64(directions, mod)
                        assert abs(raw - grid) <= bound + REL_TOL * grid, case
                        # the sum-BER's bound lies above the grid
                        upper = _sum_ber_bound(directions, mod.a, mod.b, mod.bits_per_symbol)
                        assert upper >= grid, case


class TestDistributionAgreement:
    def test_ks_suite(self):
        results = check_ks_suite(PowerProfile.balanced(30.0), trials=100_000, seed=21)
        for r in results:
            assert r.passed, r.line()


def test_scalar_results_are_builtin_floats():
    # every scalar public result is a built-in float, not a numpy scalar,
    # whose repr would not read back as a number
    ant = AntennaConfig(2, 2, 2)
    mod = protocol_modulation(Protocol.TWO_SLOT)
    values = {}
    for rho_db in (-10.0, 40.0):
        pw = PowerProfile.balanced(rho_db)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        values[f"sum_ber_quadrature {rho_db}"] = sum_ber_quadrature(coeffs, ant, pw, mod)
        for x in (0.0, 0.3 * pw.rho_ar, math.inf):
            values[f"e2e_cdf {rho_db} {x}"] = e2e_cdf("arb", x, coeffs, ant, pw)
        values[f"high_snr_sum_ber {rho_db}"] = high_snr_sum_ber(
            high_snr_profile(Protocol.TWO_SLOT, ant, pw), pw.rho_ar)
    assert {name: type(v) for name, v in values.items() if type(v) is not float} == {}
