"""Monte-Carlo engine: draw statistics and determinism, the tridiagonal
top-eigenpair kernel, the joint law of the link gains against a
channel-matrix oracle, per-realization SNR identities, estimator contracts
and sweep batching, and the dual-reception factors."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.special import digamma

from channel_oracle import channel_gains, tridiagonal_top_mp
from twrelay import simulate
from twrelay.analysis import MAX_TABLE_DIM, direction_scales
from twrelay.errors import ConfigurationError
from twrelay.lowerbound import ccdf_expansion, mean_largest_eigenvalue
from twrelay.scenario import (AntennaConfig, BALANCED_WEIGHTS, DFactors, PowerProfile,
                              Protocol, WeightPair, coefficient_set,
                              modulation_constants, power_profile)
from twrelay.simulate import (ChannelStream, LinkGains, SweepPoint, end_to_end_snrs,
                              estimate_d_factors, sample_end_to_end_snrs,
                              semi_analytic_sweep)

ANT = AntennaConfig(2, 1, 2)
PW = PowerProfile.balanced(20.0)
EPS = np.finfo(float).eps
GAINS = ("lam_a", "lam_b", "lam_a_x", "lam_b_x")


class TestDraws:
    def test_determinism(self):
        # a block's draws are a pure function of (seed, block index)
        for ant in (ANT, AntennaConfig(3, 3, 2)):
            a1, b1 = ChannelStream(42).draw_block(ant, 7)
            a2, b2 = ChannelStream(42).draw_block(ant, 7)
            assert np.array_equal(a1, a2)
            assert np.array_equal(b1, b2)
            a3, _ = ChannelStream(43).draw_block(ant, 7)
            assert not np.array_equal(a1, a3)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4), (2, 3, 4), (2, 4, 1), (2, 1, 2)])
    def test_stream_order(self, dims):
        # the A side's Gamma columns, then the B side's, in the order of
        # _variate_shapes, each filled over the whole block; a shape-0
        # column is zero and draws nothing.  m_r = 1: one Gamma(m) column
        # per side
        ant = AntennaConfig(*dims)
        stream = ChannelStream(12345)
        sides = stream.draw_block(ant, 3)
        rng = stream._rng(3)
        for side, m in zip(sides, (ant.m_a, ant.m_b)):
            ref = np.stack([rng.standard_gamma(s, simulate._BLOCK)
                            for s in simulate._variate_shapes(ant.m_r, m)], axis=1)
            assert side.shape == (simulate._BLOCK, 2 * min(ant.m_r, m + 1) - 1)
            assert side.tobytes() == ref.tobytes()

    def test_unit_variance(self):
        # unit-variance channel entries: B_ii^2 ~ Gamma(m - i) and
        # B_(i+1,i)^2 ~ Gamma(m_r - 1 - i), so each column's mean is its shape
        blocks = 64
        n = blocks * simulate._BLOCK
        for ant in (ANT, AntennaConfig(3, 2, 4)):
            stream = ChannelStream(7)
            means = sum(np.hstack(stream.draw_block(ant, b)).sum(axis=0) for b in range(blocks)) / n
            shapes = (simulate._variate_shapes(ant.m_r, ant.m_a)
                      + simulate._variate_shapes(ant.m_r, ant.m_b))
            assert len(means) == len(shapes)
            for mean, shape in zip(means, shapes):
                assert abs(mean - shape) <= 5.0 * math.sqrt(shape / n)

    def test_cross_independence(self):
        # the A side's and the B side's draws are uncorrelated
        blocks = [ChannelStream(9).draw_block(ANT, b) for b in range(64)]
        x, y = (np.concatenate([sides[k][:, 0] for sides in blocks]) for k in (0, 1))
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) < 0.005

    def test_single_relay_antenna_gains_pinned(self):
        # the m_r = 1 gains of the seed's stream, bit for bit; each cross
        # gain is the matched one
        digest = hashlib.sha256()
        blocks = list(simulate._gain_blocks(ANT, 20_000, 12345))
        for g in blocks:
            assert np.array_equal(g.lam_a_x, g.lam_a) and np.array_equal(g.lam_b_x, g.lam_b)
            for name in GAINS:
                digest.update(getattr(g, name).tobytes())
        assert digest.hexdigest() == "68ddb52c272ad0460cbaa7ed0466368960ed41eb5c62c71b66baf2155e2e6f6a"
        assert (blocks[0].lam_a[0], blocks[0].lam_b[0]) == (1.3917303609898535, 2.151803918403476)
        assert blocks[-1].lam_a[-1] == 3.5316897494957518


def _sides(ant, rows, seed=0):
    """The first rows of each side's squared bidiagonal entries, as
    _top_gains takes them."""
    return [s[:rows].T for s in ChannelStream(seed).draw_block(ant, 0)]


def _tridiagonal(g, m_r):
    """Diagonal and squared off-diagonal of the full m_r x m_r T of a side's
    squared bidiagonal entries g, zero past its leading block."""
    n = (len(g) + 1) // 2
    a = np.zeros((m_r, g.shape[1]))
    b2 = np.zeros((m_r - 1, g.shape[1]))
    a[:n] = g[:n]
    a[1:n] += g[n:]
    b2[:n - 1] = g[:n - 1] * g[n:]
    return a, b2


def _dense(a, b2):
    n = len(a)
    t = np.zeros((a.shape[1], n, n))
    t[:, range(n), range(n)] = a.T
    t[:, range(n - 1), range(1, n)] = t[:, range(1, n), range(n - 1)] = np.sqrt(b2).T
    return t


def _eigh_top(a, b2):
    """(lam, q2, rest) of each tridiagonal by LAPACK."""
    w, v = np.linalg.eigh(_dense(a, b2))
    first = v[:, 0, :] ** 2
    return w[:, -1], first[:, -1], np.sum(w[:, :-1] * first[:, :-1], axis=1) / np.sum(first[:, :-1], axis=1)


class TestTopEigenpair:
    @staticmethod
    def _check(g, m_r, rest_tol):
        # the draw's T against LAPACK on the full m_r x m_r T; where the full
        # T is reducible (m_r > m + 1), the kernel must also take it whole
        a, b2 = _tridiagonal(g, m_r)
        ref_lam, ref_q2, ref_rest = _eigh_top(a, b2)
        lam, t00, q2, rest = simulate._top_gains(g)
        assert np.array_equal(t00, a[0])
        results = [(lam, q2, rest)]
        if len(g) < 2 * m_r - 1:
            lam = simulate._top_eig(a, b2)
            results.append((lam, *simulate._top_weights(a, b2, lam)))
        for lam, q2, rest in results:
            assert np.max(np.abs(lam - ref_lam) / ref_lam) <= 4 * m_r * EPS
            assert np.max(np.abs(q2 - ref_q2)) <= 1e-14
            assert np.max(np.abs(rest - ref_rest) / ref_lam) <= rest_tol

    def test_closed_form_2x2_matches_eigh(self):
        # n = 2: two relay antennas, or one source antenna (a rank-1 T)
        for m_a, m_r in ((1, 2), (2, 2), (4, 2), (1, 4)):
            g = _sides(AntennaConfig(m_a, m_r, m_a), 4000, seed=m_a)[0]
            self._check(g, m_r, 4 * m_r * EPS)

    def test_closed_form_2x2_degenerate(self):
        # columns: d0, d1, e0 (T = [[d0, b], [b, d1 + e0]], b^2 = d0 e0)
        g = np.array([[0.0, 0.0, 0.0],        # zero matrix
                      [2.0, 2.0, 0.0],        # 2 I
                      [1.0, 4.0, 0.0],        # a0 < a1, b = 0
                      [4.0, 1.0, 0.0],        # a0 > a1, b = 0
                      [0.0, 3.0, 1.0],        # b = 0 through d0
                      [1.0, 0.0, 1.0],        # rank 1
                      [1e-200, 1.0, 1e-200]]).T
        lam, _, q2, rest = simulate._top_gains(g)
        a, b2 = _tridiagonal(g, 2)
        w = np.linalg.eigvalsh(_dense(a, b2))
        assert np.all(np.isfinite(lam)) and np.all(np.isfinite(q2)) and np.all(np.isfinite(rest))
        assert np.allclose(lam, w[:, -1], rtol=1e-15, atol=0.0)
        assert np.allclose(rest, w[:, 0], rtol=1e-15, atol=0.0)
        assert np.all((0.0 <= q2) & (q2 <= 1.0))
        assert list(q2[2:5]) == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("m_r", [3, 4, 5, 6])
    def test_top_gains_match_eigh(self, m_r):
        # source antennas below, at and above m_r
        for m in sorted({1, 2, m_r - 1, m_r, m_r + 1}):
            g = _sides(AntennaConfig(m, m_r, m), 4000, seed=10 * m_r + m)[0]
            self._check(g, m_r, 32 * EPS)

    def test_bisection_finishes_ties(self, monkeypatch):
        # Newton halves its distance to a double or nearly double top root
        # per step, so such rows reach the step cap and are bisected; the
        # random rows of a 4x4x4 block never are
        bisected = []
        bisect = simulate._bisect_top

        def counting_bisect(a, b2):
            bisected.append(a.shape[1])
            return bisect(a, b2)
        monkeypatch.setattr(simulate, "_bisect_top", counting_bisect)
        # Wilkinson's W21+, whose top pair agrees to 7e-14, and two equal
        # blocks [[2, 1], [1, 2]], a double top root 3
        for a, b2 in ((np.abs(np.arange(21.0) - 10.0), np.ones(20)),
                      (np.full(4, 2.0), np.array([1.0, 0.0, 1.0]))):
            bisected.clear()
            lam = simulate._top_eig(a[:, None], b2[:, None])
            assert bisected == [1]
            ref = np.linalg.eigvalsh(_dense(a[:, None], b2[:, None]))[0, -1]
            assert abs(lam[0] - ref) <= 4 * len(a) * EPS * ref
        bisected.clear()
        for g in _sides(AntennaConfig(4, 4, 4), simulate._BLOCK, seed=3):
            simulate._top_gains(g)
        assert bisected == []

    @pytest.mark.parametrize("m", [3, 4])
    def test_guarded_kernel_degenerate(self, m, monkeypatch):
        # decoupled tridiagonals: a zero or scalar T stops Newton at once
        # (p' vanishes at the Samuelson bound, which is exact), a double top
        # root is bisected; the top root of one source antenna's rank-1 T
        # is simple and needs no bisection, in the closed form or whole
        bisected = []
        bisect = simulate._bisect_top

        def counting_bisect(a, b2):
            bisected.append(a.shape[1])
            return bisect(a, b2)
        monkeypatch.setattr(simulate, "_bisect_top", counting_bisect)
        a = np.array([np.zeros(m), np.full(m, 2.0), np.array([5.0, 5.0, 1.0, 0.0][:m])]).T
        b2 = np.zeros((m - 1, 3))
        lam = simulate._top_eig(a, b2)
        assert bisected == [1]
        assert list(lam[:2]) == [0.0, 2.0]
        assert abs(lam[2] - 5.0) <= 4 * m * EPS * 5.0
        bisected.clear()
        self._check(_sides(AntennaConfig(1, m, 1), 500, seed=21)[0], m, 4 * m * EPS)
        assert bisected == []

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_gains_independent_of_batch(self, m):
        # every row's gains are a function of that row alone
        side_a, side_b = ChannelStream(17).draw_block(AntennaConfig(m, m, m), 0)
        full = simulate.link_gains(side_a, side_b)
        for n in (1000, 16384):
            part = simulate.link_gains(side_a[:n], side_b[:n])
            for name in GAINS:
                assert np.array_equal(getattr(part, name), getattr(full, name)[:n])
        for i in (0, 4321, 16383):
            row = simulate.link_gains(side_a[i:i + 1], side_b[i:i + 1])
            for name in GAINS:
                assert getattr(row, name)[0] == getattr(full, name)[i]

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 4, 1)])
    def test_gains_finite_and_bounded_as_q2_to_1(self, dims):
        # B_10^2 scaled towards 0 decouples T's first row: q^2 goes to 1
        # where T_00 is above the rest of T's spectrum, and 1 - q_B^2
        # vanishes in double precision, but R_B must stay the other
        # eigenvalues' weighted mean.  (Where q^2 goes to 0 instead it is
        # resolved only to about eps^2 lam^2 / b_0^2; see _top_weights.)
        ant = AntennaConfig(*dims)
        side_a, side_b = (np.array(s[:2000]) for s in ChannelStream(5).draw_block(ant, 0))
        for side, m in ((side_a, ant.m_a), (side_b, ant.m_b)):
            side[:, min(ant.m_r, m + 1)] *= np.geomspace(1e-30, 1.0, 2000)
        gains = simulate.link_gains(side_a, side_b)
        for lam, lam_x in ((gains.lam_a, gains.lam_a_x), (gains.lam_b, gains.lam_b_x)):
            assert np.all(np.isfinite(lam)) and np.all(np.isfinite(lam_x))
            assert np.all((0.0 <= lam_x) & (lam_x <= lam * (1.0 + 4 * EPS)))
        lam, _, q2, rest = simulate._top_gains(side_b.T)
        one = np.flatnonzero(q2 == 1.0)
        assert one.size > 50
        a, b2 = _tridiagonal(side_b.T, ant.m_r)
        for i in sorted(set(one[:8]) | set(range(0, 2000, 250))):
            ref_lam, ref_q2, ref_rest = tridiagonal_top_mp(a[:, i], b2[:, i])
            assert lam[i] == pytest.approx(ref_lam, rel=4 * ant.m_r * EPS)
            assert rest[i] == pytest.approx(ref_rest, rel=0.0, abs=32 * EPS * ref_lam)
            if i in one:
                assert ref_q2 == pytest.approx(1.0, rel=0.0, abs=1e-14)

    def test_d_factors_match_eigh_route(self, monkeypatch):
        ant = AntennaConfig(4, 4, 4)
        kernel, _ = estimate_d_factors(ant, PW, trials=40_000, seed=19)
        monkeypatch.setattr(simulate, "_top_eig", lambda a, b2: _eigh_top(a, b2)[0])
        lapack, _ = estimate_d_factors(ant, PW, trials=40_000, seed=19)
        np.testing.assert_allclose(astuple(kernel), astuple(lapack), rtol=1e-12, atol=0.0)


JOINT_LAW_TRIALS = 1 << 15


@pytest.fixture(scope="module")
def joint_law_samples():
    """{dims: (tridiagonal-law gains, channel-matrix gains)}, drawn once."""
    cache = {}

    def get(dims):
        if dims not in cache:
            blocks = list(simulate._gain_blocks(AntennaConfig(*dims), JOINT_LAW_TRIALS, 2024))
            ours = {k: np.concatenate([getattr(b, k) for b in blocks]) for k in GAINS}
            cache[dims] = ours, channel_gains(*dims, JOINT_LAW_TRIALS, seed=sum(dims))
        return cache[dims]
    return get


def _law_features(g: dict, pw: PowerProfile) -> dict:
    branches = simulate._dual_branches(LinkGains(*(g[k] for k in GAINS)), pw, 1.0, 1.0)
    return {**g, "lam_a*lam_b_x": g["lam_a"] * g["lam_b_x"],
            "lam_b*lam_a_x": g["lam_b"] * g["lam_a_x"],
            "lam_a_x*lam_b_x": g["lam_a_x"] * g["lam_b_x"],
            **{f"branch_{k}": x for k, x in zip(("arb1", "arb2", "bra1", "bra2"), branches)},
            "lam_a_x/lam_a": g["lam_a_x"] / g["lam_a"],
            "lam_b_x/lam_b": g["lam_b_x"] / g["lam_b"],
            "product": g["lam_a_x"] / g["lam_a"] * g["lam_b_x"] / g["lam_b"]}


class TestJointLaw:
    """The gains from the tridiagonal law against the channel-matrix oracle,
    at fixed seeds: 2x4x1 keeps only the leading block of a reducible T, and
    m_r = 1 takes T = B_00^2."""

    DIMS = [(2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3, 4), (3, 2, 4), (2, 4, 1), (2, 1, 2), (3, 1, 4)]

    @pytest.mark.parametrize("dims", DIMS)
    def test_means_agree(self, dims, joint_law_samples):
        ours, oracle = (_law_features(g, power_profile(10.0, 0.5)) for g in joint_law_samples(dims))
        for name in list(GAINS) + ["lam_a*lam_b_x", "lam_b*lam_a_x", "lam_a_x*lam_b_x",
                                   "branch_arb1", "branch_arb2", "branch_bra1", "branch_bra2"]:
            x, y = ours[name], oracle[name]
            z = (x.mean() - y.mean()) / math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
            assert abs(z) <= 4.0, (name, z)

    @pytest.mark.parametrize("dims", DIMS)
    def test_distributions_agree(self, dims, joint_law_samples):
        ours, oracle = (_law_features(g, PW) for g in joint_law_samples(dims))
        for name in ("lam_a", "lam_a_x", "lam_b_x", "lam_a_x/lam_a", "lam_b_x/lam_b", "product"):
            assert stats.ks_2samp(ours[name], oracle[name]).pvalue >= 1e-3, name


class TestLinkSnrs:
    def test_known_row(self):
        # m_r = 1, channel rows [1, 1] and [1, 0], given as their squared
        # norms |h|^2 = B_00^2
        g = simulate.link_gains(np.array([[2.0]]), np.array([[1.0]]))
        assert (g.lam_a[0], g.lam_b[0], g.lam_a_x[0], g.lam_b_x[0]) == (2.0, 1.0, 2.0, 1.0)
        # m_r = 2, B = [[1, 0], [1, 1]] on both sides: T = [[1, 1], [1, 2]],
        # lam = (3 + sqrt 5)/2, q^2 = 1/(1 + lam_1^2) with lam_1 = lam - 1,
        # and the other eigenvalue det T / lam = 1/lam
        side = np.ones((1, 3))
        g = simulate.link_gains(side, side)
        lam = (3.0 + math.sqrt(5.0)) / 2.0
        q2 = 1.0 / (1.0 + (lam - 1.0) ** 2)
        assert g.lam_a[0] == pytest.approx(lam, rel=1e-15)
        assert g.lam_a_x[0] == 1.0
        assert g.lam_b_x[0] == pytest.approx(lam * q2 + (1.0 - q2) / lam, rel=1e-15)

    def test_nonmatched_dominated(self):
        # m_r = 2 takes the closed form, m_r = 3 the Newton kernel
        for ant in (AntennaConfig(3, 2, 2), AntennaConfig(2, 3, 3)):
            g = next(simulate._gain_blocks(ant, 5000, 11))
            assert np.all(g.lam_a_x <= g.lam_a * (1.0 + 4 * EPS))
            assert np.all(g.lam_b_x <= g.lam_b * (1.0 + 4 * EPS))

    def test_mean_matches_eigenvalue_oracle(self):
        # top-eigenvalue mean of the square two-antenna channel is 3.5
        lam = np.concatenate([g.lam_a for g in
                              simulate._gain_blocks(AntennaConfig(2, 2, 2), 1_000_000, 13)])
        assert float(np.mean(lam)) == pytest.approx(3.5, rel=0.005)


def _gains(lam_a, lam_b, lam_a_x, lam_b_x):
    return LinkGains(*(np.float64(v) for v in (lam_a, lam_b, lam_a_x, lam_b_x)))


class TestEndToEnd:
    def test_two_slot_example(self):
        # every link SNR 10 at unit average SNRs
        pw = PowerProfile.balanced(0.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, pw)
        g_arb, g_bra = end_to_end_snrs(Protocol.TWO_SLOT, _gains(10.0, 10.0, 10.0, 10.0),
                                       pw, coeffs=coeffs)
        assert float(g_bra) == pytest.approx(100.0 / 31.0, rel=1e-12)

    def test_first_four_slot_example(self):
        pw = PowerProfile.balanced(0.0)
        coeffs = coefficient_set(Protocol.FIRST_FOUR_SLOT, ANT, pw)
        g_arb, g_bra = end_to_end_snrs(Protocol.FIRST_FOUR_SLOT, _gains(10.0, 10.0, 10.0, 10.0),
                                       pw, coeffs=coeffs)
        assert float(g_bra) == pytest.approx(3.125, rel=1e-12)

    def test_zero_channel(self):
        g = _gains(0.0, 0.0, 0.0, 0.0)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, PW)
        assert end_to_end_snrs(Protocol.TWO_SLOT, g, PW, coeffs=coeffs) == (0.0, 0.0)
        assert end_to_end_snrs(Protocol.TWO_SLOT, g, PW, coeffs=coeffs, snr_form="lower") == (0.0, 0.0)
        assert end_to_end_snrs(Protocol.SECOND_THREE_SLOT, g, PW, snr_form="lower") == (0.0, 0.0)

    def test_monotone_in_each_link(self):
        # the multiple-access terms in the denominators mean only the
        # directions carried by the bumped gain must increase: each
        # matched gain is its side's source link and, in the unified form,
        # the other direction's forward link; a cross gain is a
        # dual-reception direction's non-matched forward link
        pw = PowerProfile(30.0, 20.0, 50.0, 50.0)
        base = dict(lam_a=0.2, lam_b=0.15, lam_a_x=0.04, lam_b_x=0.05)
        for p in Protocol:
            w = BALANCED_WEIGHTS if p.uses_weights else None
            coeffs = None if p.dual_reception else coefficient_set(p, ANT, pw, w)
            carried = ({"lam_a": (0,), "lam_b": (1,), "lam_a_x": (1,), "lam_b_x": (0,)}
                       if coeffs is None else {"lam_a": (0, 1), "lam_b": (0, 1)})
            ref = end_to_end_snrs(p, _gains(**base), pw, w, coeffs)
            for key, directions in carried.items():
                out = end_to_end_snrs(p, _gains(**{**base, key: base[key] * 1.3}), pw, w, coeffs)
                for d in directions:
                    assert out[d] > ref[d], (p, key, d)
            for key in base.keys() - carried.keys():
                # the unified form reads no cross gain
                out = end_to_end_snrs(p, _gains(**{**base, key: base[key] * 1.3}), pw, w, coeffs)
                assert out == ref

    def test_dual_reception_contract(self):
        # without coefficients, only a dual-reception protocol has SNRs
        with pytest.raises(ConfigurationError):
            end_to_end_snrs(Protocol.TWO_SLOT, _gains(1.0, 1.0, 1.0, 1.0), PW)

    @pytest.mark.parametrize("snr_form", ["exact", "lower"])
    def test_forms_match_link_snr_formulas(self, snr_form):
        # both forms against their textbook statements on the link SNRs
        # g = rho lam, at random average SNRs and weights
        rng = np.random.default_rng(2718)
        ant = AntennaConfig(3, 2, 4)
        g = next(simulate._gain_blocks(ant, 2000, 5))
        n1 = 1.0 if snr_form == "exact" else 0.0
        for _ in range(8):
            rho_ar, rho_br, rho_r = 10.0 ** rng.uniform(-1.0, 6.0, 3)
            pw = PowerProfile(rho_ar, rho_br, rho_r, rho_r)
            w = WeightPair.from_beta_squared(rng.uniform(0.05, 0.95))
            g_ar, g_br = rho_ar * g.lam_a, rho_br * g.lam_b
            g_ra, g_rb, g_ra_x, g_rb_x = (rho_r * lam for lam in (g.lam_a, g.lam_b, g.lam_a_x,
                                                                  g.lam_b_x))
            for p in Protocol:
                wp = w if p.uses_weights else None
                c = coefficient_set(p, ant, pw, wp, DFactors(1.7, 1.6, 1.8, 1.55))
                got = end_to_end_snrs(p, g, pw, wp, c, snr_form)
                ref = (c.a_arb * g_ar * g_rb / (c.b_arb * g_ar + c.c_arb * g_rb + n1),
                       c.a_bra * g_br * g_ra / (c.b_bra * g_br + c.c_bra * g_ra + n1))
                for x, y in zip(got, ref):
                    np.testing.assert_allclose(x, y, rtol=1e-14, atol=0.0)
                if not p.dual_reception:
                    continue
                a2, b2 = (1.0, 1.0) if wp is None else (wp.alpha ** 2, wp.beta ** 2)
                den = a2 * g_ar + b2 * g_br + n1
                ref = (sum(a2 * g_ar * (f / 2) / (den + f / 2) for f in (g_rb, g_rb_x)),
                       sum(b2 * g_br * (f / 2) / (den + f / 2) for f in (g_ra, g_ra_x)))
                for x, y in zip(end_to_end_snrs(p, g, pw, wp, snr_form=snr_form), ref):
                    np.testing.assert_allclose(x, y, rtol=1e-14, atol=0.0)


    def test_unified_form_is_the_analytic_law(self):
        # the unified form is the law of analysis.direction_scales, 1 / gamma
        # = k_s / lam_s + k_f / lam_f + n1 kappa / (lam_s lam_f), in either
        # form, to 4 ulp of that law formed in long double (in double its
        # own rounding reaches 5 ulp of it); the exact form lies at or below
        # the lower one, draw by draw, and the lower one in the harmonic-mean
        # sandwich m / 2 <= gamma <= m, m = min(lam_s / k_s, lam_f / k_f), to
        # rounding
        rng = np.random.default_rng(1618)
        ant = AntennaConfig(3, 2, 4)
        g = next(simulate._gain_blocks(ant, 4000, 6))
        for _ in range(8):
            rho_ar, rho_br, rho_r = 10.0 ** rng.uniform(-1.0, 6.0, 3)
            pw = PowerProfile(rho_ar, rho_br, rho_r, rho_r)
            w = WeightPair.from_beta_squared(rng.uniform(0.05, 0.95))
            for p in Protocol:
                wp = w if p.uses_weights else None
                c = coefficient_set(p, ant, pw, wp, DFactors(1.7, 1.6, 1.8, 1.55))
                exact = end_to_end_snrs(p, g, pw, wp, c, "exact")
                lower = end_to_end_snrs(p, g, pw, wp, c, "lower")
                for (k_s, k_f, kappa), lam_s, lam_f, ex, lo in zip(
                        direction_scales(c, pw), (g.lam_a, g.lam_b), (g.lam_b, g.lam_a),
                        exact, lower):
                    ls, lf, ks, kf = (np.longdouble(v) for v in (lam_s, lam_f, k_s, k_f))
                    for n1, gamma in ((1, ex), (0, lo)):
                        ref = 1 / (ks / ls + kf / lf + n1 * np.longdouble(kappa) / (ls * lf))
                        np.testing.assert_array_max_ulp(gamma, ref.astype(float), maxulp=4)
                    assert np.all(ex <= lo), p
                    m = np.minimum(lam_s / k_s, lam_f / k_f)
                    assert np.all(lo >= 0.5 * m * (1.0 - 4 * EPS)), p
                    assert np.all(lo <= m * (1.0 + 4 * EPS)), p

    @pytest.mark.parametrize("beta_sq", [0.0, 1.0])
    def test_zero_weight_silences_a_direction(self, beta_sq):
        # a zero relay weight (A = 0) makes all three of the silenced
        # direction's scales infinite: its SNR is 0 at every draw in both
        # forms, with no division error and no nan, and the other direction
        # keeps a positive, finite SNR
        ant = AntennaConfig(2, 2, 2)
        g = next(simulate._gain_blocks(ant, 2000, 5))
        w = WeightPair.from_beta_squared(beta_sq)
        silent = 1 if beta_sq == 0.0 else 0     # beta = 0 silences bra, alpha = 0 arb
        for p in (Protocol.FIRST_THREE_SLOT, Protocol.SECOND_FOUR_SLOT):
            c = coefficient_set(p, ant, PW, w, DFactors(1.7, 1.6, 1.8, 1.55))
            assert direction_scales(c, PW)[silent] == (math.inf,) * 3
            for form in ("exact", "lower"):
                snrs = end_to_end_snrs(p, g, PW, w, c, form)
                assert np.all(snrs[silent] == 0.0), (p, form)
                assert np.all(np.isfinite(snrs[1 - silent]) & (snrs[1 - silent] > 0.0)), (p, form)

    def test_noise_scale_underflow(self):
        # at -1700 dB, A rho_s rho_f underflows to 0 and kappa is infinite:
        # the exact form is 0 at every draw, and the lower form, which drops
        # kappa, keeps the harmonic-mean law on the finite k_s, k_f
        pw = PowerProfile.balanced(-1700.0)
        g = next(simulate._gain_blocks(ANT, 2000, 5))
        for p in (Protocol.TWO_SLOT, Protocol.FIRST_FOUR_SLOT):
            c = coefficient_set(p, ANT, pw)
            exact = end_to_end_snrs(p, g, pw, coeffs=c)
            lower = end_to_end_snrs(p, g, pw, coeffs=c, snr_form="lower")
            for (k_s, k_f, kappa), lam_s, lam_f, ex, lo in zip(
                    direction_scales(c, pw), (g.lam_a, g.lam_b), (g.lam_b, g.lam_a),
                    exact, lower):
                assert kappa == math.inf and math.isfinite(k_s) and math.isfinite(k_f), p
                assert np.all(ex == 0.0), p
                m = np.minimum(lam_s / k_s, lam_f / k_f)
                assert np.all((lo >= 0.5 * m * (1.0 - 4 * EPS)) & (lo <= m * (1.0 + 4 * EPS))), p

    def test_exact_form_equals_masked_division(self):
        # every exact-form denominator holds the noise term kappa > 0, so
        # the unmasked division equals the one that maps 0/0 to 0, bit for
        # bit, also where gains are zero
        rng = np.random.default_rng(31)
        g = next(simulate._gain_blocks(AntennaConfig(2, 2, 2), 4000, 3))
        lams = [lam.copy() for lam in astuple(g)]
        for lam in lams:
            lam[rng.random(lam.size) < 0.2] = 0.0
        lams[0][:50] = lams[1][:50] = lams[2][:50] = lams[3][:50] = 0.0
        g = LinkGains(*lams)

        def masked(num, den):
            out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
            np.divide(num, den, out=out, where=den > 0)
            return out
        w = WeightPair.from_beta_squared(0.3)
        dfactors = DFactors(1.7, 1.6, 1.8, 1.55)
        for pw in (PowerProfile(30.0, 20.0, 50.0, 50.0), PowerProfile.balanced(-10.0),
                   power_profile(60.0, 0.2)):
            for p in Protocol:
                wp = w if p.uses_weights else None
                c = coefficient_set(p, AntennaConfig(2, 2, 2), pw, wp, dfactors)
                ref = tuple(masked(lam_s * lam_f, k_f * lam_s + k_s * lam_f + kappa)
                            for (k_s, k_f, kappa), lam_s, lam_f in zip(
                                direction_scales(c, pw), (g.lam_a, g.lam_b), (g.lam_b, g.lam_a)))
                for x, y in zip(end_to_end_snrs(p, g, pw, wp, c), ref):
                    assert np.array_equal(x, y), p
                if not p.dual_reception:
                    continue
                a2, b2 = (1.0, 1.0) if wp is None else (wp.alpha ** 2, wp.beta ** 2)
                src_a, src_b = a2 * pw.rho_ar * g.lam_a, b2 * pw.rho_br * g.lam_b
                base = src_a + src_b
                branches = [masked(src * far, base + far + 1.0) for src, far in (
                    (src_a, 0.5 * pw.rho_rb * g.lam_b), (src_a, 0.5 * pw.rho_rb * g.lam_b_x),
                    (src_b, 0.5 * pw.rho_ra * g.lam_a), (src_b, 0.5 * pw.rho_ra * g.lam_a_x))]
                ref = branches[0] + branches[1], branches[2] + branches[3]
                for x, y in zip(end_to_end_snrs(p, g, pw, wp), ref):
                    assert np.array_equal(x, y), p


class TestSemiAnalytic:
    def test_determinism(self):
        kw = dict(trials=30_000, seed=123)
        a = semi_analytic_sweep([SweepPoint(Protocol.TWO_SLOT, PW)], ANT, **kw)[0]
        b = semi_analytic_sweep([SweepPoint(Protocol.TWO_SLOT, PW)], ANT, **kw)[0]
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_bounds(self):
        mod = modulation_constants("mqam", 16)
        est = semi_analytic_sweep([SweepPoint(Protocol.FIRST_FOUR_SLOT, PW, mod=mod)], ANT,
                                  trials=20_000, seed=5)[0]
        assert 0.0 <= est.mean <= 2.0 * mod.a / mod.bits_per_symbol
        assert est.std_error >= 0.0

    def test_lower_form_below_exact(self):
        for p in Protocol:
            w = BALANCED_WEIGHTS if p.uses_weights else None
            lo = semi_analytic_sweep([SweepPoint(p, PW, w)], ANT, trials=50_000, seed=17,
                                     snr_form="lower")[0]
            ex = semi_analytic_sweep([SweepPoint(p, PW, w)], ANT, trials=50_000, seed=17,
                                     snr_form="exact")[0]
            assert lo.mean <= ex.mean

    def test_diversity_drop(self):
        # +10 dB on the power-law slope divides the error rate by about
        # 10^2; SNRs kept where this trial budget resolves both estimates
        mod = modulation_constants("bpsk")
        hi = semi_analytic_sweep([SweepPoint(Protocol.TWO_SLOT, PowerProfile.balanced(15.0),
                                             mod=mod)], ANT, trials=400_000, seed=31,
                                 snr_form="lower")[0]
        lo = semi_analytic_sweep([SweepPoint(Protocol.TWO_SLOT, PowerProfile.balanced(25.0),
                                             mod=mod)], ANT, trials=400_000, seed=31,
                                 snr_form="lower")[0]
        assert lo.std_error / lo.mean < 0.15
        assert hi.mean / lo.mean == pytest.approx(100.0, rel=0.25)

    @pytest.mark.parametrize("snr_form", ["exact", "lower"])
    def test_standard_error_of_a_tiny_mean(self, snr_form):
        # at 4x4x4 and 30 dB the mean, about 1.8e-218, rests on a few deep
        # fades; unscaled, every y^2 underflows and the standard error read 0
        est = semi_analytic_sweep([SweepPoint(Protocol.TWO_SLOT, power_profile(30.0, 0.5))],
                                  AntennaConfig(4, 4, 4), trials=40_000, seed=7,
                                  snr_form=snr_form)[0]
        assert 0.0 < est.mean < 1e-200
        assert 0.0 < est.std_error < math.inf

    def test_scaled_squares_keep_plain_estimate(self):
        # block sums of (y/s)^2 with s a power of two give, where no y^2
        # underflows, the standard error of the plain sums of y^2 bit for bit
        rng = np.random.default_rng(8)
        for lo_exp in (-3.0, -40.0, -150.0):
            blocks = [10.0 ** rng.uniform(lo_exp, lo_exp + k, 1000) for k in (0.5, 3.0, 1.0)]
            trials = sum(y.size for y in blocks)
            parts = []
            for y in blocks:
                s = math.ldexp(1.0, math.frexp(np.max(y))[1])
                parts.append((np.sum(y), np.sum((y / s) ** 2), s))
            mean = math.fsum(np.sum(y) for y in blocks) / trials
            var = (math.fsum(np.sum(y * y) for y in blocks) - trials * mean * mean) / (trials - 1)
            est = simulate._mean_estimate(parts, trials)
            assert (est.mean, est.std_error) == (mean, math.sqrt(var / trials))

    def test_trials_contract(self):
        with pytest.raises(ConfigurationError):
            semi_analytic_sweep([SweepPoint(Protocol.TWO_SLOT, PW)], ANT, trials=0)
        with pytest.raises(ConfigurationError):
            sample_end_to_end_snrs(Protocol.TWO_SLOT, ANT, PW, trials=0)

    def test_sweep_equals_one_point_calls(self):
        # one pass over the draws gives every point its one-point estimate
        # bit for bit; 20000 trials end in a partial block
        ant = AntennaConfig(2, 2, 2)
        w = WeightPair.from_beta_squared(0.3)
        points = []
        for pw in (PowerProfile.balanced(5.0), PowerProfile(40.0, 10.0, 30.0, 30.0)):
            points += [SweepPoint(Protocol.TWO_SLOT, pw),
                       SweepPoint(Protocol.FIRST_THREE_SLOT, pw, w),
                       SweepPoint(Protocol.SECOND_THREE_SLOT, pw),
                       SweepPoint(Protocol.SECOND_FOUR_SLOT, pw, w,
                                  modulation_constants("mqam", 16))]
        kw = dict(trials=20_000, seed=29)
        ests = semi_analytic_sweep(points, ant, **kw)
        assert len(ests) == len(points)
        for pt, est in zip(points, ests):
            one = semi_analytic_sweep([pt], ant, **kw)[0]
            assert (est.mean, est.std_error, est.trials) == (one.mean, one.std_error, 20_000)

    def test_given_gains_longer_or_shorter_pass(self):
        # the estimates read the first `trials` draws of a longer pass, the
        # drawn ones bit for bit; a shorter pass is an error
        ant = AntennaConfig(2, 2, 2)
        points = [SweepPoint(Protocol.TWO_SLOT, PW), SweepPoint(Protocol.SECOND_THREE_SLOT, PW)]
        kw = dict(trials=20_000, seed=4)
        drawn = semi_analytic_sweep(points, ant, **kw)
        longer = list(simulate._gain_blocks(ant, 3 * simulate._BLOCK, 4))
        assert semi_analytic_sweep(points, ant, **kw, gains=longer) == drawn
        with pytest.raises(ConfigurationError):
            semi_analytic_sweep(points, ant, **kw, gains=simulate._gain_blocks(ant, 19_999, 4))


class TestDFactors:
    def test_single_relay_antenna_exact(self, monkeypatch):
        # exact without a draw
        draws = []
        draw_block = ChannelStream.draw_block
        monkeypatch.setattr(ChannelStream, "draw_block",
                            lambda self, *a: draws.append(a) or draw_block(self, *a))
        d, se = estimate_d_factors(ANT, PW, trials=20_000, seed=3)
        assert (d.d_arb_3, d.d_bra_3, d.d_arb_4, d.d_bra_4) == (2.0, 2.0, 2.0, 2.0)
        assert se == (0.0, 0.0, 0.0, 0.0)
        assert draws == []
        estimate_d_factors(AntennaConfig(2, 2, 2), PW, trials=20_000, seed=3)
        assert len(draws) == 2

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 5) for n in range(1, 5)]
                             + [(5, 5), (6, 3), (6, 6), (8, 4)])
    def test_top_eig_mean_matches_expansion(self, m, n):
        # E L = int_0^inf P(L > u) du = sum d[i, k] (k + 1) / i over the
        # Erlang tails of the exact expansion.  The link kernel is sized for
        # MAX_TABLE_DIM antennas a side; past it (the Monte-Carlo controls of
        # larger relays) the measured errors are 1.8e-14, 2.7e-15, 2.5e-13
        # and 1.5e-13 for these four shapes
        exact = sum(d * Fraction(k + 1, i) for (i, k), d in ccdf_expansion(m, n))
        rel = 1e-13 if max(m, n) <= MAX_TABLE_DIM else 1e-11
        assert mean_largest_eigenvalue(m, n) == pytest.approx(float(exact), rel=rel)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4)])
    def test_control_variates_beat_plain_200k(self, dims):
        # at D_FACTOR_TRIALS the control-variate SE is at most the plain
        # delta-method SE of 200 000 draws of the same stream
        ant = AntennaConfig(*dims)
        pw = power_profile(10.0, 0.5)
        blocks = list(simulate._gain_blocks(ant, 200_000, 5))
        branches = [np.concatenate(x) for x in zip(*(
            simulate._dual_branches(b, pw, 1.0, 1.0)
            + simulate._dual_branches(b, pw, 0.5, 0.5) for b in blocks))]
        plain = []
        for x1, x2 in zip(branches[::2], branches[1::2]):
            z = x2 - (x2.mean() / x1.mean()) * x1
            plain.append(z.std(ddof=1) / math.sqrt(z.size) / x1.mean())
        _, se = estimate_d_factors(ant, pw, trials=simulate.D_FACTOR_TRIALS, gains=blocks[:2])
        for cv, ref in zip(se, plain):
            assert 0.0 < cv <= ref

    @pytest.mark.parametrize("dims, trials, pinned", [
        ((2, 2, 2), 100_000, ("0x1.9d2320bf05d46p+0", "0x1.9d341d8b01284p+0", "0x1.a4cec643de78cp+0",
                              "0x1.a4dfc189465e4p+0", "0x1.b57a9a8cc47fap-13", "0x1.b5ae53c41884cp-13",
                              "0x1.cb69c7a902d8dp-13", "0x1.cc2e131aab491p-13")),
        ((3, 2, 4), 20_000, ("0x1.b1a337c658bc0p+0", "0x1.a7d2380020378p+0", "0x1.b9c72a5e343eep+0",
                             "0x1.af050fab517f1p+0", "0x1.747c9b313859dp-12", "0x1.652baf78f503dp-12",
                             "0x1.833297361f06fp-12", "0x1.7cce045060614p-12")),
    ])
    def test_bits_pinned(self, dims, trials, pinned):
        # float.hex of the factors and standard errors: 2x2x2 at 100 000
        # draws is the pre-pass of a sweep to 60 dB, and both passes end in
        # a trimmed block; each block's sums are one Gram product, combined
        # in block order, so a change to the reduction that reorders them
        # moves these bits
        d, se = estimate_d_factors(AntennaConfig(*dims), power_profile(60.0, 0.5),
                                   trials=trials, seed=7)
        assert tuple(v.hex() for v in astuple(d) + se) == pinned

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4)])
    def test_gram_within_the_dot_product_bound(self, dims, monkeypatch):
        # each block's sums are one Gram product of its rows and a row of
        # ones: each entry lies within n eps sum |x_i x_j| of the exactly
        # rounded sum (math.fsum), the dot product's rounding bound
        ant, pw = AntennaConfig(*dims), power_profile(10.0, 0.5)
        real = simulate._gain_blocks
        seen = []

        def spying(ant, trials, seed, gains=None, reduce=simulate._same):
            def recording(block):
                sums = reduce(block)
                seen.append((block, sums))
                return sums
            return real(ant, trials, seed, gains, recording)
        monkeypatch.setattr(simulate, "_gain_blocks", spying)
        estimate_d_factors(ant, pw, trials=simulate._BLOCK, seed=11)
        [(block, sums)] = seen
        # the rows of estimate_d_factors: x1, x2 of both protocols at both
        # weights, then the controls less their means
        mu = [ant.m_a, ant.m_b, digamma(ant.m_a), digamma(ant.m_b),
              mean_largest_eigenvalue(ant.m_r, ant.m_a), mean_largest_eigenvalue(ant.m_r, ant.m_b)]
        ctrl = [block.lam_a_x, block.lam_b_x, np.log(block.lam_a_x), np.log(block.lam_b_x),
                block.lam_a, block.lam_b]
        rows = (list(simulate._dual_branches(block, pw, 1.0, 1.0))
                + list(simulate._dual_branches(block, pw, 0.5, 0.5))
                + [c - m for c, m in zip(ctrl, mu)])
        nrow, n = len(rows), rows[0].size
        pairs = [(i, j) for i in range(nrow) for j in range(i, nrow)
                 if j >= 8 or j == i or (j == i + 1 and i % 2 == 0)]
        ones = np.ones(n)
        assert len(sums) == nrow + len(pairs)
        eps = np.finfo(float).eps
        for got, (i, j) in zip(sums, [(i, None) for i in range(nrow)] + pairs):
            prod = rows[i] * (ones if j is None else rows[j])
            assert abs(got - math.fsum(prod)) <= n * eps * math.fsum(np.abs(prod))

    def test_gram_bits_do_not_depend_on_blas_threads(self):
        # float.hex of the factors and standard errors in processes whose
        # BLAS runs one and two threads
        probe = ("from dataclasses import astuple\n"
                 "from twrelay.scenario import AntennaConfig, power_profile\n"
                 "from twrelay.simulate import estimate_d_factors\n"
                 "for dims in ((2, 2, 2), (4, 4, 4)):\n"
                 "    d, se = estimate_d_factors(AntennaConfig(*dims), power_profile(30.0, 0.5),\n"
                 "                               trials=40_000, seed=9)\n"
                 "    print(*(v.hex() for v in astuple(d) + se))\n")
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        outs = [subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": src,
                                                "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert outs[0] == outs[1] and len(outs[0].split()) == 16

    def test_given_gains_equal_drawn(self):
        ant = AntennaConfig(2, 3, 4)
        drawn = estimate_d_factors(ant, PW, trials=20_000, seed=8)
        given = estimate_d_factors(ant, PW, trials=20_000, seed=8,
                                   gains=list(simulate._gain_blocks(ant, 20_000, 8)))
        assert given == drawn

    def test_given_gains_longer_or_shorter_pass(self):
        ant = AntennaConfig(2, 3, 4)
        drawn = estimate_d_factors(ant, PW, trials=20_000, seed=8)
        longer = list(simulate._gain_blocks(ant, 3 * simulate._BLOCK, 8))
        assert estimate_d_factors(ant, PW, trials=20_000, seed=8, gains=longer) == drawn
        with pytest.raises(ConfigurationError):
            estimate_d_factors(ant, PW, trials=20_000, seed=8, gains=longer[:1])

    @pytest.mark.parametrize("trials", [2, 3, 7, 8])
    def test_few_trials_keep_a_degree_of_freedom(self, trials):
        # at most one control per ten trials enters, so the residual
        # variance is estimated, never fitted away
        ant = AntennaConfig(2, 2, 2)
        d, se = estimate_d_factors(ant, PW, trials=trials, seed=1)
        assert all(math.isfinite(v) for v in astuple(d))
        assert all(1e-4 < v < math.inf for v in se)

    @pytest.mark.parametrize("trials", [8, 11])
    def test_few_trials_give_plain_delta_method_se(self, trials):
        # below 12 trials no control enters: each factor and SE is the plain
        # ratio of means and its delta-method SE over the same draws
        ant = AntennaConfig(2, 2, 2)
        d, se = estimate_d_factors(ant, PW, trials=trials, seed=1)
        g = next(simulate._gain_blocks(ant, trials, 1))
        branches = simulate._dual_branches(g, PW, 1.0, 1.0) + simulate._dual_branches(g, PW, 0.5, 0.5)
        for x1, x2, dv, sv in zip(branches[::2], branches[1::2], astuple(d), se):
            r = x2.mean() / x1.mean()
            z = x2 - r * x1
            assert dv == pytest.approx(1.0 + r, rel=1e-14)
            assert sv == pytest.approx(z.std(ddof=1) / math.sqrt(trials) / x1.mean(), rel=1e-9)

    def test_multi_antenna_shrinks(self):
        d, _ = estimate_d_factors(AntennaConfig(2, 2, 2), PW, trials=100_000, seed=3)
        for v in (d.d_arb_3, d.d_bra_3, d.d_arb_4, d.d_bra_4):
            assert 1.0 < v < 2.0

    def test_self_consistency(self):
        ant = AntennaConfig(2, 2, 2)
        d1, se1 = estimate_d_factors(ant, PW, trials=50_000, seed=1)
        d2, se2 = estimate_d_factors(ant, PW, trials=200_000, seed=2)
        for a, b, sa, sb in zip(
                (d1.d_arb_3, d1.d_bra_3, d1.d_arb_4, d1.d_bra_4),
                (d2.d_arb_3, d2.d_bra_3, d2.d_arb_4, d2.d_bra_4), se1, se2):
            assert abs(a - b) <= 3.0 * math.hypot(sa, sb)


# a trimmed last block, and fewer trials than one block
POOL_TRIALS = (3 * simulate._BLOCK + 123, 5000)


def _with_workers(monkeypatch, n, fn):
    monkeypatch.setattr(simulate, "_cpus", lambda: n)
    return fn()


class TestWorkerPool:
    @pytest.mark.parametrize("trials", POOL_TRIALS)
    def test_outputs_independent_of_worker_count(self, monkeypatch, trials):
        # the blocks of a pass are drawn and reduced on the pool's threads;
        # every output is the one-worker output bit for bit
        ant, pw = AntennaConfig(3, 2, 4), power_profile(10.0, 0.3)
        points = [SweepPoint(p, pw, BALANCED_WEIGHTS if p.uses_weights else None)
                  for p in Protocol]
        draw_block = ChannelStream.draw_block

        def slow_first(stream, ant, block):
            # the first block finishes last, so results read in completion
            # order would differ
            if block == 0:
                time.sleep(0.02)
            return draw_block(stream, ant, block)
        monkeypatch.setattr(ChannelStream, "draw_block", slow_first)

        def outputs():
            gains = [astuple(g) for g in simulate._gain_blocks(ant, trials, 21)]
            return (gains, estimate_d_factors(ant, pw, trials=trials, seed=21),
                    semi_analytic_sweep(points, ant, trials=trials, seed=21),
                    semi_analytic_sweep(points[:1], ANT, trials=trials, seed=21),
                    sample_end_to_end_snrs(Protocol.SECOND_THREE_SLOT, ant, pw,
                                           trials=trials, seed=21))
        one = _with_workers(monkeypatch, 1, outputs)
        for n in (2, 3):
            other = _with_workers(monkeypatch, n, outputs)
            for a, b in zip(one[0], other[0]):
                for x, y in zip(a, b):
                    assert x.tobytes() == y.tobytes()
            assert other[1:4] == one[1:4]
            for x, y in zip(one[4], other[4]):
                assert x.tobytes() == y.tobytes()

    def test_reads_at_most_workers_plus_one_blocks_ahead(self, monkeypatch):
        workers = 3
        monkeypatch.setattr(simulate, "_cpus", lambda: workers)
        draws = []
        draw_block = ChannelStream.draw_block
        monkeypatch.setattr(ChannelStream, "draw_block",
                            lambda self, *a: draws.append(a) or draw_block(self, *a))
        ant = AntennaConfig(2, 2, 2)
        read = 0
        for _ in simulate._gain_blocks(ant, 10 * simulate._BLOCK, 13):
            read += 1
            time.sleep(0.01)    # a slow reader, which the workers could outrun
            assert len(draws) - read <= workers + 1
        assert read == len(draws) == 10
        draws.clear()
        next(simulate._gain_blocks(ant, 1_000_000, 13))
        assert len(draws) <= workers + 1

    @pytest.mark.parametrize("workers", [1, 3])
    def test_task_error_reaches_the_caller(self, monkeypatch, workers):
        # the error raised by the task of block 2 is the one the caller
        # sees; no task is left running or queued once it is raised
        monkeypatch.setattr(simulate, "_cpus", lambda: workers)
        error = RuntimeError("block 2")
        started, finished = [], []
        draw_block = ChannelStream.draw_block

        def failing_draw(stream, ant, block):
            started.append(block)
            try:
                if block == 2:
                    raise error
                return draw_block(stream, ant, block)
            finally:
                finished.append(block)
        monkeypatch.setattr(ChannelStream, "draw_block", failing_draw)
        threads = set(threading.enumerate())
        with pytest.raises(RuntimeError) as info:
            estimate_d_factors(AntennaConfig(2, 2, 2), PW, trials=8 * simulate._BLOCK, seed=3)
        assert info.value is error
        assert set(threading.enumerate()) == threads
        assert sorted(started) == sorted(finished)
        assert len(started) <= 3 + workers
