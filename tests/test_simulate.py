"""Monte-Carlo engine: draw statistics and determinism, the top Gram
eigenpair, per-realization SNR identities, estimator contracts and sweep
batching, and the dual-reception factors."""

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from twrelay import simulate
from twrelay.errors import ConfigurationError
from twrelay.lowerbound import ccdf_expansion
from twrelay.scenario import (AntennaConfig, BALANCED_WEIGHTS, PowerProfile,
                              Protocol, WeightPair, coefficient_set,
                              modulation_constants, power_profile)
from twrelay.simulate import (ChannelStream, InstantaneousSnrs, SweepPoint, _top_eig,
                              end_to_end_snrs, estimate_d_factors, link_gains_block,
                              sample_end_to_end_snrs, semi_analytic_sweep)

ANT = AntennaConfig(2, 1, 2)
PW = PowerProfile.balanced(20.0)


class TestDraws:
    def test_determinism(self):
        # a block's channels are a pure function of (seed, block index)
        a1, b1 = ChannelStream(42).draw_block(ANT, 7)
        a2, b2 = ChannelStream(42).draw_block(ANT, 7)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)
        a3, _ = ChannelStream(43).draw_block(ANT, 7)
        assert not np.array_equal(a1, a3)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4), (2, 3, 4)])
    def test_stream_order(self, dims):
        # A's real parts, A's imaginary parts, then B's, each scaled by 1/sqrt(2)
        ant = AntennaConfig(*dims)
        stream = ChannelStream(12345)
        h_ar, h_br = stream.draw_block(ant, 3)
        rng = stream._rng(3)
        for h, m in ((h_ar, ant.m_a), (h_br, ant.m_b)):
            shape = (simulate._BLOCK, ant.m_r, m)
            ref = (1.0 / math.sqrt(2.0)) * (rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape))
            assert h.tobytes() == ref.tobytes()

    def test_unit_variance(self):
        stream = ChannelStream(7)
        sq = []
        n = 0
        for b in range(64):
            h_ar, h_br = stream.draw_block(ANT, b)
            sq.append(np.abs(h_ar) ** 2)
            n += h_ar.size
            if n >= 1_000_000:
                break
        mean = float(np.mean(np.concatenate([s.ravel() for s in sq])))
        assert mean == pytest.approx(1.0, abs=0.005)

    def test_cross_independence(self):
        stream = ChannelStream(9)
        a_parts, b_parts = [], []
        n = 0
        for b in range(64):
            h_ar, h_br = stream.draw_block(ANT, b)
            a_parts.append(h_ar[:, 0, 0].real)
            b_parts.append(h_br[:, 0, 0].real)
            n += h_ar.shape[0]
            if n >= 1_000_000:
                break
        x = np.concatenate(a_parts)
        y = np.concatenate(b_parts)
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) < 0.005


def _gram(h):
    return h @ h.conj().transpose(0, 2, 1)


def _check_against_eigvalsh(m, m_a_values, seed):
    """_top_eig on 4000 Grams of each source antenna count: the eigenvalue
    against LAPACK, unit norm, the Rayleigh quotient, and maximality."""
    rng = np.random.default_rng(seed)
    for m_a in m_a_values:
        h_ar, _ = ChannelStream(m_a).draw_block(AntennaConfig(m_a, m, m_a), 0)
        gram = _gram(h_ar[:4000])
        lam, v = _top_eig(gram)
        ref = np.linalg.eigvalsh(gram)[:, -1]
        assert np.max(np.abs(lam - ref) / ref) <= 1e-13
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-14
        rayleigh = np.einsum("ni,nij,nj->n", v.conj(), gram, v)
        assert np.max(np.abs(rayleigh - lam) / lam) <= 1e-13
        # maximality: no unit vector gathers more than the top eigenvalue
        u = rng.standard_normal((4000, m)) + 1j * rng.standard_normal((4000, m))
        u /= np.linalg.norm(u, axis=1)[:, None]
        gain = np.einsum("ni,nij,nj->n", u.conj(), gram, u).real
        assert np.all(gain <= lam * (1.0 + 1e-13))


class TestTopEigenpair:
    def test_closed_form_2x2_matches_eigh(self):
        _check_against_eigvalsh(2, (1, 2, 4), seed=5)

    def test_closed_form_2x2_degenerate(self):
        gram = np.array([
            np.zeros((2, 2)),                       # zero matrix
            3.0 * np.eye(2),                        # equal diagonal, b = 0
            np.diag([1.0, 5.0]),                    # a < d, b = 0
            [[1.0, 2.0 - 1.0j], [2.0 + 1.0j, 4.0]],  # a < d
            [[2.0, 1.0j], [-1.0j, 2.0]],            # purely imaginary b
            [[2.0, 1e-200j], [-1e-200j, 2.0]],      # |b|^2 underflows
        ], dtype=complex)
        lam, v = _top_eig(gram)
        assert np.all(np.isfinite(lam)) and np.all(np.isfinite(v))
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert np.allclose(lam, np.linalg.eigvalsh(gram)[:, -1], rtol=1e-15, atol=0.0)
        assert np.allclose(np.einsum("nij,nj->ni", gram, v), lam[:, None] * v,
                           rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("m", [3, 4])
    def test_guarded_kernel_matches_eigh(self, m):
        _check_against_eigvalsh(m, (1, 2, m, 5), seed=m)

    @pytest.mark.parametrize("m", [3, 4])
    def test_guarded_kernel_degenerate(self, m, monkeypatch):
        # a multiple top eigenvalue leaves no adjugate column to take, so
        # these rows must reach LAPACK; the rank-1 Gram of one source
        # antenna has a simple top eigenvalue and needs no fallback
        fallback = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            fallback.append(len(a))
            return eigh(a)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        degenerate = np.array([
            np.zeros((m, m)),
            2.0 * np.eye(m),
            np.diag([5.0, 5.0, 1.0, 0.0][:m]),
        ], dtype=complex)
        h1, _ = ChannelStream(21).draw_block(AntennaConfig(1, m, 1), 0)
        rank1 = _gram(h1[:500])
        for gram, fallback_rows in ((degenerate, 3), (rank1, 0)):
            fallback.clear()
            lam, v = _top_eig(gram)
            assert sum(fallback) == fallback_rows
            assert np.all(np.isfinite(lam)) and np.all(np.isfinite(v))
            assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=1e-15)
            ref = eigh(gram)[0][:, -1]
            assert np.allclose(lam, ref, rtol=1e-14, atol=0.0)
            residual = np.linalg.norm(np.einsum("nij,nj->ni", gram, v) - lam[:, None] * v,
                                      axis=1)
            assert np.all(residual <= 1e-14 * lam)

    @pytest.mark.parametrize("m", [3, 4])
    def test_gains_independent_of_batch(self, m):
        # every row's gains are a function of that row alone
        h_ar, h_br = ChannelStream(17).draw_block(AntennaConfig(m, m, m), 0)
        full = link_gains_block(h_ar, h_br)
        for n in (1, 1000, 16384):
            part = link_gains_block(h_ar[:n], h_br[:n])
            for name in ("lam_a", "lam_b", "lam_a_x", "lam_b_x"):
                assert np.array_equal(getattr(part, name), getattr(full, name)[:n])

    def test_d_factors_match_eigh_route(self, monkeypatch):
        ant = AntennaConfig(4, 4, 4)
        kernel, _ = estimate_d_factors(ant, PW, trials=40_000, seed=19)

        def eigh_top(gram):
            w, v = np.linalg.eigh(gram)
            return w[:, -1], v[:, :, -1]
        monkeypatch.setattr(simulate, "_top_eig", eigh_top)
        lapack, _ = estimate_d_factors(ant, PW, trials=40_000, seed=19)
        np.testing.assert_allclose(astuple(kernel), astuple(lapack), rtol=1e-12, atol=0.0)


class TestLinkSnrs:
    def test_known_row(self):
        h_ar = np.array([[[1.0 + 0j, 1.0 + 0j]]])
        h_br = np.array([[[1.0 + 0j, 0.0 + 0j]]])
        s = link_gains_block(h_ar, h_br).snrs(PW)
        assert s.g_ar[0] == pytest.approx(2.0 * PW.rho_ar, rel=1e-12)
        assert s.g_br[0] == pytest.approx(1.0 * PW.rho_br, rel=1e-12)

    def test_reciprocity_identity(self):
        pw = PowerProfile(100.0, 50.0, 400.0, 400.0)
        h_ar, h_br = ChannelStream(3).draw_block(ANT, 0)
        s = link_gains_block(h_ar[:20], h_br[:20]).snrs(pw)
        np.testing.assert_allclose(s.g_ar * pw.rho_ra, s.g_ra * pw.rho_ar, rtol=1e-12)

    def test_nonmatched_dominated(self):
        # m_r = 2 takes the closed-form eigenpair, m_r = 3 the guarded kernel
        for ant in (AntennaConfig(3, 2, 2), AntennaConfig(2, 3, 3)):
            stream = ChannelStream(11)
            h_ar, h_br = stream.draw_block(ant, 0)
            s = link_gains_block(h_ar[:5000], h_br[:5000]).snrs(PW)
            assert np.all(s.g_ra_x <= s.g_ra + 1e-9)
            assert np.all(s.g_rb_x <= s.g_rb + 1e-9)

    def test_mean_matches_eigenvalue_oracle(self):
        # top-eigenvalue mean of the square two-antenna channel is 3.5
        ant = AntennaConfig(2, 2, 2)
        stream = ChannelStream(13)
        means = []
        n = 0
        for b in range(62):
            h_ar, h_br = stream.draw_block(ant, b)
            s = link_gains_block(h_ar, h_br).snrs(PW)
            means.append(np.mean(s.g_ar) / PW.rho_ar)
            n += h_ar.shape[0]
            if n >= 1_000_000:
                break
        assert float(np.mean(means)) == pytest.approx(3.5, rel=0.005)


class TestEndToEnd:
    def test_two_slot_example(self):
        s = InstantaneousSnrs(*(np.float64(10.0),) * 6)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, PowerProfile.balanced(0.0))
        g_arb, g_bra = end_to_end_snrs(Protocol.TWO_SLOT, s, coeffs=coeffs)
        assert float(g_bra) == pytest.approx(100.0 / 31.0, rel=1e-12)

    def test_first_four_slot_example(self):
        s = InstantaneousSnrs(*(np.float64(10.0),) * 6)
        coeffs = coefficient_set(Protocol.FIRST_FOUR_SLOT, ANT, PowerProfile.balanced(0.0))
        g_arb, g_bra = end_to_end_snrs(Protocol.FIRST_FOUR_SLOT, s, coeffs=coeffs)
        assert float(g_bra) == pytest.approx(3.125, rel=1e-12)

    def test_zero_channel(self):
        s = InstantaneousSnrs(*(np.float64(0.0),) * 6)
        coeffs = coefficient_set(Protocol.TWO_SLOT, ANT, PW)
        assert end_to_end_snrs(Protocol.TWO_SLOT, s, coeffs=coeffs) == (0.0, 0.0)
        g = end_to_end_snrs(Protocol.SECOND_THREE_SLOT, s, mode="dual_reception",
                            snr_form="lower")
        assert g == (0.0, 0.0)

    def test_monotone_in_each_link(self):
        base = dict(g_ar=4.0, g_br=3.0, g_ra=5.0, g_rb=6.0, g_ra_x=2.0, g_rb_x=2.5)
        for p in Protocol:
            w = BALANCED_WEIGHTS if p.uses_weights else None
            mode = "dual_reception" if p.dual_reception else "unified"
            coeffs = None if p.dual_reception else coefficient_set(p, ANT, PW, w)
            ref = end_to_end_snrs(p, InstantaneousSnrs(**{k: np.float64(v) for k, v in base.items()}),
                                  w, mode, coeffs)
            for key in base:
                bumped = dict(base)
                bumped[key] = base[key] * 1.3
                if key == "g_ar":
                    bumped["g_ra"] = base["g_ra"] * 1.3   # reciprocity ties these
                if key == "g_ra":
                    bumped["g_ar"] = base["g_ar"] * 1.3
                out = end_to_end_snrs(p, InstantaneousSnrs(**{k: np.float64(v) for k, v in bumped.items()}),
                                      w, mode, coeffs)
                # the multiple-access terms in the denominators mean only the
                # direction carried by the bumped link must not decrease
                if key in ("g_br", "g_ra", "g_ra_x"):
                    assert out[1] >= ref[1] - 1e-12
                if key in ("g_ar", "g_rb", "g_rb_x"):
                    assert out[0] >= ref[0] - 1e-12

    def test_dual_reception_contract(self):
        s = InstantaneousSnrs(*(np.float64(1.0),) * 6)
        with pytest.raises(ConfigurationError):
            end_to_end_snrs(Protocol.TWO_SLOT, s, mode="dual_reception")


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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_top_eig_mean_matches_expansion(self, m, n):
        # E L = int_0^inf P(L > u) du = sum d[i, k] (k + 1) / i over the
        # Erlang tails of the exact expansion
        exact = sum(d * Fraction(k + 1, i) for (i, k), d in ccdf_expansion(m, n))
        assert simulate._mean_top_eig(m, n) == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4)])
    def test_control_variates_beat_plain_200k(self, dims):
        # at D_FACTOR_TRIALS the control-variate SE is at most the plain
        # delta-method SE of 200 000 draws of the same stream
        ant = AntennaConfig(*dims)
        pw = power_profile(10.0, 0.5)
        blocks = list(simulate._gain_blocks(ant, 200_000, 5))
        branches = [np.concatenate(x) for x in zip(*(
            simulate._dual_branches(b.snrs(pw), 1.0, 1.0)
            + simulate._dual_branches(b.snrs(pw), 0.5, 0.5) for b in blocks))]
        plain = []
        for x1, x2 in zip(branches[::2], branches[1::2]):
            z = x2 - (x2.mean() / x1.mean()) * x1
            plain.append(z.std(ddof=1) / math.sqrt(z.size) / x1.mean())
        _, se = estimate_d_factors(ant, pw, trials=simulate.D_FACTOR_TRIALS, gains=blocks[:2])
        for cv, ref in zip(se, plain):
            assert 0.0 < cv <= ref

    def test_given_gains_equal_drawn(self):
        ant = AntennaConfig(2, 3, 4)
        drawn = estimate_d_factors(ant, PW, trials=20_000, seed=8)
        given = estimate_d_factors(ant, PW, trials=20_000, seed=8,
                                   gains=list(simulate._gain_blocks(ant, 20_000, 8)))
        assert given == drawn

    @pytest.mark.parametrize("trials", [2, 3, 7, 8])
    def test_few_trials_keep_a_degree_of_freedom(self, trials):
        # at most trials - 2 controls enter, so the residual variance is
        # estimated, never fitted away
        ant = AntennaConfig(2, 2, 2)
        d, se = estimate_d_factors(ant, PW, trials=trials, seed=1)
        assert all(math.isfinite(v) for v in astuple(d))
        assert all(1e-4 < v < math.inf for v in se)

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
