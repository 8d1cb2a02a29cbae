"""Command-line driver: CSV schemas, determinism, exit codes, and the
scenario-file surface."""

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from twrelay import analysis, cli, lowerbound, simulate, validate
from twrelay.cli import main
from twrelay.scenario import (AntennaConfig, PowerProfile, Protocol, Scenario, coefficient_set,
                              parse_protocol, power_profile, protocol_modulation)
from twrelay.simulate import ChannelStream, SweepPoint, semi_analytic_sweep

SCENARIO = (
    "m_a = 2\nm_r = 1\nm_b = 2\n"
    "rho_ar_db = 30\nd0 = 0.5\npl_exponent = 3\n"
    "trials = 4000\nseed = 99\n")


@pytest.fixture
def scenario_file(tmp_path):
    f = tmp_path / "run.scenario"
    f.write_text(SCENARIO)
    return str(f)


def _read(path):
    with open(path) as fh:
        return fh.read()


@pytest.fixture
def draws(monkeypatch):
    """The block index of every ChannelStream.draw_block call, in the order
    the calls began (worker threads may begin them out of block order)."""
    draw = ChannelStream.draw_block
    calls = []

    def counting_draw(stream, ant, block):
        calls.append(block)
        return draw(stream, ant, block)
    monkeypatch.setattr(ChannelStream, "draw_block", counting_draw)
    return calls


class TestSweep:
    def test_row_count_and_schema(self, scenario_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", scenario_file, "--rho-start", "0", "--rho-stop", "40",
                     "--rho-step", "5", "--mode", "all", "--out", str(out)])
        assert code == 0
        lines = _read(out).splitlines()
        assert lines[0] == "rho_ar_db,protocol,mode,sum_ber,std_error"
        snrs = [5.0 * k for k in range(9)]
        protocols = [p.value for p in Protocol]
        counts = Counter()
        asymptote_snrs = {p: [] for p in protocols}
        for line in lines[1:]:
            cols = line.split(",")
            assert len(cols) == 5
            rho_db, protocol, mode = float(cols[0]), cols[1], cols[2]
            counts[rho_db, protocol, mode] += 1
            mod = protocol_modulation(parse_protocol(protocol))
            assert 0.0 <= float(cols[3]) <= mod.a / mod.bits_per_symbol
            if mode == "mc":
                assert cols[4] != ""
            else:
                assert cols[4] == ""
            if mode == "asymptote":
                asymptote_snrs[protocol].append(rho_db)
        assert set(counts.values()) == {1}
        for mode in ("mc", "closed"):
            assert sum(counts[r, p, mode] for r in snrs for p in protocols) == 45
        # d = 2 here, so each 5 dB step divides the power law by 10. It first
        # falls to a / log2 M or below at 5 dB for two_slot, at 10 dB for both
        # three-slot protocols and at 15 dB for both four-slot protocols:
        # 8 + 2 * 7 + 2 * 6 = 34 asymptote rows.
        assert sum(len(v) for v in asymptote_snrs.values()) == 34
        for p, got in asymptote_snrs.items():
            got.sort()
            assert got and got == snrs[snrs.index(got[0]):], p
        assert len(lines) == 1 + 45 + 45 + 34

    def test_asymptote_above_ceiling_leaves_header_only(self, scenario_file, capsys):
        code = main(["sweep", scenario_file, "--rho-start", "0", "--rho-stop", "0",
                     "--rho-step", "5", "--mode", "asymptote"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == "rho_ar_db,protocol,mode,sum_ber,std_error\n"
        assert "left out 5 asymptote row(s)" in captured.err

    def test_deterministic_rerun(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", scenario_file, "--protocols", "two_slot,first_four_slot",
                "--rho-start", "10", "--rho-stop", "20", "--rho-step", "5",
                "--mode", "all"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert _read(out1) == _read(out2)

    def test_mc_row_equals_library_call(self, tmp_path):
        # the sweep's one pass over the draws gives each row the value of a
        # one-point call; neither protocol here reads the d-factors
        out = tmp_path / "mc.csv"
        code = main(["sweep", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--d0", "0.3",
                     "--protocols", "two_slot,second_three_slot", "--rho-start", "5",
                     "--rho-stop", "15", "--rho-step", "10", "--mode", "mc",
                     "--trials", "20000", "--seed", "17", "--out", str(out)])
        assert code == 0
        lines = _read(out).splitlines()[1:]
        assert len(lines) == 4
        ant = AntennaConfig(2, 2, 2)
        for line in lines:
            rho_db, protocol, mode, mean, se = line.split(",")
            p = parse_protocol(protocol)
            pt = SweepPoint(p, power_profile(float(rho_db), 0.3))
            est = semi_analytic_sweep([pt], ant, trials=20_000, seed=17)[0]
            assert (mode, mean, se) == ("mc", f"{est.mean:.10e}", f"{est.std_error:.10e}")

    def test_single_relay_antenna_mc_rows_pinned(self, tmp_path):
        # the m_r = 1 mc rows of a fixed seed, byte for byte: a change to the
        # one-column draw, its gains or the sum-BER average shows here
        out = tmp_path / "mc.csv"
        assert main(["sweep", "--m-a", "2", "--m-r", "1", "--m-b", "2", "--mode", "mc",
                     "--rho-start", "0", "--rho-stop", "20", "--rho-step", "10",
                     "--trials", "20000", "--seed", "12345", "--out", str(out)]) == 0
        assert _read(out) == (
            "rho_ar_db,protocol,mode,sum_ber,std_error\n"
            "0.0000,first_four_slot,mc,5.9121863104e-01,3.9050301781e-04\n"
            "0.0000,first_three_slot,mc,6.2417163237e-01,5.5297443462e-04\n"
            "0.0000,second_four_slot,mc,5.9121863104e-01,3.9050301781e-04\n"
            "0.0000,second_three_slot,mc,5.6251033046e-01,6.6764637785e-04\n"
            "0.0000,two_slot,mc,5.2752771793e-01,9.6214739633e-04\n"
            "10.0000,first_four_slot,mc,2.6222485855e-01,7.7429814621e-04\n"
            "10.0000,first_three_slot,mc,2.0895830207e-01,8.5602745265e-04\n"
            "10.0000,second_four_slot,mc,2.6222485855e-01,7.7429814621e-04\n"
            "10.0000,second_three_slot,mc,1.3427095750e-01,7.8502788704e-04\n"
            "10.0000,two_slot,mc,6.5790183865e-02,6.4098448082e-04\n"
            "20.0000,first_four_slot,mc,1.5041915364e-02,2.6700949160e-04\n"
            "20.0000,first_three_slot,mc,7.2065509567e-03,1.8751377386e-04\n"
            "20.0000,second_four_slot,mc,1.5041915364e-02,2.6700949160e-04\n"
            "20.0000,second_three_slot,mc,2.6314184946e-03,1.1908997818e-04\n"
            "20.0000,two_slot,mc,7.7004364084e-04,6.6972582398e-05\n"
        )

    def test_mc_rows_reuse_prepass_blocks(self, tmp_path, monkeypatch, draws):
        # the d-factor pre-pass draws the seed's stream; the mc rows take
        # their 2 blocks from it instead of drawing them again
        prepass = -(-max(32768, simulate.D_FACTOR_TRIALS) // simulate._BLOCK)
        calls = draws
        args = ["sweep", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--rho-start", "0",
                "--rho-stop", "10", "--rho-step", "10", "--mode", "mc",
                "--trials", "32768", "--seed", "8"]
        shared, unshared = tmp_path / "shared.csv", tmp_path / "unshared.csv"
        assert main(args + ["--out", str(shared)]) == 0
        assert len(calls) == prepass
        # the same sweep with the mc rows drawing their own blocks
        calls.clear()
        sweep = cli.semi_analytic_sweep
        monkeypatch.setattr(cli, "semi_analytic_sweep",
                            lambda *a, gains=None, **kw: sweep(*a, **kw))
        assert main(args + ["--out", str(unshared)]) == 0
        assert len(calls) == prepass + 2
        assert _read(shared) == _read(unshared)

    @pytest.mark.parametrize("dims", ["2x1x2", "2x2x2", "3x3x3", "4x4x4"])
    def test_closed_rows_run_no_assembly(self, dims, monkeypatch, capsys):
        # a closed row is the lower-bound integral: the paper's assembly and
        # its moment tables (the exact Wishart expansion) serve validate alone
        def no_assembly(*args):
            raise AssertionError("closed-form assembly or its tables used")

        monkeypatch.setattr(analysis, "_closed_form_f64", no_assembly)
        monkeypatch.setattr(analysis, "_moment_groups", no_assembly)
        for name, module in list(sys.modules.items()):
            if name.startswith("twrelay") and hasattr(module, "ccdf_expansion"):
                monkeypatch.setattr(module, "ccdf_expansion", no_assembly)
        m_a, m_r, m_b = dims.split("x")
        assert main(["sweep", "--m-a", m_a, "--m-r", m_r, "--m-b", m_b, "--mode", "closed",
                     "--rho-start", "0", "--rho-stop", "60", "--rho-step", "10",
                     "--trials", "1000"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 7 * len(Protocol)

    @pytest.mark.parametrize("beta", ["0", "1"])
    def test_closed_sweep_at_a_zero_weight(self, beta, capsys):
        # beta = 0 (1) silences the bra (arb) direction of first_three_slot:
        # its BER is (a / log2 M) Q(0), half the ceiling, and the other
        # direction's is its lower-bound integral
        args = ["sweep", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--beta", beta,
                "--protocols", "first_three_slot", "--rho-start", "0", "--rho-stop", "10",
                "--rho-step", "10", "--trials", "20000"]
        assert main([*args, "--mode", "closed"]) == 0
        closed = capsys.readouterr().out.splitlines()[1:]
        assert main([*args, "--mode", "mc"]) == 0
        mc = capsys.readouterr().out.splitlines()[1:]
        sc = Scenario(m_a=2, m_r=2, m_b=2, beta=float(beta))
        p = Protocol.FIRST_THREE_SLOT
        mod = protocol_modulation(p)
        live = "arb" if beta == "0" else "bra"
        assert len(closed) == len(mc) == 2
        for rho_db, row, mc_row in zip((0.0, 10.0), closed, mc):
            pw = power_profile(rho_db, sc.d0, sc.pl_exponent)
            coeffs = coefficient_set(p, sc.antennas, pw, sc.weights())
            other = lowerbound.sum_ber([analysis._direction(live, coeffs, sc.antennas, pw)],
                                       mod.a, mod.b, mod.bits_per_symbol).value
            assert row == f"{rho_db:.4f},first_three_slot,closed,{0.5 * mod.ceiling + other:.10e},"
            _, _, _, mean, se = mc_row.split(",")
            assert float(row.split(",")[3]) <= float(mean) + 3.0 * float(se)

    @pytest.mark.parametrize("rho_db", ["1560", "2000"])
    def test_silenced_direction_past_the_double_floor(self, rho_db, monkeypatch, capsys):
        # beta = 0 silences bra; arb's sum-BER lies below the smallest normal
        # double, which leaves the row at bra's half ceiling, as at 1500 dB,
        # with no grid built (no link-law call): the floor applies to the
        # row's total, not to the live direction alone
        args = ["sweep", "--m-a", "2", "--m-r", "1", "--m-b", "2", "--mode", "closed",
                "--protocols", "first_three_slot", "--beta", "0", "--rho-step", "1"]
        assert main([*args, "--rho-start", "1500", "--rho-stop", "1500"]) == 0
        at_1500 = capsys.readouterr().out.splitlines()[1].split(",")[3]
        assert at_1500 == "4.3096440627e-01"
        calls = []
        monkeypatch.setattr(lowerbound, "link_cdf_pdf", lambda *a: calls.append(a))
        assert main([*args, "--rho-start", rho_db, "--rho-stop", rho_db]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == f"{rho_db}.0000,first_three_slot,closed,{at_1500}," and calls == []

    def test_config_error_exit(self, scenario_file, tmp_path, capsys):
        code = main(["sweep", scenario_file, "--rho-start", "0", "--rho-stop", "10",
                     "--rho-step", "-1"])
        assert code == 2
        # a seed outside Philox's 128-bit key range, on the command line or
        # in a scenario file (at m_r = 2, where gaps draws channels)
        bad_file = tmp_path / "bad_seed.scenario"
        bad_file.write_text(SCENARIO.replace("m_r = 1", "m_r = 2")
                            .replace("seed = 99", "seed = -4"))
        mc = ["sweep", scenario_file, "--rho-start", "10", "--rho-stop", "10",
              "--rho-step", "5", "--mode", "mc"]
        for args in (mc + ["--seed", "-3"],
                     mc + ["--seed", str(2 ** 128)],
                     ["kappa", scenario_file, "--m-r-list", "2", "--seed", "-3"],
                     ["gaps", str(bad_file)]):
            capsys.readouterr()
            assert main(args) == 2, args
            assert "configuration error" in capsys.readouterr().err, args


class TestGaps:
    def test_balanced_table(self, tmp_path, capsys):
        out = tmp_path / "gaps.csv"
        code = main(["gaps", "--m-a", "2", "--m-r", "1", "--m-b", "2",
                     "--rho-ar-db", "40", "--d0", "0.5", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "best protocol: two_slot" in text
        rows = _read(out).splitlines()
        assert rows[0] == "protocol,gap_db,eta_sum,beta_sq,is_best"
        best = [r for r in rows[1:] if r.endswith(",1")]
        assert len(best) == 1 and best[0].startswith("two_slot")

    def test_axis_line_leaves_csv_unchanged(self, tmp_path, capsys):
        # the printed table names its SNR-per-bit axis on a line of its own
        # before the header; the CSV is as before, bit for bit (m_r = 1
        # draws nothing)
        out = tmp_path / "gaps.csv"
        assert main(["gaps", "--m-a", "2", "--m-r", "1", "--m-b", "2",
                     "--rho-ar-db", "40", "--d0", "0.5", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("protocol"))
        assert "SNR-per-bit axis rho / log2 M" in lines[header - 1]
        assert _read(out) == (
            "protocol,gap_db,eta_sum,beta_sq,is_best\n"
            "two_slot,0.0000000000e+00,1.0000000000e+01,,1\n"
            "first_three_slot,3.1013622334e+00,2.0000000000e+01,5.0000000437e-01,0\n"
            "second_three_slot,6.6077903832e-01,6.5000000000e+00,,0\n"
            "first_four_slot,3.3547064037e+00,1.0000000000e+01,,0\n"
            "second_four_slot,3.3547064037e+00,1.0000000000e+01,5.0000000437e-01,0\n")

    def test_multi_antenna_draws_only_the_prepass(self, tmp_path, draws):
        # the d-factor pre-pass is the only Monte Carlo behind the gap table
        prepass = -(-simulate.D_FACTOR_TRIALS // simulate._BLOCK)
        calls = draws
        out = tmp_path / "gaps.csv"
        assert main(["gaps", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--trials", "1000",
                     "--seed", "4", "--out", str(out)]) == 0
        assert sorted(calls) == list(range(prepass))
        assert len(_read(out).splitlines()) == 1 + len(Protocol)
        # a configuration the analytic engine rejects fails before any draw
        calls.clear()
        assert main(["gaps", "--m-a", "1", "--m-r", "2", "--m-b", "2"]) == 2
        assert calls == []


class TestBeta:
    def test_balanced_point_and_agreement(self, tmp_path):
        out = tmp_path / "beta.csv"
        code = main(["beta", "--m-a", "1", "--m-r", "1", "--m-b", "1",
                     "--rho-ar-db", "40", "--protocol", "first_three_slot",
                     "--sweep", "d0", "--start", "0.3", "--stop", "0.5",
                     "--step", "0.1", "--out", str(out)])
        assert code == 0
        lines = _read(out).splitlines()
        assert lines[0] == "d0,beta_sq_closed_form,beta_sq_numeric"
        table = {float(l.split(",")[0]): (float(l.split(",")[1]), float(l.split(",")[2]))
                 for l in lines[1:]}
        assert table[0.5][0] == pytest.approx(0.5, abs=1e-9)
        assert table[0.3][0] == pytest.approx(0.82915, abs=1e-4)
        for closed, numeric in table.values():
            assert abs(closed - numeric) <= 1e-4

    def test_rho_sweep_header_and_rows(self, tmp_path):
        out = tmp_path / "beta.csv"
        code = main(["beta", "--m-a", "1", "--m-r", "1", "--m-b", "1", "--d0", "0.3",
                     "--protocol", "second_four_slot", "--sweep", "rho", "--start", "10",
                     "--stop", "30", "--step", "5", "--out", str(out)])
        assert code == 0
        lines = _read(out).splitlines()
        assert lines[0] == "rho_ar_db,beta_sq_closed_form,beta_sq_numeric"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "10.0000", "15.0000", "20.0000", "25.0000", "30.0000"]

    def test_closed_form_only_for_one_antenna_per_node(self, tmp_path):
        # the closed-form weight is the 1x1x1 optimum; here, where only the
        # A-R link sets the diversity order, the optimum sits at an end of
        # the interval, and the closed-form field stays empty
        out = tmp_path / "beta.csv"
        code = main(["beta", "--m-a", "2", "--m-r", "1", "--m-b", "3",
                     "--protocol", "first_three_slot", "--sweep", "rho", "--start", "0",
                     "--stop", "40", "--step", "20", "--out", str(out)])
        assert code == 0
        lines = _read(out).splitlines()
        assert lines[0] == "rho_ar_db,beta_sq_closed_form,beta_sq_numeric"
        assert len(lines) == 4
        for line in lines[1:]:
            _, closed, numeric = line.split(",")
            assert closed == ""
            assert 0.0 < float(numeric) < 1e-6

    def test_dual_reception_with_relay_array(self, tmp_path):
        # second_four_slot with m_r > 1 needs the Monte-Carlo dual-reception
        # factors, which a pre-pass estimates
        out = tmp_path / "beta.csv"
        code = main(["beta", "--m-a", "2", "--m-r", "2", "--m-b", "2",
                     "--protocol", "second_four_slot", "--sweep", "rho", "--start", "10",
                     "--stop", "30", "--step", "10", "--out", str(out)])
        assert code == 0
        lines = _read(out).splitlines()
        assert lines[0] == "rho_ar_db,beta_sq_closed_form,beta_sq_numeric"
        assert [line.split(",")[0] for line in lines[1:]] == ["10.0000", "20.0000", "30.0000"]
        for line in lines[1:]:
            assert 0.0 < float(line.split(",")[2]) < 1.0


class TestKappa:
    def test_factors_vs_relay_antennas(self, tmp_path):
        out = tmp_path / "kappa.csv"
        code = main(["kappa", "--m-a", "2", "--m-b", "2", "--rho-ar-db", "30",
                     "--d0", "0.5", "--trials", "30000", "--seed", "4",
                     "--m-r-list", "1,2", "--out", str(out)])
        assert code == 0
        lines = _read(out).splitlines()
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert float(first[1]) == 2.0   # single relay antenna is exact
        assert float(second[1]) < 2.0
        assert float(second[1]) > 1.0


class TestValidate:
    def test_underpowered_warns_and_passes(self, scenario_file, capsys):
        code = main(["validate", scenario_file, "--trials", "1000"])
        captured = capsys.readouterr()
        assert code == 0
        assert "underpowered" in captured.out + captured.err

    def test_full_budget_passes(self, monkeypatch, capsys):
        # the default budget, 100 000 trials at seed 12345, runs every
        # statistical check; the checks and their order are pinned, so that
        # none leaves or is renamed unnoticed
        monkeypatch.delenv("TWRELAY_SEED", raising=False)
        assert main(["validate"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "10 passed, 0 failed, 0 skipped"
        assert [line.split()[1] for line in out[:-1]] == [
            "mr1_reduction", "unified_dual_agreement_mr1", "e2e_cdf_shape",
            "closed_vs_quadrature", "slope_2x1x2",
            "slope_2x2x2_first_four_slot", "ks_all_protocols_2x1x2", "ks_first_four_slot_2x2x2",
            "ks_second_three_slot_2x2x2", "lower_bound_ordering"]

    def test_ordering_passes_at_seed_13(self, capsys):
        # at 30 dB the ordering check's z-score misfired at seed 13; at
        # 10 dB Monte Carlo resolves the mean
        assert main(["validate", "--seed", "13"]) == 0
        assert "10 passed, 0 failed, 0 skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [1, 13, 12345])
    def test_ordering_catches_a_raised_closed_form(self, monkeypatch, seed):
        # a lower bound 5% too high lies above the exact form's estimate
        lower = validate.sum_ber_quadrature
        monkeypatch.setattr(validate, "sum_ber_quadrature", lambda *a: 1.05 * lower(*a))
        res = validate.check_lower_bound_ordering(PowerProfile.balanced(10.0), 100_000, seed)
        assert not res.passed, res.line()

    def test_top_seed_keeps_its_sub_streams(self, capsys):
        # the checks' own streams wrap around the Philox key range, so the
        # largest seed runs every check
        code = main(["validate", "--seed", str(2 ** 128 - 1), "--trials", "10000"])
        captured = capsys.readouterr()
        assert code != 2
        assert "configuration error" not in captured.err
        assert ", 0 skipped" in captured.out
        assert sum(line.startswith(("PASS", "FAIL")) for line in captured.out.splitlines()) == 10

    def test_perturbed_cdf_fails_ks(self, scenario_file, capsys, monkeypatch):
        # the CDF under test off by the term that an expansion coefficient
        # wrong by 1/20 adds to a link CDF, -(1/20) (1 + u + u^2 / 2) e^(-u)
        # at u = x / rho_ar
        e2e_cdf = validate.e2e_cdf

        def wrong(direction, xs, coeffs, ant, pw):
            u = np.asarray(xs) / pw.rho_ar
            return (e2e_cdf(direction, xs, coeffs, ant, pw)
                    - 0.05 * (1.0 + u + 0.5 * u * u) * np.exp(-u))

        monkeypatch.setattr(validate, "e2e_cdf", wrong)
        code = main(["validate", scenario_file, "--trials", "20000"])
        out = capsys.readouterr().out
        assert code == 4
        line = next(row for row in out.splitlines() if "ks_first_four_slot_2x2x2" in row)
        assert line.startswith("FAIL")

    def test_env_seed_override(self, scenario_file, tmp_path, monkeypatch):
        # the env var must change MC output when the file carries no seed
        f = tmp_path / "noseed.scenario"
        f.write_text("m_a = 2\nm_r = 1\nm_b = 2\nrho_ar_db = 20\nd0 = 0.5\ntrials = 3000\n")
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep", str(f), "--protocols", "two_slot", "--rho-start", "10",
                "--rho-stop", "10", "--rho-step", "5", "--mode", "mc"]
        monkeypatch.setenv("TWRELAY_SEED", "1")
        assert main(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv("TWRELAY_SEED", "2")
        assert main(args + ["--out", str(out2)]) == 0
        assert _read(out1) != _read(out2)


    def test_malformed_env_seed(self, scenario_file, monkeypatch, capsys):
        args = ["sweep", scenario_file, "--protocols", "two_slot", "--rho-start", "10",
                "--rho-stop", "10", "--rho-step", "5", "--mode", "mc"]
        monkeypatch.setenv("TWRELAY_SEED", "abc")
        assert main(args) == 2
        assert "configuration error: TWRELAY_SEED" in capsys.readouterr().err
        # a well-formed seed outside the key range
        monkeypatch.setenv("TWRELAY_SEED", "-2")
        assert main(["validate", scenario_file]) == 2
        assert "configuration error" in capsys.readouterr().err
        monkeypatch.setenv("TWRELAY_SEED", "abc")
        # an explicit --seed does not read the environment
        assert main(args + ["--seed", "5"]) == 0


GEOMETRY = ("--m-a", "--m-r", "--m-b", "--rho-ar-db", "--d0", "--pl-exponent",
            "--relay-rho-db")
SWEEP_ARGS = ["--rho-start", "10", "--rho-stop", "10", "--rho-step", "10"]
BETA_ARGS = ["--protocol", "first_three_slot", "--sweep", "d0", "--start", "0.3",
             "--stop", "0.5", "--step", "0.1"]


class TestCommandInputs:
    """Each command takes only the flags it reads, and checks its whole
    configuration before it draws a channel."""

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", *SWEEP_ARGS], "--rho-ar-db"),
        (["gaps"], "--beta"),
        (["beta", *BETA_ARGS], "--beta"),
        (["kappa"], "--m-r"),
        *((["validate"], flag) for flag in GEOMETRY),
    ])
    def test_unread_flag_is_refused(self, argv, flag):
        # the command line parses without the flag, and with it exits 2; the
        # value 1 is of the type of every scenario flag
        cli.build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sweep, flag", [("d0", "--d0"), ("rho", "--rho-ar-db")])
    def test_beta_refuses_the_swept_field(self, sweep, flag, capsys, draws):
        code = main(["beta", "--m-a", "2", "--m-r", "2", "--m-b", "2",
                     "--protocol", "second_four_slot", "--sweep", sweep, "--start", "0.3",
                     "--stop", "0.5", "--step", "0.1", flag, "0.7"])
        assert code == 2
        assert f"leave out {flag}" in capsys.readouterr().err
        assert draws == []

    @pytest.mark.parametrize("argv", [
        ["sweep", "--m-a", "1", "--m-r", "2", "--m-b", "2", "--mode", "closed", *SWEEP_ARGS],
        ["sweep", "--m-a", "5", "--m-r", "2", "--m-b", "5", "--mode", "asymptote", *SWEEP_ARGS],
        # the weighted protocols' beta comes from the analytic engines
        ["sweep", "--m-a", "1", "--m-r", "2", "--m-b", "2", "--mode", "mc", *SWEEP_ARGS],
        ["sweep", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--beta", "1.5", *SWEEP_ARGS],
        ["beta", "--m-a", "1", "--m-r", "2", "--m-b", "2", "--protocol", "second_four_slot",
         "--sweep", "rho", "--start", "10", "--stop", "30", "--step", "10"],
        # d0 = 1 at the last step
        ["beta", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--protocol", "second_four_slot",
         "--sweep", "d0", "--start", "0.5", "--stop", "1.0", "--step", "0.25"],
        ["gaps", "--m-a", "5", "--m-r", "2", "--m-b", "5"],
        ["kappa", "--m-r-list", "2,0"],
        ["kappa", "--m-r-list", "2,x"],
        # one trial gives no standard error
        ["sweep", "--m-r", "2", "--mode", "all", "--protocols", "second_four_slot",
         *SWEEP_ARGS, "--trials", "1"],
        ["gaps", "--m-r", "2", "--trials", "1"],
        ["beta", "--m-r", "2", "--protocol", "second_four_slot", "--sweep", "rho",
         "--start", "10", "--stop", "30", "--step", "10", "--trials", "1"],
        ["kappa", "--m-a", "2", "--m-b", "2", "--m-r-list", "2", "--trials", "1"],
        ["validate", "--trials", "1"],
        # a zero weight silences a direction, which has no power law
        ["sweep", "--mode", "all", "--protocols", "first_three_slot", "--beta", "0",
         *SWEEP_ARGS],
        ["sweep", "--mode", "asymptote", "--protocols", "first_three_slot", "--beta", "1",
         *SWEEP_ARGS],
    ])
    def test_configuration_error_before_any_draw(self, argv, capsys, draws):
        # a budget of 1000 trials unless the case gives its own, which comes
        # later on the command line and so wins
        assert main([argv[0], "--trials", "1000", *argv[1:]]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert draws == []

    @pytest.mark.parametrize("argv, env_seed", [
        # trial budgets below 1 and seeds outside Philox's key range, also
        # where the command draws nothing, from a flag, the environment or
        # a scenario file ("{file}" holds trials = 0)
        (["gaps", "--seed", "-1"], None),
        (["gaps", "--seed", str(2 ** 128)], None),
        (["kappa", "--m-r-list", "1", "--seed", "-1"], None),
        (["gaps"], "-3"),
        (["gaps", "--m-r", "2", "--trials", "0"], None),
        (["sweep", "--mode", "closed", "--rho-start", "0", "--rho-stop", "0", "--rho-step", "1",
          "--trials", "-5"], None),
        (["validate", "--trials", "0"], None),
        (["gaps", "{file}"], None),
        # dB inputs whose SNR is not a positive finite double, and grids
        # with a bound that is not finite
        (["gaps", "--rho-ar-db", "1e6"], None),
        (["gaps", "--rho-ar-db", "inf"], None),
        (["gaps", "--relay-rho-db", "nan"], None),
        (["sweep", "--mode", "closed", "--rho-start", "0", "--rho-stop", "inf",
          "--rho-step", "10"], None),
        (["sweep", "--mode", "closed", "--rho-start", "0", "--rho-stop", "10",
          "--rho-step", "nan"], None),
        (["beta", "--protocol", "first_three_slot", "--sweep", "rho", "--start", "inf",
          "--stop", "inf", "--step", "1"], None),
    ])
    def test_input_out_of_range(self, argv, env_seed, tmp_path, monkeypatch, capsys, draws):
        # each exits 2 with a configuration error, before any draw
        zero_trials = tmp_path / "zero_trials.scenario"
        zero_trials.write_text(SCENARIO.replace("trials = 4000", "trials = 0"))
        if env_seed is None:
            monkeypatch.delenv("TWRELAY_SEED", raising=False)
        else:
            monkeypatch.setenv("TWRELAY_SEED", env_seed)
        assert main([arg.replace("{file}", str(zero_trials)) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert draws == []

    @pytest.mark.parametrize("ant, rho_db, outcome, kernel_calls", [
        (["2", "1", "2"], "300", "7.5000000000e-60", 1),
        (["2", "1", "2"], "1000", "7.5000000000e-200", 1),
        (["2", "1", "2"], "1500", "7.5000000000e-300", 1),
        (["2", "1", "2"], "2000", "numerical failure: the sum-BER lies below the smallest normal "
                                  "double (2.2e-308): its bound from the link scales is 0.0", 0),
        (["2", "1", "2"], "3080", "numerical failure: the sum-BER lies below the smallest normal "
                                  "double (2.2e-308): its bound from the link scales is 0.0", 0),
        (["2", "2", "2"], "200", "1.4875000000e-78", 1),
    ], ids=["2x1x2-300dB", "2x1x2-1000dB", "2x1x2-1500dB", "2x1x2-2000dB", "2x1x2-3080dB",
            "2x2x2-200dB"])
    def test_closed_form_at_extreme_snr(self, ant, rho_db, outcome, kernel_calls, monkeypatch,
                                        capsys):
        # where the sum-BER's bound rules out the double-precision assembly
        # the grid answers, from its first pass (one link-law call); where
        # that bound already lies below the smallest normal double, a
        # numerical failure before any grid (no link-law call), neither a
        # traceback nor a RuntimeWarning
        argv = ["sweep", "--m-a", ant[0], "--m-r", ant[1], "--m-b", ant[2], "--mode", "closed",
                "--protocols", "two_slot", "--rho-start", rho_db, "--rho-stop", rho_db,
                "--rho-step", "1"]
        calls = Counter()
        kernel = lowerbound.link_cdf_pdf

        def counting_kernel(*args):
            calls["link_cdf_pdf"] += 1
            return kernel(*args)
        monkeypatch.setattr(lowerbound, "link_cdf_pdf", counting_kernel)
        code = main(argv)
        out, err = capsys.readouterr()
        assert calls["link_cdf_pdf"] == kernel_calls
        if outcome.startswith("numerical failure"):
            assert code == 3 and err.startswith(outcome)
        else:
            assert code == 0 and out.splitlines()[1] == f"{rho_db}.0000,two_slot,closed,{outcome},"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--mode", "closed",
         "--rho-start", "2000", "--rho-stop", "2000", "--rho-step", "1"],
        ["kappa", "--m-a", "2", "--m-b", "2", "--rho-ar-db", "2000", "--m-r-list", "2"],
    ], ids=["sweep-2x2x2-2000dB", "kappa-2x2x2-2000dB"])
    def test_d_factor_failure_is_numerical(self, argv, capsys):
        # the branch SNRs' squares overflow at 2000 dB: a numerical failure,
        # not a configuration error, and no RuntimeWarning (an error under
        # this suite's warning filter)
        assert main([*argv, "--trials", "2000"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: the dual-reception factors")

    def test_d_factors_past_the_wishart_kernel_range(self, capsys):
        # at 16 x 16 the Wishart kernel's mean takes the root of a negative
        # pivot: the estimate leaves out the two top-eigenvalue controls and
        # keeps the four Gamma ones
        assert main(["kappa", "--m-a", "16", "--m-b", "16", "--m-r-list", "16",
                     "--trials", "2000"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        d, se = [float(v) for v in row[1:5]], [float(v) for v in row[5:]]
        assert row[0] == "16" and all(1.3 < v < 1.45 for v in d) and all(0 < v < 1e-3 for v in se)

    def test_flags_checked_after_the_file(self, tmp_path, capsys):
        # the budget, the seed and the geometry are checked once the flags
        # have overridden the scenario file's
        f = tmp_path / "out_of_range.scenario"
        f.write_text(SCENARIO.replace("trials = 4000", "trials = 0")
                     .replace("seed = 99", "seed = -1").replace("d0 = 0.5", "d0 = 2"))
        assert main(["gaps", str(f), "--trials", "5", "--seed", "3", "--d0", "0.5"]) == 0
        assert "best protocol" in capsys.readouterr().out
        assert main(["gaps", str(f)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("beta", ["0", "1"])
    def test_mc_sweep_at_a_zero_weight(self, beta, capsys):
        # beta = 0 (1) silences the bra (arb) direction of the weighted
        # protocols: its SNR is 0 at every draw and its BER half the
        # ceiling, so each first_three_slot row lies above half the ceiling
        assert main(["sweep", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--beta", beta,
                     "--protocols", "first_three_slot,second_four_slot", *SWEEP_ARGS,
                     "--mode", "mc", "--trials", "1000"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["first_three_slot", "second_four_slot"]
        ceiling = protocol_modulation(Protocol.FIRST_THREE_SLOT).ceiling
        assert 0.5 * ceiling < float(rows[0][3]) < ceiling
        assert all(0.0 < float(row[4]) < 1e-2 for row in rows)

    @pytest.mark.parametrize("argv", [
        ["--m-a", "1", "--m-r", "2", "--m-b", "2", "--beta", "0.6"],
        ["--m-a", "6", "--m-r", "5", "--m-b", "6", "--protocols", "two_slot"],
    ])
    def test_mc_sweep_outside_the_analytic_range(self, argv, capsys):
        # Monte Carlo alone serves these: no weight is optimised
        assert main(["sweep", *argv, *SWEEP_ARGS, "--mode", "mc", "--trials", "1000"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(row.split(",")[2] == "mc" for row in rows)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "twrelay.cli", "gaps",
                               "--m-a", "2", "--m-r", "1", "--m-b", "2",
                               "--rho-ar-db", "40", "--d0", "0.5"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": "src"})
        assert proc.returncode == 0
        assert "best protocol: two_slot" in proc.stdout

    def test_calls_in_one_process_print_what_fresh_processes_print(self, capsys):
        # the parser is built once per process; calls that share it print,
        # each, what the command prints in a process of its own
        calls = [
            ["sweep", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--rho-start", "0",
             "--rho-stop", "20", "--rho-step", "10", "--trials", "3000", "--seed", "5"],
            ["gaps", "--m-a", "3", "--m-r", "2", "--m-b", "4", "--d0", "0.3"],
            ["sweep", "--m-a", "2", "--m-r", "1", "--m-b", "3", "--rho-start", "5",
             "--rho-stop", "15", "--rho-step", "5", "--mode", "mc",
             "--protocols", "two_slot,second_four_slot", "--beta", "0.6", "--trials", "2000"],
        ]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        for argv in calls:
            assert main(argv) == 0
            proc = subprocess.run([sys.executable, "-m", "twrelay.cli", *argv],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0
            assert capsys.readouterr().out == proc.stdout, argv
