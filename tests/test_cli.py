"""Command-line driver: CSV schemas, determinism, exit codes, and the
scenario-file surface."""

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from twrelay import cli, simulate, validate
from twrelay.cli import main
from twrelay.scenario import (AntennaConfig, Protocol, parse_protocol, power_profile,
                              protocol_modulation)
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

    def test_mc_rows_reuse_prepass_blocks(self, tmp_path, monkeypatch):
        # the d-factor pre-pass draws the seed's stream; the mc rows take
        # their 2 blocks from it instead of drawing them again
        prepass = -(-max(32768, simulate.D_FACTOR_TRIALS) // simulate._BLOCK)
        draw = ChannelStream.draw_block
        calls = []

        def counting_draw(stream, ant, block):
            calls.append(block)
            return draw(stream, ant, block)
        monkeypatch.setattr(ChannelStream, "draw_block", counting_draw)
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

    def test_multi_antenna_draws_only_the_prepass(self, tmp_path, monkeypatch):
        # the d-factor pre-pass is the only Monte Carlo behind the gap table
        prepass = -(-simulate.D_FACTOR_TRIALS // simulate._BLOCK)
        draw = ChannelStream.draw_block
        calls = []

        def counting_draw(stream, ant, block):
            calls.append(block)
            return draw(stream, ant, block)
        monkeypatch.setattr(ChannelStream, "draw_block", counting_draw)
        out = tmp_path / "gaps.csv"
        assert main(["gaps", "--m-a", "2", "--m-r", "2", "--m-b", "2", "--trials", "1000",
                     "--seed", "4", "--out", str(out)]) == 0
        assert calls == list(range(prepass))
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
        # statistical check
        monkeypatch.delenv("TWRELAY_SEED", raising=False)
        assert main(["validate"]) == 0
        assert "15 passed, 0 failed, 0 skipped" in capsys.readouterr().out

    def test_top_seed_keeps_its_sub_streams(self, capsys):
        # the checks' own streams wrap around the Philox key range, so the
        # largest seed runs every check
        code = main(["validate", "--seed", str(2 ** 128 - 1), "--trials", "10000"])
        captured = capsys.readouterr()
        assert code != 2
        assert "configuration error" not in captured.err
        assert ", 0 skipped" in captured.out
        assert sum(line.startswith(("PASS", "FAIL")) for line in captured.out.splitlines()) == 15

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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "twrelay.cli", "gaps",
                               "--m-a", "2", "--m-r", "1", "--m-b", "2",
                               "--rho-ar-db", "40", "--d0", "0.5"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": "src"})
        assert proc.returncode == 0
        assert "best protocol: two_slot" in proc.stdout
