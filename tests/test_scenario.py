"""Domain types, modulation constants, the protocol constant tables, the
path-loss geometry, and scenario-file parsing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twrelay.errors import ConfigurationError
from twrelay.scenario import (AntennaConfig, BALANCED_WEIGHTS, DFactors,
                              MR1_DFACTORS, PowerProfile, Protocol, Scenario,
                              WeightPair, coefficient_set, load_scenario,
                              modulation_constants, parse_protocol,
                              power_profile, protocol_modulation)


class TestProtocol:
    def test_slot_counts(self):
        assert [p.slot_count for p in Protocol] == [2, 3, 3, 4, 4]

    def test_weight_flags(self):
        assert {p for p in Protocol if p.uses_weights} == {
            Protocol.FIRST_THREE_SLOT, Protocol.SECOND_FOUR_SLOT}

    def test_parse(self):
        assert parse_protocol("Second-Three-Slot") is Protocol.SECOND_THREE_SLOT
        with pytest.raises(ConfigurationError):
            parse_protocol("five_slot")


class TestModulation:
    def test_bpsk(self):
        m = modulation_constants("bpsk")
        assert (m.a, m.b, m.m) == (1.0, 1.0, 2)

    def test_qpsk(self):
        m = modulation_constants("mpsk", 4)
        assert m.a == 2.0
        assert m.b == pytest.approx(0.5, rel=1e-15)
        assert m.m == 4

    def test_16qam(self):
        m = modulation_constants("mqam", 16)
        assert m.a == pytest.approx(3.0)
        assert m.b == pytest.approx(0.1)

    def test_rate_normalized_mapping(self):
        assert protocol_modulation(Protocol.TWO_SLOT).m == 4
        assert protocol_modulation(Protocol.SECOND_THREE_SLOT).m == 8
        assert protocol_modulation(Protocol.SECOND_FOUR_SLOT).m == 16

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            modulation_constants("mqam", 12)
        with pytest.raises(ConfigurationError):
            modulation_constants("mpsk", 1)


class TestPowerProfile:
    def test_midpoint_is_balanced(self):
        pw = power_profile(40.0, 0.5, 3.0)
        assert pw.rho_br == pytest.approx(pw.rho_ar, rel=1e-12)

    def test_placement_loss(self):
        pw = power_profile(40.0, 0.3, 3.0)
        expected_db = 40.0 - 30.0 * math.log10(7.0 / 3.0)
        assert 10.0 * math.log10(pw.rho_br) == pytest.approx(expected_db, abs=1e-10)
        assert expected_db == pytest.approx(28.96, abs=5e-3)

    def test_relay_override(self):
        pw = power_profile(40.0, 0.3, 3.0, relay_rho_db=30.0)
        assert pw.rho_ra == pytest.approx(1e3)
        assert pw.rho_rb == pytest.approx(1e3)

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            power_profile(40.0, 0.0, 3.0)
        with pytest.raises(ConfigurationError):
            power_profile(40.0, 1.0, 3.0)
        with pytest.raises(ConfigurationError):
            PowerProfile(1.0, 1.0, 1.0, 2.0)


class TestWeightPair:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_from_beta_squared_valid(self, b2):
        w = WeightPair.from_beta_squared(b2)
        assert w.alpha ** 2 + w.beta ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_off_circle(self):
        with pytest.raises(ConfigurationError):
            WeightPair(0.5, 0.5)
        with pytest.raises(ConfigurationError):
            WeightPair(-0.6, 0.8)


class TestCoefficientSet:
    def test_two_slot_balanced(self):
        ant = AntennaConfig(2, 1, 2)
        pw = PowerProfile.balanced(30.0)
        c = coefficient_set(Protocol.TWO_SLOT, ant, pw)
        assert (c.a_bra, c.b_bra, c.c_bra) == (1.0, 1.0, 2.0)
        assert (c.a_arb, c.b_arb, c.c_arb) == (1.0, 1.0, 2.0)

    def test_first_four_slot(self):
        c = coefficient_set(Protocol.FIRST_FOUR_SLOT, AntennaConfig(3, 2, 1),
                            PowerProfile.balanced(10.0))
        assert (c.a_bra, c.b_bra, c.c_bra, c.a_arb, c.b_arb, c.c_arb) == \
            (0.5, 1.0, 0.5, 0.5, 1.0, 0.5)

    def test_second_three_slot_with_factor(self):
        d = DFactors(1.25, 1.25, 1.5, 1.5)
        c = coefficient_set(Protocol.SECOND_THREE_SLOT, AntennaConfig(2, 2, 2),
                            PowerProfile.balanced(30.0), d=d)
        assert c.a_bra == pytest.approx(0.625)
        assert c.b_bra == 1.0
        assert c.c_bra == pytest.approx(1.5)

    def test_single_relay_antenna_matches_degenerate_factors(self):
        # the multi-antenna rows with factors pinned at 2 must coincide with
        # the single-antenna rows for every protocol
        ant1 = AntennaConfig(2, 1, 2)
        ant2 = AntennaConfig(2, 2, 2)
        pw = power_profile(33.0, 0.4, 3.0)
        for p in Protocol:
            w = BALANCED_WEIGHTS if p.uses_weights else None
            c1 = coefficient_set(p, ant1, pw, w)
            c2 = coefficient_set(p, ant2, pw, w, MR1_DFACTORS)
            assert c1 == c2

    def test_symmetric_protocols_swap(self):
        pw = PowerProfile.balanced(25.0)
        ant = AntennaConfig(2, 1, 2)
        for p in (Protocol.TWO_SLOT, Protocol.FIRST_FOUR_SLOT, Protocol.SECOND_THREE_SLOT):
            c = coefficient_set(p, ant, pw)
            assert (c.a_arb, c.b_arb, c.c_arb) == (c.a_bra, c.b_bra, c.c_bra)

    def test_positivity_and_a_cap(self):
        pw = power_profile(30.0, 0.35, 3.0)
        for p in Protocol:
            w = WeightPair.from_beta_squared(0.37) if p.uses_weights else None
            d = DFactors(1.5, 1.5, 1.6, 1.6)
            c = coefficient_set(p, AntennaConfig(2, 2, 2), pw, w, d)
            vals = (c.a_arb, c.b_arb, c.c_arb, c.a_bra, c.b_bra, c.c_bra)
            assert all(v > 0.0 for v in vals)
            assert c.a_arb <= 1.0 and c.a_bra <= 1.0

    def test_continuity_in_beta(self):
        pw = PowerProfile.balanced(20.0)
        ant = AntennaConfig(1, 1, 1)
        prev = None
        for b2 in [i / 200 for i in range(1, 200)]:
            c = coefficient_set(Protocol.FIRST_THREE_SLOT, ant, pw,
                                WeightPair.from_beta_squared(b2))
            if prev is not None:
                assert abs(c.a_bra - prev.a_bra) < 0.01
                assert abs(c.c_arb - prev.c_arb) < 0.01
            prev = c

    def test_contracts(self):
        pw = PowerProfile.balanced(20.0)
        with pytest.raises(ConfigurationError):
            coefficient_set(Protocol.FIRST_THREE_SLOT, AntennaConfig(1, 1, 1), pw)
        with pytest.raises(ConfigurationError):
            coefficient_set(Protocol.SECOND_THREE_SLOT, AntennaConfig(2, 2, 2), pw)
        with pytest.raises(ConfigurationError):
            DFactors(2.5, 1.5, 1.5, 1.5)


class TestScenarioFile:
    def test_roundtrip(self, tmp_path):
        f = tmp_path / "run.scenario"
        f.write_text(
            "# comment line\n"
            "protocol = second_four_slot\n"
            "m_a = 2\nm_r = 1\nm_b = 2\n"
            "rho_ar_db = 40\n"
            "d0 = 0.3\n"
            "pl_exponent = 3\n"
            "relay_rho_db = 40\n"
            "beta = 0.92\n"
            "trials = 5000\n"
            "seed = 77\n")
        sc = load_scenario(f)
        assert sc.protocol is Protocol.SECOND_FOUR_SLOT
        assert sc.antennas == AntennaConfig(2, 1, 2)
        assert sc.trials == 5000 and sc.seed == 77
        assert sc.weights().beta == pytest.approx(0.92)

    def test_unknown_key_fails_fast(self, tmp_path):
        f = tmp_path / "bad.scenario"
        f.write_text("m_a = 2\nrho_db = 40\n")
        with pytest.raises(ConfigurationError, match="unknown scenario key"):
            load_scenario(f)

    def test_bad_value(self, tmp_path):
        f = tmp_path / "bad2.scenario"
        f.write_text("m_a = two\n")
        with pytest.raises(ConfigurationError, match="cannot parse"):
            load_scenario(f)

    def test_defaults(self):
        sc = Scenario()
        assert sc.powers.rho_ra == sc.powers.rho_ar
