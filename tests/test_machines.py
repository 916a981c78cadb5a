import pytest

from futurity import (
    DegenerateMode,
    DomainError,
    InvalidDistribution,
    MultipointDistribution,
    TwoPointArm,
    empirical_two_point,
    expected_payout,
    fair_payout,
    fair_two_point,
    format_machine_file,
    load_machine_file,
    mills_modes,
    oracle_profit,
    parse_machine_text,
    single_arm_chain,
    win_probability,
)
from futurity.machines import MILLS_MODE_E_PROBS, MILLS_MODE_O_PROBS, MILLS_REWARDS


class TestMillsConstants:
    def test_tables_exact(self):
        mode_e, mode_o = mills_modes()
        assert tuple(r for r, _ in mode_e.entries) == MILLS_REWARDS
        assert tuple(p for _, p in mode_e.entries) == MILLS_MODE_E_PROBS
        assert tuple(p for _, p in mode_o.entries) == MILLS_MODE_O_PROBS
        assert mode_e.entries[0] == (0.0, 0.968)
        assert mode_o.entries[0] == (0.0, 0.357)

    def test_probabilities_sum_to_one(self):
        for dist in mills_modes():
            assert abs(sum(p for _, p in dist.entries) - 1.0) <= 1e-12

    def test_zero_probability_entries_preserved(self):
        mode_e, mode_o = mills_modes()
        assert (18.0, 0.0) in mode_e.entries and (150.0, 0.0) in mode_e.entries
        assert (10.0, 0.0) in mode_o.entries and (14.0, 0.0) in mode_o.entries

    def test_win_probabilities(self):
        mode_e, mode_o = mills_modes()
        assert win_probability(mode_e) == pytest.approx(0.032, abs=1e-15)
        assert win_probability(mode_o) == pytest.approx(0.643, abs=1e-15)


class TestReductions:
    def test_fair_two_point_values(self):
        mode_e, mode_o = mills_modes()
        arm_e = fair_two_point(mode_e)
        arm_o = fair_two_point(mode_o)
        assert arm_e.u == fair_payout(win_probability(mode_e))
        assert arm_e.u == pytest.approx(2.936 / 1.968, abs=1e-12)
        assert arm_o.u == pytest.approx(1.714 / 1.357, abs=1e-12)

    def test_fair_two_point_is_fair(self):
        for dist in mills_modes():
            arm = fair_two_point(dist)
            profit = oracle_profit(single_arm_chain(arm.p, arm.u)).casino_profit
            assert abs(profit) <= 1e-12

    def test_empirical_two_point_values(self):
        mode_e, mode_o = mills_modes()
        assert empirical_two_point(mode_e).u == pytest.approx(8.75, rel=1e-12)
        assert empirical_two_point(mode_o).u == pytest.approx(2.234 / 0.643, rel=1e-12)

    def test_expected_payouts(self):
        mode_e, mode_o = mills_modes()
        assert expected_payout(mode_e) == pytest.approx(0.28, rel=1e-12)
        assert expected_payout(mode_o) == pytest.approx(2.234, rel=1e-12)
        assert expected_payout(TwoPointArm(0.25, 2.0)) == 0.5

    def test_degenerate_modes(self):
        all_win = MultipointDistribution(((5.0, 1.0),))
        with pytest.raises(DegenerateMode):
            fair_two_point(all_win)
        all_lose = MultipointDistribution(((0.0, 1.0),))
        with pytest.raises(DegenerateMode):
            fair_two_point(all_lose)
        with pytest.raises(DegenerateMode):
            empirical_two_point(all_lose)
        assert win_probability(all_win) == 1.0

    def test_half_probability_payout(self):
        dist = MultipointDistribution(((0.0, 0.5), (9.0, 0.5)))
        assert fair_two_point(dist).u == pytest.approx(4.0 / 3.0, rel=1e-15)


class TestDistributionValidation:
    def test_bad_sum(self):
        with pytest.raises(InvalidDistribution):
            MultipointDistribution(((0.0, 0.5), (1.0, 0.499)))

    def test_duplicate_reward(self):
        with pytest.raises(InvalidDistribution):
            MultipointDistribution(((1.0, 0.5), (1.0, 0.5)))

    def test_negative_reward(self):
        with pytest.raises(InvalidDistribution):
            MultipointDistribution(((-1.0, 1.0),))

    def test_two_zero_entries_forbidden_by_distinctness(self):
        with pytest.raises(InvalidDistribution):
            MultipointDistribution(((0.0, 0.5), (0.0, 0.5)))

    def test_probability_out_of_range(self):
        with pytest.raises(InvalidDistribution):
            MultipointDistribution(((0.0, 1.5), (1.0, -0.5)))

    def test_empty(self):
        with pytest.raises(InvalidDistribution):
            MultipointDistribution(())

    def test_two_point_validation(self):
        with pytest.raises(DomainError):
            TwoPointArm(1.5, 1.0)
        with pytest.raises(DomainError):
            TwoPointArm(0.5, -1.0)
        for payout in (float("inf"), float("nan")):
            with pytest.raises(DomainError):
                TwoPointArm(0.5, payout)


class TestMachineFiles:
    def test_mills_round_trip_bit_exact(self, tmp_path):
        mode_e, mode_o = mills_modes()
        path = tmp_path / "mills.machine"
        path.write_text(format_machine_file(mode_e, mode_o, comment="antique Mills"), encoding="utf-8")
        loaded_e, loaded_o = load_machine_file(path)
        assert loaded_e.entries == mode_e.entries
        assert loaded_o.entries == mode_o.entries

    def test_parse_comments_and_blank_lines(self):
        text = """
# a simple machine
0 0.5   # loss
2.0 0.5

# arm B
0 0.25
1.5 0.75
"""
        mode_a, mode_b = parse_machine_text(text)
        assert mode_a.entries == ((0.0, 0.5), (2.0, 0.5))
        assert mode_b.entries == ((0.0, 0.25), (1.5, 0.75))

    def test_single_mode_rejected(self):
        with pytest.raises(InvalidDistribution):
            parse_machine_text("0 0.5\n2 0.5\n")

    def test_three_modes_rejected(self):
        block = "0 0.5\n2 0.5\n"
        with pytest.raises(InvalidDistribution):
            parse_machine_text(block + "\n" + block + "\n" + block)

    def test_malformed_line(self):
        with pytest.raises(InvalidDistribution) as err:
            parse_machine_text("0 0.5 junk\n2 0.5\n\n0 0.5\n2 0.5\n")
        assert "line 1" in str(err.value)

    def test_non_numeric(self):
        with pytest.raises(InvalidDistribution):
            parse_machine_text("zero 0.5\n2 0.5\n\n0 0.5\n2 0.5\n")

    def test_invariants_enforced_per_mode(self):
        with pytest.raises(InvalidDistribution):
            parse_machine_text("0 0.6\n2 0.5\n\n0 0.5\n2 0.5\n")
