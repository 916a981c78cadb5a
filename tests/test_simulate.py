import random
import tracemalloc
import warnings

import numpy as np
import pytest

from futurity import (
    ArmProbabilities,
    ChainSpec,
    DomainError,
    SimConfig,
    TwoPointArm,
    cumulative_trajectory,
    derive_seed,
    fair_chain,
    fair_payout,
    mills_modes,
    mixture_chain,
    oracle_profit,
    parse_strategy,
    random_mix_profit,
    replicate,
    replicate_mixture,
    simulate_mixture_once,
    simulate_once,
    single_arm_chain,
)
from futurity import simulate

PROBS = ArmProbabilities(0.3, 0.7)


def scalar_reference(spec, coups, seed):
    """Slow per-coup replay of the machine, sharing only the RNG stream.

    Consumes one uniform per coup in coup order (matching the engine's draw
    contract) and walks the streak counter explicitly, so it independently
    checks the vectorized award accounting. Returns the same totals as the
    engine's ledger plus the per-coup profit series.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    uniforms = rng.random(coups)
    streak = 0
    wins = 0
    payouts = 0.0
    awards = 0
    profits = []
    for t in range(coups):
        arm = spec.arms[spec.sequence[t % spec.n]]
        u = uniforms[t]
        if isinstance(arm, TwoPointArm):
            won = u < arm.p
            payout = arm.u if won else 0.0
        else:
            acc = 0.0
            payout = 0.0
            for reward, prob in arm.entries:
                acc += prob
                if u < acc:
                    payout = reward
                    break
            won = payout > 0.0
        coup_profit = 1.0 - payout
        if won:
            wins += 1
            payouts += payout
            streak = 0
        else:
            streak += 1
            if streak == spec.j:
                awards += 1
                coup_profit -= spec.j
                streak = 0
        profits.append(coup_profit)
    return wins, payouts, awards, profits


class TestDeterminism:
    def test_same_seed_same_ledger(self):
        spec = fair_chain(parse_strategy("AAB"), PROBS)
        a = simulate_once(spec, 5000, 987)
        b = simulate_once(spec, 5000, 987)
        assert a == b

    def test_replicate_bit_identical_across_workers(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        config = SimConfig(coups=2000, replications=32, master_seed=5)
        results = [replicate(spec, config, workers=w) for w in (1, 4, 16)]
        for other in results[1:]:
            assert np.array_equal(results[0].rep_means, other.rep_means)
            assert results[0].grand_mean == other.grand_mean

    def test_sub_seeds_are_counter_based(self):
        # frozen values pin the documented derivation across versions
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(0, 1) == 7960286522194355700
        assert derive_seed(12345, 2) == 2205171434679333405
        assert len({derive_seed(42, k) for k in range(10_000)}) == 10_000


class TestAgainstScalarReference:
    def test_two_point_patterns(self):
        rng = random.Random(1001)
        for _ in range(20):
            sym = "".join(rng.choice("AB") for _ in range(rng.randint(2, 6)))
            if "A" not in sym or "B" not in sym:
                continue
            spec = fair_chain(
                parse_strategy(sym),
                ArmProbabilities(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)),
                j=rng.choice([2, 3, 4]),
            )
            seed = rng.getrandbits(63)
            ledger = simulate_once(spec, 600, seed)
            wins, payouts, awards, profits = scalar_reference(spec, 600, seed)
            assert ledger.win_count == wins
            assert ledger.win_payouts == pytest.approx(payouts, abs=1e-9)
            assert ledger.futurity_events == awards
            assert ledger.casino_profit_total == pytest.approx(sum(profits), abs=1e-9)

    def test_multipoint_arms(self):
        mode_e, mode_o = mills_modes()
        spec = ChainSpec(sequence=("E", "O"), arms={"E": mode_e, "O": mode_o}, j=2)
        for seed in (3, 1234, 99999):
            ledger = simulate_once(spec, 800, seed)
            wins, payouts, awards, _ = scalar_reference(spec, 800, seed)
            assert ledger.win_count == wins
            assert ledger.win_payouts == pytest.approx(payouts, abs=1e-9)
            assert ledger.futurity_events == awards

    def test_mixed_patterns(self):
        # Two-point arms share a pattern with Mills modes. Z's wins pay
        # nothing but still reset the streak; W always wins, L never does.
        mode_e, mode_o = mills_modes()
        arms = {
            "E": mode_e,
            "O": mode_o,
            "T": TwoPointArm(0.3, 2.5),
            "Z": TwoPointArm(0.4, 0.0),
            "W": TwoPointArm(1.0, 1.0),
            "L": TwoPointArm(0.0, 3.0),
        }
        for text, j, seed in (("TE", 2, 8), ("EZO", 3, 81), ("ZZE", 2, 818), ("TZEOWL", 3, 8181)):
            spec = ChainSpec(sequence=tuple(text), arms=arms, j=j)
            ledger = simulate_once(spec, 900, seed)
            wins, payouts, awards, profits = scalar_reference(spec, 900, seed)
            assert (ledger.win_count, ledger.futurity_events) == (wins, awards)
            assert ledger.win_payouts == pytest.approx(payouts, abs=1e-9)
            trajectory = cumulative_trajectory(spec, 900, seed, stride=1)
            assert np.allclose(trajectory[:, 1], np.cumsum(profits), rtol=0, atol=1e-9)

    def test_trajectory_matches_reference_cumsum(self):
        spec = fair_chain(parse_strategy("ABB"), PROBS, j=3)
        _, _, _, profits = scalar_reference(spec, 500, 2718)
        trajectory = cumulative_trajectory(spec, 500, 2718, stride=100)
        reference = np.cumsum(profits)
        for coup, value in trajectory:
            assert value == pytest.approx(reference[int(coup) - 1], abs=1e-9)


def mixture_reference(gamma, probs, coups, seed, j):
    """A mixture run drawn in one block, all arm picks and then all outcomes.

    Returns the win count, the per-coup payouts and the award count, the
    awards walked coup by coup.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    pick_a = rng.random(coups) < gamma
    uniforms = rng.random(coups)
    win = uniforms < np.where(pick_a, probs.p_a, probs.p_b)
    payout = np.where(win, np.where(pick_a, fair_payout(probs.p_a), fair_payout(probs.p_b)), 0.0)
    streak = awards = 0
    for won in win:
        streak = 0 if won else streak + 1
        if streak == j:
            awards += 1
            streak = 0
    return int(win.sum()), payout, awards


def trajectory_peaks(spec):
    """tracemalloc peaks of trajectories 4 and 16 chunks long, after a warm-up."""

    def peak(coups):
        tracemalloc.start()
        try:
            cumulative_trajectory(spec, coups, 5, stride=simulate.CHUNK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(simulate.CHUNK)  # this thread's buffers are allocated once, here
    return peak(4 * simulate.CHUNK), peak(16 * simulate.CHUNK)


class TestChunkBoundaries:
    """Runs cut into many chunks, checked against whole-run references.

    The chunk shrinks to 1000 coups, which is not a multiple of the pattern
    length 3. Win probabilities near 0.1 with J = 3 make loss runs, and the
    awards inside them, cross chunk boundaries.
    """

    CHUNK = 1000
    COUPS = 7_919
    LOW = ArmProbabilities(0.08, 0.15)

    def test_two_point(self, monkeypatch):
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        spec = fair_chain(parse_strategy("ABB"), self.LOW, j=3)
        for seed in (1, 77, 2024):
            ledger = simulate_once(spec, self.COUPS, seed)
            wins, payouts, awards, _ = scalar_reference(spec, self.COUPS, seed)
            assert (ledger.win_count, ledger.futurity_events) == (wins, awards)
            assert ledger.win_payouts == pytest.approx(payouts, rel=1e-12)

    def test_multipoint(self, monkeypatch):
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        mode_e, mode_o = mills_modes()  # mode E wins 3.2% of coups
        spec = ChainSpec(sequence=("E", "E", "O"), arms={"E": mode_e, "O": mode_o}, j=3)
        for seed in (5, 606):
            ledger = simulate_once(spec, self.COUPS, seed)
            wins, payouts, awards, _ = scalar_reference(spec, self.COUPS, seed)
            assert (ledger.win_count, ledger.futurity_events) == (wins, awards)
            assert ledger.win_payouts == pytest.approx(payouts, rel=1e-12)

    def test_trajectories(self, monkeypatch):
        mode_e, mode_o = mills_modes()
        specs = [
            fair_chain(parse_strategy("ABB"), self.LOW, j=3),
            ChainSpec(sequence=("E", "E", "O"), arms={"E": mode_e, "O": mode_o}, j=3),
        ]
        whole = [cumulative_trajectory(spec, self.COUPS, 99, stride=7) for spec in specs]
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        for spec, expected in zip(specs, whole):
            chunked = cumulative_trajectory(spec, self.COUPS, 99, stride=7)
            # the running sum is sequential, so chunking leaves every bit in place
            assert np.array_equal(chunked, expected)
            reference = np.cumsum(scalar_reference(spec, self.COUPS, 99)[3])
            assert np.allclose(chunked[:, 1], reference[chunked[:, 0].astype(int) - 1], rtol=0, atol=1e-9)

    def test_mixture_stream(self, monkeypatch):
        coups, seed, gamma = self.COUPS, 31, 0.4
        wins, payout, awards = mixture_reference(gamma, self.LOW, coups, seed, j=3)
        whole = simulate_mixture_once(gamma, self.LOW, coups, seed, j=3)
        assert (whole.win_count, whole.futurity_events) == (wins, awards)
        assert whole.win_payouts == float(payout.sum())  # one chunk: the same sum
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        chunked = simulate_mixture_once(gamma, self.LOW, coups, seed, j=3)
        assert (chunked.win_count, chunked.futurity_events) == (wins, awards)
        assert chunked.win_payouts == pytest.approx(whole.win_payouts, rel=1e-12)

    def test_trajectory_memory_does_not_grow_with_coups(self):
        small, large = trajectory_peaks(fair_chain(parse_strategy("AB"), PROBS))
        assert large < 1.25 * small
        # far below one float per coup of the longer run
        assert large < 8 * 16 * simulate.CHUNK / 4

    def test_multipoint_trajectory_memory_does_not_grow_with_coups(self):
        # The threshold matrix is built once per run and the entry-index
        # buffers once per thread, so neither grows with the run.
        mode_e, mode_o = mills_modes()
        spec = ChainSpec(sequence=tuple("AAABB"), arms={"A": mode_e, "B": mode_o}, j=2)
        small, large = trajectory_peaks(spec)
        assert large < 1.25 * small
        assert large < 8 * 16 * simulate.CHUNK / 4
        buffers = dict(vars(simulate._scratch))
        assert {np.dtype(t).name for t in (float, bool, np.uint8, np.intp)} <= set(buffers)
        cumulative_trajectory(spec, 16 * simulate.CHUNK, 6, stride=simulate.CHUNK)
        assert all(vars(simulate._scratch)[name] is buffer for name, buffer in buffers.items())


class TestDegenerateArms:
    def test_always_win(self):
        spec = single_arm_chain(1.0, u=1.25)
        ledger = simulate_once(spec, 1000, 7)
        assert ledger.mean_profit == pytest.approx(1.0 - 1.25, abs=1e-15)
        assert ledger.futurity_events == 0

    def test_always_lose_even_coups(self):
        spec = single_arm_chain(0.0, u=1.0)
        ledger = simulate_once(spec, 1000, 7)
        assert ledger.futurity_events == 500
        assert ledger.casino_profit_total == 0.0

    def test_always_lose_trajectory_oscillates(self):
        spec = single_arm_chain(0.0, u=1.0)
        trajectory = cumulative_trajectory(spec, 10, 7, stride=1)
        assert [v for _, v in trajectory] == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


class TestLedger:
    def test_conservation_identity(self):
        spec = fair_chain(parse_strategy("AABB"), PROBS)
        ledger = simulate_once(spec, 10_000, 13)
        assert ledger.stakes_collected == 10_000.0
        assert ledger.casino_profit_total == pytest.approx(
            ledger.stakes_collected - ledger.win_payouts - ledger.futurity_refunds, abs=0.0
        )
        assert ledger.futurity_refunds == ledger.j * ledger.futurity_events

    def test_count_formula_differs_with_fractional_payouts(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        ledger = simulate_once(spec, 50_000, 17)
        # payout != 1 coin makes the win-count reading drift from the ledger
        assert abs(ledger.count_formula_mean - ledger.mean_profit) > 1e-4

    def test_count_formula_matches_when_payout_is_one(self):
        spec = single_arm_chain(0.4, u=1.0)
        ledger = simulate_once(spec, 5_000, 19)
        assert ledger.count_formula_mean == pytest.approx(ledger.mean_profit, abs=1e-12)


class TestTrajectory:
    def test_final_point_equals_ledger(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        ledger = simulate_once(spec, 4000, 3)
        trajectory = cumulative_trajectory(spec, 4000, 3, stride=500)
        assert trajectory.shape == (8, 2)
        assert trajectory[-1, 0] == 4000
        assert trajectory[-1, 1] == pytest.approx(ledger.casino_profit_total, abs=1e-9)

    def test_stride_equal_to_coups(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        trajectory = cumulative_trajectory(spec, 1000, 3, stride=1000)
        assert trajectory.shape == (1, 2)

    def test_bad_stride(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        with pytest.raises(DomainError):
            cumulative_trajectory(spec, 100, 3, stride=0)
        with pytest.raises(DomainError, match="exceeds"):
            cumulative_trajectory(spec, 100, 3, stride=101)
        with pytest.raises(DomainError, match="integer"):
            cumulative_trajectory(spec, 100, 3, stride=2.5)


def assert_statistically_close(grand_mean, oracle, standard_error, context):
    """Fail beyond 5 standard errors, warn (flag) between 3 and 5."""
    gap = abs(grand_mean - oracle)
    assert gap <= 5.0 * standard_error, (
        f"{context}: |{grand_mean:.6f} - {oracle:.6f}| = {gap:.2e} "
        f"exceeds 5*SE = {5 * standard_error:.2e}"
    )
    if gap > 3.0 * standard_error:
        warnings.warn(f"{context}: gap {gap:.2e} between 3*SE and 5*SE, flagged")


class TestStatisticalAgreement:
    def test_pattern_mean_matches_oracle(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        config = SimConfig(coups=20_000, replications=200, master_seed=20260808)
        result = replicate(spec, config)
        oracle = oracle_profit(spec).casino_profit
        assert_statistically_close(result.grand_mean, oracle, result.standard_error, "AB")

    def test_multipoint_mean_matches_oracle(self):
        mode_e, mode_o = mills_modes()
        spec = ChainSpec(sequence=("E", "O"), arms={"E": mode_e, "O": mode_o}, j=2)
        config = SimConfig(coups=20_000, replications=200, master_seed=4)
        result = replicate(spec, config)
        oracle = oracle_profit(spec).casino_profit
        assert_statistically_close(
            result.grand_mean, oracle, result.standard_error, "raw Mills EO"
        )

    def test_mixture_mean_matches_closed_form(self):
        config = SimConfig(coups=20_000, replications=200, master_seed=6)
        result = replicate_mixture(0.5, PROBS, config)
        assert_statistically_close(
            result.grand_mean,
            random_mix_profit(0.5, PROBS),
            result.standard_error,
            "mixture gamma=0.5",
        )


class TestMixtureSim:
    def test_deterministic(self):
        a = simulate_mixture_once(0.4, PROBS, 2000, 11)
        b = simulate_mixture_once(0.4, PROBS, 2000, 11)
        assert a == b

    def test_gamma_extremes_play_one_arm(self):
        # gamma=1 plays arm A only, which is fair: profit near 0
        config = SimConfig(coups=10_000, replications=100, master_seed=2)
        result = replicate_mixture(1.0, PROBS, config)
        assert abs(result.grand_mean) <= 5.0 * result.standard_error

    def test_matches_equivalent_single_arm_chain(self):
        oracle = oracle_profit(mixture_chain(0.3, PROBS)).casino_profit
        config = SimConfig(coups=20_000, replications=150, master_seed=8)
        result = replicate_mixture(0.3, PROBS, config)
        assert abs(result.grand_mean - oracle) <= 5.0 * result.standard_error

    def test_domain(self):
        for gamma in (-0.1, 1.1, float("nan")):
            with pytest.raises(DomainError):
                simulate_mixture_once(gamma, PROBS, 100, 1)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(DomainError):
            SimConfig(coups=0)
        with pytest.raises(DomainError):
            SimConfig(replications=0)
        with pytest.raises(DomainError):
            simulate_once(fair_chain(parse_strategy("AB"), PROBS), 0, 1)

    def test_counts_must_be_integers(self):
        with pytest.raises(DomainError, match="integer"):
            SimConfig(coups=1.5)
        with pytest.raises(DomainError, match="integer"):
            SimConfig(replications=2.0)
        with pytest.raises(DomainError, match="integer"):
            simulate_once(fair_chain(parse_strategy("AB"), PROBS), 100.0, 1)

    def test_workers_below_one(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        config = SimConfig(coups=100, replications=4, master_seed=1)
        for workers in (0, -3, 1.5):
            with pytest.raises(DomainError, match="workers"):
                replicate(spec, config, workers=workers)
            with pytest.raises(DomainError, match="workers"):
                replicate_mixture(0.5, PROBS, config, workers=workers)

    def test_oversized_runs_rejected_up_front(self, monkeypatch):
        with pytest.raises(DomainError, match="cap"):
            SimConfig(replications=simulate.MAX_REPLICATIONS + 1)
        assert SimConfig(replications=simulate.MAX_REPLICATIONS).replications == simulate.MAX_REPLICATIONS

        def no_draws(*args):
            raise AssertionError("the run was drawn before its size was checked")

        monkeypatch.setattr(simulate, "_pattern_chunks", no_draws)
        spec = fair_chain(parse_strategy("AB"), PROBS)
        with pytest.raises(DomainError, match="cap"):
            cumulative_trajectory(spec, 10**11, 1, stride=1)
        with pytest.raises(DomainError, match="cap"):
            cumulative_trajectory(spec, (simulate.MAX_TRAJECTORY_POINTS + 1) * 3, 1, stride=3)
        with pytest.raises(AssertionError, match="drawn"):
            cumulative_trajectory(spec, simulate.MAX_TRAJECTORY_POINTS * 3, 1, stride=3)

    def test_seed_range(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        for seed in (-5, 2**64, 0.5):
            with pytest.raises(DomainError, match="seed"):
                SimConfig(master_seed=seed)
            with pytest.raises(DomainError, match="seed"):
                simulate_once(spec, 100, seed)
            with pytest.raises(DomainError, match="seed"):
                cumulative_trajectory(spec, 100, seed, stride=10)
            with pytest.raises(DomainError, match="seed"):
                simulate_mixture_once(0.5, PROBS, 100, seed)
        # numpy integers are normalised, so seed derivation stays in Python ints
        config = SimConfig(master_seed=np.int64(2**62))
        assert type(config.master_seed) is int
        assert SimConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1

    def test_grand_mean_is_average_of_rep_means(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        result = replicate(spec, SimConfig(coups=500, replications=40, master_seed=21))
        assert result.grand_mean == pytest.approx(float(result.rep_means.mean()), abs=0.0)
        assert result.standard_error == pytest.approx(
            result.sample_sd / np.sqrt(40), rel=1e-12
        )


class TestMultipointSampling:
    def test_reward_frequencies(self):
        mode_o = mills_modes()[1]
        spec = ChainSpec(sequence=("O",), arms={"O": mode_o}, j=2)
        coups = 200_000
        ledger = simulate_once(spec, coups, 1202)
        expected_win_rate = 0.643
        observed = ledger.win_count / coups
        # binomial SE ~ 0.0011
        assert abs(observed - expected_win_rate) < 5 * 0.0011
        expected_payout_rate = 2.234
        assert abs(ledger.win_payouts / coups - expected_payout_rate) < 0.1
