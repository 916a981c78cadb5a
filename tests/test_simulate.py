import random
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from futurity import (
    ArmProbabilities,
    ChainSpec,
    DomainError,
    MultipointDistribution,
    SimConfig,
    TwoPointArm,
    cumulative_trajectory,
    derive_seed,
    fair_chain,
    fair_two_point,
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
# Rewards no binary fraction holds exactly, so sums of them round.
FRACTIONAL = MultipointDistribution(((0.0, 0.55), (1.7, 0.3), (2.9, 0.15)))


def fractional_specs():
    """A fair two-point pattern and a pattern mixing a fractional multipoint arm with Mills mode O."""
    mode_e, mode_o = mills_modes()
    return [
        ChainSpec(sequence=tuple("AAABB"), arms={"A": fair_two_point(mode_e), "B": fair_two_point(mode_o)}, j=2),
        ChainSpec(sequence=tuple("AAB"), arms={"A": FRACTIONAL, "B": mode_o}, j=3),
    ]


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

    def test_replicate_plays_simulate_once_per_replication(self, monkeypatch):
        # The traced benchmark run (perfbench/layers.py) times each serial
        # replication by its simulate_once span on the main thread, and its
        # tracer swaps the module attribute, so replicate must call it there.
        threads = []
        play = simulate.simulate_once

        def counted(*args):
            threads.append(threading.get_ident())
            return play(*args)

        monkeypatch.setattr(simulate, "simulate_once", counted)
        spec = fair_chain(parse_strategy("AB"), PROBS)
        config = SimConfig(coups=100, replications=6, master_seed=1)
        serial = replicate(spec, config, workers=1)
        assert threads == [threading.main_thread().ident] * 6
        threads.clear()
        parallel = replicate(spec, config, workers=3)
        assert len(threads) == 6 and threading.main_thread().ident not in threads
        assert np.array_equal(serial.rep_means, parallel.rep_means)

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
            *fractional_specs(),
        ]
        whole = [cumulative_trajectory(spec, self.COUPS, 99, stride=7) for spec in specs]
        ledgers = [simulate_once(spec, self.COUPS, 99) for spec in specs]
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        for spec, expected, ledger in zip(specs, whole, ledgers):
            chunked = cumulative_trajectory(spec, self.COUPS, 99, stride=7)
            # rows are read off integer counts, so chunking leaves every bit in place
            assert np.array_equal(chunked, expected)
            assert simulate_once(spec, self.COUPS, 99) == ledger
            reference = np.cumsum(scalar_reference(spec, self.COUPS, 99)[3])
            assert np.allclose(chunked[:, 1], reference[chunked[:, 0].astype(int) - 1], rtol=0, atol=1e-9)

    def test_chunks_not_whole_bytes(self, monkeypatch):
        # AAB rounds the chunk up to 1002 coups, so every chunk ends inside a
        # byte whose pad bits are losses, and loss runs carry across the ends.
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        for j in (2, 3, 11):
            spec = fair_chain(parse_strategy("AAB"), self.LOW, j=j)
            for seed in (4, 40, 400):
                ledger = simulate_once(spec, self.COUPS, seed)
                wins, payouts, awards, profits = scalar_reference(spec, self.COUPS, seed)
                assert (ledger.win_count, ledger.futurity_events) == (wins, awards)
                assert ledger.win_payouts == pytest.approx(payouts, rel=1e-12)
                trajectory = cumulative_trajectory(spec, self.COUPS, seed, stride=1)
                assert np.allclose(trajectory[:, 1], np.cumsum(profits), rtol=0, atol=1e-9)

    def test_short_row_after_huge_payouts(self, monkeypatch):
        # The last chunk is shorter than the others; the previous chunk's
        # 1e17 payouts must not leak into it.
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        arm = MultipointDistribution(((0.0, 0.5), (1e17, 0.5)))
        spec = ChainSpec(sequence=("A",), arms={"A": arm}, j=2)
        ledger = simulate_once(spec, 1500, 8)
        wins, payouts, awards, _ = scalar_reference(spec, 1500, 8)
        assert (ledger.win_count, ledger.futurity_events, ledger.win_payouts) == (wins, awards, payouts)

    @pytest.mark.parametrize("j", [2, 3])
    def test_mixture_plays_its_chain(self, monkeypatch, j):
        # A mixture run is mixture_chain's one-position pattern, one word per coup.
        coups, seed, gamma = self.COUPS, 31, 0.4
        wins, payouts, awards, _ = scalar_reference(mixture_chain(gamma, self.LOW, j), coups, seed)
        for chunk in (simulate.CHUNK, self.CHUNK):
            monkeypatch.setattr(simulate, "CHUNK", chunk)
            ledger = simulate_mixture_once(gamma, self.LOW, coups, seed, j=j)
            assert (ledger.win_count, ledger.futurity_events) == (wins, awards)
            assert ledger.win_payouts == pytest.approx(payouts, rel=1e-12)

    def test_trajectory_memory_does_not_grow_with_coups(self):
        small, large = trajectory_peaks(fair_chain(parse_strategy("AB"), PROBS))
        assert large < 1.25 * small
        # far below one float per coup of the longer run
        assert large < 8 * 16 * simulate.CHUNK / 4

    def test_multipoint_trajectory_memory_does_not_grow_with_coups(self):
        # The pattern's layout is built once and the uniform, plane, bit
        # and key buffers once per thread, so neither grows with the run.
        mode_e, mode_o = mills_modes()
        spec = ChainSpec(sequence=tuple("AAABB"), arms={"A": mode_e, "B": mode_o}, j=2)
        small, large = trajectory_peaks(spec)
        assert large < 1.25 * small
        assert large < 8 * 16 * simulate.CHUNK / 4
        buffers = dict(vars(simulate._scratch))
        assert {"uniforms", "planes", "bits", "keys"} <= set(buffers)
        cumulative_trajectory(spec, 16 * simulate.CHUNK, 6, stride=simulate.CHUNK)
        assert all(vars(simulate._scratch)[name] is buffer for name, buffer in buffers.items())


def streak_walk(win, j, losses):
    """Per-coup stakes, award count and open loss run of a win mask, coup by coup.

    The mask continues a run of `losses` losses, whose awards are paid.
    """
    streak, run, stakes = losses % j, losses, []
    for won in win:
        streak, run = (0, 0) if won else (streak + 1, run + 1)
        stakes.append(1.0 - j if streak == j else 1.0)
        streak %= j
    return stakes, stakes.count(1.0 - j), run


def award_chunk(win, j, losses):
    """The bit rows _pattern_chunks yields for a win mask: its award bits alone, and the loss run left open."""
    words = np.zeros((1, -(-win.size // 64)), np.uint64)
    used = -(-win.size // 8)
    run = simulate._awards(np.packbits(win, bitorder="little"), win.size, j, losses, words.view(np.uint8)[0, :used])
    return (win.size, words), run


class TestByteReduction:
    """The packed-byte award bits against a literal streak walk."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3000),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.integers(2, 20),
        st.integers(0, 50),
    )
    # J dividing 8 takes each byte's phase from the last win by one mask.
    @example(size=2999, p=0.3, seed=11, j=2, losses=7)
    @example(size=1000, p=0.15, seed=12, j=4, losses=3)
    @example(size=3000, p=0.05, seed=13, j=8, losses=45)
    def test_matches_streak_walk(self, size, p, seed, j, losses):
        win = np.random.default_rng(seed).random(size) < p
        stakes, awards, run = streak_walk(win, j, losses)
        (_, words), open_run = award_chunk(win, j, losses)
        assert open_run == run
        award_bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert award_bits[:size].tolist() == [stake != 1.0 for stake in stakes]
        assert not award_bits[size:].any()
        # The run carries in from a chunk of `losses` losses, and _tally counts
        # the award bits up to every coup.
        chunks, carried = [], 0
        for mask in [np.zeros(losses, bool)] * bool(losses) + [win]:
            chunk, carried = award_chunk(mask, j, carried)
            chunks.append(chunk)
        tallies = simulate._tally(iter(chunks), stride=1)
        whole_stakes, whole_awards, _ = streak_walk(np.concatenate([np.zeros(losses, bool), win]), j, 0)
        assert tallies[:, 0].tolist() == list(range(1, losses + size + 1))
        assert np.diff(tallies[:, 1], prepend=0).tolist() == [stake != 1.0 for stake in whole_stakes]
        assert simulate._tally(iter(chunks)).tolist() == [[losses + size, whole_awards]]

    def test_tables(self):
        for j in (2, 8, 9, 20):
            table = simulate._award_tables(j)
            assert table.shape == (9 * 256,) and table.dtype == np.uint8 and not table.flags.writeable
            assert simulate._award_tables(j) is table
            # A win pays no award.
            assert not (table & np.tile(np.arange(256, dtype=np.uint8), 9)).any()
        # Phase 0 pays at coups 0, j, 2j, ... of an all-loss byte.
        assert simulate._award_tables(3)[0] == 0b01001001

    def test_popcount(self):
        # Every byte value at every byte of a word, and random words.
        words = np.arange(256, dtype=np.uint64) << (8 * np.arange(8, dtype=np.uint64))[:, None]
        random_words = np.random.default_rng(5).integers(0, 2**63, 999, dtype=np.uint64) * np.uint64(3)
        for block in (words, random_words, np.array([0, 2**64 - 1], np.uint64)):
            counts = simulate._popcount(block.copy(), np.empty_like(block))
            expected = [sum(bin(byte).count("1") for byte in int(word).to_bytes(8, "little")) for word in block.ravel()]
            assert counts.ravel().tolist() == expected


def literal_trajectory(spec, coups, seed, stride):
    """A run's running profit at its marks, coup by coup.

    Draws the run's uniforms in one block, takes each coup's entry by
    searchsorted on its arm's cumulative probabilities, its stake from the
    streak walk (the award bits, by TestByteReduction), less its payout,
    and sums them in one cumsum.
    """
    uniforms = np.random.Generator(np.random.PCG64(seed)).random(coups)
    positions = np.arange(coups) % spec.n
    win, payouts = np.zeros(coups, bool), np.zeros(coups)
    for position, label in enumerate(spec.sequence):
        arm, here = spec.arms[label], positions == position
        if isinstance(arm, TwoPointArm):
            win[here] = uniforms[here] < arm.p
            payouts[here] = win[here] * arm.u
        else:
            thresholds = np.cumsum([prob for _, prob in arm.entries])[:-1]
            rewards = np.array([reward for reward, _ in arm.entries])[np.searchsorted(thresholds, uniforms[here], "right")]
            win[here], payouts[here] = rewards > 0, rewards
    stakes = np.array(streak_walk(win, spec.j, 0)[0])
    return np.cumsum(stakes - payouts)[stride - 1 :: stride]


def rounding_bound(spec, reference):
    """Error bound of a running sum of reference.size terms: eps/2 per addition and per term, doubled."""
    largest_term = 1.0 + spec.j + max(
        max(reward for reward, _ in arm.entries) if isinstance(arm, MultipointDistribution) else arm.u
        for arm in spec.arms.values()
    )
    return np.finfo(float).eps * reference.size * (np.abs(reference).max() + largest_term)


@st.composite
def two_point_specs(draw):
    """1 to 3 two-point arms, p in {0, 1} or interior, u zero, integer or fractional, in a period of 1 to 40."""
    labels = "ABC"[: draw(st.integers(1, 3))]
    sequence = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=40))
    p = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    u = st.one_of(st.just(0.0), st.integers(1, 9).map(float), st.floats(0.0, 20.0))
    arms = {label: TwoPointArm(draw(p), draw(u)) for label in set(sequence)}
    return ChainSpec(sequence=tuple(sequence), arms=arms, j=draw(st.sampled_from([2, 3, 4, 8, 9, 11])))


class TestTwoPointTrajectory:
    """Two-point trajectories against the literal running sum, at several chunk sizes."""

    AB = ArmProbabilities(0.3, 0.7)
    PAPER = "AAAABBBBAAAAAABBB"  # 17 layout classes

    @settings(max_examples=200, deadline=None)
    @given(
        two_point_specs(),
        st.integers(1, 3000),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1000, 1 << 14, None]),
    )
    @example(fair_chain(parse_strategy(PAPER), AB, j=3), 1600, 7, 5, None)
    @example(fair_chain(parse_strategy(PAPER), AB, j=4), 1600, 7, 5, None)
    def test_equals_literal(self, spec, coups, stride, seed, chunk):
        # At the real CHUNK the run crosses one chunk boundary.
        chunk = chunk or simulate.CHUNK
        coups = max(coups, stride) + (chunk - 1500 if chunk > 3000 else 0)
        with mock.patch.object(simulate, "CHUNK", chunk):
            trajectory = cumulative_trajectory(spec, coups, seed, stride)[:, 1]
        # Counts are integers, so the chunk size moves no bit.
        assert trajectory.tobytes() == cumulative_trajectory(spec, coups, seed, stride)[:, 1].tobytes()
        expected = literal_trajectory(spec, coups, seed, stride)
        if all(arm.u.is_integer() for arm in spec.arms.values()):
            assert trajectory.tobytes() == expected.tobytes()
        else:
            assert np.abs(trajectory - expected).max() <= rounding_bound(spec, expected)


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
        for spec in [fair_chain(parse_strategy("AB"), PROBS), *fractional_specs()]:
            for coups, stride in ((4000, 500), (300_001, 7)):
                ledger = simulate_once(spec, coups, 3)
                trajectory = cumulative_trajectory(spec, coups, 3, stride=stride)
                assert trajectory.shape == (coups // stride, 2)
                assert trajectory[-1, 0] == coups // stride * stride
                if coups % stride == 0:
                    assert trajectory[-1, 1] == ledger.casino_profit_total

    def test_final_point_exact_for_integer_payouts(self):
        mode_e, mode_o = mills_modes()
        spec = ChainSpec(sequence=("E", "O"), arms={"E": mode_e, "O": mode_o}, j=2)
        for seed in (3, 31):
            ledger = simulate_once(spec, 300_000, seed)
            trajectory = cumulative_trajectory(spec, 300_000, seed, stride=100_000)
            assert trajectory[-1, 1] == ledger.casino_profit_total

    def test_final_point_within_rounding_for_fractional_payouts(self):
        # Every row is read off integer counts as the ledger is, so the last
        # one is the ledger bit for bit, and every row is within rounding of
        # the literal per-coup running sum.
        for spec in [fair_chain(parse_strategy("AB"), PROBS), *fractional_specs()]:
            coups = 100_000
            ledger = simulate_once(spec, coups, 3)
            trajectory = cumulative_trajectory(spec, coups, 3, stride=1)
            assert trajectory[-1, 1] == ledger.casino_profit_total
            reference = literal_trajectory(spec, coups, 3, 1)
            assert np.abs(trajectory[:, 1] - reference).max() <= rounding_bound(spec, reference)

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


class TestLedgerMarks:
    """Marks read off the run's counts against the literal per-coup running sum, exact with integer payouts.

    The chunk shrinks to 1000 coups: 1000 for AB and AAABB, 1002 for AAB,
    whose chunks end inside a byte. Stride 7 puts marks inside bytes,
    stride 8 on their last coups, and a stride of one chunk on each
    chunk's last coup.
    """

    CHUNK = 1000
    COUPS = 7_919

    def specs(self):
        mode_e, mode_o = mills_modes()
        for j in (2, 3, 11):
            for text in ("AB", "AAABB", "AAB"):
                yield ChainSpec(sequence=tuple(text), arms={"A": mode_e, "B": mode_o}, j=j)
            yield ChainSpec(sequence=tuple("AAB"), arms={"A": mode_e, "B": TwoPointArm(0.4, 2.0)}, j=j)

    def test_paths_bit_identical(self, monkeypatch):
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        for spec in self.specs():
            chunk = -(-self.CHUNK // spec.n) * spec.n
            for coups in (1, 8, 9, self.COUPS):
                for stride in {1, 7, 8, 1000, chunk, coups}:
                    if stride > coups:
                        continue
                    seed = coups + stride + spec.j
                    expected = literal_trajectory(spec, coups, seed, stride)
                    assert np.array_equal(cumulative_trajectory(spec, coups, seed, stride)[:, 1], expected)
            # The last coup's mark is the ledger.
            ledger = simulate_once(spec, self.COUPS, 5)
            assert cumulative_trajectory(spec, self.COUPS, 5, self.COUPS)[-1, 1] == ledger.casino_profit_total

    def test_marks_sharing_bytes(self, monkeypatch):
        # Strides 1-7 put several marks in one byte and one word and, at each
        # chunk's start, one in word 0; reduceat's segments between marks of
        # one word are empty.
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        for spec in self.specs():
            for stride in range(1, 8):
                for coups in sorted({stride, 9, 1003, self.COUPS}):
                    seed = 31 * coups + stride + spec.j
                    expected = literal_trajectory(spec, coups, seed, stride)
                    assert np.array_equal(cumulative_trajectory(spec, coups, seed, stride)[:, 1], expected)


def test_layout_reuses_cached_arm_data(monkeypatch):
    # The warm-up lays out the pattern once; a later run reads the layout
    # from the cache and never recounts the arms' thresholds.
    mode_e, mode_o = mills_modes()
    spec = ChainSpec(sequence=("E", "O", "O"), arms={"E": mode_e, "O": mode_o}, j=2)
    expected = simulate_once(spec, 50_000, 3)

    def rebuilt(arm):
        raise AssertionError("arm thresholds recounted")

    monkeypatch.setattr(simulate, "_arm_regions", rebuilt)
    assert simulate_once(spec, 50_000, 3) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=200),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
)
def test_sums_before(values, cuts):
    """Running totals at nondecreasing ends, ties, empty segments and the last value included."""
    values = np.array(values, np.intp)
    ends = np.sort(np.ceil(np.array(cuts) * values.size).clip(1, values.size).astype(np.intp))
    expected = [int(values[:end].sum()) for end in ends]
    assert simulate._sums_before(values, ends).tolist() == expected
    # Rows are summed alike, each on its own.
    assert simulate._sums_before(np.stack([values, 2 * values]), ends).tolist() == [expected, [2 * e for e in expected]]


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

    def test_threshold_domain(self):
        config = SimConfig(coups=100, replications=4, master_seed=1)
        for j in (0, 1, 2.5, -3, float("nan")):
            with pytest.raises(DomainError, match="threshold"):
                simulate_mixture_once(0.5, PROBS, 100, 1, j=j)
            with pytest.raises(DomainError, match="threshold"):
                replicate_mixture(0.5, PROBS, config, workers=2, j=j)
        # an integral float is the integer threshold, as in ChainSpec
        assert simulate_mixture_once(0.5, PROBS, 100, 1, j=3.0) == simulate_mixture_once(0.5, PROBS, 100, 1, j=3)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(DomainError):
            SimConfig(coups=0)
        with pytest.raises(DomainError):
            SimConfig(replications=0)
        with pytest.raises(DomainError):
            simulate_once(fair_chain(parse_strategy("AB"), PROBS), 0, 1)

    def test_counts_must_be_integers(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        # bool is an int subclass, but True is no count.
        for bad in (1.5, 2.0, True, np.True_):
            with pytest.raises(DomainError, match="integer"):
                SimConfig(coups=bad)
            with pytest.raises(DomainError, match="integer"):
                SimConfig(replications=bad)
            with pytest.raises(DomainError, match="integer"):
                simulate_once(spec, bad, 1)
            with pytest.raises(DomainError, match="integer"):
                cumulative_trajectory(spec, 100, 1, stride=bad)

    def test_workers_below_one(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        config = SimConfig(coups=100, replications=4, master_seed=1)
        for workers in (0, -3, 1.5):
            with pytest.raises(DomainError, match="workers"):
                replicate(spec, config, workers=workers)
            with pytest.raises(DomainError, match="workers"):
                replicate_mixture(0.5, PROBS, config, workers=workers)

    def test_workers_above_cap_start_no_threads(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
        spec = fair_chain(parse_strategy("AB"), PROBS)
        config = SimConfig(coups=100, replications=4, master_seed=1)
        with pytest.raises(DomainError, match="cap"):
            replicate(spec, config, workers=simulate.MAX_WORKERS + 1)
        with pytest.raises(DomainError, match="cap"):
            replicate_mixture(0.5, PROBS, config, workers=simulate.MAX_WORKERS + 1)
        # the cap itself is accepted and reaches the pool
        with pytest.raises(AssertionError, match="pool"):
            replicate(spec, config, workers=simulate.MAX_WORKERS)

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
        for seed in (-5, 2**64, 0.5, True, np.True_):
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
