import random
import sys
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

    def test_workers_take_every_replication_once(self, monkeypatch):
        # More workers than cores, and than replications, share one index
        # iterator; with thread switches forced every microsecond, each
        # replication must still be played exactly once, at its own index.
        seeds, play = [], simulate.simulate_once

        def counted(spec, coups, seed):
            seeds.append(seed)  # list.append is atomic under the GIL
            return play(spec, coups, seed)

        monkeypatch.setattr(simulate, "simulate_once", counted)
        spec = fair_chain(parse_strategy("AAB"), PROBS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reps, workers in ((400, 8), (30, simulate.MAX_WORKERS)):
                config = SimConfig(coups=70, replications=reps, master_seed=9)
                serial = replicate(spec, config, workers=1)
                seeds.clear()
                done = []
                runner = threading.Thread(target=lambda: done.append(replicate(spec, config, workers=workers)))
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive() and len(done) == 1
                assert np.array_equal(done[0].rep_means, serial.rep_means)
                assert sorted(seeds) == sorted(derive_seed(9, k) for k in range(reps))
        finally:
            sys.setswitchinterval(interval)

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
        # payouts, at the 2**53 reward cap, must not leak into it.
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        arm = MultipointDistribution(((0.0, 0.5), (2.0**53, 0.5)))
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
        # and award buffers once per thread, so neither grows with the run.
        mode_e, mode_o = mills_modes()
        spec = ChainSpec(sequence=tuple("AAABB"), arms={"A": mode_e, "B": mode_o}, j=2)
        small, large = trajectory_peaks(spec)
        assert large < 1.25 * small
        assert large < 8 * 16 * simulate.CHUNK / 4
        buffers = dict(vars(simulate._scratch))
        assert {"uniforms", "planes", "bits", "residue_runs"} <= set(buffers)
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
    """The bit rows _pattern_chunks yields for a win mask: its award bits alone, and the loss run left open.

    Plays the win mask through _awards, through the word pass, and through
    the residue pass up to J = 64 (its scratch grows with J), which must
    agree bit for bit. Win bits from the mask's end on are clear: the
    passes may leave different open runs for them, which nothing reads.
    Award bits start as garbage, so every bit the passes leave is their
    own, and bits from the mask's end on are cleared, as _pattern_chunks
    does.
    """
    size = -(-win.size // 64)
    packed = np.zeros(8 * size, np.uint8)
    packed[: -(-win.size // 8)] = np.packbits(win, bitorder="little")
    passes = [simulate._awards, simulate._word_awards] + [simulate._residue_awards] * (j <= 64)
    played = []
    for award_pass in passes:
        words = np.full((1, size), 0xA5A5A5A5A5A5A5A5, np.uint64)
        played.append((award_pass(packed.view(np.uint64), win.size, j, losses, words[0]), words))
        words[0, -1] &= simulate._LOW_BITS[(win.size - 1) & 63]
    run, words = played[0]
    for other, other_words in played[1:]:
        assert other == run and other_words.tobytes() == words.tobytes()
    return (win.size, words), run


def assert_awards_match_walk(win, j, losses):
    """The award bits and open run of a win mask, by every award pass, against the streak walk.

    The mask continues a run of `losses` losses. Up to 10**4 of them are
    also played as a chunk of their own, and _tally then counts the award
    bits up to every coup of the two chunks.
    """
    size = win.size
    stakes, awards, run = streak_walk(win, j, losses)
    (_, words), open_run = award_chunk(win, j, losses)
    assert open_run == run
    award_bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    assert award_bits[:size].tolist() == [stake != 1.0 for stake in stakes]
    assert not award_bits[size:].any()
    if losses > 10**4:
        return
    chunks, carried = [], 0
    for mask in [np.zeros(losses, bool)] * bool(losses) + [win]:
        chunk, carried = award_chunk(mask, j, carried)
        chunks.append(chunk)
    tallies = simulate._tally(iter(chunks), stride=1)
    # The last row is the run's end, here the same as its last mark.
    assert tallies[-1].tolist() == tallies[-2].tolist()
    tallies = tallies[:-1]
    whole_stakes, whole_awards, _ = streak_walk(np.concatenate([np.zeros(losses, bool), win]), j, 0)
    assert tallies[:, 0].tolist() == list(range(1, losses + size + 1))
    assert np.diff(tallies[:, 1], prepend=0).tolist() == [stake != 1.0 for stake in whole_stakes]
    assert simulate._tally(iter(chunks)).tolist() == [[losses + size, whole_awards]]


class TestByteReduction:
    """The award bits of the residue and word passes against a literal streak walk."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3000),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(2, 130), st.integers(2, 2**62)),
        st.integers(0, 50),
    )
    @example(size=2999, p=0.3, seed=11, j=2, losses=7)
    @example(size=1000, p=0.15, seed=12, j=4, losses=3)
    @example(size=3000, p=0.05, seed=13, j=8, losses=45)
    # Words of 64 losses: 24 of the 46 whole words hold no win.
    @example(size=3000, p=0.01, seed=14, j=2, losses=0)
    @example(size=3000, p=0.01, seed=14, j=3, losses=5)
    # Wins on bit 63 before a word that opens with losses, 12 and 13 times;
    # 64 is no multiple of 3 or 7, so bit 63's residue changes from word to word.
    @example(size=3000, p=0.5, seed=18, j=3, losses=1)
    @example(size=3000, p=0.5, seed=21, j=7, losses=4)
    # Carried runs of a word, less one, and of far more than a chunk.
    @example(size=700, p=0.2, seed=15, j=3, losses=63)
    @example(size=700, p=0.2, seed=16, j=5, losses=64)
    @example(size=700, p=0.02, seed=17, j=7, losses=2**40)
    # One coup into the last word.
    @example(size=2945, p=0.4, seed=19, j=6, losses=9)
    # The word pass's scan takes two steps at J = 20, one up to J = 31 and
    # none from J = 32; from J = 64 only lead runs pay, at most once a word.
    @example(size=3000, p=0.05, seed=22, j=20, losses=0)
    @example(size=3000, p=0.03, seed=23, j=31, losses=63)
    @example(size=3000, p=0.03, seed=24, j=32, losses=2**40)
    # A word opening with a win and 63 losses: its one in-word award at J = 63.
    @example(size=3000, p=0.02, seed=26, j=63, losses=0)
    @example(size=3000, p=0.02, seed=25, j=64, losses=63)
    @example(size=3000, p=0.02, seed=27, j=65, losses=2**40)
    @example(size=3000, p=0.002, seed=28, j=2**62, losses=0)
    @example(size=3000, p=0.002, seed=29, j=2**62, losses=63)
    @example(size=3000, p=0.002, seed=30, j=2**62, losses=2**40)
    # A carried run near 2**62 that pays on the chunk's fifth coup.
    @example(size=700, p=0.0, seed=31, j=2**62, losses=2**62 - 5)
    def test_matches_streak_walk(self, size, p, seed, j, losses):
        win = np.random.default_rng(seed).random(size) < p
        assert_awards_match_walk(win, j, losses)

    @pytest.mark.parametrize("j", [3, 7])
    def test_lead_runs_after_bit_63(self, j):
        # Every lead run anchors on a win at bit 63 of an earlier word, some
        # across a word of losses, and a few wins sit inside the words.
        win = np.zeros(64 * 12 + 5, bool)
        win[[63, 127, 191, 319, 447, 448, 575, 700]] = True
        for losses in (0, 1, j - 1, j, 2**33 + 1):
            assert_awards_match_walk(win, j, losses)

    def test_lead_table(self):
        for j in (2, 3, 20, 63, 64, 2**62):
            table = simulate._lead_table(j)
            assert table.shape == (65,) and table.dtype == np.uint64 and not table.flags.writeable
            assert simulate._lead_table(j) is table
            # Entry o pays at bits o, o + j, ... of the word; entry 64 nowhere.
            assert table.tolist() == [sum(1 << bit for bit in range(o, 64, j)) for o in range(65)]

    def test_popcount(self):
        # Bit rows of three chunks, zero from each chunk's k on; strides put
        # marks inside words, on word and chunk ends, at the run's end and
        # past it.
        chunks = [(k, np.random.default_rng(k).integers(0, 2**64, (3, -(-k // 64)), dtype=np.uint64)) for k in (640, 517, 64)]
        for k, rows in chunks:
            rows[:, -1] &= simulate._LOW_BITS[(k - 1) & 63]
        bits = np.concatenate([np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")[:, :k] for k, rows in chunks], axis=1)
        # Coups played and each row's set bits up to every coup, counted one by one.
        by_coup = [[coup + 1, *counts] for coup, counts in enumerate(np.cumsum(bits, axis=1).T.tolist())]
        for stride in (1, 7, 64, 517, 640, len(by_coup), 2000):
            assert simulate._tally(iter(chunks), stride).tolist() == by_coup[stride - 1 :: stride] + by_coup[-1:]
        assert simulate._tally(iter(chunks)).tolist() == by_coup[-1:]


def literal_walk(spec, coups, seed):
    """Each coup's win flag, payout and stake, coup by coup.

    Draws the run's uniforms in one block, takes each coup's entry by
    searchsorted on its arm's cumulative probabilities, and its stake from
    the streak walk (the award bits, by TestByteReduction).
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
    return win, payouts, np.array(streak_walk(win, spec.j, 0)[0])


def literal_trajectory(spec, coups, seed, stride):
    """A run's running profit at its marks: the literal walk's stakes less payouts, summed in one cumsum."""
    _, payouts, stakes = literal_walk(spec, coups, seed)
    return np.cumsum(stakes - payouts)[stride - 1 :: stride]


def assert_near_exact_profits(spec, coups, seed, stride, trajectory):
    """Each mark of a two-point run within a few ulps of its terms of the exact coups - sum of u * wins - J * awards.

    The counts come from the literal walk. A row is read off them with at
    most 2 * arms + 1 roundings (a product and a sum per arm, two
    subtractions), each within eps/2 of the sum of the terms' magnitudes,
    so (arms + 2) ulps of that sum bound it. The check runs in Python
    ints: values are scaled by the largest payout denominator, a power of
    two and so a multiple of the others, and the error by 2**52 = 1/eps.
    """
    win, _, stakes = literal_walk(spec, coups, seed)
    marks = np.arange(stride, coups + 1, stride)
    labels = np.array(spec.sequence)[np.arange(coups) % spec.n]
    payouts = [arm.u.as_integer_ratio() for arm in spec.arms.values()]
    scale = max(denominator for _, denominator in payouts)  # powers of two: a multiple of the rest
    counts = [np.cumsum(win & (labels == label))[marks - 1].tolist() for label in spec.arms]
    awards = np.cumsum(stakes != 1.0)[marks - 1].tolist()
    for row, mark in enumerate(marks.tolist()):
        paid = [numerator * (scale // denominator) * count[row] for (numerator, denominator), count in zip(payouts, counts)]
        exact = (mark - spec.j * awards[row]) * scale - sum(paid)
        magnitude = (mark + spec.j * awards[row]) * scale + sum(paid)
        numerator, denominator = float(trajectory[row]).as_integer_ratio()
        error = abs(numerator * scale - exact * denominator) << 52
        assert error <= (len(payouts) + 2) * magnitude * denominator, (row, mark, trajectory[row])


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
    # A running sum of 927 literal terms strayed 3.383e-10 from this run, past
    # a bound that counted only its 103 rows.
    @example(ChainSpec(sequence=("A",), arms={"A": TwoPointArm(1.0, 16.829545080890096)}, j=2), 927, 9, 0, 1000)
    def test_equals_literal(self, spec, coups, stride, seed, chunk):
        # At the real CHUNK the run crosses one chunk boundary.
        chunk = chunk or simulate.CHUNK
        coups = max(coups, stride) + (chunk - 1500 if chunk > 3000 else 0)
        with mock.patch.object(simulate, "CHUNK", chunk):
            trajectory = cumulative_trajectory(spec, coups, seed, stride)[:, 1]
        # Counts are integers, so the chunk size moves no bit.
        assert trajectory.tobytes() == cumulative_trajectory(spec, coups, seed, stride)[:, 1].tobytes()
        if all(arm.u.is_integer() for arm in spec.arms.values()):
            assert trajectory.tobytes() == literal_trajectory(spec, coups, seed, stride).tobytes()
        else:
            assert_near_exact_profits(spec, coups, seed, stride, trajectory)


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


class TestSplitRuns:
    """A trajectory split into segments, each from an advanced PCG64 stream, against the whole run.

    The chunk shrinks to 64 coups (66 for AAB), so runs of about a
    thousand coups split into up to 5 segments of several chunks; 1003
    and 2047 coups end inside a chunk. Arms that never win, win with
    probability 1e-9 or always win make whole segments winless or
    lossless, so the open loss run carries across several segments.
    """

    CHUNK = 64
    NEVER = MultipointDistribution(((0.0, 1.0),))
    ARMS = {
        "mills": dict(zip("AB", mills_modes())),
        "fair": {label: fair_two_point(mode) for label, mode in zip("AB", mills_modes())},
        "rare": {"A": TwoPointArm(1e-9, 2.0), "B": MultipointDistribution(((0.0, 1 - 1e-9), (3.0, 1e-9)))},
        "never": {"A": NEVER, "B": TwoPointArm(0.0, 2.0)},
        "always": {"A": MultipointDistribution(((2.0, 1.0),)), "B": TwoPointArm(1.0, 1.5)},
        "mixed": {"A": NEVER, "B": TwoPointArm(0.5, 1.7)},
    }

    @staticmethod
    def played_segments(monkeypatch):
        """Record the _Segment each _pattern_chunks call plays, in call order."""
        played, chunks = [], simulate._pattern_chunks

        def counted(layout, segment, seed, j):
            played.append(segment)
            return chunks(layout, segment, seed, j)

        monkeypatch.setattr(simulate, "_pattern_chunks", counted)
        return played

    @pytest.mark.parametrize("j", [2, 3, 5, 11])
    def test_segments_bit_identical(self, monkeypatch, j):
        # One chunk per segment, so the usable cores set the segment count.
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        monkeypatch.setattr(simulate, "_SEGMENT_CHUNKS", 1)
        played = self.played_segments(monkeypatch)
        for name, arms in self.ARMS.items():
            for text in ("AB", "AAB"):
                spec = ChainSpec(sequence=tuple(text), arms=arms, j=j)
                for coups in (1003, 2047):
                    seed = coups + 10 * j + len(name)
                    for stride in (1, 7, coups):
                        runs = []
                        for segments in range(1, 6):
                            monkeypatch.setattr(simulate, "_usable_cores", lambda: segments)
                            played.clear()
                            runs.append(simulate._run(spec, coups, seed, stride))
                            assert len(played) == segments, (name, text, coups, stride, segments)
                        whole, (wins, paid) = runs[0]
                        for segments, (split, outcomes) in enumerate(runs[1:], 2):
                            assert split.tobytes() == whole.tobytes(), (name, text, coups, stride, segments)
                            assert outcomes[0].tobytes() == wins.tobytes()
                            assert outcomes[1].tobytes() == paid.tobytes()

    def test_split_trajectory_ends_at_the_ledger(self, monkeypatch):
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        monkeypatch.setattr(simulate, "_SEGMENT_CHUNKS", 1)
        for name, arms in self.ARMS.items():
            spec = ChainSpec(sequence=tuple("AAB"), arms=arms, j=3)
            ledger = simulate_once(spec, 2047, 8)
            trajectories = []
            for cores in range(1, 6):
                monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
                trajectories.append(cumulative_trajectory(spec, 2047, 8, stride=7).tobytes())
                assert cumulative_trajectory(spec, 2047, 8, stride=2047)[-1, 1] == ledger.casino_profit_total
            assert trajectories == trajectories[:1] * 5, name

    def test_segment_count(self, monkeypatch):
        # One segment per usable core, each at least _SEGMENT_CHUNKS chunks;
        # a ledger is never split.
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        played = self.played_segments(monkeypatch)
        spec = fair_chain(parse_strategy("AB"), PROBS)
        chunks = simulate._SEGMENT_CHUNKS * self.CHUNK
        for cores, coups, expected in ((3, chunks, 1), (3, 2 * chunks, 2), (3, 9 * chunks, 3), (1, 9 * chunks, 1)):
            monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
            played.clear()
            cumulative_trajectory(spec, coups, 4, stride=coups)
            assert len(played) == expected, (cores, coups)
            played.clear()
            simulate_once(spec, coups, 4)
            assert len(played) == 1, (cores, coups)

    def test_segments_play_at_once(self, monkeypatch):
        # Every segment starts, this thread's too, before any of them ends:
        # the barrier breaks if segment 0 plays before the others start.
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        monkeypatch.setattr(simulate, "_SEGMENT_CHUNKS", 1)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 3)
        started, chunks = threading.Barrier(3, timeout=10), simulate._pattern_chunks

        def gathered(*args):
            started.wait()
            return chunks(*args)

        monkeypatch.setattr(simulate, "_pattern_chunks", gathered)
        spec = fair_chain(parse_strategy("AB"), PROBS)
        assert cumulative_trajectory(spec, 3 * self.CHUNK, 4, stride=self.CHUNK).shape == (3, 2)

    def test_segment_tallies_freed_before_outcomes(self, monkeypatch):
        # Once merged, the segments' own tallies are dropped: on entry to
        # _outcomes a stride-1 run holds little besides the merged rows.
        monkeypatch.setattr(simulate, "CHUNK", self.CHUNK)
        monkeypatch.setattr(simulate, "_SEGMENT_CHUNKS", 1)
        spec = fair_chain(parse_strategy("AB"), PROBS)
        outcomes, held = simulate._outcomes, []

        def traced(layout, tallies):
            held.append((tracemalloc.get_traced_memory()[0], tallies.nbytes))
            return outcomes(layout, tallies)

        monkeypatch.setattr(simulate, "_outcomes", traced)
        for cores in (1, 3):
            monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
            cumulative_trajectory(spec, 20000, 5, stride=1)  # the layout is cached here
            tracemalloc.start()
            try:
                cumulative_trajectory(spec, 20000, 5, stride=1)
            finally:
                tracemalloc.stop()
            current, merged = held[-1]
            assert current < 1.5 * merged, (cores, current, merged)


def test_usable_cores_without_affinity(monkeypatch):
    # Where os has no sched_getaffinity, every CPU counts, and at least one.
    monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 6)
    assert simulate._usable_cores() == 6
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert simulate._usable_cores() == 1


def test_rows_pass_4096_coups(monkeypatch):
    # A 10**5-coup run compares its uniforms in rows of the first whole
    # number of pattern periods past 4096 coups, never in rows of 4096.
    laid_out, layout = [], simulate._layout

    def recorded(sequence, arms, row, step):
        laid_out.append((len(sequence), row, step))
        return layout(sequence, arms, row, step)

    monkeypatch.setattr(simulate, "_layout", recorded)
    specs = [single_arm_chain(0.3, 2.0)] + [fair_chain(parse_strategy(text), PROBS) for text in ("AB", "AABB", "AAAABBBB")]
    for spec in specs:
        simulate_once(spec, 10**5, 1)
        n, row, step = laid_out[-1]
        assert row % n == 0 and row - n <= 4096 < row, (n, row)
        assert step % row == 0 and 10**5 <= step < 10**5 + row, (n, step)
    assert [n for n, _, _ in laid_out] == [1, 2, 4, 8]


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
