import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futurity import (
    ArmProbabilities,
    BlockCountTooSmall,
    BlockVector,
    DomainError,
    ars_profit,
    b_sequence,
    block_swap_delta,
    block_vector,
    canonical_rotation,
    exact_profit,
    fair_chain,
    fair_payout,
    futurity_rate_strategy,
    mirror,
    mixture_chain,
    oracle_profit,
    parse_strategy,
    profit_via_rates,
    q_factor,
    random_mix_profit,
    rotate,
    s_factor,
    single_arm_futurity_rate,
    swap_last_runs,
)

PROBS = ArmProbabilities(0.3, 0.7)

# Oracle-computed reference values, frozen (see tests/test_chain.py for the
# independent hand solves that confirm them).
R_AB = 0.0916432785382897  # exactly 1600/17459
R_AABB = 0.007952515906215223
RATE_AB = 21.0 / 158.0
RC_HALF = 0.024132730015082926


def grid(step=0.1):
    return [round(k * step, 10) for k in range(1, int(1 / step))]


def random_probs(rng):
    return ArmProbabilities(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))


def random_blocks(rng, h):
    return BlockVector(tuple(rng.randint(1, 4) for _ in range(2 * h)))


probabilities = st.builds(ArmProbabilities, st.floats(0.01, 0.99), st.floats(0.01, 0.99))
patterns = (
    st.lists(st.sampled_from("AB"), min_size=2, max_size=200)
    .filter(lambda sym: "A" in sym and "B" in sym)
    .map(lambda sym: parse_strategy("".join(sym)))
)
# 2..25 block pairs with runs of 1..4: patterns of length 4..200
block_vectors = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=2, max_size=25
).map(lambda pairs: BlockVector(sum(pairs, ())))


class TestArmProbabilities:
    def test_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                ArmProbabilities(bad, 0.5)
            with pytest.raises(DomainError):
                ArmProbabilities(0.5, bad)

    def test_subnormal_probability_rejected(self):
        # 1 - p must stay below 1.0 in double precision
        with pytest.raises(DomainError):
            ArmProbabilities(1e-18, 0.5)

    def test_derived_losses(self):
        assert PROBS.q_a == pytest.approx(0.7, abs=1e-16)
        assert PROBS.q_b == pytest.approx(0.3, abs=1e-16)
        assert PROBS.swapped() == ArmProbabilities(0.7, 0.3)


class TestBSequence:
    def test_single_pair(self):
        assert b_sequence(BlockVector((1, 1)), PROBS) == pytest.approx((-0.7, -0.3), abs=1e-16)

    def test_even_runs_positive(self):
        b = b_sequence(BlockVector((2, 2)), PROBS)
        assert b == pytest.approx((0.49, 0.09), abs=1e-15)

    def test_sign_follows_run_parity(self):
        a = (2, 1, 2, 2, 1, 2, 1, 2, 2, 1)
        b = b_sequence(BlockVector(a), PROBS)
        expected_signs = [1 if length % 2 == 0 else -1 for length in a]
        assert [math.copysign(1, x) for x in b] == expected_signs
        assert all(abs(x) < 1.0 for x in b)

    def test_one_period(self):
        b = b_sequence(BlockVector((3, 1, 2, 2)), PROBS)
        assert b == pytest.approx((-(0.7**3), -0.3, 0.49, 0.09), abs=1e-15)


def brute_force_q(b):
    """Literal O(h^2) double sum over one period b of b_sequence.

    Uses explicit per-term products (no running window) in the number type
    of b's entries, so Fraction entries give Q exactly.
    """
    h = len(b) // 2
    b = tuple(b) * 2  # windows wrap past the end of one period
    total = h
    for m in range(1, 2 * h + 1):
        for j in range(1, 2 * h):
            term = (-1) ** j
            for i in range(m, m + j):
                term *= b[i - 1]
            total += term
    tail = h
    for i in range(2 * h):
        tail *= b[i]
    return total + tail


def rational_b(blocks, probs):
    """b_sequence in exact arithmetic, with q = 1 - p taken without rounding."""
    q = (1 - Fraction(probs.p_a), 1 - Fraction(probs.p_b))
    return tuple((-q[i % 2]) ** length for i, length in enumerate(blocks.a))


def rational_s(r, s, probs):
    """Literal S, with the (1 + P) / (1 - P^2) pair the float form cancels."""
    p_a, p_b = Fraction(probs.p_a), Fraction(probs.p_b)
    q_a, q_b = 1 - p_a, 1 - p_b
    numerator = (p_a - p_b) ** 2 * (1 + (-1) ** (r + s) * q_a**r * q_b**s)
    denominator = (r + s) * (2 - p_a) ** 2 * (2 - p_b) ** 2 * (1 - q_a ** (2 * r) * q_b ** (2 * s))
    return numerator / denominator


def rational_rate(strategy, probs):
    """Literal O(n^2) award-rate sum: each position's loss products over 2n steps."""
    p_seq = [Fraction(probs.p_a if ch == "A" else probs.p_b) for ch in strategy.symbols]
    q_seq = [1 - p for p in p_seq]
    n = len(p_seq)
    total = 0
    for j in range(n):
        window = 1
        for step in range(1, 2 * n + 1):
            window *= q_seq[(j + step) % n]
            if step % 2 == 0:
                total += p_seq[j] * window
    return total / (n * (1 - math.prod(q_seq) ** 2))


def relative_error(value, exact):
    return float(abs(Fraction(value) - exact) / abs(exact))


CORNER_PATTERNS = (
    "AB", "AAB", "AABB", "AABAB", "AABAAB", "ABAABB", "AAABAB", "ABBBAB", "AAAABBBBAAAAAABBB",
)
CORNER_PAIRS = (
    (1e-9, 3e-9), (3e-9, 1e-9), (1e-7, 2e-7), (1e-4, 2e-4), (0.999999, 0.999998), (0.01, 0.99),
)


class TestRationalReference:
    @pytest.mark.parametrize("p_a, p_b", CORNER_PAIRS)
    def test_corner_table(self, p_a, p_b):
        probs = ArmProbabilities(p_a, p_b)
        for text in CORNER_PATTERNS:
            strategy = parse_strategy(text)
            blocks = block_vector(canonical_rotation(strategy))
            q = brute_force_q(rational_b(blocks, probs))
            s = rational_s(blocks.r, blocks.s, probs)
            report = exact_profit(strategy, probs)
            assert report.q_factor > 0.0, text
            assert relative_error(report.q_factor, q) <= 1e-7, text
            assert relative_error(report.profit, 2 * q * s) <= 1e-7, text
            assert relative_error(report.s_factor, s) <= 1e-14, text
            rate = futurity_rate_strategy(strategy, probs)
            assert relative_error(rate, rational_rate(strategy, probs)) <= 1e-14, text
            if blocks.h == 1:
                ars = ars_profit(blocks.r, blocks.s, probs)
                assert relative_error(ars, 2 * q * s) <= 1e-14, text


class TestQFactor:
    def test_h1_collapses_to_product(self):
        # for a single block pair, Q = (1 - b1)(1 - b2)
        for p_a in grid():
            for p_b in grid():
                probs = ArmProbabilities(p_a, p_b)
                for r, s in [(1, 1), (2, 2), (3, 1), (1, 4)]:
                    blocks = BlockVector((r, s))
                    b = b_sequence(blocks, probs)
                    expected = (1.0 - b[0]) * (1.0 - b[1])
                    assert q_factor(blocks, probs) == pytest.approx(expected, abs=1e-13)

    def test_known_values(self):
        assert q_factor(BlockVector((1, 1)), PROBS) == pytest.approx(2.21, abs=1e-14)
        assert q_factor(BlockVector((2, 2)), PROBS) == pytest.approx(0.4641, abs=1e-14)
        half = ArmProbabilities(0.5, 0.5)
        assert q_factor(BlockVector((1, 1)), half) == pytest.approx(2.25, abs=1e-14)

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(100):
            blocks = random_blocks(rng, rng.randint(1, 5))
            probs = random_probs(rng)
            assert q_factor(blocks, probs) == pytest.approx(
                brute_force_q(b_sequence(blocks, probs)), rel=1e-12
            )

    def test_positive(self):
        rng = random.Random(5)
        for _ in range(300):
            assert q_factor(random_blocks(rng, rng.randint(1, 6)), random_probs(rng)) > 0.0


class TestSFactor:
    def test_zero_iff_equal(self):
        for p in grid():
            assert s_factor(3, 4, ArmProbabilities(p, p)) == 0.0
        assert s_factor(1, 1, PROBS) > 0.0

    def test_known_values(self):
        assert s_factor(1, 1, PROBS) == pytest.approx(0.02073377342495242, rel=1e-12)
        assert s_factor(2, 2, PROBS) == pytest.approx(0.008567674968988604, rel=1e-12)

    def test_nonnegative_everywhere(self):
        rng = random.Random(11)
        for _ in range(300):
            assert s_factor(rng.randint(1, 9), rng.randint(1, 9), random_probs(rng)) >= 0.0

    def test_counts_validated(self):
        with pytest.raises(DomainError):
            s_factor(0, 1, PROBS)


class TestExactProfit:
    def test_frozen_values(self):
        assert exact_profit(parse_strategy("AB"), PROBS).profit == pytest.approx(R_AB, rel=1e-12)
        assert exact_profit(parse_strategy("AABB"), PROBS).profit == pytest.approx(
            R_AABB, rel=1e-12
        )

    def test_report_fields(self):
        report = exact_profit(parse_strategy("AAAABBBBAAAAAABBB"), PROBS)
        assert (report.h, report.r, report.s) == (2, 10, 7)
        assert report.profit == pytest.approx(2.0 * report.q_factor * report.s_factor, rel=1e-15)

    def test_diagonal_is_exactly_zero(self):
        for p in grid():
            probs = ArmProbabilities(p, p)
            assert exact_profit(parse_strategy("ABBAB"), probs).profit == 0.0

    def test_rotation_invariance(self):
        s = parse_strategy("AABABBB")
        base = exact_profit(s, PROBS).profit
        for shift in range(1, s.n):
            assert exact_profit(rotate(s, shift), PROBS).profit == pytest.approx(
                base, abs=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(patterns, probabilities, st.integers(2, 4))
    def test_repetition_invariance(self, s, probs, k):
        base = exact_profit(s, probs).profit
        repeated = parse_strategy(s.text() * k)
        assert exact_profit(repeated, probs).profit == pytest.approx(base, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(patterns, probabilities)
    def test_mirror_symmetry(self, s, probs):
        left = exact_profit(s, probs).profit
        right = exact_profit(mirror(s), probs.swapped()).profit
        assert left == pytest.approx(right, abs=1e-12)


class TestArsProfit:
    def test_equals_exact(self):
        rng = random.Random(17)
        for _ in range(100):
            r, s = rng.randint(1, 6), rng.randint(1, 6)
            probs = random_probs(rng)
            pattern = parse_strategy("A" * r + "B" * s)
            assert ars_profit(r, s, probs) == pytest.approx(
                exact_profit(pattern, probs).profit, abs=1e-12
            )

    def test_known_value(self):
        assert ars_profit(1, 1, PROBS) == pytest.approx(R_AB, rel=1e-12)

    def test_zero_on_diagonal(self):
        assert ars_profit(4, 2, ArmProbabilities(0.42, 0.42)) == 0.0

    def test_counts_validated(self):
        for r, s in ((0, 1), (1, 0)):
            with pytest.raises(DomainError, match="play counts"):
                ars_profit(r, s, PROBS)


class TestSingleArmQuantities:
    def test_futurity_rate_values(self):
        assert single_arm_futurity_rate(0.5) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert single_arm_futurity_rate(0.3) == pytest.approx(0.49 / 1.7, rel=1e-15)
        assert single_arm_futurity_rate(0.7) == pytest.approx(0.09 / 1.3, rel=1e-15)

    def test_rate_range(self):
        for k in range(1, 100):
            rate = single_arm_futurity_rate(k / 100)
            assert 0.0 < rate < 0.5

    def test_fair_payout_values(self):
        assert fair_payout(0.5) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert fair_payout(0.3) == pytest.approx(2.4 / 1.7, rel=1e-15)

    def test_fairness_identity_dense_grid(self):
        # p*u + 2*rate = 1: a fair arm returns the stake exactly
        for k in range(1, 1000):
            p = k / 1000
            residual = p * fair_payout(p) + 2.0 * single_arm_futurity_rate(p) - 1.0
            assert abs(residual) <= 1e-12

    def test_payout_range(self):
        for k in range(1, 100):
            assert 1.0 < fair_payout(k / 100) < 1.5

    def test_domain(self):
        for fn in (fair_payout, single_arm_futurity_rate):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(1.0)


class TestFuturityRateStrategy:
    def test_ab_matches_hand_solve(self):
        # two-unknown stationary solve: alpha and beta are the streak-1
        # probabilities entering an A-coup and a B-coup respectively
        alpha = PROBS.q_b * (1.0 - PROBS.q_a) / (1.0 - PROBS.q_a * PROBS.q_b)
        beta = PROBS.q_a * (1.0 - alpha)
        expected = 0.5 * (alpha * PROBS.q_a + beta * PROBS.q_b)
        rate = futurity_rate_strategy(parse_strategy("AB"), PROBS)
        assert rate == pytest.approx(expected, abs=1e-15)
        assert rate == pytest.approx(RATE_AB, abs=1e-15)

    def test_identical_arms_reduce_to_single_arm(self):
        for p in grid():
            probs = ArmProbabilities(p, p)
            rate = futurity_rate_strategy(parse_strategy("AB"), probs)
            assert rate == pytest.approx(single_arm_futurity_rate(p), abs=1e-14)

    def test_matches_chain_oracle(self):
        rng = random.Random(23)
        for _ in range(50):
            sym = tuple(rng.choice("AB") for _ in range(rng.randint(2, 10)))
            if "A" not in sym or "B" not in sym:
                continue
            s = parse_strategy("".join(sym))
            probs = random_probs(rng)
            oracle_rate = oracle_profit(fair_chain(s, probs)).futurity_rate
            assert futurity_rate_strategy(s, probs) == pytest.approx(oracle_rate, abs=1e-12)

    def test_rotation_invariant(self):
        s = parse_strategy("AABBAB")
        base = futurity_rate_strategy(s, PROBS)
        for shift in range(1, s.n):
            assert futurity_rate_strategy(rotate(s, shift), PROBS) == pytest.approx(
                base, abs=1e-14
            )


class TestProfitViaRates:
    def test_agrees_with_exact(self):
        rng = random.Random(41)
        for _ in range(100):
            sym = tuple(rng.choice("AB") for _ in range(rng.randint(2, 12)))
            if "A" not in sym or "B" not in sym:
                continue
            s = parse_strategy("".join(sym))
            probs = random_probs(rng)
            assert profit_via_rates(s, probs) == pytest.approx(
                exact_profit(s, probs).profit, abs=1e-9
            )

    def test_diagonal_zero(self):
        probs = ArmProbabilities(0.4, 0.4)
        assert abs(profit_via_rates(parse_strategy("AABB"), probs)) < 1e-15


class TestBlockSwapDelta:
    def test_abab_example(self):
        blocks = block_vector(parse_strategy("ABAB"))
        delta = block_swap_delta(blocks, PROBS)
        assert delta == pytest.approx(R_AB - R_AABB, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(block_vectors, probabilities)
    def test_random_blocks_match_direct_difference(self, blocks, probs):
        swapped = swap_last_runs(blocks)
        direct = (
            exact_profit(blocks.to_strategy(), probs).profit - exact_profit(swapped, probs).profit
        )
        assert block_swap_delta(blocks, probs) == pytest.approx(direct, abs=1e-12)

    def test_diagonal_zero(self):
        blocks = BlockVector((2, 1, 1, 3))
        assert block_swap_delta(blocks, ArmProbabilities(0.6, 0.6)) == 0.0

    def test_h1_rejected(self):
        with pytest.raises(BlockCountTooSmall):
            block_swap_delta(BlockVector((3, 2)), PROBS)


class TestRandomMixProfit:
    def test_frozen_value(self):
        assert random_mix_profit(0.5, PROBS) == pytest.approx(RC_HALF, rel=1e-12)

    def test_matches_mixture_oracle(self):
        rng = random.Random(61)
        for _ in range(50):
            gamma = rng.random()
            probs = random_probs(rng)
            oracle = oracle_profit(mixture_chain(gamma, probs)).casino_profit
            assert random_mix_profit(gamma, probs) == pytest.approx(oracle, abs=1e-12)

    def test_pure_arms_zero(self):
        assert random_mix_profit(0.0, PROBS) == 0.0
        assert random_mix_profit(1.0, PROBS) == 0.0

    def test_diagonal_zero(self):
        assert random_mix_profit(0.5, ArmProbabilities(0.3, 0.3)) == 0.0

    def test_rounding_below_zero_stays_within_ulps(self):
        # Near the diagonal the rate differences cancel to a value of order
        # (p_a - p_b)**2, and rounding can leave it a few ulps below zero.
        rng = random.Random(20000)
        worst = 0.0
        for _ in range(20000):
            p_a = rng.uniform(0.01, 0.99)
            p_b = p_a + rng.choice((-1, 1)) * rng.choice((1e-16, 1e-12, 1e-9, 1e-6))
            worst = min(worst, random_mix_profit(rng.random(), ArmProbabilities(p_a, p_b)))
        assert worst >= -8 * sys.float_info.epsilon

    def test_nonnegative_grid(self):
        for gamma in [k / 10 for k in range(11)]:
            for p_a in grid():
                for p_b in grid():
                    assert random_mix_profit(gamma, ArmProbabilities(p_a, p_b)) >= -1e-12

    def test_symmetric_at_half(self):
        for p_a in grid():
            for p_b in grid():
                left = random_mix_profit(0.5, ArmProbabilities(p_a, p_b))
                right = random_mix_profit(0.5, ArmProbabilities(p_b, p_a))
                assert left == pytest.approx(right, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            random_mix_profit(-0.01, PROBS)
        with pytest.raises(DomainError):
            random_mix_profit(1.01, PROBS)


class TestPositivity:
    def test_randomized_positivity(self):
        rng = random.Random(71)
        for _ in range(300):
            sym = tuple(rng.choice("AB") for _ in range(rng.randint(2, 14)))
            if "A" not in sym or "B" not in sym:
                continue
            p_a, p_b = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
            if p_a == p_b:
                continue
            report = exact_profit(parse_strategy("".join(sym)), ArmProbabilities(p_a, p_b))
            assert report.profit > 0.0
            assert report.q_factor > 0.0
