import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futurity import (
    ArmProbabilities,
    ChainSpec,
    DomainError,
    TwoPointArm,
    build_chain,
    chain,
    cumulative_trajectory,
    empirical_two_point,
    exact_profit,
    fair_chain,
    fair_payout,
    fair_two_point,
    mills_modes,
    mixture_chain,
    oracle_profit,
    parse_strategy,
    random_mix_profit,
    rate_profit,
    simulate_once,
    single_arm_chain,
    stationary,
)
from futurity.formulas import _award_rate
from test_formulas import CORNER_PAIRS, CORNER_PATTERNS

PROBS = ArmProbabilities(0.3, 0.7)


def random_spec(rng, allow_degenerate=True):
    n = rng.randint(1, 6)
    j = rng.choice([2, 2, 3, 4, 5])
    arms = {}
    sequence = []
    for i in range(n):
        label = f"X{i}"
        if allow_degenerate and rng.random() < 0.25:
            p = rng.choice([0.0, 1.0])
        else:
            p = rng.random()
        arms[label] = TwoPointArm(p, rng.uniform(0.0, 3.0))
        sequence.append(label)
    return ChainSpec(sequence=tuple(sequence), arms=arms, j=j)


def rational_recurrence(spec):
    """Zero-image and residue-cycle solve of a chain over Fraction.

    Returns the exact per-position streak distributions, award rate and
    casino profit of the chain's float probabilities and payouts. An
    all-loss chain (G = 1) starts from streak 0: g/J on streaks c = 0 (mod g).
    """
    n, j = spec.n, spec.j
    p_seq = [Fraction(p) for p in spec.win_probabilities()]
    q_seq = [1 - p for p in p_seq]
    loss_product = math.prod(q_seq)
    g = math.gcd(n, j)
    length = j // g

    def advance(w, i):
        return [p_seq[i] + q_seq[i] * w[j - 1]] + [q_seq[i] * w[c] for c in range(j - 1)]

    zero_image = [Fraction(0)] * j
    for i in range(n):
        zero_image = advance(zero_image, i)
    w0 = [Fraction(0)] * j
    for start in range(g):
        cycle = [(start - k * n) % j for k in range(length)]
        if loss_product == 1:
            w0[start] = Fraction(g, j) if start == 0 else Fraction(0)
        else:
            acc = sum(loss_product**k * zero_image[c] for k, c in enumerate(cycle))
            w0[start] = acc / (1 - loss_product**length)
        for idx in range(length - 1, 0, -1):
            w0[cycle[idx]] = loss_product * w0[cycle[(idx + 1) % length]] + zero_image[cycle[idx]]
    rows = [w0]
    for i in range(n - 1):
        rows.append(advance(rows[-1], i))
    assert advance(rows[-1], n - 1) == w0
    rate = sum(q * row[j - 1] for q, row in zip(q_seq, rows)) / n
    payouts = sum(Fraction(e) for e in spec.expected_payouts()) / n
    return rows, rate, 1 - payouts - j * rate


class TestChainSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            ChainSpec(sequence=(), arms={}, j=2)
        with pytest.raises(DomainError):
            ChainSpec(sequence=("A",), arms={}, j=2)
        with pytest.raises(DomainError):
            ChainSpec(sequence=("A",), arms={"A": TwoPointArm(0.5, 1.0)}, j=1)
        for j in (2.5, float("nan"), float("inf"), "3", 2**62 + 1, 2**63, 1e300):
            with pytest.raises(DomainError):
                ChainSpec(sequence=("A",), arms={"A": TwoPointArm(0.5, 1.0)}, j=j)
        assert ChainSpec(sequence=("A",), arms={"A": TwoPointArm(0.5, 1.0)}, j=3.0).j == 3

    def test_simulates_at_threshold_cap(self):
        # The simulator holds J in int64; at the 2**62 cap it plays as usual.
        spec = ChainSpec(sequence=("A", "B"), arms={"A": TwoPointArm(0.3, 2.0), "B": TwoPointArm(0.7, 1.0)}, j=2**62)
        ledger = simulate_once(spec, 1000, 5)
        assert ledger.j == 2**62 and ledger.futurity_events == 0
        assert cumulative_trajectory(spec, 1000, 5, 10)[-1, 1] == ledger.casino_profit_total

    @pytest.mark.parametrize("arm", [0.5, "A", None])
    def test_non_arm_model_refused(self, arm):
        # refused when the spec is built, so no route meets it later
        with pytest.raises(DomainError, match="not an arm model"):
            ChainSpec(sequence=("A",), arms={"A": arm}, j=2)

    def test_single_arm_allowed(self):
        spec = single_arm_chain(0.5)
        assert spec.n == 1 and spec.j == 2

    def test_boundary_probabilities_allowed(self):
        ChainSpec(sequence=("A",), arms={"A": TwoPointArm(0.0, 1.0)}, j=2)
        ChainSpec(sequence=("A",), arms={"A": TwoPointArm(1.0, 1.0)}, j=2)


class TestBuildChain:
    def test_row_stochastic(self):
        matrix = build_chain(fair_chain(parse_strategy("AB"), PROBS))
        assert matrix.shape == (4, 4)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-15)

    def test_single_fair_arm_stationary(self):
        matrix = build_chain(single_arm_chain(0.5))
        pi = stationary(matrix)
        assert pi == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-13)

    def test_deterministic_loss_cycles(self):
        spec = single_arm_chain(0.0, u=1.0, j=2)
        matrix = build_chain(spec)
        # streak walks 0 -> 1 -> (award) -> 0 deterministically
        assert matrix[0, 1] == 1.0 and matrix[1, 0] == 1.0

    def test_size_limit(self):
        arms = {"A": TwoPointArm(0.5, 1.0), "B": TwoPointArm(0.4, 1.0)}
        seq = tuple("AB" * 1001)
        with pytest.raises(DomainError):
            build_chain(ChainSpec(sequence=seq, arms=arms, j=2))


class TestStationary:
    def test_residual_small(self):
        for pattern in ("AB", "AABB", "AAABB"):
            matrix = build_chain(fair_chain(parse_strategy(pattern), PROBS, j=3))
            pi = stationary(matrix)
            assert np.max(np.abs(pi @ matrix - pi)) <= 1e-12
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert pi.min() >= 0.0

    def test_always_win_arm_leaves_streak_states_empty(self):
        spec = single_arm_chain(1.0, u=1.0, j=3)
        pi = stationary(build_chain(spec))
        assert pi == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)

    def test_ab_streak_solution(self):
        # hand solve: entering an A-coup with streak 1 has probability
        # q_b*p_a/(1 - q_a*q_b); position marginal is 1/2
        pi = stationary(build_chain(fair_chain(parse_strategy("AB"), PROBS)))
        alpha = PROBS.q_b * PROBS.p_a / (1.0 - PROBS.q_a * PROBS.q_b)
        assert pi[1] == pytest.approx(0.5 * alpha, abs=1e-13)
        assert alpha == pytest.approx(0.1139240506, abs=1e-9)


class TestOracleProfit:
    def test_fair_single_arm_zero(self):
        for k in range(1, 100):
            p = k / 100
            solution = oracle_profit(single_arm_chain(p))
            assert abs(solution.casino_profit) <= 1e-12
        for p in (1e-12, 1e-9, 1e-6):
            assert abs(oracle_profit(single_arm_chain(p)).casino_profit) <= 1e-15

    def test_ab_values(self):
        solution = oracle_profit(fair_chain(parse_strategy("AB"), PROBS))
        assert solution.casino_profit == pytest.approx(0.0916432785382897, abs=1e-12)
        assert solution.futurity_rate == pytest.approx(21.0 / 158.0, abs=1e-12)

    def test_aabb_values(self):
        solution = oracle_profit(fair_chain(parse_strategy("AABB"), PROBS), method="dense")
        assert solution.casino_profit == pytest.approx(0.007952515906215223, abs=1e-12)
        assert solution.futurity_rate == pytest.approx(0.17475677372110054, abs=1e-12)

    def test_methods_agree_randomized(self):
        rng = random.Random(318)
        for _ in range(200):
            spec = random_spec(rng)
            fast = oracle_profit(spec, method="recurrence")
            dense = oracle_profit(spec, method="dense")
            assert fast.casino_profit == pytest.approx(dense.casino_profit, abs=1e-11)
            assert fast.futurity_rate == pytest.approx(dense.futurity_rate, abs=1e-11)
            assert np.allclose(fast.stationary, dense.stationary, atol=1e-10)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            oracle_profit(single_arm_chain(0.5), method="guess")

    def test_solution_invariants(self):
        rng = random.Random(77)
        for _ in range(100):
            spec = random_spec(rng)
            solution = oracle_profit(spec)
            assert solution.stationary.sum() == pytest.approx(1.0, abs=1e-10)
            assert solution.stationary.min() >= -1e-12
            assert solution.casino_profit == 1.0 - solution.player_return
            assert solution.residual <= 1e-12

    def test_all_loss_chain(self):
        # every coup loses, or so nearly that 1 - p rounds to 1: an award lands
        # every J coups and refunds J coins
        for p in (0.0, 1e-300, 1e-17):
            for n, j in [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (6, 4)]:
                arms = {"L": TwoPointArm(p, 1.0)}
                spec = ChainSpec(sequence=("L",) * n, arms=arms, j=j)
                solution = oracle_profit(spec)
                assert solution.futurity_rate == pytest.approx(1.0 / j, abs=1e-14)
                assert solution.casino_profit == pytest.approx(0.0, abs=1e-14)
                dense = oracle_profit(spec, method="dense")
                assert dense.casino_profit == pytest.approx(0.0, abs=1e-12)
                assert np.allclose(solution.stationary, dense.stationary, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("p_a, p_b", CORNER_PAIRS)
    def test_matches_rational_recurrence(self, p_a, p_b):
        probs = ArmProbabilities(p_a, p_b)
        cases = [(text, 2) for text in CORNER_PATTERNS]
        cases += [(text, j) for text in ("AB", "AAB") for j in (3, 5)]
        for text, j in cases:
            spec = fair_chain(parse_strategy(text), probs, j=j)
            rows, rate, profit = rational_recurrence(spec)
            solution = oracle_profit(spec)
            assert abs(Fraction(solution.casino_profit) - profit) <= 1e-15, (text, j)
            assert abs(Fraction(solution.futurity_rate) - rate) <= 1e-15, (text, j)
            exact = [w / spec.n for row in rows for w in row]
            worst = max(abs(Fraction(x) - y) for x, y in zip(solution.stationary, exact))
            assert worst <= 1e-15, (text, j)

    def test_state_cap(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the chain was solved before its size was checked")

        monkeypatch.setattr(chain, "_streak_distributions", unreachable)
        arms = {"A": TwoPointArm(0.5, 1.0)}
        with pytest.raises(DomainError, match="cap"):
            oracle_profit(ChainSpec(("A",) * 2, arms, j=chain.MAX_CHAIN_STATES // 2 + 1))
        with pytest.raises(AssertionError, match="solved"):
            oracle_profit(ChainSpec(("A",) * 2, arms, j=chain.MAX_CHAIN_STATES // 2))

    def test_always_win_profit(self):
        spec = single_arm_chain(1.0, u=1.25)
        assert oracle_profit(spec).casino_profit == pytest.approx(-0.25, abs=1e-15)

    def test_j_generalization_sane(self):
        for j in (2, 3, 5, 10):
            spec = fair_chain(parse_strategy("AABAB"), PROBS, j=j)
            solution = oracle_profit(spec)
            assert solution.residual <= 1e-12
            assert -1.5 <= solution.casino_profit <= 1.0
        # fair calibration is specific to J=2: single-arm profit moves off 0
        assert abs(oracle_profit(single_arm_chain(0.3, j=10)).casino_profit) > 1e-4

    def test_matches_theorem_route(self):
        rng = random.Random(101)
        for _ in range(100):
            sym = "".join(rng.choice("AB") for _ in range(rng.randint(2, 12)))
            if "A" not in sym or "B" not in sym:
                continue
            s = parse_strategy(sym)
            probs = ArmProbabilities(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            oracle = oracle_profit(fair_chain(s, probs)).casino_profit
            assert exact_profit(s, probs).profit == pytest.approx(oracle, abs=1e-9)

    def test_large_chain_fast(self):
        rng = random.Random(111)
        sym = "".join(rng.choice("AB") for _ in range(10_000))
        spec = fair_chain(parse_strategy(sym), PROBS, j=10)
        start = time.perf_counter()
        solution = oracle_profit(spec)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert solution.residual <= 1e-12
        assert solution.stationary.size == 100_000


def rate_bound(spec):
    """Absolute agreement bound of rate_profit with the oracle: 4*n*J*eps."""
    return 4 * spec.n * spec.j * 2.0**-52


MODE_E, MODE_O = mills_modes()
MILLS_ARMS = [
    {"A": reduce(MODE_E), "B": reduce(MODE_O)}
    for reduce in (fair_two_point, empirical_two_point, lambda mode: mode)
]
PAPER_PATTERN = "AAAABBBBAAAAAABBB"

two_point_arms = st.builds(
    TwoPointArm, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.floats(0.0, 3.0)
)


@st.composite
def chain_specs(draw):
    """Chains of 1..40 positions on up to 3 two-point or Mills arms, J = 2..12."""
    labels = "ABC"[: draw(st.integers(1, 3))]
    arm = st.one_of(two_point_arms, st.sampled_from([MODE_E, MODE_O]))
    arms = {label: draw(arm) for label in labels}
    sequence = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=40))
    return ChainSpec(tuple(sequence), arms, j=draw(st.integers(2, 12)))


class TestRateProfit:
    @settings(max_examples=300, deadline=None)
    @given(chain_specs())
    def test_matches_oracle(self, spec):
        oracle = oracle_profit(spec).casino_profit
        assert abs(rate_profit(spec) - oracle) <= rate_bound(spec)

    def test_mills_at_larger_j(self):
        for arms in MILLS_ARMS:
            for text in ("AB", "AAABB", PAPER_PATTERN):
                for j in (3, 5):
                    spec = ChainSpec(parse_strategy(text).symbols, arms, j=j)
                    oracle = oracle_profit(spec).casino_profit
                    assert abs(rate_profit(spec) - oracle) <= rate_bound(spec), (text, j)

    @pytest.mark.parametrize("p_a, p_b", CORNER_PAIRS)
    def test_rate_matches_rational_recurrence(self, p_a, p_b):
        probs = ArmProbabilities(p_a, p_b)
        for text in ("AB", "AAB", "AABAB", PAPER_PATTERN):
            for j in (3, 5, 11):
                spec = fair_chain(parse_strategy(text), probs, j=j)
                _, rate, _ = rational_recurrence(spec)
                error = abs(Fraction(_award_rate(spec.win_probabilities(), j)) - rate) / rate
                assert error <= 1e-14, (text, j)

    def test_all_loss_chain(self):
        # no coup ever wins: the gap is 0 and an award lands every J coups
        for n, j in [(1, 2), (2, 2), (3, 2), (2, 3), (4, 6), (5, 12)]:
            spec = ChainSpec(("L",) * n, {"L": TwoPointArm(0.0, 2.0)}, j=j)
            assert _award_rate(spec.win_probabilities(), j) == 1.0 / j
            assert rate_profit(spec) == oracle_profit(spec).casino_profit == 0.0

    def test_all_win_chain(self):
        for n, j in [(1, 2), (3, 2), (2, 5)]:
            spec = ChainSpec(("W",) * n, {"W": TwoPointArm(1.0, 1.25)}, j=j)
            assert _award_rate(spec.win_probabilities(), j) == 0.0
            assert rate_profit(spec) == oracle_profit(spec).casino_profit == -0.25

    def test_subnormal_win_probabilities_stay_finite(self):
        # the lap gap is subnormal here, so the walk must not form V = U / gap
        for p in (1e-310, 5e-324):
            for n, j in [(1, 2), (3, 2), (4, 3)]:
                spec = ChainSpec(("A",) * n, {"A": TwoPointArm(p, 1.0)}, j=j)
                assert rate_profit(spec) == pytest.approx(oracle_profit(spec).casino_profit, abs=rate_bound(spec))

    def test_state_cap(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the rate was walked before the chain's size was checked")

        monkeypatch.setattr(chain, "_award_rate", unreachable)
        arms = {"A": TwoPointArm(0.5, 1.0)}
        with pytest.raises(DomainError, match="cap"):
            rate_profit(ChainSpec(("A",) * 2, arms, j=chain.MAX_CHAIN_STATES // 2 + 1))
        with pytest.raises(AssertionError, match="walked"):
            rate_profit(ChainSpec(("A",) * 2, arms, j=chain.MAX_CHAIN_STATES // 2))


class TestMixtureChain:
    def test_matches_closed_form(self):
        for gamma in (0.1, 0.25, 0.5, 0.75, 0.9):
            oracle = oracle_profit(mixture_chain(gamma, PROBS)).casino_profit
            assert oracle == pytest.approx(random_mix_profit(gamma, PROBS), abs=1e-13)

    def test_frozen_value(self):
        oracle = oracle_profit(mixture_chain(0.5, PROBS)).casino_profit
        assert oracle == pytest.approx(0.024132730015082926, abs=1e-12)

    def test_gamma_domain(self):
        for gamma in (1.5, -0.1, float("nan")):
            with pytest.raises(DomainError):
                mixture_chain(gamma, PROBS)

    def test_gamma_is_cast_to_float(self):
        assert mixture_chain("0.5", PROBS) == mixture_chain(0.5, PROBS)

    def test_three_point_arm_blends_the_fair_arms(self):
        u_a, u_b = fair_payout(PROBS.p_a), fair_payout(PROBS.p_b)
        # gamma = 0 and 1 keep their zero-probability entry.
        for gamma in (0.0, 0.3, 0.5, 1.0):
            spec = mixture_chain(gamma, PROBS)
            a, b, (lose, _) = spec.arms["M"].entries
            assert (a, b, lose) == ((u_a, gamma * PROBS.p_a), (u_b, (1.0 - gamma) * PROBS.p_b), 0.0)
            blend = gamma * PROBS.p_a + (1.0 - gamma) * PROBS.p_b
            assert spec.win_probabilities() == [pytest.approx(blend, abs=1e-15)]
            payout = gamma * PROBS.p_a * u_a + (1.0 - gamma) * PROBS.p_b * u_b
            assert spec.expected_payouts() == [pytest.approx(payout, abs=1e-15)]

    def test_equal_payouts_share_one_entry(self):
        # fair_payout rounds 0.3 and the next double above it to one payout.
        for p_b in (0.3, math.nextafter(0.3, 1.0)):
            entries = mixture_chain(0.4, ArmProbabilities(0.3, p_b)).arms["M"].entries
            assert entries == ((fair_payout(0.3), 0.4 * 0.3 + 0.6 * p_b), (0.0, pytest.approx(0.7, abs=1e-15)))


class TestFairChainConstruction:
    def test_payouts_are_calibrated(self):
        spec = fair_chain(parse_strategy("AB"), PROBS)
        assert spec.arms["A"] == TwoPointArm(0.3, fair_payout(0.3))
        assert spec.arms["B"] == TwoPointArm(0.7, fair_payout(0.7))
