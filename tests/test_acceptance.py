"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The heavy criteria (1, 2, 7) together take several minutes at full scale.
"""

import itertools
import random
import time
from contextlib import contextmanager

from futurity import (
    ArmProbabilities,
    ChainSpec,
    SimConfig,
    block_swap_delta,
    cumulative_trajectory,
    exact_profit,
    fair_chain,
    fair_two_point,
    format_machine_file,
    load_machine_file,
    mills_modes,
    mirror,
    mixture_chain,
    oracle_profit,
    parse_strategy,
    profit_via_rates,
    random_mix_profit,
    replicate,
    replicate_mixture,
    rotate,
    simulate_once,
    single_arm_chain,
    swap_last_runs,
)
from futurity.cli import main as cli_main
from futurity.formulas import _award_rate
from futurity.machines import MILLS_MODE_E_PROBS, MILLS_MODE_O_PROBS, MILLS_REWARDS
from futurity.strategy import BlockVector, Strategy

PROBS = ArmProbabilities(0.3, 0.7)
PAPER_STRATEGIES = ("AB", "AABB", "AAABB", "AAAABBBBAAAAAABBB")
PROB_GRID = [k / 10 for k in range(1, 10)]


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{description}]: PASS")


def both_arm_patterns(max_length):
    for length in range(2, max_length + 1):
        for bits in itertools.product("AB", repeat=length):
            if "A" in bits and "B" in bits:
                yield Strategy(bits)


def test_criterion_1_three_route_agreement():
    with criterion(1, "three-route agreement, patterns <= 12 x 9x9 grid, tol 1e-9"):
        start = time.perf_counter()
        grid = [ArmProbabilities(a, b) for a in PROB_GRID for b in PROB_GRID]
        single_rates = {
            probs: (_award_rate([probs.p_a], 2), _award_rate([probs.p_b], 2))
            for probs in grid
        }
        patterns = 0
        worst_theorem = worst_lemma = worst_rate = 0.0
        for strategy in both_arm_patterns(12):
            patterns += 1
            n, r, s = strategy.n, strategy.r, strategy.s
            for probs in grid:
                oracle = oracle_profit(fair_chain(strategy, probs))
                theorem = exact_profit(strategy, probs).profit
                lemma_profit = profit_via_rates(strategy, probs)
                rate_a, rate_b = single_rates[probs]
                lemma_rate = (r * rate_a + s * rate_b) / n - lemma_profit / 2.0
                worst_theorem = max(worst_theorem, abs(theorem - oracle.casino_profit))
                worst_lemma = max(worst_lemma, abs(lemma_profit - oracle.casino_profit))
                worst_rate = max(worst_rate, abs(lemma_rate - oracle.futurity_rate))
        elapsed = time.perf_counter() - start
        print(
            f"  {patterns} patterns x {len(grid)} cells in {elapsed:.0f}s; "
            f"worst diffs: theorem {worst_theorem:.2e}, "
            f"rate-route {worst_lemma:.2e}, award rate {worst_rate:.2e}"
        )
        assert patterns == 8166
        assert worst_theorem <= 1e-9
        assert worst_lemma <= 1e-9
        assert worst_rate <= 1e-9
        assert elapsed < 300.0


def test_criterion_2_single_arm_fairness():
    with criterion(2, "fair single arm: exact zero profit + Monte Carlo around zero"):
        for k in range(1, 100):
            profit = oracle_profit(single_arm_chain(k / 100)).casino_profit
            assert abs(profit) <= 1e-12, f"p={k/100}: profit {profit}"
        config = SimConfig(coups=100_000, replications=1000, master_seed=202608)
        for p in PROB_GRID:
            result = replicate(single_arm_chain(p), config)
            assert abs(result.grand_mean) <= 3.0 * result.standard_error, (
                f"p={p}: grand mean {result.grand_mean:.3e} "
                f"exceeds 3*SE={3 * result.standard_error:.3e}"
            )


def test_criterion_3_worked_values():
    with criterion(3, "worked values for AB and AABB at (0.3, 0.7), three confirmations"):
        expected = {"AB": 0.0916430, "AABB": 0.0079525}
        config = SimConfig(coups=100_000, replications=1000, master_seed=3030)
        for text, value in expected.items():
            strategy = parse_strategy(text)
            theorem = exact_profit(strategy, PROBS).profit
            dense = oracle_profit(fair_chain(strategy, PROBS), method="dense").casino_profit
            assert abs(theorem - value) <= 1e-6
            assert abs(dense - value) <= 1e-6
            result = replicate(fair_chain(strategy, PROBS), config)
            assert abs(result.grand_mean - dense) <= 3.0 * result.standard_error, (
                f"{text}: MC {result.grand_mean:.6f} vs oracle {dense:.6f}, "
                f"SE {result.standard_error:.2e}"
            )


def test_criterion_4_invariance_suite():
    with criterion(4, "rotation / repetition / mirror / block-swap identities"):
        rng = random.Random(44)
        samples = ["AB", "AABB", "ABBAB", "AABABB", "AAAABBBBAAAAAABBB"]
        for _ in range(20):
            sym = "".join(rng.choice("AB") for _ in range(rng.randint(2, 12)))
            if "A" in sym and "B" in sym:
                samples.append(sym)

        for text in samples:
            strategy = parse_strategy(text)
            probs = ArmProbabilities(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            base = exact_profit(strategy, probs).profit
            for shift in range(1, strategy.n):
                rotated = exact_profit(rotate(strategy, shift), probs).profit
                assert abs(rotated - base) <= 1e-12
            for k in (2, 3, 4):
                repeated = exact_profit(parse_strategy(text * k), probs).profit
                assert abs(repeated - base) <= 1e-9
            mirrored = exact_profit(mirror(strategy), probs.swapped()).profit
            assert abs(mirrored - base) <= 1e-12

        for _ in range(200):
            h = rng.choice([2, 3, 4])
            blocks = BlockVector(tuple(rng.randint(1, 4) for _ in range(2 * h)))
            probs = ArmProbabilities(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            delta = block_swap_delta(blocks, probs)
            direct = (
                exact_profit(blocks.to_strategy(), probs).profit
                - exact_profit(swap_last_runs(blocks), probs).profit
            )
            assert abs(delta - direct) <= 1e-12


def test_criterion_5_positivity():
    with criterion(5, "R > 0 and Q > 0 off the diagonal, R = 0 on it"):
        rng = random.Random(55)
        draws = 0
        while draws < 1000:
            sym = "".join(rng.choice("AB") for _ in range(rng.randint(2, 16)))
            if "A" not in sym or "B" not in sym:
                continue
            p_a = rng.uniform(0.01, 0.99)
            p_b = rng.uniform(0.01, 0.99)
            if p_a == p_b:
                continue
            draws += 1
            report = exact_profit(parse_strategy(sym), ArmProbabilities(p_a, p_b))
            assert report.profit > 0.0, (sym, p_a, p_b)
            assert report.q_factor > 0.0, (sym, p_a, p_b)
        for p in PROB_GRID:
            diagonal = exact_profit(parse_strategy("ABBAAB"), ArmProbabilities(p, p)).profit
            assert abs(diagonal) <= 1e-12


def test_criterion_6_random_mixture():
    with criterion(6, "random mixture: nonnegative grid, oracle value, Monte Carlo"):
        for gamma in [k / 10 for k in range(11)]:
            for p_a in PROB_GRID:
                for p_b in PROB_GRID:
                    assert random_mix_profit(gamma, ArmProbabilities(p_a, p_b)) >= -1e-12
        value = random_mix_profit(0.5, PROBS)
        oracle = oracle_profit(mixture_chain(0.5, PROBS)).casino_profit
        assert abs(value - 0.0241327) <= 1e-6
        assert abs(value - oracle) <= 1e-12
        config = SimConfig(coups=100_000, replications=1000, master_seed=606)
        result = replicate_mixture(0.5, PROBS, config)
        assert abs(result.grand_mean - value) <= 3.0 * result.standard_error, (
            f"MC {result.grand_mean:.6f} vs closed form {value:.6f}, "
            f"SE {result.standard_error:.2e}"
        )


def test_criterion_7_paper_scale_protocol():
    with criterion(7, "full protocol: M=100000, 10000 replications, four patterns"):
        start = time.perf_counter()
        config = SimConfig(coups=100_000, replications=10_000, master_seed=20260808)
        for text in PAPER_STRATEGIES:
            spec = fair_chain(parse_strategy(text), PROBS)
            oracle = oracle_profit(spec).casino_profit
            result = replicate(spec, config, workers=2)
            z = (result.grand_mean - oracle) / result.standard_error
            print(
                f"  {text}: grand mean {result.grand_mean:.7f}, "
                f"oracle {oracle:.7f}, z = {z:+.2f}"
            )
            assert abs(z) <= 4.0, f"{text}: z-score {z:.2f}"
        elapsed = time.perf_counter() - start
        print(f"  protocol completed in {elapsed:.0f}s")
        assert elapsed < 900.0


def test_criterion_8_mills_machine(tmp_path):
    with criterion(8, "Mills machine: exact table, fair arms, positive profits"):
        mode_e, mode_o = mills_modes()
        assert tuple(r for r, _ in mode_e.entries) == MILLS_REWARDS
        assert tuple(p for _, p in mode_e.entries) == MILLS_MODE_E_PROBS
        assert tuple(p for _, p in mode_o.entries) == MILLS_MODE_O_PROBS
        path = tmp_path / "mills.machine"
        path.write_text(format_machine_file(mode_e, mode_o), encoding="utf-8")
        loaded_e, loaded_o = load_machine_file(path)
        assert loaded_e.entries == mode_e.entries and loaded_o.entries == mode_o.entries

        arm_e, arm_o = fair_two_point(mode_e), fair_two_point(mode_o)
        for arm in (arm_e, arm_o):
            profit = oracle_profit(single_arm_chain(arm.p, arm.u)).casino_profit
            assert abs(profit) <= 1e-12

        arms = {"A": arm_e, "B": arm_o}
        for text in PAPER_STRATEGIES:
            spec = ChainSpec(sequence=parse_strategy(text).symbols, arms=arms, j=2)
            oracle = oracle_profit(spec).casino_profit
            assert oracle > 0.0, f"{text}: oracle profit {oracle}"
            trajectory = cumulative_trajectory(spec, 1_000_000, seed=888, stride=10_000)
            assert trajectory[-1, 1] > 0.0, f"{text}: final cumulative {trajectory[-1, 1]}"
            ledger = simulate_once(spec, 1_000_000, seed=888)
            se_proxy = 2.0 / 1000.0  # sd per coup < 2 coins, M = 1e6
            assert abs(ledger.mean_profit - oracle) <= 3.0 * se_proxy


def test_criterion_9_deterministic_csv_under_workers(tmp_path):
    with criterion(9, "byte-identical CSV output under 1, 4 and 16 workers"):
        reference = None
        for workers in (1, 4, 16):
            out = tmp_path / f"workers{workers}.csv"
            code = cli_main(
                [
                    "simulate",
                    "--strategy", "AABB",
                    "--pa", "0.3",
                    "--pb", "0.7",
                    "--coups", "5000",
                    "--reps", "64",
                    "--seed", "909",
                    "--workers", str(workers),
                    "--out", str(out),
                ]
            )
            assert code == 0
            data = out.read_bytes()
            if reference is None:
                reference = data
            assert data == reference
        repeat = tmp_path / "repeat.csv"
        code = cli_main(
            [
                "simulate",
                "--strategy", "AABB",
                "--pa", "0.3",
                "--pb", "0.7",
                "--coups", "5000",
                "--reps", "64",
                "--seed", "909",
                "--workers", "4",
                "--out", str(repeat),
            ]
        )
        assert code == 0 and repeat.read_bytes() == reference
