"""The four benchmark workloads: seeded inputs, operations and per-op checks.

Each workload builds its inputs from the seed alone and hands out its ops in
cycles. `op.run` is the timed part and calls the package only through its
user-facing entry points: `futurity.cli.main(argv)` in-process where a CLI
command exists, and the public library functions where none does. Every
callee is looked up on its module at call time, so the tracer's wrappers are
seen. `op.check` is untimed and raises CheckFailed when an output is wrong.

Why each workload exists, and which layer it isolates, is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import futurity
import futurity.cli

ORACLE_TOL = 1e-9  # absolute agreement demanded between the profit routes
Z_LIMIT = 4.0


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


@dataclass
class Outcome:
    """What a checked op did: work units, CSV digests and sub-timings."""

    items: int
    digests: dict[str, str] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    attrs: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`futurity.cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = futurity.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _require_exit(code: int, err: str) -> None:
    _require(code == 0, f"exit code {code}: {err.strip()[-300:]}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _seed63(rng: random.Random) -> int:
    return rng.getrandbits(63)


class Sweep:
    """`futurity sweep --strategy P --grid-step 0.1` on seeded short patterns."""

    name = "sweep"
    items = "rows"
    ROWS = 81  # 9 x 9 interior grid points at step 0.1
    SAMPLE = 4096
    LENGTHS = range(2, 13)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # Uniform over the 8166 both-arm patterns of length 2..12.
        weights = [2**n - 2 for n in self.LENGTHS]
        self.patterns = []
        for n in rng.choices(self.LENGTHS, weights, k=self.SAMPLE):
            text = ""
            while "A" not in text or "B" not in text:
                text = "".join(rng.choice("AB") for _ in range(n))
            self.patterns.append(text)

    def named_rates(self, items: int, busy_s: float, extra: dict) -> dict:
        return {"rows_per_s": items / busy_s}

    def cycle(self, k: int) -> list[Op]:
        text = self.patterns[k % len(self.patterns)]
        argv = ["sweep", "--strategy", text, "--grid-step", "0.1"]

        def check(result) -> Outcome:
            code, out, err = result
            _require_exit(code, err)
            rows = out.count("\n") - 1
            _require(rows == self.ROWS, f"{text}: {rows} rows, expected {self.ROWS}")
            return Outcome(items=rows)

        return [Op(text, lambda: run_cli(argv), check)]


class LongPattern:
    """Four profit routes on long patterns, including ill-conditioned pairs."""

    name = "long-pattern"
    items = "evaluations"
    # Nine sizes log-spaced over three octaves, 256..2048; even steps are
    # seeded random patterns (h ~ n/4), odd steps alternating ones (h = n/2).
    SIZES = tuple(2 * round(128 * 2 ** (3 * k / 8)) for k in range(9))
    PAIRS = ((0.3, 0.7), (0.02, 0.05), (0.9, 0.97), (0.01, 0.99))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.probs = [futurity.ArmProbabilities(*pair) for pair in self.PAIRS]
        self.patterns = []  # [size step][pair index] -> Strategy
        for k, n in enumerate(self.SIZES):
            variants = []
            for _ in self.PAIRS:
                text = "".join(rng.choice("AB") for _ in range(n)) if k % 2 == 0 else "AB" * (n // 2)
                variants.append(futurity.parse_strategy(text))
            self.patterns.append(variants)
        self.h = [[futurity.block_vector(futurity.canonical_rotation(s)).h for s in row] for row in self.patterns]
        self._verified: dict[tuple[int, int], tuple] = {}

    def named_rates(self, items: int, busy_s: float, extra: dict) -> dict:
        return {"patterns_per_s": items / busy_s}

    def cycle(self, c: int) -> list[Op]:
        return [self._op(k, (k + c) % len(self.PAIRS)) for k in range(len(self.SIZES))]

    def _op(self, k: int, i: int) -> Op:
        strategy, probs, h = self.patterns[k][i], self.probs[i], self.h[k][i]

        def run():
            exact = futurity.formulas.exact_profit(strategy, probs).profit
            rates = futurity.formulas.profit_via_rates(strategy, probs)
            blocks = futurity.strategy.block_vector(futurity.strategy.canonical_rotation(strategy))
            delta = futurity.formulas.block_swap_delta(blocks, probs)
            oracle = futurity.chain.oracle_profit(futurity.chain.fair_chain(strategy, probs)).casino_profit
            return exact, rates, oracle, delta, blocks

        def check(result) -> Outcome:
            exact, rates, oracle, delta, blocks = result
            values = (exact, rates, oracle, delta)
            known = self._verified.get((k, i))
            if known is not None:
                # Same inputs as an op already verified: outputs must repeat exactly.
                _require(known == values, f"n={strategy.n} pair {self.PAIRS[i]}: outputs changed on repeat")
                return Outcome(items=1)
            spread = max(exact, rates, oracle) - min(exact, rates, oracle)
            _require(spread <= ORACLE_TOL, f"n={strategy.n} pair {self.PAIRS[i]}: routes differ by {spread:.3e}")
            swapped = futurity.exact_profit(futurity.swap_last_runs(blocks), probs).profit
            gap = abs(delta - (exact - swapped))
            _require(gap <= ORACLE_TOL, f"n={strategy.n} pair {self.PAIRS[i]}: swap delta off by {gap:.3e}")
            self._verified[(k, i)] = values
            return Outcome(items=1)

        label = f"n={strategy.n} h={h} pair={self.PAIRS[i]}"
        return Op(label, run, check, {"n": strategy.n, "h": h, "k": k, "pair": i})

    def dense_op(self, op: Op) -> Op:
        """The dense-matrix oracle on an op's chain, checked against the recurrence."""
        spec = futurity.fair_chain(self.patterns[op.attrs["k"]][op.attrs["pair"]], self.probs[op.attrs["pair"]])

        def check(dense: float) -> Outcome:
            gap = abs(dense - futurity.oracle_profit(spec).casino_profit)
            _require(gap <= ORACLE_TOL, f"{op.label}: dense and recurrence oracles differ by {gap:.3e}")
            return Outcome(items=1)

        return Op(f"dense {op.label}", lambda: futurity.chain.oracle_profit(spec, method="dense").casino_profit, check)


class McReplicate:
    """`futurity simulate` at 1 and nproc workers, plus the mixture sampler."""

    name = "mc-replicate"
    items = "coups"
    PATTERNS = ("AB", "AABB", "AAABB", "AAAABBBBAAAAAABBB")
    P_A, P_B = 0.3, 0.7
    COUPS = 100_000  # per replication: the paper protocol
    REPS = 64
    GAMMA = 0.5

    def __init__(self, seed: int, workdir: Path, workers: int):
        rng = random.Random(seed)
        self.workdir = workdir
        self.workers = workers
        self.seeds = {text: _seed63(rng) for text in self.PATTERNS}
        self.mix_config = futurity.SimConfig(coups=self.COUPS, replications=self.REPS, master_seed=_seed63(rng))
        self.mix_probs = futurity.ArmProbabilities(self.P_A, self.P_B)

    def named_rates(self, items: int, busy_s: float, extra: dict) -> dict:
        return {
            "coups_per_s": extra["parallel_coups"] / extra["parallel_s"],
            "coups_per_s_serial": extra["serial_coups"] / extra["serial_s"],
            "mixture_coups_per_s": extra["mixture_coups"] / extra["mixture_parallel_s"],
            "mixture_coups_per_s_serial": extra["mixture_coups"] / extra["mixture_serial_s"],
        }

    def cycle(self, c: int) -> list[Op]:
        return [self._simulate_op(text) for text in self.PATTERNS] + [self._mixture_op()]

    def _argv(self, text: str, workers: int, out: Path) -> list[str]:
        return [
            "simulate", "--strategy", text, "--pa", str(self.P_A), "--pb", str(self.P_B),
            "--coups", str(self.COUPS), "--reps", str(self.REPS), "--seed", str(self.seeds[text]),
            "--workers", str(workers), "--out", str(out),
        ]  # fmt: skip

    def _simulate_op(self, text: str) -> Op:
        serial_csv, parallel_csv = self.workdir / "simulate-serial.csv", self.workdir / "simulate-parallel.csv"
        serial_argv = self._argv(text, 1, serial_csv)
        parallel_argv = self._argv(text, self.workers, parallel_csv)

        def run():
            t0 = time.perf_counter()
            serial = run_cli(serial_argv)
            t1 = time.perf_counter()
            parallel = run_cli(parallel_argv)
            return serial, parallel, t1 - t0, time.perf_counter() - t1

        def check(result) -> Outcome:
            serial, parallel, serial_s, parallel_s = result
            for code, out, err in (serial, parallel):
                _require_exit(code, err)
                z = json.loads(out)["z_score"]
                _require(abs(z) <= Z_LIMIT, f"{text}: z-score {z:.3f} against the oracle")
            digest = _sha256(serial_csv)
            _require(_sha256(parallel_csv) == digest, f"{text}: CSV differs between 1 and {self.workers} workers")
            coups = self.COUPS * self.REPS
            key = f"simulate {text} p=({self.P_A},{self.P_B}) coups={self.COUPS} reps={self.REPS} seed={self.seeds[text]}"
            return Outcome(
                items=2 * coups,
                digests={key: digest},
                extra={"serial_s": serial_s, "serial_coups": coups, "parallel_s": parallel_s, "parallel_coups": coups},
            )

        return Op(f"simulate {text}", run, check, {"coups": 2 * self.COUPS * self.REPS})

    def _mixture_op(self) -> Op:
        def run():
            t0 = time.perf_counter()
            serial = futurity.simulate.replicate_mixture(self.GAMMA, self.mix_probs, self.mix_config, workers=1)
            t1 = time.perf_counter()
            parallel = futurity.simulate.replicate_mixture(
                self.GAMMA, self.mix_probs, self.mix_config, workers=self.workers
            )
            return serial, parallel, t1 - t0, time.perf_counter() - t1

        def check(result) -> Outcome:
            serial, parallel, serial_s, parallel_s = result
            _require(
                serial.rep_means.tobytes() == parallel.rep_means.tobytes(),
                f"mixture means differ between 1 and {self.workers} workers",
            )
            expected = futurity.random_mix_profit(self.GAMMA, self.mix_probs)
            z = (serial.grand_mean - expected) / serial.standard_error
            _require(abs(z) <= Z_LIMIT, f"mixture mean {z:.3f} SE from random_mix_profit")
            coups = self.COUPS * self.REPS
            return Outcome(
                items=2 * coups,
                extra={"mixture_serial_s": serial_s, "mixture_coups": coups, "mixture_parallel_s": parallel_s},
            )

        return Op("mixture", run, check, {"coups": 2 * self.COUPS * self.REPS})


class McTrajectory:
    """`futurity trajectory` on the Mills machine: three long runs per op."""

    name = "mc-trajectory"
    items = "coups"
    COUPS = 10_000_000  # per-coup float arrays of 80 MB, several alive at once
    STRIDE = 10_000
    # One op runs multipoint on both patterns and fair on one of them,
    # alternating. Multipoint is the memory-bound path; bundling the three
    # calls keeps every op of a run the same size, so the median is not
    # pulled between the faster fair and the slower multipoint calls.
    CYCLES = (
        (("multipoint", "AB"), ("multipoint", "AAABB"), ("fair", "AB")),
        (("multipoint", "AB"), ("multipoint", "AAABB"), ("fair", "AAABB")),
    )

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.machine = workdir / "mills.machine"
        self.machine.write_text(futurity.format_machine_file(*futurity.mills_modes()), encoding="utf-8")
        mode_a, mode_b = futurity.load_machine_file(self.machine)
        arms = {
            "multipoint": {"A": mode_a, "B": mode_b},
            "fair": {"A": futurity.fair_two_point(mode_a), "B": futurity.fair_two_point(mode_b)},
        }
        self.seeds = {}
        self.oracle = {}
        for reduction, text in dict.fromkeys(sum(self.CYCLES, ())):
            self.seeds[reduction, text] = _seed63(rng)
            spec = futurity.ChainSpec(sequence=tuple(text), arms=arms[reduction], j=2)
            self.oracle[reduction, text] = futurity.oracle_profit(spec).casino_profit

    def named_rates(self, items: int, busy_s: float, extra: dict) -> dict:
        return {"coups_per_s": items / busy_s}

    def cycle(self, c: int) -> list[Op]:
        runs = self.CYCLES[c % 2]
        outs = [self.workdir / f"trajectory-{k}.csv" for k in range(len(runs))]
        argvs = [self._argv(reduction, text, out) for (reduction, text), out in zip(runs, outs)]

        def check(results) -> Outcome:
            digests = {}
            for (reduction, text), out, (code, _, err) in zip(runs, outs, results):
                _require_exit(code, err)
                digests.update(self._check_csv(reduction, text, out))
            return Outcome(items=len(runs) * self.COUPS, digests=digests)

        label = "trajectory " + ", ".join(f"{reduction} {text}" for reduction, text in runs)
        return [Op(label, lambda: [run_cli(argv) for argv in argvs], check)]

    def _argv(self, reduction: str, text: str, out: Path) -> list[str]:
        return [
            "trajectory", "--strategy", text, "--machine", str(self.machine), "--reduction", reduction,
            "--coups", str(self.COUPS), "--stride", str(self.STRIDE), "--seed", str(self.seeds[reduction, text]),
            "--out", str(out),
        ]  # fmt: skip

    def _check_csv(self, reduction: str, text: str, out: Path) -> dict[str, str]:
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        _require(len(rows) == self.COUPS // self.STRIDE, f"{reduction} {text}: {len(rows)} rows")
        _require(int(rows[-1][0]) == self.COUPS, f"{reduction} {text}: last row at coup {rows[-1][0]}")
        cumulative = [float(profit) for _, profit in rows]
        # Criterion 8 bounds the per-coup profit SD by 2 coins, true for the
        # fair reduction; raw Mills payouts reach 150 coins, so the bound
        # is widened to twice the batch-means SD where that is larger.
        steps = [b - a for a, b in zip([0.0] + cumulative, cumulative)]
        mean_step = sum(steps) / len(steps)
        sd = math.sqrt(sum((s - mean_step) ** 2 for s in steps) / (len(steps) - 1) / self.STRIDE)
        bound = 3.0 * max(2.0, 2.0 * sd) / math.sqrt(self.COUPS)
        gap = abs(cumulative[-1] / self.COUPS - self.oracle[reduction, text])
        _require(gap <= bound, f"{reduction} {text}: mean profit {gap:.2e} from the oracle (bound {bound:.2e})")
        key = f"trajectory {text} mills {reduction} coups={self.COUPS} stride={self.STRIDE} seed={self.seeds[reduction, text]}"
        return {key: _sha256(out)}
