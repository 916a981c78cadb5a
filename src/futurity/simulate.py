"""Seeded Monte Carlo play of Futurity machines.

A run plays M coups from (position 1, streak 0), collecting 1 coin per coup,
paying the arm's payout on each win and refunding J coins the moment the
J-th consecutive loss lands. Everything is ledger accounted: casino profit
is stakes minus win payouts minus futurity refunds, which stays correct for
fractional payouts where counting wins would not.

One kernel plays every run. A sampler turns the run's uniforms into a win
mask and payouts, CHUNK coups at a time (a pattern run rounds the chunk up
to whole pattern periods), and the kernel reduces each chunk before the
next is drawn. Awards are counted from the gaps between wins: a loss run of length
L pays L // J awards, and the run still open at a chunk's end carries into
the next chunk. A run of any length therefore needs O(CHUNK) memory, plus
the trajectory marks it returns.

Reproducibility contract: replication k of a run with master seed m uses the
PCG64 stream seeded with mix64(m + (k+1) * 0x9E3779B97F4A7C15), where mix64
is the SplitMix64 finalizer. Sub-seeds therefore depend only on (m, k), so
replications can run on any number of workers in any order and aggregate to
bit-identical results. Seeds are integers in [0, 2**64).

A pattern run reads one uniform per coup, in coup order; drawing them in
chunks reads the same stream as one draw of M uniforms. A mixture run of M
coups reads 2M uniforms from its stream, first the M arm picks, then the M
outcomes; it reads them in chunks through two generators on the same seed,
the second advanced past the picks. Chunking changes no output: trajectories
equal a whole-run computation bit for bit, and so do ledgers of up to CHUNK
coups. Above that, the integer counts stay exact and win_payouts may differ
only by the rounding of chunk-wise sums.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chain import ChainSpec
from .errors import DomainError
from .formulas import ArmProbabilities, fair_payout
from .machines import MultipointDistribution, TwoPointArm

#: Coups drawn and reduced per kernel step.
CHUNK = 1 << 17
# Coups per row of a pattern chunk, before rounding up to whole periods.
_ROW = 1 << 12

_scratch = threading.local()

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based sub-seed for replication `index` (SplitMix64 finalizer)."""
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _check_count(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class SimConfig:
    """Replicated-run parameters; defaults follow the standard protocol."""

    coups: int = 100_000
    replications: int = 10_000
    master_seed: int = 0

    def __post_init__(self):
        _check_count("coups", self.coups)
        _check_count("replications", self.replications)
        object.__setattr__(self, "master_seed", _check_seed(self.master_seed))


@dataclass(frozen=True)
class Ledger:
    """Exact coin accounting of one simulated run."""

    coups_played: int
    stakes_collected: float
    win_payouts: float
    futurity_refunds: float
    futurity_events: int
    win_count: int
    j: int

    @property
    def casino_profit_total(self) -> float:
        return self.stakes_collected - self.win_payouts - self.futurity_refunds

    @property
    def mean_profit(self) -> float:
        return self.casino_profit_total / self.coups_played

    @property
    def count_formula_mean(self) -> float:
        """(M - W - J*C)/M with W the win count, for comparison only.

        Treats every win as returning exactly 1 coin, so it matches
        mean_profit only when all payouts are 1; with calibrated payouts the
        ledger number is the correct one.
        """
        return (
            self.coups_played - self.win_count - self.j * self.futurity_events
        ) / self.coups_played


@dataclass(frozen=True)
class SimResult:
    """Aggregate of a replicated run."""

    rep_means: np.ndarray
    grand_mean: float
    sample_sd: float
    standard_error: float
    count_formula_grand_mean: float


_Chunks = Iterator[tuple[np.ndarray, np.ndarray]]


def _sample_arm(arm, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms in [0,1) to (win mask, payout) for one arm model."""
    if isinstance(arm, TwoPointArm):
        win = uniforms < arm.p
        return win, np.where(win, arm.u, 0.0)
    if isinstance(arm, MultipointDistribution):
        rewards = np.array([reward for reward, _ in arm.entries])
        cumulative = np.cumsum([prob for _, prob in arm.entries])
        idx = np.searchsorted(cumulative, uniforms, side="right")
        np.clip(idx, 0, len(rewards) - 1, out=idx)
        payout = rewards[idx]
        return payout > 0.0, payout
    raise DomainError(f"unsupported arm model {type(arm).__name__}")


def _scratch_floats(size: int) -> np.ndarray:
    """This thread's float buffer, `size` long, reused from run to run.

    Faulting in fresh pages costs more than the kernel's arithmetic on
    them, so each thread draws uniforms and writes payouts into one buffer
    instead of allocating per run.
    """
    buffer = getattr(_scratch, "floats", None)
    if buffer is None or buffer.size < size:
        buffer = _scratch.floats = np.zeros(size)
    return buffer[:size]


def _pattern_chunks(spec: ChainSpec, coups: int, seed: int) -> _Chunks:
    """(win mask, payouts) of a pattern run, chunk by chunk; one uniform per coup.

    A chunk is a stack of rows of whole pattern periods, about _ROW coups
    each, so the per-position values are laid out once, for one row, and
    broadcast over the rows; the last row of a run may be cut short.
    Payouts are written over the chunk's uniforms.
    """
    rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
    n = spec.n
    row = -(-min(_ROW, CHUNK, coups) // n) * n
    step = -(-min(CHUNK, coups) // row) * row
    uniforms = _scratch_floats(step)
    grid = uniforms.reshape(-1, row)
    arms = [spec.arms[label] for label in spec.sequence]
    if all(isinstance(arm, TwoPointArm) for arm in arms):
        p = np.tile([arm.p for arm in arms], row // n)
        u = np.tile([arm.u for arm in arms], row // n)

        def sample(rows: np.ndarray) -> np.ndarray:
            win = rows < p
            np.multiply(win, u, out=rows)
            return win

    else:
        labels = list(dict.fromkeys(spec.sequence))
        codes = np.tile([labels.index(label) for label in spec.sequence], row // n)
        slots = [(spec.arms[label], np.flatnonzero(codes == code)) for code, label in enumerate(labels)]

        def sample(rows: np.ndarray) -> np.ndarray:
            win = np.empty(rows.shape, dtype=bool)
            for arm, columns in slots:
                win[:, columns], rows[:, columns] = _sample_arm(arm, rows[:, columns])
            return win

    for start in range(0, coups, step):
        k = min(step, coups - start)
        rng.random(out=uniforms[:k])
        win = sample(grid[: -(-k // row)])
        yield win.ravel()[:k], uniforms[:k]


def _mixture_chunks(gamma: float, probs: ArmProbabilities, coups: int, seed: int) -> _Chunks:
    """(win mask, payouts) of an i.i.d.-mixture run, chunk by chunk.

    The run's stream holds all arm picks, then all outcomes: one generator
    reads the picks, a second on the same seed, advanced past them, reads
    the outcomes. Payouts are written over the chunk's outcome uniforms.
    """
    seed = _check_seed(seed)
    picks = np.random.Generator(np.random.PCG64(seed))
    outcomes = np.random.Generator(np.random.PCG64(seed).advance(coups))
    pay_a, pay_b = fair_payout(probs.p_a), fair_payout(probs.p_b)
    size = min(CHUNK, coups)
    buffer = _scratch_floats(2 * size)
    for start in range(0, coups, size):
        k = min(size, coups - start)
        draws, b_payouts = buffer[:k], buffer[size : size + k]
        pick_a = picks.random(out=draws) < gamma
        outcomes.random(out=draws)
        a_wins = pick_a & (draws < probs.p_a)
        b_wins = ~pick_a & (draws < probs.p_b)
        # Each coup has at most one nonzero term, so the sum is exact.
        np.multiply(a_wins, pay_a, out=draws)
        np.multiply(b_wins, pay_b, out=b_payouts)
        draws += b_payouts
        yield a_wins | b_wins, draws


def _award_positions(opens: np.ndarray, awards: np.ndarray, losses: int, j: int) -> np.ndarray:
    """Chunk indices of the coups that pay an award.

    Loss run i starts after the win at opens[i] and pays an award every j
    losses. Run 0 continues the `losses` losses that ended the previous
    chunk, so it opens at -1 - losses and its first losses // j awards are
    already paid. The chunk's g-th award, if it falls in run i, lands at
    first_i + j*g.
    """
    earlier = np.cumsum(awards) - awards  # awards of the runs before run i
    first = opens + j * (1 - earlier)
    first[0] += j * (losses // j)
    return np.repeat(first, awards) + j * np.arange(earlier[-1] + awards[-1])


def _play(chunks: _Chunks, j: int, stride: int = 0) -> tuple[Ledger, np.ndarray | None]:
    """Reduce a run, chunk by chunk, to its ledger and, given a stride, its trajectory.

    Wins cut each chunk into loss runs. A loss run of length L pays L // J
    awards; the first run of a chunk continues the `losses` of the run left
    open by earlier chunks, which have already paid losses // J of them.
    Trajectory values are the running sum of per-coup profit at coups
    stride, 2*stride, ...; a chunk's payouts are overwritten by it.
    """
    start = losses = wins = events = 0
    payouts = total = 0.0
    values = []
    for win, payout in chunks:
        k = win.size
        # Loss runs lie between these: the win before the open run, the
        # chunk's wins, and the chunk's end.
        edges = np.concatenate(([-1 - losses], np.flatnonzero(win), [k]))
        runs = np.diff(edges) - 1
        awards = runs // j
        awards[0] -= losses // j
        payouts += float(payout.sum())
        if stride:
            per_coup = np.subtract(1.0, payout, out=payout)
            per_coup[_award_positions(edges[:-1], awards, losses, j)] -= j
            per_coup[0] += total
            cumulative = np.cumsum(per_coup, out=per_coup)
            total = cumulative[-1]
            values.append(cumulative[stride - 1 - start % stride :: stride].copy())
        wins += edges.size - 2
        events += int(awards.sum())
        losses = int(runs[-1])
        start += k
    ledger = Ledger(
        coups_played=start,
        stakes_collected=float(start),
        win_payouts=payouts,
        futurity_refunds=float(j * events),
        futurity_events=events,
        win_count=wins,
        j=j,
    )
    return ledger, np.concatenate(values) if stride else None


def simulate_once(spec: ChainSpec, coups: int, seed: int) -> Ledger:
    """Play `coups` coups of the pattern; deterministic given (spec, coups, seed)."""
    _check_count("coups", coups)
    return _play(_pattern_chunks(spec, coups, seed), spec.j)[0]


def cumulative_trajectory(spec: ChainSpec, coups: int, seed: int, stride: int) -> np.ndarray:
    """Cumulative casino profit sampled every `stride` coups.

    Returns an array of (coup index, cumulative profit) rows at coups
    stride, 2*stride, ...; with the same seed the final row agrees exactly
    with simulate_once's ledger whenever stride divides coups.
    """
    _check_count("coups", coups)
    _check_count("stride", stride)
    if stride > coups:
        raise DomainError(f"stride {stride} exceeds coups {coups}: no point to sample")
    _, values = _play(_pattern_chunks(spec, coups, seed), spec.j, stride)
    return np.column_stack([np.arange(stride, coups + 1, stride), values])


def simulate_mixture_once(
    gamma: float,
    probs: ArmProbabilities,
    coups: int,
    seed: int,
    j: int = 2,
) -> Ledger:
    """Play with i.i.d. arm choice: A with probability gamma, both arms fair.

    Draw order per run: one uniform per coup for the arm choices of all
    coups, then one per coup for the outcomes.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma!r}")
    _check_count("coups", coups)
    return _play(_mixture_chunks(gamma, probs, coups, seed), j)[0]


def _aggregate(rep_means: np.ndarray, count_means: np.ndarray) -> SimResult:
    reps = rep_means.size
    grand = float(rep_means.mean())
    sd = float(rep_means.std(ddof=1)) if reps > 1 else 0.0
    return SimResult(
        rep_means=rep_means,
        grand_mean=grand,
        sample_sd=sd,
        standard_error=sd / reps**0.5 if reps > 1 else 0.0,
        count_formula_grand_mean=float(count_means.mean()),
    )


def _run_replications(run_one, config: SimConfig, workers: int) -> SimResult:
    reps = config.replications
    rep_means = np.empty(reps)
    count_means = np.empty(reps)

    def task(k: int) -> None:
        ledger = run_one(config.coups, derive_seed(config.master_seed, k))
        rep_means[k] = ledger.mean_profit
        count_means[k] = ledger.count_formula_mean

    if workers <= 1:
        for k in range(reps):
            task(k)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(task, range(reps)))
    return _aggregate(rep_means, count_means)


def replicate(spec: ChainSpec, config: SimConfig, workers: int = 1) -> SimResult:
    """Replicated run of a pattern; aggregation is keyed by replication index.

    Results are identical for any worker count.
    """
    return _run_replications(
        lambda coups, seed: simulate_once(spec, coups, seed), config, workers
    )


def replicate_mixture(
    gamma: float,
    probs: ArmProbabilities,
    config: SimConfig,
    workers: int = 1,
    j: int = 2,
) -> SimResult:
    """Replicated i.i.d.-mixture run with fair arms."""
    return _run_replications(
        lambda coups, seed: simulate_mixture_once(gamma, probs, coups, seed, j=j),
        config,
        workers,
    )
