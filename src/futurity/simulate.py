"""Seeded Monte Carlo play of Futurity machines.

A run plays M coups from (position 1, streak 0), collecting 1 coin per coup,
paying the arm's payout on each win and refunding J coins the moment the
J-th consecutive loss lands. Everything is ledger accounted: casino profit
is stakes minus win payouts minus futurity refunds, which stays correct for
fractional payouts where counting wins would not.

One path plays every run, CHUNK coups at a time (rounded up to whole
pattern periods), so a run of any length needs O(CHUNK) memory, plus the
trajectory marks it returns. Each chunk's Generator.random uniforms, one
per coup, are compared in one broadcast with every position's distinct
inverse-CDF thresholds in (0, 1) (_arm_regions): plane t holds u < c_t.
A coup's entry is searchsorted(thresholds, u, "right") clipped to K - 1,
and it changes only at those thresholds, so the planes fix it. One
np.packbits call packs the planes 8 coups to a byte. A two-point arm has
the one threshold p; a Mills mode has 4, once tied thresholds
(zero-probability entries) and those at 0 or reaching 1 are dropped. A
plane costs about 0.5 ns per coup: against a 2**12-bin guide-table
sampler, 10**6-coup runs were 1.13x faster with 4 planes, 1.11x slower
with 7 and 1.69x slower with 15 (2 vCPUs, numpy 2.4.6); no shipped
machine has more than 4.

Everything a run reports is read from integer counts: coups, awards, and
for each pair of arm and threshold the coups of that arm below it, the
popcount of the plane masked by the arm's positions. The region counts
between thresholds follow, and a ledger or trajectory mark is coups -
J * awards - the sum of reward * count over the regions, taken in one fixed
order. Counts are integers, so every output is independent of CHUNK, a
trajectory's last row equals the ledger bit for bit, and outputs with
integer rewards are exact while their totals stay below 2**53.

A coup's win bit is the XOR of its planes, each masked to the positions
whose win flag flips at that threshold, with the flag of its arm's last
region. Awards are counted 8
coups at a time, never per win: a running maximum over each byte's highest
win gives the last win before every byte, and that win's offset from the
byte's first coup, mod J and capped at 8, is the byte's phase. A table per
J, keyed by phase and byte, gives the byte's award coups as bits. The loss
run still open at a chunk's end carries into the next one. This is a
streak walk, bit for bit. Bit counts use a SWAR popcount on 64-bit words,
so any numpy release runs them.

Reproducibility contract: replication k of a run with master seed m uses the
PCG64 stream seeded with mix64(m + (k+1) * 0x9E3779B97F4A7C15), where mix64
is the SplitMix64 finalizer. Sub-seeds therefore depend only on (m, k), so
replications can run on any number of workers in any order and aggregate to
bit-identical results. Seeds are integers in [0, 2**64).

A run reads one 64-bit PCG64 word per coup, in coup order, through
Generator.random, whose uniform is (w >> 11) * 2**-53; drawing the words
in chunks reads the same stream as one draw of M, and nothing reads the
stream after the run. An i.i.d. mixture run plays chain.mixture_chain's
one-position pattern, a three-point arm.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .chain import ChainSpec, mixture_chain
from .errors import DomainError
from .formulas import ArmProbabilities
from .machines import TwoPointArm

#: Coups drawn and reduced per kernel step.
CHUNK = 1 << 17
#: Largest replication count; the per-replication means take 16 bytes each.
MAX_REPLICATIONS = 10**7
#: Most worker threads; each keeps its own scratch buffers.
MAX_WORKERS = 64
#: Most rows a trajectory returns; each takes 16 bytes, and its CSV line more.
MAX_TRAJECTORY_POINTS = 10**7
# Coups per row of a chunk, before rounding up to whole pattern periods.
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


def _is_integer(value) -> bool:
    # bool is an int subclass, but True is no count and no seed.
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def _check_count(name: str, value) -> None:
    if not _is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")


def _check_seed(seed) -> int:
    if not _is_integer(seed) or not 0 <= seed <= _MASK64:
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
        if self.replications > MAX_REPLICATIONS:
            raise DomainError(
                f"replications {self.replications} exceed cap {MAX_REPLICATIONS}"
            )
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


def _scratch_array(size: int, dtype, name: str) -> np.ndarray:
    """This thread's buffer `name` of `dtype`, `size` long, reused from run to run.

    Faulting in fresh pages costs more than the kernel's arithmetic on
    them, so each thread draws uniforms, compares them and counts bits in
    named buffers instead of allocating per run.
    """
    buffer = getattr(_scratch, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.zeros(size, dtype)
        setattr(_scratch, name, buffer)
    return buffer[:size]


@functools.lru_cache(maxsize=64)
def _arm_regions(arm) -> tuple[tuple[float, ...], tuple[float, ...], tuple[bool, ...]]:
    """An arm's distinct thresholds in (0, 1), and the reward and win flag of each region between them.

    The thresholds are the arm's cumulative probabilities without the last
    one; a uniform u's entry is the count of those <= u,
    searchsorted(thresholds, u, side="right"), at most K - 1. Every u
    reaches a threshold at 0 and none reaches one at 1 or above, and tied
    thresholds (zero-probability entries) are reached together, so the
    entry changes only at the distinct thresholds c_1 < ... < c_P in
    (0, 1). Region r holds the uniforms in [c_r, c_{r+1}), with c_0 = 0
    and c_{P+1} = 1. A two-point arm is the table (u, win), (0, loss) with
    the one threshold p, so it wins when u < p even if it pays nothing; a
    multipoint entry wins when its reward is positive.
    """
    if isinstance(arm, TwoPointArm):
        thresholds, rewards, wins = [arm.p], [arm.u, 0.0], [True, False]
    else:
        rewards = [reward for reward, _ in arm.entries]
        thresholds = np.cumsum([prob for _, prob in arm.entries])[:-1].tolist()
        wins = [reward > 0.0 for reward in rewards]
    cuts = sorted({t for t in thresholds if 0.0 < t < 1.0})
    entries = np.searchsorted(thresholds, [0.0, *cuts], side="right")
    return tuple(cuts), tuple(rewards[e] for e in entries), tuple(wins[e] for e in entries)


@dataclass(frozen=True)
class _Layout:
    """Per-position tables of one pattern, laid out once for a chunk of `step` coups in rows of `row`.

    `thresholds` (planes x row) holds each position's distinct thresholds,
    padded with 1.0, which every uniform is below. The bit masks cover the
    step, 8 coups to a byte: `flips` marks, per plane, the positions whose
    win flag changes across its threshold, `always` those whose last region
    wins, and `pair_masks` the positions of each pair's arm; `pair_planes`
    names each pair's plane. `before[r]` counts each arm's positions
    below r in the period. `regions` turns [pair counts, arm coups] into
    the count of each region of each arm, in pair order, and `rewards` and
    `won` hold the region's reward and win flag.
    """

    n: int
    row: int
    step: int
    thresholds: np.ndarray
    flips: np.ndarray
    always: np.ndarray
    pair_planes: np.ndarray
    pair_masks: np.ndarray
    before: np.ndarray
    regions: np.ndarray
    rewards: np.ndarray
    won: np.ndarray


@functools.lru_cache(maxsize=8)
def _layout(sequence: tuple[str, ...], arms: tuple, row: int, step: int) -> _Layout:
    """The _Layout of a pattern; `arms` holds (label, arm) for each label in the sequence. Read-only."""
    codes = {label: code for code, (label, _) in enumerate(arms)}
    owner = np.array([codes[label] for label in sequence])
    tables = [_arm_regions(arm) for _, arm in arms]
    planes = max(len(cuts) for cuts, _, _ in tables)
    cuts = np.ones((planes, len(arms)))
    flips = np.zeros((planes, len(arms)), bool)
    pair_arms, pair_planes = [], []
    for arm, (arm_cuts, _, wins) in enumerate(tables):
        cuts[: len(arm_cuts), arm] = arm_cuts
        flips[: len(arm_cuts), arm] = np.not_equal(wins[:-1], wins[1:])
        pair_arms += [arm] * len(arm_cuts)
        pair_planes += range(len(arm_cuts))
    # Region r of an arm holds its coups below cut r + 1 less those below cut r;
    # the last region's upper count is all the arm's coups.
    rewards = [reward for _, arm_rewards, _ in tables for reward in arm_rewards]
    regions = np.zeros((len(pair_arms) + len(arms), len(rewards)), np.int64)
    first = 0
    for arm in range(len(arms)):
        columns = [*np.flatnonzero(np.equal(pair_arms, arm)), len(pair_arms) + arm]
        span = np.arange(first, first + len(columns))
        regions[columns, span] = 1
        regions[columns[:-1], span[1:]] = -1
        first += len(columns)
    n = len(sequence)
    before = np.zeros((n + 1, len(arms)), np.int64)
    np.cumsum(np.eye(len(arms), dtype=np.int64)[owner], axis=0, out=before[1:])

    def bits(per_arm: np.ndarray) -> np.ndarray:
        return np.packbits(np.tile(per_arm[..., owner], step // n), axis=-1, bitorder="little")

    layout = _Layout(
        n=n,
        row=row,
        step=step,
        thresholds=np.tile(cuts[:, owner], row // n),
        flips=bits(flips),
        always=bits(np.array([wins[-1] for _, _, wins in tables])),
        pair_planes=np.array(pair_planes, np.intp),
        pair_masks=bits(np.eye(len(arms), dtype=bool)[np.array(pair_arms, np.intp)]),
        before=before,
        regions=regions,
        rewards=np.array(rewards),
        won=np.array([win for _, _, wins in tables for win in wins], np.int64),
    )
    for array in vars(layout).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return layout


# Highest win bit of each byte of a packed win mask; far below any coup index when none.
_HIGH_WIN = np.array([byte.bit_length() - 1 if byte else -(1 << 62) for byte in range(256)])


@functools.lru_cache(maxsize=16)
def _award_tables(j: int) -> np.ndarray:
    """Award coups of one 8-coup byte as bits, keyed by phase*256 + byte.

    Bit i of a byte is coup i's win flag. The phase o is (last win before
    the byte - the byte's first coup) mod j: the loss run open at the
    byte's start pays at coups o, o + j, ... until the byte's first win,
    and after a win at coup w at w + j, w + 2j, ... A phase of 8 or more
    pays nowhere before the first win, so phases are capped at 8. Bit i of
    an entry is set when coup i pays an award. Read-only.
    """
    coups = np.arange(8)
    wins = (np.arange(256)[:, None] >> coups & 1).astype(bool)
    # Last win at or before each coup of the byte, -1 before the first.
    last = np.maximum.accumulate(np.where(wins, coups, -1), axis=1)
    # Before its first win the byte continues a run whose last win sits at o - j.
    phases = np.arange(9)[:, None, None]
    last = np.where(last >= 0, last, phases - j)
    awards = ~wins & ((coups - last) % j == 0)
    table = np.packbits(awards, axis=-1, bitorder="little").ravel()
    table.flags.writeable = False
    return table


def _byte_starts(size: int) -> np.ndarray:
    """0, 8, 16, ...: the first coup of each of `size` bytes, this thread's copy."""
    starts = getattr(_scratch, "byte_starts", None)
    if starts is None or starts.size < size:
        starts = np.arange(0, 8 * size, 8)
        _scratch.byte_starts = starts
    return starts[:size]


def _awards(win: np.ndarray, k: int, j: int, losses: int, out: np.ndarray) -> int:
    """Write the award coups of a chunk's k coups into `out` as packed bits; return the loss run left open.

    `win` holds the chunk's win bits, 8 coups to a byte, in ceil(k / 8)
    bytes; bits from k on move only the returned run. The chunk continues a loss run of
    `losses` coups, whose last win is the virtual coup -1 - losses. A
    running maximum over each byte's highest win gives the last win
    before every byte, and so its phase. Award bits from k on are
    cleared. Nothing is counted twice across chunks: the carried run's
    earlier awards are in earlier chunks, and the phase places its next
    one.
    """
    size = win.size
    starts = _byte_starts(size)
    last = _scratch_array(size + 1, np.intp, "last_win")
    last[0] = -1 - losses
    np.take(_HIGH_WIN, win, out=last[1:], mode="clip")
    np.add(last[1:], starts, out=last[1:])
    np.maximum.accumulate(last, out=last)
    keys = _scratch_array(size, np.intp, "keys")
    if 8 % j == 0:
        # Every byte starts at a multiple of 8, so last - start = last mod j.
        np.bitwise_and(last[:-1], j - 1, out=keys)
    else:
        np.subtract(last[:-1], starts, out=keys)
        # keys mod j: numpy's division by a scalar runs twice as fast as np.mod here.
        quotient = np.floor_divide(keys, j, out=last[:-1])
        keys -= np.multiply(quotient, j, out=quotient)
        if j > 8:
            np.minimum(keys, 8, out=keys)
    np.left_shift(keys, 8, out=keys)
    np.add(keys, win, out=keys)
    np.take(_award_tables(j), keys, out=out, mode="clip")
    if k & 7:
        out[-1] &= (1 << (k & 7)) - 1
    return k - 1 - int(last[-1])


def _pattern_chunks(layout: _Layout, coups: int, seed: int, j: int) -> Iterator[tuple[int, np.ndarray]]:
    """The bit rows of a pattern run, chunk by chunk; one Generator.random uniform per coup.

    Yields each chunk's coup count k and its rows as 64-bit words, bit i
    of a row for coup i: row 0 marks the award coups, row 1 + q the coups
    of pair q's arm whose uniform is below the pair's threshold. Bits from
    k on are 0: uniforms past the run's end are set to 1.0, below no
    threshold, and _awards clears its bits there. Only the run's last
    chunk ends inside a row, so a win bit set past its end (a position
    whose last region wins) moves only the loss run it leaves open, which
    nothing reads.
    """
    rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
    row, step = layout.row, layout.step
    planes = layout.thresholds.shape[0]
    uniforms = _scratch_array(step, float, "uniforms")
    grid = uniforms.reshape(-1, row)
    below = _scratch_array(planes * step, bool, "planes").reshape(planes, step // row, row)
    width = -(-step // 64)
    words = _scratch_array((1 + layout.pair_planes.size) * width, np.uint64, "bits").reshape(-1, width)
    bits = words.view(np.uint8)
    losses = 0
    for start in range(0, coups, step):
        k = min(step, coups - start)
        rows = -(-k // row)
        rng.random(out=uniforms[:k])
        uniforms[k : rows * row] = 1.0
        np.less(grid[:rows], layout.thresholds[:, None], out=below[:, :rows])
        packed = np.packbits(below[:, :rows].reshape(planes, rows * row), axis=-1, bitorder="little")
        size = packed.shape[1]
        win = np.bitwise_xor.reduce(packed & layout.flips[:, :size], axis=0) ^ layout.always[:size]
        used = -(-k // 8)
        losses = _awards(win[:used], k, j, losses, bits[0, :used])
        np.bitwise_and(packed[layout.pair_planes, :used], layout.pair_masks[:, :used], out=bits[1:, :used])
        chunk_words = -(-k // 64)
        bits[:, used : 8 * chunk_words] = 0
        yield k, words[:, :chunk_words]


_M1, _M2, _M4 = np.uint64(0x5555555555555555), np.uint64(0x3333333333333333), np.uint64(0x0F0F0F0F0F0F0F0F)
_BYTE_SUM = np.uint64(0x0101010101010101)
_ONE, _TWO, _FOUR, _TOP = (np.uint64(shift) for shift in (1, 2, 4, 56))
# Mask of bits 0..i of a word, for i = 0..63.
_LOW_BITS = np.array([(2 << i) - 1 for i in range(64)], np.uint64)


def _popcount(words: np.ndarray, temp: np.ndarray) -> np.ndarray:
    """Bit count of each 64-bit word, in place, as int64; `temp` is scratch of the same shape.

    SWAR: counts of bit pairs, then nibbles, then bytes, summed into the
    top byte by one multiply. It needs no numpy 2 bitwise_count.
    """
    np.right_shift(words, _ONE, out=temp)
    np.bitwise_and(temp, _M1, out=temp)
    np.subtract(words, temp, out=words)
    np.right_shift(words, _TWO, out=temp)
    np.bitwise_and(temp, _M2, out=temp)
    np.bitwise_and(words, _M2, out=words)
    np.add(words, temp, out=words)
    np.right_shift(words, _FOUR, out=temp)
    np.add(words, temp, out=words)
    np.bitwise_and(words, _M4, out=words)
    np.multiply(words, _BYTE_SUM, out=words)
    np.right_shift(words, _TOP, out=words)
    return words.view(np.int64)


def _sums_before(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """values[..., :e].sum(axis=-1) for each end e of the nondecreasing `ends`, 1 <= e <= values.shape[-1].

    A sum per segment between ends, then a running sum over the segments.
    reduceat gives an empty segment its first element, so those are zeroed.
    """
    starts = np.concatenate(([0], ends[:-1]))
    # Segments that start at the last end are empty; reduceat takes no index that far.
    inside = np.searchsorted(starts, ends[-1])
    segments = np.zeros((*values.shape[:-1], ends.size), values.dtype)
    segments[..., :inside] = np.add.reduceat(values[..., : ends[-1]], starts[:inside], axis=-1)
    segments[..., starts == ends] = 0
    return np.cumsum(segments, axis=-1, out=segments)


def _tally(chunks: Iterable[tuple[int, np.ndarray]], stride: int | None = None) -> np.ndarray:
    """Bit counts of a run's rows at coups stride, 2*stride, ..., or, without a stride, at its end.

    Returns one int64 row per mark: the coups played, then the count of
    each bit row's set bits up to that coup. A mark's count is the chunks
    before its own, plus the words before its word (_sums_before of the
    per-word counts), plus its word's bits up to its coup.
    """
    start = 0
    totals = None
    values = []
    for k, words in chunks:
        counts = _scratch_array(words.size, np.uint64, "counts").reshape(words.shape)
        np.copyto(counts, words)
        counts = _popcount(counts, _scratch_array(words.size, np.uint64, "popcount").reshape(words.shape))
        if totals is None:
            totals = np.zeros(words.shape[0], np.int64)
        if stride is not None:
            marks = np.arange(stride - 1 - start % stride, k, stride)
            if marks.size:
                at = marks >> 6
                partial = words[:, at] & _LOW_BITS[marks & 63]
                counted = _popcount(partial, np.empty_like(partial))
                counted += _sums_before(counts, at + 1) - counts[:, at] + totals[:, None]
                values.append(np.vstack([start + 1 + marks, counted]).T)
        totals += counts.sum(axis=1)
        start += k
    if stride is None:
        return np.array([[start, *totals]])
    return np.concatenate(values)


def _outcomes(layout: _Layout, tallies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Win count and coins paid at each tally row (_tally of _pattern_chunks).

    The counts of the regions between each arm's thresholds are integers
    (_Layout.regions). Payouts add reward * count over the arms and
    regions left to right, in one running sum, so equal counts give equal
    bits.
    """
    periods, offsets = np.divmod(tallies[:, 0], layout.n)
    played = periods[:, None] * layout.before[-1] + layout.before[offsets]
    counts = np.concatenate([tallies[:, 2:], played], axis=1) @ layout.regions
    return counts @ layout.won, np.add.accumulate(counts * layout.rewards, axis=1)[:, -1]


def _run(
    spec: ChainSpec, coups: int, seed: int, stride: int | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Tallies (_tally) of a pattern run and its outcomes (_outcomes) at them."""
    n = spec.n
    row = -(-min(_ROW, CHUNK, coups) // n) * n
    step = -(-min(CHUNK, coups) // row) * row
    arms = tuple((label, spec.arms[label]) for label in dict.fromkeys(spec.sequence))
    layout = _layout(spec.sequence, arms, row, step)
    # Positional: stand-ins for the chunk generator take *args.
    tallies = _tally(_pattern_chunks(layout, coups, seed, spec.j), stride)
    return tallies, _outcomes(layout, tallies)


def _ledger(spec: ChainSpec, coups: int, seed: int) -> Ledger:
    tallies, (wins, paid) = _run(spec, coups, seed)
    events = int(tallies[0, 1])
    return Ledger(
        coups_played=coups,
        stakes_collected=float(coups),
        win_payouts=float(paid[0]),
        futurity_refunds=float(spec.j * events),
        futurity_events=events,
        win_count=int(wins[0]),
        j=spec.j,
    )


def simulate_once(spec: ChainSpec, coups: int, seed: int) -> Ledger:
    """Play `coups` coups of the pattern; deterministic given (spec, coups, seed)."""
    _check_count("coups", coups)
    return _ledger(spec, coups, seed)


def cumulative_trajectory(spec: ChainSpec, coups: int, seed: int, stride: int) -> np.ndarray:
    """Cumulative casino profit sampled every `stride` coups.

    Returns an array of (coup index, cumulative profit) rows at coups
    stride, 2*stride, ... Each row is read off the run's integer counts as
    the ledger is, (coups - paid) - J * awards, so the rows do not depend
    on CHUNK and, with the same seed and stride dividing coups, the final
    row equals simulate_once's casino_profit_total bit for bit, also with
    fractional payouts. With integer payouts, such as the raw Mills modes,
    every row is exact while coups * (J + largest payout) < 2**53.
    """
    _check_count("coups", coups)
    _check_count("stride", stride)
    if stride > coups:
        raise DomainError(f"stride {stride} exceeds coups {coups}: no point to sample")
    if coups // stride > MAX_TRAJECTORY_POINTS:
        raise DomainError(
            f"{coups // stride} trajectory points exceed cap {MAX_TRAJECTORY_POINTS}; raise the stride"
        )
    tallies, (_, paid) = _run(spec, coups, seed, stride)
    return np.column_stack([tallies[:, 0], (tallies[:, 0] - paid) - spec.j * tallies[:, 1]])


def simulate_mixture_once(
    gamma: float,
    probs: ArmProbabilities,
    coups: int,
    seed: int,
    j: int = 2,
) -> Ledger:
    """Play with i.i.d. arm choice: A with probability gamma, both arms fair.

    The run is mixture_chain's one-position pattern, one word per coup.
    """
    spec = mixture_chain(gamma, probs, j)
    _check_count("coups", coups)
    return _ledger(spec, coups, seed)


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
    _check_count("workers", workers)
    if workers > MAX_WORKERS:
        raise DomainError(f"workers {workers} exceed cap {MAX_WORKERS}")
    reps = config.replications
    rep_means = np.empty(reps)
    count_means = np.empty(reps)

    def task(k: int) -> None:
        ledger = run_one(config.coups, derive_seed(config.master_seed, k))
        rep_means[k] = ledger.mean_profit
        count_means[k] = ledger.count_formula_mean

    if workers == 1:
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
    spec = mixture_chain(gamma, probs, j)
    return _run_replications(lambda coups, seed: _ledger(spec, coups, seed), config, workers)
