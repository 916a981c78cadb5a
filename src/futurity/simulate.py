"""Seeded Monte Carlo play of Futurity machines.

A run plays M coups from (position 1, streak 0), collecting 1 coin per coup,
paying the arm's payout on each win and refunding J coins the moment the
J-th consecutive loss lands. Everything is ledger accounted: casino profit
is stakes minus win payouts minus futurity refunds, which stays correct for
fractional payouts where counting wins would not.

One kernel plays every run. A sampler turns the run's draws into a win
mask and payouts, CHUNK coups at a time (a pattern run rounds the chunk up
to whole pattern periods), and the kernel reduces each chunk before the
next is drawn. A run of any length therefore needs O(CHUNK) memory, plus
the trajectory marks it returns.

Awards are counted 8 coups at a time, never per win. The chunk's win mask
is packed into bytes; a running maximum over each byte's highest win gives
the last win before every byte, and that win's offset from the byte's
first coup, mod J and capped at 8, is the byte's phase. Two tables per J,
keyed by phase and byte, give the byte's award count and its 8 per-coup
stakes: 1, or 1 - J on an award coup. The loss run still open at a
chunk's end carries into the next one. This is a streak walk, bit for
bit: the counts are integers, and an award coup is a loss that pays 0, so
stake - payout is the walk's (1 - payout) - J.

A trajectory with integer payouts, such as the raw Mills modes, has every
running total an integer; while coups * (J + largest payout) < 2**53 each
one is exact in float64, in any order of summation. Its marks are then read
off the ledger, coups - J * awards - payouts at each mark: running sums of
the per-byte award counts and of the payouts up to each mark, one sum per
segment between marks, and a table of award counts of each byte's first
coups. No per-coup stake and no running sum over the coups. Any other
trajectory is the sequential running sum of
per-coup profit. On a two-point pattern a coup's profit is its stake less
win * u, so a byte's 8 profits depend only on its phase, the byte itself
and the pattern positions of its coups. Every chunk starts on a whole
period, so byte b's positions repeat with its layout class, b mod
n / gcd(n, 8). One cached table of 8 profits per (class, phase, byte)
(_profit_table) then gives every coup's profit with one gather per byte,
and the sampler writes no payouts. It is used while it has no more rows
than a chunk has stake rows: classes * min(J, 9) * 256 <= CHUNK / 8, so
up to 32 classes at J = 2. Longer periods and multipoint arms take each
coup's stake from the byte table minus its payout. A trajectory forms no
ledger: no win count and no separate payout total.

A pattern of two-point arms is sampled as u < p, one broadcast comparison
on Generator.random's uniforms. Any other pattern goes through its arms'
inverse CDFs, on raw PCG64 words: an arm's entry for a uniform u is the
count of its thresholds, the cumulative probabilities without the last
one, that u reaches, searchsorted(thresholds, u, side="right"); dropping
the last cumulative value caps it at K - 1, also with zero-probability
entries (tied thresholds) and with sums just short of 1. A guide table per
arm splits [0, 1) into 2**12 equal bins and holds the signed reward of each
bin no threshold splits, NaN in the others: a win's reward, +0.0 for a
loss and -0.0 for a win that pays nothing. A word's bin is its top 12
bits, so most coups take one table read, and a coup wins where its
payout's bits are nonzero. The few in a split bin, at most K - 1 in 2**12,
count their thresholds exactly at the word's uniform.

Reproducibility contract: replication k of a run with master seed m uses the
PCG64 stream seeded with mix64(m + (k+1) * 0x9E3779B97F4A7C15), where mix64
is the SplitMix64 finalizer. Sub-seeds therefore depend only on (m, k), so
replications can run on any number of workers in any order and aggregate to
bit-identical results. Seeds are integers in [0, 2**64).

A pattern run reads one 64-bit PCG64 word per coup, in coup order; the
coup's uniform is (w >> 11) * 2**-53, bit for bit what Generator.random
returns for that word. Drawing the words in chunks reads the same stream
as one draw of M. A table-sampled run draws whole rows of words, so up to
row - 1 words past the run's end are drawn and never read; nothing reads
the stream after the run. Two-point runs keep Generator.random's float
draws, because they compare each uniform with p: made from raw words in
numpy, the uniforms cost more than Generator.random's own conversion (a
serial 64 x 100k replicate of fair AAABB ran 13-19% slower). An i.i.d.
mixture run plays chain.mixture_chain's one-position pattern, a
three-point arm, so it is table-sampled too: one word per coup. Chunking
changes no output: trajectories equal a whole-run computation bit for bit,
and so do ledgers of up to CHUNK coups. Above that, the integer counts
stay exact and win_payouts may differ only by the rounding of chunk-wise
sums. An integer-payout trajectory is read off the ledger, so its last row
equals the ledger's profit by construction.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

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
# Coups per row of a pattern chunk, before rounding up to whole periods.
_ROW = 1 << 12
# Equal bins of [0, 1) in an arm's guide table (_bin_table).
_BINS = 1 << 12
# A raw PCG64 word's bin is its top 12 bits.
_BIN_SHIFT = 64 - 12
# Every integer below this is exact in float64.
_EXACT_LIMIT = 1 << 53

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


_Chunks = Iterator[tuple[np.ndarray, np.ndarray | None]]


def _scratch_array(size: int, dtype, name: str = "") -> np.ndarray:
    """This thread's `dtype` buffer, `size` long, reused from run to run.

    Faulting in fresh pages costs more than the kernel's arithmetic on
    them, so each thread draws uniforms, looks up bins, writes payouts and
    reduces win bytes into one buffer per dtype, or per `name` where one
    chunk needs two of a dtype, instead of allocating per run.
    """
    dtype = np.dtype(dtype)
    name = name or dtype.name
    buffer = getattr(_scratch, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.zeros(size, dtype)
        setattr(_scratch, name, buffer)
    return buffer[:size]


def _arm_entries(arm) -> tuple[np.ndarray, list[float], list[bool]]:
    """An arm's inverse-CDF thresholds, its rewards and its win flags.

    The thresholds are the arm's cumulative probabilities without the last
    one, so the count of those <= u, searchsorted(thresholds, u,
    side="right"), is the entry of uniform u, clipped to K - 1. A two-point
    arm is the table (u, win), (0, loss) with the one threshold p, so it
    wins when u < p even if it pays nothing; a multipoint entry wins when
    its reward is positive.
    """
    if isinstance(arm, TwoPointArm):
        return np.array([arm.p]), [arm.u, 0.0], [True, False]
    rewards = [reward for reward, _ in arm.entries]
    thresholds = np.cumsum([prob for _, prob in arm.entries])[:-1]
    return thresholds, rewards, [reward > 0.0 for reward in rewards]


@functools.lru_cache(maxsize=64)
def _bin_table(arm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Payout of each of the _BINS equal bins of [0, 1) for one arm, and its split-bin data.

    An entry's signed reward is its reward on a win, +0.0 on a loss and
    -0.0 on a win that pays nothing, so a coup wins exactly where its
    payout's bits are nonzero. Bin b holds the uniforms in [b, b + 1) /
    _BINS. Its first uniform reaches searchsorted(thresholds, b / _BINS,
    "right") thresholds and its last searchsorted(thresholds, (b + 1) /
    _BINS, "left"); where the two agree, every uniform of the bin has that
    entry, and the bin holds its signed reward. A bin a threshold splits
    holds NaN. Returns the table, the arm's thresholds and its signed
    rewards, all read-only.
    """
    thresholds, rewards, wins = _arm_entries(arm)
    signed = np.array([(reward or -0.0) if won else 0.0 for reward, won in zip(rewards, wins)])
    edges = np.arange(_BINS + 1) / _BINS
    first = np.searchsorted(thresholds, edges[:-1], side="right")
    last = np.searchsorted(thresholds, edges[1:], side="left")
    table = np.where(first == last, signed[first], np.nan)
    for array in (table, thresholds, signed):
        array.flags.writeable = False
    return table, thresholds, signed


def _table_sampler(spec: ChainSpec, row: int) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Sampler of a pattern through its arms' bin tables (_bin_table).

    The returned function takes a stack of rows of raw PCG64 words, each
    `row` words of whole pattern periods, and returns their win mask and
    payouts, in this thread's scratch buffers. A word's bin is its top 12
    bits, w >> 52, plus its arm's table offset, and one take reads the
    payouts. The few words in split bins, at most K - 1 of every _BINS,
    count their arm's thresholds exactly, at the word's uniform
    (w >> 11) * 2**-53: what Generator.random makes of the same word.
    """
    labels = list(dict.fromkeys(spec.sequence))
    arms = [_bin_table(spec.arms[label]) for label in labels]
    table = np.concatenate([table for table, _, _ in arms])
    codes = [labels.index(label) * _BINS for label in spec.sequence]
    offsets = np.tile(np.array(codes, np.uint64), row // spec.n)

    def sample(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bins = _scratch_array(words.size, np.uint64, "bins").reshape(words.shape)
        np.right_shift(words, _BIN_SHIFT, out=bins)
        np.add(bins, offsets, out=bins)
        payouts = _scratch_array(words.size, float).reshape(words.shape)
        # Every bin is in range; "clip" skips the check that would buffer `out`.
        np.take(table, bins.view(np.intp), out=payouts, mode="clip")
        win = _scratch_array(words.size, bool, "win").reshape(words.shape)
        split = np.flatnonzero(np.isnan(payouts, out=win))
        if split.size:
            uniforms = (words.ravel()[split] >> np.uint64(11)) * 2.0**-53
            owners = bins.ravel()[split] // _BINS
            for code, (_, thresholds, signed) in enumerate(arms):
                mine = owners == code
                entries = np.searchsorted(thresholds, uniforms[mine], side="right")
                payouts.ravel()[split[mine]] = signed[entries]
        np.not_equal(payouts.view(np.int64), 0, out=win)
        return win, payouts

    return sample


def _pattern_chunks(spec: ChainSpec, coups: int, seed: int, payouts: bool = True) -> _Chunks:
    """(win mask, payouts) of a pattern run, chunk by chunk; one PCG64 word per coup.

    A chunk is a stack of rows of whole pattern periods, about _ROW coups
    each, so the per-position values are laid out once, for one row, and
    broadcast over the rows. A two-point pattern draws one uniform per
    coup and writes its payouts over them, or, without `payouts`, yields
    None for them; the last row of its last chunk may be cut short. A
    table-sampled pattern draws raw words in whole rows, so its last chunk
    reads up to row - 1 words past the run that no coup uses.
    """
    bits = np.random.PCG64(_check_seed(seed))
    n = spec.n
    row = -(-min(_ROW, CHUNK, coups) // n) * n
    step = -(-min(CHUNK, coups) // row) * row
    arms = [spec.arms[label] for label in spec.sequence]
    # Uniforms made from raw words made this path 13-19% slower. It is kept
    # beside the table sampler, which gives the same ledgers on two-point
    # patterns but ran 1.17-1.25x slower per 100k-coup run (AB, AAABB and a
    # 17-coup pattern; 2 vCPUs, numpy 2.4.6).
    if all(isinstance(arm, TwoPointArm) for arm in arms):
        rng = np.random.Generator(bits)
        uniforms = _scratch_array(step, float)
        grid = uniforms.reshape(-1, row)
        p = np.tile([arm.p for arm in arms], row // n)
        u = np.tile([arm.u for arm in arms], row // n)
        for start in range(0, coups, step):
            k = min(step, coups - start)
            rng.random(out=uniforms[:k])
            rows = grid[: -(-k // row)]
            win = rows < p
            if payouts:
                np.multiply(win, u, out=rows)
            yield win.ravel()[:k], uniforms[:k] if payouts else None
        return
    sample = _table_sampler(spec, row)
    for start in range(0, coups, step):
        k = min(step, coups - start)
        win, payouts = sample(bits.random_raw(-(-k // row) * row).reshape(-1, row))
        yield win.ravel()[:k], payouts.ravel()[:k]


# Highest win bit of each byte of a packed win mask; far below any coup index when none.
_HIGH_WIN = np.array([byte.bit_length() - 1 if byte else -(1 << 62) for byte in range(256)])


@functools.lru_cache(maxsize=16)
def _award_tables(j: int) -> tuple[np.ndarray, np.ndarray]:
    """Awards and per-coup stakes of one 8-coup byte, keyed by phase*256 + byte.

    Bit i of a byte is coup i's win flag. The phase o is (last win before
    the byte - the byte's first coup) mod j: the loss run open at the
    byte's start pays at coups o, o + j, ... until the byte's first win,
    and after a win at coup w at w + j, w + 2j, ... A phase of 8 or more
    pays nowhere before the first win, so phases are capped at 8. Returns
    the award count of each key and its 8 stakes, 1 - j on an award coup
    and 1 elsewhere; both tables are read-only.
    """
    coups = np.arange(8)
    wins = (np.arange(256)[:, None] >> coups & 1).astype(bool)
    # Last win at or before each coup of the byte, -1 before the first.
    last = np.maximum.accumulate(np.where(wins, coups, -1), axis=1)
    # Before its first win the byte continues a run whose last win sits at o - j.
    phases = np.arange(9)[:, None, None]
    last = np.where(last >= 0, last, phases - j)
    awards = ~wins & ((coups - last) % j == 0)
    counts = awards.sum(axis=2, dtype=np.intp).ravel()
    stakes = np.where(awards, 1.0 - j, 1.0).reshape(-1, 8)
    counts.flags.writeable = stakes.flags.writeable = False
    return counts, stakes


@functools.lru_cache(maxsize=16)
def _profit_table(payouts: tuple[float, ...], j: int) -> np.ndarray:
    """Per-coup profits of one 8-coup byte of a two-point pattern, keyed by (class * phases + phase) * 256 + byte.

    `payouts` are the win payouts of the pattern's positions, n of them.
    Every chunk starts on a whole period, so byte b of a chunk covers
    positions 8b, ..., 8b + 7 mod n, which depend only on its class,
    b mod n / gcd(n, 8). A class has phases = min(j, 9) blocks of 256
    rows, each row _award_tables' 8 stakes less the byte's wins times
    their positions' payouts: the very operations that give each coup's
    stake minus its payout, so every bit is the same. Read-only.
    """
    n = len(payouts)
    classes = np.arange(n // math.gcd(n, 8))
    phases = min(j, 9)
    stakes = _award_tables(j)[1][: phases * 256].reshape(phases, 256, 8)
    wins = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)
    paid = wins * np.array(payouts, float)[(8 * classes[:, None, None] + np.arange(8)) % n]
    table = (stakes - paid[:, None]).reshape(-1, 8)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _award_prefix(j: int) -> np.ndarray:
    """Awards among the first r coups of a byte, keyed by (phase*256 + byte, r), r = 0..8.

    Column 8 is _award_tables' count; the table is read-only.
    """
    prefix = np.zeros((9 * 256, 9), np.intp)
    np.cumsum(_award_tables(j)[1] != 1.0, axis=1, dtype=np.intp, out=prefix[:, 1:])
    prefix.flags.writeable = False
    return prefix


def _byte_starts(size: int) -> np.ndarray:
    """0, 8, 16, ...: the first coup of each of `size` bytes, this thread's copy."""
    starts = getattr(_scratch, "byte_starts", None)
    if starts is None or starts.size < size:
        starts = np.arange(0, 8 * size, 8)
        _scratch.byte_starts = starts
    return starts[:size]


def _awards(win: np.ndarray, j: int, losses: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Table keys and award counts of a chunk's win bytes, its award total and the loss run left open.

    The chunk continues a loss run of `losses` coups, whose last win is the
    virtual coup -1 - losses. Packing the mask gives one byte per 8 coups;
    a running maximum over each byte's highest win gives the last win
    before every byte, and so its phase. Pad bits past the chunk's end are
    losses and may draw awards; the total takes those back, the last
    byte's count keeps them. Nothing is counted twice across chunks: the
    carried run's earlier awards are in earlier chunks, and the phase
    places its next one.
    """
    packed = np.packbits(win, bitorder="little")
    size = packed.size
    starts = _byte_starts(size)
    last = _scratch_array(size + 1, np.intp, "last_win")
    last[0] = -1 - losses
    np.take(_HIGH_WIN, packed, out=last[1:], mode="clip")
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
    np.add(keys, packed, out=keys)
    counts, stakes = _award_tables(j)
    byte_awards = np.take(counts, keys, out=_scratch_array(size, np.intp, "byte_awards"), mode="clip")
    pad = stakes[keys[-1], win.size - starts[-1] :]
    events = int(byte_awards.sum()) - int(np.count_nonzero(pad != 1.0))
    return keys, byte_awards, events, win.size - 1 - int(last[-1])


def _play(chunks: _Chunks, j: int) -> Ledger:
    """Reduce a run, chunk by chunk, to its ledger."""
    coups = losses = wins = events = 0
    payouts = 0.0
    for win, payout in chunks:
        awards, losses = _awards(win, j, losses)[2:]
        payouts += float(payout.sum())
        wins += int(np.count_nonzero(win))
        events += awards
        coups += win.size
    return Ledger(
        coups_played=coups,
        stakes_collected=float(coups),
        win_payouts=payouts,
        futurity_refunds=float(j * events),
        futurity_events=events,
        win_count=wins,
        j=j,
    )


def _trajectory(
    chunks: _Chunks, j: int, stride: int, exact: bool, profits: np.ndarray | None = None
) -> np.ndarray:
    """Reduce a run, chunk by chunk, to its cumulative profit at coups stride, 2*stride, ...

    With `exact`, which needs integer payouts whose every running total is
    exact in float64, each value is read off the ledger at its mark
    (_ledger_marks). Otherwise it is the sequential running sum of per-coup
    profit. With a `profits` table (_profit_table) of a two-point pattern,
    whose chunks carry no payouts, each byte's 8 profits are one row,
    keyed by its class and its award key; else each coup's stake from the
    byte table minus its payout. Neither forms the win count.
    """
    table = _award_tables(j)[1] if profits is None else profits
    block = min(j, 9) * 256
    offsets = None
    start = losses = events = 0
    payouts = total = 0.0
    values = []
    for win, payout in chunks:
        k = win.size
        keys, byte_awards, awards, losses = _awards(win, j, losses)
        marks = np.arange(stride - 1 - start % stride, k, stride)
        if exact:
            marked, payouts = _ledger_marks(keys, byte_awards, payout, marks, j, start, events, payouts)
            values.append(marked)
            events += awards
        else:
            if profits is not None:
                if offsets is None or offsets.size < keys.size:
                    offsets = np.arange(keys.size) % (profits.shape[0] // block) * block
                np.add(keys, offsets[: keys.size], out=keys)
            rows = _scratch_array(8 * keys.size, float, "stakes").reshape(-1, 8)
            np.take(table, keys, axis=0, out=rows, mode="clip")
            per_coup = rows.ravel()[:k]
            if profits is None:
                np.subtract(per_coup, payout, out=per_coup)
            per_coup[0] += total
            cumulative = np.cumsum(per_coup, out=per_coup)
            total = cumulative[-1]
            values.append(cumulative[marks])
        start += k
    return np.concatenate(values)


def _sums_before(values: np.ndarray, ends: np.ndarray, dtype) -> np.ndarray:
    """values[:e].sum() for each end e of the nondecreasing `ends`, 1 <= e <= values.size.

    Exact for integer values, summed in any order: a sum per segment
    between ends, then a running sum over the segments. reduceat gives an
    empty segment its first element, so those are zeroed.
    """
    starts = np.concatenate(([0], ends[:-1]))
    # Segments that start at the last end are empty; reduceat takes no index that far.
    inside = np.searchsorted(starts, ends[-1])
    segments = np.zeros(ends.size, dtype)
    segments[:inside] = np.add.reduceat(values[: ends[-1]], starts[:inside], dtype=dtype)
    segments[starts == ends] = 0
    return np.cumsum(segments, out=segments)


def _ledger_marks(
    keys: np.ndarray,
    byte_awards: np.ndarray,
    payout: np.ndarray,
    marks: np.ndarray,
    j: int,
    start: int,
    events: int,
    payouts: float,
) -> tuple[np.ndarray, float]:
    """Cumulative profit at a chunk's marks, read off the ledger: coups - J * awards - payouts.

    The chunk starts after `start` coups, `events` awards and `payouts`
    coins paid; returns the values and the coins paid by the chunk's end.
    A mark's awards are those of the bytes up to its own (_sums_before of
    the per-byte counts), less its byte's count, plus the award count of
    its byte's first coups (_award_prefix). Its payouts are those up to it,
    and the chunk's total is one more end. With integer payouts and every
    total below 2**53 each step is exact, so the values equal the
    sequential running sum bit for bit.
    """
    byte = marks >> 3
    awards = events + _award_prefix(j)[keys[byte], (marks & 7) + 1] - byte_awards[byte]
    if marks.size:
        awards += _sums_before(byte_awards, byte + 1, np.intp)
    paid = _sums_before(payout, np.append(marks + 1, payout.size), float)
    paid += payouts
    return (start + 1 + marks - j * awards) - paid[:-1], float(paid[-1])


def simulate_once(spec: ChainSpec, coups: int, seed: int) -> Ledger:
    """Play `coups` coups of the pattern; deterministic given (spec, coups, seed)."""
    _check_count("coups", coups)
    return _play(_pattern_chunks(spec, coups, seed), spec.j)


def cumulative_trajectory(spec: ChainSpec, coups: int, seed: int, stride: int) -> np.ndarray:
    """Cumulative casino profit sampled every `stride` coups.

    Returns an array of (coup index, cumulative profit) rows at coups
    stride, 2*stride, ... When every payout is an integer, as with the raw
    Mills modes, and coups * (J + largest payout) < 2**53, each row is read
    off the ledger at its coup; with the same seed, and stride dividing
    coups, the final row equals simulate_once's casino_profit_total by
    construction. Otherwise the rows are a sequential running sum, which
    rounds apart from the ledger's pairwise payout sum with fractional
    payouts: on fair AB at (0.3, 0.7), seed 3, by 2.9e-9 at 10**5 coups,
    5.7e-7 at 10**6 and 2.0e-5 at 10**7.
    """
    _check_count("coups", coups)
    _check_count("stride", stride)
    if stride > coups:
        raise DomainError(f"stride {stride} exceeds coups {coups}: no point to sample")
    if coups // stride > MAX_TRAJECTORY_POINTS:
        raise DomainError(
            f"{coups // stride} trajectory points exceed cap {MAX_TRAJECTORY_POINTS}; raise the stride"
        )
    paid = [reward for label in set(spec.sequence) for reward in _arm_entries(spec.arms[label])[1]]
    exact = all(float(reward).is_integer() for reward in paid) and (
        coups * (spec.j + int(max(paid))) < _EXACT_LIMIT
    )
    arms = [spec.arms[label] for label in spec.sequence]
    profits = None
    # The profit table may have no more rows than a chunk's stake rows, so memory stays O(CHUNK).
    if not exact and all(isinstance(arm, TwoPointArm) for arm in arms):
        if spec.n // math.gcd(spec.n, 8) * min(spec.j, 9) * 256 <= CHUNK // 8:
            profits = _profit_table(tuple(arm.u for arm in arms), spec.j)
    # Positional: stand-ins for the sampler take *args.
    chunks = _pattern_chunks(spec, coups, seed, profits is None)
    values = _trajectory(chunks, spec.j, stride, exact, profits)
    return np.column_stack([np.arange(stride, coups + 1, stride), values])


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
    return _play(_pattern_chunks(spec, coups, seed), spec.j)


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
    return _run_replications(lambda coups, seed: _play(_pattern_chunks(spec, coups, seed), spec.j), config, workers)
