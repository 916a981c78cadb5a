"""Seeded Monte Carlo play of Futurity machines.

A run plays M coups from (position 1, streak 0), collecting 1 coin per coup,
paying the arm's payout on each win and refunding J coins the moment the
J-th consecutive loss lands. Everything is ledger accounted: casino profit
is stakes minus win payouts minus futurity refunds, which stays correct for
fractional payouts where counting wins would not.

One path plays every run, CHUNK coups at a time (rounded up to whole
pattern periods), so a run of any length needs O(CHUNK) memory per
thread, plus the trajectory marks it returns. Each chunk's
Generator.random uniforms, one per coup, are compared in one broadcast
with every position's distinct inverse-CDF thresholds in (0, 1)
(_arm_regions): plane t holds u < c_t.
A coup's entry is searchsorted(thresholds, u, "right") clipped to K - 1,
and it changes only at those thresholds, so the planes fix it. One
np.packbits call packs the planes into 64-coup words. A two-point arm has
the one threshold p; a Mills mode has 4, once tied thresholds
(zero-probability entries) and those at 0 or reaching 1 are dropped. A
plane costs about 0.5 ns per coup: against a 2**12-bin guide-table
sampler, 10**6-coup runs were 1.13x faster with 4 planes, 1.11x slower
with 7 and 1.69x slower with 15 (2 vCPUs, numpy 2.4.6); no shipped
machine has more than 4.

Everything a run reports is read from integer counts: coups, awards,
each arm's coups, the popcount of its positions, and for each pair of
arm and threshold the coups of that arm below it, the popcount of the
plane masked by the arm's positions. The region counts between
thresholds follow, and a ledger or trajectory mark is coups -
J * awards - the sum of reward * count over the regions, taken in one fixed
order. Counts are integers, so every output is independent of CHUNK, a
trajectory's last row equals the ledger bit for bit, and outputs with
integer rewards are exact while their totals stay below 2**53.

A coup's win bit is the XOR of its planes, each masked to the positions
whose win flag flips at that threshold, with the flag of its arm's last
region. Awards are marked many coups at a time, never per win: a loss
run pays at every J-th coup after its last win. Two passes mark them on
64-coup words, and both find the last win before every word with one
running maximum (_last_wins). A word's lead run, its losses before its
first win, continues that win's run. The word pass reads the lead run's
award bits from a table by their offset mod J, and marks the runs that
wins inside the word start by a doubling scan over shifts J, 2J, 4J, ...
For J up to _RESIDUE_J the residue pass is faster: for each residue
r < J - 1 it marks the coup after every residue-r win, and adding the
marks to the loss bits carries through exactly the runs they start; the
runs of residue J - 1 are the losses no row took. It does J - 1 rows of
word work (2**17-coup chunk, 2 vCPUs, numpy 2.4.6, six sweeps: 37-40
against 65-70 us for the word pass at J = 2, 62-69 against 64-73 us at
J = 6, behind in every sweep from J = 7; the word pass took 58-68 us at
J = 20 and 32-35 us at J >= 64). _RESIDUE_J is the largest J that the
residue pass won in every sweep, set from these per-pass timings alone:
no end-to-end benchmark runs J above 2. The loss run open at a chunk's end carries
into the next one. Both passes are a streak walk, bit for bit.

Split trajectories and replicate's workers play chunks on several
threads at once. After the draw, a chunk's pass is a few dozen numpy
calls that release the GIL, each only 1-20 us on a 2**17-coup chunk,
and calls that short barely overlap across threads. So the pass makes
few, large calls: one np.bitwise_count call counts the bits, and the
running maximum over wins writes its scan to a buffer of its own, since
numpy holds the GIL through a scan written in place. Either award pass makes a few
dozen calls on a chunk's 2**11 words.

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

Every run is cut into one or more segments of whole chunks, each played
on its own thread and merged in one pass (_run). _run alone picks the
count: a ledger is one segment, since replicate already runs
replications in parallel, and a trajectory one per _SEGMENT_CHUNKS *
CHUNK coups, at most one per usable core and MAX_WORKERS in all. A
segment's stream is PCG64(seed) advanced by its first coup
(PCG64.advance, O(log n)), so every coup still reads its own word. Each
segment counts from zero, and the merge adds the earlier segments'
counts and corrects the awards up to the segment's first win for the
loss run carried in. A run's rows are therefore the same, bit for bit,
on any number of cores.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .chain import ChainSpec, mixture_chain
from .errors import DomainError
from .formulas import ArmProbabilities
from .machines import TwoPointArm

#: Coups drawn and reduced per kernel step.
CHUNK = 1 << 17
#: Largest replication count; the per-replication means take 8 bytes each.
MAX_REPLICATIONS = 10**7
#: Most worker threads; each keeps its own scratch buffers.
MAX_WORKERS = 64
#: Most rows a trajectory returns; each takes 16 bytes, and its CSV line more.
MAX_TRAJECTORY_POINTS = 10**7
# A chunk's rows are the first whole number of pattern periods past _ROW
# coups (or the whole run, if shorter): numpy compares rows of exactly
# 2**12 float64 uniforms at half the speed of rows just past it.
_ROW = 1 << 12
# Fewest chunks per segment of a split trajectory. Each extra segment's
# thread allocates its own scratch for the call (2.4 MB for a Mills
# pattern), so shorter runs stay on one thread, in O(CHUNK) memory.
_SEGMENT_CHUNKS = 16

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


def _usable_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


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


@dataclass(frozen=True)
class SimResult:
    """Aggregate of a replicated run."""

    rep_means: np.ndarray
    grand_mean: float
    sample_sd: float
    standard_error: float


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


def _scratch_views(name: str, key: tuple, build: Callable[[], tuple]) -> tuple:
    """This thread's views `name` of its scratch buffers and tables, made by build() and remade only when `key` changes.

    A run of replications of one shape takes its buffers and reshapes
    them once, not once per run: a 64-coup replication took 3-7 us more
    without them (70-80 us in all, 2 vCPUs, numpy 2.4.6).
    """
    views = _scratch.__dict__.setdefault("views", {})
    held = views.get(name)
    if held is None or held[0] != key:
        held = views[name] = (key, build())
    return held[1]


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
    step in 64-coup words: `flips` marks, per plane, the positions whose
    win flag changes across its threshold, `always` those whose last region
    wins, `pair_masks` the positions of each pair's arm, and `arm_masks`
    each arm's positions; `pair_planes` names each pair's plane.
    `regions` turns [pair counts, arm coups] into the win count, then the
    count of each region of each arm, in pair order, and `rewards` holds
    each region's reward.
    """

    row: int
    step: int
    thresholds: np.ndarray
    flips: np.ndarray
    always: np.ndarray
    pair_planes: np.ndarray
    pair_masks: np.ndarray
    arm_masks: np.ndarray
    regions: np.ndarray
    rewards: np.ndarray


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
    regions = np.zeros((len(pair_arms) + len(arms), 1 + len(rewards)), np.int64)
    first = 1
    for arm in range(len(arms)):
        columns = [*np.flatnonzero(np.equal(pair_arms, arm)), len(pair_arms) + arm]
        span = np.arange(first, first + len(columns))
        regions[columns, span] = 1
        regions[columns[:-1], span[1:]] = -1
        first += len(columns)
    # Column 0 sums the regions that win.
    regions[:, 0] = regions[:, 1:] @ np.array([win for _, _, wins in tables for win in wins], np.int64)
    n = len(sequence)

    def bits(per_arm: np.ndarray) -> np.ndarray:
        # Padded with zeros to whole 64-bit words.
        tiled = np.zeros((*per_arm.shape[:-1], -(-step // 64) * 64), bool)
        tiled[..., :step] = np.tile(per_arm[..., owner], step // n)
        return np.packbits(tiled, axis=-1, bitorder="little").view(np.uint64)

    layout = _Layout(
        row=row,
        step=step,
        thresholds=np.tile(cuts[:, owner], row // n),
        flips=bits(flips),
        always=bits(np.array([wins[-1] for _, _, wins in tables])),
        pair_planes=np.array(pair_planes, np.intp),
        pair_masks=bits(np.eye(len(arms), dtype=bool)[np.array(pair_arms, np.intp)]),
        arm_masks=bits(np.eye(len(arms), dtype=bool)),
        regions=regions,
        rewards=np.array(rewards),
    )
    for array in vars(layout).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return layout


# Mask of bits 0..i of a word, for i = 0..63.
_LOW_BITS = np.array([(2 << i) - 1 for i in range(64)], np.uint64)
# Largest J that _awards plays with the residue pass; the word pass takes larger ones.
# Set from per-pass J sweeps only (see the module notes).
_RESIDUE_J = 6
# Coup c's key in the running maximum over wins (_last_wins) is c + _KEY. Every
# key sits above the 0 that words without wins clamp to, and below 2**62 - 2**52,
# the float exponent of a word whose highest win is bit 0.
_KEY = 1 << 61


def _last_wins(win: np.ndarray, k: int, j: int, losses: int) -> tuple[np.ndarray, int]:
    """The keys of the last win before each word of a chunk and, last, of the chunk's last win; and the loss run it leaves open.

    One running maximum over the words' highest wins. A word's highest
    win is the float exponent of its wins with no win directly above,
    which rounds to no higher power of two; a word without wins is the
    float 0.0, and its key clamps to 0. The carried run's last win,
    -1 - losses, pays next at f = (-1 - losses) mod J, so its key is
    _KEY - J + f: at least 0, below coup 0's, and of its residue mod J.
    A J above _KEY pays in a chunk at most the carried run's award at f,
    so its keys are taken mod min(J, _KEY), with f capped below that.
    The keys are this thread's scratch, free for the caller to overwrite.
    """
    words = win.size

    def buffers() -> tuple:
        return (
            _scratch_array(words, np.uint64, "tops"),
            _scratch_array(words + 1, np.int64, "last_win"),
            _scratch_array(words + 1, np.int64, "win_scan"),
            # The key of each word's first coup, less 1023, the float exponent bias.
            np.arange(_KEY - 1023, _KEY - 1023 + 64 * words, 64),
        )

    tops, last, scan, keys = _scratch_views("last_wins", (words,), buffers)
    # The floats go in the scan's buffer, which the running maximum writes last.
    lead, exponents = last[1:], scan[:-1]
    np.right_shift(win, 1, out=tops)
    np.bitwise_and(np.invert(tops, out=tops), win, out=tops)
    np.copyto(exponents.view(np.float64), tops, casting="unsafe")
    last[0] = _KEY - min(j, _KEY) + min((-1 - losses) % j, _KEY - 1)
    np.add(np.right_shift(exponents, 52, out=lead), keys, out=lead)
    np.minimum(lead, exponents, out=lead)
    # Into its own buffer: numpy holds the GIL through a scan written in place.
    np.maximum.accumulate(last, out=scan)
    found = int(scan[-1]) - _KEY
    return scan, k - 1 - found if found >= 0 else losses + k


def _residue_awards(win: np.ndarray, k: int, j: int, losses: int, out: np.ndarray) -> int:
    """_awards by residue class, a few passes over whole words.

    A loss run pays at the coups of its last win's residue mod j. Row r
    < j - 1 marks the coup after each residue-r win, and adding the marks
    to the loss bits L carries through the runs they start, so row r of
    T = L + marks is 0 on residue r's runs and 1 on the other losses; the
    runs of residue j - 1 are 1 in every row. With M_r the coups c where
    c % j == r, a loss's award bit is then M_{j-1} ^ (the XOR over r of
    (M_r ^ M_{j-1}) & T_r). A carry out of bit 63 is dropped: each word's
    lead run, its losses before its first win, is marked at bit 0 in the
    row of the last win before the word (_last_wins).
    """
    words = win.size
    scan, run = _last_wins(win, k, j, losses)

    def buffers() -> tuple:
        # The masks repeat every j / gcd(j, 64) words, so one period is packed and tiled.
        period = j // np.gcd(j, 64)
        one = np.packbits(np.arange(64 * period) % j == np.arange(j)[:, None], axis=-1, bitorder="little")
        masks = np.tile(one.view(np.uint64), -(-words // period))[:, :words]
        flips = masks[:-1] ^ masks[-1]
        return (
            masks[1:].copy(),
            flips,
            np.bitwise_xor.reduce(flips, axis=0) ^ masks[-1],
            # The residues mod j of the keys of coups of residue 0 .. j - 2.
            ((np.arange(j - 1) + _KEY) % j)[:, None],
            _scratch_array(words, np.uint64, "tops"),
            # The running maximum's input, free once it has run.
            _scratch_array(words + 1, np.int64, "last_win")[1:],
            _scratch_array((j - 1) * words, np.uint64, "residue_runs").reshape(j - 1, words),
            _scratch_array((j - 1) * words, bool, "lead_marks").reshape(j - 1, words),
        )

    starts, flips, base, rows, tops, lead, runs, marks = _scratch_views("residue", (j, words), buffers)
    # The loss bits, in `out` until the last step keeps their award coups.
    loss = np.invert(win, out=out)
    # scan mod j: numpy's division by a scalar runs faster than np.remainder here.
    np.subtract(scan[:-1], np.multiply(np.floor_divide(scan[:-1], j, out=lead), j, out=lead), out=lead)
    # A residue-r win's next coup is residue r + 1.
    np.bitwise_and(np.left_shift(win, 1, out=tops), starts, out=runs)
    np.bitwise_or(runs, np.equal(lead, rows, out=marks), out=runs)
    np.add(runs, loss, out=runs)
    np.bitwise_and(runs, flips, out=runs)
    np.bitwise_xor(np.bitwise_xor.reduce(runs, axis=0, out=tops), base, out=tops)
    np.bitwise_and(loss, tops, out=loss)
    return run


@functools.lru_cache(maxsize=16)
def _lead_table(j: int) -> np.ndarray:
    """Award bits of a word's lead run by offset: entry o = 0 .. 64 sets bits o, o + j, ... below 64. Read-only."""
    bits, offsets = np.arange(64), np.arange(65)[:, None]
    pays = (bits >= offsets) & ((bits - offsets) % j == 0)
    table = np.packbits(pays, axis=-1, bitorder="little").view(np.uint64).ravel()
    table.flags.writeable = False
    return table


def _word_awards(win: np.ndarray, k: int, j: int, losses: int, out: np.ndarray) -> int:
    """_awards word by word, in the same few passes at every J.

    A word's lead run, its losses before its first win, is ~w & (w - 1).
    It continues the run of the last win before the word (_last_wins),
    so it pays at offsets o, o + j, ... with o = (that win - the word's
    first coup) mod j, read from _lead_table by min(o, 64). A run that a
    win inside the word starts pays at coup t when coup t - j is a win or
    an award and the j coups up to t are losses (R): from g = (w << j) &
    R, a Kogge-Stone scan g |= P & (g << s), P &= P << s, with P = R at
    s = j, doubling s while a run from s + j coups back fits in the word;
    from J = 64 on none fits.
    """
    words = win.size
    scan, run = _last_wins(win, k, j, losses)

    def buffers() -> tuple:
        return (
            # The key of each word's first coup.
            np.arange(_KEY, _KEY + 64 * words, 64),
            # The running maximum's input, free once it has run.
            _scratch_array(words + 1, np.int64, "last_win")[1:],
            *(_scratch_array(words, np.uint64, name) for name in ("word_loss", "tops", "word_reach", "word_runs")),
        )

    starts, quotients, loss, temp, reach, runs = _scratch_views("word", (words,), buffers)
    bound = min(j, _KEY)
    offsets = np.subtract(scan[:-1], starts, out=scan[:-1])
    # offsets mod min(j, _KEY) (_last_wins): numpy's division by a scalar runs faster than np.remainder here.
    np.subtract(offsets, np.multiply(np.floor_divide(offsets, bound, out=quotients), bound, out=quotients), out=offsets)
    # Clipped, every offset from 64 on reads the table's last entry.
    np.take(_lead_table(j), offsets, out=out, mode="clip")
    np.invert(win, out=loss)
    np.bitwise_and(out, np.bitwise_and(loss, np.subtract(win, 1, out=temp), out=temp), out=out)
    if j < 64:
        # R, the coups that close j losses in a row: a window of `span` losses
        # and one `step` <= span coups before it make one of span + step.
        np.bitwise_and(loss, np.left_shift(loss, 1, out=temp), out=reach)
        span = 2
        while span < j:
            step = min(span, j - span)
            np.bitwise_and(reach, np.left_shift(reach, step, out=temp), out=reach)
            span += step
        np.bitwise_and(np.left_shift(win, j, out=runs), reach, out=runs)
        shift = j
        while shift + j < 64:
            np.bitwise_or(runs, np.bitwise_and(reach, np.left_shift(runs, shift, out=temp), out=temp), out=runs)
            np.bitwise_and(reach, np.left_shift(reach, shift, out=temp), out=reach)
            shift *= 2
        np.bitwise_or(out, runs, out=out)
    return run


def _awards(win: np.ndarray, k: int, j: int, losses: int, out: np.ndarray) -> int:
    """Write the award coups of a chunk's k coups into `out` as 64-coup words; return the loss run left open.

    `win` holds the chunk's win bits in ceil(k / 64) words; bits from k on
    move only the returned run. The chunk continues a loss run of
    `losses` coups, whose last win is the virtual coup -1 - losses. Award
    bits from k on are left for the caller to clear. Nothing is counted
    twice across chunks: the carried run's earlier awards are in earlier
    chunks. J up to _RESIDUE_J takes the residue pass, larger J the word
    pass.
    """
    return (_residue_awards if j <= _RESIDUE_J else _word_awards)(win, k, j, losses, out)


@dataclass
class _Segment:
    """Coups [first, end) of a run, played as if a win came just before `first`.

    Playing it sets `losses`, the loss run it leaves open, and, when it
    starts after coup 0, `first_win`, the offset of its first win from
    `first` (None while it has none).
    """

    first: int
    end: int
    first_win: int | None = None
    losses: int = 0


def _pattern_chunks(layout: _Layout, segment: _Segment, seed: int, j: int) -> Iterator[tuple[int, np.ndarray]]:
    """The bit rows of a run's segment, chunk by chunk; one Generator.random uniform per coup.

    Yields each chunk's coup count k and its rows as 64-bit words, bit i
    of a row for coup i: row 0 marks the award coups, row 1 + q the coups
    of pair q's arm whose uniform is below the pair's threshold, and the
    last rows each arm's coups. Bits from k on are cleared. Uniforms past
    the run's end are set to 1.0, below no threshold, and the planes past
    the last row are cleared up to a whole word. Only the run's last
    chunk ends inside a row, so a win bit set past its end (a position
    whose last region wins) moves only the loss run it leaves open, which
    nothing reads. The segment's stream is PCG64(seed) advanced by its
    first coup, so its coups read the words a whole run reads.
    """
    stream = np.random.PCG64(_check_seed(seed))
    if segment.first:
        stream.advance(segment.first)
    rng = np.random.Generator(stream)
    row, step = layout.row, layout.step
    planes, width = layout.flips.shape
    arm_row = 1 + layout.pair_planes.size
    bit_rows = arm_row + layout.arm_masks.shape[0]

    def buffers() -> tuple:
        uniforms = _scratch_array(step, float, "uniforms")
        # Spare rows let every plane run on to a whole word past the chunk's last row.
        rows_held = step // row + -(-64 // row)
        below = _scratch_array(planes * rows_held * row, bool, "planes").reshape(planes, rows_held, row)
        words = _scratch_array(bit_rows * width, np.uint64, "bits").reshape(bit_rows, width)
        return uniforms, uniforms.reshape(-1, row), below, below.reshape(planes, rows_held * row), words

    uniforms, grid, below, flat, words = _scratch_views("chunks", (row, step, planes, bit_rows, width), buffers)
    losses = 0
    for start in range(segment.first, segment.end, step):
        k = min(step, segment.end - start)
        rows = -(-k // row)
        used = -(-k // 64)
        rng.random(out=uniforms[:k])
        uniforms[k : rows * row] = 1.0
        np.less(grid[:rows], layout.thresholds[:, None], out=below[:, :rows])
        if rows * row < 64 * used:
            flat[:, rows * row : 64 * used] = False
        packed = np.packbits(flat[:, : 64 * used], axis=-1, bitorder="little").view(np.uint64)
        win = np.bitwise_xor.reduce(packed & layout.flips[:, :used], axis=0) ^ layout.always[:used]
        if segment.first and segment.first_win is None:
            hits = np.flatnonzero(win)
            if hits.size:
                word = int(win[hits[0]])
                segment.first_win = start - segment.first + 64 * int(hits[0]) + (word & -word).bit_length() - 1
        segment.losses = losses = _awards(win, k, j, losses, words[0, :used])
        np.bitwise_and(packed[layout.pair_planes], layout.pair_masks[:, :used], out=words[1:arm_row, :used])
        words[arm_row:, :used] = layout.arm_masks[:, :used]
        if k & 63:
            words[:, used - 1] &= _LOW_BITS[(k - 1) & 63]
        yield k, words[:, :used]


def _tally(chunks: Iterable[tuple[int, np.ndarray]], stride: int | None = None, start: int = 0) -> np.ndarray:
    """Bit counts of a run's rows at coups stride, 2*stride, ... (none without a stride), then at its end.

    Returns one int64 row per mark and a last row at the end: the coups
    played, then the count of each bit row's set bits up to that coup. In
    a chunk with marks, a running sum over one reduceat of the per-word
    counts at the marks' words gives the words before each mark's word and
    the chunk's total; a mark adds the chunks before and its word's bits
    up to its coup. The chunks start at coup `start` of the run, which
    places the marks and the first column.
    """
    end, values = None, []
    for k, words in chunks:
        counts = np.bitwise_count(words, out=_scratch_array(words.size, np.uint8, "counts").reshape(words.shape))
        if end is None:
            end = np.zeros((1, 1 + words.shape[0]), np.int64)
            totals = end[0, 1:]
        marks = np.arange(stride - 1 - start % stride, k, stride) if stride is not None else ()
        if len(marks):
            cuts = np.concatenate(([0], marks >> 6))
            sums = np.add.reduceat(counts, cuts, axis=1, dtype=np.int64)
            # reduceat gives a repeated cut's empty segment its first element.
            sums[:, np.flatnonzero(cuts[:-1] == cuts[1:])] = 0
            sums[:, 0] += totals
            rows = np.empty((marks.size + 1, 1 + words.shape[0]), np.int64)
            np.cumsum(sums, axis=1, out=rows[:, 1:].T)
            rows[:-1, 1:] += np.bitwise_count(words[:, cuts[1:]] & _LOW_BITS[marks & 63]).T
            rows[:-1, 0] = start + 1 + marks
            values.append(rows[:-1])
            totals[:] = rows[-1, 1:]
        else:
            # A chunk row holds fewer than 2**32 bits, and uint32 sums run faster than int64 ones.
            totals += np.add.reduce(counts, axis=1, dtype=np.uint32)
        start += k
    end[0, 0] = start
    return np.concatenate([*values, end]) if values else end


def _outcomes(layout: _Layout, tallies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Win count and coins paid at each tally row (_tally of _pattern_chunks).

    The counts of the regions between each arm's thresholds are integers
    (_Layout.regions). Payouts add reward * count over the arms and
    regions left to right, in one running sum, so equal counts give equal
    bits.
    """
    counts = tallies[:, 2:] @ layout.regions
    return counts[:, 0], np.add.accumulate(counts[:, 1:] * layout.rewards, axis=1)[:, -1]


def _run(
    spec: ChainSpec, coups: int, seed: int, stride: int | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Tallies (_tally) of a pattern run at its marks, or at its end without a stride, and their outcomes.

    The run's segments (see the module notes) play on one thread each,
    segment 0 on this one. The merge adds to each segment the counts of
    those before it, and corrects its award count up to its first win f,
    where the loss run L open at its start moves the awards: over the
    first c = min(coups played, f) coups the run pays
    (L + c) // J - L // J awards where the segment counted c // J. A
    segment without a win passes L plus its length on.
    """
    n, j = spec.n, spec.j
    row = -(-min(_ROW + 1, CHUNK, coups) // n) * n
    step = -(-min(CHUNK, coups) // row) * row
    arms = tuple((label, spec.arms[label]) for label in dict.fromkeys(spec.sequence))
    layout = _layout(spec.sequence, arms, row, step)
    chunks = -(-coups // step)
    segments = 1 if stride is None else min(_usable_cores(), MAX_WORKERS, coups // (_SEGMENT_CHUNKS * CHUNK), chunks)
    segments = max(segments, 1)
    parts = [
        _Segment(i * chunks // segments * step, min((i + 1) * chunks // segments * step, coups))
        for i in range(segments)
    ]

    def play(part: _Segment) -> np.ndarray:
        # Positional: stand-ins for the chunk generator take *args.
        return _tally(_pattern_chunks(layout, part, seed, j), stride, part.first)

    with ThreadPoolExecutor(segments - 1) if segments > 1 else contextlib.nullcontext() as pool:
        helpers = [pool.submit(play, part) for part in parts[1:]]
        tallies = play(parts[0])
    if helpers:
        tallies = [tallies, *(helper.result() for helper in helpers)]
        before, losses = tallies[0][-1, 1:], parts[0].losses
        for part, rows in zip(parts[1:], tallies[1:]):
            rows[:, 1:] += before
            if losses % j:
                covered = rows[:, 0] - part.first
                if part.first_win is not None:
                    np.minimum(covered, part.first_win, out=covered)
                rows[:, 1] += (losses + covered) // j - losses // j - covered // j
            before = rows[-1, 1:]
            losses = part.losses + (losses if part.first_win is None else 0)
        # A trajectory keeps each segment's marks, without the row at its last coup.
        tallies = np.concatenate([rows[:-1] for rows in tallies])
        # The futures and the merge still hold the segments' own tallies: free them before the outcomes.
        helpers = rows = before = None
    elif stride is not None:
        tallies = tallies[:-1]
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


def _run_replications(run_one, config: SimConfig, workers: int) -> SimResult:
    _check_count("workers", workers)
    if workers > MAX_WORKERS:
        raise DomainError(f"workers {workers} exceed cap {MAX_WORKERS}")
    reps = config.replications
    rep_means = np.empty(reps)

    def task(k: int) -> None:
        rep_means[k] = run_one(config.coups, derive_seed(config.master_seed, k)).mean_profit

    if workers == 1:
        for k in range(reps):
            task(k)
    else:
        # One pool task per worker, each taking the next index until none is
        # left: a future per replication costs about 20 us.
        indices, taking = iter(range(reps)), threading.Lock()

        def drain() -> None:
            while True:
                with taking:
                    k = next(indices, None)
                if k is None:
                    return
                task(k)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for done in [pool.submit(drain) for _ in range(min(workers, reps))]:
                done.result()
    sd = float(rep_means.std(ddof=1)) if reps > 1 else 0.0
    return SimResult(rep_means, float(rep_means.mean()), sd, sd / reps**0.5 if reps > 1 else 0.0)


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
