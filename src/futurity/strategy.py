"""Periodic two-armed play patterns and their block normal form.

A strategy is a finite pattern over the arms {A, B}, repeated indefinitely.
Every pattern has a canonical rotation that starts with a run of A-plays and
ends with a run of B-plays; run-length encoding that rotation gives the block
vector (r1, s1, ..., rh, sh) used by the closed-form profit expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .errors import (
    BlockCountTooSmall,
    EmptyPattern,
    IllegalCharacter,
    MissingArm,
    NotCanonical,
    PatternTooLong,
)

ARMS = ("A", "B")

#: Longest accepted pattern. The cap bounds memory, not runtime: the literal
#: closed forms are O(h^2) and O(n^2), and q_factor takes about 2 s at
#: h = 2000 (one core of a 2-vCPU host, Python 3.11).
MAX_PATTERN_LENGTH = 1_000_000


@dataclass(frozen=True)
class Strategy:
    """A fixed periodic arm pattern containing at least one A and one B."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise EmptyPattern("strategy pattern is empty")
        if len(self.symbols) > MAX_PATTERN_LENGTH:
            raise PatternTooLong(
                f"pattern length {len(self.symbols)} exceeds cap {MAX_PATTERN_LENGTH}"
            )
        for pos, ch in enumerate(self.symbols):
            if ch not in ARMS:
                raise IllegalCharacter(ch, pos)
        if "A" not in self.symbols or "B" not in self.symbols:
            raise MissingArm("strategy must play both arms at least once")

    @property
    def n(self) -> int:
        """Pattern period (coups per repetition)."""
        return len(self.symbols)

    @property
    def r(self) -> int:
        """Number of A-plays per period."""
        return self.symbols.count("A")

    @property
    def s(self) -> int:
        """Number of B-plays per period."""
        return self.symbols.count("B")

    def text(self) -> str:
        return "".join(self.symbols)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class BlockVector:
    """Run-length encoding (r1, s1, ..., rh, sh) of a canonical strategy.

    Odd positions hold A-run lengths, even positions B-run lengths; h is the
    number of A-run/B-run pairs.
    """

    a: tuple[int, ...]

    def __post_init__(self):
        if not self.a or len(self.a) % 2 != 0:
            raise NotCanonical("block vector needs alternating A-run/B-run pairs")
        if any(int(x) != x or x < 1 for x in self.a):
            raise NotCanonical("block lengths must be positive integers")

    @property
    def h(self) -> int:
        return len(self.a) // 2

    @property
    def r(self) -> int:
        return sum(self.a[0::2])

    @property
    def s(self) -> int:
        return sum(self.a[1::2])

    def symbols(self) -> tuple[str, ...]:
        """Reconstruct the symbol sequence this vector encodes."""
        out: list[str] = []
        for i, length in enumerate(self.a):
            out.extend(ARMS[i % 2] * length)
        return tuple(out)

    def to_strategy(self) -> Strategy:
        return Strategy(self.symbols())


def parse_strategy(text: str) -> Strategy:
    """Parse pattern text like "AABB" into a Strategy.

    Whitespace is stripped and lowercase letters are accepted; Strategy then
    rejects anything else with IllegalCharacter at the offending position
    (counted after whitespace removal), and all-A or all-B input with
    MissingArm.
    """
    return Strategy(tuple("".join(text.split()).upper()))


def rotate(strategy: Strategy, shift: int) -> Strategy:
    """Cyclic left-shift of the pattern by `shift` positions (mod period)."""
    n = strategy.n
    k = shift % n
    if k == 0:
        return strategy
    return Strategy(strategy.symbols[k:] + strategy.symbols[:k])


def mirror(strategy: Strategy) -> Strategy:
    """Swap the arm labels A and B throughout the pattern."""
    return Strategy(tuple("B" if ch == "A" else "A" for ch in strategy.symbols))


def _least_rotation_index(sym: tuple[str, ...]) -> int:
    # Two-pointer least rotation, O(n): candidates i and j agree on k symbols;
    # a mismatch drops the larger candidate and the k rotations after it.
    n, doubled = len(sym), sym + sym
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def canonical_rotation(strategy: Strategy) -> Strategy:
    """Return the canonical representative among all rotations of the pattern.

    The representative is the lexicographically smallest rotation (A < B).
    Because the pattern contains both letters, that rotation necessarily
    begins with an A-run and ends with a B-run, so it block-decomposes
    directly. All rotations yield the same long-run profit, making this a
    pure normalization choice.
    """
    return rotate(strategy, _least_rotation_index(strategy.symbols))


def block_vector(strategy: Strategy) -> BlockVector:
    """Run-length encode a canonical pattern into its block vector.

    The pattern must already start with an A-run and end with a B-run
    (canonicalize first); otherwise NotCanonical is raised.
    """
    sym = strategy.symbols
    if sym[0] != "A" or sym[-1] != "B":
        raise NotCanonical(
            f"pattern {strategy.text()!r} must start with A and end with B; "
            "apply canonical_rotation first"
        )
    return BlockVector(tuple(len(list(run)) for _, run in groupby(sym)))


def swap_last_runs(blocks: BlockVector) -> Strategy:
    """Pattern with the trailing A-run and trailing B-run exchanged.

    Maps A^r1 B^s1 ... A^rh B^sh to A^r1 B^s1 ... B^sh A^rh. Needs h >= 2;
    for h = 1 the exchange is a bare rotation of the same pattern.
    """
    if blocks.h < 2:
        raise BlockCountTooSmall("run swap needs at least two block pairs (h >= 2)")
    a = blocks.a
    return Strategy(BlockVector(a[:-2]).symbols() + ("B",) * a[-1] + ("A",) * a[-2])
