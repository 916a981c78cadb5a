"""Arm payoff models, the antique Mills machine data, and machine files.

An arm is either a two-point model (win probability p, single payout u) or a
multipoint reward distribution. A coup on a multipoint arm "wins" exactly
when the drawn reward is positive; a zero reward is a loss and advances the
futurity streak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import DegenerateMode, DomainError, InvalidDistribution
from .formulas import fair_payout

PROBABILITY_SUM_TOL = 1e-12

# Largest reward a coup pays. Simulated totals are exact only below 2**53,
# and rewards near float64's limit overflow them to -inf.
_MAX_REWARD = 2**53


@dataclass(frozen=True)
class TwoPointArm:
    """Arm paying u coins with probability p, nothing otherwise."""

    p: float
    u: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"win probability must lie in [0, 1], got {self.p!r}")
        if not 0.0 <= self.u <= _MAX_REWARD:
            raise DomainError(f"payout must lie in [0, 2**53], got {self.u!r}")


@dataclass(frozen=True)
class MultipointDistribution:
    """Reward distribution as (reward, probability) entries.

    Probabilities must sum to 1 within 1e-12; rewards must be distinct and
    in [0, 2**53] with at most one zero-reward entry. Zero-probability entries
    are legal and preserved, so source tables round-trip unchanged.
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidDistribution("distribution has no entries")
        total = 0.0
        rewards = set()
        zero_rewards = 0
        for reward, prob in self.entries:
            if not math.isfinite(reward):
                raise InvalidDistribution(f"non-finite reward {reward!r}")
            if reward < 0.0:
                raise InvalidDistribution(f"negative reward {reward!r}")
            if reward > _MAX_REWARD:
                raise InvalidDistribution(f"reward {reward!r} above the cap of 2**53")
            if not 0.0 <= prob <= 1.0:
                raise InvalidDistribution(f"probability {prob!r} outside [0, 1]")
            if reward in rewards:
                raise InvalidDistribution(f"duplicate reward {reward!r}")
            rewards.add(reward)
            if reward == 0.0:
                zero_rewards += 1
            total += prob
        if zero_rewards > 1:
            raise InvalidDistribution("more than one zero-reward entry")
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise InvalidDistribution(f"probabilities sum to {total!r}, expected 1")


ArmModel = Union[TwoPointArm, MultipointDistribution]


def win_probability(arm: ArmModel) -> float:
    """Probability that a coup on this arm pays anything (reward > 0)."""
    if isinstance(arm, TwoPointArm):
        return arm.p
    return 1.0 - sum(prob for reward, prob in arm.entries if reward == 0.0)


def expected_payout(arm: ArmModel) -> float:
    """Expected coins received per coup, futurity refunds excluded."""
    if isinstance(arm, TwoPointArm):
        return arm.p * arm.u
    return sum(reward * prob for reward, prob in arm.entries)


def fair_two_point(dist: MultipointDistribution) -> TwoPointArm:
    """Two-point reduction that keeps the win probability and makes the arm fair.

    The payout is recalibrated to fair_payout(p), so the reduced arm played
    alone breaks even regardless of the source table's actual payouts.
    """
    p = win_probability(dist)
    if p <= 0.0 or p >= 1.0:
        raise DegenerateMode(f"win probability {p!r} cannot be fairness-calibrated")
    return TwoPointArm(p, fair_payout(p))


def empirical_two_point(dist: MultipointDistribution) -> TwoPointArm:
    """Two-point reduction paying the mean positive reward on each win.

    Keeps the source table's expected payout instead of forcing fairness;
    useful for comparing a machine's real economics against the calibrated
    model. No fairness property is implied. The mean is capped at the
    largest reward the table pays, which rounding can push it above.
    """
    p = win_probability(dist)
    if p <= 0.0:
        raise DegenerateMode("distribution never wins; no conditional payout exists")
    largest = max((reward for reward, prob in dist.entries if reward > 0.0 and prob > 0.0), default=0.0)
    return TwoPointArm(p, min(expected_payout(dist) / p, largest))


# Reward table of the antique Mills Futurity machine: the two mode cams E and
# O share one reward axis; zero-probability cells are kept so the table
# reproduces exactly.
MILLS_REWARDS = (0.0, 3.0, 5.0, 10.0, 14.0, 18.0, 150.0)
MILLS_MODE_E_PROBS = (0.968, 0.003, 0.007, 0.018, 0.004, 0.0, 0.0)
MILLS_MODE_O_PROBS = (0.357, 0.576, 0.064, 0.0, 0.0, 0.002, 0.001)


def mills_modes() -> tuple[MultipointDistribution, MultipointDistribution]:
    """The Mills machine's Mode E and Mode O reward distributions."""
    mode_e = MultipointDistribution(tuple(zip(MILLS_REWARDS, MILLS_MODE_E_PROBS)))
    mode_o = MultipointDistribution(tuple(zip(MILLS_REWARDS, MILLS_MODE_O_PROBS)))
    return mode_e, mode_o


def format_machine_file(
    mode_a: MultipointDistribution,
    mode_b: MultipointDistribution,
    comment: str = "",
) -> str:
    """Render two modes as machine-file text (see parse_machine_file)."""
    lines: list[str] = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    for label, dist in (("arm A", mode_a), ("arm B", mode_b)):
        if lines:
            lines.append("")
        lines.append(f"# {label}")
        for reward, prob in dist.entries:
            lines.append(f"{reward!r} {prob!r}")
    return "\n".join(lines) + "\n"


def parse_machine_text(text: str) -> tuple[MultipointDistribution, MultipointDistribution]:
    """Parse machine-description text into the two arms' distributions.

    Format: lines of `reward probability`; `#` starts a comment; one or more
    blank lines separate the first mode (arm A) from the second (arm B).
    Exactly two modes are required and each must satisfy the multipoint
    invariants.
    """
    blocks: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidDistribution(
                f"line {lineno}: expected 'reward probability', got {raw.strip()!r}"
            )
        try:
            reward, prob = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise InvalidDistribution(f"line {lineno}: {exc}") from exc
        current.append((reward, prob))
    if current:
        blocks.append(current)
    if len(blocks) != 2:
        raise InvalidDistribution(
            f"machine description needs exactly 2 modes separated by a blank line, found {len(blocks)}"
        )
    return (
        MultipointDistribution(tuple(blocks[0])),
        MultipointDistribution(tuple(blocks[1])),
    )


def load_machine_file(path: str | Path) -> tuple[MultipointDistribution, MultipointDistribution]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidDistribution(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return parse_machine_text(text)
