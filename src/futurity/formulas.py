"""Closed-form long-run profit of the two-armed Futurity machine.

All expressions assume the standard setting: stake 1 coin per coup, futurity
threshold J = 2, and both arms individually fairness-calibrated so a single
arm played alone returns the stake exactly. Under those rules the casino's
asymptotic profit per coup for a periodic pattern factorizes as

    profit = 2 * Q * S

where Q depends only on the block structure of the pattern and S only on the
play counts (r, s) and the two win probabilities. A second, independent
expression reaches the same number through per-coup futurity-award rates.

Sign convention: all profits here are casino profit per coup, nonnegative,
and zero exactly when the two arms share one win probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BlockCountTooSmall, DomainError
from .strategy import BlockVector, Strategy, block_vector, canonical_rotation


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma!r}")
    return gamma


def _check_probability(name: str, p: float) -> float:
    p = float(p)
    # q == 1.0 would zero the geometric denominators, so p must stay above
    # double-precision resolution of 1 - p as well as strictly inside (0, 1).
    if not 0.0 < p < 1.0 or 1.0 - p >= 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {p!r}")
    return p


@dataclass(frozen=True)
class ArmProbabilities:
    """Win probabilities of arms A and B, both strictly inside (0, 1)."""

    p_a: float
    p_b: float

    def __post_init__(self):
        object.__setattr__(self, "p_a", _check_probability("p_a", self.p_a))
        object.__setattr__(self, "p_b", _check_probability("p_b", self.p_b))

    @property
    def q_a(self) -> float:
        return 1.0 - self.p_a

    @property
    def q_b(self) -> float:
        return 1.0 - self.p_b

    def swapped(self) -> "ArmProbabilities":
        return ArmProbabilities(self.p_b, self.p_a)


@dataclass(frozen=True)
class ProfitReport:
    """Factorized closed-form profit of one pattern at one probability pair."""

    profit: float
    q_factor: float
    s_factor: float
    h: int
    r: int
    s: int


def fair_payout(p: float) -> float:
    """Win payout that makes a single arm break even in the long run.

    With win probability p the payout is (3 - 2p)/(2 - p) coins per winning
    coup; the player's expected receipts per coup (payout plus futurity
    refunds) then equal the 1-coin stake exactly. Lies in (1, 1.5).
    """
    p = _check_probability("p", p)
    return (3.0 - 2.0 * p) / (2.0 - p)


def single_arm_futurity_rate(p: float) -> float:
    """Per-coup probability of a futurity award when one arm is played alone.

    Equals q^2/(1 + q) with q = 1 - p: the stationary chance that the current
    coup completes a pair of consecutive losses. Lies in (0, 1/2).
    """
    return futurity_refund_per_coup(1.0 - _check_probability("p", p)) / 2.0


def b_sequence(blocks: BlockVector, probs: ArmProbabilities) -> tuple[float, ...]:
    """Signed loss-run weights of a block vector, one period (2h entries).

    Entry i is (-q)^a_i with q the loss probability of the arm the run plays,
    so runs of odd length carry a negative sign.
    """
    q = (probs.q_a, probs.q_b)
    return tuple((-q[i % 2]) ** length for i, length in enumerate(blocks.a))


def _period_gap(r: int, s: int, probs: ArmProbabilities) -> float:
    """1 - P, P = prod(b) = (-1)^(r+s) q_a^r q_b^s; expm1/log1p if r+s is even."""
    if (r + s) % 2:
        return 1.0 + probs.q_a**r * probs.q_b**s
    return -math.expm1(r * math.log1p(-probs.p_a) + s * math.log1p(-probs.p_b))


def _alternating(values, total: float) -> float:
    """total + sum_{j>=1} (-1)^j * prod(values[:j]), adding the terms in order."""
    window = 1.0
    sign = -1.0
    for value in values:
        window *= value
        total += sign * window
        sign = -sign
    return total


def q_factor(blocks: BlockVector, probs: ArmProbabilities) -> float:
    """Structural profit factor of a block vector.

    With b = b_sequence(blocks) indexed cyclically and P = prod(b),

        Q = h + sum_{m=1..2h} sum_{j=1..2h-1} (-1)^j prod_{i=m..m+j-1} b_i + h*P
          = h*(1 - P) + sum_m W_m,   W_m = sum_{j=1..2h} (-1)^j prod_{i=m..m+j-1} b_i

    W_1 is summed directly; W_m = -b_m*((1 - P) + W_{m+1}) gives the rest
    backwards around the cycle, O(h). Strictly positive for every valid
    block vector and probability pair.
    """
    b = b_sequence(blocks, probs)
    gap = _period_gap(blocks.r, blocks.s, probs)
    w = _alternating(b, 0.0)
    total = blocks.h * gap + w
    for b_m in b[:0:-1]:
        w = -b_m * (gap + w)
        total += w
    return total


def s_factor(r: int, s: int, probs: ArmProbabilities) -> float:
    """Parametric profit factor for r A-plays and s B-plays per period.

    S = (p_a - p_b)^2 / ((r+s) (2-p_a)^2 (2-p_b)^2 (1 - P)), P as in q_factor,
    zero exactly when the arms share one win probability.
    """
    if r < 1 or s < 1:
        raise DomainError(f"play counts must be >= 1, got r={r}, s={s}")
    p_a, p_b = probs.p_a, probs.p_b
    return (p_a - p_b) ** 2 / (
        (r + s) * (2.0 - p_a) ** 2 * (2.0 - p_b) ** 2 * _period_gap(r, s, probs)
    )


def exact_profit(strategy: Strategy, probs: ArmProbabilities) -> ProfitReport:
    """Casino profit per coup for a periodic pattern, via the 2*Q*S form.

    The pattern is canonicalized internally, so any rotation of the same
    cycle yields an identical report.
    """
    blocks = block_vector(canonical_rotation(strategy))
    q = q_factor(blocks, probs)
    s = s_factor(blocks.r, blocks.s, probs)
    return ProfitReport(
        profit=2.0 * q * s,
        q_factor=q,
        s_factor=s,
        h=blocks.h,
        r=blocks.r,
        s=blocks.s,
    )


def ars_profit(r: int, s: int, probs: ArmProbabilities) -> float:
    """Profit of the single-block pattern A^r B^s.

    Special case 2*S*(1 - (-q_a)^r)*(1 - (-q_b)^s), equal to exact_profit of
    the same pattern.
    """
    return (
        2.0
        * s_factor(r, s, probs)
        * (1.0 - (-probs.q_a) ** r)
        * (1.0 - (-probs.q_b) ** s)
    )


def futurity_rate_strategy(strategy: Strategy, probs: ArmProbabilities) -> float:
    """Per-coup futurity-award rate of a periodic pattern.

    With p_i / q_i the win / loss probability of the arm at cyclic position
    i, the rate is (1/n) * sum_j p_j * V_j, where

        V_j = sum_{k>=1} prod_{i=j+1..j+2k} q_i = q_{j+1} q_{j+2} (1 + V_{j+2}).

    The n-step walks j -> j+2 from positions 0 and 1 close with product G^2,
    G = q_a^r q_b^s, and together visit every position twice. A lap of the
    recurrence from V = 0 gives a walk's start V times 1 - G^2; a second lap
    gives each V_j on the walk. O(n); rotation invariant.
    """
    p_seq = [probs.p_a if ch == "A" else probs.p_b for ch in strategy.symbols]
    q_seq = [1.0 - p for p in p_seq]
    n = len(p_seq)
    lap_gap = _period_gap(2 * strategy.r, 2 * strategy.s, probs)
    total = 0.0
    for start in (0, 1):
        walk = [j % n for j in range(start + 2 * n - 2, start - 1, -2)]
        steps = [q_seq[(j + 1) % n] * q_seq[(j + 2) % n] for j in walk]
        v = 0.0
        for step in steps:
            v = step * (1.0 + v)
        v /= lap_gap
        for j, step in zip(walk, steps):
            v = step * (1.0 + v)
            total += p_seq[j] * v
    return total / (2 * n)


def profit_via_rates(strategy: Strategy, probs: ArmProbabilities) -> float:
    """Casino profit per coup derived from futurity-award rates.

    With fair-calibrated arms the profit is twice the gap between the
    play-weighted single-arm award rates and the pattern's award rate:

        2 * ( (r/n) * rate_A + (s/n) * rate_B - rate_pattern )

    The two expressions share no code path beyond input validation. This one
    differences O(1) rates, so its relative error grows as the profit
    shrinks: AB at (p_a, p_b) = (1e-7, 2e-7) is 2% off exact_profit.
    """
    n = strategy.n
    weighted = (
        strategy.r * single_arm_futurity_rate(probs.p_a)
        + strategy.s * single_arm_futurity_rate(probs.p_b)
    ) / n
    return 2.0 * (weighted - futurity_rate_strategy(strategy, probs))


def block_swap_delta(blocks: BlockVector, probs: ArmProbabilities) -> float:
    """Profit change from exchanging the trailing A-run and B-run.

    For a pattern with block vector (r1, s1, ..., rh, sh), h >= 2, returns
    profit(D) - profit(D') where D' ends ... B^sh A^rh instead. Evaluated as

        2*S*(1 - b_{2h-1})*(1 - b_{2h}) * (
            sum_{j=0..2h-3} (-1)^j prod_{i=1..j} b_i
          + sum_{j=1..2h-2} (-1)^j prod_{i=1..j} b_{2h-1-i} )

    with S and b taken from D's own block vector.
    """
    h = blocks.h
    if h < 2:
        raise BlockCountTooSmall("block swap delta needs at least two block pairs (h >= 2)")
    b = b_sequence(blocks, probs)
    s_val = s_factor(blocks.r, blocks.s, probs)

    forward = _alternating(b[: 2 * h - 3], 1.0)  # 1.0 is the j = 0 empty product
    backward = _alternating(b[2 * h - 3 :: -1], 0.0)
    return 2.0 * s_val * (1.0 - b[2 * h - 2]) * (1.0 - b[2 * h - 1]) * (forward + backward)


def futurity_refund_per_coup(loss_probability: float) -> float:
    """Expected futurity coins refunded per coup for i.i.d. losses.

    Equals 2*z^2/(1 + z) at per-coup loss probability z: the award rate
    z^2/(1 + z) times the 2-coin refund. Convex in z, which is what makes
    mixing two individually fair arms profitable for the casino.
    """
    z = float(loss_probability)
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"loss probability must lie in [0, 1], got {z!r}")
    return 2.0 * z * z / (1.0 + z)


def random_mix_profit(gamma: float, probs: ArmProbabilities) -> float:
    """Casino profit per coup when each coup picks arm A with probability gamma.

    Independent draws make the loss sequence i.i.d. with loss probability
    q_mix = gamma*q_a + (1-gamma)*q_b, so the profit is the Jensen gap of the
    convex refund function f(z) = 2z^2/(1+z):

        gamma*f(q_a) + (1-gamma)*f(q_b) - f(q_mix)

    Nonnegative; zero when gamma is 0 or 1 or the arms coincide.
    """
    gamma = _check_gamma(gamma)
    q_mix = gamma * probs.q_a + (1.0 - gamma) * probs.q_b
    return (
        gamma * futurity_refund_per_coup(probs.q_a)
        + (1.0 - gamma) * futurity_refund_per_coup(probs.q_b)
        - futurity_refund_per_coup(q_mix)
    )
