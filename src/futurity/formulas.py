"""Closed-form long-run profit of the two-armed Futurity machine.

The closed forms assume the standard setting: stake 1 coin per coup,
futurity threshold J = 2, and both arms individually fairness-calibrated so
a single arm played alone returns the stake exactly. Under those rules the
casino's asymptotic profit per coup for a periodic pattern factorizes as

    profit = 2 * Q * S

where Q depends only on the block structure of the pattern and S only on the
play counts (r, s) and the two win probabilities. A second, independent
expression reaches the same number through per-coup futurity-award rates,
which _award_rate gives for any cyclic win-probability sequence and any J.

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


def _lap_gap(p_seq, laps: int) -> float:
    """1 - G^laps, G = prod(1 - p); -expm1(laps * sum(log1p(-p))), or 1 if some p is 1."""
    return 1.0 if 1.0 in p_seq else -math.expm1(laps * sum(math.log1p(-p) for p in p_seq))


def _award_rate(p_seq, j: int) -> float:
    """Per-coup futurity-award rate of a cyclic sequence of win probabilities.

    A win at i pays an award at each J-th loss after it, so the rate is
    (1/n) * sum_i p_i * V_i with V_i = prod_{k=i+1..i+J} q_k * (1 + V_{i+J}).
    The walk i -> i - J runs along the g = gcd(n, J) residue classes, each
    closing after n/g steps with product G^(J/g), G = prod(q). U = d * V,
    with d the lap gap 1 - G^(J/g), obeys the recurrence with d for 1: a lap
    of V from 0 gives a class's start U, a second lap each U_i, finite even
    where d is subnormal. O(n*J). All p = 0 gives d = 0 and an award every J
    coups: 1/J. A profit built on this rate subtracts O(1) rates, so it is an
    absolute cross-check, not relatively accurate when the profit is small.
    """
    n = len(p_seq)
    g = math.gcd(n, j)
    gap = _lap_gap(p_seq, j // g)
    if not gap:
        return 1.0 / j
    q_seq = [1.0 - p for p in p_seq]
    steps = [1.0] * n  # steps[i] = q_{i+1} * ... * q_{i+J}, one rotated pass per k
    for k in range(1, j + 1):
        shift = k % n
        steps = [step * q for step, q in zip(steps, q_seq[shift:] + q_seq[:shift])]
    total = 0.0
    for start in range(g):
        walk = [(start + k * j) % n for k in range(n // g - 1, -1, -1)]
        u = 0.0
        for i in walk:
            u = steps[i] * (1.0 + u)
        for i in walk:
            u = steps[i] * (gap + u)
            total += p_seq[i] * u
    return total / (n * gap)


def futurity_rate_strategy(strategy: Strategy, probs: ArmProbabilities) -> float:
    """Per-coup futurity-award rate of a periodic pattern at J = 2; see _award_rate."""
    return _award_rate([probs.p_a if ch == "A" else probs.p_b for ch in strategy.symbols], 2)


def profit_via_rates(strategy: Strategy, probs: ArmProbabilities) -> float:
    """Casino profit per coup derived from futurity-award rates.

    With fair-calibrated arms the profit is twice the gap between the
    play-weighted single-arm award rates and the pattern's award rate:

        2 * ( (r/n) * rate_A + (s/n) * rate_B - rate_pattern )

    where an arm played alone has rate q^2/(1 + q), q = 1 - p. The two
    expressions share no code path beyond input validation. This one
    differences O(1) rates, so its relative error grows as the profit
    shrinks: AB is 1.4e-8 relative off exact_profit at (p_a, p_b) =
    (1e-7, 2e-7) and 8.1e-7 at (1e-9, 3e-9).
    """
    n = strategy.n
    weighted = (
        strategy.r * _award_rate([probs.p_a], 2)
        + strategy.s * _award_rate([probs.p_b], 2)
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
    last_a, last_b = _period_gap(blocks.a[-2], 0, probs), _period_gap(0, blocks.a[-1], probs)
    return 2.0 * s_val * last_a * last_b * (forward + backward)


def random_mix_profit(gamma: float, probs: ArmProbabilities) -> float:
    """Casino profit per coup when each coup picks arm A with probability gamma.

    Independent draws make the outcomes i.i.d. with win probability
    p_mix = gamma*p_a + (1-gamma)*p_b. A fair arm returns p*u + 2*rate = 1,
    so the profit is twice the Jensen gap of the convex single-arm rate:

        2 * (gamma*rate(p_a) + (1-gamma)*rate(p_b) - rate(p_mix))

    Nonnegative in exact arithmetic, and exactly zero when gamma is 0 or 1
    or the arms coincide. The difference of O(1) rates rounds, so arms a
    hair apart can return a few ulps below zero: -3 * eps at worst on
    20000 draws with |p_a - p_b| <= 1e-6.
    """
    gamma = _check_gamma(gamma)
    if probs.p_a == probs.p_b:
        return 0.0
    p_mix = gamma * probs.p_a + (1.0 - gamma) * probs.p_b
    return 2.0 * (
        gamma * _award_rate([probs.p_a], 2)
        + (1.0 - gamma) * _award_rate([probs.p_b], 2)
        - _award_rate([p_mix], 2)
    )
