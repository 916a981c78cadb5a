"""Exact stationary analysis of the Futurity machine as a Markov chain.

State is (cycle position, consecutive-loss streak in {0, ..., J-1}). A win
resets the streak, a loss advances it, and the J-th loss in a row pays the
J-coin futurity award and resets it. Position advances cyclically every coup.

The default solver follows the deterministic position cycle. Over one period
the streak distribution obeys an affine map; its fixed point, the start
vector, is solved in closed form over the period gap 1 - G^(J/g), with G the
product of the loss probabilities and g = gcd(n, J). The gap is 0 only when
every coup loses, and the start vector is then the walk from streak 0. One
forward pass gives every position, O(n*J) for up to MAX_CHAIN_STATES states.
The dense transition-matrix route (build_chain / stationary) cross-validates
it at small sizes.

Chain sequences may use a single arm, and win probabilities of exactly 0 or
1 are legal; unreachable states carry stationary mass zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, SolverFailure
from .formulas import ArmProbabilities, _award_rate, _check_gamma, _lap_gap, fair_payout
from .machines import ArmModel, MultipointDistribution, TwoPointArm, expected_payout, win_probability
from .strategy import MAX_PATTERN_LENGTH, Strategy

#: Largest state count the dense matrix route accepts.
DENSE_STATE_LIMIT = 2000

#: Largest state count n*J oracle_profit accepts: every valid pattern at J = 2.
MAX_CHAIN_STATES = 2 * MAX_PATTERN_LENGTH

STATIONARY_RESIDUAL_TOL = 1e-12

# Largest futurity threshold: the simulator's award pass and segment merge
# hold J, and sums of J with coup counts, in int64.
_MAX_THRESHOLD = 2**62


def _check_threshold(j) -> int:
    """The futurity threshold J as an int; it must be an integer in [2, 2**62]."""
    if not (isinstance(j, numbers.Real) and math.isfinite(j) and int(j) == j and 2 <= j <= _MAX_THRESHOLD):
        raise DomainError(f"futurity threshold must be an integer in [2, 2**62], got {j!r}")
    return int(j)


@dataclass(frozen=True)
class ChainSpec:
    """An arm sequence, the arms' payoff models, and the futurity threshold."""

    sequence: tuple[str, ...]
    arms: Mapping[str, ArmModel]
    j: int = 2

    def __post_init__(self):
        if not self.sequence:
            raise DomainError("chain sequence is empty")
        object.__setattr__(self, "j", _check_threshold(self.j))
        labels = sorted(set(self.sequence))
        missing = [label for label in labels if label not in self.arms]
        if missing:
            raise DomainError(f"sequence uses arms with no payoff model: {missing}")
        for label in labels:
            if not isinstance(self.arms[label], (TwoPointArm, MultipointDistribution)):
                raise DomainError(f"arm {label!r} is a {type(self.arms[label]).__name__}, not an arm model")

    @property
    def n(self) -> int:
        return len(self.sequence)

    def win_probabilities(self) -> list[float]:
        return [win_probability(self.arms[label]) for label in self.sequence]

    def expected_payouts(self) -> list[float]:
        return [expected_payout(self.arms[label]) for label in self.sequence]


@dataclass(frozen=True)
class ChainSolution:
    """Stationary distribution and the per-coup rates derived from it.

    `stationary` is indexed by position*J + streak, matching build_chain's
    state order. `futurity_rate` is the per-coup probability of an award;
    `casino_profit` is the 1-coin stake minus player_return.
    """

    stationary: np.ndarray
    futurity_rate: float
    casino_profit: float
    player_return: float
    residual: float


def fair_chain(strategy: Strategy, probs: ArmProbabilities, j: int = 2) -> ChainSpec:
    """Two-armed chain with both arms fairness-calibrated at the given probabilities."""
    return ChainSpec(
        sequence=strategy.symbols,
        arms={
            "A": TwoPointArm(probs.p_a, fair_payout(probs.p_a)),
            "B": TwoPointArm(probs.p_b, fair_payout(probs.p_b)),
        },
        j=j,
    )


def single_arm_chain(p: float, u: float | None = None, j: int = 2) -> ChainSpec:
    """One-arm chain; payout defaults to the fairness-calibrated value."""
    if u is None:
        u = fair_payout(p)
    return ChainSpec(sequence=("A",), arms={"A": TwoPointArm(p, u)}, j=j)


def build_chain(spec: ChainSpec) -> np.ndarray:
    """Dense row-stochastic transition matrix over the n*J states."""
    n, j = spec.n, spec.j
    size = n * j
    if size > DENSE_STATE_LIMIT:
        raise DomainError(
            f"dense chain would have {size} states (limit {DENSE_STATE_LIMIT}); "
            "use oracle_profit, which solves the chain without the matrix"
        )
    p_seq = spec.win_probabilities()
    matrix = np.zeros((size, size))
    for i in range(n):
        p = p_seq[i]
        nxt = ((i + 1) % n) * j
        for c in range(j):
            state = i * j + c
            matrix[state, nxt] += p
            if c < j - 1:
                matrix[state, nxt + c + 1] += 1.0 - p
            else:
                matrix[state, nxt] += 1.0 - p  # award paid, streak resets
    return matrix


def _reachable_states(matrix: np.ndarray, start: int) -> list[int]:
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        for target in np.nonzero(matrix[state])[0]:
            t = int(target)
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sorted(seen)


def stationary(matrix: np.ndarray) -> np.ndarray:
    """Stationary distribution of a dense chain started in state 0.

    Solves pi @ P = pi with sum(pi) = 1 restricted to the states reachable
    from state 0 (position 1, streak 0); unreachable states get mass zero.
    Raises SolverFailure if the residual exceeds the 1e-12 tolerance.
    """
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise DomainError("transition matrix must be square")
    reachable = _reachable_states(matrix, 0)
    sub = matrix[np.ix_(reachable, reachable)]
    m = len(reachable)
    system = np.vstack([sub.T - np.eye(m), np.ones((1, m))])
    rhs = np.zeros(m + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    pi = np.zeros(size)
    pi[reachable] = solution
    residual = float(np.max(np.abs(pi @ matrix - pi)))
    if residual > STATIONARY_RESIDUAL_TOL or float(pi.min()) < -1e-12:
        raise SolverFailure("stationary solve did not converge", residual)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _streak_distributions(p_seq: list[float], j: int) -> tuple[list[list[float]], float]:
    """Streak distribution at the start of every position, plus the residual.

    One coup maps the streak distribution w at position i to
        w'(0) = p_i + q_i * w(J-1),   w'(c) = q_i * w(c-1)
    which is affine with linear part q_i * (index shift). Over one period the
    linear part is G * (shift by n mod J), so the fixed point splits into
    scalar recurrences along the residue classes modulo g, each of length
    L = J/g. A class's start value is its accumulated constant over the gap
    1 - G^L (_lap_gap). A zero gap means every p_i is 0: the start vector is
    then g/J on the streaks c = 0 (mod g). The forward pass back to position
    0 is the check.
    """
    n = len(p_seq)
    q_seq = [1.0 - p for p in p_seq]
    loss_product = math.prod(q_seq)
    g = math.gcd(n, j)
    length = j // g
    gap = _lap_gap(p_seq, length)

    def advance(w: list[float], i: int) -> list[float]:
        q, p = q_seq[i], p_seq[i]
        return [p + q * w[j - 1]] + [q * w[c] for c in range(j - 1)]

    # Affine constant of the one-period map: image of the zero vector.
    zero_image = [0.0] * j
    for i in range(n):
        zero_image = advance(zero_image, i)

    # Fixed point: w(c) = G * w((c - n) mod J) + d(c), solved cycle by cycle.
    w0 = [0.0] * j
    for start in range(g):
        cycle = [(start - k * n) % j for k in range(length)]
        acc = 0.0
        power = 1.0
        for c in cycle:
            acc += power * zero_image[c]
            power *= loss_product
        w0[cycle[0]] = acc / gap if gap else (start == 0) * g / j
        for idx in range(length - 1, 0, -1):
            w0[cycle[idx]] = loss_product * w0[cycle[(idx + 1) % length]] + zero_image[cycle[idx]]

    dists = [w0]
    for i in range(n):
        dists.append(advance(dists[-1], i))
    closure = dists.pop()
    residual = max(abs(a - b) for a, b in zip(closure, w0))
    if residual > STATIONARY_RESIDUAL_TOL:
        raise SolverFailure("streak recurrence did not close over one period", residual)
    return dists, residual


def _checked_size(spec: ChainSpec) -> tuple[int, int]:
    """(n, J) of a chain of at most MAX_CHAIN_STATES states; larger ones are refused."""
    if spec.n * spec.j > MAX_CHAIN_STATES:
        raise DomainError(f"chain would have {spec.n * spec.j} states, above the cap of {MAX_CHAIN_STATES}")
    return spec.n, spec.j


def oracle_profit(spec: ChainSpec, method: str = "recurrence") -> ChainSolution:
    """Exact per-coup futurity rate and casino profit of a chain.

    method "recurrence" (default) solves the position recurrence, "dense" the
    full transition matrix (up to DENSE_STATE_LIMIT states). Both give each
    position's streak distribution, from which the award rate and the
    player's return are derived once; they agree well below the 1e-12
    residual tolerance. Chains above MAX_CHAIN_STATES states are refused.
    """
    n, j = _checked_size(spec)
    p_seq = spec.win_probabilities()

    if method == "dense":
        matrix = build_chain(spec)
        pi = stationary(matrix)
        residual = float(np.max(np.abs(pi @ matrix - pi)))
        rows = n * pi.reshape(n, j)
    elif method == "recurrence":
        rows, residual = _streak_distributions(p_seq, j)
        pi = np.array(rows).ravel() / n
    else:
        raise DomainError(f"unknown solver method {method!r}")

    # Every position holds 1/n of the mass; an award is the J-th loss in a row.
    rate = float(sum((1.0 - p) * row[j - 1] for p, row in zip(p_seq, rows)) / n)
    player_return = sum(e * (1.0 / n) for e in spec.expected_payouts()) + j * rate
    return ChainSolution(
        stationary=pi,
        futurity_rate=rate,
        casino_profit=1.0 - player_return,
        player_return=player_return,
        residual=residual,
    )


def rate_profit(spec: ChainSpec) -> float:
    """Casino profit per coup via the award rate: 1 - mean payout - J*rate.

    A check of oracle_profit that shares no solver with it, to an absolute
    error of a few n*J*eps (see _award_rate). Refuses what oracle_profit does.
    """
    n, j = _checked_size(spec)
    mean_payout = sum(e * (1.0 / n) for e in spec.expected_payouts())
    return 1.0 - (mean_payout + j * _award_rate(spec.win_probabilities(), j))


def mixture_chain(gamma: float, probs: ArmProbabilities, j: int = 2) -> ChainSpec:
    """Single-arm chain equivalent to i.i.d. arm choice (A with prob gamma).

    Independent per-coup choice makes outcomes i.i.d., so each coup is one
    draw from a three-point arm: A's fair payout with probability gamma *
    p_a, B's with (1 - gamma) * p_b, and 0 otherwise. Equal payouts share
    one entry. The simulator plays this chain as a one-position pattern,
    one PCG64 word per coup.
    """
    gamma = _check_gamma(gamma)
    wins: dict[float, float] = {}
    for p, share in ((probs.p_a, gamma), (probs.p_b, 1.0 - gamma)):
        payout = fair_payout(p)
        wins[payout] = wins.get(payout, 0.0) + share * p
    arm = MultipointDistribution((*wins.items(), (0.0, 1.0 - sum(wins.values()))))
    return ChainSpec(sequence=("M",), arms={"M": arm}, j=j)
