"""Exact stationary analysis of the Futurity machine as a Markov chain.

State is (cycle position, consecutive-loss streak). The streak lives in
{0, ..., J-1}: a win resets it, a loss advances it, and the J-th consecutive
loss pays the J-coin futurity award and resets it. Position advances
cyclically through the arm sequence every coup.

Two independent solvers are provided. The default exploits the deterministic
position cycle: the streak distribution at each position obeys an affine
recurrence whose one-period fixed point can be solved in closed form, giving
an O(n*J) exact answer for chains of any size. A dense transition-matrix
route (build_chain / stationary) solves the full linear system and exists to
cross-validate the fast path at small sizes.

Unlike play strategies, chain sequences may use a single arm, and win
probabilities of exactly 0 or 1 are legal; unreachable states simply carry
stationary mass zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, SolverFailure
from .formulas import ArmProbabilities, _check_gamma, fair_payout
from .machines import ArmModel, TwoPointArm, expected_payout, win_probability
from .strategy import Strategy

#: Largest state count the dense matrix route accepts.
DENSE_STATE_LIMIT = 2000

STATIONARY_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """An arm sequence, the arms' payoff models, and the futurity threshold."""

    sequence: tuple[str, ...]
    arms: Mapping[str, ArmModel]
    j: int = 2

    def __post_init__(self):
        if not self.sequence:
            raise DomainError("chain sequence is empty")
        j = self.j
        if not (isinstance(j, numbers.Real) and math.isfinite(j) and int(j) == j >= 2):
            raise DomainError(f"futurity threshold must be an integer >= 2, got {j!r}")
        object.__setattr__(self, "j", int(j))
        missing = sorted(set(self.sequence) - set(self.arms))
        if missing:
            raise DomainError(f"sequence uses arms with no payoff model: {missing}")

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
    linear part collapses to G * (shift by n mod J) with G the product of all
    loss probabilities, so the fixed point splits into independent scalar
    recurrences along the cycles of that index permutation.
    """
    n = len(p_seq)
    q_seq = [1.0 - p for p in p_seq]
    loss_product = 1.0
    for q in q_seq:
        loss_product *= q

    g = math.gcd(n, j)
    if loss_product == 1.0:
        # Every coup loses: the walk from (position 0, streak 0) visits
        # (t mod n, t mod J) deterministically, so streaks at position i are
        # uniform over the residues congruent to i modulo g.
        dists = []
        for i in range(n):
            w = [g / j if c % g == i % g else 0.0 for c in range(j)]
            dists.append(w)
        return dists, 0.0

    def advance(w: list[float], i: int) -> list[float]:
        q, p = q_seq[i], p_seq[i]
        return [p + q * w[j - 1]] + [q * w[c] for c in range(j - 1)]

    # Affine constant of the one-period map: image of the zero vector.
    zero_image = [0.0] * j
    for i in range(n):
        zero_image = advance(zero_image, i)

    # Fixed point: w(c) = G * w((c - n) mod J) + d(c), solved cycle by cycle.
    # The cycles of c -> c - n (mod J) are the residue classes modulo g.
    length = j // g
    w0 = [0.0] * j
    for start in range(g):
        cycle = [(start - k * n) % j for k in range(length)]
        acc = 0.0
        power = 1.0
        for c in cycle:
            acc += power * zero_image[c]
            power *= loss_product
        w0[cycle[0]] = acc / (1.0 - loss_product**length)
        for idx in range(length - 1, 0, -1):
            successor = cycle[(idx + 1) % length]
            w0[cycle[idx]] = loss_product * w0[successor] + zero_image[cycle[idx]]

    dists = [list(w0)]
    w = list(w0)
    for i in range(n - 1):
        w = advance(w, i)
        dists.append(w)
    closure = advance(w, n - 1)
    residual = max(abs(a - b) for a, b in zip(closure, w0))
    if residual > STATIONARY_RESIDUAL_TOL:
        raise SolverFailure("streak recurrence did not close over one period", residual)
    return dists, residual


def oracle_profit(spec: ChainSpec, method: str = "recurrence") -> ChainSolution:
    """Exact per-coup futurity rate and casino profit of a chain.

    method "recurrence" (default) uses the closed-form position recurrence
    and scales to arbitrarily long sequences; "dense" assembles the full
    transition matrix and solves the linear system, limited to
    DENSE_STATE_LIMIT states. Both return identical numbers to well below
    the 1e-12 residual tolerance.
    """
    n, j = spec.n, spec.j
    p_seq = spec.win_probabilities()
    e_seq = spec.expected_payouts()

    if method == "dense":
        matrix = build_chain(spec)
        pi = stationary(matrix)
        rate = sum(pi[i * j + (j - 1)] * (1.0 - p_seq[i]) for i in range(n))
        position_mass = [float(pi[i * j : (i + 1) * j].sum()) for i in range(n)]
        residual = float(np.max(np.abs(pi @ matrix - pi)))
    elif method == "recurrence":
        dists, residual = _streak_distributions(p_seq, j)
        rate = sum((1.0 - p_seq[i]) * dists[i][j - 1] for i in range(n)) / n
        position_mass = [1.0 / n] * n
        pi = np.array([w[c] / n for w in dists for c in range(j)])
    else:
        raise DomainError(f"unknown solver method {method!r}")

    player_return = sum(mass * e for mass, e in zip(position_mass, e_seq)) + j * rate
    return ChainSolution(
        stationary=pi,
        futurity_rate=float(rate),
        casino_profit=1.0 - player_return,
        player_return=float(player_return),
        residual=residual,
    )


def mixture_chain(gamma: float, probs: ArmProbabilities, j: int = 2) -> ChainSpec:
    """Single-arm chain equivalent to i.i.d. arm choice (A with prob gamma).

    Independent per-coup choice makes outcomes i.i.d., so the mixture reduces
    to one arm whose win probability and expected payout are the gamma-blends
    of the two fair-calibrated arms.
    """
    gamma = _check_gamma(gamma)
    p_mix = gamma * probs.p_a + (1.0 - gamma) * probs.p_b
    blended_payout = gamma * probs.p_a * fair_payout(probs.p_a) + (1.0 - gamma) * probs.p_b * fair_payout(probs.p_b)
    u_mix = blended_payout / p_mix
    return ChainSpec(sequence=("M",), arms={"M": TwoPointArm(p_mix, u_mix)}, j=j)
