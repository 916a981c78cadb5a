"""Exception hierarchy for the futurity package."""

from __future__ import annotations


class FuturityError(Exception):
    """Base class for all errors raised by this package."""


class StrategyError(FuturityError, ValueError):
    """A strategy pattern is malformed."""


class EmptyPattern(StrategyError):
    """The pattern text contained no symbols."""


class IllegalCharacter(StrategyError):
    """The pattern text contained a character outside {A, B}."""

    def __init__(self, char: str, position: int):
        self.char = char
        self.position = position
        super().__init__(f"illegal character {char!r} at position {position} (expected A or B)")


class MissingArm(StrategyError):
    """The pattern uses only one arm; both A and B are required."""


class PatternTooLong(StrategyError):
    """The pattern exceeds the supported length cap."""


class NotCanonical(StrategyError):
    """Block decomposition requires a pattern starting with an A-run and ending with a B-run."""


class BlockCountTooSmall(FuturityError, ValueError):
    """The operation needs at least two A-run/B-run block pairs."""


class DomainError(FuturityError, ValueError):
    """A numeric parameter is outside its valid domain."""


class InvalidDistribution(FuturityError, ValueError):
    """A payoff distribution violates its invariants."""


class DegenerateMode(FuturityError, ValueError):
    """A payoff mode wins always or never and cannot be fairness-calibrated."""


class SolverFailure(FuturityError, RuntimeError):
    """A numeric check missed its tolerance."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")
