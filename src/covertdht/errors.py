"""Semantic exception hierarchy shared by all covertdht modules."""

from __future__ import annotations


class CovertDhtError(Exception):
    """Base class for all library errors."""


class AlphabetMismatch(CovertDhtError):
    """Two objects refer to different alphabets."""


class SupportViolation(CovertDhtError):
    """Absolute-continuity requirement broken; the divergence is infinite."""


class DivisionBySupportZero(CovertDhtError):
    """Chi-squared denominator vanishes on a point where the numerator does not."""


class Infeasible(CovertDhtError):
    """The constraint set of an optimization is empty."""


class NoConvergence(CovertDhtError):
    """An iterative solver exhausted its iteration budget."""


class EmptyFeasibleSet(CovertDhtError):
    """An exponent minimization has no feasible point."""


class ConditionalUndefined(CovertDhtError):
    """A conditional pmf is needed at a conditioning value of probability zero."""


class InvalidChannel(CovertDhtError):
    """The channel fails the covert-communication admissibility conditions."""


class AlphabetTooLarge(CovertDhtError):
    """Exact type enumeration is not feasible at this alphabet size; use Monte Carlo."""


class ConfigMismatch(CovertDhtError):
    """A scheme configuration is inconsistent with the data it is applied to."""


class DegenerateInput(CovertDhtError):
    """Input data is degenerate for the requested fit (e.g. too few usable points)."""


class ConfigError(CovertDhtError):
    """An experiment configuration failed validation; the message names the field."""
