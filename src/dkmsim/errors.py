"""Typed exceptions raised across the package.

Every error carries enough structure for a caller (or the CLI) to report
what failed without parsing message strings.
"""

from __future__ import annotations


class DkmsimError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(DkmsimError):
    """A vector, matrix, or partition has an incompatible shape."""

    def __init__(self, message: str, expected=None, got=None):
        super().__init__(message)
        self.expected = expected
        self.got = got


class NonFiniteError(DkmsimError):
    """An input contained NaN or infinity."""


class BlockIndexError(DkmsimError):
    """A block index is outside [0, num_blocks)."""

    def __init__(self, index: int, num_blocks: int):
        super().__init__(f"block index {index} out of range for {num_blocks} blocks")
        self.index = index
        self.num_blocks = num_blocks


class ParameterError(DkmsimError):
    """A constructor parameter violates its documented constraint."""


class ConfigError(DkmsimError):
    """A config document failed schema validation.

    ``path`` locates the offending key, e.g. "run.selector.probabilities".
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class AssumptionError(DkmsimError):
    """A pre-run assumption check failed.

    ``report`` is the failing ValidationReport.
    """

    def __init__(self, report):
        super().__init__(f"assumption check failed: {report.summary()}")
        self.report = report


class DivergenceError(DkmsimError):
    """Iterate coordinates exceeded the divergence guard.

    ``last_round`` is the last round with finite, in-bound state, and
    ``last_states`` that (N, n) state; the step out of it took entry
    (``agent``, ``coordinate``) non-finite or past the limit. ``trace``
    holds everything recorded up to the abort.
    """

    def __init__(self, last_round: int, trace=None, agent=None, coordinate=None, last_states=None):
        where = "" if agent is None else f" at agent {agent}, coordinate {coordinate}"
        super().__init__(f"iteration diverged after round {last_round}{where}")
        self.last_round = last_round
        self.trace = trace
        self.agent = agent
        self.coordinate = coordinate
        self.last_states = last_states


class OracleError(DkmsimError):
    """A reference-solution oracle could not produce an answer."""
