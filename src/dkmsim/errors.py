"""Typed exceptions raised across the package, and the one way files are read.

Each error's message names what failed. The errors a caller acts on carry
more: ConfigError the offending key's path, AssumptionError the failing
report, DivergenceError the round, agent and partial trace.
"""

from __future__ import annotations

from pathlib import Path


class DkmsimError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(DkmsimError):
    """A vector, matrix, or partition has an incompatible shape."""


class NonFiniteError(DkmsimError):
    """An input contained NaN or infinity."""


class BlockIndexError(DkmsimError):
    """A block index is outside [0, num_blocks)."""

    def __init__(self, index: int, num_blocks: int):
        super().__init__(f"block index {index} out of range for {num_blocks} blocks")


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


def read_text(path, what: str) -> str:
    """The file at path as UTF-8 text; a file that cannot be read or is not UTF-8 is a ConfigError naming what."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}") from e
    except UnicodeDecodeError as e:
        byte = f"byte {e.object[e.start]:#04x} at offset {e.start}"
        raise ConfigError(f"cannot read {what}: {path} is not UTF-8 text ({byte})") from e
