"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: configuration and structural problems
exit with 2, numerical failures with 3, and I/O failures (plain OSError)
with 4.
"""

import sys
import warnings


class SpeakerGraphError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SpeakerGraphError):
    """A parameter or rule is invalid or inapplicable (e.g. k > n-1)."""


class StructuralError(SpeakerGraphError):
    """Input data violates a structural contract (shapes, ids, partitions)."""


class NumericalError(SpeakerGraphError):
    """A numerical procedure failed or produced non-finite values."""


class DegeneracyWarning(UserWarning):
    """Degenerate data was handled by a documented guard (clamps, zero norms)."""


def _warn_degeneracy(message: str) -> None:
    """Warn with DegeneracyWarning, naming the first caller outside the
    speakergraph package."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__", "").partition(".")[0] == "speakergraph":
        level, frame = level + 1, frame.f_back
    warnings.warn(message, DegeneracyWarning, stacklevel=level)
