"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: configuration and structural problems
exit with 2, numerical failures with 3, and I/O failures (plain OSError)
with 4.
"""

import sys
import warnings
from contextvars import ContextVar


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


_WARNING_PREFIX: ContextVar[str] = ContextVar("speakergraph_warning_prefix", default="")
_WARNING_SITE: ContextVar = ContextVar("speakergraph_warning_site", default=None)


def _warn_degeneracy(message: str) -> None:
    """Warn with DegeneracyWarning, after _WARNING_PREFIX (the household and
    spec that evaluate names), as warnings.warn would at the first caller
    outside the package from _WARNING_SITE (the frame that graph._joined
    gives a task on a pool thread, whose stack lacks that caller) or here."""
    frame = _WARNING_SITE.get() or sys._getframe(1)
    while frame.f_globals.get("__name__", "").partition(".")[0] == "speakergraph":
        frame = frame.f_back
    names = frame.f_globals
    warnings.warn_explicit(_WARNING_PREFIX.get() + message, DegeneracyWarning,
                           frame.f_code.co_filename, frame.f_lineno,
                           names.get("__name__", "<string>"),
                           names.setdefault("__warningregistry__", {}))
