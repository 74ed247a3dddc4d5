"""Exception taxonomy shared across the toolkit.

Four failure classes map onto the CLI exit codes: bad input
(DomainError, ConfigError: 2), precision/convergence trouble
(PrecisionError and its BracketError and InconsistencyError: 3), and
resource caps (ResourceError: 4).  Everything derives from ToolkitError
so library users can catch broadly.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-raised errors."""


class DomainError(ToolkitError):
    """Mathematically invalid input (point outside [0,1], bad weights...)."""


class ConfigError(ToolkitError):
    """Invalid configuration: inconsistent options, caps set too low."""


class ResourceError(ToolkitError):
    """A configured memory/size cap would be exceeded."""


class PrecisionError(ToolkitError):
    """Requested accuracy is not certifiable with the current settings."""


class BracketError(PrecisionError):
    """Root scan could not certify a sign change below the scan ceiling."""

    def __init__(self, message: str, found: int = 0):
        super().__init__(message)
        self.found = found


class InconsistencyError(PrecisionError):
    """Two quantities that must agree (per a proven identity) do not."""
