"""Exception types shared across the package."""


class IceemdError(Exception):
    """Base class for all package errors."""


class InvalidSignalError(IceemdError):
    """Input signal violates a precondition (too short, non-finite, ...)."""


class NotEnoughExtremaError(IceemdError):
    """Too few extrema to build envelopes; signals sifting termination."""


class InvalidConfigError(IceemdError, ValueError):
    """A configuration value is out of its valid range."""


class SignalFormatError(IceemdError):
    """A signal or decomposition file does not match the expected format."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
