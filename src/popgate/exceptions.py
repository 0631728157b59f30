"""Error types shared across the package, mapped to distinct CLI exit codes."""


class PopgateError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigError(PopgateError):
    """Malformed or incomplete run configuration."""

    exit_code = 3


class MissingInputError(PopgateError):
    """A named input file, directory or checkpoint array does not exist."""

    exit_code = 2


class ShapeError(PopgateError):
    """Dimension mismatch between data and a model or schema."""

    exit_code = 4
