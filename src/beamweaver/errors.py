"""Shared exception types."""


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class SingularMatrixError(ValueError):
    """A matrix expected to be Hermitian positive definite is not."""


class FormatError(ValueError):
    """A binary or text artifact does not match its declared format."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


class DivergenceError(ArithmeticError):
    """Training or evaluation produced a non-finite quantity."""
