"""Shared exception types, and the integer rule every JSON reader applies."""


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


def json_int64(error: type[ValueError]):
    """A ``parse_int`` for the ``json`` module: an integer literal outside
    [-2**63, 2**63) raises ``error``.  Its digits are counted before it is
    converted, so a literal too long for Python's ``int`` is refused too."""
    def parse(text: str) -> int:
        digits = len(text.lstrip("-"))
        if digits <= 19:  # 2**63 has 19 digits
            value = int(text)
            if -2 ** 63 <= value < 2 ** 63:
                return value
        shown = text if digits <= 24 else f"{text[:20]}... ({digits} digits)"
        raise error(f"integer literal {shown} is outside 64 bits")
    return parse
