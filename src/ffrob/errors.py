"""Exception types shared across the package."""


class FFrobError(Exception):
    """Base class for all package errors."""


class RingMismatchError(FFrobError):
    """Operands live in different rings or use different monomial orders."""


class ExponentOverflowError(FFrobError):
    """A monomial exponent would exceed the 2^32 budget."""


class PoolSizeError(FFrobError):
    """A monomial pool would hold more than POOL_LIMIT monomials."""


class UnsupportedOperationError(FFrobError):
    """The requested operation is not defined for this ring presentation."""


class ParseError(FFrobError):
    """Malformed polynomial or session text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
