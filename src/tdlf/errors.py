"""Exception hierarchy shared by the whole package."""

from __future__ import annotations


class TdlfError(Exception):
    """Base class for all errors raised by this package."""


class UndefinedInfiniteSum(TdlfError, ArithmeticError):
    """Raised when (+inf) + (-inf) is requested of extended integers."""


class IncompatiblePrimes(TdlfError):
    """Operands live over different residue characteristics."""


class KindMismatch(TdlfError):
    """Equal-characteristic and mixed-characteristic objects were mixed."""


class PrecisionExhausted(TdlfError):
    """The stored precision cannot certify the requested result."""


class NonAdmissibleSequence(TdlfError):
    """A sequence fails the admissibility conditions for its field kind."""


class NonRepresentableTail(TdlfError):
    """A computed sequence has no constant/affine tail presentation."""


class NonConvergentValues(TdlfError):
    """Functional values do not assemble into a field element."""


class NotCompactoid(TdlfError):
    """Operation requires a compactoid submodule."""


class NotBounded(TdlfError):
    """Operation requires a bounded submodule."""


class ZeroElement(TdlfError):
    """Operation is undefined on the zero element."""


class UnknownName(TdlfError):
    """No built-in submodule is registered under this name."""


class WindowInsufficient(TdlfError):
    """Brute-force window is too small to certify the result."""


class ParseError(TdlfError):
    """Malformed input; carries the line and column of text input, if any."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
