"""Exception types shared across the package."""


class QtiltError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(QtiltError):
    """Operands live over different coefficient fields."""


class ShapeMismatchError(QtiltError):
    """Matrix shapes are incompatible with the requested operation."""


class NotAdmissibleError(QtiltError):
    """The relation ideal fails the nilpotency bound, so the quotient is not
    finite dimensional within the configured degree limit."""


class UnsupportedCharacteristicError(QtiltError):
    """Operation needs characteristic zero (trace-form radicals, splitting)."""


class NonSplitError(QtiltError):
    """A semisimple quotient did not split into copies of the base field."""


class UndecidedIsomorphismError(QtiltError):
    """The isomorphism search exhausted its budget without a certificate
    either way; never silently reported as False."""


class InconclusiveError(QtiltError):
    """A homological computation was truncated before it could decide."""


class AlgebraMismatchError(QtiltError):
    """Modules or maps over different algebras were combined."""


class ParseError(QtiltError):
    """Syntax or consistency error in an input file; the message leads
    with its position (``line 5: ...``, ``line 5, col 1: ...``)."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class WorkspaceError(QtiltError):
    """Name clashes or dangling references among loaded algebras/modules."""
