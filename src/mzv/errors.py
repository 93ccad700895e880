"""Exception types shared across the package, and the boundary rule for
integer arguments."""


class DomainError(ValueError):
    """Arguments outside the convergence/validity region of an operation."""


class PrecisionError(ArithmeticError):
    """The accumulated error bound exceeds the precision contract."""


class NotReducible(ValueError):
    """No exact closed form is available within the supported reduction scope."""


class ReductionError(RuntimeError):
    """A closed-form table entry failed its numeric check at insertion."""


class ParseError(ValueError):
    """Corpus DSL syntax error, carrying line/column information."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = f" (line {line}" + (f", col {col})" if col is not None else ")") if line else ""
        super().__init__(message + loc)


class ArityError(ParseError):
    """Wrong number of arguments in a DSL call."""


class UnboundSymbol(ParseError):
    """A symbol used in a DSL expression is not bound by its identity."""


def require_ints(call: str, **args) -> None:
    """DomainError naming `call` and the first of its arguments (name=value)
    that is not an int.  A bool is refused too: True would pass as 1."""
    for name, value in args.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{call} needs an integer {name}, got {value!r}")
