"""Exception types shared across the library."""


class QuadralabError(Exception):
    """Base class for all library-specific errors."""


class InvalidInput(QuadralabError, ValueError):
    """Input from outside the program that cannot be used; CLI exit 2."""


class ScalarParseError(InvalidInput):
    """Malformed scalar literal; carries the offending position."""

    def __init__(self, text, pos, reason):
        self.text = text
        self.pos = pos
        self.reason = reason
        super().__init__(f"cannot parse {text!r} at position {pos}: {reason}")


class NotInvertible(QuadralabError, ZeroDivisionError):
    """Inversion of a zero divisor (or zero) in a quotient ring."""

    def __init__(self, element, detail=""):
        self.element = element
        msg = f"element is not invertible: {element!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateParameters(QuadralabError, ValueError):
    """Parameter values outside the domain of an operation."""


class DegeneratePresentation(QuadralabError, ValueError):
    """A relation space whose rows do not span six dimensions."""

    def __init__(self, rank, collapsed_rows, label=""):
        self.rank = rank
        self.collapsed_rows = list(collapsed_rows)
        super().__init__(
            f"presentation {label or '<unnamed>'} has rank {rank} < 6; "
            f"dependent rows: {self.collapsed_rows}"
        )


class PreconditionViolated(QuadralabError, ValueError):
    """A documented precondition failed; names the vanishing factor."""

    def __init__(self, what):
        self.what = what
        super().__init__(f"precondition violated: {what}")


class NoUniqueSolution(QuadralabError, ValueError):
    """A linear solve was inconsistent or underdetermined."""


class DegreeCapExceeded(InvalidInput):
    """Requested degree exceeds the configured resource cap."""

    def __init__(self, degree, cap):
        self.degree = degree
        self.cap = cap
        super().__init__(
            f"degree {degree} exceeds the cap {cap}; raise QUADRALAB_DEGREE_CAP, "
            "or for dimensions pass force=True (CLI: hilbert --force), to override"
        )
