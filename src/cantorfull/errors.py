"""Exception hierarchy shared by all modules."""


class CantorError(Exception):
    """Base class for all library errors."""


class LetterOutOfRange(CantorError):
    pass


class AlphabetMismatch(CantorError):
    pass


class IncompatiblePair(CantorError):
    """Raised by join when inputs i and j are not compatible."""

    def __init__(self, i, j):
        super().__init__(f"elements {i} and {j} are not compatible")
        self.i = i
        self.j = j


class BudgetExceeded(CantorError):
    """A bounded search ran out of its node budget where only a hard answer
    (not a certificate) would do."""


class UnknownGenerator(CantorError):
    def __init__(self, name):
        super().__init__(f"unknown generator {name!r}")
        self.name = name


class IncompatibleJoin(CantorError):
    def __init__(self, path):
        super().__init__(f"join children incompatible at {path}")
        self.path = path


class NotAUnit(CantorError):
    pass


class DomainMismatch(CantorError):
    pass


class OverlappingIdempotents(CantorError):
    pass


class EmptyRestriction(CantorError):
    pass


class BadSubdivision(CantorError):
    pass


class SupportsOverlapElsewhere(CantorError):
    pass


class EmptyIntersection(CantorError):
    pass


class NotInAlt(CantorError):
    pass


class KitConstructionFailed(CantorError):
    def __init__(self, m, e):
        super().__init__(f"no three suitable transporters for {m} at {e}")
        self.m = m
        self.e = e


class NotPartwiseStabilizing(CantorError):
    def __init__(self, part_index):
        super().__init__(f"unit does not stabilize part {part_index}")
        self.part_index = part_index


class IdentityInput(CantorError):
    pass


class EmptyInput(CantorError):
    pass


class ParseError(CantorError):
    """Syntax error with position information; source names the file the
    text was read from, if any."""

    def __init__(self, line, col, expected, text="", source=None):
        where = f"line {line}, col {col}" + (f" of {source}" if source else "")
        super().__init__(f"{where}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected
        self.text = text
