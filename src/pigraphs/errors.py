"""Exception types shared across the package."""


class PigError(Exception):
    """Base class for all errors raised by this package."""


class AssociativityViolation(PigError):
    def __init__(self, x, y, z):
        self.witness = (x, y, z)
        super().__init__(
            f"associativity fails at ({x}*{y})*{z} != {x}*({y}*{z})"
        )


class IndexOutOfRange(PigError):
    pass


class SizeLimitExceeded(PigError):
    pass


class NotAGroup(PigError):
    pass


class NotInverseSemigroup(PigError):
    pass


class EmptyVertexSet(PigError):
    pass


class InconsistentQuotient(PigError):
    """A partition quotient that is not skeletal, with a failing pair."""

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(message)


class IsomorphismCheckFailed(PigError):
    pass


class NotSurjective(PigError):
    pass


class SizeMismatch(PigError):
    pass


class NotSkeletal(PigError):
    pass


class NotABijection(PigError):
    pass


class NotSymmetric(PigError):
    pass


class NotSimpleGraph(PigError):
    """An adjacency row with a loop or without its mirror bit."""


class MalformedDocument(PigError):
    """A JSON document that does not have the expected shape."""
