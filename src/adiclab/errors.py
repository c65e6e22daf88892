"""Exception types shared by all workbench modules."""


class AdicLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidRing(AdicLabError):
    """A ring description failed validation (non-prime modulus, etc.)."""


class ParentMismatch(AdicLabError):
    """Operands belong to different rings."""


class DivisionByZero(AdicLabError):
    """Euclidean division step with a zero divisor."""


class UnsupportedRing(AdicLabError):
    """Operation not available over the given ring kind."""


class NotFree(AdicLabError):
    """A complex entry expected to be free carries relations."""


class BudgetExceeded(AdicLabError):
    """A depth/stage/window budget was exceeded."""


class NonSurjectiveReduction(AdicLabError):
    """A scalar-restriction transport was requested for a map that is not
    surjective onto a quotient presentation of its target."""


class ParseError(AdicLabError):
    """Instance file rejected; carries a location and a cause."""

    def __init__(self, position: str, cause: str):
        self.position = position
        self.cause = cause
        super().__init__(f"{position}: {cause}")

    def __reduce__(self):
        # pool workers return errors by pickling them
        return type(self), (self.position, self.cause)


class TaskError(AdicLabError):
    """A task inside an instance file failed; carries the task index."""

    def __init__(self, index: int, cause: str):
        self.index = index
        self.cause = cause
        super().__init__(f"task {index}: {cause}")

    def __reduce__(self):
        return type(self), (self.index, self.cause)


class UnknownProfile(AdicLabError):
    """generate-instances was asked for a profile that does not exist."""


class InvalidComplex(AdicLabError):
    """Differentials do not square to zero or do not line up."""
