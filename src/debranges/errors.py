"""Exception types shared by the whole library."""


class DeBrangesError(Exception):
    """Base class for every library-specific error."""


class UnsupportedOrderError(DeBrangesError):
    """A derivative beyond the provider's guaranteed order was requested."""


class PoleError(DeBrangesError):
    """Evaluation requested exactly at a pole of the rational prefactor."""


class LinearDependenceError(DeBrangesError):
    """The point evaluators are numerically linearly dependent."""

    def __init__(self, message: str, condition_estimate: float = float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class DomainError(DeBrangesError):
    """An argument lies outside the operation's domain."""


class RangeError(DeBrangesError):
    """A value left the range of double precision (overflow or non-finite)."""


class InvalidScheduleError(DeBrangesError):
    """A split-zero schedule produced colliding split points."""


class ConfigError(DeBrangesError):
    """A run configuration failed validation; `field` names the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):
        # pickle (a worker process's error sent back to its caller) re-calls
        # __init__ with `args`, which holds only the joined message
        return type(self), (self.field, self.message), self.__dict__
