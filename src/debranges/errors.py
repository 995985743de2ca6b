"""Exception types shared by the whole library."""


class DeBrangesError(Exception):
    """Base class for every library-specific error."""


class UnsupportedOrderError(DeBrangesError):
    """A derivative beyond the provider's guaranteed order was requested."""


class LinearDependenceError(DeBrangesError):
    """The point evaluators are numerically linearly dependent."""

    def __init__(self, message: str, condition_estimate: float = float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class DomainError(DeBrangesError):
    """An argument lies outside the operation's domain."""


class RangeError(DeBrangesError):
    """A value left the range of double precision (overflow or non-finite)."""


class ConfigError(DeBrangesError):
    """A run configuration failed validation; `field` names the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):
        # pickle re-calls __init__ with `args`, which holds only the joined
        # message; this keeps `field` and `message` through a round trip
        return type(self), (self.field, self.message), self.__dict__
