"""The library's error types survive pickling, as a worker process's error does on its way to the caller."""

import inspect
import pickle

import pytest

from debranges import errors

# one instance of every error class, with each extra attribute set to a value other than its default
INSTANCES = [
    errors.DeBrangesError("base"),
    errors.UnsupportedOrderError("order 9 past the budget"),
    errors.LinearDependenceError("dependent evaluators", condition_estimate=3.5e12),
    errors.DomainError("outside the domain"),
    errors.RangeError("K_z(w) at w = 800j"),
    errors.ConfigError("grid", "missing"),
]
EXTRA = ("field", "message", "condition_estimate")


def test_every_error_class_is_covered():
    classes = {c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__}
    assert {type(e) for e in INSTANCES} == classes


@pytest.mark.parametrize("error", INSTANCES, ids=lambda e: type(e).__name__)
def test_round_trips_through_pickle(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name in EXTRA:
        assert getattr(copy, name, None) == getattr(error, name, None)
