"""Plain value classes: equality and a dataclass-style repr over the annotated fields.

The library's value classes and the CLI's run configuration are plain
classes, not dataclasses, so that loading them generates no code and
imports neither `dataclasses` nor `inspect`. A subclass declares its
fields as class annotations, in order, and its `__init__` stores them with
`_set`. Instances keep a `__dict__` (`cached_property` needs one) and
pickle by it, so unpickling does not call `__init__`.
"""


class Record:
    """Equality and repr over the class's own annotated fields; mutable, so unhashable.

    The fields are the names in the class's own `__annotations__` (from
    Python 3.10 a class without annotations has an empty dict there, not
    its base's), in order.
    """

    def _set(self, *values) -> None:
        """Store the field values, in the order the fields are annotated.

        Each goes through `object.__setattr__`, not into `self.__dict__`:
        touching the dict would give up the interpreter's faster layout for
        instance attributes, and every `PaleyWiener.x` read would pay for it.
        """
        for name, value in zip(type(self).__annotations__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in type(self).__annotations__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__])
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record hashed by its fields, which cannot be assigned or deleted after `__init__`."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
