"""Shared exception types, the read-only record base and the checks its loaders use."""

from operator import attrgetter


class VerificationError(Exception):
    """An internal consistency check failed (certificate replay, oracle mismatch)."""


class ExpressionError(ValueError):
    """Malformed expression text, with the line and column where it fails."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def int_tuple(value, n: int, what: str) -> tuple:
    """value, a list or tuple of exactly n ints, as a tuple.

    Anything else is a ValueError: another length, or an entry that is a
    bool, float or str, which would otherwise be read as an int, rounded or
    fail later with a TypeError.
    """
    if type(value) not in (list, tuple) or len(value) != n or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be {n} ints, got {value!r}")
    return tuple(value)


def json_fields(doc, what: str, kinds: dict) -> tuple:
    """The values of doc's keys, in the order of kinds, doc a JSON object.

    kinds maps each key to the type its value must have (object for a
    value a later check reads, such as int_tuple).  A doc that is not a
    dict, a missing key or a value of another type is a ValueError, never
    the KeyError or TypeError that reading it would raise later.
    """
    if type(doc) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    for key, kind in kinds.items():
        if key not in doc:
            raise ValueError(f"{what} has no {key!r}")
        if not isinstance(doc[key], kind):
            raise ValueError(f"{key} must be a {kind.__name__}, got {doc[key]!r}")
    return tuple(doc[key] for key in kinds)


class Record:
    """A read-only value whose fields are its ``__slots__``.

    Records are equal exactly when they have the same type and equal
    fields, hash as the tuple of their fields, print as
    ``Type(field=value, ...)`` and refuse assignment.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)
        # The slots' own setters, which assignment through __setattr__ cannot reach.
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values):  # every field, in __slots__ order
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self.__slots__)}")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values(self)
