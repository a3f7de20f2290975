"""Immutable records: the one base of the package's value types.

A subclass of Record names its fields as its own class annotations, in
order; a class attribute after an annotation is that field's default.  An
instance is an immutable value: == and hash compare the tuple of field values
within one class, repr is `Name(field=value, ...)`, assigning or deleting an
attribute raises AttributeError, and it pickles and copies.

Field values live in the instance __dict__, so functools.cached_property
works and a constructor may store a derived value beside the fields.  The
generic __init__ takes the fields by position or keyword, fills defaults,
then calls __post_init__ to validate.  A record built on a hot path defines
its own __init__ instead, which checks its arguments and writes the fields
to self.__dict__ directly.

The base imports only operator and generates no code per class, so that
`import dtlab` loads none of inspect, dis, ast or tokenize.
"""

from operator import attrgetter


def _getter(fields: tuple[str, ...]):
    """The function from a record to the tuple of its field values; a class
    with no fields is refused here, by attrgetter's TypeError."""
    if len(fields) > 1:
        return attrgetter(*fields)
    one = attrgetter(*fields)
    return lambda record: (one(record),)


class Record:
    """Base of the package's immutable value types (see the module docstring)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        cls._values = staticmethod(_getter(fields))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values from positional and keyword arguments and the
        defaults, refused with the TypeError a Python signature raises."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        given = {**cls._defaults, **given, **kwargs}
        missing = [key for key in fields if key not in given]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return tuple(given[key] for key in fields)

    def __post_init__(self) -> None:
        """Validation run by the generic __init__; nothing by default."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        items = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in items)})"
