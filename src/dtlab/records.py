"""Immutable records: the one base of the package's value types.

A subclass of Record names its fields as its own class annotations, in
order.  An instance is an immutable value: == and hash compare the tuple of
field values within one class, repr is `Name(field=value, ...)`, assigning or
deleting an attribute raises AttributeError, and it pickles and copies.

Every record type builds one way: its own __init__, whose parameters are the
fields in order, checks its arguments and writes each field once into
self.__dict__.  Field values live there, so functools.cached_property works
and a constructor may store a derived value beside the fields.  Three private
constructors skip __init__ and prepare an instance from data a kernel holds:
ExpSum._make (reduced int quadruples (p, q, r, s), canonical by
construction), VectorFunction._make (the table direct_product built from a
valid function) and Distribution._of_ints (the law's reduced ints, checked
as __init__ checks).  The last builds the
law's weights on first read, as a cached_property, so ==, hash, repr and
pickling see the same values whichever constructor built the instance.

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

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = staticmethod(_getter(fields))

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
