"""Frozen value records.

The parameter rows, policies, results and reports of qsix are records:
immutable values that compare, hash and print by their fields, and that
change only by `replace`, which builds a new record through the class's
constructor so that its checks run again.
"""

from operator import attrgetter

#: the store of one field, for a record's __init__ alone: Record's own
#: __setattr__ refuses every assignment
set_field = object.__setattr__


class Record:
    """Base of the frozen value records.

    A record's fields are the names annotated in its class's own body, in
    order, two or more. The class defines `__init__` taking exactly those
    fields, with their defaults, and stores each one, checked or
    converted, with `set_field`. Records of one class are equal when their
    fields are, hash as the tuple of their fields and print as
    `Class(field=value, ...)`; a record of another class is never equal.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        code = getattr(cls.__dict__.get("__init__"), "__code__", None)
        if len(cls._fields) < 2 or code is None \
                or code.co_varnames[1:code.co_argcount] != cls._fields:
            raise TypeError(f"{cls.__qualname__} needs two or more fields "
                            f"and an __init__ that takes them")
        # the tuple of a record's field values: `self._values(self)`, as an
        # attrgetter binds no self
        cls._values = attrgetter(*cls._fields)

    def replace(self, **changes):
        """A copy with the named fields changed, built and checked by the
        constructor; an unknown name raises TypeError."""
        return type(self)(**dict(zip(self._fields, self._values(self)),
                                 **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join([f"{name}={value!r}" for name, value
                             in zip(self._fields, self._values(self))])
                + ")")
