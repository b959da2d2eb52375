"""The base of the package's value classes.

A subclass names its fields, in order, in ``_fields``.  Its instances are
equal when they are of the same class and their fields are equal, and print
as ``Name(field=value, ...)``.  A subclass declared with ``hashable=True``,
whose fields all hash, hashes as the tuple of its fields; any other is
unhashable, as a class that defines ``__eq__`` alone is.
"""

from operator import attrgetter


class _Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, hashable: bool = False):
        # the field tuple, or the one field of a one-field class
        cls._key = attrgetter(*cls._fields)
        if not hashable:
            cls.__hash__ = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"
