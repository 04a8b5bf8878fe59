"""Frozen value classes declared by annotated fields.

``@record`` gives a class of annotated fields the methods a frozen stdlib
data class has: an ``__init__`` over the fields in order, by position or
keyword, with the class attribute as default (``factory(make)`` makes a
fresh default for each instance); ``==`` field by field between instances
of one class; a hash of the field tuple; the same ``repr``; and
``AttributeError`` on assignment or deletion.  ``__post_init__`` runs last
and may set fields with ``object.__setattr__``.  ``functools.cached_property``
works, since it writes to the instance ``__dict__``.

The methods are closures, not generated source.  Importing the stdlib
module (with ``inspect``) and ``exec``-ing its generated code for every
class was a fifth of each CLI process's start-up (about 30 ms of 0.15 s on
the x86-64 Linux machine the benchmark ran on).
"""

from operator import attrgetter


class factory:
    """A default made afresh for each instance, as in ``labels: dict = factory(dict)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def record(cls):
    """Make ``cls`` a frozen value class of its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    post_init = getattr(cls, "__post_init__", None)
    getter = attrgetter(*names)
    values = getter if len(names) > 1 else lambda obj: (getter(obj),)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given"
            )
        fields = self.__dict__
        fields.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                fields[name] = kwargs.pop(name)
            elif name in defaults:
                value = defaults[name]
                fields[name] = value.make() if isinstance(value, factory) else value
            else:
                raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
        for name in kwargs:
            if name in names:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
