"""Record, the base of chaoscope's frozen value records.

A record class declares its fields as class annotations, and their defaults
as class attributes, as a frozen dataclass does; fields come bases first.
Record gives it the methods that ``dataclass(frozen=True)`` would generate:
``__init__``, which binds its arguments as the generated one does and then
runs ``__post_init__``; ``__repr__``; a same-class ``__eq__``; a field-tuple
``__hash__``; and ``__setattr__`` and ``__delattr__``, which raise
``dataclasses.FrozenInstanceError``.  These are written once, here, so
defining a record compiles no generated source, and loading the records
loads neither ``dataclasses`` nor the ``inspect`` it imports.

``dataclasses.fields``, ``replace`` and ``is_dataclass`` and
``inspect.signature`` see a record as the dataclass it replaces: its
``__dataclass_fields__``, ``__dataclass_params__`` and ``__signature__`` are
those of a twin that ``dataclass(frozen=True)`` builds from the record's
fields alone, the first time one of them is read.
"""


def _annotations(cls):
    """The field types of a record class by field name, its bases' first."""
    fields = {}
    for base in reversed(cls.__mro__):
        if issubclass(base, Record):
            fields.update(vars(base).get("__annotations__", {}))
    return fields


def _names(names):
    """Argument names as CPython lists them in a TypeError: 'a', 'b', and 'c'."""
    names = [repr(name) for name in names]
    return " and ".join(names) if len(names) < 3 else ", ".join(names[:-1]) + ", and " + names[-1]


class _FromTwin:
    """A class attribute of a record read from its dataclass twin."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        if "_twin" not in vars(cls):
            import dataclasses
            import inspect

            namespace = {**cls._defaults, "__annotations__": _annotations(cls),
                         "__doc__": cls.__doc__, "__module__": cls.__module__,
                         "__qualname__": cls.__qualname__}
            twin = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
            twin.__signature__ = inspect.signature(twin)
            cls._twin = twin
        return getattr(cls._twin, self.name)


class Record:
    """Base of a frozen record; see the module docstring."""

    _fields = ()
    _defaults = {}

    __dataclass_fields__ = _FromTwin()
    __dataclass_params__ = _FromTwin()
    __signature__ = _FromTwin()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(_annotations(cls))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names, defaults, call = cls._fields, cls._defaults, f"{cls.__qualname__}.__init__()"
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        if len(args) > len(names):
            most = len(names) + 1
            takes = f"from {most - len(defaults)} to {most}" if defaults else most
            plural = "s" if defaults or most != 1 else ""
            raise TypeError(f"{call} takes {takes} positional argument{plural} "
                            f"but {len(args) + 1} were given")
        given.update(kwargs)
        missing = [name for name in names if name not in given and name not in defaults]
        if missing:
            plural = "s" if len(missing) > 1 else ""
            raise TypeError(f"{call} missing {len(missing)} required positional "
                            f"argument{plural}: {_names(missing)}")
        for name in names:
            object.__setattr__(self, name, given[name] if name in given else defaults[name])
        self.__post_init__()

    def __post_init__(self):
        """Check, and where needed convert, the fields; a record subclass overrides it."""

    def _astuple(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
