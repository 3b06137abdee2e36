"""Every chaoscope record against a real ``dataclass(frozen=True)`` twin with its fields."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import chaoscope
from chaoscope.cipher import ChaosKey
from chaoscope.errors import DomainError
from chaoscope.records import Record


def _record_classes():
    """Every Record subclass that a chaoscope module defines, by name."""
    found = {}
    for info in pkgutil.iter_modules(chaoscope.__path__):
        if info.name.startswith("__"):  # __main__ runs the command line
            continue
        module = importlib.import_module(f"chaoscope.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, Record) and value is not Record
                    and value.__module__ == module.__name__):
                found[value.__qualname__] = value
    return found


RECORDS = _record_classes()


def _window():
    return chaoscope.ComplexWindow(-2.0, 1.0, -1.0, 1.0, 0.5)


def _affine():
    return chaoscope.AffineMap2(0.5 * np.eye(2), [0.25, 0.5])


#: Constructor arguments of each record; a field with a default is left out.
SAMPLES = {
    "AffineMap2": lambda: (0.5 * np.eye(2), [0.25, 0.5]),
    "BifurcationDiagram": lambda: ([3.5, 3.6], [[0.1, 0.2], [0.3, 0.4]]),
    "BinaryImage": lambda: (np.ones((2, 3), dtype=bool),),
    "ChaosKey": lambda: (3.9, 0.3),
    "ChuaParams": lambda: (15.0, 1.0, 25.58, -8.0 / 7.0, -5.0 / 7.0),
    "CobwebTrace": lambda: (np.array([[0.2, 0.0], [0.2, 0.6]]), np.eye(2)),
    "ComplexWindow": lambda: (-2.0, 1.0, -1.0, 1.0, 0.5),
    "DivergenceReport": lambda: (np.array([0.0, 1.0]), np.array([-18.4, -17.5]), 0.9, (0.0, 1.0)),
    "EscapeGrid": lambda: (np.ones((3, 3)), 5, 2.0, _window()),
    "GrayImage": lambda: (np.arange(6).reshape(2, 3),),
    "HenonParams": lambda: (1.4, 0.3),
    "IfsSystem": lambda: ([_affine(), _affine()],),
    "IntegratorConfig": lambda: (),
    "Linear1DParams": lambda: (-1.0,),
    "LogisticParams": lambda: (3.5,),
    "LorenzParams": lambda: (10.0, 28.0, 8.0 / 3.0),
    "MapOrbit": lambda: ([[0.1, 0.2], [0.3, 0.4]],),
    "PifsCode": lambda: (16, 16, 8, np.zeros((4, 5), dtype=np.int64)),
    "SystemPreset": lambda: ("s", "flow", chaoscope.Linear1DParams, abs, (1.0,), (1.0,)),
    "Trajectory": lambda: ([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]]),
    "_NoParams": lambda: (),
}


def _twin(cls):
    """A frozen dataclass with cls's fields, types and defaults, bases first."""
    annotations = {}
    for base in reversed(cls.__mro__):
        annotations.update(vars(base).get("__annotations__", {}))
    namespace = {name: getattr(cls, name) for name in annotations if hasattr(cls, name)}
    namespace.update(__annotations__=annotations, __module__=cls.__module__,
                     __qualname__=cls.__qualname__)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _specs(cls):
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
             f.kw_only, dict(f.metadata)) for f in dataclasses.fields(cls)]


def _outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)


def _error(call):
    """The type and message of what call() raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)
    return None


def test_every_record_has_a_sample():
    assert sorted(RECORDS) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_each_record_behaves_as_its_dataclass_twin(name):
    cls, args = RECORDS[name], SAMPLES[name]()
    twin = _twin(cls)
    fields = [f.name for f in dataclasses.fields(twin)]

    # the class: fields, signature, match args and doc
    assert dataclasses.is_dataclass(cls)
    assert _specs(cls) == _specs(twin)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__match_args__ == twin.__match_args__ == tuple(fields)
    assert isinstance(vars(cls)["__doc__"], str) and vars(cls)["__doc__"].strip()

    # binding: the same TypeError for each wrong call, and the same fields
    # for a right one
    wrong = [lambda c: c(*range(len(fields) + 1)), lambda c: c(), lambda c: c(nosuch=1)]
    if fields:
        wrong.append(lambda c: c(0, **{fields[0]: 0}))
    for call in wrong:
        want = _error(lambda: call(twin))
        if want is not None:
            assert _error(lambda: call(cls)) == want
    record, again = cls(*args), cls(*args)
    values = [getattr(record, f) for f in fields]
    copy_of = twin(*values)
    assert repr(record) == repr(copy_of)
    assert repr(cls(**dict(zip(fields, args)))) == repr(record)

    # eq and hash; a code compares and hashes its FIC1 bytes
    if "__eq__" not in vars(cls):
        other = twin(*[getattr(again, f) for f in fields])
        assert _outcome(lambda: record == again) == _outcome(lambda: copy_of == other)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(copy_of))
        sub, twin_sub = type("Sub", (cls,), {}), type("Sub", (twin,), {})
        assert (_outcome(lambda: record == sub(*args))
                == _outcome(lambda: copy_of == twin_sub(*values)))
        assert record.__eq__(sub(*args)) is NotImplemented
    assert record.__eq__(copy_of) is NotImplemented
    assert record != copy_of and copy_of != record
    assert record != object()

    # frozen, for fields and other names alike
    for attr in fields + ["nosuch"]:
        for change in (lambda r: setattr(r, attr, 0), lambda r: delattr(r, attr)):
            want = _error(lambda: change(copy_of))
            assert want[0] is dataclasses.FrozenInstanceError
            assert _error(lambda: change(record)) == want
    assert repr(record) == repr(copy_of)

    # replace, pickle and copy give a record of the same class and fields
    remade = [dataclasses.replace(record), pickle.loads(pickle.dumps(record)),
              copy.copy(record), copy.deepcopy(record)]
    if fields:
        remade.append(dataclasses.replace(record, **{fields[0]: values[0]}))
    for result in remade:
        assert type(result) is cls
        assert repr(result) == repr(record)
        if not _error(lambda: hash(record)):
            assert result == record and hash(result) == hash(record)


def test_replace_reruns_post_init():
    key = ChaosKey(3.9, 0.3)
    assert dataclasses.replace(key, warmup=300) == ChaosKey(3.9, 0.3, 300)
    with pytest.raises(DomainError, match="x0 = 0.5 is excluded"):
        dataclasses.replace(key, x0=0.5)


def test_fields_come_bases_first_as_in_a_dataclass():
    class Base(Record):
        """A record with a default."""

        x: int
        y: int = 2

    class Derived(Base):
        """A record that adds a field and gives an inherited one a default."""

        z: int = 3
        x: int = 1

    @dataclasses.dataclass(frozen=True)
    class TwinBase:
        x: int
        y: int = 2

    @dataclasses.dataclass(frozen=True)
    class TwinDerived(TwinBase):
        z: int = 3
        x: int = 1

    for cls, twin in ((Base, TwinBase), (Derived, TwinDerived)):
        assert _specs(cls) == _specs(twin)
        assert inspect.signature(cls) == inspect.signature(twin)
    assert repr(Derived(7, z=9)).endswith("Derived(x=7, y=2, z=9)")
    assert repr(TwinDerived(7, z=9)).endswith("TwinDerived(x=7, y=2, z=9)")
    assert Derived() != Base(1, 2)
